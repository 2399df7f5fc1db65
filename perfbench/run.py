"""The tanglelab benchmark.

    python3 perfbench/run.py --workload links|tangles|groups|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One workload is a seeded list of CLI
queries (see workloads.py).  A single-threaded closed-loop client in this
process sends them through `tanglelab.cli.run(argv, stdout=buffer)`, one
at a time, the next when the previous returns, and repeats whole passes
while another pass still fits in --seconds (at least one pass).  Every
answer is then checked by the independent oracle (oracle.py).

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 one untraced pass is followed by one pass with spans around
every public tanglelab function (spans.py), and the last line reports the
per-layer metrics.  `--workload all` runs the three workloads one after
another, each in its own process, and prints every metric with its unit.
Results, input profiles and spans go to perfbench/out/.
"""

import os

# One process, one thread: pin numpy's thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from probe import WARMUP  # noqa: E402
from spans import MOVES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
END_TO_END_UNITS = {
    "wall_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(root):
    """Seconds of one fresh interpreter's import and lazy set-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py")],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def run_pass(cli, queries, tracer=None):
    """Send every query once; returns (wall seconds, latencies, answers)."""
    latencies, answers = [], []
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            # looked up per call: a traced pass rebinds cli.run
            code = cli.run(q["argv"], stdout=buf)
        except Exception:  # an exception escaping cli.run is a failed query
            code = None
            buf.write(traceback.format_exc(limit=2))
        latencies.append(time.perf_counter() - t0)
        answers.append((code, buf.getvalue()))
    return time.perf_counter() - start, latencies, answers


def percentile_ms(values, pct):
    return statistics.quantiles(values, n=100)[pct - 1] * 1e3


def run_workload(args, root):
    from tanglelab import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: tanglelab imported from {cli.__file__}, not from {src}")

    out_dir = root / "perfbench" / "out"
    queries, profile = workloads.build(args.workload, args.seed, out_dir / f"work-{args.workload}")
    setups = [probe_setup(root) for _ in range(SETUP_PROBES)]
    for argv in WARMUP:
        cli.run(argv, stdout=io.StringIO())

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(cli, queries))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - started + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        passes.append(run_pass(cli, queries, tracer))

    attempted = failed = unexpected = 0
    failures = []
    verdicts = {}
    for _, _, answers in passes:
        for i, (q, (code, text)) in enumerate(zip(queries, answers)):
            key = (i, code, text)
            if key not in verdicts:
                verdicts[key] = oracle.verify(q, code, text)
            attempted += 1
            reason = verdicts[key]
            if reason is not None:
                failed += 1
                unexpected += not q["defect"]
                if len(failures) < 20:
                    failures.append({"argv": q["argv"], "reason": reason,
                                     "known_defect": q["defect"]})

    untraced = passes[:-1] if tracer else passes
    latencies = [x for p in untraced for x in p[1]]
    end_to_end = {
        "wall_s": statistics.median(p[0] for p in untraced),
        "query_ms.p50": statistics.median(latencies) * 1e3,
        "query_ms.p90": percentile_ms(latencies, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    baseline = {}
    seconds_per_command = {}
    for i, q in enumerate(queries):
        secs = statistics.median(p[1][i] for p in untraced)
        seconds_per_command[q["label"]] = seconds_per_command.get(q["label"], 0) + secs
        if q["tag"]:
            baseline[q["tag"]] = secs

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(untraced),
        "query_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "unexpected_failures": unexpected,
        "failures": failures,
        "end_to_end": end_to_end,
        "setup_samples_s": setups,
        "baseline_rows_s": baseline,
        "seconds_per_command": seconds_per_command,
        "profile": profile,
    }
    for name, value in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{args.workload} query_ms.samples = {len(latencies)} queries in {len(untraced)} pass(es)")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} queries)")
    for tag, secs in baseline.items():
        print(f"{args.workload} baseline {tag} = {secs:.6g} s")
    for f in failures:
        kind = "known defect" if f["known_defect"] else "FAILED"
        print(f"{args.workload} {kind}: {' '.join(f['argv'])[:80]} -- {f['reason']}",
              file=sys.stderr)

    units = END_TO_END_UNITS
    metrics = end_to_end
    if tracer:
        layers = tracer.layer_metrics(passes[-1][0], end_to_end["wall_s"])
        units = layer_units()
        metrics = {name: layers[name] for name in units}
        report["per_layer"] = metrics
        report["per_layer_moves"] = MOVES
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz")
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")

    suffix = "-trace" if tracer else ""
    (out_dir / f"{args.workload}-{args.seed}{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        # failures outside the known-defect class make the run incorrect;
        # every failure, known or not, counts in `failed`
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def layer_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args, root):
    """Each workload in its own process, then every metric with its unit."""
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
    print()
    print(f"{'workload':10} {'metric':50} {'value':>14} unit")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:10} {name:50} {m['value']:14.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{workload:10} {'error_rate':50} {rate:14.6g} ratio")
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tanglelab" / "__init__.py").is_file():
        print("error: run from the root of a tanglelab checkout (src/tanglelab is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
