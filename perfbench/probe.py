"""Set-up cost a command-line user pays on every call: a fresh
interpreter's import of tanglelab plus the one-time lazy work (boundary
calibration, Burnside tables), measured from just before the import until
the warm-up queries have returned.  Prints the seconds as the last line.
Run from the repository root.
"""

import io
import sys
import time

# The warm-up queries; the benchmark's client sends the same ones before
# its timed passes.
WARMUP = (
    ["boundary", "--p", "5", "--conway", "1"],
    ["tri", "--braid", "3: 1 -2"],
    ["burnside", "eval", "-r", "4", "--word", "1 2"],
)


def main():
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    from tanglelab import cli

    for argv in WARMUP:
        if cli.run(argv, stdout=io.StringIO()) != 0:
            sys.exit(f"warm-up query failed: {argv}")
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main()
