"""Small example links and the point-to-line map of the boundary
invariant, used as fixtures by the tests."""

from tanglelab.exact_linear import SubspaceModP
from tanglelab.tangle_core import BraidWord, braid_closure


def trefoil():
    return braid_closure(BraidWord(2, (1, 1, 1)))


def figure_eight():
    return braid_closure(BraidWord(3, (1, -2, 1, -2)))


def borromean_rings():
    return braid_closure(BraidWord(3, (1, -2, 1, -2, 1, -2)))


def trivial_link(n):
    return braid_closure(BraidWord(n, ()))


def point_to_line(point, p):
    """The reduced boundary image line matching a projective point:
    [a : b] corresponds to span{(-a, b)} in the f-basis coordinates."""
    a, b = point
    return SubspaceModP.from_vectors([[(-a) % p, b % p]], p, 2)
