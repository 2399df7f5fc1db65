"""Immutable value classes built on named tuples.

A value class is declared as

    class Frac(Value, namedtuple("Frac", "num den")):
        __slots__ = ()

and its instances print as `Frac(num=1, den=0)`.  Validation, where a
class has any, goes in `__new__`.  Unlike bare tuples, two values are
equal only when they have the same class (`Rot(Integer(3))` and
`Rational(3)` are both ((3,),) as tuples), every value is true, and
values have no order.
"""

__all__ = ["Value"]


def _unordered(self, other):
    return NotImplemented


def _immutable(self, name, *value):
    raise AttributeError(f"{self.__class__.__name__} values are immutable")


class Value:
    """Mixin, listed before the namedtuple base, that gives a tuple class
    value semantics."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.__class__, *self))

    def __bool__(self):
        return True

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    __setattr__ = __delattr__ = _immutable
