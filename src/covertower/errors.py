"""Exception types raised across the package.

Every structural validation failure gets its own class so callers can
distinguish "the input is malformed" from "the search gave up".
"""

import numbers
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import chain


class CovertowerError(Exception):
    """Base class for all package-specific errors."""


class BadDegree(CovertowerError):
    """Permutation data does not match the declared number of sheets."""


class RelatorNotTrivial(CovertowerError):
    """The surface relator does not act as the identity permutation."""


class NotTransitive(CovertowerError):
    """The permutation action has more than one orbit on sheets."""


class SearchBudgetExceeded(CovertowerError):
    """An enumeration or refinement search exceeded its candidate budget."""


class GenusMismatch(CovertowerError):
    """A genus implied by combinatorial data disagrees with a declared genus."""


class InvalidIdentification(CovertowerError):
    """Edge-to-word identification data does not define a valid composite cover."""


class ComplexMismatch(CovertowerError):
    """Chain or cochain data does not fit the cell structure it was given with."""


class KindMismatch(CovertowerError):
    """An operation was applied to a limit element of the wrong payload kind."""


class BaseMismatch(CovertowerError):
    """Two objects that must live over the same base do not."""


class IncompatibleTower(CovertowerError):
    """Covers that should fit into a common tower fail to do so."""


class SwitchViolation(CovertowerError):
    """A weight vector violates a switch balance condition."""


class NegativeWeight(CovertowerError):
    """A weight vector has a negative entry where nonnegativity is required."""


class NonIntegerWeights(CovertowerError):
    """Integer weights were required but fractional values appeared."""


class DimensionMismatch(CovertowerError):
    """A vector or matrix has the wrong shape for the object it acts on."""


class ConeViolation(CovertowerError):
    """A matrix fails to map one weight cone into another."""


class InvalidAutomorphism(CovertowerError):
    """A candidate substitution fails to define a surface-group automorphism."""


# ---------------------------------------------------------------------------
# Field checks, the one input policy: an integer is an int and not a bool, an
# integral number any number equal to an integer.  Each check raises its
# caller's error class, as "<field> must be ..., got <value>".


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def need(value, cls, name: str, error):
    """value, once it is an instance of cls."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, got {value!r:.40}")
    return value


def integer(value, name: str, error, low: int | None = None) -> int:
    """value, once it is an integer no smaller than low."""
    if not is_int(value) or (low is not None and value < low):
        bound = "" if low is None else f" at least {low}"
        raise error(f"{name} must be an integer{bound}, got {value!r:.40}")
    return value


def sequence(value, name: str, error, length: int | None = None) -> tuple:
    """value as a tuple, of the given length if one is given."""
    try:
        items = tuple(value)
    except TypeError:
        raise error(f"{name} must be a sequence, got {value!r:.40}") from None
    if length is not None and len(items) != length:
        raise error(f"expected {length} {name}, got {len(items)}")
    return items


def integers(values, name: str, error) -> tuple[int, ...]:
    """values as a tuple of integers; a bad entry is named name[k].  Plain
    ints pass in one C-speed pass over their types; anything else, int
    subclasses included, is checked entry by entry."""
    items = sequence(values, name, error)
    if not set(map(type, items)) <= {int}:
        for k, x in enumerate(items):
            integer(x, f"{name}[{k}]", error)
    return items


def words(table, name: str, genus: int, error) -> tuple[tuple[int, ...], ...]:
    """table as words in the 2*genus generators, letters 0 < |x| <= 2*genus;
    a bad word is named name[k]."""
    n = 2 * genus
    rows = sequence(table, name, error)
    try:
        out = tuple(map(tuple, rows))
        letters = tuple(chain.from_iterable(out))
        clean = set(map(type, letters)) <= {int} and all(0 < abs(x) <= n for x in letters)
    except TypeError:  # a row that is not a sequence: the loop below names it
        clean = False
    for k, w in enumerate(() if clean else rows):
        word(w, f"{name}[{k}]", genus, error)
    return out


def word(value, name: str, genus: int, error) -> tuple[int, ...]:
    """value as a word in the 2*genus generators, letters 0 < |x| <= 2*genus."""
    w = integers(value, name, error)
    if 0 in w or max(map(abs, w), default=0) > 2 * genus:
        raise error(f"{name} must be a word in letters 0 < |x| <= {2 * genus}, got {w!r:.40}")
    return w


def rational(value, name: str) -> Fraction:
    """value as a Fraction; NonIntegerWeights naming a bool or a non-number."""
    if not isinstance(value, bool) and isinstance(value, numbers.Number):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise NonIntegerWeights(f"{name} must be a number, got {value!r:.40}")


def integral(value, name: str) -> int:
    """An integral number as an int; NonIntegerWeights naming anything else."""
    if type(value) is int:
        return value
    f = rational(value, name)
    if f.denominator != 1:
        raise NonIntegerWeights(f"{name} must be an integer, got {value!r:.40}")
    return f.numerator


def integrals(items, name: str) -> list[int]:
    """Each entry of a sequence read by integral, the k-th named name[k]; an
    int is taken as it is, so a name is built only for another entry."""
    return [x if type(x) is int else integral(x, f"{name}[{k}]") for k, x in enumerate(items)]


def checked_cache(check):
    """Decorator: an unbounded lru_cache behind check, which takes the public
    arguments, raises its caller's error for a bad one and returns the key
    (the body's arguments).  An accepted call is one cache lookup; the public
    name keeps the body's signature, cache_info, cache_clear and __wrapped__."""
    def decorate(body):
        cached = lru_cache(maxsize=None)(body)

        @wraps(body)
        def checked(*args, **kwargs):
            return cached(*check(*args, **kwargs))

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def genus_key(genus) -> tuple[int]:
    """The check of a per-genus cache: BadDegree unless genus is an integer >= 2."""
    return (integer(genus, "genus", BadDegree, low=2),)
