"""The orbit walk's oracles: the transvection, the gcd normalisation and the
all-pairs covering radius, written out plainly.  The walk in
covertower.orbit does none of these steps this way; tests/test_orbit.py
replays it with them and compares every checkpoint."""

import math

import numpy as np

from covertower.errors import CovertowerError, DimensionMismatch
from covertower.surface import symplectic_product


def transvection(curve, x, sign: int = 1):
    """x + sign * <x, curve> * curve, the twist action on classes."""
    pairing = symplectic_product(x, curve)
    return tuple(xi + sign * pairing * ci for xi, ci in zip(x, curve))


def projective_normalize(vec):
    """Primitive integer representative with positive leading entry."""
    g = math.gcd(*vec)
    if g == 0:
        raise DimensionMismatch("zero vector has no direction")
    for v in vec:
        if v:
            if v < 0:
                g = -g
            break
    return tuple([v // g for v in vec])


def covering_radius(points, targets) -> float:
    """Largest projective angle from any target to the point set.

    Brute force over all pairs, where the walk folds new points into a
    running best.  A point too large for a float, in an entry or in its
    norm, raises CovertowerError naming its index, as the walk does.
    """
    dim = targets.shape[1]
    if len(points) == 0 or any(len(p) != dim for p in points):
        raise DimensionMismatch(f"points must be a nonempty set of vectors of dimension {dim}")
    try:
        with np.errstate(over="raise"):
            mat = np.array(points, dtype=float)
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
    except (OverflowError, FloatingPointError):
        # the point of largest exact norm is one that left the float range
        k = max(range(len(points)), key=lambda k: sum(v * v for v in points[k]))
        raise CovertowerError(f"points[{k}] is too large for a float") from None
    if not norms.all():
        raise DimensionMismatch("zero vector has no direction")
    dots = np.abs(targets @ (mat / norms).T).max(axis=1)
    return float(np.arccos(np.clip(dots.min(), -1.0, 1.0)))
