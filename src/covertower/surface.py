"""Words in the fundamental group of a closed oriented genus-g surface.

Generators are indexed 0..2g-1.  Index 2k is the k-th handle's first loop,
index 2k+1 its second; the boundary relator is the product of the g
commutators taken in handle order.

A word is a tuple of nonzero ints: letter +(i+1) is generator i, letter
-(i+1) its inverse.  The empty tuple is the identity.
"""

from __future__ import annotations

from .errors import DimensionMismatch

Word = tuple[int, ...]


def generator_count(genus: int) -> int:
    return 2 * genus


def letter_index(letter: int) -> int:
    if letter == 0:
        raise ValueError("letter 0 is not a generator")
    return abs(letter) - 1


def surface_relator(genus: int) -> Word:
    """Product of commutators of the handle generator pairs."""
    out: list[int] = []
    for k in range(genus):
        a = 2 * k + 1
        b = 2 * k + 2
        out.extend((a, b, -a, -b))
    return tuple(out)


def free_reduce(word) -> Word:
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word) -> Word:
    return tuple(-letter for letter in reversed(word))


def substitute(word, images: list[Word]) -> Word:
    """Apply the endomorphism sending generator i to images[i], then reduce."""
    out: list[int] = []
    for letter in word:
        idx = letter_index(letter)
        if idx >= len(images):
            raise DimensionMismatch(f"no image for generator index {idx}")
        piece = images[idx] if letter > 0 else inverse_word(images[idx])
        for x in piece:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def cyclic_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def are_conjugate(w1, w2) -> bool:
    """Conjugacy test in the free group on the ambient generators."""
    c1 = cyclic_reduce(w1)
    c2 = cyclic_reduce(w2)
    if len(c1) != len(c2):
        return False
    if not c1:
        return True
    doubled = c2 + c2
    n = len(c1)
    return any(doubled[i : i + n] == c1 for i in range(n))


def abelianized(word, genus: int) -> tuple[int, ...]:
    """Exponent-sum vector of the word, one entry per generator."""
    n = generator_count(genus)
    counts = [0] * n
    for letter in word:
        idx = letter_index(letter)
        if idx >= n:
            raise DimensionMismatch(f"letter {letter} outside genus-{genus} alphabet")
        counts[idx] += 1 if letter > 0 else -1
    return tuple(counts)


def symplectic_product(u, v) -> int:
    """Standard symplectic form in the interleaved a1,b1,a2,b2,... basis."""
    if len(u) != len(v) or len(u) % 2 != 0:
        raise DimensionMismatch("vectors must share an even length")
    total = 0
    for k in range(0, len(u), 2):
        total += u[k] * v[k + 1] - u[k + 1] * v[k]
    return total


def standard_symplectic(genus: int) -> list[list[int]]:
    """Intersection numbers of the standard one-handle loops, as a matrix."""
    n = generator_count(genus)
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    return [[symplectic_product(u, v) for v in units] for u in units]

