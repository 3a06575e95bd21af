"""Words in the fundamental group of a closed oriented genus-g surface.

Generators are indexed 0..2g-1.  Index 2k is the k-th handle's first loop,
index 2k+1 its second; the boundary relator is the product of the g
commutators taken in handle order.

A word is a tuple of nonzero ints: letter +(i+1) is generator i, letter
-(i+1) its inverse.  The empty tuple is the identity.
"""

from __future__ import annotations

from .errors import DimensionMismatch, checked_cache, genus_key

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


@checked_cache(genus_key)
def _dehn_steps(genus: int) -> dict[int, tuple[tuple[int, Word], ...]]:
    """For each letter x, along the cyclic relator R and along R^-1 (x occurs
    once in each): the letter after x, and the 2g - 1 letters after x, each
    inverted.  Read from the end, these spell the inverse of the complement
    of a run of 2g + 1 letters that ends at x, which that run equals."""
    steps: dict[int, tuple[tuple[int, Word], ...]] = {}
    for r in (surface_relator(genus), inverse_word(surface_relator(genus))):
        doubled = r + r
        for k, x in enumerate(r):
            complement = doubled[k + 1 : k + 2 * genus]
            steps[x] = steps.get(x, ()) + ((complement[0], tuple(-y for y in complement)),)
    return steps


def is_trivial(word, genus: int) -> bool:
    """Whether a word is the identity of the genus-g surface group, by Dehn's
    algorithm (Lyndon and Schupp, Combinatorial Group Theory, ch. V).

    The presentation is C'(1/7), so a freely reduced word equal to 1 is
    empty or holds 2g + 1 letters of a cyclic rotation of R or R^-1, which
    equal the inverse of their complement.  One stack pass keeps the word
    read so far freely reduced and free of such runs: each stacked letter
    carries its run along R and along R^-1, and a run of 2g + 1 is popped
    and the complement's inverse read next.  The word is trivial iff the
    stack ends empty.
    """
    steps = _dehn_steps(genus)
    half = 2 * genus
    stack: list[tuple[int, int, int]] = []  # (letter, run along R, run along R^-1)
    pending = list(reversed(word))  # read from the end
    while pending:
        x = pending.pop()
        if x not in steps:
            raise DimensionMismatch(f"letter {x} outside genus-{genus} alphabet")
        run = run_inv = 1
        if stack:
            top, top_run, top_run_inv = stack[-1]
            if top == -x:
                stack.pop()
                continue
            (after, _), (after_inv, _) = steps[top]
            run += top_run if after == x else 0
            run_inv += top_run_inv if after_inv == x else 0
        if run > half or run_inv > half:
            del stack[len(stack) - half :]
            pending.extend(steps[x][run <= half][1])
        else:
            stack.append((x, run, run_inv))
    return not stack


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

