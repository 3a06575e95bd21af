import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertower.covers import enumerate_covers
from covertower.errors import DimensionMismatch
from covertower.surface import (
    abelianized,
    free_reduce,
    generator_count,
    inverse_word,
    is_trivial,
    letter_index,
    standard_symplectic,
    substitute,
    surface_relator,
)


def letters(genus):
    n = generator_count(genus)
    return st.integers(min_value=-n, max_value=n).filter(lambda x: x != 0)


def words(genus, max_size=12):
    return st.lists(letters(genus), max_size=max_size).map(tuple)


def test_letter_indexing_round_trip():
    for letter, idx in ((1, 0), (-1, 0), (2, 1), (-2, 1), (5, 4), (-5, 4), (6, 5), (-6, 5)):
        assert letter_index(letter) == idx


def test_generator_count():
    assert generator_count(2) == 4
    assert generator_count(3) == 6


def test_relator_genus_two():
    # [a1,b1][a2,b2] with letters a1=1, b1=2, a2=3, b2=4
    assert surface_relator(2) == (1, 2, -1, -2, 3, 4, -3, -4)


def test_relator_abelianizes_to_zero():
    for g in (2, 3, 4):
        assert abelianized(surface_relator(g), g) == (0,) * generator_count(g)


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)


@given(words(2))
def test_free_reduce_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@given(words(2))
def test_inverse_word_involution(w):
    assert free_reduce(inverse_word(inverse_word(w))) == free_reduce(w)


@given(words(2))
def test_word_times_inverse_cancels(w):
    assert free_reduce(w + inverse_word(w)) == ()


@given(words(2), words(2))
def test_abelianized_additive(u, v):
    au = abelianized(u, 2)
    av = abelianized(v, 2)
    combined = abelianized(u + v, 2)
    assert combined == tuple(x + y for x, y in zip(au, av))


def test_substitute_is_a_homomorphism():
    images = [(2,), (1, 2), (3, 3), (-4,)]
    u = (1, 3, -2)
    v = (2, 4)
    left = substitute(tuple(u) + tuple(v), images)
    right = free_reduce(substitute(u, images) + substitute(v, images))
    assert left == right


def test_substitute_identity():
    images = [(1,), (2,), (3,), (4,)]
    w = (1, -3, 2, 2, -4)
    assert substitute(w, images) == w


# ---------------------------------------------------------------------------
# the word problem

# census degree bound per genus: all covers of degree <= 4 at genus 2, <= 3
# at genus 3 (7,988 covers) and <= 2 at genus 4 (256); genus 4 at degree 3
# alone has 281,740
CENSUS_DEGREE = {2: 4, 3: 3, 4: 2}


def relator_rotation(genus, k, sign):
    """Cyclic rotation by k of the relator, or of its inverse for sign -1."""
    r = surface_relator(genus)
    r = r if sign > 0 else inverse_word(r)
    return r[k:] + r[:k]


@st.composite
def relator_products(draw, genus):
    """A freely reduced product of conjugates of cyclic rotations of R^+-1."""
    out = ()
    for _ in range(draw(st.integers(0, 4))):
        conj = draw(words(genus, max_size=6))
        k = draw(st.integers(0, 4 * genus - 1))
        rotation = relator_rotation(genus, k, draw(st.sampled_from((1, -1))))
        out += conj + rotation + inverse_word(conj)
    return free_reduce(out)


@st.composite
def near_relator_products(draw, genus):
    """A relator product with one letter inserted, deleted or replaced, or a
    random word: trivial and nontrivial words both occur."""
    word = list(draw(relator_products(genus)))
    edit = draw(st.sampled_from(("insert", "delete", "replace", "random", "none")))
    if edit == "random":
        return draw(words(genus, max_size=16))
    k = draw(st.integers(0, len(word)))
    if edit == "insert":
        word.insert(k, draw(letters(genus)))
    elif word and k < len(word) and edit != "none":
        if edit == "delete":
            del word[k]
        else:
            word[k] = draw(letters(genus).filter(lambda x: x != word[k]))
    return tuple(word)


@lru_cache(maxsize=None)
def census_arrays(genus):
    """Per degree up to CENSUS_DEGREE[genus]: each generator's permutation
    and its inverse, stacked over the census, shape (2g, covers, degree)."""
    out = []
    for d in range(1, CENSUS_DEGREE[genus] + 1):
        perms = np.array([c.perms for c in enumerate_covers(genus, d)]).transpose(1, 0, 2)
        out.append((perms, np.argsort(perms, axis=2)))
    return tuple(out)


def moves_a_census_sheet(word, genus):
    """Whether the word moves some sheet of some census cover."""
    for perms, inverses in census_arrays(genus):
        sheets = np.broadcast_to(np.arange(perms.shape[2]), perms.shape[1:])
        for x in word:
            step = perms[x - 1] if x > 0 else inverses[-x - 1]
            sheets = np.take_along_axis(step, sheets, axis=1)
        if (sheets != np.arange(perms.shape[2])).any():
            return True
    return False


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_relator_rotations_and_their_inverses_are_trivial(genus):
    for k in range(4 * genus):
        for sign in (1, -1):
            assert is_trivial(relator_rotation(genus, k, sign), genus)
            assert not is_trivial(relator_rotation(genus, k, sign)[1:], genus)


@given(st.sampled_from([2, 3, 4]).flatmap(lambda g: st.tuples(st.just(g), relator_products(g))))
def test_products_of_relator_conjugates_are_trivial(case):
    genus, word = case
    assert is_trivial(word, genus)
    assert is_trivial(inverse_word(word) + (1, -1), genus)


@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda g: st.tuples(st.just(g), near_relator_products(g))
))
def test_a_trivial_word_moves_no_sheet_of_the_census(case):
    """is_trivial implies the identity word_perm on every census cover, and a
    word that moves a sheet of some census cover is not trivial."""
    genus, word = case
    assert not (is_trivial(word, genus) and moves_a_census_sheet(word, genus))


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_the_word_problem_meets_both_outcomes(genus):
    """Seeded near-relator words and random words: the census never sees a
    word called trivial move, every word it sees move is called nontrivial,
    and both answers occur."""
    rng = random.Random(genus)
    alphabet = [x for i in range(generator_count(genus)) for x in (i + 1, -(i + 1))]
    found = set()
    for n in range(150):
        word = []
        for _ in range(rng.randint(0, 3)):
            conj = rng.choices(alphabet, k=rng.randint(0, 5))
            rotation = relator_rotation(genus, rng.randrange(4 * genus), rng.choice((1, -1)))
            word += conj + list(rotation) + list(inverse_word(conj))
        if n % 3 == 1:
            word.insert(rng.randint(0, len(word)), rng.choice(alphabet))
        elif n % 3 == 2:
            word = rng.choices(alphabet, k=rng.randint(0, 12))
        trivial = is_trivial(word, genus)
        moves = moves_a_census_sheet(word, genus)
        assert not (trivial and moves), word
        found.add((trivial, moves))
    assert {(True, False), (False, True)} <= found


def test_is_trivial_names_a_letter_outside_the_alphabet():
    with pytest.raises(DimensionMismatch, match="letter 5 outside genus-2 alphabet"):
        is_trivial((1, 5), 2)
    with pytest.raises(DimensionMismatch, match="letter 0 outside genus-2 alphabet"):
        is_trivial((0,), 2)


def test_standard_symplectic_shape():
    j = standard_symplectic(2)
    assert j[0][1] == 1 and j[1][0] == -1
    assert j[2][3] == 1 and j[3][2] == -1
    for i in range(4):
        for k in range(4):
            if {i, k} not in ({0, 1}, {2, 3}):
                assert j[i][k] == 0

