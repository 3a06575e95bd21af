from hypothesis import given, strategies as st

from covertower.surface import (
    abelianized,
    are_conjugate,
    cyclic_reduce,
    free_reduce,
    generator_count,
    inverse_word,
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


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((3, 1, 2, -1, -3)) == (2,)
    assert cyclic_reduce(()) == ()


def test_conjugacy():
    w = (1, 2)
    conj = free_reduce((3, 4) + w + inverse_word((3, 4)))
    assert are_conjugate(w, conj)
    assert are_conjugate(w, (2, 1))
    assert not are_conjugate(w, (1, -2))
    assert not are_conjugate(w, (1,))


@given(words(2, max_size=8), words(2, max_size=4))
def test_conjugates_are_conjugate(w, c):
    assert are_conjugate(w, c + w + inverse_word(c))


def test_standard_symplectic_shape():
    j = standard_symplectic(2)
    assert j[0][1] == 1 and j[1][0] == -1
    assert j[2][3] == 1 and j[3][2] == -1
    for i in range(4):
        for k in range(4):
            if {i, k} not in ({0, 1}, {2, 3}):
                assert j[i][k] == 0

