"""Fox-calculus assembly of the relator, trace and coboundary matrices
against the letter-by-letter reference path, on random SL(2,C)
representations and random words with inverse and repeated letters.

References, all in ``helpers``: ``cocycle_walk`` and ``trace_differential``
applied to the unit cocycles of ``cocycle_from_vector``, and ``coboundary`` of
each basis element.  ``repvar.cocycle_extend``, the one-word call of the Fox
walk, is checked against ``cocycle_walk`` too.  The walk itself is checked bit
for bit against ``fox_walk_reference``, one ``np.matmul`` per letter.

Rounding bound, fixed from float64 eps: both routes form the prefixes of a
word as products of its letters, so the product N_k of the letter norms
through letter k bounds the norm of the k-th prefix and its rounding error.
A conjugated basis element Ad(P) B costs at most N_k^2, so an entry of a word
of length m is off by at most FOX_C * eps * m * sum_k N_k^2; a trace entry
carries one more factor N_m for rho(word).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    coboundary,
    cocycle_from_vector,
    cocycle_walk,
    fox_walk_reference,
    matrix_from_coords,
    same_bits,
    trace_differential,
)
from stokerlab.errors import IndexRange
from stokerlab.repvar import (
    Presentation,
    Representation,
    _fox_calculus,
    _fox_matrices,
    algebra_basis,
    cocycle_extend,
    cocycle_space,
    coords_from_matrix,
    trace_rank,
)

EPS = np.finfo(float).eps
FOX_C = 16


@st.composite
def fox_cases(draw):
    """A random representation of 1-4 generators and 1-4 words of 1-10
    signed letters.  A last word repeats the first word's first letter and
    ends in its inverse, so every case has both."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rep = Representation([expm(matrix_from_coords(rng.normal(size=6) * 0.6, "sl2"))
                          for _ in range(n)])
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=10).map(tuple),
                          min_size=1, max_size=4))
    first = words[0][0]
    words.append(words[0] + (first, -first))
    return rep, words


examples = settings(max_examples=30, deadline=None, derandomize=True)
algebras = pytest.mark.parametrize("algebra", ["sl2", "su2"])


def unit_cocycles(n, algebra):
    dim = len(algebra_basis(algebra))
    return [cocycle_from_vector(e, n, algebra) for e in np.eye(n * dim)]


def entry_bound(rep, word):
    """The rounding bound of a word's entries, and the norm bound N_m of
    rho(word); N_k bounds the prefix through letter k, with N_0 = 1."""
    norms = [np.linalg.norm(rep.images[abs(l) - 1], 2) for l in word]
    prefix = np.concatenate([[1.0], np.cumprod(norms)])
    return FOX_C * EPS * len(word) * np.sum(prefix ** 2), prefix[-1]


@examples
@given(fox_cases())
def test_walk_equals_per_letter_matmul(case):
    """The walk takes every inverse from one stacked ``sl2_inverse`` and
    multiplies rows of the stacks; its conjugators and word values have the
    bits of one ``np.matmul`` per letter on that letter's own matrix, and
    its letter tables list the words' letters in order."""
    rep, words = case
    word, gen, sign, conj, values = _fox_calculus(rep, words)
    conj_reference, values_reference = fox_walk_reference(rep, words)
    assert same_bits(conj.view(float), conj_reference.view(float))
    assert same_bits(values.view(float), values_reference.view(float))
    letters = [(w, abs(l) - 1, np.sign(l)) for w, ls in enumerate(words) for l in ls]
    assert list(zip(word, gen, sign)) == letters


@algebras
@examples
@given(fox_cases())
def test_relator_matrix_matches_cocycle_extend(algebra, case):
    """The relator matrix and ``cocycle_extend`` both against the walk, on
    the unit cocycles; the empty word gives the zero matrix."""
    rep, words = case
    mat = _fox_matrices(rep, words, (), algebra)[0]
    units = unit_cocycles(rep.generator_count, algebra)
    assert mat.shape == (6 * len(words), len(units))
    for r, word in enumerate(words):
        walked = [cocycle_walk(u, rep, word) for u in units]
        reference = np.column_stack([coords_from_matrix(w, "sl2") for w in walked])
        bound, _ = entry_bound(rep, word)
        assert np.max(np.abs(mat[6 * r:6 * r + 6] - reference)) <= bound
        extended = np.array([cocycle_extend(u, rep, word) for u in units])
        assert np.max(np.abs(extended - np.array(walked))) <= bound
    for u in units:
        assert np.array_equal(cocycle_extend(u, rep, ()), np.zeros((2, 2)))


@algebras
@examples
@given(fox_cases())
def test_trace_rows_match_trace_differential(algebra, case):
    rep, words = case
    mat = _fox_matrices(rep, (), words, algebra)[1]
    units = unit_cocycles(rep.generator_count, algebra)
    assert mat.shape == (len(words), len(units))
    for r, word in enumerate(words):
        reference = np.array([trace_differential(rep, u, word) for u in units])
        bound, word_norm = entry_bound(rep, word)
        assert np.max(np.abs(mat[r] - reference)) <= bound * word_norm


@algebras
@examples
@given(fox_cases())
def test_coboundary_matrix_matches_coboundary(algebra, case):
    rep, _ = case
    mat = _fox_matrices(rep, (), (), algebra)[2]
    reference = np.column_stack([
        coords_from_matrix(coboundary(b, rep), algebra).ravel()
        for b in algebra_basis(algebra)
    ])
    norms = np.repeat([np.linalg.norm(m, 2) ** 2 for m in rep.images], len(algebra_basis(algebra)))
    assert np.all(np.abs(mat - reference) <= FOX_C * EPS * norms[:, None])


@algebras
@examples
@given(fox_cases())
def test_one_walk_equals_separate_walks(algebra, case):
    """Relators and loops walked together give each matrix the bits it gets
    from a walk over its own words alone."""
    rep, words = case
    together = _fox_matrices(rep, words, words[::-1], algebra)
    alone = (_fox_matrices(rep, words, (), algebra)[0],
             _fox_matrices(rep, (), words[::-1], algebra)[1],
             _fox_matrices(rep, (), (), algebra)[2])
    for joint, single in zip(together, alone):
        assert np.array_equal(joint, single)


def test_out_of_range_letters_raise():
    rep = Representation([expm(matrix_from_coords(np.arange(1.0, 7.0) / 10, "sl2"))] * 2)
    with pytest.raises(IndexRange):
        cocycle_space(rep, Presentation(3, ((1, -3),)))
    values = np.zeros((2, 2, 2), dtype=complex)
    for loop in [(1, 3), (0,), (-3, 2)]:
        with pytest.raises(IndexRange):
            trace_rank(rep, Presentation(2), [loop])
        with pytest.raises(IndexRange):
            cocycle_extend(values, rep, loop)


@pytest.mark.parametrize("relators, error, message", [
    (((1, 2), ()), ValueError, "relators must be nonempty words"),
    (((1, 3),), IndexRange, "letter 3 outside 1..2"),
    (((0,),), IndexRange, "letter 0 outside 1..2"),
], ids=["empty_relator", "past_last_generator", "zero_letter"])
def test_presentation_rejects_bad_relators(relators, error, message):
    with pytest.raises(error, match=message):
        Presentation(2, relators)


def test_trace_rank_needs_a_loop():
    rep = Representation([expm(matrix_from_coords(np.arange(1.0, 7.0) / 10, "sl2"))] * 2)
    with pytest.raises(ValueError, match="need at least one loop"):
        trace_rank(rep, Presentation(2), [])
