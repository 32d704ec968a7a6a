"""Fox-calculus assembly of the relator, trace and coboundary matrices
against the letter-by-letter reference path, on random SL(2,C)
representations and random words with inverse and repeated letters.

References: ``cocycle_extend`` and ``trace_differential`` applied to the unit
cocycles of ``cocycle_from_vector``, and ``coboundary`` of each basis element.

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

from stokerlab.errors import IndexRange
from stokerlab.repvar import (
    Presentation,
    Representation,
    _coboundary_matrix,
    _relator_matrix,
    _trace_matrix,
    algebra_basis,
    coboundary,
    cocycle_extend,
    cocycle_from_vector,
    cocycle_space,
    coords_from_matrix,
    matrix_from_coords,
    trace_differential,
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


@algebras
@examples
@given(fox_cases())
def test_relator_matrix_matches_cocycle_extend(algebra, case):
    rep, words = case
    mat = _relator_matrix(rep, Presentation(rep.generator_count, words), algebra)
    units = unit_cocycles(rep.generator_count, algebra)
    assert mat.shape == (6 * len(words), len(units))
    for r, word in enumerate(words):
        reference = np.column_stack(
            [coords_from_matrix(cocycle_extend(u, rep, word), "sl2") for u in units]
        )
        bound, _ = entry_bound(rep, word)
        assert np.max(np.abs(mat[6 * r:6 * r + 6] - reference)) <= bound


@algebras
@examples
@given(fox_cases())
def test_trace_rows_match_trace_differential(algebra, case):
    rep, words = case
    mat = _trace_matrix(rep, words, algebra)
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
    mat = _coboundary_matrix(rep, algebra)
    reference = np.column_stack([
        np.concatenate([coords_from_matrix(v, algebra) for v in coboundary(b, rep).values])
        for b in algebra_basis(algebra)
    ])
    norms = np.repeat([np.linalg.norm(m, 2) ** 2 for m in rep.images], len(algebra_basis(algebra)))
    assert np.all(np.abs(mat - reference) <= FOX_C * EPS * norms[:, None])


def test_out_of_range_letters_raise():
    rep = Representation([expm(matrix_from_coords(np.arange(1.0, 7.0) / 10, "sl2"))] * 2)
    with pytest.raises(IndexRange):
        cocycle_space(rep, Presentation(3, ((1, -3),)))
    for loop in [(1, 3), (0,), (-3, 2)]:
        with pytest.raises(IndexRange):
            trace_rank(rep, Presentation(2), [loop])
