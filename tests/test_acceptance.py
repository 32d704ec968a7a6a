"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Tolerances are fixed here, not calibrated.  Criteria 1, 2, 4, 5
and 6 also run, with the same bounds, on ``RANDOM_CASES``: 60 seeded
simplicial hulls and polar duals of 10 to 40 points from ``helpers``
(criterion 5 on those of at most 20 points).
"""

import time
from functools import cache

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import (
    coboundary,
    matrix_from_coords,
    random_polar_dual,
    random_simplicial_hull,
    richardson_jacobian,
    trace_differential,
)
from stokerlab import fixtures
from stokerlab.deform import DeformOptions, gauge_fix, realize_angles
from stokerlab.errors import DegenerateFace, SolverError
from stokerlab.polyhedron import (
    convexity_margins,
    dihedral_angles,
    planarity_residuals,
)
from stokerlab.repvar import (
    _fox_matrices,
    Representation,
    coboundary_space,
    cocycle_space,
    evaluate_word,
    irreducibility_check,
    link_representation,
    meridian_holonomy,
    representation_report,
    surface_group_fixture,
    trace_rank,
)
from stokerlab.rigidity import angle_jacobian, constraint_jacobian, rigidity_report

SCALES = (0.1, 0.3, 0.5)
FIXTURE_EDGES = {
    "tetrahedron": 6,
    "triangular_prism": 9,
    "cube": 12,
    "pentagonal_pyramid": 10,
}
LINK_CASES = (
    ("tetrahedron vertex 0", fixtures.tetrahedron, 0, 3),
    ("square-pyramid apex", fixtures.square_pyramid, 4, 4),
    ("pentagonal-pyramid apex", fixtures.pentagonal_pyramid, 5, 5),
    ("cube vertex 0", fixtures.cube, 0, 3),
)

# (builder, seed, point count): hulls and duals alternating, seeds from default_rng(11)
_case_rng = np.random.default_rng(11)
RANDOM_CASES = [((random_polar_dual if k % 2 else random_simplicial_hull),
                 int(_case_rng.integers(2 ** 32)), int(_case_rng.integers(10, 41)))
                for k in range(60)]
# Criterion 6 misses on one jittered dual: on dual(3122421145, 24) the jitter
# leaves an edge's two face planes ultraparallel, without a common line, so
# the edge has no angle and the angles raise ``DegenerateFace``.
CRITERION_6_MISSES = {(3122421145, 24)}


def _case_name(case):
    build, seed, n = case
    return f"{'dual' if build is random_polar_dual else 'hull'}({seed}, {n})"


@cache
def _random_polyhedron(case):
    build, seed, n = case
    return build(seed, n)


def _conclude(number, name, failures, budget=None, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s/{budget:.0f}s]" if budget is not None else ""
    print(f"criterion {number} ({name}): {status}{timing}")
    assert not failures, "\n".join(failures)
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_rigidity_certification():
    failures = []
    start = time.perf_counter()
    for name, edge_count in FIXTURE_EDGES.items():
        for scale in SCALES:
            poly = fixtures.STANDARD[name](scale)
            assert poly.combinatorics.edge_count == edge_count
            failures += _certification_failures(f"{name}@{scale}", poly)
    elapsed = time.perf_counter() - start
    _conclude(1, "rigidity certification", failures, budget=5.0, elapsed=elapsed)


def _certification_failures(tag, poly):
    edge_count = poly.combinatorics.edge_count
    report = rigidity_report(poly)
    failures = []
    if report.tangent_dim != edge_count + 6:
        failures.append(f"{tag}: tangent_dim {report.tangent_dim}")
    if report.angle_rank != edge_count:
        failures.append(f"{tag}: angle_rank {report.angle_rank}")
    if report.kernel_dim != 6:
        failures.append(f"{tag}: kernel_dim {report.kernel_dim}")
    if not report.isometry_containment_residual < 1e-6:
        failures.append(f"{tag}: principal angle {report.isometry_containment_residual}")
    lead = report.spectral_gap
    if not lead > 1e-6:
        failures.append(f"{tag}: sigma_E/sigma_1 = {lead}")
    if not report.certified:
        failures.append(f"{tag}: not certified: {report.notes}")
    return failures


def test_criterion_1_on_random_polyhedra():
    failures = []
    start = time.perf_counter()
    for case in RANDOM_CASES:
        failures += _certification_failures(_case_name(case), _random_polyhedron(case))
    elapsed = time.perf_counter() - start
    _conclude(1, "rigidity certification, random", failures, budget=5.0, elapsed=elapsed)


def test_criterion_2_constructive_local_parameterization():
    failures = []
    start = time.perf_counter()
    for name in FIXTURE_EDGES:
        good = _round_trips(fixtures.STANDARD[name](0.3), 100, 1e-3)
        if good < 99:
            failures.append(f"{name}: only {good}/100 runs met every bound")
    elapsed = time.perf_counter() - start
    _conclude(2, "constructive angle realization", failures, budget=60.0, elapsed=elapsed)


def _round_trips(poly, runs, amplitude):
    """How many of ``runs`` seeded uniform targets of ``amplitude`` are met
    within every bound, forward and back to the gauge-fixed original."""
    opts = DeformOptions(max_iterations=20)
    base = dihedral_angles(poly)
    reference = gauge_fix(poly)
    rng = np.random.default_rng(2024)
    good = 0
    for _ in range(runs):
        target = base + rng.uniform(-amplitude, amplitude, base.size)
        try:
            out = realize_angles(poly, target, opts)
            if out.iterations_used > 20:
                continue
            if np.max(np.abs(out.achieved_angles - target)) >= 1e-10:
                continue
            planar = planarity_residuals(out.final)
            if planar.size and np.max(np.abs(planar)) >= 1e-11:
                continue
            if convexity_margins(out.final).min() <= 0:
                continue
            back = realize_angles(out.final, base, opts)
            if np.max(np.abs(back.final.positions - reference.positions)) >= 1e-8:
                continue
            good += 1
        except SolverError:
            continue
    return good


def test_criterion_2_on_random_polyhedra():
    """Three uniform 1e-5 targets per polyhedron; as on the fixtures, at most
    one run in a hundred may miss a bound."""
    failures = []
    start = time.perf_counter()
    good = sum(_round_trips(_random_polyhedron(case), 3, 1e-5) for case in RANDOM_CASES)
    runs = 3 * len(RANDOM_CASES)
    if good < 0.99 * runs:
        failures.append(f"only {good}/{runs} runs met every bound")
    elapsed = time.perf_counter() - start
    _conclude(2, "constructive angle realization, random", failures, budget=20.0,
              elapsed=elapsed)


def test_criterion_3_holonomy_identities():
    failures = []
    for name in FIXTURE_EDGES:
        poly = fixtures.STANDARD[name](0.3)
        comb = poly.combinatorics
        angles = dihedral_angles(poly)
        for k, e in enumerate(comb.edges):
            _, lift = meridian_holonomy(poly, e)
            defect = abs(abs(np.trace(lift)) - 2.0 * abs(np.cos(angles[k])))
            if not defect < 1e-9:
                failures.append(f"{name} edge {e}: trace defect {defect:.3e}")
        for v in range(comb.vertex_count):
            link = link_representation(poly, v)
            _, [(_, residual)] = representation_report(link.representation(),
                                                       link.presentation)
            if not residual < 1e-8:
                failures.append(f"{name} vertex {v}: relation residual {residual:.3e}")
            if not irreducibility_check(link.representation()).irreducible:
                failures.append(f"{name} vertex {v}: link classified reducible")
    _conclude(3, "holonomy identities", failures)


def test_criterion_4_trace_coordinate_ranks():
    failures = []
    for label, builder, vertex, valence in LINK_CASES:
        link = link_representation(builder(0.3), vertex)
        assert len(link.edges) == valence
        failures += _link_trace_failures(label, link)
    _conclude(4, "trace-coordinate ranks", failures)


def _link_trace_failures(label, link):
    """Unitary and full trace ranks of a vertex link of valence d, with
    their loops the d meridians: h^1 is 3d - 6 and 6d - 12, the rank d and
    2d, and the gap across the cutoff above 1e3."""
    valence = len(link.edges)
    rep = link.representation()
    loops = [(k,) for k in range(1, valence + 1)]
    failures = []
    unitary = trace_rank(rep, link.presentation, loops, restrict_to_unitary=True)
    if unitary.h1_dim != 3 * valence - 6:
        failures.append(f"{label}: unitary h1 {unitary.h1_dim} != {3 * valence - 6}")
    if unitary.rank != valence:
        failures.append(f"{label}: unitary rank {unitary.rank} != {valence}")
    if not unitary.gap_ratio > 1e3:
        failures.append(f"{label}: unitary gap {unitary.gap_ratio:.1e}")
    full = trace_rank(rep, link.presentation, loops, restrict_to_unitary=False)
    if full.h1_dim != 6 * valence - 12:
        failures.append(f"{label}: full h1 {full.h1_dim} != {6 * valence - 12}")
    if full.rank != 2 * valence:
        failures.append(f"{label}: full rank {full.rank} != {2 * valence}")
    if not full.gap_ratio > 1e3:
        failures.append(f"{label}: full gap {full.gap_ratio:.1e}")
    return failures


def test_criterion_4_on_random_polyhedra():
    """Every vertex link of every random case: 1959 links."""
    failures = []
    start = time.perf_counter()
    for case in RANDOM_CASES:
        poly = _random_polyhedron(case)
        for v in range(poly.combinatorics.vertex_count):
            failures += _link_trace_failures(f"{_case_name(case)} vertex {v}",
                                             link_representation(poly, v))
    elapsed = time.perf_counter() - start
    _conclude(4, "trace-coordinate ranks, random", failures, budget=15.0, elapsed=elapsed)


def test_criterion_5_surface_group_dimension():
    start = time.perf_counter()
    failures = _surface_failures("tetrahedron@0.3", fixtures.tetrahedron(0.3))
    elapsed = time.perf_counter() - start
    _conclude(5, "boundary-surface dimension", failures, budget=10.0, elapsed=elapsed)


def _surface_failures(tag, poly):
    """The boundary-surface group of a polyhedron: h^1 from the cocycle and
    coboundary bases is 12g - 12 and the count 2(2|E| + sum(2d - 6)), the
    trace rank reads the same h^1, and the meridian traces have rank 2|E|
    with a gap across the cutoff above 1e3."""
    comb = poly.combinatorics
    fx = surface_group_fixture(poly)
    z = cocycle_space(fx.representation, fx.presentation)
    b = coboundary_space(fx.representation)
    h1 = z.shape[1] - b.shape[1]
    genus = fx.genus
    valences = [comb.vertex_valence(v) for v in range(comb.vertex_count)]
    combinatorial = 2 * (2 * comb.edge_count + sum(2 * d - 6 for d in valences))
    failures = []
    if h1 != 12 * genus - 12:
        failures.append(f"{tag}: h1 {h1} != 12g-12 = {12 * genus - 12}")
    if h1 != combinatorial:
        failures.append(f"{tag}: h1 {h1} != 2(2|E| + sum(2d-6)) = {combinatorial}")
    report = trace_rank(fx.representation, fx.presentation, fx.meridian_loops())
    if report.h1_dim != h1:
        failures.append(f"{tag}: trace-rank h1 {report.h1_dim} != {h1}")
    if report.rank != 2 * comb.edge_count:
        failures.append(f"{tag}: meridian trace rank {report.rank} != 2|E| = {2 * comb.edge_count}")
    if not report.gap_ratio > 1e3:
        failures.append(f"{tag}: meridian trace gap {report.gap_ratio:.1e}")
    return failures


def test_criterion_5_on_random_polyhedra():
    """The random cases of at most 20 points."""
    failures = []
    start = time.perf_counter()
    for case in RANDOM_CASES:
        if case[2] <= 20:
            failures += _surface_failures(_case_name(case), _random_polyhedron(case))
    elapsed = time.perf_counter() - start
    _conclude(5, "boundary-surface dimension, random", failures, budget=5.0, elapsed=elapsed)


def test_criterion_6_oracle_agreement():
    failures = []
    builders = list(FIXTURE_EDGES)
    rng = np.random.default_rng(99)
    for i in range(50):
        poly = fixtures.STANDARD[builders[i % 4]](0.3)
        failures += _jacobian_oracle_failures(f"instance {i}", poly, rng)

    for i in range(50):
        n = 2 + i % 2
        rep = Representation([expm(matrix_from_coords(rng.normal(size=6) * 0.7, "sl2"))
                              for _ in range(n)])
        coords = [rng.normal(size=6) * 0.5 for _ in range(n)]
        length = 3 + i % 5
        letters = rng.integers(1, n + 1, size=length)
        signs = rng.choice([-1, 1], size=length)
        word = tuple(int(l * s) for l, s in zip(letters, signs))
        u = np.array([matrix_from_coords(c, "sl2") for c in coords])
        step = 1e-5

        def trace_at(t):
            shifted = Representation([expm(t * v) @ m for v, m in zip(u, rep.images)])
            return np.trace(evaluate_word(shifted, word))

        numeric = (trace_at(step) - trace_at(-step)) / (2 * step)
        diff = abs(trace_differential(rep, u, word) - numeric)
        if not diff < 1e-6:
            failures.append(f"trace instance {i}: off by {diff:.3e}")
        # the production path: the trace row times the cocycle's coordinates
        diff = abs(_fox_matrices(rep, (), [word], "sl2")[1][0] @ np.concatenate(coords) - numeric)
        if not diff < 1e-6:
            failures.append(f"trace instance {i}: trace row off by {diff:.3e}")
    _conclude(6, "analytic/finite-difference agreement", failures)


def _jacobian_oracle_failures(tag, poly, rng):
    """Both analytic Jacobians at a 5e-3 Gaussian jitter of ``poly`` against
    Richardson-extrapolated central differences of steps 1e-6 and 5e-7: a
    plain central difference is off by its own h^2 truncation error, up to
    6.1e-5, on duals whose short edges give entries up to 424."""
    failures = []
    jitter = rng.normal(0.0, 5e-3, poly.positions.shape)
    probe = poly.with_positions(poly.positions + jitter)

    def angle_map(flat):
        return dihedral_angles(probe.with_positions(flat.reshape(-1, 3)))

    def planarity_map(flat):
        return planarity_residuals(probe.with_positions(flat.reshape(-1, 3)))

    flat = probe.positions.ravel()
    diff = np.max(np.abs(angle_jacobian(probe) -
                         richardson_jacobian(angle_map, flat, step=1e-6)))
    if not diff < 1e-6:
        failures.append(f"{tag}: angle jacobian off by {diff:.3e}")
    analytic = constraint_jacobian(probe)
    if analytic.shape[0]:
        diff = np.max(np.abs(analytic -
                             richardson_jacobian(planarity_map, flat, step=1e-6)))
        if not diff < 1e-6:
            failures.append(f"{tag}: constraint jacobian off by {diff:.3e}")
    return failures


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, raises=DegenerateFace,
        reason="the jittered probe has ultraparallel face planes at edge (5, 14)"))
    if case[1:] in CRITERION_6_MISSES else case
    for case in RANDOM_CASES], ids=map(_case_name, RANDOM_CASES))
def test_criterion_6_on_random_polyhedra(case):
    start = time.perf_counter()
    rng = np.random.default_rng(case[1])
    failures = _jacobian_oracle_failures(_case_name(case), _random_polyhedron(case), rng)
    elapsed = time.perf_counter() - start
    _conclude(6, f"analytic/finite-difference agreement, {_case_name(case)}", failures,
              budget=2.0, elapsed=elapsed)


def test_criterion_7_class_function_property():
    failures = []
    rng = np.random.default_rng(123)
    for label, builder, vertex, valence in LINK_CASES:
        link = link_representation(builder(0.3), vertex)
        rep = link.representation()
        coboundaries = _fox_matrices(rep, (), (), "sl2")[2]
        worst = worst_rows = 0.0
        for _ in range(100):
            v = matrix_from_coords(rng.normal(size=6), "sl2")
            cob = coboundary(v, rep)
            length = int(rng.integers(1, 7))
            letters = rng.integers(1, valence + 1, size=length)
            signs = rng.choice([-1, 1], size=length)
            word = tuple(int(l * s) for l, s in zip(letters, signs))
            worst = max(worst, abs(trace_differential(rep, cob, word)))
            # the production path: T B = 0, which trace_rank relies on
            rows = np.abs(_fox_matrices(rep, (), [word], "sl2")[1] @ coboundaries)
            worst_rows = max(worst_rows, float(rows.max()))
        if not worst < 1e-10:
            failures.append(f"{label}: coboundary trace derivative {worst:.3e}")
        if not worst_rows < 1e-10:
            failures.append(f"{label}: trace rows times coboundary matrix {worst_rows:.3e}")
        dim = coboundary_space(rep).shape[1]
        if dim != 6:
            failures.append(f"{label}: coboundary space dim {dim} != 6")
    _conclude(7, "trace class-function property", failures)
