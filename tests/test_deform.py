import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    capped_cube,
    gauge_fix_reference,
    min_norm_step,
    prism,
    random_isometry,
    random_polyhedra,
    reference_step,
    same_bits,
)
from stokerlab import deform, fixtures, lorentz
from stokerlab.config import DEFAULT, Tolerances
from stokerlab.deform import (
    DeformOptions,
    _gauss_newton_step,
    _stacked_residual,
    _trust_damping,
    continuation_path,
    gauge_fix,
    realize_angles,
)
from stokerlab.errors import BallExit, ConvexityLost, DegenerateFrame, NoConvergence
from stokerlab.polyhedron import (
    CombinatorialType,
    EmbeddedPolyhedron,
    FaceGeometry,
    convexity_margins,
    dihedral_angles,
    planarity_residuals,
    validate_angle_vector,
    validate_embedding,
)
from stokerlab.rigidity import isometry_directions, rigidity_report

EPS = np.finfo(float).eps

examples = settings(max_examples=20, deadline=None, derandomize=True)


def perturb_angles(poly, rng, amplitude=1e-3):
    base = dihedral_angles(poly)
    return base + rng.uniform(-amplitude, amplitude, base.size)


@pytest.mark.parametrize("options, message", [
    ({"max_iterations": 0}, "max_iterations must be positive"),
    ({"residual_tol": 1e-15}, "residual_tol must be at least 1e-14"),
    ({"trust_radius": 0.0}, "trust_radius must be positive"),
], ids=["max_iterations", "residual_tol", "trust_radius"])
def test_deform_options_rejected(options, message):
    with pytest.raises(ValueError, match=message):
        DeformOptions(**options)


class TestGaugeFix:
    def test_canonical_frame(self):
        poly = gauge_fix(fixtures.cube(0.3))
        pos = poly.positions
        assert np.max(np.abs(pos[0])) < 1e-14
        assert abs(pos[1, 1]) < 1e-14 and abs(pos[1, 2]) < 1e-14 and pos[1, 0] > 0
        assert abs(pos[2, 2]) < 1e-14 and pos[2, 1] > 0

    def test_idempotent(self):
        poly = gauge_fix(fixtures.pentagonal_pyramid(0.3))
        again = gauge_fix(poly)
        assert np.max(np.abs(again.positions - poly.positions)) < 1e-13

    def test_orbit_invariance(self):
        poly = fixtures.triangular_prism(0.2)
        fixed = gauge_fix(poly)
        rng = np.random.default_rng(5)
        for _ in range(10):
            iso = random_isometry(rng, scale=0.4)
            moved = poly.with_positions(lorentz.apply_isometry(iso, poly.positions))
            assert np.max(np.abs(gauge_fix(moved).positions - fixed.positions)) < 1e-9

    def test_preserves_angles(self):
        poly = fixtures.cube(0.35)
        assert np.max(np.abs(dihedral_angles(gauge_fix(poly)) - dihedral_angles(poly))) < 1e-10

    def test_vertex_one_on_negative_axis(self):
        """Vertex 1 on the negative x-axis needs a half turn; the frame
        handles it like any other direction and keeps the orientation."""
        fixed = gauge_fix(fixtures.cube(0.3))
        half_turn = fixed.with_positions(fixed.positions * np.array([-1.0, -1.0, 1.0]))
        again = gauge_fix(half_turn)
        assert np.max(np.abs(again.positions - fixed.positions)) < 1e-15
        assert convexity_margins(again).min() > 0.0

    def test_coincident_frame_rejected(self):
        poly = fixtures.tetrahedron(0.3)
        pos = poly.positions.copy()
        pos[1] = pos[0]
        with pytest.raises(DegenerateFrame, match="coincide"):
            gauge_fix(poly.with_positions(pos))

    def test_collinear_frame_rejected(self):
        poly = fixtures.tetrahedron(0.3)
        pos = poly.positions.copy()
        pos[2] = 0.5 * (pos[0] + pos[1])  # not a valid polyhedron, but gauge only looks at 0,1,2
        with pytest.raises(DegenerateFrame):
            gauge_fix(poly.with_positions(pos))

    @pytest.mark.parametrize("scale", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_equals_the_matrix_product_route(self, name, scale):
        """Bit-equal to ``apply_isometry`` of J B J, ``np.linalg.norm`` and
        ``np.cross``, here and on the isometric images of the fixture."""
        poly = fixtures.STANDARD[name](scale)
        rng = np.random.default_rng(6)
        moved = [poly.with_positions(lorentz.apply_isometry(random_isometry(rng, 0.4),
                                                            poly.positions))
                 for _ in range(3)]
        for p in [poly, *moved]:
            assert same_bits(gauge_fix(p).positions, gauge_fix_reference(p))

    @examples
    @given(random_polyhedra(40))
    def test_equals_the_matrix_product_route_on_hulls_and_duals(self, poly):
        assert same_bits(gauge_fix(poly).positions, gauge_fix_reference(poly))


class TestRealizeAngles:
    def test_fixed_point_needs_no_iterations(self):
        poly = fixtures.tetrahedron(0.3)
        result = realize_angles(poly, dihedral_angles(poly))
        assert result.iterations_used == 0
        fixed = gauge_fix(poly)
        assert np.max(np.abs(result.final.positions - fixed.positions)) < 1e-13

    def test_near_flat_target_converges_in_few_iterations(self):
        """The apex edges of ``capped_cube(1e-5)`` are within 1.4e-5 of pi.
        With angles and their Jacobian accurate to a few eps there, a 1e-9
        target is reached in Gauss-Newton's few steps; an angle error near
        the 1e-11 residual tolerance would make the solve crawl."""
        poly = capped_cube(1e-5)
        base = dihedral_angles(poly)
        target = base + 1e-9 * np.random.default_rng(0).uniform(-1.0, 1.0, base.size)
        assert realize_angles(poly, target).iterations_used <= 3

    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_small_perturbations_converge(self, name):
        poly = fixtures.STANDARD[name](0.3)
        rng = np.random.default_rng(7)
        target = perturb_angles(poly, rng)
        result = realize_angles(poly, target)
        assert np.max(np.abs(result.achieved_angles - target)) < 1e-10
        planar = planarity_residuals(result.final)
        if planar.size:
            assert np.max(np.abs(planar)) < 1e-11
        # accepted iterates keep the constraints satisfied, not just the last one
        assert all(p < 1e-6 for p in result.planarity_history)

    def test_cube_single_angle_with_continuation(self):
        poly = fixtures.cube(0.3)
        target = dihedral_angles(poly)
        target[0] += 0.05
        results = continuation_path(poly, target, n_steps=10)
        final = results[-1]
        assert np.max(np.abs(final.achieved_angles - target)) < 1e-10
        assert np.max(np.abs(planarity_residuals(final.final))) < 1e-11

    def test_quadratic_convergence(self):
        poly = fixtures.pentagonal_pyramid(0.3)
        rng = np.random.default_rng(11)
        result = realize_angles(poly, perturb_angles(poly, rng))
        hist = result.residual_history
        for r0, r1 in zip(hist, hist[1:]):
            if r0 < 1e-4 and r1 > 1e-14:
                assert r1 <= 1e3 * r0 * r0

    def test_round_trip_recovers_vertices(self):
        poly = fixtures.cube(0.3)
        rng = np.random.default_rng(13)
        original_angles = dihedral_angles(poly)
        out = realize_angles(poly, perturb_angles(poly, rng))
        back = realize_angles(out.final, original_angles)
        reference = gauge_fix(poly)
        assert np.max(np.abs(back.final.positions - reference.positions)) < 1e-8

    def test_gauge_canonical_output(self):
        poly = fixtures.tetrahedron(0.3)
        rng = np.random.default_rng(17)
        target = perturb_angles(poly, rng)
        iso = random_isometry(np.random.default_rng(18), scale=0.3)
        moved = poly.with_positions(lorentz.apply_isometry(iso, poly.positions))
        a = realize_angles(poly, target)
        b = realize_angles(moved, target)
        assert np.max(np.abs(a.final.positions - b.final.positions)) < 1e-8

    def test_no_convergence_budget(self):
        poly = fixtures.cube(0.3)
        rng = np.random.default_rng(19)
        target = perturb_angles(poly, rng, amplitude=5e-3)
        with pytest.raises(NoConvergence):
            realize_angles(poly, target, DeformOptions(max_iterations=1))

    def test_nan_residual_is_not_converged(self, monkeypatch):
        """A NaN residual fails the stop test, so the next step meets the
        non-finite system instead of the loop returning a solve."""
        calls = []
        residual = deform._stacked_residual

        def nan_after_the_first(geom, target):
            calls.append(None)
            out = residual(geom, target)
            return out if len(calls) == 1 else np.full_like(out, np.nan)

        monkeypatch.setattr(deform, "_stacked_residual", nan_after_the_first)
        poly = fixtures.cube(0.3)
        target = perturb_angles(poly, np.random.default_rng(19))
        with pytest.raises(ValueError, match="Gauss-Newton system is not finite"):
            realize_angles(poly, target)

    def test_convexity_stop_reads_the_tolerance(self):
        """Under convex = 8e-6, cube(0.02) is a valid start, and its seed-0
        target is reached with margin 4.8e-6, which the judge calls not
        convex.  The solver's trial stop reads the same tolerance, so it
        raises ``ConvexityLost`` instead of returning that polyhedron."""
        tol = Tolerances(convex=8e-6)
        poly = fixtures.cube(0.02)
        target = perturb_angles(poly, np.random.default_rng(0))
        assert validate_embedding(poly, tol).valid
        assert not validate_embedding(realize_angles(poly, target).final, tol).convex
        with pytest.raises(ConvexityLost):
            realize_angles(poly, target, tol=tol)

    def test_rejects_out_of_range_target(self):
        poly = fixtures.cube(0.3)
        target = dihedral_angles(poly)
        target[0] = np.pi
        with pytest.raises(ValueError):
            realize_angles(poly, target)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_target(self, value):
        poly = fixtures.cube(0.3)
        target = dihedral_angles(poly)
        target[3] = value
        with pytest.raises(ValueError, match="strictly between 0 and pi"):
            realize_angles(poly, target)

    @pytest.mark.parametrize("target", [np.full(11, 1.0), np.full((2, 6), 1.0)],
                             ids=["short", "nested"])
    def test_rejects_wrong_shape(self, target):
        with pytest.raises(ValueError, match=re.escape(f"expected 12 angles, got shape "
                                                       f"{target.shape}")):
            validate_angle_vector(target, 12)

    def test_non_finite_start_raises(self):
        # vertex 7 anchors no face here, so the angles stay finite and only
        # the planarity residuals of its faces turn NaN
        faces = [[5, 4, 6, 7], [0, 1, 3, 2], [6, 2, 3, 7],
                 [0, 4, 5, 1], [3, 1, 5, 7], [0, 2, 6, 4]]
        poly = EmbeddedPolyhedron(CombinatorialType(8, faces), fixtures.cube(0.3).positions)
        target = dihedral_angles(poly)
        pos = poly.positions.copy()
        pos[7, 0] = np.nan
        with pytest.raises(ValueError, match="Gauss-Newton system is not finite"):
            realize_angles(poly.with_positions(pos), target)


class TestContinuationPath:
    def test_single_step_matches_realize(self):
        poly = fixtures.tetrahedron(0.3)
        rng = np.random.default_rng(23)
        target = perturb_angles(poly, rng)
        direct = realize_angles(poly, target)
        path = continuation_path(poly, target, n_steps=1)
        assert len(path) == 1
        assert np.max(np.abs(path[0].final.positions - direct.final.positions)) < 1e-12

    def test_default_is_one_waypoint(self):
        poly = fixtures.cube(0.3)
        target = perturb_angles(poly, np.random.default_rng(4), 1e-4)
        assert len(continuation_path(poly, target)) == 1

    @pytest.mark.parametrize("n_steps", [0, -2])
    def test_rejects_fewer_than_one_step(self, n_steps):
        poly = fixtures.tetrahedron(0.3)
        with pytest.raises(ValueError, match="n_steps"):
            continuation_path(poly, dihedral_angles(poly), n_steps=n_steps)

    def test_waypoints_stay_certified(self):
        poly = fixtures.tetrahedron(0.3)
        base = dihedral_angles(poly)
        target = base + 0.02 * (np.mean(base) - base + 0.01)
        path = continuation_path(poly, target, n_steps=4)
        assert len(path) == 4
        for result in path:
            report = rigidity_report(result.final)
            assert report.certified, report.notes

    def test_convexity_lost_reports_waypoint(self):
        poly = fixtures.tetrahedron(0.3)
        target = np.full(6, np.arccos(1.0 / 3.0) + 0.05)  # beyond the flat limit
        with pytest.raises(ConvexityLost) as info:
            continuation_path(poly, target, n_steps=3, opts=DeformOptions(max_iterations=25))
        assert info.value.waypoint == 0
        assert info.value.results == []

    def test_ball_exit_returns_partial_results(self):
        poly = fixtures.tetrahedron(0.3)
        target = np.full(6, np.pi / 3 + 1e-3)  # nearly ideal: vertices run outward
        with pytest.raises(BallExit) as info:
            continuation_path(
                poly, target, n_steps=4,
                opts=DeformOptions(max_iterations=40, trust_radius=0.4),
            )
        assert info.value.waypoint == 2
        assert len(info.value.results) == 2
        for result in info.value.results:
            assert np.max(np.abs(result.achieved_angles - dihedral_angles(result.final))) < 1e-10


def first_step_system(poly, seed=0, amplitude=1e-3):
    """Stacked Jacobian and right-hand side of the first Gauss-Newton step
    towards a seeded target around the current angles."""
    geom = FaceGeometry(poly)
    rng = np.random.default_rng(seed)
    target = geom.angles + amplitude * rng.uniform(-1.0, 1.0, geom.angles.size)
    return geom.jacobian(), -_stacked_residual(geom, target)


def relative_error(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


def check_min_norm_step(poly):
    """The step equals the pseudoinverse step and has no component along the
    isometry directions, both within 100 eps cond(J), fixed before the solve."""
    jac, rhs = first_step_system(poly)
    bound = 100 * EPS * np.linalg.cond(jac)
    step = _gauss_newton_step(jac.copy(), rhs, DEFAULT)
    assert relative_error(step, min_norm_step(jac, rhs, DEFAULT.rank_svd)) < bound
    iso, _ = np.linalg.qr(isometry_directions(poly))
    assert np.linalg.norm(iso.T @ step) / np.linalg.norm(step) < bound


def with_smallest_singular_value(jac, ratio):
    """``jac`` with its smallest singular value set to ``ratio`` sigma_max."""
    u, sing, vt = np.linalg.svd(jac, full_matrices=False)
    sing[-1] = ratio * sing[0]
    return (u * sing) @ vt


def assert_rank_loss(jac, rhs):
    """The step stops with the rank-loss ``NoConvergence``, whose message
    gives a condition estimate at or below the cut, and the cut."""
    with pytest.raises(NoConvergence) as info:
        _gauss_newton_step(jac, rhs, DEFAULT)
    message = re.fullmatch(r"Jacobian lost rank: reciprocal condition estimate (\S+) "
                           r"at or below the cut (\S+)", str(info.value))
    assert message is not None, str(info.value)
    assert float(message[2]) == DEFAULT.rank_svd
    assert float(message[1]) <= DEFAULT.rank_svd


class TestGaussNewtonStep:
    @pytest.mark.parametrize("scale", [0.3, 0.02])
    @pytest.mark.parametrize("name", sorted(fixtures.STANDARD))
    def test_fixture_steps_match_pseudoinverse(self, name, scale):
        check_min_norm_step(fixtures.STANDARD[name](scale))

    @examples
    @given(random_polyhedra(24))
    def test_random_steps_match_pseudoinverse(self, poly):
        check_min_norm_step(poly)

    def test_duplicated_row(self):
        """A repeated equation costs one rank, even with a consistent
        right-hand side: the step stops instead of cutting the rank."""
        jac, rhs = first_step_system(fixtures.cube(0.3))
        assert_rank_loss(np.vstack([jac, jac[:1]]), np.append(rhs, rhs[0]))

    def test_rank_cutoff_drops_a_tiny_singular_value(self):
        """A singular value of 1e-12 sigma_max lies under the rank_svd cutoff,
        so J has lost its full row rank and the step stops.  Without the
        stop, that direction is amplified 1e12-fold."""
        jac, rhs = first_step_system(fixtures.cube(0.3))
        assert_rank_loss(with_smallest_singular_value(jac, 1e-12), rhs)

    def test_more_rows_than_columns(self):
        jac, rhs = first_step_system(fixtures.cube(0.3))
        extra = jac.shape[1] - jac.shape[0] + 1
        with pytest.raises(NoConvergence, match="lost rank: 25 rows exceed its 24 columns"):
            _gauss_newton_step(np.vstack([jac, jac[:extra]]), np.append(rhs, rhs[:extra]), DEFAULT)

    def test_ill_conditioned_full_rank_is_not_cut(self):
        """A singular value of 1e-7 sigma_max lies above the rank_svd cutoff:
        the step is the full pseudoinverse step within 100 eps cond(J)."""
        jac, rhs = first_step_system(fixtures.cube(0.3))
        ill = with_smallest_singular_value(jac, 1e-7)
        bound = 100 * EPS * np.linalg.cond(ill)
        step = _gauss_newton_step(ill.copy(), rhs, DEFAULT)
        assert relative_error(step, min_norm_step(ill, rhs, DEFAULT.rank_svd)) < bound

    @pytest.mark.parametrize("operand", ["jac", "rhs"])
    def test_non_finite_system_rejected(self, operand):
        jac, rhs = first_step_system(fixtures.cube(0.3))
        if operand == "jac":
            jac[3, 5] = np.nan
        else:
            rhs[5] = np.nan
        with pytest.raises(ValueError):
            _gauss_newton_step(jac, rhs, DEFAULT)


STEP_CASES = {**{f"{name}@{scale}": (build, scale) for name, build in fixtures.STANDARD.items()
                 for scale in (0.02, 0.3)},
              **{f"prism{n}": (prism, n) for n in (3, 5, 8)}}


def assert_step_matches_reference(poly):
    """The step, which factors J in place, equals the out-of-place
    reference bit for bit; the reference runs first, on the intact J."""
    jac, rhs = first_step_system(poly)
    expected = reference_step(jac, rhs, DEFAULT)
    assert np.array_equal(_gauss_newton_step(jac, rhs, DEFAULT), expected)


class TestInPlaceStep:
    @pytest.mark.parametrize("name", sorted(STEP_CASES))
    def test_fixture_steps_equal_reference(self, name):
        build, arg = STEP_CASES[name]
        assert_step_matches_reference(build(arg))

    @examples
    @given(random_polyhedra(24))
    def test_random_steps_equal_reference(self, poly):
        assert_step_matches_reference(poly)

    def test_factor_shares_memory_with_jac(self, monkeypatch):
        """J is consumed: ``dgeqrf`` overwrites it with the factor."""
        factors = []
        dgeqrf = deform.lapack.dgeqrf

        def spy(*args, **kwargs):
            out = dgeqrf(*args, **kwargs)
            factors.append(out[0])
            return out

        monkeypatch.setattr(deform.lapack, "dgeqrf", spy)
        jac, rhs = first_step_system(fixtures.cube(0.3))
        _gauss_newton_step(jac, rhs, DEFAULT)
        assert len(factors) == 1
        assert np.shares_memory(factors[0], jac)

    @pytest.mark.parametrize("case", ["duplicated_row", "tiny_singular_value"])
    def test_rank_stop_reports_the_square_r_estimate(self, case):
        """The rank-loss message gives ``dtrcon``'s estimate for the square R,
        as the reference computes it, not one read from the tall factor."""
        jac, rhs = first_step_system(fixtures.cube(0.3))
        if case == "duplicated_row":
            jac, rhs = np.vstack([jac, jac[:1]]), np.append(rhs, rhs[0])
        else:
            jac = with_smallest_singular_value(jac, 1e-12)
        with pytest.raises(NoConvergence) as expected:
            reference_step(jac, rhs, DEFAULT)
        with pytest.raises(NoConvergence) as info:
            _gauss_newton_step(jac, rhs, DEFAULT)
        assert str(info.value) == str(expected.value)


def halving_damping(largest, trust_radius):
    """The trust-radius damping by repeated halving from 1."""
    damping = 1.0
    while damping * largest > trust_radius:
        damping *= 0.5
    return damping


@examples
@given(st.floats(1e-12, 1e12), st.floats(1e-6, 10.0))
def test_trust_damping_is_the_halving_power_of_two(largest, trust_radius):
    assert _trust_damping(largest, trust_radius) == halving_damping(largest, trust_radius)


@pytest.mark.parametrize("largest, trust_radius", [
    (0.1, 0.1), (np.nextafter(0.1, 1.0), 0.1), (0.2, 0.1), (0.4000000000000001, 0.1),
    (0.75, 0.1), (1.0, 1.0), (3.0, 1.0), (4.0, 1.0), (0.0, 0.1), (1e300, 1e-6),
])
def test_trust_damping_at_powers_of_two(largest, trust_radius):
    """Ties, one ulp past a tie, exact powers of two, a zero step and a
    large one."""
    assert _trust_damping(largest, trust_radius) == halving_damping(largest, trust_radius)


@pytest.mark.parametrize("largest", [np.nan, np.inf])
def test_non_finite_step_rejected(largest):
    with pytest.raises(ValueError, match="Gauss-Newton step is not finite"):
        _trust_damping(largest, 0.1)


@pytest.mark.parametrize("seed, steps", [(0, 2), (2, 3), (4, 6)])
def test_flat_prism_targets_stop_at_rank_loss(seed, steps, monkeypatch):
    """On triangular_prism(0.02), the amplitude-1e-3 targets of seeds 0, 2
    and 4 drive J to lose its full row rank: the solve stops with the
    rank-loss ``NoConvergence`` at a fixed step call."""
    calls = []
    step = deform._gauss_newton_step

    def spy(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(deform, "_gauss_newton_step", spy)
    poly = fixtures.triangular_prism(0.02)
    base = dihedral_angles(poly)
    target = base + 1e-3 * np.random.default_rng(seed).uniform(-1.0, 1.0, base.size)
    with pytest.raises(NoConvergence, match="Jacobian lost rank: reciprocal condition estimate"):
        realize_angles(poly, target)
    assert len(calls) == steps


@examples
@given(random_polyhedra(24), st.integers(0, 2 ** 32 - 1))
def test_random_targets_round_trip(poly, seed):
    """Criterion 2 on random hulls and duals: a seeded 1e-4 target is hit
    with planar faces and a convex embedding, and solving back to the
    original angles reproduces the gauge-fixed original."""
    base = dihedral_angles(poly)
    target = base + 1e-4 * np.random.default_rng(seed).uniform(-1.0, 1.0, base.size)
    out = realize_angles(poly, target)
    assert np.max(np.abs(out.achieved_angles - target)) < 1e-10
    assert np.max(np.abs(planarity_residuals(out.final)), initial=0.0) < 1e-11
    assert convexity_margins(out.final).min() > 0.0
    back = realize_angles(out.final, base)
    assert np.max(np.abs(back.final.positions - gauge_fix(poly).positions)) < 1e-8


def test_robustness_grid_outcomes():
    """The solver's outcome over 4 fixtures x scale {0.02, 0.3} x amplitude
    {1e-4, 1e-3} x seeds 0-4.  At scale 0.02 most large cube and prism
    targets fail, three of them prism targets at which J loses rank; these
    counts characterize the solver as it stands and change only with a
    deliberate change to it."""
    outcomes = dict.fromkeys(["converged", "NoConvergence", "ConvexityLost", "BallExit"], 0)
    iterations = 0
    for build in fixtures.STANDARD.values():
        for scale in (0.02, 0.3):
            poly = build(scale)
            base = dihedral_angles(poly)
            for amplitude in (1e-4, 1e-3):
                for seed in range(5):
                    rng = np.random.default_rng(seed)
                    target = base + amplitude * rng.uniform(-1.0, 1.0, base.size)
                    try:
                        iterations += realize_angles(poly, target).iterations_used
                        outcomes["converged"] += 1
                    except (NoConvergence, ConvexityLost, BallExit) as exc:
                        outcomes[type(exc).__name__] += 1
    assert outcomes == {"converged": 70, "NoConvergence": 3, "ConvexityLost": 7, "BallExit": 0}
    assert iterations == 212
