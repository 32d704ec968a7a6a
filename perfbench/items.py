"""One benchmark item per workload, each checked against the paper's criteria.

An item either returns normally, raises ``WrongAnswer`` when a check fails,
or lets a library exception through; the caller counts the last two alike.
Library functions are looked up on their modules at call time, so the
tracer's wrappers are seen when they are installed.
"""

import contextlib
import io
import json

import numpy as np

from stokerlab import cli, deform, fixtures, polyhedron, repvar
from stokerlab.config import DEFAULT
from stokerlab.errors import BallExit, ConvexityLost, NoConvergence

ANGLE_TOL = 1e-10        # forward solve hits the target angles
PLANAR_TOL = 1e-11       # faces stay planar
ROUND_TRIP_TOL = 1e-8    # return solve reproduces gauge_fix(original)
CERTIFY_COMMANDS = ("validate", "rigidity", "holonomy")


class WrongAnswer(Exception):
    """A library call returned, but its result fails a check."""


def _check(ok, message):
    if not ok:
        raise WrongAnswer(message)


class Context:
    """State shared by the items of one run: solver counts and first reports."""

    def __init__(self):
        self.solves = 0
        self.converged = 0
        self.iterations = 0
        self.first_reports = {}

    def solve(self, poly, target):
        self.solves += 1
        result = deform.realize_angles(poly, target)
        self.converged += 1
        self.iterations += result.iterations_used
        return result


def realize(item, ctx):
    """Forward solve to the seeded target, then back to the original angles."""
    out = ctx.solve(item.poly, item.target)
    err = float(np.max(np.abs(out.achieved_angles - item.target)))
    _check(err < ANGLE_TOL, f"angle error {err:.3e}")
    planar = polyhedron.planarity_residuals(out.final)
    worst = float(np.max(np.abs(planar), initial=0.0))
    _check(worst < PLANAR_TOL, f"planarity residual {worst:.3e}")
    margin = float(polyhedron.convexity_margins(out.final).min())
    _check(margin > 0.0, f"convexity margin {margin:.3e}")
    back = ctx.solve(out.final, item.base)
    drift = float(np.max(np.abs(back.final.positions - item.reference)))
    _check(drift < ROUND_TRIP_TOL, f"round trip off by {drift:.3e}")


def certify(item, ctx):
    """``validate``, ``rigidity`` and ``holonomy`` through the in-process CLI."""
    for command in CERTIFY_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, item.path])
        text = out.getvalue()
        _check(code == 0, f"{command} exit code {code}")
        # The first report of a file and command must pass its verdicts;
        # every later one must equal it byte for byte.
        first = ctx.first_reports.setdefault((item.path, command), text)
        if text is first:
            failed = [v["name"] for v in json.loads(text)["verdicts"] if not v["pass"]]
            _check(not failed, f"{command} verdicts failed: {failed}")
        else:
            _check(text == first, f"{command} report differs from the first one")


def trace(item, ctx):
    """Surface items: meridian trace rank on the boundary surface group.
    Link items: unitary and full trace rank on one vertex link."""
    if item.vertex is None:
        fx = repvar.surface_group_fixture(item.poly)
        _, relators = repvar.representation_report(fx.representation, fx.presentation)
        worst = max(residual for _, residual in relators)
        _check(worst < DEFAULT.relator, f"relator residual {worst:.3e}")
        report = repvar.trace_rank(fx.representation, fx.presentation, fx.meridian_loops())
        _check(report.h1_dim == 12 * fx.genus - 12,
               f"h1 {report.h1_dim} != 12g - 12 = {12 * fx.genus - 12}")
        edges = item.poly.combinatorics.edge_count
        _check(report.rank == 2 * edges, f"rank {report.rank} != 2|E| = {2 * edges}")
        return
    link = repvar.link_representation(item.poly, item.vertex)
    rep = link.representation()
    d = len(link.edges)
    loops = [(k,) for k in range(1, d + 1)]
    unitary = repvar.trace_rank(rep, link.presentation, loops, restrict_to_unitary=True)
    _check((unitary.h1_dim, unitary.rank) == (3 * d - 6, d),
           f"unitary (h1, rank) ({unitary.h1_dim}, {unitary.rank}) != ({3 * d - 6}, {d})")
    full = repvar.trace_rank(rep, link.presentation, loops)
    _check((full.h1_dim, full.rank) == (6 * d - 12, 2 * d),
           f"full (h1, rank) ({full.h1_dim}, {full.rank}) != ({6 * d - 12}, {2 * d})")


RUNNERS = {"realize": realize, "certify": certify, "trace": trace}

GRID_SCALES = (0.02, 0.3)
GRID_AMPLITUDES = (1e-4, 1e-3)
GRID_SEEDS = range(5)
GRID_OUTCOMES = ("converged", "NoConvergence", "ConvexityLost", "BallExit")


def robustness_grid():
    """Outcome counts of forward solves over fixture x scale x amplitude x seed.

    At scale 0.02 most cube and prism targets are expected to fail; the grid
    keeps that visible as counts, never as a timing.
    """
    counts = dict.fromkeys(GRID_OUTCOMES, 0)
    for build in fixtures.STANDARD.values():
        for scale in GRID_SCALES:
            poly = build(scale)
            base = polyhedron.dihedral_angles(poly)
            for amplitude in GRID_AMPLITUDES:
                for seed in GRID_SEEDS:
                    rng = np.random.default_rng(seed)
                    target = base + amplitude * rng.uniform(-1.0, 1.0, base.size)
                    try:
                        deform.realize_angles(poly, target)
                        counts["converged"] += 1
                    except (NoConvergence, ConvexityLost, BallExit) as exc:
                        counts[type(exc).__name__] += 1
    return counts
