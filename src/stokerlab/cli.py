"""Command-line surface for scripted verification runs.

Subcommands: ``validate``, ``angles``, ``rigidity``, ``deform``,
``holonomy``, ``tracerank``.  Every run prints one deterministic JSON report
(floats at 17 significant digits, fixed key order) in which each numeric
verdict carries the tolerance it was judged against.

``main`` builds every report's skeleton and hands it to the command, which
reads each file through ``_read`` and appends its verdicts, so ``inputs``
names exactly the files read, in the order read.  Exit codes: 0 every
verdict passed, 1 a verdict failed or the library failed on accepted
input (numerical failures included), 2 unreadable or invalid input
(non-finite numbers included), 3 no convergence, 4 convexity lost, 5 ball
exit; only ``deform`` returns 3-5, from its solver.  The commands that
compute on a polyhedron judge it with ``validate_combinatorics`` and
``validate_embedding`` before computing, so an embedding that ``validate``
fails is invalid input for every one of them, reported with its first
issue.  The environment variable ``STOKERLAB_TOL_SCALE`` multiplies every
tolerance (default 1); randomness enters only through the explicit
``--seed`` flag (NumPy PCG64).  Numbers are ASCII decimal literals.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import deform, formats, polyhedron, repvar, rigidity
from .config import DEFAULT, Tolerances
from .errors import BallExit, ConvexityLost, NoConvergence, ParseError, SolverError, StokerlabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONVEXITY_LOST = 4
EXIT_BALL_EXIT = 5


def _tolerances():
    raw = os.environ.get("STOKERLAB_TOL_SCALE", "1")
    try:
        factor = formats.parse_float(raw)
        return DEFAULT.scaled(factor), factor
    except ValueError:
        raise ParseError(f"STOKERLAB_TOL_SCALE={raw!r} is not a finite positive number")


def _read(report, load, path, *args):
    """``load(path, *args)``, then the file's entry in ``report["inputs"]``:
    a file is listed only once it has been read, and a file that cannot be
    read is the loader's ``ParseError``."""
    value = load(path, *args)
    report["inputs"].append({"path": path, "sha256": formats.sha256_of_file(path)})
    return value


def _verdict(report, name, passed, tolerance, value):
    report["verdicts"].append(
        {"name": name, "pass": bool(passed), "tolerance": float(tolerance), "value": value}
    )


def cmd_validate(report, args, tol: Tolerances):
    poly = _read(report, formats.load_polyhedron, args.path)
    comb_report = polyhedron.validate_combinatorics(poly.combinatorics)
    report["results"]["counts"] = {
        "vertices": comb_report.vertex_count,
        "edges": comb_report.edge_count,
        "faces": comb_report.face_count,
        "euler_characteristic": comb_report.euler_characteristic,
    }
    report["results"]["combinatorics_issues"] = comb_report.issues
    _verdict(report, "combinatorics_valid", comb_report.valid, 0.0, len(comb_report.issues))
    if comb_report.valid:
        emb = polyhedron.validate_embedding(poly, tol)
        report["results"]["embedding"] = {
            "max_radius": emb.max_radius,
            "max_planarity_residual": emb.max_planarity_residual,
            "min_convexity_margin": emb.min_convexity_margin,
            "issues": emb.issues,
        }
        _verdict(report, "embedding_planar", emb.planar, tol.planar, emb.max_planarity_residual)
        _verdict(report, "embedding_convex", emb.convex, tol.convex, emb.min_convexity_margin)
        _verdict(report, "embedding_in_ball", emb.in_ball, tol.ball, emb.max_radius)


def _load_valid_polyhedron(path, tol: Tolerances):
    """Load a polyhedron and judge it before anything computes on it: a
    combinatorics or embedding issue is a ``ParseError`` naming the first."""
    poly = formats.load_polyhedron(path)
    comb_report = polyhedron.validate_combinatorics(poly.combinatorics)
    if not comb_report.valid:
        raise ParseError(f"{path}: invalid combinatorics: " + "; ".join(comb_report.issues))
    emb = polyhedron.validate_embedding(poly, tol)
    if not emb.valid:
        raise ParseError(f"{path}: invalid embedding: {emb.issues[0]}")
    return poly


def cmd_angles(report, args, tol: Tolerances):
    poly = _read(report, _load_valid_polyhedron, args.path, tol)
    angles = polyhedron.dihedral_angles(poly, tol)
    report["results"]["edges"] = [list(e) for e in poly.combinatorics.edges]
    report["results"]["angles"] = [float(a) for a in angles]
    _verdict(report, "angles_in_range", bool(np.all(angles > 0.0) and np.all(angles < np.pi)),
             0.0, float(angles.min()))


def cmd_rigidity(report, args, tol: Tolerances):
    poly = _read(report, _load_valid_polyhedron, args.path, tol)
    rep = rigidity.rigidity_report(poly, tol)
    report["results"]["rigidity"] = {
        "edge_count": rep.edge_count,
        "tangent_dim": rep.tangent_dim,
        "angle_rank": rep.angle_rank,
        "kernel_dim": rep.kernel_dim,
        "isometry_containment_residual": rep.isometry_containment_residual,
        "singular_values": [float(s) for s in rep.singular_values],
        "spectral_gap_lead": rep.spectral_gap,
        "notes": rep.notes,
    }
    _verdict(report, "tangent_dim", rep.tangent_dim == rep.edge_count + 6, 0.0, rep.tangent_dim)
    _verdict(report, "angle_rank", rep.angle_rank == rep.edge_count, 0.0, rep.angle_rank)
    _verdict(report, "kernel_dim", rep.kernel_dim == 6, 0.0, rep.kernel_dim)
    _verdict(report, "kernel_matches_isometries",
             rep.isometry_containment_residual < tol.principal_angle,
             tol.principal_angle, rep.isometry_containment_residual)
    _verdict(report, "certified", rep.certified, 0.0, int(rep.certified))


def cmd_deform(report, args, tol: Tolerances):
    """Returns the solver's exit code when continuation fails, else None."""
    if args.steps < 1:
        raise ParseError(f"n_steps must be at least 1, got {args.steps}")
    if args.seed < 0:
        raise ParseError(f"--seed must be nonnegative, got {args.seed}")
    poly = _read(report, _load_valid_polyhedron, args.path, tol)
    comb = poly.combinatorics
    if args.target:
        target = _read(report, formats.load_angles, args.target, comb.edge_count)
    else:
        rng = np.random.default_rng(args.seed)
        target = (polyhedron.dihedral_angles(poly, tol)
                  + args.perturb * rng.uniform(-1.0, 1.0, comb.edge_count))
    try:
        target = polyhedron.validate_angle_vector(target, comb.edge_count)
    except ValueError as exc:
        raise ParseError(f"infeasible target angles: {exc}") from exc

    opts = deform.DeformOptions()
    report["results"]["target"] = [float(a) for a in target]
    try:
        results = deform.continuation_path(poly, target, args.steps, opts, tol)
    except SolverError as exc:
        report["results"]["error"] = type(exc).__name__
        report["results"]["failed_waypoint"] = exc.waypoint
        report["results"]["completed_waypoints"] = len(exc.results)
        _verdict(report, "deform_converged", False, opts.residual_tol, str(exc))
        return {NoConvergence: EXIT_NO_CONVERGENCE, ConvexityLost: EXIT_CONVEXITY_LOST,
               BallExit: EXIT_BALL_EXIT}[type(exc)]

    final = results[-1]
    achieved = final.achieved_angles
    err = float(np.max(np.abs(achieved - target)))
    emb = polyhedron.validate_embedding(final.final, tol)
    report["results"]["iterations"] = [r.iterations_used for r in results]
    report["results"]["residual_history"] = [
        [float(v) for v in r.residual_history] for r in results
    ]
    report["results"]["achieved_angles"] = [float(a) for a in achieved]
    report["results"]["gauge"] = final.gauge
    report["results"]["final_polyhedron"] = formats.polyhedron_to_dict(final.final)
    _verdict(report, "angles_achieved", err <= 10 * opts.residual_tol,
             10 * opts.residual_tol, err)
    _verdict(report, "planarity_preserved",
             emb.max_planarity_residual <= 10 * opts.residual_tol,
             10 * opts.residual_tol, emb.max_planarity_residual)
    _verdict(report, "convexity_preserved", emb.min_convexity_margin > 0.0, 0.0,
             emb.min_convexity_margin)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(formats.dump_polyhedron(final.final))
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc


def cmd_holonomy(report, args, tol: Tolerances):
    poly = _read(report, _load_valid_polyhedron, args.path, tol)
    comb = poly.combinatorics
    holonomy = repvar.polyhedron_holonomy(poly, tol)
    angles = holonomy.angles
    traces = np.trace(holonomy.link_meridians[comb.edge_slots[:, 0]], axis1=1, axis2=2)
    trace_abs = np.hypot(traces.real, traces.imag)
    defects = np.abs(np.abs(traces.real) - 2.0 * np.abs(np.cos(angles)))
    worst_trace = float(np.max(defects, initial=0.0))
    edge_rows = [
        {
            "edge": list(e),
            "angle": float(angles[k]),
            "lift_trace_abs": float(trace_abs[k]),
            "trace_identity_defect": float(defects[k]),
        }
        for k, e in enumerate(comb.edges)
    ]
    links = repvar.link_certificate(holonomy, tol)
    vertex_rows = [
        {
            "vertex": v,
            "valence": int(valence),
            "relation_residual": float(relation),
            "irreducible": bool(irreducible),
            "irreducibility_residual": float(residual),
        }
        for v, (valence, relation, irreducible, residual) in enumerate(zip(
            np.diff(holonomy.link_offsets), links.relation_residuals, links.irreducible,
            links.irreducibility_residuals))
    ]
    worst_relation = float(np.max(links.relation_residuals, initial=0.0))
    all_irreducible = bool(np.all(links.irreducible))
    report["results"]["edges"] = edge_rows
    report["results"]["vertices"] = vertex_rows
    _verdict(report, "trace_identities", worst_trace < tol.trace_identity,
             tol.trace_identity, worst_trace)
    _verdict(report, "vertex_relations", worst_relation < tol.relator, tol.relator, worst_relation)
    _verdict(report, "links_irreducible", all_irreducible, tol.irreducible, int(all_irreducible))


def cmd_tracerank(report, args, tol: Tolerances):
    pres, loops = _read(report, formats.load_presentation, args.presentation)
    expected = None
    if args.fixture_vertex:
        try:
            poly_path, vertex_text = args.fixture_vertex.rsplit(":", 1)
            vertex = formats.parse_int(vertex_text)
        except ValueError:
            raise ParseError("--fixture-vertex expects POLYHEDRON.json:VERTEX")
        poly = _read(report, _load_valid_polyhedron, poly_path, tol)
        n = poly.combinatorics.vertex_count
        if not 0 <= vertex < n:
            raise ParseError(f"{poly_path}: vertex {vertex} outside 0..{n - 1}")
        link = repvar.link_representation(poly, vertex, tol)
        rep = link.representation()
        d = len(link.edges)
        expected = {
            "valence": d,
            "h1_dim": 3 * d - 6 if args.unitary else 6 * d - 12,
            "rank": d if args.unitary else 2 * d,
        }
        if pres.generator_count != d:
            raise ParseError(
                f"presentation has {pres.generator_count} generators, link has {d}"
            )
    else:
        rep = _read(report, formats.load_matrices, args.matrices)
        if rep.generator_count != pres.generator_count:
            raise ParseError(
                f"presentation has {pres.generator_count} generators, "
                f"matrix file has {rep.generator_count}"
            )
    if not loops:
        loops = [(g,) for g in range(1, pres.generator_count + 1)]
    # finite images can overflow; trace_rank then raises LinAlgError
    with np.errstate(over="ignore", invalid="ignore"):
        det_defect, relator_data = repvar.representation_report(rep, pres)
        rank_report = repvar.trace_rank(rep, pres, loops, args.unitary, tol)
    report["results"]["representation"] = {
        "det_defect": det_defect,
        "relator_residuals": [r for _, r in relator_data],
        "relator_signs": [s for s, _ in relator_data],
    }
    report["results"]["trace_rank"] = {
        "algebra": rank_report.algebra,
        "z1_dim": rank_report.z1_dim,
        "b1_dim": rank_report.b1_dim,
        "h1_dim": rank_report.h1_dim,
        "loop_count": rank_report.loop_count,
        "rank": rank_report.rank,
        "singular_values": [float(s) for s in rank_report.singular_values],
        "gap_ratio": rank_report.gap_ratio,
    }
    worst_rel = max((r for _, r in relator_data), default=0.0)
    _verdict(report, "relators_hold", worst_rel < tol.relator, tol.relator, worst_rel)
    if args.unitary:
        # su(2) coordinates mean nothing for images outside SU(2)
        gram = rep.images @ np.conj(np.swapaxes(rep.images, -1, -2)) - np.eye(2)
        defect = float(np.linalg.norm(gram, axis=(-2, -1)).max(initial=0.0))
        _verdict(report, "images_unitary", defect < tol.iso, tol.iso, defect)
    if expected is not None:
        report["results"]["expected"] = expected
        _verdict(report, "h1_dim_expected", rank_report.h1_dim == expected["h1_dim"],
                 0.0, rank_report.h1_dim)
        _verdict(report, "rank_expected", rank_report.rank == expected["rank"],
                 0.0, rank_report.rank)


class _Parser(argparse.ArgumentParser):
    """Reads every argument that ``float`` reads, such as -1e-4, as a value:
    the negative-number pattern of argparse has no exponent."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return argparse.ArgumentParser._parse_optional(self, arg_string)
        return None


@functools.cache
def build_parser():
    parser = _Parser(
        prog="stokerlab",
        description="Rigidity, deformation and holonomy checks for convex "
                    "hyperbolic polyhedra in the Klein ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a polyhedron JSON file")
    p.add_argument("path")
    p = sub.add_parser("angles", help="dihedral angle table per edge")
    p.add_argument("path")
    p = sub.add_parser("rigidity", help="certify the angle-parameterization ranks")
    p.add_argument("path")

    p = sub.add_parser("deform", help="deform to a target angle vector")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="JSON file with the target angles")
    group.add_argument("--perturb",
                       help="uniform perturbation amplitude applied to current angles")
    p.add_argument("--seed", default="0", help="seed for --perturb")
    p.add_argument("--steps", default="1", help="continuation waypoints")
    p.add_argument("--out", help="write the final polyhedron JSON here")

    p = sub.add_parser("holonomy", help="meridian traces, vertex relations, link checks")
    p.add_argument("path")

    p = sub.add_parser("tracerank", help="cocycle/trace-coordinate rank report")
    p.add_argument("presentation", help="presentation text file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture-vertex", help="POLYHEDRON.json:VERTEX link source")
    group.add_argument("--matrices", help="matrix JSON file source")
    p.add_argument("--unitary", action="store_true",
                   help="restrict to unitary deformations (su(2)-valued)")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "angles": cmd_angles,
    "rigidity": cmd_rigidity,
    "deform": cmd_deform,
    "holonomy": cmd_holonomy,
    "tracerank": cmd_tracerank,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        tol, factor = _tolerances()
        config = {"tol_scale": factor}
        # numbers are read here, not by argparse, so a bad one gets a report
        for key, read in (("seed", formats.parse_int), ("perturb", formats.parse_float),
                          ("steps", formats.parse_int), ("unitary", bool)):
            if getattr(args, key, None) is not None:
                try:
                    config[key] = read(getattr(args, key))
                except ValueError as exc:
                    raise ParseError(f"--{key}: {exc}") from None
        vars(args).update(config)
        report = {"command": args.command, "inputs": [], "config": config,
                  "results": {}, "verdicts": []}
        code = _COMMANDS[args.command](report, args, tol)
    except (StokerlabError, np.linalg.LinAlgError) as exc:
        error = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            error.update(line=exc.line, column=exc.column)
        sys.stdout.write(formats.to_json(error) + "\n")
        return EXIT_BAD_INPUT if isinstance(exc, ParseError) else EXIT_CHECK_FAILED
    if code is None:
        code = EXIT_OK if all(v["pass"] for v in report["verdicts"]) else EXIT_CHECK_FAILED
    sys.stdout.write(formats.to_json(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
