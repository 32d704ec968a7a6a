"""Benchmark of stokerlab's three kinds of jobs.

    python3 perfbench/run.py [--workload realize|certify|trace|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Workloads (one closed-loop caller in one process: the next item starts only
after the previous one has finished and been checked):

* ``realize``  forward ``realize_angles`` to a seeded target and back, over a
  ladder of fixtures, n-prisms, random simplicial hulls and polar duals;
* ``certify``  ``validate``, ``rigidity`` and ``holonomy`` through the
  in-process CLI on the same polyhedra, written to files;
* ``trace``    boundary-surface and vertex-link trace ranks.

The timed phase repeats whole passes over the workload's inputs, in a
seeded order, and stops at the pass boundary nearest ``--seconds``.  Item
times are reported rescaled to a fixed machine speed by a probe run before
every item (see ``speed.py``); the times as measured are printed beside
them.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass (wrappers from
``tracer.py``) plus the solver robustness grid, and prints the per-layer
metrics.  Every metric is
printed by name with its unit; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Single-threaded BLAS, pinned before numpy is imported by anything.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("realize", "certify", "trace")
# Fixed per workload so the tail means the same input on every commit; each
# leaves at least ten samples beyond it at the run length in BENCHMARK.json
# and falls inside one input's repeats, not between two inputs.
TAIL_PERCENTILE = {"realize": 90, "certify": 80, "trace": 85}
WARMUP = {
    "realize": ("tetrahedron@0.3",),
    "certify": ("tetrahedron@0.3",),
    "trace": ("surface:tetrahedron", "link:tetrahedron:0"),
}
SETUP_SAMPLES = 5        # fresh processes timed for setup_s; the median is reported


def import_library():
    """Import stokerlab from this checkout's ``src``, never from elsewhere."""
    if "stokerlab" in sys.modules:
        return
    package = os.path.join(SRC, "stokerlab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no stokerlab sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import stokerlab
    if os.path.dirname(os.path.abspath(stokerlab.__file__)) != package:
        sys.exit(f"perfbench: imported stokerlab from {stokerlab.__file__}, not {package}")


def build_inputs(workload, seed, workdir):
    """Import the library and build and validate one workload's inputs."""
    import_library()
    import ladder
    return ladder.build(workload, seed, workdir)


def setup_seconds(workload, seed):
    """Median wall time of a fresh process importing stokerlab and building
    and validating the inputs (interpreter start-up excluded)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return sorted(samples)[len(samples) // 2]


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``% of
    the samples at or below it (integer ``p``)."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


class Phase:
    """Latencies and failures of consecutive whole passes over the inputs.

    ``latencies`` are as measured; ``scaled`` rescales each one to the
    reference machine speed with the probes run just before and after it
    (see speed.py).
    """

    def __init__(self):
        from speed import SpeedTrace

        self.latencies = []
        self.scaled = []
        self.failures = []     # (item, error class, message)
        self.elapsed = 0.0
        self.passes = 0
        self.speed = SpeedTrace()

    @property
    def verified(self):
        return len(self.latencies) - len(self.failures)

    @property
    def items_per_s(self):
        """Verified items per second of item time, at the reference speed."""
        return self.verified / sum(self.scaled)


def run_passes(runner, inputs, ctx, seconds, order_seed, tracer=None):
    """Run passes until the pass boundary nearest ``seconds`` (at least one)."""
    import numpy as np
    from items import WrongAnswer

    phase = Phase()
    starts = []
    start = time.perf_counter()
    while True:
        order = np.random.default_rng((order_seed, phase.passes)).permutation(len(inputs))
        for index in order:
            item = inputs[index]
            if tracer is not None:
                tracer.item = item.name
            phase.speed.record()
            t0 = time.perf_counter()
            try:
                runner(item, ctx)
            except WrongAnswer as exc:
                phase.failures.append((item.name, "WrongAnswer", str(exc)))
            except Exception as exc:  # any library error is a failed item; keep going
                phase.failures.append((item.name, type(exc).__name__, str(exc)))
            phase.latencies.append(time.perf_counter() - t0)
            starts.append(t0)
        phase.passes += 1
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed * (1.0 + 0.5 / phase.passes) >= seconds:
            break
    phase.speed.record()
    phase.scaled = [lat * phase.speed.scale(t0, t0 + lat)
                    for lat, t0 in zip(phase.latencies, starts)]
    return phase


def machine_metadata():
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def report_failures(workload, failures):
    for name, kind, message in failures:
        print(f"  FAILED {workload} {name}: {kind}: {message}")


def run_workload(workload, seed, seconds, traced, workdir):
    """Run one workload; return (attempted, failed, {metric: (value, unit)})."""
    inputs = build_inputs(workload, seed, workdir)
    import items
    from speed import REFERENCE_S

    runner = items.RUNNERS[workload]
    by_name = {item.name: item for item in inputs}
    warm = items.Context()
    for name in WARMUP[workload]:
        runner(by_name[name], warm)

    if not traced:
        setup_s = setup_seconds(workload, seed)
        phase = run_passes(runner, inputs, items.Context(), seconds, seed)
        probe_s = statistics.median(phase.speed.durations)
        tail_p = TAIL_PERCENTILE[workload]
        n = len(phase.latencies)
        beyond = n - max(1, -(-tail_p * n // 100))
        print(f"{workload}: seed {seed}, {phase.passes} passes x {len(inputs)} inputs, "
              f"{phase.elapsed:.2f} s timed, one closed-loop caller")
        print(f"  times below are rescaled to the reference speed: "
              f"{len(phase.speed.durations)} probes, median {1e3 * probe_s:.3f} ms "
              f"(reference {1e3 * REFERENCE_S:.3f} ms)")
        print(f"  as measured: items_per_s {phase.verified / phase.elapsed:.6g} 1/s, "
              f"item_ms_p50 {1e3 * percentile(phase.latencies, 50):.6g} ms, "
              f"item_ms_tail {1e3 * percentile(phase.latencies, tail_p):.6g} ms")
        print(f"  item_ms_tail is p{tail_p} of {n} samples, {beyond} beyond it"
              + ("" if beyond >= 10 else " (fewer than ten: raise --seconds)"))
        print(f"  fail_frac {len(phase.failures) / n:.6g} ({len(phase.failures)} of {n})")
        report_failures(workload, phase.failures)
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (phase.items_per_s, "1/s"),
            "item_ms_p50": (1e3 * percentile(phase.scaled, 50), "ms"),
            "item_ms_tail": (1e3 * percentile(phase.scaled, tail_p), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return n, len(phase.failures), metrics

    from tracer import Tracer

    plain = run_passes(runner, inputs, items.Context(), 0.0, seed)
    tracer = Tracer()
    ctx = items.Context()
    tracer.install()
    try:
        traced_phase = run_passes(runner, inputs, ctx, 0.0, seed, tracer)
    finally:
        tracer.uninstall()
    grid = items.robustness_grid()
    failures = plain.failures + traced_phase.failures
    attempted = len(plain.latencies) + len(traced_phase.latencies)
    print(f"{workload}: seed {seed}, one untraced and one traced pass x {len(inputs)} inputs, "
          f"{len(tracer.spans)} spans")
    report_failures(workload, failures)
    metrics = tracer.layer_metrics()
    metrics["deform.iterations"] = (ctx.iterations, "count")
    metrics["deform.converged_frac"] = (ctx.converged / ctx.solves if ctx.solves else 0.0,
                                        "ratio")
    for outcome, count in grid.items():
        metrics[f"deform.grid.{outcome}"] = (count, "count")
    metrics["tracing.items_per_s_ratio"] = (traced_phase.items_per_s / plain.items_per_s,
                                            "ratio")
    return attempted, len(failures), metrics


def run_all(args):
    """Run every workload in a process of its own; prefix its metrics with its name."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = out.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed length of one workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of one workload and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            build_inputs(args.workload, args.seed, workdir)
            print(time.perf_counter() - start)
        return 0

    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        attempted, failed, metrics = run_all(args)
    else:
        import_library()
        print("machine: " + json.dumps(machine_metadata()))
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            attempted, failed, values = run_workload(args.workload, args.seed, args.seconds,
                                                     bool(args.trace), workdir)
        metrics = {}
        for name, (value, unit) in values.items():
            print(f"  {name} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
