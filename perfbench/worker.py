"""Benchmark worker process; run.py starts one per phase.

    worker.py setup     --workload W
    worker.py measure   --workload W --seed S --seconds T [--ops N] [--trace] [--probe]
    worker.py reference < {"items": [[op, result], ...]}

Each mode prints one JSON object as its last line of standard output.
``setup`` times a fresh interpreter from the top of this file through
``import hypvol`` and the workload's warm-up ops.  ``measure`` runs the
seeded plan (the rounds that fill T seconds, or its first N ops) and
times each op, as measured and at reference host speed (calibration.py);
with --trace the wrappers of tracing.py are installed after the warm-up
and per-layer metrics are reported.  ``reference`` computes the
second-route references in a process of their own, so no reference
reuses an integral of the measured run; within it the abcore cache
serves consecutive ops of a sweep as it does in the measured run.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SLOW_STOP = 3.0  # stop at a round boundary once 3x the run's seconds have passed
_TIME_SUFFIXES = ("_ms", ".ms", ".ns_per_node")  # per-layer times, reported at reference host speed

WARMUP = {
    "distinct-betas": [
        {"kind": "volume", "d": 3, "betas": [0.5, 1.5, -0.5, 2.5, 0.0]},
        {"kind": "beta", "d": 2, "betas": [0.3, 1.1, -0.4, 2.0], "exponent": 0.7},
        {"kind": "beta", "d": 4, "betas": [0.2, 1.3, -0.6, 2.2, 0.9], "exponent": -1.0},
    ],
    "sweep": [
        {"kind": "volume", "d": 2, "betas": [0.5, 1.5, 0.5, 1.5]},
        {"kind": "table", "case": "ideal3", "range": "4:6", "format": "csv"},
    ],
    "mc-oracles": [
        {"kind": "mc", "case": case, **spec, "samples": 16, "seed": 1}
        for case, spec in workloads.mc_specs().items()
    ],
}


def _import_hypvol():
    sys.path.insert(0, str(ROOT / "src"))
    import hypvol
    import hypvol.cli  # noqa: F401  (not imported by the package itself)

    return hypvol


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(hv, workload: str) -> None:
    for op in WARMUP[workload]:
        workloads.execute(hv, op)


def _run_ops(hv, ops, run, limit_s: float = float("inf")):
    """Run ops in order, one at a time, with calibration samples between them.

    The abcore cache starts cold at each session (a sweep, or any other
    single op).  Stops early only at a round boundary once ``limit_s``
    has passed.  Returns results, wall seconds per op, and seconds per op
    at reference host speed (calibration.py).
    """
    results, wall, scaled = [], [], []
    session = object()
    start = perf_counter()
    cal = calibration.sample()
    for i, op in enumerate(ops):
        if i and op["round"] != ops[i - 1]["round"] and perf_counter() - start >= limit_s:
            break
        key = op.get("session", ("op", op["id"]))
        if key != session:
            hv.abcore.clear_cache()
            session = key
        t0 = perf_counter()
        try:
            res = run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = {"error": type(exc).__name__, "message": str(exc)[:200]}
        t = perf_counter() - t0
        after = calibration.sample()
        results.append(res)
        wall.append(t)
        scaled.append(calibration.scaled(t, cal, after))
        cal = after
    return results, wall, scaled


def setup(args) -> dict:
    hv = _import_hypvol()
    _warm_up(hv, args.workload)
    wall = perf_counter() - _T0
    samples = [calibration.sample() for _ in range(10)][1:]
    return {"setup_s": wall, "scaled_setup_s": calibration.scaled(wall, *samples)}


def measure(args) -> dict:
    from tracing import Tracer, wrapped_names

    hv = _import_hypvol()
    import numpy

    _warm_up(hv, args.workload)
    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    ops = workloads.plan(args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
    if args.ops is not None:
        ops = ops[: args.ops]
    out["planned"] = len(ops)
    out["digest"] = workloads.digest(ops)

    def run(op):
        return workloads.execute(hv, op)

    tracer = None
    if args.trace:
        from kernels import ns_per_node

        before = calibration.sample()
        kernel_ns = ns_per_node(hv.specfun)
        after = calibration.sample()
        out["kernel_ns_per_node"] = {k: calibration.scaled(v, before, after) for k, v in kernel_ns.items()}
        tracer = Tracer()
        tracer.install(hv)

        def run(op):  # noqa: F811
            return tracer.run_op(op, lambda: workloads.execute(hv, op))

    out["wrapped"] = wrapped_names(hv)
    # a much slower program stops after whole rounds, within the time budget
    results, wall, scaled = _run_ops(hv, ops, run, SLOW_STOP * args.seconds)
    out["peak_rss_mb"] = _peak_rss_mb()
    out.update(results=results, wall_s=wall, scaled_s=scaled)
    if tracer is not None:
        tracer.uninstall()
        speed = sum(scaled) / sum(wall)  # this run's host speed, as for the end-to-end timings
        out["layers"] = {
            name: value * speed if name.endswith(_TIME_SUFFIXES) else value
            for name, value in tracer.layer_metrics(workloads.MC_CASES).items()
        }
        out["trace_file"] = str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(Path(out["trace_file"]))
    if args.probe:
        probe = workloads.mc_probe_ops(args.seed, repeats=6)
        res, wall, scaled = _run_ops(hv, probe, run)
        out["probe"] = {"ops": probe, "results": res, "wall_s": wall, "scaled_s": scaled}
    return out


def reference(_args) -> dict:
    hv = _import_hypvol()
    items = json.load(sys.stdin)["items"]
    mc_cache: dict = {}
    return {"refs": [workloads.reference(hv, op, res, mc_cache) for op, res in items]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    doc = {"setup": setup, "measure": measure, "reference": reference}[args.mode](args)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
