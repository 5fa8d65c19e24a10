"""Run one workload of the hypvol benchmark and print its metrics.

    python3 perfbench/run.py --workload distinct-betas --seed 1 --seconds 14 --trace 0

Phases, each in a fresh worker process (worker.py) with BLAS/OpenMP
threads pinned to 1:

1. measure: warm up, then run the seeded plan (the rounds that fill
   --seconds), one op at a time (closed loop, one client), timing each
   op; timings are reported at reference host speed (calibration.py).
2. reference: recompute every result by a second route, untimed, in two
   processes side by side, and check it.
3. --trace 0: time set-up in fresh interpreters and report the
   end-to-end metrics.  --trace 1: rerun exactly the measured ops with
   the layer wrappers installed and report the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  Metric names and
units come from BENCHMARK.json; the run fails if the computed set
differs from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
REFERENCE_PROCESSES = 2
BUDGET_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


class Workers:
    """Starts worker.py processes; every one is waited for or killed."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ, **{name: "1" for name in PINNED_THREADS}, PYTHONHASHSEED="0")
        self.seconds: Counter = Counter()  # wall time per worker mode

    def run(self, *args: str, stdin: str | None = None) -> dict:
        start = time.monotonic()
        remaining = self.deadline - start
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                input=stdin,
                capture_output=True,
                text=True,
                timeout=remaining,
                env=self.env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"worker {args[0]} exceeded the time budget") from exc
        self.seconds[args[0]] += time.monotonic() - start
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values, q: float) -> float:
    """Inclusive-method quantile (statistics.quantiles) at q in {0.5, 0.9}."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[round(q * 10) - 1]


def _references(workers: Workers, items: list) -> list[dict]:
    """References for (op, result) items, in contiguous chunks side by side.

    Contiguous chunks keep the ops of one sweep together, so the
    reference process reuses integrals across its n as the measured run
    does.
    """
    if not items:
        return []
    size = -(-len(items) // REFERENCE_PROCESSES)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with ThreadPoolExecutor(max_workers=REFERENCE_PROCESSES) as pool:
        docs = pool.map(lambda c: workers.run("reference", stdin=json.dumps({"items": c})), chunks)
        return [ref for doc in docs for ref in doc["refs"]]


def _verdicts(workers: Workers, pairs: list) -> list[tuple[str, str] | None]:
    """Per (op, result): None when correct, else (status, detail).

    status is "raised", or "wrong"/"unverified" from workloads.check.
    """
    refs = iter(_references(workers, [(op, res) for op, res in pairs if "error" not in res]))
    return [
        ("raised", f"{res['error']}: {res['message']}") if "error" in res else workloads.check(op, res, next(refs))
        for op, res in pairs
    ]


def _mc_us_per_sample(ops, latency) -> dict[str, tuple[float, int]]:
    per_case: dict[str, list[float]] = {case: [] for case in workloads.MC_CASES}
    for op, t in zip(ops, latency):
        per_case[op["case"]].append(1e6 * t / op["samples"])
    return {case: (statistics.median(v), len(v)) for case, v in per_case.items() if v}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(workers: Workers, args, ops, m: dict, report: list) -> dict:
    """Timings are at reference host speed (calibration.py); raw ones go to the report."""
    latency_ms = [1e3 * t for t in m["scaled_s"]]
    raw_ms = [1e3 * t for t in m["wall_s"]]
    n = len(latency_ms)
    metrics = {
        "latency_p50_ms": (_quantile(latency_ms, 0.5), f"{n} ops"),
        "latency_p90_ms": (_quantile(latency_ms, 0.9), f"{n} ops"),
        "ops_per_s": (n / sum(m["scaled_s"]), f"{n} ops"),
        "peak_rss_mb": (m["peak_rss_mb"], "1 process"),
    }
    report.append(
        f"as measured: p50 {_quantile(raw_ms, 0.5):.4g} ms, p90 {_quantile(raw_ms, 0.9):.4g} ms, "
        f"{n / sum(m['wall_s']):.4g} ops/s over {sum(m['wall_s']):.2f} s; "
        f"host speed {sum(m['scaled_s']) / sum(m['wall_s']):.3f} of reference"
    )
    if args.workload == "mc-oracles":
        mc_ops, mc_s, source = ops, m["scaled_s"], "measured ops"
    else:
        mc_ops, mc_s, source = m["probe"]["ops"], m["probe"]["scaled_s"], "probe after the timed ops"
    for case, (value, count) in _mc_us_per_sample(mc_ops, mc_s).items():
        metrics[f"mc_us_per_sample.{case}"] = (value, f"{count} ops, {source}")
    setups = [workers.run("setup", "--workload", args.workload) for _ in range(SETUP_RUNS)]
    metrics["setup_s"] = (
        statistics.median(s["scaled_setup_s"] for s in setups),
        f"median of {SETUP_RUNS} fresh interpreters",
    )
    report.append("setup_s as measured: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    return metrics


def per_layer(workers: Workers, args, ops, m: dict, report: list) -> tuple[dict, list]:
    traced = workers.run(
        "measure", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--ops", str(len(ops)), "--trace",
    )
    if traced["digest"] != workloads.digest(ops) or len(traced["results"]) != len(ops):
        raise BenchError("traced run did not repeat the measured ops")
    mismatches = [op["id"] for op, a, b in zip(ops, m["results"], traced["results"]) if a != b]
    layers = traced["layers"]
    metrics = {name: (value, "") for name, value in layers.items()}
    for kernel, value in traced["kernel_ns_per_node"].items():
        metrics[f"specfun.kernel.{kernel}.ns_per_node"] = (value, "microbenchmark, median of 5")
    traced_s, untraced_s = sum(traced["scaled_s"]), sum(m["scaled_s"])
    metrics["trace.overhead_frac"] = (
        traced_s / untraced_s - 1.0,
        f"ops took {traced_s:.2f} s traced vs {untraced_s:.2f} s untraced, at reference host speed",
    )
    report.append(f"spans written to {os.path.relpath(traced['trace_file'], ROOT)}")
    if mismatches:
        report.append(f"traced results differ from untraced ones on ops {mismatches[:10]}")
    return metrics, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypvol benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypvol" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hypvol sources under {ROOT / 'src'}\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    workers = Workers(BUDGET_S)
    report: list[str] = []
    try:
        m = workers.run(
            "measure", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *([] if args.trace else ["--probe"]),
        )
        planned = workloads.plan(args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
        if m["digest"] != workloads.digest(planned):
            raise BenchError("the measured run did not execute the planned ops")
        ops = planned[: len(m["results"])]
        if m["wrapped"]:
            raise BenchError(f"untraced run found wrappers on {m['wrapped']}")
        probe = m.get("probe", {"ops": [], "results": []})
        pairs = list(zip(ops, m["results"])) + list(zip(probe["ops"], probe["results"]))
        all_verdicts = _verdicts(workers, pairs)
        verdicts, probe_verdicts = all_verdicts[: len(ops)], all_verdicts[len(ops) :]
        if args.trace:
            metrics, mismatches = per_layer(workers, args, ops, m, report)
        else:
            metrics, mismatches = end_to_end(workers, args, ops, m, report), []
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted = len(ops)
    failed = sum(v is not None for v in verdicts)
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, f"{attempted - failed} of {attempted} ops")
    if set(metrics) != set(units):
        sys.stderr.write(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json\n")
        return 1
    # a result off its reference by more than its error bar and the
    # engine's rel_tol makes the run incorrect, except where the program
    # documents that its accuracy does not hold; all such ops count as failed
    wrong = [
        op["id"]
        for (op, _), v in zip(pairs, all_verdicts)
        if v is not None and v[0] == "wrong" and not workloads.low_accuracy(op)
    ]
    correct = not wrong and not mismatches

    rounds = ops[-1]["round"] + 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"env: python {m['python']}, numpy {m['numpy']}, nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}, cpu {_cpu_model()!r}, "
        + ", ".join(f"{name}=1" for name in PINNED_THREADS)
    )
    print(f"plan digest {m['digest']}: ran {attempted} of {m['planned']} planned ops, {rounds} rounds")
    for name in sorted(metrics):
        value, note = metrics[name]
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} {note}")
    for line in report:
        print(line)
    print("worker seconds: " + ", ".join(f"{mode} {t:.1f}" for mode, t in workers.seconds.items()))
    statuses = Counter(v[0] for v in verdicts if v is not None)
    print(f"failed {failed}/{attempted} ops ({dict(statuses)}); probe failures {sum(v is not None for v in probe_verdicts)}")
    for op, v in zip(ops, verdicts):
        if v is not None:
            shape = {k: op[k] for k in ("kind", "d", "betas", "exponent", "case", "range") if k in op}
            region = " [documented low-accuracy region]" if workloads.low_accuracy(op) else ""
            print(f"  op {op['id']}: {v[0]}{region} {v[1][:160]} {json.dumps(shape)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
