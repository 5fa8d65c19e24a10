"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The last test runs the full command once per workload and trace mode at
--seconds 1 (about two minutes).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _hypvol():
    sys.path.insert(0, str(ROOT / "src"))
    import hypvol
    import hypvol.cli  # noqa: F401

    return hypvol


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_digest(workload):
    a = workloads.plan(workload, 11, 3)
    b = workloads.plan(workload, 11, 3)
    assert a == b
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(workloads.plan(workload, 12, 3)) != workloads.digest(a)
    assert [op["id"] for op in a] == list(range(len(a)))


def test_rounds_do_not_depend_on_later_rounds():
    short = workloads.plan("distinct-betas", 5, 2)
    assert workloads.plan("distinct-betas", 5, 4)[: len(short)] == short


def test_distinct_betas_are_distinct_and_in_domain():
    for op in workloads.plan("distinct-betas", 3, 4):
        assert len(set(op["betas"])) == len(op["betas"]) >= op["d"] + 1
        assert min(op["betas"]) >= -1.0
        if op["kind"] == "beta":
            assert op["exponent"] > -0.5 * (op["d"] + 1)


def test_low_accuracy_region():
    assert workloads.low_accuracy({"kind": "volume", "d": 2, "betas": [0.0, -0.99, 1.0]})
    assert not workloads.low_accuracy({"kind": "volume", "d": 2, "betas": [0.0, -1.0, 1.0]})
    assert not workloads.low_accuracy({"kind": "volume", "d": 3, "betas": [0.0, -0.99, 1.0, 2.0]})
    assert workloads.low_accuracy({"kind": "beta", "d": 3, "betas": [0.0] * 4, "exponent": -1.99})


def test_check_statuses():
    op = {"kind": "volume", "d": 3, "betas": [0.0] * 4}
    res = {"value": 1.0, "err": 1e-12}
    assert workloads.check(op, res, {"route": "tight", "value": 1.0 + 5e-13, "err": 1e-13}) is None
    assert workloads.check(op, res, {"route": "tight", "value": 1.0 + 1e-9, "err": 1e-13})[0] == "wrong"
    tiny_bar = {"value": 1.0, "err": 1e-15}
    assert workloads.check(op, tiny_bar, {"route": "tight", "value": 1.0 + 5e-14, "err": 0.0})[0] == "error-bar"
    assert workloads.check(op, res, {"route": None, "errors": ["x"]})[0] == "unverified"


def test_tracer_installs_and_uninstalls():
    from tracing import Tracer, wrapped_names

    hv = _hypvol()
    assert wrapped_names(hv) == []
    tracer = Tracer()
    tracer.install(hv)
    try:
        assert len(wrapped_names(hv)) > 20
        op = {"id": 0, "kind": "volume", "d": 3, "betas": [0.5, 1.5, -0.5, 2.5, 0.0]}
        tracer.run_op(op, lambda: workloads.execute(hv, op))
    finally:
        tracer.uninstall()
    assert wrapped_names(hv) == []
    layers = tracer.layer_metrics(workloads.MC_CASES)
    assert layers["specfun.cosh_pow.nodes"] > 0 and layers["expect.ops"] == 1
    assert 0.0 < layers["specfun.share_frac"] < 1.0


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_untraced_worker_runs_unmodified_modules():
    doc = _worker("measure", "--workload", "distinct-betas", "--seed", "1", "--seconds", "1", "--ops", "2")
    assert doc["wrapped"] == [] and "layers" not in doc
    traced = _worker("measure", "--workload", "distinct-betas", "--seed", "1", "--seconds", "1", "--ops", "2", "--trace")
    assert traced["wrapped"] and traced["results"] == doc["results"]


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in doc[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["attempted"] >= 1
