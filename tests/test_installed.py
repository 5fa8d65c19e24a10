"""Gates on what a whole process does: its peak memory, traced memory growth, wall time and kernel nodes.

Each memory and time gate runs in a process of its own, so no earlier
test's allocations, caches or children count against it: the CLI as
``python -m hypvol.cli`` and the library loops as ``python -c``, both
with ``src`` first on ``PYTHONPATH``.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hypvol import abcore
from hypvol.expect import BetaSpec, expected_hyp_volume

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

# Linux carries a process's peak RSS across fork and exec, so a command
# started from this process would report at least this process's peak.
# A small launcher runs it instead and reports the peak of its one child,
# with the child's wall time; argv: report path, timeout in JSON, command.
_LAUNCHER = """\
import json, resource, subprocess, sys, time
start = time.perf_counter()
code = subprocess.run(sys.argv[3:], timeout=json.loads(sys.argv[2])).returncode
usage = {"rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "seconds": time.perf_counter() - start}
with open(sys.argv[1], "w") as report:
    json.dump(usage, report)
sys.exit(code)
"""


def _run(argv, timeout):
    """The finished launcher and its command's {"rss_mb", "seconds"}.

    A run past `timeout` seconds (None: no limit) is killed and fails the test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "usage.json"
        launcher = [sys.executable, "-c", _LAUNCHER, str(report), json.dumps(timeout), *argv]
        proc = subprocess.run(launcher, capture_output=True, text=True, env=ENV)
        if not report.exists():
            pytest.fail(f"{argv[:4]} did not finish: {proc.stderr}")
        return proc, json.loads(report.read_text())


def _hypvol(*args, timeout):
    return _run([sys.executable, "-m", "hypvol.cli", *args], timeout)


def _python(code):
    """The JSON object that the last line of `code`'s output holds, run in a new interpreter."""
    proc, _ = _run([sys.executable, "-c", textwrap.dedent(code)], None)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "args,timeout,rss_mb",
    [
        pytest.param(("--dim", "3", "--betas", "0.5,1,2,0", "--oracle", "simplex-mc"), None, 200.0, id="simplex-mc"),
        pytest.param(("--dim", "3", "--betas=" + ",".join(["-1"] * 10), "--oracle", "lobachevsky"), 600, 100.0, id="lobachevsky-n10"),
        pytest.param(
            ("--dim", "4", "--betas=2.8,2.6,-0.5,2.1,2.2,-0.8", "--exponent", "-0.778", "--oracle", "absorption"),
            600, 100.0, id="absorption-d4",
        ),
        pytest.param(("--dim", "3", "--betas=-1,-1,-1,-1", "--oracle", "lobachevsky"), 600, 100.0, id="lobachevsky-n4"),
        pytest.param(
            ("--dim", "2", "--betas=3.146,-1,-0.967,0.574,3.358", "--exponent", "-0.113", "--samples", "200000"),
            600, 100.0, id="absorption-d2",
        ),
        pytest.param(
            ("--dim", "2", "--betas=1.408,0.975,-0.699,-1,1.215,-0.4", "--oracle", "gauss-bonnet", "--samples", "200000"),
            600, 100.0, id="gauss-bonnet-d2",
        ),
    ],
)
def test_simulate_across_sample_blocks(args, timeout, rss_mb):
    # 70,000 samples unless given: more than one sample block
    samples = () if "--samples" in args else ("--samples", "70000")
    proc, usage = _hypvol("simulate", *args, *samples, "--seed", "1", timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    z = json.loads(proc.stdout)["params"]["z_score"]
    assert abs(z) <= 5.0 and usage["rss_mb"] <= rss_mb, (z, usage)


def test_ten_thousand_ideal_points_within_ten_seconds():
    n = 10000
    proc, usage = _hypvol("hypvolume", "--dim", "2", "--betas=" + ",".join(["-1"] * n), "--method", "generic", timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert abs(rec["value"] - (n - 2) * math.pi) <= rec["abs_err_est"] and usage["seconds"] < 10.0, usage


def test_eighty_volumes_in_one_process():
    # 80 distinct d=3, n=11 volumes: the abcore table stays within its budget and the process under 90 MB
    got = _python("""
        import json, resource
        from hypvol import abcore
        from hypvol.expect import BetaSpec, expected_hyp_volume
        for k in range(80):
            expected_hyp_volume(BetaSpec(3, tuple(-0.5 + (0.37 * (11 * k + i)) % 3.3 for i in range(11))))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"rss_mb": rss_mb, "bytes": abcore._table_bytes, "budget": abcore._BUDGET}))
    """)
    assert got["rss_mb"] <= 90.0 and got["bytes"] <= got["budget"], got


def test_beta_integrals_on_new_betas_do_not_grow_memory():
    # 600 d=3, n=5 integrals on new betas, gamma_ratio_half's memo filled first
    # (a full memo only swaps entries): traced memory grows <= 0.5 MB over the last 300
    got = _python("""
        import json, tracemalloc
        from hypvol import abcore, specfun
        from hypvol.expect import BetaSpec, expected_beta_integral
        for i in range(specfun.gamma_ratio_half.cache_info().maxsize):
            specfun.gamma_ratio_half(1.0 + i / 64)
        tracemalloc.start()
        for k in range(600):
            expected_beta_integral(BetaSpec(3, tuple(-0.9 + (0.7548776662466927 * (5 * k + i)) % 4.0 for i in range(5))), 0.7)
            abcore.clear_cache()
            if k == 299:
                half = tracemalloc.get_traced_memory()[0]
        print(json.dumps({"grown": tracemalloc.get_traced_memory()[0] - half}))
    """)
    assert got["grown"] <= 0.5e6, got


def test_tight_beta_integrals_hold_their_step_tables_without_growing_memory():
    # 200 d=3, n=5 integrals on new betas at rel_tol 1e-15, abs_tol 1e-18: the a integrals refine
    # through the first step and steps 6-9, each with its cosh-power step table;
    # traced memory grows <= 0.5 MB over the last 100
    got = _python("""
        import json, tracemalloc
        from hypvol import abcore
        from hypvol.expect import BetaSpec, expected_beta_integral
        from hypvol.quad import QuadConfig
        cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-18)
        starts = set()  # the first levels of the steps whose real-line tables were asked for
        table = abcore._line_table
        abcore._line_table = lambda levels, j: starts.add(levels.start) or table(levels, j)
        tracemalloc.start()
        for k in range(200):
            expected_beta_integral(BetaSpec(3, tuple(-0.9 + (0.7548776662466927 * (5 * k + i)) % 4.0 for i in range(5))), 0.7, cfg)
            abcore.clear_cache()
            if k == 99:
                half = tracemalloc.get_traced_memory()[0]
        grown = tracemalloc.get_traced_memory()[0] - half
        print(json.dumps({"grown": grown, "starts": sorted(starts), "held": table.cache_info().currsize}))
    """)
    assert got["grown"] <= 0.5e6 and {0, 6, 7, 8, 9} <= set(got["starts"]) and got["held"] >= 5, got


def test_first_real_line_step_sees_the_cut_nodes(monkeypatch):
    # one d=5, n=6 volume: its first cosh-power call sees <= 100 of the first step's 210 nodes
    nodes = []
    kernel = abcore.cosh_pow_integral_scaled
    monkeypatch.setattr(abcore, "cosh_pow_integral_scaled", lambda beta, x: nodes.append(np.size(x)) or kernel(beta, x))
    abcore.clear_cache()
    expected_hyp_volume(BetaSpec(5, (-0.5, 0.2, 0.7, 1.3, 2.1, 2.9)))
    assert nodes and nodes[0] <= 100, nodes
