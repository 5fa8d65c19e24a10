"""Seeded op plans for the three workloads, op execution and reference routes.

An op is one public call into hypvol, described by a JSON-serialisable
dict.  ``plan(workload, seed, rounds)`` returns a run's op list: rounds
of a fixed mix of op shapes whose inputs are drawn from ``random.Random``
seeded by (workload, seed, round).  The number of rounds is the number
that fills the run's seconds at the speed the rounds had when the
benchmark was defined (``ROUND_SECONDS``), so every run of a workload
executes the same shapes in the same order whatever the host's speed,
and ``digest`` of the list proves that two runs executed the same ops.

Planning needs only the standard library.  ``execute`` and
``reference`` take the imported ``hypvol`` package as an argument; they
run in the worker processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

WORKLOADS = ("distinct-betas", "sweep", "mc-oracles")

MC_CASES = (
    "absorption-d2",
    "absorption-d3",
    "absorption-d4",
    "gauss-bonnet-d2",
    "lobachevsky-n6",
    "lobachevsky-n10",
    "lobachevsky-n12",
    "simplex-mc-d3",
)

# seconds of one round at reference host speed when the benchmark was
# defined (2-core Xeon VM, Python 3.11, numpy 2.4); fixes how many
# rounds a run executes
ROUND_SECONDS = {"distinct-betas": 4.2, "sweep": 2.75, "mc-oracles": 0.54}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# -- distinct-betas --------------------------------------------------------
# (ops per round, d, n, kind).  kind is "volume", "beta" (exponent drawn
# from the domain) or "pole" (exponent exactly on a negative integer).
# Sizes are capped so one op stays under ~1.5 s: the pole path at d=2
# costs ~4 s at n=7 and ~17 s at n=9, a d=3 n=7 volume 2-3 s.
_DISTINCT_FIXED = (
    # ~30-130 ms each
    (2, 2, 3, "volume"), (2, 2, 3, "beta"), (1, 2, 4, "volume"), (1, 2, 4, "beta"), (1, 2, 4, "pole"),
    (1, 2, 5, "volume"), (1, 2, 5, "beta"),
    (2, 3, 4, "volume"), (2, 3, 4, "beta"), (2, 3, 4, "pole"),
    (2, 4, 5, "volume"), (2, 4, 5, "beta"), (2, 4, 5, "pole"),
    (2, 5, 6, "volume"), (2, 5, 6, "beta"), (2, 5, 6, "pole"),
    # ~0.2-0.4 s each
    (1, 2, 5, "pole"), (1, 2, 6, "volume"), (1, 2, 7, "volume"),
    (1, 3, 5, "volume"), (1, 3, 5, "pole"), (1, 4, 6, "volume"), (1, 4, 6, "pole"),
)
# the largest shapes (0.5-1.5 s), one per round in this order
_DISTINCT_LARGE = (
    (4, 7, "volume"), (3, 6, "pole"), (3, 7, "beta"), (5, 7, "volume"), (3, 6, "volume"),
    (4, 7, "beta"), (5, 7, "beta"), (3, 6, "beta"), (5, 7, "pole"),
)

# -- sweep ----------------------------------------------------------------
# per round: (d, pool sizes cycled by round, first kind); pools of 3
# values at d=3/4 would cost 2.5-5 s per sweep, so those cycle 1-2
_SWEEPS = ((2, (1, 2, 3), "volume"), (2, (2, 3, 1), "beta"), (3, (1, 2), "beta"), (4, (2, 1), "volume"))
_SWEEP_SPAN = 8  # n runs from d+1 to d+8
_TABLE_CASES = ("ideal3", "ideal-simplex", "polygon-beta0", "ideal2")
_TABLE_RANGES = {
    "ideal3": (4, (6, 12)),
    "ideal-simplex": (2, (3, 5)),
    "polygon-beta0": (3, (4, 7)),
    "ideal2": (3, (4, 10)),
}

# -- mc-oracles -------------------------------------------------------------
# samples per op, sized so each op takes ~60 ms today
MC_SAMPLES = {
    "absorption-d2": 50000,
    "absorption-d3": 16000,
    "absorption-d4": 500,
    "gauss-bonnet-d2": 600,
    "lobachevsky-n6": 10000,
    "lobachevsky-n10": 1200,
    "lobachevsky-n12": 12,
    "simplex-mc-d3": 2500,
}
_MC_SHAPE = {  # case -> (d, n)
    "absorption-d2": (2, 5),
    "absorption-d3": (3, 6),
    "absorption-d4": (4, 6),
    "gauss-bonnet-d2": (2, 6),
    "lobachevsky-n6": (3, 6),
    "lobachevsky-n10": (3, 10),
    "lobachevsky-n12": (3, 12),
    "simplex-mc-d3": (3, 4),
}
MC_Z_LIMIT = 5.0


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def draw_beta(rng: random.Random) -> float:
    """One point parameter from the documented domain beta >= -1.

    10% ideal points (exactly -1), 5% near-ideal points (-1 + 10**u,
    u uniform in [-3, -1]), the rest uniform on [-1, 4].
    """
    u = rng.random()
    if u < 0.10:
        return -1.0
    if u < 0.15:
        return round(-1.0 + 10.0 ** rng.uniform(-3.0, -1.0), 4)
    return round(rng.uniform(-1.0, 4.0), 3)


def _distinct_betas(rng: random.Random, n: int) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        b = draw_beta(rng)
        if b not in out:
            out.append(b)
    return out


def _exponent(rng: random.Random, d: int) -> float:
    """An exponent uniform on the open domain (-(d+1)/2, 3]."""
    lo = -0.5 * (d + 1)
    while True:
        e = round(rng.uniform(lo, 3.0), 3)
        if e > lo:
            return e


def _pole_exponent(rng: random.Random, d: int) -> float:
    """A negative integer inside the domain, which takes the pole path."""
    ks = [k for k in range(1, d + 1) if -k > -0.5 * (d + 1)]
    return -float(rng.choice(ks))


def _query(rng: random.Random, d: int, betas: list[float], kind: str) -> dict:
    if kind == "volume":
        return {"kind": "volume", "d": d, "betas": betas}
    exponent = _pole_exponent(rng, d) if kind == "pole" else _exponent(rng, d)
    return {"kind": "beta", "d": d, "betas": betas, "exponent": exponent}


def _round_distinct(rng: random.Random, r: int) -> list[dict]:
    shapes = [(d, n, kind) for count, d, n, kind in _DISTINCT_FIXED for _ in range(count)]
    shapes.append(_DISTINCT_LARGE[r % len(_DISTINCT_LARGE)])
    rng.shuffle(shapes)
    return [_query(rng, d, _distinct_betas(rng, n), kind) for d, n, kind in shapes]


def _table_op(rng: random.Random, case: str) -> dict:
    start, (lo, hi) = _TABLE_RANGES[case]
    stop = rng.randint(lo, hi)
    return {"kind": "table", "case": case, "range": f"{start}:{stop}", "format": rng.choice(("csv", "json"))}


def _round_sweep(rng: random.Random, r: int) -> list[dict]:
    """Four sweeps, each followed by an exact-family table.

    A sweep keeps one pool of beta values and one query kind while n
    grows; point i takes pool value i mod len(pool), so the classes are
    few and their multiplicities large.  Ops of one sweep share a session
    id: the abcore cache is cleared when the session changes, as a fresh
    user session would start cold.
    """
    ops = []
    for j, (d, sizes, first_kind) in enumerate(_SWEEPS):
        size = sizes[r % len(sizes)]
        pool: list[float] = []
        while len(pool) < size:
            b = draw_beta(rng)
            if b not in pool:
                pool.append(b)
        kind = first_kind if r % 2 == 0 else ("beta" if first_kind == "volume" else "volume")
        exponent = _exponent(rng, d)
        session = r * len(_SWEEPS) + j
        for n in range(d + 1, d + _SWEEP_SPAN + 1):
            op = {"kind": kind, "d": d, "betas": [pool[i % size] for i in range(n)]}
            if kind == "beta":
                op["exponent"] = exponent
            op["session"] = session
            ops.append(op)
        ops.append(_table_op(rng, _TABLE_CASES[j]))
    return ops


def mc_specs() -> dict:
    """The fixed spec of each Monte-Carlo case; runs differ in sampling seeds."""
    rng = _rng("mc-oracles", 0, "specs")
    specs = {}
    for case in MC_CASES:
        d, n = _MC_SHAPE[case]
        spec = {"d": d}
        if case.startswith("lobachevsky"):
            spec["betas"] = [-1.0] * n
        elif case.startswith("simplex-mc"):
            # interior points only; near-ideal interior points make the
            # (1-|x|^2)**-2 integrand heavy-tailed
            spec["betas"] = [round(rng.uniform(-0.5, 3.0), 3) for _ in range(n)]
        else:
            spec["betas"] = [draw_beta(rng) for _ in range(n)]
        if case.startswith("absorption"):
            spec["exponent"] = round(rng.uniform(-0.9, 2.0), 3)
        specs[case] = spec
    return specs


def _round_mc(rng: random.Random, specs: dict) -> list[dict]:
    cases = list(MC_CASES)
    rng.shuffle(cases)
    return [
        {"kind": "mc", "case": c, **specs[c], "samples": MC_SAMPLES[c], "seed": rng.randrange(2**31)}
        for c in cases
    ]


def plan(workload: str, seed: int, rounds: int) -> list[dict]:
    """The op list of a run: ``rounds`` rounds, ids in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    specs = mc_specs() if workload == "mc-oracles" else None
    ops = []
    for r in range(rounds):
        rng = _rng(workload, seed, r)
        if workload == "distinct-betas":
            batch = _round_distinct(rng, r)
        elif workload == "sweep":
            batch = _round_sweep(rng, r)
        else:
            batch = _round_mc(rng, specs)
        for op in batch:
            op["round"] = r
            op["id"] = len(ops)
            ops.append(op)
    return ops


def digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def mc_probe_ops(seed: int, repeats: int) -> list[dict]:
    """``repeats`` rounds of the eight Monte-Carlo cases, as in mc-oracles."""
    specs = mc_specs()
    ops = []
    for r in range(repeats):
        for op in _round_mc(_rng("mc-probe", seed, r), specs):
            ops.append({**op, "round": r, "id": len(ops)})
    return ops


# -- execution ---------------------------------------------------------------

def _spec(hv, op):
    return hv.expect.BetaSpec(op["d"], op["betas"])


def _expectation(res) -> dict:
    return {
        "value": res.value,
        "err": res.abs_err_est,
        "rep": res.representation,
        "pole_path": res.pole_path,
        "exact": res.exact is not None,
    }


def _parse_table(text: str, fmt: str) -> list[list[float]]:
    if fmt == "json":
        return [[row["param"], row["value"], row["abs_err_est"]] for row in json.loads(text)]
    rows = []
    for line in text.strip().splitlines()[1:]:
        param, value, err, _exact = line.split(",", 3)
        rows.append([int(param), float(value), float(err)])
    return rows


def execute(hv, op: dict) -> dict:
    """Run one op through the public API; the result is JSON-serialisable."""
    kind = op["kind"]
    if kind == "volume":
        return _expectation(hv.expect.expected_hyp_volume(_spec(hv, op)))
    if kind == "beta":
        return _expectation(hv.expect.expected_beta_integral(_spec(hv, op), op["exponent"]))
    if kind == "table":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hv.cli.main(["table", "--case", op["case"], "--range", op["range"], "--format", op["format"]])
        if code != 0:
            raise RuntimeError(f"hypvol table exited with {code}")
        return {"rows": _parse_table(out.getvalue(), op["format"])}
    if kind == "mc":
        return _mc_execute(hv, op)
    raise ValueError(f"unknown op kind {kind!r}")


def _mc_execute(hv, op: dict) -> dict:
    mcsim = hv.mcsim
    cfg = mcsim.SampleConfig(seed=op["seed"], n_samples=op["samples"])
    case = op["case"]
    if case.startswith("absorption"):
        est = mcsim.mc_absorption(_spec(hv, op), op["exponent"], cfg)
    elif case.startswith("gauss-bonnet"):
        est = mcsim.mc_hyp_area_d2(_spec(hv, op), cfg)
    elif case.startswith("lobachevsky"):
        est = mcsim.mc_ideal_polytope3_volume(len(op["betas"]), cfg)
    else:
        est = mcsim.mc_simplex_hyp_volume(_spec(hv, op), cfg)
    return {"mean": est.mean, "stderr": est.stderr, "n": est.n, "resampled": est.resampled}


# -- references ----------------------------------------------------------------

_OTHER_REP = {"upper": "lower", "lower": "upper"}
_MAX_CLASS_RATIO = 4  # other representation only while it costs <= 4x the classes


def _tight(hv):
    return hv.quad.QuadConfig(rel_tol=1e-13, abs_tol=1e-15, max_level=13)


def _class_count(hv, spec, rep: str) -> int:
    d, n = spec.d, spec.n
    cards = range(d + 1, n + 1, 2) if rep == "upper" else range(d - 1, -1, -2)
    return len(hv.expect.enumerate_classes(spec, cards))


def _query_call(hv, op: dict):
    spec = _spec(hv, op)
    if op["kind"] == "volume":
        return spec, lambda **kw: hv.expect.expected_hyp_volume(spec, **kw)
    return spec, lambda **kw: hv.expect.expected_beta_integral(spec, op["exponent"], **kw)


def _query_routes(hv, op: dict, result: dict) -> list[tuple[str, callable]]:
    """Second routes for a volume or beta-integral query, best first.

    1. Exact results: the generic subset-sum path.
    2. The other representation, when the engine has two for this
       query and it needs at most 4x the subset classes of the one the
       engine chose.
    3. The same query with closed_forms=False at a tighter QuadConfig,
       in the chosen representation and then in the other one.
    """
    spec, call = _query_call(hv, op)
    routes = []
    if result["exact"]:
        routes.append(("generic", lambda: call(method="generic")))
    rep = result["rep"]
    other = _OTHER_REP[rep]
    two_reps = not result["pole_path"] and (op["kind"] == "beta" or spec.d % 2 == 0)
    if two_reps and _class_count(hv, spec, other) <= _MAX_CLASS_RATIO * max(1, _class_count(hv, spec, rep)):
        routes.append((f"rep={other}", lambda: call(representation=other)))
    tight = _tight(hv)
    kw_rep = {"representation": rep} if two_reps else {}
    routes.append(("tight", lambda: call(cfg=tight, closed_forms=False, **kw_rep)))
    if two_reps:
        routes.append((f"tight,rep={other}", lambda: call(cfg=tight, closed_forms=False, representation=other)))
    return routes


def _first_route(routes) -> dict:
    errors = []
    for name, fn in routes:
        try:
            res = fn()
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            errors.append(f"{name}: {type(exc).__name__}")
            continue
        return {"route": name, "value": res.value, "err": res.abs_err_est}
    return {"route": None, "errors": errors}


def _table_reference(hv, case: str, param: int) -> dict:
    expect = hv.expect
    if case == "ideal3":
        return {"route": "via-sum", "value": expect.ideal_polytope3_via_sum(param).evaluate(), "err": 0.0}
    if case == "ideal2":
        return {"route": "formula", "value": (param - 2) * math.pi, "err": 0.0}
    if case == "ideal-simplex":
        spec = expect.BetaSpec(param, (-1.0,) * (param + 1))
        return _first_route([("generic", lambda: expect.expected_hyp_volume(spec, method="generic"))])
    spec = expect.BetaSpec(2, (0.0,) * param)  # polygon-beta0: uniform points in the disk
    return _first_route([("engine", lambda: expect.expected_hyp_volume(spec))])


def reference(hv, op: dict, result: dict, mc_cache: dict) -> dict:
    """Reference for one op that returned a result; computed untimed."""
    kind = op["kind"]
    if kind in ("volume", "beta"):
        return _first_route(_query_routes(hv, op, result))
    if kind == "table":
        return {"rows": [_table_reference(hv, op["case"], int(row[0])) for row in result["rows"]]}
    key = op["case"]
    if key not in mc_cache:
        if key.startswith("lobachevsky"):
            n = len(op["betas"])
            mc_cache[key] = {"route": "exact", "value": hv.expect.ideal_polytope3(n).evaluate(), "err": 0.0}
        else:
            query = {**op, "kind": "beta" if key.startswith("absorption") else "volume"}
            call = _query_call(hv, query)[1]
            ref = _first_route(
                [("engine", call)] + [(f"rep={rep}", lambda rep=rep: call(representation=rep)) for rep in _OTHER_REP]
            )
            if key.startswith("absorption") and ref["route"] is not None:
                # each sample scores 0 or 1/c_d_beta: the per-sample sd the
                # reference implies, which stays valid when no sample hits
                scale = 1.0 / hv.specfun.c_d_beta(op["d"], op["exponent"])
                ref["null_sd"] = math.sqrt(max(ref["value"] * (scale - ref["value"]), 0.0))
            mc_cache[key] = ref
    return mc_cache[key]


# -- checking -------------------------------------------------------------------

# The README's numerical notes: the b integral at first argument alpha is
# accurate for alpha + 1 >~ 0.05.
LOW_ACCURACY_MARGIN = 0.05


def low_accuracy(op: dict) -> bool:
    """Whether the query needs a b integral with 0 < alpha + 1 < 0.05.

    alpha + 1 is 2*beta_i + 2 for a single d=2 point parameter (the
    lower representation of d=2 volumes) and 2*exponent + d + 1 when a
    beta integral's class has no inside points; larger d and larger
    classes only add to it.  Monte-Carlo ops inherit this from the
    engine query their reference uses.
    """
    if op["kind"] == "table":
        return False
    margin = LOW_ACCURACY_MARGIN
    if op["d"] == 2 and any(0.0 < 2.0 * (b + 1.0) < margin for b in op["betas"]):
        return True
    exponent = op.get("exponent")
    return exponent is not None and 2.0 * exponent + op["d"] + 1.0 < margin


_ULPS = 8 * 2.0**-52
# QuadConfig's default rel_tol: results closer than this to their
# reference are right to the engine's own target even when their error
# bar is too small
MATERIAL_REL = 1e-12


def _compare(value: float, err: float, ref: dict) -> str | None:
    """None within both error bars, else "error-bar" or, beyond MATERIAL_REL, "wrong"."""
    diff = abs(value - ref["value"])
    scale = max(abs(value), abs(ref["value"]))
    if diff <= err + ref["err"] + _ULPS * scale:
        return None
    return "wrong" if diff > MATERIAL_REL * scale else "error-bar"


def check(op: dict, result: dict, ref: dict) -> tuple[str, str] | None:
    """None when the result agrees with its reference, else (status, detail).

    status is "wrong" when the result lies outside the combined error
    bars and differs by more than MATERIAL_REL (|z| > 5 for Monte
    Carlo), "error-bar" when it lies outside them by less, and
    "unverified" when every reference route raised.  All three are
    failed ops.
    """
    if op["kind"] == "table":
        for row, row_ref in zip(result["rows"], ref["rows"]):
            if row_ref.get("route") is None:
                return "unverified", f"row {row[0]}: " + "; ".join(row_ref.get("errors", []))
            status = _compare(row[1], row[2], row_ref)
            if status:
                return status, f"row {row[0]}: {row[1]!r} vs {row_ref['value']!r}"
        return None
    if ref.get("route") is None:
        return "unverified", "; ".join(ref.get("errors", []))
    if op["kind"] == "mc":
        diff = result["mean"] - ref["value"]
        stderr = max(result["stderr"], ref.get("null_sd", 0.0) / math.sqrt(result["n"]))
        if stderr > 0.0:
            z = diff / math.hypot(stderr, ref["err"])
        else:
            z = 0.0 if abs(diff) <= ref["err"] else math.inf
        return None if abs(z) <= MC_Z_LIMIT else ("wrong", f"z = {z:.2f}")
    status = _compare(result["value"], result["err"], ref)
    if status:
        return status, f"{result['value']!r} vs {ref['value']!r} ({ref['route']})"
    return None
