"""Command-line interface.

Subcommands: ``expect`` (expected beta integrals), ``hypvolume``
(expected hyperbolic volumes, with exact fast-path cases), ``table``
(CSV/JSON tables over a parameter range), ``simulate`` (Monte-Carlo
cross-checks with a z-score against the formula engine) and ``verify``
(the full invariant suite).

Machine-readable output: one JSON record per command on stdout, schema
{command, params{}, value, abs_err_est, exact?, method, seed?}.  When
quadrature does not converge the record is instead {command, error:
"quadrature-not-converged", message, estimate, abs_err_est}, holding
the last estimate of the integral that did not converge: a or a' as
it is, or (alpha+1) * b for a b integral.  When a subset sum leaves the
double range (``expect.NotRepresentableError``) it is {command, error:
"not-representable", message}.  Exit codes: 0 ok, 1 verification failure,
2 usage or domain error, 3 quadrature not converged or not representable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import expect, mcsim, specfun, verify
from .expect import BetaSpec, ExpectationResult
from .mcsim import McEstimate, SampleConfig
from .quad import QuadConfig, QuadratureError


def output_record(command: str, params: dict, result, seed=None) -> dict:
    """Assemble the fixed-order output record for an expectation or estimate."""
    record = {"command": command, "params": dict(params)}
    if isinstance(result, ExpectationResult):
        record["value"] = result.value
        record["abs_err_est"] = result.abs_err_est
        if result.exact is not None:
            record["exact"] = result.exact.render()
        record["method"] = (
            "exact" if result.exact is not None
            else ("quadrature-pole-path" if result.pole_path else "quadrature")
        )
    elif isinstance(result, McEstimate):
        record["value"] = result.mean
        record["abs_err_est"] = result.stderr
        record["method"] = params.get("oracle", "monte-carlo")
    else:
        raise TypeError("unsupported result type")
    if seed is not None:
        record["seed"] = seed
    return record


def render_json(record: dict) -> str:
    return json.dumps(record, allow_nan=False)  # strict JSON: no NaN or Infinity


def _parse_betas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"could not parse --betas {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise ValueError(f"could not parse --range {text!r}, expected a:b") from exc


# Below it two refinement levels agree only by chance of the last bits, so
# whether a command exits 0 or 3 would not be a property of its input.
_TOL_FLOOR = 1e-15


def _quad_config(args) -> QuadConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        return QuadConfig()
    if not tol >= _TOL_FLOOR:
        raise ValueError(f"--tol must be at least {_TOL_FLOOR:g}, what double precision can certify")
    return QuadConfig(rel_tol=tol, abs_tol=min(1e-14, tol))


def _cmd_expect(args) -> tuple[str, int]:
    spec = BetaSpec(args.dim, _parse_betas(args.betas))
    res = expect.expected_beta_integral(
        spec, args.exponent, _quad_config(args), representation=args.rep
    )
    params = {
        "dim": args.dim,
        "betas": list(spec.betas),
        "exponent": args.exponent,
        "rep": res.representation,
        "pole_path": res.pole_path,
    }
    return render_json(output_record("expect", params, res)), 0


_CASES = ("ideal3", "ideal-simplex", "polygon-beta0", "ideal2")  # the exact-family cases of hypvolume and table


def _case_result(case: str, param: int, cfg: QuadConfig | None = None) -> ExpectationResult:
    """One exact-family case; param is the dimension for ideal-simplex, else n."""
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    if case == "ideal-simplex":
        return expect.ideal_simplex_volume(param, cfg)
    if case == "polygon-beta0":
        return expect.polygon_beta0(param)
    return expect.expected_hyp_volume(BetaSpec(3 if case == "ideal3" else 2, (-1.0,) * param), cfg)


def _cmd_hypvolume(args) -> tuple[str, int]:
    if args.case is not None:
        flag = "dim" if args.case == "ideal-simplex" else "n"
        param = getattr(args, flag)
        if param is None:
            raise ValueError(f"--case {args.case} requires --{flag}")
        res = _case_result(args.case, param, _quad_config(args))
        params = {"case": args.case}
        if args.n is not None:
            params["n"] = args.n
        if args.dim is not None:
            params["dim"] = args.dim
    else:
        if args.dim is None or args.betas is None:
            raise ValueError("hypvolume needs either --case or both --dim and --betas")
        spec = BetaSpec(args.dim, _parse_betas(args.betas))
        res = expect.expected_hyp_volume(spec, _quad_config(args), method=args.method)
        params = {"dim": args.dim, "betas": list(spec.betas), "method": args.method}
    return render_json(output_record("hypvolume", params, res)), 0


def _table_rows(case: str, start: int, stop: int):
    rows = []
    for value in range(start, stop + 1):
        res = _case_result(case, value)
        rows.append((value, res.value, res.abs_err_est, res.exact.render() if res.exact else ""))
    return rows


def table_text(case: str, start: int, stop: int, fmt: str) -> str:
    if stop < start:
        raise ValueError("empty range")
    rows = _table_rows(case, start, stop)
    if fmt == "csv":
        lines = ["param,value,abs_err_est,exact"]
        for param, value, err, exact in rows:
            lines.append(f"{param},{value!r},{err!r},{exact}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return (
            json.dumps(
                [
                    {"param": p, "value": v, "abs_err_est": e, "exact": x or None}
                    for p, v, e, x in rows
                ]
            )
            + "\n"
        )
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_table(args) -> tuple[str, int]:
    start, stop = _parse_range(args.range)
    return table_text(args.case, start, stop, args.format).rstrip("\n"), 0


def _resolve_oracle(spec: BetaSpec, exponent, requested: str) -> str:
    if requested != "auto":
        return requested
    if exponent is not None:
        return "absorption"
    if spec.d == 2:
        return "gauss-bonnet"
    if spec.d == 3 and all(b == -1.0 for b in spec.betas):
        return "lobachevsky"
    if spec.d == 3 and spec.n == spec.d + 1 and all(b > -1.0 for b in spec.betas):
        return "simplex-mc"
    raise ValueError("no automatic oracle for this spec; pass --oracle explicitly")


def _cmd_simulate(args) -> tuple[str, int]:
    if args.strict and args.seed is None:
        raise ValueError("--strict requires an explicit --seed")
    seed = args.seed if args.seed is not None else 0
    spec = BetaSpec(args.dim, _parse_betas(args.betas))
    cfg = SampleConfig(seed=seed, n_samples=args.samples, streams=args.streams)
    oracle = _resolve_oracle(spec, args.exponent, args.oracle)
    if args.exponent is not None and oracle != "absorption":
        raise ValueError(f"--exponent applies only to --oracle absorption; --oracle {oracle} estimates a volume")

    if oracle == "absorption":
        if args.exponent is None:
            raise ValueError("--oracle absorption requires --exponent")
        est = mcsim.mc_absorption(spec, args.exponent, cfg)
        reference = expect.expected_beta_integral(spec, args.exponent).value
    else:  # a volume oracle; argparse's choices leave no other
        if oracle == "gauss-bonnet":
            if spec.d != 2:
                raise ValueError("--oracle gauss-bonnet requires --dim 2")
            est = mcsim.mc_hyp_area_d2(spec, cfg)
        elif oracle == "lobachevsky":
            if spec.d != 3 or any(b != -1.0 for b in spec.betas):
                raise ValueError("--oracle lobachevsky requires --dim 3 with all betas -1")
            est = mcsim.mc_ideal_polytope3_volume(spec.n, cfg)
        else:
            est = mcsim.mc_simplex_hyp_volume(spec, cfg)
        reference = expect.expected_hyp_volume(spec).value

    if oracle == "absorption" and est.stderr == 0.0:
        # each sample scores 0 or 1/c_d_beta: the per-sample sd the reference
        # implies, which stays valid when no sample hits; the record carries it
        scale = 1.0 / specfun.c_d_beta(spec.d, args.exponent)
        est = dataclasses.replace(est, stderr=math.sqrt(max(reference * (scale - reference), 0.0) / est.n))
    diff = est.mean - reference
    # with the standard error, the rounding of the mean: a sum of n samples >= 0
    # errs by less than n eps of their total, so an estimate of zero variance is not off
    noise = math.hypot(est.stderr, est.n * sys.float_info.epsilon * abs(est.mean))
    if noise > 0.0:
        z = diff / noise
    else:
        z = 0.0 if abs(diff) <= 1e-9 else math.inf
    params = {
        "dim": spec.d,
        "betas": list(spec.betas),
        "samples": args.samples,
        "streams": args.streams,
        "oracle": oracle,
        "reference": reference,
        "z_score": z if math.isfinite(z) else None,
    }
    if args.exponent is not None:
        params["exponent"] = args.exponent
    return render_json(output_record("simulate", params, est, seed=seed)), 0


def _cmd_verify(args) -> tuple[str, int]:
    results = verify.run_all(quick=args.quick)
    width = max(len(r.check_id) for r in results)
    lines = []
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        lines.append(f"[{status}] {r.check_id:<{width}}  {r.detail}")
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        lines.append("failing: " + ", ".join(r.check_id for r in results if not r.passed))
    return "\n".join(lines), (1 if failures else 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call (its set-up costs about 1 ms).

    parse_args keeps no state between calls, and the subcommands look up
    what they call at call time.
    """
    parser = argparse.ArgumentParser(
        prog="hypvol",
        description="Expected hyperbolic volumes and beta integrals of random beta polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="expected beta integral of a random beta polytope")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--betas", type=str, required=True, help="comma-separated list, each >= -1")
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--rep", choices=("upper", "lower", "auto"), default="auto")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_cmd_expect)

    p = sub.add_parser("hypvolume", help="expected hyperbolic volume")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--betas", type=str, default=None)
    p.add_argument("--case", choices=_CASES, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", choices=("auto", "generic"), default="auto")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_cmd_hypvolume)

    p = sub.add_parser("table", help="tables of exact families over a parameter range")
    p.add_argument("--case", choices=_CASES, required=True)
    p.add_argument("--range", type=str, required=True, help="inclusive range a:b")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("simulate", help="Monte-Carlo cross-check against the formula engine")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--betas", type=str, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument(
        "--oracle",
        choices=("auto", "absorption", "gauss-bonnet", "lobachevsky", "simplex-mc"),
        default="auto",
    )
    p.add_argument("--exponent", type=float, default=None)
    p.add_argument("--strict", action="store_true", help="require an explicit --seed")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suites of all modules")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    p.set_defaults(run=_cmd_verify)

    return parser


def _merge_betas(argv: list[str]) -> list[str]:
    """Join '--betas -1,-1,...' into one token so argparse accepts the dash."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--betas" and i + 1 < len(argv):
            out.append(f"--betas={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_betas(list(sys.argv[1:] if argv is None else argv)))
    try:
        text, code = args.run(args)
    except expect.NotRepresentableError as exc:
        record = {"command": args.command, "error": "not-representable", "message": str(exc)}
        sys.stdout.write(render_json(record) + "\n")
        return 3
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QuadratureError as exc:
        est = exc.estimate
        record = {
            "command": args.command,
            "error": "quadrature-not-converged",
            "message": str(exc),
            "estimate": None if est is None else est.value,
            "abs_err_est": None if est is None else est.abs_err_est,
        }
        sys.stdout.write(render_json(record) + "\n")
        return 3
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
