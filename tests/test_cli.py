"""Command-line surface: schemas, exit codes, determinism of output."""

import json
import math

import pytest

from hypvol import cli, specfun
from hypvol.mcsim import McEstimate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpect:
    def test_ideal_tetra_euclidean_volume(self, capsys):
        code, out, _ = run(capsys, "expect", "--dim", "3", "--betas", "-1,-1,-1,-1", "--exponent", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["command"] == "expect"
        assert rec["value"] > 0.0
        assert rec["value"] == pytest.approx(4.0 * math.pi / 105.0, abs=1e-10)

    def test_pole_path_flag(self, capsys):
        code, out, _ = run(capsys, "expect", "--dim", "2", "--betas", "0,0,0", "--exponent", "-1")
        assert code == 0
        rec = json.loads(out)
        assert rec["params"]["pole_path"] is True

    def test_near_hyperbolic_limit(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--dim", "3", "--betas", "-1,-1,-1,-1", "--exponent", "-1.99"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] < math.pi / 6
        assert rec["value"] == pytest.approx(math.pi / 6, abs=0.01)

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "expect", "--dim", "2", "--betas", "0,0,0", "--exponent", "-2")
        assert code == 2
        assert out == "" and "error" in err

    def test_not_representable_record(self, capsys):
        # the upper representation of 1100 points has multiplicities C(1100, k) beyond the float range
        code, out, err = run(capsys, "expect", "--dim", "3", "--betas=" + ",".join(["2"] * 1100), "--exponent", "0.5", "--rep", "upper")
        assert code == 3 and err == "" and "Infinity" not in out
        rec = json.loads(out)
        assert list(rec) == ["command", "error", "message"]
        assert rec["command"] == "expect" and rec["error"] == "not-representable" and "multiplicity" in rec["message"]

    def test_non_finite_exponent_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "expect", "--dim", "2", "--betas", "0,0,0", "--exponent", "inf")
        assert code == 2
        assert out == "" and "requires a finite beta" in err


class TestHypVolume:
    def test_exact_cases(self, capsys):
        code, out, _ = run(capsys, "hypvolume", "--case", "ideal3", "--n", "8")
        rec = json.loads(out)
        assert code == 0 and rec["exact"] == "197/140*pi"
        code, out, _ = run(capsys, "hypvolume", "--case", "ideal-simplex", "--dim", "5")
        rec = json.loads(out)
        assert code == 0 and rec["exact"] == "943/942480*pi^2"
        code, out, _ = run(capsys, "hypvolume", "--case", "polygon-beta0", "--n", "3")
        rec = json.loads(out)
        assert code == 0 and rec["exact"] == "pi - 128/15*pi^-1"

    def test_exact_field_matches_value(self, capsys):
        for args in (
            ("hypvolume", "--case", "ideal3", "--n", "6"),
            ("hypvolume", "--case", "polygon-beta0", "--n", "4"),
            ("hypvolume", "--case", "ideal2", "--n", "5"),
        ):
            _, out, _ = run(capsys, *args)
            rec = json.loads(out)
            value = rec["value"]
            total = 0.0
            for signed_term in rec["exact"].replace(" - ", " +-").split(" +"):
                term = signed_term.strip()
                if "*pi^" in term:
                    coeff, power = term.split("*pi^")
                elif term.endswith("*pi"):
                    coeff, power = term[:-3], 1
                elif term.endswith("pi"):
                    coeff, power = term[:-2] + "1", 1
                else:
                    coeff, power = term, 0
                num, _, den = coeff.partition("/")
                total += float(num) / float(den or 1) * math.pi ** int(power)
            assert total == pytest.approx(value, abs=max(rec["abs_err_est"], 1e-12))

    def test_generic_spec(self, capsys):
        code, out, _ = run(capsys, "hypvolume", "--dim", "2", "--betas", "0,0,0")
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] == pytest.approx(math.pi - 128.0 / (15.0 * math.pi), abs=1e-9)
        # --method generic through both parities: six ideal points in d=3 on the pole path within
        # its bar of 43 pi/60; ideal d=4 and d=5 simplices within the combined bars of --case ideal-simplex
        code, out, _ = run(capsys, "hypvolume", "--dim", "3", "--betas=" + ",".join(["-1"] * 6), "--method", "generic")
        rec = json.loads(out)
        assert code == 0 and rec["method"] == "quadrature-pole-path"
        assert abs(rec["value"] - 43.0 * math.pi / 60.0) <= rec["abs_err_est"]
        for d in (4, 5):
            code, out, _ = run(capsys, "hypvolume", "--dim", str(d), "--betas=" + ",".join(["-1"] * (d + 1)), "--method", "generic")
            generic = json.loads(out)
            assert code == 0 and generic["method"] == ("quadrature-pole-path" if d % 2 else "quadrature")
            code, out, _ = run(capsys, "hypvolume", "--case", "ideal-simplex", "--dim", str(d))
            case = json.loads(out)
            assert code == 0 and abs(generic["value"] - case["value"]) <= generic["abs_err_est"] + case["abs_err_est"], d

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "hypvolume", "--case", "ideal3")
        assert code == 2 and "requires --n" in err

    def test_non_finite_beta_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "hypvolume", "--dim", "2", "--betas", "nan,0,0")
        assert code == 2
        assert out == "" and "every beta parameter must be finite" in err

    def test_parameter_beyond_the_kernels_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "hypvolume", "--dim", "2", "--betas", "1e9,0,0")
        assert code == 2
        assert out == "" and err.startswith("error:") and "below 1024" in err

    @pytest.mark.parametrize("n", [621, 622])
    def test_ideal_polygons_generic_exit_0(self, capsys, n):
        # d=2 ideal points, generic path: once exit 3, as the constants' product was subnormal at 621
        # and P = pi**621 was inf at 622; the normalized class terms are O(1) at every n
        code, out, err = run(capsys, "hypvolume", "--dim", "2", "--betas=" + ",".join(["-1"] * n), "--method", "generic")
        rec = json.loads(out)
        assert code == 0 and err == "" and "exact" not in rec
        assert abs(rec["value"] - (n - 2) * math.pi) <= rec["abs_err_est"] <= 1e-10

    def test_large_exponent(self, capsys):
        # Gamma(beta + 1) alone overflows from beta ~ 171; the prefactor is one quotient
        code, out, _ = run(capsys, "expect", "--dim", "3", "--betas=-1,-1,-1,-1,-1", "--exponent", "200")
        rec = json.loads(out)
        assert code == 0 and math.isfinite(rec["value"]) and 0.0 < rec["abs_err_est"] <= 1e-12 * rec["value"]

    def test_quadrature_failure_record(self, capsys, monkeypatch):
        from hypvol import expect
        from hypvol.quad import QuadratureError, ValueWithError

        def unconverged(*args, **kwargs):
            raise QuadratureError("tanh-sinh: no convergence", ValueWithError(1.25, 0.5, "tanh-sinh"))

        monkeypatch.setattr(expect, "expected_hyp_volume", unconverged)
        code, out, err = run(capsys, "hypvolume", "--dim", "2", "--betas", "-0.999,-0.999,-0.999")
        assert code == 3 and err == ""
        rec = json.loads(out)
        assert rec == {
            "command": "hypvolume",
            "error": "quadrature-not-converged",
            "message": "tanh-sinh: no convergence",
            "estimate": 1.25,
            "abs_err_est": 0.5,
        }

    @pytest.mark.parametrize("betas,dim", [(",".join(["-0.99"] * 9), "2"), (",".join(["-0.8"] * 8), "2")])
    def test_unconverged_b_integral_record(self, capsys, monkeypatch, betas, dim):
        # at max_level=3 a b integral of these queries cannot converge: the record holds
        # the message, last estimate and bar of the error the library raises for the query
        from hypvol import expect
        from hypvol.quad import QuadConfig, QuadratureError

        cfg = QuadConfig(max_level=3)
        with pytest.raises(QuadratureError) as info:
            expect.expected_hyp_volume(expect.BetaSpec(int(dim), cli._parse_betas(betas)), cfg)
        assert str(info.value).startswith("tanh-sinh:")
        monkeypatch.setattr(cli, "_quad_config", lambda args: cfg)
        code, out, err = run(capsys, "hypvolume", "--dim", dim, f"--betas={betas}")
        assert code == 3 and err == ""
        assert json.loads(out) == {
            "command": "hypvolume",
            "error": "quadrature-not-converged",
            "message": str(info.value),
            "estimate": info.value.estimate.value,
            "abs_err_est": info.value.estimate.abs_err_est,
        }

    def test_b_integral_converging_below_double_precision(self, capsys):
        # a tolerance below the 1e-15 floor is a usage error; at the floor the value
        # lies within the combined bars of the default run
        args = ("hypvolume", "--dim", "2", "--betas=-0.99,-0.99,-0.99,-0.99,-0.99")
        code, out, err = run(capsys, *args, "--tol", "1e-17")
        assert code == 2 and out == "" and err.startswith("error: --tol must be at least 1e-15")
        code, out, err = run(capsys, *args, "--tol", "1e-15")
        assert code == 0 and err == ""
        tight = json.loads(out)
        code, out, _ = run(capsys, *args)
        assert code == 0
        default = json.loads(out)
        assert abs(tight["value"] - default["value"]) <= tight["abs_err_est"] + default["abs_err_est"]


class TestTable:
    def test_ideal3_range(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "ideal3", "--range", "4:8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,value,abs_err_est,exact"
        assert len(lines) == 6
        assert lines[1].startswith("4,") and lines[1].endswith("1/6*pi")
        assert lines[5].endswith("197/140*pi")

    def test_simplex_range(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "ideal-simplex", "--range", "2:5")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 5
        assert lines[2].endswith("1/6*pi")
        assert lines[4].endswith("943/942480*pi^2")
        v2 = float(lines[1].split(",")[1])
        assert v2 == pytest.approx(math.pi, abs=1e-9)
        # exact for odd d; d=2 and d=4 within their bars of pi and 4 pi^2/3 - 86528/6615
        code, out, _ = run(capsys, "table", "--case", "ideal-simplex", "--range", "2:9", "--format", "json")
        table = json.loads(out)
        rows = {r["param"]: r for r in table}
        assert code == 0 and len(table) == 8 and sorted(rows) == list(range(2, 10))
        assert all(rows[d]["exact"] is not None for d in range(3, 10, 2))
        for d, closed in ((2, math.pi), (4, 4.0 * math.pi**2 / 3.0 - 86528.0 / 6615.0)):
            assert abs(rows[d]["value"] - closed) <= rows[d]["abs_err_est"], d

    def test_polygon_range(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "polygon-beta0", "--range", "3:6")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 5
        code, out, _ = run(capsys, "table", "--case", "polygon-beta0", "--range", "3:12", "--format", "json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == 10 and all(r["exact"] is not None for r in rows)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "ideal3", "--range", "4:5", "--format", "json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == 2 and rows[0]["param"] == 4

    def test_empty_range(self, capsys):
        code, _, err = run(capsys, "table", "--case", "ideal3", "--range", "8:4")
        assert code == 2 and "empty range" in err

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "table", "--case", "ideal3", "--range", "4:8")
        _, out2, _ = run(capsys, "table", "--case", "ideal3", "--range", "4:8")
        assert out1 == out2


class TestSimulate:
    def test_lobachevsky_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dim", "3", "--betas", "-1,-1,-1,-1",
            "--oracle", "lobachevsky", "--samples", "20000", "--seed", "7",
        )
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["params"]["z_score"]) <= 3.0
        assert rec["seed"] == 7

    def test_gauss_bonnet_zero_variance(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dim", "2", "--betas", "-1,-1,-1,-1,-1",
            "--samples", "500", "--seed", "3",
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["params"]["oracle"] == "gauss-bonnet"
        assert rec["value"] == pytest.approx(3.0 * math.pi, abs=1e-9)

    def test_z_score_is_strict_json(self, capsys, monkeypatch):
        # 20 samples without a hit have a sample stderr of 0: the noise is then the one the
        # reference implies, the record's bar too, and a z that is still not finite is written as null
        def strict(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text}"))

        args = ("simulate", "--dim", "4", "--betas=2.8,2.6,-0.5,2.1,2.2,-0.8", "--exponent", "-0.778", "--samples", "20")
        code, out, _ = run(capsys, *args, "--seed", "0")
        rec = strict(out)
        ref = rec["params"]["reference"]
        implied = math.sqrt(ref * (1.0 / specfun.c_d_beta(4, -0.778) - ref) / 20)
        assert code == 0 and rec["value"] == 0.0 and math.isfinite(rec["params"]["z_score"])
        assert rec["abs_err_est"] == implied and abs(rec["value"] - ref) <= rec["abs_err_est"]
        monkeypatch.setattr(cli.mcsim, "mc_hyp_area_d2", lambda spec, cfg: McEstimate(0.0, 0.0, cfg.n_samples))
        code, out, _ = run(capsys, "simulate", "--dim", "2", "--betas", "-1,-1,-1,-1,-1", "--samples", "500", "--seed", "3")
        assert code == 0 and strict(out)["params"]["z_score"] is None

    def test_deterministic_bytes(self, capsys):
        args = (
            "simulate", "--dim", "2", "--betas", "0,0,0",
            "--samples", "5000", "--seed", "5", "--exponent", "0",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_strict_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--dim", "2", "--betas", "0,0,0", "--samples", "10", "--strict",
            "--exponent", "0",
        )
        assert code == 2 and "--seed" in err

    def test_oracle_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--dim", "3", "--betas", "0,0,0,0",
            "--oracle", "gauss-bonnet", "--samples", "10", "--seed", "1",
        )
        assert code == 2 and "gauss-bonnet" in err

    @pytest.mark.parametrize("oracle", ["gauss-bonnet", "lobachevsky"])
    def test_exponent_with_volume_oracle(self, capsys, oracle):
        code, out, err = run(
            capsys,
            "simulate", "--dim", "2" if oracle == "gauss-bonnet" else "3", "--betas", "-1,-1,-1,-1", "--oracle", oracle,
            "--exponent", "0.5", "--samples", "100", "--seed", "1",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "--exponent" in err

    def test_exponent_with_auto_picks_absorption(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "2", "--betas", "-1,-1,-1,-1", "--exponent", "0.5", "--samples", "100", "--seed", "1",
        )
        rec = json.loads(out)
        assert code == 0 and rec["params"]["oracle"] == "absorption" and rec["params"]["exponent"] == 0.5

    @pytest.mark.parametrize(
        "betas,oracle", [("-1,-1,-1,-1,-1", "lobachevsky"), ("0,0.5,1,2", "simplex-mc")]
    )
    def test_auto_volume_oracle_in_d3(self, capsys, betas, oracle):
        code, out, _ = run(capsys, "simulate", "--dim", "3", "--betas", betas, "--samples", "200", "--seed", "1")
        rec = json.loads(out)
        assert code == 0 and rec["params"]["oracle"] == oracle and rec["method"] == oracle
        assert math.isfinite(rec["params"]["z_score"]) and rec["params"]["reference"] > 0.0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--dim", "4", "--betas", "0,0,0,0,0"), "no automatic oracle"),
            (("--dim", "2", "--betas", "0,0,0", "--oracle", "absorption"), "--oracle absorption requires --exponent"),
            (("--dim", "3", "--betas", "-1,-1,-1,0", "--oracle", "lobachevsky"), "--oracle lobachevsky requires --dim 3"),
        ],
    )
    def test_oracle_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "simulate", *argv, "--samples", "10", "--seed", "1")
        assert code == 2 and out == "" and err.startswith("error:") and message in err


class TestOutputRecord:
    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "hypvolume", "--case", "ideal3", "--n", "6")
        text = out.strip()
        assert json.dumps(json.loads(text)) == text

    def test_record_key_order(self, capsys):
        _, out, _ = run(capsys, "hypvolume", "--case", "ideal3", "--n", "6")
        keys = list(json.loads(out).keys())
        assert keys == ["command", "params", "value", "abs_err_est", "exact", "method"]


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_injected_failure_exits_one(self, capsys, monkeypatch):
        from hypvol import verify
        from hypvol.quad import QuadratureError

        def broken(quick):
            return False, "injected failure"

        def divides(quick):
            return 1 / 0

        def unconverged(quick):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(verify, "_REGISTRY", [("injected.check", broken)])
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        assert "[FAIL] injected.check" in out and "failing:" in out

        # a check that raises fails alone; the others still run and report
        monkeypatch.setattr(
            verify,
            "_REGISTRY",
            [("r.zero", divides), ("r.quad", unconverged), ("r.ok", lambda quick: (True, "ok"))],
        )
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 1
        assert "[FAIL] r.zero  raised ZeroDivisionError: division by zero" in out
        assert "[FAIL] r.quad  raised QuadratureError: no convergence" in out
        assert "[PASS] r.ok    ok" in out
        assert out.endswith("1/3 checks passed\nfailing: r.zero, r.quad\n")


class TestParser:
    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        # the parser is built once per process; what one command parsed does not
        # reach the next (--method generic, a usage error, another subcommand)
        import argparse

        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def recorded(self, *args, **kwargs):
            used.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        first = run(capsys, "hypvolume", "--dim", "2", "--betas", "0,0,0")
        table = run(capsys, "table", "--case", "polygon-beta0", "--range", "3:5")
        generic = run(capsys, "hypvolume", "--dim", "2", "--betas", "0,0,0", "--method", "generic")
        with pytest.raises(SystemExit):
            cli.main(["table", "--case", "ideal9", "--range", "3:5"])
        capsys.readouterr()
        run(capsys, "expect", "--dim", "3", "--betas", "-1,-1,-1,-1", "--exponent", "0")
        assert json.loads(first[1])["params"]["method"] == "auto" and json.loads(generic[1])["params"]["method"] == "generic"
        assert run(capsys, "hypvolume", "--dim", "2", "--betas", "0,0,0") == first
        assert run(capsys, "table", "--case", "polygon-beta0", "--range", "3:5") == table
        assert len(used) == 7 and all(parser is cli.build_parser() for parser in used)
