"""Command-line surface: schemas, exit codes, determinism of output."""

import json
import math

import pytest

from hypvol import cli


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

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "hypvolume", "--case", "ideal3")
        assert code == 2 and "requires --n" in err

    def test_non_finite_beta_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "hypvolume", "--dim", "2", "--betas", "nan,0,0")
        assert code == 2
        assert out == "" and "every beta parameter must be finite" in err

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

    @pytest.mark.parametrize(
        "betas,estimate,abs_err_est",
        [
            ("-0.99,-0.99,-0.99,-0.99,-0.99", 4532.355755821123, 6.869284334243275e-06),
            ("0.062,2.261,-0.9982,2.142,-0.219,3.541", 495.9081373856849, 0.013436424463634467),
        ],
    )
    def test_unconverged_b_integral_record(self, capsys, betas, estimate, abs_err_est):
        # near-ideal d = 2 points: the first b integral that does not converge
        # names the record, with its last estimate, to the bit
        code, out, err = run(capsys, "hypvolume", "--dim", "2", f"--betas={betas}")
        assert code == 3 and err == ""
        assert json.loads(out) == {
            "command": "hypvolume",
            "error": "quadrature-not-converged",
            "message": "tanh-sinh: no convergence within max_level=12",
            "estimate": estimate,
            "abs_err_est": abs_err_est,
        }


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

    def test_polygon_range(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "polygon-beta0", "--range", "3:6")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 5

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
