"""CLI: schemas, exit codes, config handling, determinism."""

import io
import json
import math

import pytest

from curvgreen.cli import run


def capture(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


class TestEval:
    def test_json_schema(self):
        code, out = capture([
            "eval", "--manifold", "hyperboloid", "--d", "3", "--R", "1",
            "--beta", "1", "--sign", "plus", "--rho", "0.7",
            "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        for key in ("value_re", "value_im", "abs_err_est", "terms_used",
                    "flags", "tool_version", "config_echo"):
            assert key in doc
        ref = math.exp(-0.7 * math.sqrt(2.0)) \
            / (4.0 * math.pi * math.sinh(0.7))
        assert doc["value_re"] == pytest.approx(ref, rel=1e-10)

    def test_sphere_minus_reports_both_candidates(self):
        code, out = capture([
            "eval", "--manifold", "hypersphere", "--d", "3", "--beta",
            "0.8", "--sign", "minus", "--rho", "1.0"])
        assert code == 0
        doc = json.loads(out)
        assert "SF_MINUS.value_re" in doc
        assert "FRAK_MINUS.value_re" in doc
        assert "SF_MINUS.normalization_measured" in doc
        assert "pole_proximity" in doc

    def test_usage_error_names_field(self, capsys):
        code, out = capture(["eval", "--manifold", "hyperboloid",
                             "--d", "3", "--beta", "1", "--rho", "-0.5"])
        assert code == 1
        # a rho out of range is RangeError on both manifolds
        assert capsys.readouterr().err == \
            "error[RANGE]: rho must be positive\n"

    def test_round_trip(self):
        code, out = capture([
            "eval", "--manifold", "hypersphere", "--d", "4", "--beta",
            "1.3", "--sign", "plus", "--rho", "0.9"])
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_overflowing_cosh_is_a_range_error(self, capsys):
        code, out = capture(["eval", "--manifold", "hyperboloid", "--d", "3",
                             "--beta", "2", "--rho", "1000"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("error[RANGE]: cosh")


class TestExpand:
    def test_series_report_schema(self):
        code, out = capture([
            "expand", "--variant", "S_PLUS", "--manifold", "hypersphere",
            "--d", "3", "--beta", "1.3", "--theta", "0.4",
            "--theta-prime", "0.8", "--gamma", "1.2", "--lmax", "30"])
        assert code == 0
        doc = json.loads(out)
        for key in ("value_re", "terms", "last_term_mag", "est_ratio",
                    "domain_ok", "reference_re", "rel_err"):
            assert key in doc
        assert doc["rel_err"] < 1e-7

    @pytest.mark.parametrize("variant", ["AF_MINUS", "FRAKA_MINUS"])
    def test_antipodal_candidate_report(self, variant):
        code, out = capture([
            "expand", "--variant", variant, "--manifold", "hypersphere",
            "--d", "3", "--beta", "1.7", "--theta", "0.4",
            "--theta-prime", "0.8", "--gamma", "1.2", "--lmax", "60"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rel_err"] < 1e-10

    def test_domain_violation_exit_code(self):
        code, _ = capture([
            "expand", "--variant", "S_PLUS", "--manifold", "hypersphere",
            "--d", "3", "--beta", "1.3", "--theta", "1.5707963267948966",
            "--theta-prime", "1.5707963267948966", "--gamma", "0.3"])
        assert code == 1

    def test_empty_series_is_a_usage_error(self, capsys):
        code, out = capture([
            "expand", "--variant", "H_PLUS", "--manifold", "hyperboloid",
            "--d", "3", "--beta", "1.0", "--r", "0.6", "--r-prime", "1.1",
            "--gamma", "0.7", "--lmax", "0"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error[")

    def test_overflowing_term_is_a_range_error(self, capsys):
        # orders up to 300 overflow Q_nu^mu: a refusal, not a traceback
        code, out = capture([
            "expand", "--variant", "H_PLUS", "--manifold", "hyperboloid",
            "--d", "5", "--R", "2.5", "--beta", "3.4434", "--r", "1.8056",
            "--r-prime", "1.3587", "--gamma", "2.445", "--lmax", "300"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("error[RANGE]")

    @pytest.mark.parametrize("variant", ["SF_MINUS", "FRAK_MINUS"])
    def test_large_beta_is_a_report_or_a_refusal(self, capsys, variant):
        # Gamma(nu + mu + 1) alone overflows at beta = 180.3: a flagged
        # report or a typed error, never a traceback
        code, out = capture([
            "expand", "--variant", variant, "--manifold", "hypersphere",
            "--d", "3", "--beta", "180.3", "--theta", "0.3",
            "--theta-prime", "0.5", "--gamma", "0.7"])
        if code == 0:
            assert "NONCONVERGENT" in json.loads(out)["flags"]
        else:
            assert (code, out) == (1, "")
            assert capsys.readouterr().err.startswith("error[")

    def test_overflowing_bessel_term_is_a_range_error(self, capsys):
        # the flat expansion's K_m(0.6) leaves the double range at m = 139
        code, out = capture([
            "expand", "--variant", "EUCLID_PLUS", "--manifold", "euclidean",
            "--d", "2", "--sign", "plus", "--beta", "1.0", "--r", "0.5",
            "--r-prime", "0.6", "--gamma", "0.5", "--lmax", "400"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(
            "error[RANGE]: series term l = 139")


class TestVerify:
    def test_csv_rows(self):
        code, out = capture(["verify", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for col in ("check_id", "status", "measured", "target", "tolerance"):
            assert col in header
        assert all("PASS" in ln or "FAIL" in ln for ln in lines[1:])

    def test_json_all_pass(self):
        code, out = capture(["verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0


class TestSweepPolesSpecial:
    def test_sweep_csv(self):
        code, out = capture([
            "sweep", "--variant", "H_PLUS", "--manifold", "hyperboloid",
            "--d", "3", "--beta", "0.5", "--r-phys", "0.6",
            "--R-list", "10,30,100", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "R"
        assert len(lines) == 4
        errs = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_sweep_unknown_variant(self, capsys):
        code, out = capture([
            "sweep", "--variant", "BOGUS", "--d", "3", "--beta", "0.5",
            "--r-phys", "0.6", "--R-list", "10,30"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == \
            "error[WRONG_VARIANT]: unknown variant 'BOGUS'\n"

    def test_poles(self):
        code, out = capture(["poles", "--d", "3", "--count", "3"])
        assert code == 0
        doc = json.loads(out)
        b2 = [row["beta_squared_R_squared"] for row in doc["rows"]]
        assert b2 == pytest.approx([3.0, 8.0, 15.0])

    def test_special(self):
        code, out = capture([
            "special", "--case", "LOGCOT", "--theta", "0.4",
            "--theta-prime", "0.7", "--gamma", "0.9", "--nmax", "60"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rel_err"] < 1e-8


class TestCsvGolden:
    # golden outputs: a single record and a table share one writer
    def test_eval_single_record(self):
        code, out = capture([
            "eval", "--manifold", "hyperboloid", "--d", "3", "--beta",
            "1.3", "--rho", "0.7", "--output", "csv"])
        assert code == 0
        # Q^{1/2} is its closed form, e^{-(nu + 1/2) rho}/(4 pi sinh rho)
        # once the prefactors are applied; mpmath at 30 digits gives
        # 0.0332797067333641490173747819398.  The imaginary part is the
        # rounding of e^{-i pi/2}.
        assert out == (
            "abs_err_est,flags,terms_used,value_im,value_re\n"
            "4.6526053073130716e-17,[],1,2.0377943163788501e-18,"
            "0.033279706733364132\n")

    def test_poles_rows(self):
        code, out = capture(["poles", "--d", "3", "--count", "3",
                             "--output", "csv"])
        assert code == 0
        assert out == ("n,beta,beta_squared_R_squared\n"
                       "1,1.7320508075688772,2.9999999999999996\n"
                       "2,2.8284271247461903,8.0000000000000018\n"
                       "3,3.872983346207417,15.000000000000002\n")


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"manifold": "hyperboloid", "d": 3, "R": 1.0, "beta": 1.0,
               "sign": "plus", "rho": 0.7}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out1 = capture(["eval", "--config", str(path)])
        assert code == 0
        code, out2 = capture(["eval", "--config", str(path),
                              "--rho", "0.9"])
        assert code == 0
        assert json.loads(out1)["value_re"] != json.loads(out2)["value_re"]
        assert json.loads(out2)["config_echo"]["rho"] == 0.9

    @pytest.mark.parametrize("key,value", [("d", "three"), ("beta", None)])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        cfg = {"manifold": "hyperboloid", "d": 3, "R": 1.0, "beta": 1.0,
               "sign": "plus", "rho": 0.7}
        cfg[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out = capture(["eval", "--config", str(path)])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert "Traceback" not in err

    def test_byte_identical_reruns(self):
        argv = ["expand", "--variant", "H_PLUS", "--manifold",
                "hyperboloid", "--d", "3", "--beta", "1.0", "--r", "0.6",
                "--r-prime", "1.1", "--gamma", "0.7"]
        _, out1 = capture(argv)
        _, out2 = capture(argv)
        assert out1 == out2
