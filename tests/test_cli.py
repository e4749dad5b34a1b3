"""Command-line behavior: reports, exit codes, and input validation."""
import io
import json
from fractions import Fraction

import pytest

from g2kit.cli import main
from g2kit.exterior import KForm, interior
from g2kit.g2core import phi0
from g2kit.serialize import kform_to_json

OMEGA_X1 = '{"degree": 1, "entries": [{"idx": [1], "coeff": "4/5"}]}'

REPORT_KEYS = {
    "schema_version", "command", "mode", "tol", "seed",
    "inputs_sha256", "outputs", "residuals", "checks", "ok",
}


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_form(tmp_path, form, name="form.json"):
    path = tmp_path / name
    path.write_text(json.dumps(kform_to_json(form)))
    return str(path)


def test_twist_exact_report(capsys):
    code, rep = run_json(capsys, ["twist", "--c", "3/5", "--omega", OMEGA_X1])
    assert code == 0
    assert set(rep) == REPORT_KEYS
    assert rep["command"] == "twist" and rep["mode"] == "exact" and rep["ok"]
    assert rep["residuals"]["metric_preservation"] == "0"
    assert rep["residuals"]["inner_product_law"] == "0"
    assert rep["outputs"]["inner_with_base"] == "47/25"
    assert all(rep["checks"].values())
    entries = {tuple(e["idx"]): e["coeff"] for e in rep["outputs"]["phit"]["entries"]}
    assert entries[(1, 2, 3)] == "1"
    assert entries[(2, 4, 6)] == "-7/25"


def test_twist_off_sphere_exits_one(capsys):
    omega = '{"degree": 1, "entries": [{"idx": [1], "coeff": "1"}]}'
    code, rep = run_json(capsys, ["twist", "--c", "1", "--omega", omega])
    assert code == 1
    assert rep["checks"] == {"constraint_on_sphere": False}
    assert rep["residuals"]["constraint"] == "1"
    assert not rep["ok"]


def test_twist_needs_exactly_one_omega_source(capsys, tmp_path):
    assert main(["twist", "--c", "1"]) == 2
    p = tmp_path / "w.json"
    p.write_text(OMEGA_X1)
    assert main(["twist", "--c", "1", "--omega", OMEGA_X1, "--omega-file", str(p)]) == 2


def test_decompose_standard_form(capsys, tmp_path):
    path = write_form(tmp_path, phi0())
    code, rep = run_json(capsys, ["decompose", path, "--degree", "3"])
    assert code == 0
    assert rep["outputs"]["p1"] == kform_to_json(phi0())
    assert rep["outputs"]["p7"]["entries"] == []
    assert rep["outputs"]["p27"]["entries"] == []
    assert rep["outputs"]["p1_norm_sq"] == "7"
    assert rep["residuals"]["reconstruction"] == "0"


def test_decompose_contraction_is_pure_seven(capsys, tmp_path):
    e1 = (1, 0, 0, 0, 0, 0, 0)
    path = write_form(tmp_path, interior(e1, phi0()))
    code, rep = run_json(capsys, ["decompose", path, "--degree", "2"])
    assert code == 0
    assert rep["outputs"]["p14"]["entries"] == []
    assert rep["outputs"]["p7_norm_sq"] == "3"


def test_decompose_rejects_other_degrees(tmp_path):
    path = write_form(tmp_path, KForm.from_entries(4, {(1, 2, 3, 4): 1}))
    assert main(["decompose", path, "--degree", "4"]) == 1
    assert main(["decompose", path, "--degree", "3"]) == 1  # degree mismatch


def test_recover_roundtrip(capsys, tmp_path):
    code, rep = run_json(capsys, ["twist", "--c", "3/5", "--omega", OMEGA_X1])
    path = tmp_path / "phit.json"
    path.write_text(json.dumps(rep["outputs"]["phit"]))
    code2, rep2 = run_json(capsys, ["recover", str(path)])
    assert code2 == 0
    assert rep2["outputs"]["params"]["c"] == "3/5"
    assert rep2["residuals"]["recovery"] == 0
    assert rep2["residuals"]["reconstruction"] == "0"


def test_g2check_identity(capsys, tmp_path):
    rows = [1 if i == j else 0 for i in range(7) for j in range(7)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"shape": [7, 7], "entries": [str(x) for x in rows]}))
    code, rep = run_json(capsys, ["g2check", str(path)])
    assert code == 0
    assert rep["outputs"]["member"] is True


def test_g2check_rejects_plane_rotation(capsys, tmp_path):
    rows = [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)]
    c, s = 0.6, 0.8
    rows[0][0], rows[0][1], rows[1][0], rows[1][1] = c, -s, s, c
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"shape": [7, 7], "entries": [x for r in rows for x in r]}))
    code, rep = run_json(capsys, ["g2check", str(path), "--mode", "float"])
    assert code == 1
    assert rep["outputs"]["member"] is False
    assert rep["outputs"]["orthogonal"] is True


def test_normalizer_report(capsys):
    code, rep = run_json(capsys, ["normalizer"])
    assert code == 0
    assert rep["outputs"]["algebra_dim"] == 14
    assert rep["outputs"]["normalizer_dim"] == 14
    assert rep["checks"]["self_normalizing"]


def test_demo_t7_text(capsys):
    code = main(["demo", "--model", "t7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "b1=7, sheets=1" in out


@pytest.mark.parametrize("model,b1", [("s1xcy3", 1), ("t3xk3", 3)])
def test_demo_other_models(capsys, model, b1):
    code, rep = run_json(capsys, ["demo", "--model", model])
    assert code == 0
    assert rep["outputs"]["b1"] == b1
    assert rep["outputs"]["derivative_rank"] == b1
    assert rep["outputs"]["coset_tangent_dim"] == b1
    assert rep["checks"]["rank_equals_b1"]


def test_demo_phase_fit_fields(capsys):
    code, rep = run_json(capsys, ["demo", "--model", "s1xcy3"])
    assert code == 0
    fit = rep["outputs"]["phase_fit"]
    assert fit["cos_minus_2c2_minus_1"] == "0"
    assert fit["sin_plus_2cw"] == "0"
    assert fit["ansatz_gap"] == "0"


def test_malformed_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", str(bad), "--degree", "3"]) == 2
    assert main(["decompose", str(tmp_path / "absent.json"), "--degree", "3"]) == 2
    assert main(["recover", str(bad)]) == 2


def test_bad_payload_exits_two(tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"degree": 3, "entries": [{"idx": [9, 9, 9], "coeff": "1"}]}))
    assert main(["decompose", str(path), "--degree", "3"]) == 2


def test_float_coeff_in_exact_mode_exits_two(tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"degree": 3, "entries": [{"idx": [1, 2, 3], "coeff": 0.5}]}))
    assert main(["decompose", str(path), "--degree", "3"]) == 2
    assert main(["decompose", str(path), "--degree", "3", "--mode", "float"]) == 0


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(kform_to_json(phi0()))))
    code, rep = run_json(capsys, ["decompose", "-", "--degree", "3"])
    assert code == 0
    assert rep["outputs"]["p1_norm_sq"] == "7"


def test_env_mode_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("G2KIT_MODE", "float")
    code, rep = run_json(capsys, ["normalizer"])
    assert rep["mode"] == "float"
    code2, rep2 = run_json(capsys, ["normalizer", "--mode", "exact"])
    assert rep2["mode"] == "exact"
    monkeypatch.setenv("G2KIT_MODE", "interval")
    assert main(["normalizer"]) == 2


def test_tol_must_be_positive():
    assert main(["normalizer", "--tol", "0"]) == 2
    assert main(["normalizer", "--tol", "-1e-3"]) == 2


def test_seed_echoed(capsys):
    code, rep = run_json(capsys, ["normalizer", "--seed", "17"])
    assert rep["seed"] == 17


def test_unknown_flag_exits_two():
    assert main(["normalizer", "--frobnicate"]) == 2
    assert main([]) == 2


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "g2kit" in capsys.readouterr().out


def test_text_output_shape(capsys):
    code = main(["twist", "--c", "3/5", "--omega", OMEGA_X1])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: true" in out
    assert "check metric_preserved: pass" in out


@pytest.mark.parametrize("argv,stdin", [
    (["decompose", "--degree", "2", "--mode", "float", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": NaN}]}'),
    (["twist", "--mode", "float", "--c", "0.6",
      "--omega", '{"degree": 1, "entries": [{"idx": [1], "coeff": Infinity}]}'], None),
    (["twist", "--mode", "float", "--c", "1e400",
      "--omega", '{"degree": 1, "entries": [{"idx": [1], "coeff": 0.8}]}'], None),
    (["decompose", "--degree", "2", "--mode", "float", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": 1e400}]}'),
    (["decompose", "--degree", "2", "--mode", "float", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": "-1e400"}]}'),
])
def test_non_finite_input_exits_two(monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert main(argv) == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tol_must_be_finite(tol):
    assert main(["normalizer", "--tol", tol]) == 2
