"""Command-line behavior: reports, exit codes, and input validation."""
import contextlib
import io
import json
import random
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit.cli import main
from g2kit.context import FLOAT
from g2kit.exterior import DIM, KForm, interior
from g2kit.g2core import phi0
from g2kit.sampling import float_kform
from g2kit.serialize import kform_to_json
from test_context import time_limit

OMEGA_X1 = '{"degree": 1, "entries": [{"idx": [1], "coeff": "4/5"}]}'
OMEGA_X1_FLOAT = '{"degree": 1, "entries": [{"idx": [1], "coeff": 0.8}]}'

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


def test_float_twist_off_sphere_within_tol_but_beyond_constraint_tol_reports(capsys):
    """A float residual of 1.6e-11, inside --tol 1e-10 but beyond the
    CONSTRAINT_TOL = 1e-12 that twist checks, gets the off-sphere report
    and exit 1, not an error on stderr with no report."""
    omega = '{"degree": 1, "entries": [{"idx": [1], "coeff": "0.80000000001"}]}'
    code, rep = run_json(capsys, ["twist", "--mode", "float", "--c", "0.6", "--omega", omega])
    assert code == 1
    assert rep["checks"] == {"constraint_on_sphere": False}
    assert rep["residuals"]["constraint"] == pytest.approx(1.6e-11, rel=1e-3)
    assert not rep["ok"]


# The residual behind each float check of a report, by check name.
RESIDUAL_OF = {
    "reconstruction": "reconstruction",
    "constraint_on_sphere": "constraint",
    "metric_preserved": "metric_preservation",
    "inner_product_law": "inner_product_law",
    "parts_reconstruction": "parts_reconstruction",
    "standard_form": "standard_form",
    "roundtrip": "roundtrip",
}


def test_tol_decides_every_float_check(capsys, tmp_path):
    """--tol decides every float check of a report.  At the default every
    check passes; at --tol 1e-300 the run exits 1 and exactly the checks
    whose residual is a nonzero float fail (residuals near 1e-16 here)."""
    form = write_form(tmp_path, float_kform(random.Random(1), 3))
    for argv in (["decompose", form, "--degree", "3"],
                 ["twist", "--c", "0.6", "--omega", OMEGA_X1_FLOAT],
                 ["demo", "--model", "s1xcy3", "--seed", "3"]):
        argv = argv + ["--mode", "float"]
        code, rep = run_json(capsys, argv)
        assert code == 0 and all(rep["checks"].values()), argv
        code, tight = run_json(capsys, argv + ["--tol", "1e-300"])
        assert tight["residuals"] == rep["residuals"] and set(tight["checks"]) == set(rep["checks"])
        residual = {name: rep["residuals"].get(RESIDUAL_OF.get(name), 0.0) for name in rep["checks"]}
        failed = {name for name, ok in tight["checks"].items() if not ok}
        assert code == 1 and failed and failed == {n for n, r in residual.items() if r != 0.0}, argv


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


@pytest.mark.parametrize("mode, c", [("float", 0.0), ("exact", "0")])
def test_recover_at_c_zero_keeps_the_sign_of_c(capsys, tmp_path, mode, c):
    """twist at c = 0 piped into recover: the canonical point flips omega
    only, so float c is 0.0, never -0.0; the exact report is as before."""
    omega = '{"degree": 1, "entries": [{"idx": [2], "coeff": "-0.6"}, {"idx": [3], "coeff": "0.8"}]}'
    code, rep = run_json(capsys, ["twist", "--mode", mode, "--c", "0", "--omega", omega])
    assert code == 0
    path = tmp_path / "phit.json"
    path.write_text(json.dumps(rep["outputs"]["phit"]))
    code, rep = run_json(capsys, ["recover", "--mode", mode, str(path)])
    assert code == 0
    params = rep["outputs"]["params"]
    assert repr(params["c"]) == repr(c)
    coeffs = {tuple(e["idx"]): e["coeff"] for e in params["omega"]["entries"]}
    if mode == "exact":
        assert coeffs == {(2,): "3/5", (3,): "-4/5"}
    else:
        assert set(coeffs) == {(2,), (3,)} and coeffs[(2,)] > 0


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


@pytest.mark.parametrize("argv,stdin", [
    (["twist", "--mode", "float", "--c", "0",
      "--omega", '{"degree": 1, "entries": [{"idx": [1], "coeff": 1e200}]}'], None),
    (["decompose", "--degree", "2", "--mode", "float", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": 1e308}]}'),
], ids=["twist constraint", "decompose norms"])
@pytest.mark.parametrize("output", ["json", "text"])
def test_a_report_leaving_the_float_range_is_not_printed(capsys, monkeypatch, argv, stdin,
                                                         output):
    """Finite inputs whose results overflow: the twist's constraint residual
    (|omega|^2 = 1e400) and decompose's p7 and p14 norms (3.3e307 squared)
    are infinite.  Neither output mode prints the report, which json would
    write as the non-standard Infinity that g2kit refuses as input: the
    run exits 1 with one error line."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert main(argv + ["--output", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the result left the float range (a non-finite value)\n"


# -- fuzz: no argv or payload escapes the exit-code contract -------------------

HOSTILE_TEXT = [
    "", "-", "{", "[]", "null", "NaN", "-Infinity", "1e400", "1/0", "0/0", "3/5", "-0",
    "1e-400", " 1 ", "1_000", "0x10", "½", "nan", "inf", "1e9999", "1e999999999", "9" * 5000,
    "[" * 5000 + "]" * 5000, '{"degree": 3, "entries": ' + "[" * 3000 + "]" * 3000 + "}",
]
fuzz_scalars = st.one_of(
    st.integers(-(10 ** 30), 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(HOSTILE_TEXT[:22]),
    st.booleans(),
    st.none(),
)
fuzz_json = st.recursive(
    fuzz_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
fuzz_entries = st.lists(
    st.fixed_dictionaries({"idx": st.lists(st.integers(-1, 8), max_size=4) | fuzz_scalars,
                           "coeff": fuzz_scalars}),
    max_size=4,
)
fuzz_forms = st.fixed_dictionaries({"degree": st.integers(-1, 8) | fuzz_scalars,
                                    "entries": fuzz_entries})
fuzz_matrices = st.fixed_dictionaries({
    "shape": st.sampled_from([[7, 7], [7], [49], None]),
    "entries": st.lists(st.sampled_from([0, 1, -1, "0", "1", "-1", "1/2", 0.6, 0.8, -0.8]),
                        min_size=49, max_size=49) | st.lists(fuzz_scalars, max_size=4),
})
fuzz_payloads = st.one_of(
    st.one_of(fuzz_json, fuzz_forms, fuzz_matrices).map(json.dumps),
    st.text(max_size=20),
    st.sampled_from(HOSTILE_TEXT),
)
fuzz_tokens = st.one_of(
    st.sampled_from(["--mode", "exact", "float", "--tol", "--seed", "--output", "json", "text",
                     "--degree", "2", "3", "--c", "3/5", "--omega", "--omega-file", "--model", "-",
                     "/nonexistent/g2kit.json", ".", "--version", "-h"]),
    st.text(max_size=8),
    fuzz_payloads,
)
# Every payload-reading subcommand; demo and selftest take no payload and cost
# seconds a run, so they stay out of the fuzz.
fuzz_commands = st.sampled_from(["decompose", "twist", "recover", "g2check", "normalizer", "bogus"])


# Well-formed payloads with random content reach the computations themselves.
fuzz_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=5).map(str),
    st.floats(-2, 2, allow_nan=False),
)


@st.composite
def plausible_forms(draw, degree):
    idx = draw(st.lists(st.lists(st.integers(1, DIM), min_size=degree, max_size=degree, unique=True)
                        .map(sorted), max_size=6, unique_by=tuple))
    return {"degree": degree, "entries": [{"idx": i, "coeff": draw(fuzz_coeffs)} for i in idx]}


def plausible_matrices():
    return st.lists(fuzz_coeffs, min_size=DIM * DIM, max_size=DIM * DIM).map(
        lambda e: {"shape": [DIM, DIM], "entries": e})


plausible_runs = st.one_of(
    st.tuples(st.builds(lambda d, c, w: ["twist", "--c", c, "--omega", json.dumps(w)],
                        st.just(0), fuzz_coeffs.map(str), plausible_forms(1)), st.just("")),
    st.tuples(st.just(["decompose", "-", "--degree", "2"]), plausible_forms(2).map(json.dumps)),
    st.tuples(st.just(["decompose", "-", "--degree", "3"]), plausible_forms(3).map(json.dumps)),
    st.tuples(st.just(["recover", "-"]), plausible_forms(3).map(json.dumps)),
    st.tuples(st.just(["g2check", "-"]), plausible_matrices().map(json.dumps)),
)


def run_quietly(argv, stdin):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = old_stdin


@given(fuzz_commands, st.lists(fuzz_tokens, max_size=6), fuzz_payloads)
@settings(max_examples=120, deadline=None)
def test_fuzz_main_exit_codes(command, tokens, stdin):
    assert run_quietly([command] + tokens, stdin) in (0, 1, 2)


@given(plausible_runs, st.sampled_from([[], ["--mode", "float"], ["--output", "json"]]))
@settings(max_examples=60, deadline=None)
def test_fuzz_well_formed_payloads(run, extra):
    argv, stdin = run
    assert run_quietly(argv + extra, stdin) in (0, 1, 2)


@pytest.mark.parametrize("k", range(len(HOSTILE_TEXT)))
@pytest.mark.parametrize("command", [["decompose", "--degree", "3", "-"], ["recover", "-"],
                                     ["g2check", "--mode", "float", "-"]])
def test_hostile_stdin_exits_two(monkeypatch, command, k):
    monkeypatch.setattr("sys.stdin", io.StringIO(HOSTILE_TEXT[k]))
    assert main(command) == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("c", ["1e999999999", "1E-99999", "1e1_0000", "1e00004301"])
def test_huge_decimal_exponent_exits_two(mode, c):
    assert main(["twist", "--mode", mode, "--c", c, "--omega", OMEGA_X1]) == 2


# A point whose c^2 = (<phit, phi> + 1)/8 has an 80-digit numerator: a float
# first guess of its integer square root lands about 1e24 below the root.
LONG_C = "171700082492251125137249489474173704951/1840600057142114054268473294296797050249"
LONG_OMEGA = json.dumps({"degree": 1, "entries": [{"idx": [1], "coeff": (
    "1832574050897727756115710628582283761360/1840600057142114054268473294296797050249")}]})


def test_exact_recover_of_a_long_rational_point(capsys, tmp_path):
    code, rep = run_json(capsys, ["twist", "--mode", "exact", "--c=" + LONG_C, "--omega", LONG_OMEGA])
    assert code == 0
    path = tmp_path / "phit.json"
    path.write_text(json.dumps(rep["outputs"]["phit"]))
    with time_limit(60):
        code, rep = run_json(capsys, ["recover", "--mode", "exact", str(path)])
    assert code == 0
    assert rep["outputs"]["params"]["c"] == LONG_C
    assert rep["outputs"]["params"]["omega"] == json.loads(LONG_OMEGA)
    assert rep["residuals"]["reconstruction"] == "0"


def test_exact_recover_of_a_tiny_multiple_of_phi0_exits_one(capsys, tmp_path):
    """The normalization of phi0 / 10^20 takes the ninth root of a rational
    with a 421-digit denominator, beyond the float range; it needs no float
    and refuses the form (no rational ninth root) with an error line and no
    traceback."""
    path = write_form(tmp_path, phi0() * Fraction(1, 10 ** 20))
    assert main(["recover", "--mode", "exact", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: exact metric normalization needs det(B)/6^7 to be a rational ninth power\n"


def test_float_recover_of_an_overflowing_form_names_the_overflow(capsys, tmp_path):
    """phi0 * 1e120 in the float lane: the cubic contraction matrix B
    overflows.  recover exits 1 with one error line that names the overflow,
    and numpy warns of nothing (a warning here raises)."""
    path = write_form(tmp_path, phi0(FLOAT) * 1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["recover", "--mode", "float", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: 3-form beyond the float range: its contraction matrix overflowed\n"


@pytest.mark.parametrize("form, message", [
    (phi0(FLOAT) * 1e-20, "3-form beyond the float range: det of its contraction matrix underflowed"),
    (phi0(FLOAT) * 1e-120, "3-form beyond the float range: det of its contraction matrix underflowed"),
    (KForm.from_entries(3, {(1, 2, 3): 1.0}, FLOAT), "degenerate 3-form: det of contraction matrix is 0"),
], ids=["phi0 * 1e-20", "phi0 * 1e-120", "dx123"])
def test_float_recover_names_an_underflowed_det_apart_from_a_degenerate_form(capsys, tmp_path,
                                                                           form, message):
    """phi0 * 1e-20 has B = 6e-60 I, whose det (about 1e-413) underflows to
    0.0: recover names the underflow and exits 1.  phi0 * 1e-120, whose B
    underflows to 0, is named the same way.  dx123 has B = 0 and keeps the
    degenerate message and exit code 1."""
    path = write_form(tmp_path, form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["recover", "--mode", "float", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
