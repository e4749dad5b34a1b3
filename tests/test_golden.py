"""Golden CLI outputs: replay every recorded invocation and compare.

tests/golden/cli.json holds ~20 `g2kit.cli.main` invocations over every
subcommand in both lanes (see tests/golden/record.py).  Exit codes, report
keys, `inputs_sha256` and every exact-lane value must match literally;
float-lane numbers must match within the default float tolerance.
Selftest timings are the one field left out.
"""
import json
import sys
from pathlib import Path

import pytest

from g2kit.context import FLOAT

sys.path.insert(0, str(Path(__file__).parent / "golden"))
from record import GOLDEN, run_cli  # noqa: E402  (the recorder's own runner)

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _drop_timings(report):
    if report.get("command") == "selftest":
        for entry in report["outputs"]["results"]:
            entry.pop("seconds")
    return report


def _assert_close(got, want, path="report"):
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert abs(got - want) <= FLOAT.tol, f"{path}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"][:3]) for c in CASES])
def test_golden_cli(case):
    code, stdout = run_cli(case["argv"], case["stdin"])
    assert code == case["exit_code"]
    if "--output" not in case["argv"] or not case["stdout"]:
        assert stdout == case["stdout"]
        return
    got, want = _drop_timings(json.loads(stdout)), _drop_timings(json.loads(case["stdout"]))
    assert got["inputs_sha256"] == want["inputs_sha256"]
    if want["mode"] == "exact":
        assert got == want
    else:
        _assert_close(got, want)
