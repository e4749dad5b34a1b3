"""Record the CLI golden file replayed by tests/test_golden.py.

Each case is one in-process `g2kit.cli.main` invocation: an argv, an optional
stdin payload, and what it produced (exit code, stdout).  Payloads are built
here from fixed seeds and stored verbatim, so a replay does not depend on
the sampling helpers.  Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

and re-record only when an output change is intended.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from g2kit import phi0, sample_params, standard_structure, twist
from g2kit.bryant import TwistParams
from g2kit.cli import main
from g2kit.exterior import KForm, interior
from g2kit.sampling import float_kform, rational_kform
from g2kit.serialize import kform_to_json, matrix_to_json

GOLDEN = Path(__file__).resolve().parent / "cli.json"

OMEGA_X1 = '{"degree": 1, "entries": [{"idx": [1], "coeff": "4/5"}]}'
OMEGA_X1_FLOAT = '{"degree": 1, "entries": [{"idx": [1], "coeff": 0.8}]}'


def _form(a: KForm) -> str:
    return json.dumps(kform_to_json(a))


def cases() -> list:
    rng = random.Random(20261018)
    se, sf = standard_structure("exact"), standard_structure("float")
    p = sample_params(rng).canonical()
    p0 = sample_params(rng, force_c_zero=True).canonical()
    pf = TwistParams(0.6, KForm(1, (0.0, 0.48, 0.0, 0.0, 0.0, 0.64, 0.0)))
    swap = [[0] * 7 for _ in range(7)]  # e1 <-> e2 does not fix phi0
    for i, j in enumerate((1, 0, 2, 3, 4, 5, 6)):
        swap[i][j] = 1
    rot = [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)]
    rot[0][0], rot[0][1], rot[1][0], rot[1][1] = 0.6, -0.8, 0.8, 0.6
    ident = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    out = [
        (["twist", "--c", "3/5", "--omega", OMEGA_X1], None),
        (["twist", "--mode", "float", "--c", "0.6", "--omega", OMEGA_X1_FLOAT], None),
        (["twist", "--c", "1", "--omega", OMEGA_X1], None),
        (["decompose", "--degree", "2", "-"], _form(rational_kform(rng, 2))),
        (["decompose", "--degree", "2", "--mode", "float", "-"], _form(float_kform(rng, 2))),
        (["decompose", "--degree", "3", "-"], _form(rational_kform(rng, 3))),
        (["decompose", "--degree", "2", "-"], _form(interior((1, 0, 0, 0, 0, 0, 0), phi0()))),
        (["decompose", "--degree", "3", "--mode", "float", "-"], _form(float_kform(rng, 3))),
        (["recover", "-"], _form(twist(se, p))),
        (["recover", "-"], _form(twist(se, p0))),
        (["recover", "--mode", "float", "-"], _form(twist(sf, pf))),
        (["g2check", "-"], json.dumps(matrix_to_json(ident))),
        (["g2check", "-"], json.dumps(matrix_to_json(swap))),
        (["g2check", "--mode", "float", "-"], json.dumps(matrix_to_json(rot))),
        (["normalizer"], None),
        (["normalizer", "--mode", "float"], None),
        (["demo", "--model", "t7", "--seed", "3"], None),
        (["demo", "--model", "s1xcy3", "--seed", "5"], None),
        (["demo", "--model", "t3xk3", "--mode", "float", "--seed", "2"], None),
        (["demo", "--model", "s1xcy3", "--mode", "float"], None),
        (["selftest"], None),
    ]
    cases = [(argv + ["--output", "json"], stdin) for argv, stdin in out]
    cases.append((["twist", "--c", "3/5", "--omega", OMEGA_X1], None))  # text report
    cases.append((["decompose", "--degree", "2", "-"], "{not json"))
    return cases


def run_cli(argv, stdin):
    """(exit code, stdout) of `main(argv)` with `stdin` on standard input."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def record():
    entries = []
    for argv, stdin in cases():
        code, stdout = run_cli(argv, stdin)
        entries.append({"argv": argv, "stdin": stdin, "exit_code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
