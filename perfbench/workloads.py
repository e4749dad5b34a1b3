"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Every workload is a closed loop with one caller.  `cycle(rng)` generates the
inputs of one cycle of ops before any of them is timed, `run(op)` is the
timed op, and `check(op, out)` judges its output off the clock.  A check
returns OK, ERROR (the program refused: it raised or exited with the wrong
nonzero code) or WRONG (it claimed success with a wrong answer).  Inputs that
hit a known defect of the program are not timed ops: `known_defects()` counts,
off the clock, how many of a fixed set of them still fail.

The module imports g2kit, so `src/` must already be on `sys.path`.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import g2kit.cli
from g2kit import (
    EUCLIDEAN,
    G2Structure,
    KForm,
    TwistParams,
    decompose2,
    decompose3,
    derivative_rank,
    flat_model,
    model_structure,
    odot,
    odot_inverse,
    phi0,
    pullback,
    recover,
    sample_params,
    standard_structure,
    twist,
    twist_decomposed,
)
from g2kit.context import EXACT, FLOAT
from g2kit.g2core import PHI0_ENTRIES
from g2kit.sampling import float_kform, rational_kform
from g2kit.serialize import (
    canonical_json,
    g2structure_from_json,
    g2structure_to_json,
    kform_from_json,
    kform_to_json,
    matrix_to_json,
    scalar_to_json,
    twistparams_from_json,
    twistparams_to_json,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ("t7", "s1xcy3", "t3xk3")
TOL = FLOAT.tol  # the default Context tolerance decides every float-lane check
# Float recover refuses points with 5e-8 < |c| <~ 0.02 (ROADMAP item 2; none
# failed at |c| >= 0.025 in 5400 tries).  Timed ops draw no point with
# 0 < |c| < EQUATOR_BAND, so that every timed op is expected to pass; the
# band is measured apart by equator_sweep() at the |c| of EQUATOR_SWEEP_C.
EQUATOR_BAND = 0.05
EQUATOR_SWEEP_C = (1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 2e-2)
CHILD_TIMEOUT_S = 120

OK, ERROR, WRONG = "ok", "error", "wrong"


def child_env() -> dict:
    """Environment for g2kit child processes: the source tree, no mode override."""
    env = {k: v for k, v in os.environ.items() if k not in ("G2KIT_MODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _verdict(good: bool) -> str:
    return OK if good else WRONG


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _float_point(rng, b1: int, c_zero: bool) -> TwistParams:
    """Uniform point on the float unit sphere in (c, w_1..w_b1) outside the
    equator band: Gaussian, normalized, redrawn while 0 < |c| < EQUATOR_BAND."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(b1 + 1)]
        if c_zero:
            v[0] = 0.0
        norm = math.sqrt(sum(x * x for x in v))
        v = [x / norm for x in v]
        if not 0.0 < abs(v[0]) < EQUATOR_BAND:
            return TwistParams(v[0], KForm(1, tuple(v[1:]) + (0.0,) * (7 - b1)))


def equator_sweep() -> tuple:
    """(failed, attempted) of float twist -> recover on a fixed set of points in
    the equator band, two directions of omega per model and |c|.  Independent
    of the seed, so it reads the same on every run of the same code."""
    rng = random.Random("equator-sweep")
    failed = attempted = 0
    for kind in MODELS:
        s, b1 = model_structure(kind, "float"), flat_model(kind).b1
        for c in EQUATOR_SWEEP_C:
            for sign in (1.0, -1.0):
                w = [rng.gauss(0.0, 1.0) for _ in range(b1)]
                scale = math.sqrt(1.0 - c * c) / math.sqrt(sum(x * x for x in w))
                p = TwistParams(sign * c, KForm(1, tuple(x * scale for x in w) + (0.0,) * (7 - b1)))
                attempted += 1
                try:
                    good = recover(s, twist(s, p)).params.equivalent_to(p, TOL)
                except Exception:  # a refusal is the defect being counted
                    good = False
                failed += not good
    return failed, attempted


class Family:
    """twist -> twist_decomposed -> recover -> derivative_rank on the three flat models.

    A cycle is 30 ops: the models take turns and every 10th op has c = 0, so
    each model gets one c = 0 op per cycle.
    """

    cycle_len = 30
    warmup_cycles = 1
    profile_cycles = 1

    def __init__(self, mode: str):
        self.mode = mode
        self.exact = mode == "exact"

    def setup(self):
        self.structures = {k: model_structure(k, self.mode) for k in MODELS}
        self.b1 = {k: flat_model(k).b1 for k in MODELS}

    def cycle(self, rng):
        ops = []
        for j in range(self.cycle_len):
            kind = MODELS[j % len(MODELS)]
            c_zero = j % 10 == 9
            if self.exact:
                p = sample_params(rng, self.b1[kind], force_c_zero=c_zero)
            else:
                p = _float_point(rng, self.b1[kind], c_zero)
            ops.append((kind, p, p.canonical()))
        return ops

    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def run(self, op):
        kind, p, _ = op
        s = self.structures[kind]
        phit = twist(s, p)
        return phit, twist_decomposed(s, p), recover(s, phit), derivative_rank(s, p, self.b1[kind])

    def known_defects(self) -> dict:
        return {} if self.exact else {"float_recover_near_equator": equator_sweep()}

    def check(self, op, out) -> str:
        kind, p, canonical = op
        phit, parts, rec, rank = out
        ref = decompose3(phit, self.structures[kind])
        if rank != self.b1[kind]:
            return WRONG
        if self.exact:
            return _verdict(parts == ref and rec.params == canonical)
        return _verdict(
            all(a.isclose(b, TOL) for a, b in zip(
                (parts.p1, parts.p7, parts.p27), (ref.p1, ref.p7, ref.p27)))
            and rec.params.equivalent_to(p, TOL)
        )


def _int_det(a) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _invertible_sign_matrix(rng):
    """Random invertible 7x7 matrix with entries in {-1, 0, 1}, with its determinant."""
    while True:
        a = [[rng.choice((-1, 0, 1)) for _ in range(7)] for _ in range(7)]
        det = _int_det(a)
        if det:
            return a, det


class Structures:
    """Fresh exact G2Structures, one Euclidean and one non-Euclidean per op.

    The op builds the structure of a twist of phi0 (Euclidean metric) and of
    a pullback of phi0 by a random integer matrix A (metric A^T A, the sign of
    det A as orientation), and puts each through a JSON round trip,
    decompose2/decompose3 of random rational forms and odot_inverse.  Pairing
    the two kinds in one op keeps the latency distribution unimodal.
    """

    warmup_cycles = 1
    profile_cycles = 2

    def setup(self):
        self.standard = standard_structure("exact")
        self.phi0 = phi0()

    def cycle(self, rng):
        p = sample_params(rng)
        a, det = _invertible_sign_matrix(rng)
        gram = tuple(tuple(sum(a[k][i] * a[k][j] for k in range(7)) for j in range(7))
                     for i in range(7))
        expected = ((EUCLIDEAN.rows, 1), (gram, 1 if det > 0 else -1))
        forms = tuple((rational_kform(rng, 2), rational_kform(rng, 3)) for _ in range(2))
        return [(p, a, expected, forms)]

    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def known_defects(self) -> dict:
        return {}

    def _one(self, phi: KForm, beta: KForm, eta: KForm):
        s = G2Structure(phi)
        yield
        loaded = g2structure_from_json(json.loads(canonical_json(g2structure_to_json(s))))
        yield
        d2 = decompose2(beta, s)
        d3 = decompose3(eta, s)
        yield
        return s, loaded, d2, d3, odot_inverse(d3.p1 + d3.p27, s)

    def run(self, op):
        """The op, yielding between its steps: an op takes about a second, and
        the host's speed is sampled between steps (see run.run_steps)."""
        p, a, _, ((beta_e, eta_e), (beta_n, eta_n)) = op
        euclidean = yield from self._one(twist(self.standard, p), beta_e, eta_e)
        yield
        return euclidean, (yield from self._one(pullback(self.phi0, a), beta_n, eta_n))

    def check(self, op, out) -> str:
        _, _, expected, forms = op
        for (s, loaded, d2, d3, b), (metric_rows, sign), (beta, eta) in zip(out, expected, forms):
            good = (
                s.metric.rows == metric_rows
                and s.orientation.sign == sign
                and (loaded.phi, loaded.metric, loaded.orientation)
                == (s.phi, s.metric, s.orientation)
                and d2.total() == beta
                and s.two_form_operator(d2.p7) == s.lambda7 * d2.p7
                and d3.total() == eta
                and odot(b, s) == d3.p1 + d3.p27
            )
            if not good:
                return WRONG
        return OK


# -- cli_mix ----------------------------------------------------------------


def _phi0_value(i: int, j: int, k: int) -> int:
    """phi0(e_i, e_j, e_k) for 1-based indices in any order."""
    idx = (i, j, k)
    key = tuple(sorted(idx))
    if len(set(key)) < 3 or key not in PHI0_ENTRIES:
        return 0
    inversions = sum(1 for x, y in combinations(idx, 2) if x > y)
    return PHI0_ENTRIES[key] * (-1) ** inversions


def _preserves_phi0(perm, signs) -> bool:
    """Does the signed permutation e_j -> signs[j] e_perm[j] fix phi0?"""
    return all(
        signs[a] * signs[b] * signs[c] * _phi0_value(perm[a] + 1, perm[b] + 1, perm[c] + 1)
        == _phi0_value(a + 1, b + 1, c + 1)
        for a, b, c in combinations(range(7), 3)
    )


def _signed_permutation(rng, member: bool):
    """A signed permutation matrix that does (member) or does not fix phi0."""
    while True:
        perm = list(range(7))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(7)]
        if _preserves_phi0(perm, signs) == member:
            rows = [[0] * 7 for _ in range(7)]
            for j in range(7):
                rows[perm[j]][j] = signs[j]
            return rows


def _form_stdin(entries, degree: int, extra=None) -> str:
    obj = {"degree": degree, "entries": [{"idx": list(i), "coeff": c} for i, c in entries]}
    obj.update(extra or {})
    return json.dumps(obj)


# Malformed payloads from the README's classes; each must exit 2.
_MALFORMED = (
    (["decompose", "--degree", "2", "-"], "{not json"),
    (["decompose", "--degree", "3", "-"], _form_stdin([], 3, {"extra": 1})),
    (["decompose", "--degree", "2", "-"], _form_stdin([((1, 2), "1"), ((1, 2), "2")], 2)),
    (["decompose", "--degree", "2", "-"], _form_stdin([((1, 8), "1")], 2)),
    (["decompose", "--degree", "2", "-"], _form_stdin([((1, 2), True)], 2)),
    (["decompose", "--degree", "2", "--mode", "exact", "-"], _form_stdin([((1, 2), 0.5)], 2)),
    (["normalizer", "--tol", "-1"], None),
    (["decompose", "--degree", "2", "--bogus", "-"], _form_stdin([], 2)),
    (["g2check", "-"], json.dumps({"shape": [6, 6], "entries": ["0"] * 36})),
)

# Non-finite floats (ROADMAP item 2); each must exit 2 and does not yet, so
# they are not timed ops but a known defect, counted by CliMix.known_defects.
_NON_FINITE = (
    (["decompose", "--degree", "2", "--mode", "float", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": NaN}]}'),
    (["twist", "--mode", "float", "--c", "0.6",
      "--omega", '{"degree": 1, "entries": [{"idx": [1], "coeff": Infinity}]}'], None),
    (["twist", "--mode", "float", "--c", "1e400",
      "--omega", '{"degree": 1, "entries": [{"idx": [1], "coeff": 0.8}]}'], None),
)


class CliMix:
    """A fixed cyclic mix of `python -m g2kit` children, one at a time.

    Each child runs through child.py, which reports the child's own peak RSS.

    A cycle is 9 ops: twist, recover (both lanes), decompose --degree 2|3,
    g2check, demo (model and lane rotate by cycle), one README-class malformed
    payload and one exact normalizer.  With
    `in_process` the same argv goes to `g2kit.cli.main` in this process,
    which is what the traced run measures.
    """

    warmup_cycles = 0  # the set-up probes already started g2kit children
    profile_cycles = 1

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        self.count = 0
        self.child_peak_kb = 0

    def peak_rss_mb(self) -> float:
        """The largest child's own peak RSS; this process's peak when in-process."""
        return own_peak_rss_mb() if self.in_process else self.child_peak_kb / 1024.0

    def setup(self):
        self.standard = {m: standard_structure(m) for m in ("exact", "float")}
        self.env = child_env()

    def cycle(self, rng):
        k = self.count
        self.count += 1
        seed = ["--seed", str(rng.randrange(1000))]
        exact_p = sample_params(rng).canonical()
        c = exact_p.c
        twist_op = (
            ["twist", "--mode", "exact", f"--c={c}",
             "--omega", json.dumps(kform_to_json(exact_p.omega))],
            None, 0,
            lambda r: r["outputs"]["inner_with_base"] == scalar_to_json(8 * c * c - 1),
        )
        float_p = _float_point(rng, 7, False)
        float_phit = twist(self.standard["float"], float_p)
        recover_float = (
            ["recover", "--mode", "float", "-"], json.dumps(kform_to_json(float_phit)), 0,
            lambda r: twistparams_from_json(r["outputs"]["params"], FLOAT).equivalent_to(float_p, TOL),
        )
        beta = rational_kform(rng, 2)
        decompose2_op = (
            ["decompose", "--degree", "2", "--mode", "exact", "-"],
            json.dumps(kform_to_json(beta)), 0,
            lambda r: _parts_sum(r, ("p7", "p14"), EXACT) == beta,
        )
        eta = float_kform(rng, 3)
        decompose3_op = (
            ["decompose", "--degree", "3", "--mode", "float", "-"],
            json.dumps(kform_to_json(eta)), 0,
            lambda r: _parts_sum(r, ("p1", "p7", "p27"), FLOAT).isclose(eta, TOL),
        )
        member = k % 2 == 0
        g2check_op = (
            ["g2check", "--mode", "exact", "-"],
            json.dumps(matrix_to_json(_signed_permutation(rng, member))), 0 if member else 1,
            lambda r: r["outputs"]["member"] is member,
        )
        model = flat_model(MODELS[k % len(MODELS)])
        demo_op = (
            ["demo", "--model", model.kind, "--mode", ("exact", "float")[k % 2], *seed], None, 0,
            lambda r: r["outputs"]["derivative_rank"] == model.b1
            and r["outputs"]["coset_tangent_dim"] == model.b1,
        )
        exact_q = sample_params(rng).canonical()
        recover_exact = (
            ["recover", "--mode", "exact", "-"],
            json.dumps(kform_to_json(twist(self.standard["exact"], exact_q))), 0,
            lambda r: r["outputs"]["params"] == twistparams_to_json(exact_q),
        )
        normalizer_op = (
            ["normalizer", "--mode", "exact"], None, 0,
            lambda r: (r["outputs"]["algebra_dim"], r["outputs"]["normalizer_dim"]) == (14, 14),
        )
        malformed = _MALFORMED[k % len(_MALFORMED)]
        ops = [twist_op, recover_float, decompose2_op, decompose3_op, g2check_op, demo_op,
               recover_exact, (*malformed, 2, None), normalizer_op]
        return [(argv if code == 2 else [*argv, "--output", "json"], stdin, code, judge)
                for argv, stdin, code, judge in ops]

    def run(self, op):
        argv, stdin, _, _ = op
        if self.in_process:
            return _run_in_process(argv, stdin)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv], input=stdin, env=self.env,
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        last = proc.stderr.rstrip().rsplit("\n", 1)[-1].split()
        if len(last) == 2 and last[0] == "vmhwm_kb":
            self.child_peak_kb = max(self.child_peak_kb, int(last[1]))
        return proc.returncode, proc.stdout

    def known_defects(self) -> dict:
        """The non-finite payloads, run in this process: how many do not exit 2."""
        codes = [_run_in_process(argv, stdin)[0] for argv, stdin in _NON_FINITE]
        return {"cli_non_finite_exit_2": (sum(c != 2 for c in codes), len(codes))}

    def check(self, op, out) -> str:
        _, _, want, judge = op
        code, stdout = out
        if code != want:
            return WRONG if code == 0 else ERROR
        if judge is None:
            return OK
        report = json.loads(stdout)
        return _verdict(report["ok"] is (want == 0) and judge(report))


def _parts_sum(report, names, ctx) -> KForm:
    parts = [kform_from_json(report["outputs"][n], ctx) for n in names]
    return sum(parts[1:], parts[0])


def _run_in_process(argv, stdin):
    """`g2kit.cli.main(argv)` with captured stdio; an escaping exception exits 1."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = g2kit.cli.main(argv)
            except Exception:  # an uncaught traceback exits 1 in a child
                code = 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def make(name: str, in_process: bool = False):
    """The workload called `name`; `in_process` runs cli_mix without children."""
    if name == "family_exact":
        return Family("exact")
    if name == "family_float":
        return Family("float")
    if name == "structures_exact":
        return Structures()
    if name == "cli_mix":
        return CliMix(in_process)
    raise ValueError(f"unknown workload {name!r}")
