"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Every exact-mode assertion is literal equality; float checks carry their
stated tolerances inline.
"""
import functools
import json
import math
import random
import time
from fractions import Fraction

from g2kit.bryant import (
    TwistParams,
    TwistTangent,
    derivative_rank,
    recover,
    sample_params,
    twist,
    twist_decomposed,
    twist_derivative,
)
from g2kit.cli import main
from g2kit.exterior import BASIS, DIM, KForm, form_inner, hodge_star, wedge
from g2kit.g2core import (
    decompose3,
    infinitesimal_action,
    metric_from_phi,
    odot,
    phi0,
    standard_structure,
    triple_star_sign,
)
from g2kit.liegroup import (
    HolonomySpec,
    bracket,
    coset_tangent_dim,
    g2_algebra_basis,
    lie_normalizer,
    so7_basis,
)
from g2kit.models import (
    covering_sheet_count,
    flat_model,
    gamma_sample,
    model_phi,
    model_structure,
    translation_orbit,
)
from g2kit.context import EXACT
from g2kit.sampling import rational_kform

BASIS3 = [KForm.basis(idx) for idx in BASIS[3]]
BASIS2 = [KForm.basis(idx) for idx in BASIS[2]]


def criterion(n, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL - {desc}")
                raise
            print(f"criterion {n}: PASS - {desc}")
        return run
    return wrap


@criterion(1, "standard form: identity metric, orientation +1, |phi|^2 = 7, all exact")
def test_criterion_1():
    s = standard_structure()
    g, o = metric_from_phi(phi0())
    assert o.sign == 1
    assert all(g.rows[i][j] == (1 if i == j else 0)
               for i in range(DIM) for j in range(DIM))
    assert form_inner(phi0(), phi0(), g) == 7
    assert s.metric.is_euclidean


@criterion(2, "2-form eigenspaces have dims 7 and 14; 3-form projector ranks 1/7/27, exact")
def test_criterion_2():
    s = standard_structure()
    cols = [hodge_star(wedge(s.phi, b), s.metric, s.orientation).coeffs for b in BASIS2]
    t = [[cols[j][i] for j in range(21)] for i in range(21)]
    t_minus_2 = [[t[i][j] - (2 if i == j else 0) for j in range(21)] for i in range(21)]
    t_plus_1 = [[t[i][j] + (1 if i == j else 0) for j in range(21)] for i in range(21)]
    assert 21 - EXACT.rank(t_minus_2) == 7
    assert 21 - EXACT.rank(t_plus_1) == 14
    for name, expected in (("p1", 1), ("p7", 7), ("p27", 27)):
        images = [getattr(decompose3(b, s), name).coeffs for b in BASIS3]
        assert EXACT.rank([list(v) for v in images]) == expected


@criterion(3, "quadratic 1-form law: leading part is (3/7)|w|^2 phi at 100 rational points")
def test_criterion_3():
    s = standard_structure()
    rng = random.Random(3)
    for _ in range(100):
        w = rational_kform(rng, 1)
        q = wedge(w, hodge_star(wedge(w, s.star_phi), s.metric, s.orientation))
        p1 = decompose3(q, s).p1
        w2 = form_inner(w, w, s.metric)
        assert (p1 - Fraction(3, 7) * w2 * s.phi).max_abs() == 0


@criterion(4, "double contraction against the dual form returns 3*star, exact, 100 forms")
def test_criterion_4():
    s = standard_structure()
    sigma = triple_star_sign()
    assert sigma in (1, -1)
    rng = random.Random(4)
    for _ in range(100):
        a = rational_kform(rng, 1)
        lhs = wedge(s.star_phi, hodge_star(wedge(s.star_phi, a), s.metric, s.orientation))
        rhs = 3 * sigma * hodge_star(a, s.metric, s.orientation)
        assert (lhs - rhs).max_abs() == 0


@criterion(5, "twist family: exact metric/orientation, parts agree, inner law, recovery, 100 points")
def test_criterion_5():
    s = standard_structure()
    rng = random.Random(5)
    points = [sample_params(rng) for _ in range(90)]
    points += [sample_params(rng, force_c_zero=True) for _ in range(10)]
    for p in points:
        phit = twist(s, p)
        g, o = metric_from_phi(phit)
        assert o.sign == 1
        assert all(g.rows[i][j] == s.metric.rows[i][j]
                   for i in range(DIM) for j in range(DIM))
        d = twist_decomposed(s, p)
        ref = decompose3(phit, s)
        assert (d.p1 - ref.p1).max_abs() == 0
        assert (d.p7 - ref.p7).max_abs() == 0
        assert (d.p27 - ref.p27).max_abs() == 0
        assert form_inner(phit, s.phi, s.metric) == 8 * p.c * p.c - 1
        rec = recover(s, phit)
        assert rec.params.equivalent_to(p)


@criterion(6, "derivative: FD rel err <= 1e-6 at h = 1e-5 (50 pts), exact equator identity, rank 7 (20 pts)")
def test_criterion_6():
    s = standard_structure()
    sf = standard_structure("float")
    rng = random.Random(6)
    h = 1e-5
    done = 0
    while done < 50:
        p = sample_params(rng)
        base = [float(p.c)] + [float(x) for x in p.omega.coeffs]
        q = sample_params(rng)
        vec = [float(q.c)] + [float(x) for x in q.omega.coeffs]
        dot = sum(x * y for x, y in zip(vec, base))
        vec = [x - dot * y for x, y in zip(vec, base)]
        n = math.sqrt(sum(x * x for x in vec))
        if n < 1e-6:
            continue
        vec = [x / n for x in vec]

        def at(theta):
            cs, sn = math.cos(theta), math.sin(theta)
            return twist(sf, TwistParams(
                cs * base[0] + sn * vec[0],
                KForm(1, tuple(cs * b + sn * v for b, v in zip(base[1:], vec[1:])))))

        fd = (at(h) - at(-h)) * (1.0 / (2 * h))
        an = twist_derivative(sf, TwistParams(base[0], KForm(1, tuple(base[1:]))),
                              TwistTangent(vec[0], KForm(1, tuple(vec[1:]))))
        rel = float((fd - an).max_abs()) / max(float(an.max_abs()), 1e-12)
        assert rel <= 1e-6
        done += 1

    for _ in range(10):
        p = sample_params(rng, force_c_zero=True)
        wdot = rational_kform(rng, 1)
        wdot = wdot - p.omega * form_inner(wdot, p.omega, s.metric)
        t = TwistTangent(Fraction(0), wdot)
        hmat = [[2 * (wdot.coeffs[i] * p.omega.coeffs[j] + p.omega.coeffs[i] * wdot.coeffs[j])
                 for j in range(DIM)] for i in range(DIM)]
        assert (twist_derivative(s, p, t) - odot(hmat, s)).max_abs() == 0

    rank_points = [sample_params(rng) for _ in range(15)]
    rank_points += [sample_params(rng, force_c_zero=True) for _ in range(5)]
    for p in rank_points:
        assert derivative_rank(s, p, DIM) == 7


@criterion(7, "stabilizer algebra: dim 14, bracket closed, self-normalizing, exact action kernel, coset dim 7")
def test_criterion_7():
    s = standard_structure()
    g2 = g2_algebra_basis(s)
    assert g2.dim == 14
    g2_vecs = [[m[i][j] for i in range(DIM) for j in range(i + 1, DIM)]
               for m in g2.matrices]
    closed = list(g2_vecs)
    for a in g2.matrices:
        for b in g2.matrices:
            br = bracket([list(r) for r in a], [list(r) for r in b])
            closed.append([br[i][j] for i in range(DIM) for j in range(i + 1, DIM)])
    assert EXACT.rank(closed) == 14

    assert lie_normalizer(so7_basis(EXACT), g2).dim == 14

    cols = [infinitesimal_action(e, s).coeffs for e in so7_basis(EXACT).matrices]
    act = [[cols[j][i] for j in range(21)] for i in range(len(cols[0]))]
    kernel = EXACT.nullspace(act)
    assert len(kernel) == 14
    assert EXACT.rank(g2_vecs + [list(v) for v in kernel]) == 14

    assert coset_tangent_dim(HolonomySpec.trivial(), s) == 7


@criterion(8, "flat models: standard form exactly, rank = b1 in {7,1,3}, torus orbits singletons, one sheet")
def test_criterion_8():
    rng = random.Random(8)
    for kind, b1 in (("t7", 7), ("s1xcy3", 1), ("t3xk3", 3)):
        m = flat_model(kind)
        assert m.b1 == b1
        assert (model_phi(m) - phi0()).max_abs() == 0
        st = model_structure(kind)
        p = gamma_sample(m, rng)
        assert derivative_rank(st, p.params, m.b1) == m.b1
    t7 = flat_model("t7")
    pt = gamma_sample(t7, rng)
    translations = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(DIM)]
                    for _ in range(25)]
    assert translation_orbit(t7, pt, translations) == (pt,)
    assert covering_sheet_count(t7, pt, rng) == 1


@criterion(9, "CLI: selftest exits 0 in under 60 s enumerating the invariants; malformed exits 2; off-sphere twist exits 1")
def test_criterion_9(capsys, tmp_path):
    t0 = time.perf_counter()
    code = main(["selftest", "--output", "json"])
    wall = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert wall < 60.0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["outputs"]["failures"] == []
    assert report["outputs"]["checks_run"] == 46
    names = [r["name"] for r in report["outputs"]["results"]]
    assert all(r["passed"] for r in report["outputs"]["results"])
    for fragment in (
        "phi_metric_identity", "two_form_spectrum", "projector_ranks",
        "quadratic_term_parts", "triple_star_identity",
        "twist_fixes_metric", "twist_inner_product", "recover_roundtrip",
        "derivative_matches_difference", "derivative_full_rank",
        "zero_c_symmetric_derivative", "algebra_dimension",
        "normalizer_in_so7", "coset_dimensions", "standard_forms",
        "rank_matches_b1", "translations_act_trivially",
    ):
        assert any(fragment in n for n in names), fragment

    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["decompose", str(bad), "--degree", "3"]) == 2

    omega = '{"degree": 1, "entries": [{"idx": [1], "coeff": "1"}]}'
    assert main(["twist", "--c", "1", "--omega", omega]) == 1
