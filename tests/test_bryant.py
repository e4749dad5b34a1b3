"""The metric-preserving family: twisting, recovery, derivatives."""
import cProfile
import json
import math
import pstats
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2kit import bryant, exterior, g2core
from g2kit.bryant import (
    TwistParams,
    TwistTangent,
    derivative_margin,
    derivative_matrix,
    derivative_rank,
    recover,
    sample_params,
    tangent_basis,
    twist,
    twist_decomposed,
    twist_derivative,
)
from g2kit.context import C_ZERO_SWITCH, CONSTRAINT_TOL, FLOAT, RECOVERY_TOL, Context
from g2kit.errors import (
    ConstraintError,
    DecompositionError,
    DegreeError,
    ExactModeError,
    G2KitError,
    MetricMismatchError,
    NotG2FormError,
    RecoveryError,
    TangencyError,
)
from g2kit.exterior import DIM, KForm, coerce_form, form_inner, hodge_star, pullback, wedge
from g2kit.g2core import (
    Decomposition3,
    G2Structure,
    decompose2,
    decompose3,
    frame_coordinates,
    metric_from_phi,
    odot,
    odot_inverse,
    phi0,
    standard_structure,
)
from g2kit.models import flat_model, gamma_sample, model_structure
from g2kit.sampling import rational_kform, rational_unit_tuple
from g2kit.serialize import g2structure_from_json, g2structure_to_json
from test_kernels import (
    float_frame,
    frame_structure,
    rational_frames,
    ref_apply_sparse,
    ref_metric_matches,
    ref_solve,
    same,
)


def sphere_points():
    # stereographic image of an integer vector is exactly on the unit sphere
    vec = st.lists(st.integers(-5, 5), min_size=7, max_size=7)

    def build(u):
        n = sum(x * x for x in u)
        c = Fraction(1 - n, 1 + n)
        w = tuple(Fraction(2 * x, 1 + n) for x in u)
        return TwistParams(c, KForm(1, w))

    return vec.map(build)


ZERO1 = KForm.zero(1)


def test_identity_points(s):
    assert (twist(s, TwistParams(1, ZERO1)) - s.phi).max_abs() == 0
    assert (twist(s, TwistParams(-1, ZERO1)) - s.phi).max_abs() == 0


def test_equator_twist_frozen(s):
    # direction dx1: flips the block away from dx1 and doubles into it
    p = TwistParams(0, KForm.from_entries(1, {(1,): 1}))
    expect = KForm.from_entries(3, {
        (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1,
        (2, 4, 6): -1, (2, 5, 7): 1, (3, 4, 7): 1, (3, 5, 6): 1,
    })
    assert (twist(s, p) - expect).max_abs() == 0


def test_rational_point_twist_frozen(s):
    p = TwistParams(Fraction(3, 5), KForm.from_entries(1, {(1,): Fraction(4, 5)}))
    out = twist(s, p)
    assert out.coeff(1, 2, 3) == 1 and out.coeff(1, 4, 5) == 1 and out.coeff(1, 6, 7) == 1
    assert out.coeff(2, 4, 6) == Fraction(-7, 25)
    assert out.coeff(2, 4, 7) == Fraction(24, 25)
    assert out.coeff(3, 5, 7) == Fraction(-24, 25)
    assert form_inner(out, s.phi, s.metric) == Fraction(47, 25)


def test_constraint_enforced(s):
    with pytest.raises(ConstraintError):
        twist(s, TwistParams(1, KForm.from_entries(1, {(1,): 1})))
    with pytest.raises(DegreeError):
        TwistParams(1, KForm.zero(2))


def test_antipode_and_canonical():
    p = TwistParams(Fraction(-3, 5), KForm.from_entries(1, {(2,): Fraction(4, 5)}))
    q = p.canonical()
    assert q.c == Fraction(3, 5)
    assert q.omega.coeff(2) == Fraction(-4, 5)
    r = TwistParams(0, KForm.from_entries(1, {(3,): -1})).canonical()
    assert r.omega.coeff(3) == 1
    assert p.equivalent_to(q)


# cond(a^T a) about 29: float recover of the rounded exact twist of
# (0, pullback(dx_2, a)) read omega's first coefficient, 0 in the exact
# lane, as 5.7e-17, and canonical took its sign: the float point was the
# antipode of the exact canonical point.
C_ZERO_CANONICAL_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "0 1/2 1 1 1/2 -1 -1",
    "0 -1/2 -2 1 -2 2 1/3",
    "1 -1/2 0 1 0 1 1",
    "2 0 -1 -1/3 -1/2 0 1/3",
    "-2 1 1/3 -2/3 -2/3 2 1",
    "-1 1/2 -2 1/2 1 -1/2 -2",
    "2 -1 1 -2 1 0 -1",
)]


def test_float_canonical_at_c_zero_skips_rounding_noise():
    """At c = 0 a float omega's sign comes from its first coefficient beyond
    the lane's tol times max(1, |omega|): float recover on
    C_ZERO_CANONICAL_FRAME returns the exact canonical point, not its
    antipode.  The exact lane's first nonzero coefficient decides however
    small it is."""
    a = C_ZERO_CANONICAL_FRAME
    sf = G2Structure(pullback(phi0(FLOAT), [[float(x) for x in row] for row in a]), FLOAT)
    p = TwistParams(0, pullback(KForm.basis((2,)), a))
    want = p.canonical().omega
    assert want.coeffs[0] == 0 and want.coeffs[1] > 0
    got = recover(sf, twist(frame_structure(a), p).as_float()).params
    assert got.c == 0 and got.omega.isclose(want.as_float(), 1e-9)
    for ctx in (Context("exact"), FLOAT):
        tiny = TwistParams(ctx.zero, KForm.from_entries(1, {(1,): Fraction(-1, 10 ** 30), (2,): 1}, ctx))
        assert tiny.canonical() == (tiny.antipode() if ctx.is_exact else tiny)


@given(sphere_points())
@settings(max_examples=40, deadline=None)
def test_twist_preserves_metric(p):
    s = standard_structure()
    g, o = metric_from_phi(twist(s, p))
    assert o.sign == 1
    assert all(g.rows[i][j] == (1 if i == j else 0)
               for i in range(DIM) for j in range(DIM))


@given(sphere_points())
@settings(max_examples=40, deadline=None)
def test_twist_antipode_equal(p):
    s = standard_structure()
    assert (twist(s, p) - twist(s, p.antipode())).max_abs() == 0


@given(sphere_points())
@settings(max_examples=40, deadline=None)
def test_twist_inner_law(p):
    s = standard_structure()
    assert form_inner(twist(s, p), s.phi, s.metric) == 8 * p.c * p.c - 1


@given(sphere_points())
@settings(max_examples=20, deadline=None)
def test_twist_decomposed_matches(p):
    s = standard_structure()
    phit = twist(s, p)
    dd = twist_decomposed(s, p)
    d = decompose3(phit, s)
    assert (dd.total() - phit).max_abs() == 0
    for a, b in ((dd.p1, d.p1), (dd.p7, d.p7), (dd.p27, d.p27)):
        assert (a - b).max_abs() == 0


# -- recovery -----------------------------------------------------------------


def test_recover_roundtrip_generic(s, rng):
    for _ in range(8):
        p = sample_params(rng)
        rec = recover(s, twist(s, p))
        assert rec.params.equivalent_to(p)
        assert rec.residual == 0


def test_recover_roundtrip_equator(s, rng):
    for _ in range(4):
        p = sample_params(rng, force_c_zero=True)
        rec = recover(s, twist(s, p))
        assert rec.params.equivalent_to(p)
        assert rec.residual == 0


def test_recover_is_canonical(s, rng):
    p = sample_params(rng)
    rec = recover(s, twist(s, p.antipode()))
    assert rec.params.c > 0 or (rec.params.c == 0)


def test_recover_float_roundtrip(sf, rng):
    for _ in range(5):
        p = sample_params(rng)
        pf = TwistParams(float(p.c), p.omega.as_float())
        rec = recover(sf, twist(sf, pf))
        assert rec.params.equivalent_to(pf, tol=1e-8)
        assert rec.residual <= 1e-9


def test_recover_rejects_foreign_metric(s):
    d = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    with pytest.raises(MetricMismatchError):
        recover(s, pullback(phi0(), d))


def test_recover_rejects_orientation_flip(s):
    with pytest.raises(MetricMismatchError):
        recover(s, phi0() * -1)


def test_recover_rejects_noise(sf, rng):
    p = sample_params(rng)
    pf = TwistParams(float(p.c), p.omega.as_float())
    noisy = twist(sf, pf) + KForm.from_entries(3, {(1, 2, 4): 1e-3}, FLOAT)
    with pytest.raises((RecoveryError, MetricMismatchError)):
        recover(sf, noisy)


def test_two_step_twists_stay_in_family(s, rng):
    p1 = sample_params(rng)
    s1 = G2Structure(twist(s, p1))
    p2 = sample_params(rng)
    rec = recover(s, twist(s1, p2))
    assert rec.residual == 0


# -- derivatives ---------------------------------------------------------------


def test_tangency_enforced(s):
    p = TwistParams(1, ZERO1)
    bad = TwistTangent(1, ZERO1)  # radial direction
    with pytest.raises(TangencyError):
        twist_derivative(s, p, bad)


def test_derivative_at_pole_is_pure_seven_part(s):
    # at (1, 0) the c-line is radial; the omega directions give pure 7-parts
    t = TwistTangent(0, KForm.from_entries(1, {(1,): 1}))
    out = twist_derivative(s, TwistParams(1, ZERO1), t)
    d = decompose3(out, s)
    assert d.p1.max_abs() == 0 and d.p27.max_abs() == 0
    assert (out - d.p7).max_abs() == 0


def test_derivative_matches_finite_difference(sf, rng):
    h = 1e-5
    for _ in range(15):
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


def test_zero_c_derivative_is_symmetric_tensor_action(s, rng):
    for _ in range(6):
        p = sample_params(rng, force_c_zero=True)
        wdot = rational_kform(rng, 1)
        wdot = wdot - p.omega * form_inner(wdot, p.omega, s.metric)
        t = TwistTangent(Fraction(0), wdot)
        h = [[2 * (wdot.coeffs[i] * p.omega.coeffs[j] + p.omega.coeffs[i] * wdot.coeffs[j])
              for j in range(DIM)] for i in range(DIM)]
        assert (twist_derivative(s, p, t) - odot(h, s)).max_abs() == 0


def test_derivative_rank_seven(s, rng):
    pts = [TwistParams(1, ZERO1)]
    pts += [sample_params(rng) for _ in range(4)]
    pts += [sample_params(rng, force_c_zero=True) for _ in range(2)]
    for p in pts:
        assert derivative_rank(s, p, DIM) == 7


def test_derivative_margin_positive(s, rng):
    lo, hi = derivative_margin(s, TwistParams(1, ZERO1), DIM)
    assert lo == pytest.approx(4.0, abs=1e-9)
    assert hi == pytest.approx(4.0, abs=1e-9)
    lo2, _ = derivative_margin(s, sample_params(rng), DIM)
    assert lo2 > 0.1


def test_derivative_rank_in_subspace(s, rng):
    for d in (1, 3):
        p = sample_params(rng, subspace_dim=d)
        assert derivative_rank(s, p, d) == d
        mat = derivative_matrix(s, p, d)
        assert len(mat[0]) == d


def test_tangent_basis_shape(s, rng):
    p = sample_params(rng)
    basis = tangent_basis(s, p, DIM)
    assert len(basis) == 7
    for t in basis:
        assert t.tangency_residual(p, s) == 0


def test_tangent_basis_rejects_off_subspace_point(s):
    p = TwistParams(Fraction(3, 5), KForm.from_entries(1, {(4,): Fraction(4, 5)}))
    with pytest.raises(ConstraintError):
        tangent_basis(s, p, 1)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_tangent_basis_refuses_a_point_off_the_sphere(mode):
    """tangent_basis checks p as twist and derivative_rank do: c = 2,
    omega = dx1 lies 4 off the sphere, so it raises the ConstraintError
    they raise rather than return 7 vectors; the ambient ValueError and the
    subspace ConstraintError come first, in that order."""
    s = standard_structure(mode)
    p = TwistParams(2, KForm.from_entries(1, {(1,): 1}, s.ctx))
    for call in (lambda: twist(s, p), lambda: derivative_rank(s, p, 7),
                 lambda: tangent_basis(s, p, 7)):
        with pytest.raises(ConstraintError, match=r"c\^2 \+ \|omega\|\^2 - 1 = 4"):
            call()
    off_both = TwistParams(1, KForm.from_entries(1, {(4,): 1}, s.ctx))
    with pytest.raises(ValueError, match="ambient_dim must be 1..7"):
        tangent_basis(s, off_both, 0)
    with pytest.raises(ConstraintError, match="leaves the ambient coordinate subspace"):
        tangent_basis(s, off_both, 3)


# -- kept references: Bryant's formula written out three times by hand, and the
# -- float c = 0 square root through numpy's eigh -----------------------------


def ref_twist(s, p):
    c, w = p.c, p.omega
    m, o = s.metric, s.orientation
    w2 = form_inner(w, w, m)
    out = (c * c - w2) * s.phi
    out = out + (2 * c) * hodge_star(wedge(w, s.phi), m, o)
    out = out + 2 * wedge(w, hodge_star(wedge(w, s.star_phi), m, o))
    return out


def ref_twist_decomposed(s, p):
    c, w = p.c, p.omega
    m, o = s.metric, s.orientation
    w2 = form_inner(w, w, m)
    p1 = ((8 * c * c - 1) / 7) * s.phi
    p7 = (2 * c) * hodge_star(wedge(w, s.phi), m, o)
    p27 = 2 * wedge(w, hodge_star(wedge(w, s.star_phi), m, o)) - (6 * w2 / 7) * s.phi
    return p1, p7, p27


def ref_twist_derivative(s, p, t):
    c, w = p.c, p.omega
    cd, wd = t.c_dot, t.omega_dot
    m, o = s.metric, s.orientation
    out = (4 * c * cd) * s.phi
    out = out + (2 * cd) * hodge_star(wedge(w, s.phi), m, o)
    out = out + (2 * c) * hodge_star(wedge(wd, s.phi), m, o)
    out = out + 2 * wedge(wd, hodge_star(wedge(w, s.star_phi), m, o))
    out = out + 2 * wedge(w, hodge_star(wedge(wd, s.star_phi), m, o))
    return out


def ref_float_recover_c_zero(s, phit):
    """omega from the top eigenpair of b = 2 w w^T, rank one within 1e-8 relative."""
    b = np.asarray(odot_inverse(phit + s.phi, s).rows, dtype=float)
    vals, vecs = np.linalg.eigh(b)
    lam = vals[-1]
    assert lam > 0 and np.max(np.abs(vals[:-1])) <= 1e-8 * lam
    w = np.sqrt(lam / 2.0) * vecs[:, -1]
    return TwistParams(0.0, KForm(1, tuple(float(x) for x in w))).canonical()


@given(sphere_points())
@settings(max_examples=20, deadline=None)
def test_twist_formulas_equal_hand_written_references(p):
    """One bilinear map gives all three formulas: literally equal in the exact
    lane; in the float lane the table sums round in another order than the
    star chains, so each sits within 1e-12 of its reference."""
    s = standard_structure()
    assert twist(s, p) == ref_twist(s, p)
    d = twist_decomposed(s, p)
    assert (d.p1, d.p7, d.p27) == ref_twist_decomposed(s, p)
    for t in tangent_basis(s, p, DIM):
        assert twist_derivative(s, p, t) == ref_twist_derivative(s, p, t)
    sf = standard_structure("float")
    pf = TwistParams(float(p.c), p.omega.as_float())
    assert (twist(sf, pf) - ref_twist(sf, pf)).max_abs() <= 1e-12
    d = twist_decomposed(sf, pf)
    for got, want in zip((d.p1, d.p7, d.p27), ref_twist_decomposed(sf, pf)):
        assert (got - want).max_abs() <= 1e-12
    for t in tangent_basis(sf, pf, DIM):
        gap = twist_derivative(sf, pf, t) - ref_twist_derivative(sf, pf, t)
        assert gap.max_abs() <= 1e-12


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_c_zero_recovery_matches_eigh_reference(kind, rng):
    m = flat_model(kind)
    s, sf = model_structure(kind, "exact"), model_structure(kind, "float")
    for _ in range(6):
        p = gamma_sample(m, rng, force_c_zero=True).params
        rec = recover(s, twist(s, p))
        assert rec.params == p and rec.residual == 0
        # c = 0 exactly and c = 1e-12: recover sets a |c| at or below C_ZERO_SWITCH to 0
        for c in (0.0, 1e-12):
            phit = twist(sf, TwistParams(c, p.omega.as_float()))
            want = ref_float_recover_c_zero(sf, phit)
            got = recover(sf, phit).params
            assert got.c == 0.0 and (got.omega - want.omega).max_abs() <= 1e-12


def assert_table_twist_equals_references(s, p, tol=0.0):
    """twist and twist_decomposed on the polarized table against the star
    chains ref_twist and ref_twist_decomposed: literally when tol is 0, else
    within tol times the twist's largest coefficient."""
    want = ref_twist(s, p)
    d = twist_decomposed(s, p)
    got, wants = (twist(s, p), d.p1, d.p7, d.p27), (want, *ref_twist_decomposed(s, p))
    if tol == 0.0:
        assert got == wants
    else:
        scale = want.max_abs()
        assert all((x - y).max_abs() <= tol * scale for x, y in zip(got, wants))
    return got


@given(st.sampled_from(["t7", "s1xcy3", "t3xk3"]), st.sampled_from(["generic", "c_zero", "pole"]),
       st.booleans(), st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_table_twist_equals_star_chain_on_models(kind, where, flip, seed):
    """On the three models, at generic points, at c = 0 and at the poles
    c = +-1 (w = 0, where only B(e_c, e_c) enters the sums), and at their
    antipodes: literally in the exact lane, within 1e-12 (relative) in the
    float lane."""
    if where == "pole":
        p = TwistParams(Fraction(1), KForm.zero(1))
    else:
        p = sample_params(random.Random(seed), flat_model(kind).b1, force_c_zero=where == "c_zero")
    if flip:
        p = p.antipode()
    assert_table_twist_equals_references(model_structure(kind, "exact"), p)
    assert_table_twist_equals_references(model_structure(kind, "float"), float_point(p), 1e-12)


# cond(a^T a) about 496: at (0, dx_7) the float star chain ref_twist missed
# the float table twist by 1.03e-12 of its largest coefficient, in the 27-part,
# while the table twist is 3.9e-14 from the float image of the exact twist
STAR_CHAIN_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "-2 2 -2 1/2 1/2 1 1/3",
    "1 2 0 1/2 -1 -2 0",
    "-2 -1 0 2 0 1 -1/3",
    "0 1/2 0 1/2 -2/3 0 2",
    "0 2 -1/3 1/3 -1 -2 -2/3",
    "2/3 -1 1/3 -1/2 2 0 1/2",
    "-1/2 1 2/3 2 -2 0 1/3",
)]


@given(rational_frames(), sphere_points())
@example(STAR_CHAIN_FRAME, TwistParams(0, KForm.basis((DIM,))))
@settings(max_examples=8, deadline=None)
def test_table_twist_equals_star_chain_on_rational_frames(a, p):
    """On frames of both orientations, where the metric is not Euclidean and
    *phi carries sqrt(det g): the exact table twist and its parts equal the
    star chains literally, and on frames with cond(a^T a) <= 1e3 the float
    ones lie within 1e-12 of the float image of the exact ones, relative to
    the twist's largest coefficient.  The float lane is held to the exact
    values, not to the float star chains, whose own rounding is the larger
    (up to 1.5e-12 where the table's is 2.8e-13, on 971 seeded frames)."""
    q = frame_point(p, a)
    exact = assert_table_twist_equals_references(frame_structure(a), q)
    af = np.asarray(a, dtype=float)
    if np.linalg.cond(af.T @ af) <= 1e3:
        sf = G2Structure(pullback(phi0(FLOAT), af.tolist()), FLOAT)
        qf = float_point(q)
        d = twist_decomposed(sf, qf)
        bound = 1e-12 * float(exact[0].max_abs())
        assert all(float_gap(f, e) <= bound
                   for f, e in zip((twist(sf, qf), d.p1, d.p7, d.p27), exact))


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_recover_float_roundtrip_near_the_equator(kind, rng):
    """Float twist -> recover round trips at |c| from 1e-4 to 2e-2, both
    signs.  There w = -g coords / (2c) carries the error of c, so the
    recovered point drifts off the sphere, and the re-twist checks the
    constraint within the absolute CONSTRAINT_TOL; recover puts the point
    back onto the sphere first."""
    s, b1 = model_structure(kind, "float"), flat_model(kind).b1
    for c in (1e-4, 1e-3, 3e-3, 1e-2, 2e-2):
        for sign in (1.0, -1.0):
            w = [rng.gauss(0.0, 1.0) for _ in range(b1)]
            scale = math.sqrt(1.0 - c * c) / math.sqrt(sum(x * x for x in w))
            p = TwistParams(sign * c, KForm(1, tuple(x * scale for x in w) + (0.0,) * (DIM - b1)))
            assert recover(s, twist(s, p)).params.equivalent_to(p, FLOAT.tol)


# -- the star-free derivative and recovery against the star chains they
# -- replaced, on the flat models and on non-Euclidean rational frames ---------


def ref_polarization(s, c, w, d, v):
    """B((c, w), (d, v)), Bryant's formula polarized, from four Hodge stars."""
    m, o = s.metric, s.orientation

    def seven(x):
        return hodge_star(wedge(x, s.phi), m, o)

    def quadratic(x, y):
        return wedge(x, hodge_star(wedge(y, s.star_phi), m, o))

    return ((c * d - form_inner(w, v, m)) * s.phi + c * seven(v) + d * seven(w)
            + quadratic(w, v) + quadratic(v, w))


def ref_derivative_matrix(s, p, ambient_dim):
    """The earlier derivative_matrix: per tangent, 2 B(p, t) from four Hodge stars."""
    cols = []
    for t in tangent_basis(s, p, ambient_dim):
        out = ref_polarization(s, p.c, p.omega, t.c_dot, t.omega_dot)
        cols.append((2 * out).coeffs)
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def ref_recover_c_positive(s, phit):
    """The earlier generic branch: the 7-part solved against the 7 columns 2c *(dx_i ^ phi)."""
    c = s.ctx.sqrt((form_inner(phit, s.phi, s.metric) + 1) / 8)
    target = decompose3(phit, s).p7
    cols = [((2 * c) * hodge_star(wedge(KForm.basis((i,)), s.phi), s.metric, s.orientation)).coeffs
            for i in range(1, DIM + 1)]
    amat = [[cols[j][i] for j in range(DIM)] for i in range(len(target.coeffs))]
    x, _resid = ref_solve(s.ctx, amat, list(target.coeffs))
    return TwistParams(c, KForm(1, tuple(x)))


def frame_point(p, a):
    """A point on the sphere of the structure pulled back by a: omega pulled back too."""
    return TwistParams(p.c, pullback(p.omega, a))


def float_point(p):
    return TwistParams(float(p.c), p.omega.as_float())


def assert_star_free_tables(s):
    m, o = s.metric, s.orientation
    for j in range(DIM):
        dx = KForm.basis((j + 1,))
        assert s.star_dx_phi[j] == hodge_star(wedge(dx, s.phi), m, o)
        assert s.star_dx_star_phi[j] == hodge_star(wedge(dx, s.star_phi), m, o)


def assert_matches_star_references(s, p, ambient_dim):
    assert derivative_matrix(s, p, ambient_dim) == ref_derivative_matrix(s, p, ambient_dim)
    if p.c:
        phit = twist(s, p)
        assert recover(s, phit).params == ref_recover_c_positive(s, phit).canonical()


def assert_float_close_to_star_references(sf, pf, ambient_dim):
    got = np.asarray(derivative_matrix(sf, pf, ambient_dim))
    want = np.asarray(ref_derivative_matrix(sf, pf, ambient_dim))
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    phit = twist(sf, pf)
    rec, ref = recover(sf, phit).params, ref_recover_c_positive(sf, phit).canonical()
    assert abs(rec.c - ref.c) <= FLOAT.tol and rec.omega.isclose(ref.omega, FLOAT.tol)


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_star_free_derivative_and_recovery_on_models(kind, rng):
    m = flat_model(kind)
    s, sf = model_structure(kind, "exact"), model_structure(kind, "float")
    assert_star_free_tables(s)
    for _ in range(4):
        p = sample_params(rng, m.b1)
        assert_matches_star_references(s, p, m.b1)
        assert_float_close_to_star_references(sf, float_point(p), m.b1)
    p = sample_params(rng, m.b1, force_c_zero=True)
    assert derivative_matrix(s, p, m.b1) == ref_derivative_matrix(s, p, m.b1)


@given(rational_frames(), sphere_points())
@settings(max_examples=6, deadline=None)
def test_star_free_derivative_and_recovery_on_rational_frames(a, p):
    """Literal equality in the exact lane on frames of both orientations, where
    the tables come from a non-Euclidean metric and star_phi carries sqrt(det g)."""
    s = frame_structure(a)
    assert_star_free_tables(s)
    q = frame_point(p, a)
    assert_matches_star_references(s, q, DIM)
    for t in tangent_basis(s, q, DIM)[:2]:
        assert twist_derivative(s, q, t) == ref_twist_derivative(s, q, t)


def unit_directions(ctx):
    """The coordinate directions e_c, dx_1..dx_7 of the parameters, as (c, w)."""
    return [(ctx.one, KForm.zero(1, ctx))] + [
        (ctx.zero, KForm.from_entries(1, {(j,): 1}, ctx)) for j in range(1, DIM + 1)]


def dense_polarized_table(s):
    """(rows, den): the structure's sparse polarized table with each pair's
    (position, value) entries spread over 35 scaled numerators, after
    checking that the entries are nonzero, in increasing position, and one
    tuple shared by (a, b) and (b, a)."""
    table, den = s.polarized_table
    rows = []
    for a, row in enumerate(table):
        rows.append([])
        for b, entries in enumerate(row):
            assert entries is table[b][a]
            assert all(v for _, v in entries)
            assert [k for k, _ in entries] == sorted({k for k, _ in entries})
            num = [s.ctx.scaled_zero] * len(s.phi.num)
            for k, v in entries:
                num[k] = v
            rows[a].append(num)
    return rows, den


def assert_polarized_table(s, points):
    """The structure's polarized table is symmetric, each entry is the
    star-chain polarization of two coordinate directions, and
    sum x_a x_b B(a, b) is the twist at each point, all literally."""
    rows, den = dense_polarized_table(s)
    units = unit_directions(s.ctx)
    for a, (c, w) in enumerate(units):
        for b in range(a, len(units)):
            assert rows[a][b] == rows[b][a]
            assert KForm._of(3, rows[a][b], den, s.ctx) == ref_polarization(s, c, w, *units[b])
    for p in points:
        (xs,), xden = s.ctx.scaled([[p.c, *p.omega.coeffs]])
        num = [sum(x * y * rows[a][b][i] for a, x in enumerate(xs) for b, y in enumerate(xs))
               for i in range(len(rows[0][0]))]
        assert KForm._of(3, num, den * xden * xden, s.ctx) == twist(s, p)


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_polarized_table_on_models(kind, rng):
    """Exact on the flat models; the float table within 1e-12 of the exact one."""
    m = flat_model(kind)
    s, sf = model_structure(kind, "exact"), model_structure(kind, "float")
    points = [sample_params(rng, m.b1) for _ in range(3)]
    assert_polarized_table(s, points + [sample_params(rng, m.b1, force_c_zero=True)])
    (rows, den), (frows, fden) = dense_polarized_table(s), dense_polarized_table(sf)
    assert fden == 1
    assert max(abs(x / den - y) for ra, fa in zip(rows, frows) for r, f in zip(ra, fa)
               for x, y in zip(r, f)) <= 1e-12


@given(rational_frames(), sphere_points())
@settings(max_examples=6, deadline=None)
def test_polarized_table_on_rational_frames(a, p):
    """On frames of both orientations: a non-Euclidean metric, and *phi
    carrying sqrt(det g)."""
    s = frame_structure(a)
    assert_polarized_table(s, [frame_point(p, a)])


@given(rational_frames(), sphere_points())
@settings(max_examples=6, deadline=None)
def test_tangent_basis_uses_the_metric(a, p):
    """The tangent space is the kernel of c c_dot + <omega, v> with the
    structure's inner product, so off the Euclidean metric the derivative
    still has rank 7 and each basis vector is literally tangent."""
    s = frame_structure(a)
    q = frame_point(p, a)
    basis = tangent_basis(s, q, DIM)
    assert len(basis) == DIM
    assert all(t.tangency_residual(q, s) == 0 for t in basis)
    assert derivative_rank(s, q, DIM) == DIM


def test_tangent_basis_on_sheared_frame():
    a = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[0][1] = Fraction(1)
    for sign in (1, -1):
        a[6] = [sign * x for x in a[6]]
        s = G2Structure(pullback(phi0(), a))
        assert s.orientation.sign == sign
        p = TwistParams(Fraction(3, 5), KForm.from_entries(1, {(2,): Fraction(4, 5)}))
        assert p.constraint_residual(s) == 0
        assert derivative_rank(s, p, DIM) == DIM
        assert all(t.tangency_residual(p, s) == 0 for t in tangent_basis(s, p, DIM))


@pytest.fixture
def star_calls(monkeypatch):
    """Counts hodge_star calls made through any module that imports it."""
    calls = []
    real = exterior.hodge_star

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # bryant imports no hodge_star; one it imported later would be counted too
    for module in (exterior, g2core, bryant):
        monkeypatch.setattr(module, "hodge_star", counted, raising=False)
    return calls


def test_star_count_does_not_grow_with_the_ambient_dimension(star_calls, rng):
    s = model_structure("t7", "exact")
    counts = []
    for d in range(1, DIM + 1):
        p = sample_params(rng, d)
        del star_calls[:]
        derivative_matrix(s, p, d)
        counts.append(len(star_calls))
    assert counts == [0] * DIM
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    s = G2Structure(pullback(phi0(), a))
    p = frame_point(sample_params(rng), a)
    phit = twist(s, p)
    del star_calls[:]
    recover(s, phit)
    # the final re-twist reads the polarized table, which twist built
    assert len(star_calls) == 0


@pytest.fixture
def wedge_calls(monkeypatch):
    """Counts wedge calls made through any module that imports it."""
    calls = []
    real = exterior.wedge

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # bryant imports no wedge; one it imported later would be counted too
    for module in (exterior, g2core, bryant):
        monkeypatch.setattr(module, "wedge", counted, raising=False)
    return calls


def test_warm_derivative_runs_no_wedge_and_no_star(star_calls, wedge_calls, rng):
    """Once the polarized table is built, the exact derivative is sums of
    its rows: derivative_rank, derivative_matrix and twist_derivative run
    no wedge and no Hodge star, on a model and on a non-Euclidean frame."""
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    frame = G2Structure(pullback(phi0(), a))
    cases = [(model_structure("t7", "exact"), sample_params(rng)),
             (frame, frame_point(sample_params(rng), a))]
    for s, p in cases:
        s.polarized_table
        t = tangent_basis(s, p, DIM)[0]
        del star_calls[:], wedge_calls[:]
        derivative_rank(s, p, DIM)
        derivative_matrix(s, p, DIM)
        twist_derivative(s, p, t)
        assert (len(wedge_calls), len(star_calls)) == (0, 0)


def test_warm_twist_and_recover_run_no_wedge_and_no_star(star_calls, wedge_calls, rng):
    """Once the polarized table is built, twist, twist_decomposed and the
    exact recover of a twist (its re-twist included) are sums of its
    entries: they run no wedge and no Hodge star, on a model and on a
    non-Euclidean frame."""
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    frame = G2Structure(pullback(phi0(), a))
    cases = [(model_structure("t7", "exact"), sample_params(rng)),
             (frame, frame_point(sample_params(rng), a))]
    for s, p in cases:
        phit = twist(s, p)
        del star_calls[:], wedge_calls[:]
        twist(s, p)
        twist_decomposed(s, p)
        recover(s, phit)
        assert (len(wedge_calls), len(star_calls)) == (0, 0)


def test_cold_polarized_table_runs_no_wedge(wedge_calls):
    """Each dx_i ^ u_j of the polarized table is a signed selection of u_j's
    coefficients: a cold build runs no wedge, in both lanes, on phi0 and on
    a non-Euclidean frame."""
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    for ctx in (Context("exact"), FLOAT):
        for s in (G2Structure(phi0(ctx), ctx), G2Structure(pullback(phi0(ctx), a), ctx)):
            del wedge_calls[:]
            s.polarized_table
            assert len(wedge_calls) == 0


@pytest.fixture
def gram_calls(monkeypatch):
    """Counts exterior._lambda_gram lookups made through any module that imports it."""
    calls = []
    real = exterior._lambda_gram

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (exterior, g2core, bryant):
        monkeypatch.setattr(module, "_lambda_gram", counted, raising=False)
    return calls


@pytest.mark.parametrize("kind", ("t7", "s1xcy3", "t3xk3"))
def test_warm_float_model_op_reads_no_gram(gram_calls, kind, rng):
    """A float family op (twist, twist_decomposed, recover at c = 0 and
    c = 0.6, derivative_rank), cold and then warm, looks up no Gram of the
    metric, on a float model (metric literally I) and on a non-Euclidean
    float frame, whose points are pulled back by the frame: recover's frame
    coordinates read the wedge pairing on every metric."""
    frame = [[float(j in (i, (i + 1) % DIM)) for j in range(DIM)] for i in range(DIM)]
    identity = [[float(i == j) for j in range(DIM)] for i in range(DIM)]
    for s, a in ((model_structure(kind, "float"), identity),
                 (G2Structure(pullback(phi0(FLOAT), frame), FLOAT), frame)):
        unit = rational_unit_tuple(rng, DIM)
        points = [TwistParams(c, pullback(KForm(1, tuple(float(r * x) for x in unit)), a))
                  for c, r in ((0.0, 1), (0.6, Fraction(4, 5)))]

        def op(p):
            phit = twist(s, p)
            twist_decomposed(s, p)
            recover(s, phit)
            derivative_rank(s, p, DIM)

        for p in points * 2:
            op(p)
        assert len(gram_calls) == 0
    assert not s.metric.is_euclidean


def test_polarized_table_stays_lazy():
    """Construction, decompose2, decompose3, odot_inverse and the JSON round
    trip never build the polarized table; derivative_rank does."""
    rng = random.Random(5)
    phit = twist(standard_structure(), sample_params(rng))
    for s in (G2Structure(phit), G2Structure(phit, FLOAT)):
        assert "polarized_table" not in s.__dict__
        decompose2(rational_kform(rng, 2), s)
        decompose3(rational_kform(rng, 3), s)
        h = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(DIM)]
             for _ in range(DIM)]
        odot_inverse(odot([[x + y for x, y in zip(r, c)] for r, c in zip(h, zip(*h))], s), s)
        back = g2structure_from_json(json.loads(json.dumps(g2structure_to_json(s))))
        assert "polarized_table" not in s.__dict__
        assert "polarized_table" not in back.__dict__
        derivative_rank(s, sample_params(rng), DIM)
        assert "polarized_table" in s.__dict__


def fraction_calls(run, method: str) -> int:
    """Calls of the Fraction method made by run(), counted under cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    return sum(stat[1] for (filename, _, func), stat in pstats.Stats(prof).stats.items()
               if filename.endswith("fractions.py") and func == method)


def fractions_built(run) -> int:
    """Fraction.__new__ calls made by run()."""
    return fraction_calls(run, "__new__")


@pytest.mark.parametrize("fn", [twist, twist_decomposed], ids=["twist", "twist_decomposed"])
def test_exact_twist_builds_fewer_fractions_than_coefficients(fn):
    """Exact twist and twist_decomposed run on the forms' stored int pairs:
    on the t7 model each call builds fewer than 35 Fractions, less than one
    per output coefficient (a Fraction per coefficient built over 600)."""
    s = model_structure("t7", "exact")
    points = [sample_params(random.Random(seed), DIM) for seed in range(8)]
    for p in points:  # the structure's lazy tables are built on first use
        fn(s, p)
    built = fractions_built(lambda: [fn(s, p) for p in points])
    assert built < 35 * len(points), built / len(points)


def test_exact_recover_builds_few_fractions():
    """Exact recover reads the induced metric as int rows over one
    denominator: on the t7 model a call builds fewer than 60 Fractions and
    metric_from_phi fewer than 10 (290 and 60 while a Metric stored one
    Fraction per entry)."""
    s = model_structure("t7", "exact")
    forms = [twist(s, sample_params(random.Random(seed), DIM)) for seed in range(8)]
    for phit in forms:  # the structure's lazy tables are built on first use
        recover(s, phit)
    built = fractions_built(lambda: [recover(s, phit) for phit in forms])
    assert built < 60 * len(forms), built / len(forms)
    built = fractions_built(lambda: [metric_from_phi(phit) for phit in forms])
    assert built < 10 * len(forms), built / len(forms)


def test_equal_model_metrics_compare_on_ints():
    """The three flat models carry three distinct but equal Euclidean
    metrics; is_euclidean on them (a Metric-keyed cache lookup, which
    compares equal keys) calls no Fraction.__eq__."""
    metrics = [model_structure(name, "exact").metric for name in ("t7", "s1xcy3", "t3xk3")]
    assert len({id(m) for m in metrics}) == 3 and metrics[0] == metrics[1] == metrics[2]
    calls = fraction_calls(lambda: [m.is_euclidean for m in metrics * 2], "__eq__")
    assert calls == 0 and all(m.is_euclidean for m in metrics)


# -- the group action: an oracle that shares no code with Bryant's formula ----


def octonion_product(s):
    """x . y = -<x, y> + x0 y + y0 x + x x y on R + R^7, with the structure's
    metric and cross product (x x y)_k = phi_ijk x_i y_j."""
    g = s.metric.rows
    phi = [[[s.phi.coeff(i, j, k) for k in range(1, DIM + 1)] for j in range(1, DIM + 1)]
           for i in range(1, DIM + 1)]

    def mul(x, y):
        (x0, *xv), (y0, *yv) = x, y
        dot = sum(xv[i] * g[i][j] * yv[j] for i in range(DIM) for j in range(DIM))
        cross = [sum(phi[i][j][k] * xv[i] * yv[j] for i in range(DIM) for j in range(DIM))
                 for k in range(DIM)]
        return (x0 * y0 - dot, *(x0 * b + y0 * a + c for a, b, c in zip(xv, yv, cross)))

    return mul


def octonion_params(a):
    return TwistParams(a[0], KForm(1, tuple(a[1:])))


@pytest.mark.parametrize("name", ["t7", "s1xcy3", "t3xk3", "negative"])
def test_twist_is_the_octonion_conjugation_orbit(name):
    """For a unit octonion a, conjugation x -> a x a-bar on the imaginary
    part is a rotation R (row j = Im(a e_j a-bar)), and phi pulled back by
    R is the twist by a^3, literally: the family through phi is its SO(7)
    orbit, reached from S^7 by a -> +-a^3.  R^T gives a-bar^3; recover
    returns a^3 up to sign; decompose3 of the pullback is twist_decomposed.
    On the three flat models and on -phi0 (orientation -1)."""
    s = G2Structure(-phi0()) if name == "negative" else model_structure(name, "exact")
    assert s.orientation.sign == (-1 if name == "negative" else 1)
    mul = octonion_product(s)
    rng = random.Random(name)
    units = [tuple(Fraction(int(i == j)) for i in range(DIM + 1)) for j in range(1, DIM + 1)]
    for _ in range(3):
        a = rational_unit_tuple(rng, DIM + 1)
        a_bar = (a[0], *(-x for x in a[1:]))
        rot = [list(mul(mul(a, e), a_bar)[1:]) for e in units]
        cube = mul(mul(a, a), a)
        cube_bar = (cube[0], *(-x for x in cube[1:]))
        phit = pullback(s.phi, rot)
        assert phit == twist(s, octonion_params(cube))
        assert pullback(s.phi, [list(col) for col in zip(*rot)]) == twist(s, octonion_params(cube_bar))
        assert recover(s, phit).params.equivalent_to(octonion_params(cube))
        assert decompose3(phit, s) == twist_decomposed(s, octonion_params(cube))


# -- the rank from the ambient images, and recover's literal metric test -------


def ref_derivative_rank(s, p, ambient_dim):
    """The earlier derivative_rank: the rank of the derivatives along a tangent basis."""
    return s.ctx.rank([num for num, _ in bryant._derivative_columns(s, p, ambient_dim)])


def ambient_point(s, u):
    """The stereographic image (1 - |u|^2, 2u) / (1 + |u|^2) of a 1-form u,
    exactly on the structure's parameter sphere, with omega where u is."""
    q = form_inner(u, u, s.metric)
    return TwistParams((1 - q) / (1 + q), u * (2 / (1 + q)))


def ref_derivative_rank_by_images(s, p, ambient_dim):
    """derivative_rank before Bryant's Gram identity: Context.rank of the
    ambient images, less one."""
    xs, xden = bryant._twist_point(s, p, ambient_dim)[:2]
    return s.ctx.rank(bryant._ambient_images(s, xs, xden, ambient_dim + 1)[0]) - 1


def assert_rank_equals_reference(s, p, ambient_dim):
    rank = derivative_rank(s, p, ambient_dim)
    assert rank == ref_derivative_rank(s, p, ambient_dim)
    assert rank == ref_derivative_rank_by_images(s, p, ambient_dim)
    return rank


@given(st.sampled_from(["t7", "s1xcy3", "t3xk3"]), st.integers(1, DIM), st.booleans(),
       st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_derivative_rank_equals_tangent_basis_reference_on_models(kind, ambient_dim, c_zero, seed):
    """Literally equal in the exact lane and equal in the float lane, on the
    three flat models, ambient dimensions 1-7 and points with c = 0."""
    p = sample_params(random.Random(seed), ambient_dim, force_c_zero=c_zero)
    s = model_structure(kind, "exact")
    assert assert_rank_equals_reference(s, p, ambient_dim) == ambient_dim
    assert_rank_equals_reference(model_structure(kind, "float"), float_point(p), ambient_dim)


@given(rational_frames(), sphere_points(), st.integers(1, DIM),
       st.lists(st.integers(-3, 3), min_size=DIM, max_size=DIM))
@settings(max_examples=8, deadline=None)
def test_derivative_rank_equals_tangent_basis_reference_on_rational_frames(a, p, ambient_dim, u):
    """On frames of both orientations, with a non-Euclidean metric: a
    pulled-back point, a pulled-back point with c = 0, and a point with
    omega in the first ambient_dim coordinates.  Float structures are built
    from the same phi where cond(a^T a) <= 1e3, inside the float lane's
    working range."""
    s = frame_structure(a)
    u = KForm(1, tuple(Fraction(x) for x in u[:ambient_dim]) + (Fraction(0),) * (DIM - ambient_dim))
    cases = [(frame_point(p, a), DIM), (frame_point(TwistParams(0, KForm.basis((1,))), a), DIM),
             (ambient_point(s, u), ambient_dim)]
    for q, d in cases:
        assert q.constraint_residual(s) == 0
        assert_rank_equals_reference(s, q, d)
    arr = np.asarray(a, dtype=float)
    if np.linalg.cond(arr.T @ arr) <= 1e3:
        sf = G2Structure(s.phi.as_float(), FLOAT)
        for q, d in cases:
            assert_rank_equals_reference(sf, float_point(q), d)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_derivative_rank_argument_errors_in_order(mode):
    """ValueError for ambient_dim outside 1..7 comes first, then the
    ConstraintError for omega outside the ambient coordinates, then the
    ConstraintError for a point off the sphere."""
    s = standard_structure(mode)
    off_both = TwistParams(1, KForm.from_entries(1, {(4,): 1}, s.ctx))
    for d in (0, DIM + 1):
        with pytest.raises(ValueError, match="ambient_dim must be 1..7"):
            derivative_rank(s, off_both, d)
    with pytest.raises(ConstraintError, match="leaves the ambient coordinate subspace"):
        derivative_rank(s, off_both, 3)
    with pytest.raises(ConstraintError, match=r"c\^2 \+ \|omega\|\^2 - 1"):
        derivative_rank(s, off_both, 4)


# -- Bryant's Gram identity: <D_a, D_b> = 4 |x|^2 G_ab + 3 (Gx)_a (Gx)_b -------


def gram_identity_gaps(s, p, ambient_dim) -> tuple:
    """(gaps, n2): gaps[a][b] = <D_a, D_b> - (4 n2 G_ab + 3 (Gx)_a (Gx)_b)
    for a <= b over the directions e_c, dx_1..dx_ambient_dim, with D_b the
    ambient images as 3-forms, <., .> form_inner on the structure's metric,
    G = diag(1, g^-1) read as <dx_i, dx_j>, Gx = (c, sharp(omega)) and
    n2 = |x|^2 = c^2 + <omega, omega>."""
    ctx, g = s.ctx, s.metric
    units = ambient_dim + 1
    xs, xden = bryant._twist_point(s, p, ambient_dim)[:2]
    images, den = bryant._ambient_images(s, xs, xden, units)
    forms = [KForm._of(3, row, den, ctx) for row in images]
    p = bryant._coerce_params(s, p)
    gx = [p.c, *exterior.sharp(p.omega, g)]
    dx = [coerce_form(KForm.basis((i,)), ctx) for i in range(1, units)]
    big_g = [[ctx.one if a == b == 0 else ctx.zero if 0 in (a, b)
              else form_inner(dx[a - 1], dx[b - 1], g) for b in range(units)] for a in range(units)]
    n2 = p.c * p.c + form_inner(p.omega, p.omega, g)
    gaps = [[form_inner(forms[a], forms[b], g) - (4 * n2 * big_g[a][b] + 3 * gx[a] * gx[b])
             for b in range(a, units)] for a in range(units)]
    return gaps, n2


def edge_points(unit) -> list:
    """Exact points of the sphere with omega along the rational unit vector
    unit: c = 0, c = 3/10 and c within 1e-12 of +-1 (band_point)."""
    return [band_point(c0, unit, sign) for c0 in (Fraction(0), Fraction(3, 10), 1 - Fraction(1, 10 ** 12))
            for sign in (1, -1)]


@given(st.sampled_from(["t7", "s1xcy3", "t3xk3"]), st.integers(1, DIM), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_gram_identity_on_models(kind, ambient_dim, seed):
    """On the three models (metric I, so G = I), at c = 0, c = 3/10 and c
    near +-1: every gap is literally zero in the exact lane, and within the
    bound derivative_rank reads in the float lane, units |gap| <= 2 |x|^2,
    half the closed form's least eigenvalue; derivative_rank reads the full
    rank in both lanes."""
    units = ambient_dim + 1
    se, sf = model_structure(kind, "exact"), model_structure(kind, "float")
    for p in edge_points(rational_unit_tuple(random.Random(seed), ambient_dim)):
        gaps, n2 = gram_identity_gaps(se, p, ambient_dim)
        assert n2 == 1 and all(gap == 0 for row in gaps for gap in row)
        gaps, n2 = gram_identity_gaps(sf, float_params(p), ambient_dim)
        assert max(abs(gap) for row in gaps for gap in row) * units <= 2 * n2
        assert derivative_rank(se, p, ambient_dim) == derivative_rank(sf, float_params(p), ambient_dim) \
            == ambient_dim


@given(rational_frames(), sphere_points())
@settings(max_examples=8, deadline=None)
def test_gram_identity_on_rational_frames(a, p):
    """Literally, in the exact lane, on frames of both orientations with
    G = diag(1, g^-1) from the frame metric: at a pulled-back point, at a
    pulled-back point with c = 0, and at points with c near +1 and -1."""
    s = frame_structure(a)
    u = pullback(KForm.basis((1,)), a)
    points = [frame_point(p, a), frame_point(TwistParams(0, KForm.basis((1,))), a),
              ambient_point(s, u * Fraction(1, 10 ** 6)), ambient_point(s, u * 10 ** 6)]
    for q in points:
        gaps, n2 = gram_identity_gaps(s, q, DIM)
        assert n2 == 1 and all(gap == 0 for row in gaps for gap in row)


@pytest.fixture
def rank_calls(monkeypatch):
    """Counts Context.rank calls."""
    calls = []
    real = Context.rank

    def counted(self, m):
        calls.append(1)
        return real(self, m)

    monkeypatch.setattr(Context, "rank", counted)
    return calls


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_euclidean_derivative_rank_reads_the_identity(rank_calls, mode):
    """On a model's metric I derivative_rank reads the rank off the Gram
    identity and calls Context.rank 0 times; on a non-Euclidean frame it
    calls Context.rank once a point."""
    rng = random.Random(mode)
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    frame = G2Structure(pullback(phi0(), a))
    cases = [(model_structure("t7", "exact"), sample_params(rng), 0),
             (model_structure("t3xk3", "exact"), sample_params(rng, 3, force_c_zero=True), 0),
             (frame, frame_point(sample_params(rng), a), 1)]
    for s, p, calls in cases:
        if mode == "float":
            s, p = G2Structure(s.phi.as_float(), FLOAT), float_point(p)
        del rank_calls[:]
        assert derivative_rank(s, p, DIM) == DIM
        assert len(rank_calls) == calls


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_failed_identity_falls_back_to_context_rank(monkeypatch, mode):
    """With one ambient image set to zero the identity fails, and
    derivative_rank reports Context.rank's lower rank."""
    s = model_structure("t7", mode)
    p = sample_params(random.Random(mode))
    if mode == "float":
        p = float_point(p)
    real = bryant._ambient_images

    def one_zero(s, xs, xden, units):
        images, den = real(s, xs, xden, units)
        images[2] = [s.ctx.scaled_zero] * len(images[2])
        return images, den

    monkeypatch.setattr(bryant, "_ambient_images", one_zero)
    assert derivative_rank(s, p, DIM) == ref_derivative_rank_by_images(s, p, DIM) == DIM - 1


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_float_derivative_margin_reads_the_homothety(kind):
    """|dQ_x(t)|^2 = 16 |x|^2 |t|^2 for every tangent t, so the family is a
    homothetic image of the round RP^7: on the float models' orthonormal
    tangent bases derivative_margin reads (4, 4) within 1e-12, c = 0
    included."""
    b1 = flat_model(kind).b1
    s = model_structure(kind, "float")
    rng = random.Random(kind)
    for d in (b1, DIM):
        for i in range(6):
            p = float_point(sample_params(rng, d, force_c_zero=i % 3 == 0))
            lo, hi = derivative_margin(s, p, d)
            assert abs(lo - 4) <= 1e-12 and abs(hi - 4) <= 1e-12


def test_derivative_columns_read_the_point_once(monkeypatch, rng):
    """derivative_matrix and derivative_margin read the point once
    (_twist_point), for the tangent basis and the images alike."""
    calls = []
    real = bryant._twist_point

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bryant, "_twist_point", counted)
    s = model_structure("t7", "float")
    p = float_point(sample_params(rng))
    for run in (derivative_matrix, derivative_margin):
        del calls[:]
        run(s, p, DIM)
        assert len(calls) == 1


def test_exact_canonical_takes_no_float_of_a_huge_omega():
    """The float lane's sign bound is relative to max(1, |omega|); in the
    exact lane that scale is never made a float, so an omega beyond the
    float range picks its sign rather than raise OverflowError."""
    w = KForm(1, (Fraction(0), Fraction(-10 ** 400)) + (Fraction(0),) * (DIM - 2))
    assert TwistParams(0, w).canonical().omega.coeff(2) == 10 ** 400


def test_exact_odot_inverse_and_recover_take_no_float_of_a_huge_form():
    """odot_inverse's float bounds are relative to max(1, |eta|), and
    recover's to max(1, |phit|); in the exact lane those scales are never
    made floats.  So odot_inverse(10^400 phi0) is (10^400 / 3) I, as
    odot(I) = 3 phi, rather than OverflowError; and recover of phi0 +
    10^400 odot(h) for the traceless h = diag(6, -1, ..., -1) bounds its
    residual with no float and raises the normalization's ExactModeError."""
    s = standard_structure()
    big = Fraction(10 ** 400, 3)
    assert odot_inverse(phi0() * 10 ** 400, s).rows == tuple(
        tuple(big if i == j else 0 for j in range(DIM)) for i in range(DIM))
    h = [[(6 if i == 0 else -1) if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    phit = phi0() + 10 ** 400 * odot(h, s)
    assert raised(lambda: recover(s, phit)) is ExactModeError


def test_exact_split_builds_nine_fractions(monkeypatch):
    """The 2-form splitting runs on int rows: an exact structure runs no
    split at construction, and its first read of lambda7 builds 9
    Fractions inside _split_two_forms (lambda7 and lambda14 with their
    arithmetic and checks; the lambda14 check takes lambda14 as it is), on
    phi0, a twist and a frame in both orientations (158 to 234 while the
    kernel came as Fractions); later reads and decompose2 run no split
    again."""
    counts, real = [], g2core._split_two_forms

    def counted(*args):
        out = []
        counts.append(fractions_built(lambda: out.append(real(*args))))
        return out[0]

    a = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5], a[4][4] = 1, Fraction(-1, 2), 2
    flipped = [[-x for x in a[0]]] + a[1:]
    forms = [phi0(), twist(model_structure("t7", "exact"), sample_params(random.Random(1))),
             pullback(phi0(), a), pullback(phi0(), flipped)]
    monkeypatch.setattr(g2core, "_split_two_forms", counted)
    for n, phi in enumerate(forms):
        s = G2Structure(phi)
        assert len(counts) == n
        s.lambda7
        s.lambda14, s.basis2_14, decompose2(KForm.basis((1, 2)), s)
    assert counts == [9] * len(forms)


def ref_twist_decomposed_fractions(s, p):
    """twist_decomposed as it was before its phi terms ran on ints: Fraction
    scalars, two KForm scalar products and a KForm add."""
    xs, xden, sq, gden = bryant._twist_point(s, p)
    ctx, phi = s.ctx, s.phi
    w2 = ctx.ratio(sq, xden * xden * gden)
    coef = ctx.ratio(xs[0] * xs[0], xden * xden) - w2
    table, den = s.polarized_table
    den *= xden * xden
    c2 = 2 * xs[0]
    seven = [(0, b, c2 * y) for b, y in enumerate(xs) if b and y] if c2 else []
    p7 = KForm._of(3, bryant._table_sum(table, seven, ctx.scaled_zero), den, ctx)
    qww = KForm._of(3, bryant._table_sum(table, bryant._pair_terms(xs, 1), ctx.scaled_zero),
                    den, ctx)
    return Decomposition3(p1=((4 * coef + 3) / 7) * phi, p7=p7,
                          p27=qww + (w2 - (3 - 3 * coef) / 7) * phi)


def assert_parts_literally_equal(got, want):
    for part in ("p1", "p7", "p27"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g.num, g.den) == (w.num, w.den) and same(g, w), part


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_twist_decomposed_equals_the_fraction_reference_on_models(kind):
    """The parts on the point's ints equal the Fraction-scalar parts
    literally, and bit for bit in the float lane: generic points, c = 0 and
    the poles."""
    b1 = flat_model(kind).b1
    rng = random.Random(kind)
    for mode in ("exact", "float"):
        s = model_structure(kind, mode)
        points = [sample_params(rng, b1) for _ in range(3)]
        points += [sample_params(rng, b1, force_c_zero=True), TwistParams(1, KForm.zero(1)),
                   TwistParams(-1, KForm.zero(1))]
        for p in points:
            p = float_point(p) if mode == "float" else p
            assert_parts_literally_equal(twist_decomposed(s, p), ref_twist_decomposed_fractions(s, p))


@given(rational_frames(), st.integers(0, 2 ** 16))
@settings(max_examples=6, deadline=None)
def test_twist_decomposed_equals_the_fraction_reference_on_rational_frames(a, seed):
    """The same on non-Euclidean metrics (gden > 1): exact on every frame,
    float where the float lane builds structures (cond(a^T a) <= 1e5)."""
    rng = random.Random(seed)
    p = frame_point(sample_params(rng), a)
    s = frame_structure(a)
    assert_parts_literally_equal(twist_decomposed(s, p), ref_twist_decomposed_fractions(s, p))
    sf = G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT)
    try:
        pf = bryant._sphere_point(sf, float_point(p))[0]
    except G2KitError:
        return
    assert_parts_literally_equal(twist_decomposed(sf, pf), ref_twist_decomposed_fractions(sf, pf))


@pytest.fixture
def nullspace_calls(monkeypatch):
    calls = []
    real = Context.nullspace

    def counted(self, m):
        calls.append(1)
        return real(self, m)

    monkeypatch.setattr(Context, "nullspace", counted)
    return calls


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_warm_derivative_rank_takes_no_kernel(nullspace_calls, mode):
    """derivative_rank builds no tangent basis: once the polarized table is
    built it calls Context.nullspace 0 times."""
    rng = random.Random(mode)
    s = model_structure("t7", mode)
    points = [sample_params(rng), sample_params(rng, 3), sample_params(rng, force_c_zero=True)]
    if mode == "float":
        points = [float_point(p) for p in points]
    s.polarized_table
    del nullspace_calls[:]
    for p, d in zip(points, (DIM, 3, DIM)):
        assert derivative_rank(s, p, d) == d
    assert nullspace_calls == []


@pytest.fixture
def normalization_calls(monkeypatch):
    """Calls of the metric normalization recover's metric test runs
    (g2core's _normalized_metric, in G2Structure.check_metric), of the exact
    normalization's ninth root and of Context.det."""
    calls = []
    real_norm, real_root, real_det = g2core._normalized_metric, g2core.rational_nth_root, Context.det

    def norm(*args):
        calls.append("_normalized_metric")
        return real_norm(*args)

    def root(*args):
        calls.append("rational_nth_root")
        return real_root(*args)

    def det(self, m):
        calls.append("det")
        return real_det(self, m)

    monkeypatch.setattr(g2core, "_normalized_metric", norm)
    monkeypatch.setattr(g2core, "rational_nth_root", root)
    monkeypatch.setattr(Context, "det", det)
    return calls


def test_exact_recover_of_a_twist_normalizes_no_metric(normalization_calls):
    """A twist has the structure's contraction matrix B literally, so exact
    recover runs no determinant and no ninth root: on a model and on a
    non-Euclidean frame, generic and with c = 0."""
    rng = random.Random(11)
    a = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]
    frame = G2Structure(pullback(phi0(), a))
    model = model_structure("t7", "exact")
    cases = [(model, sample_params(rng)), (model, sample_params(rng, force_c_zero=True)),
             (frame, frame_point(sample_params(rng), a)),
             (frame, frame_point(sample_params(rng, force_c_zero=True), a))]
    for s, p in cases:
        phit = twist(s, p)
        recover(s, phit)  # the structure's lazy tables are built on first use
        del normalization_calls[:]
        rec = recover(s, phit)
        assert normalization_calls == []
        assert rec.residual == 0 and rec.params.equivalent_to(p)


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_float_recover_of_a_twist_normalizes_no_metric(normalization_calls, kind):
    """A float twist misses its re-twist only in the last bits, so the
    residual bound (check_retwist) is within the structure's slack and warm
    float recover on a model runs no _normalized_metric and no determinant:
    at c = 0, 1e-4 and 0.6, on the model's parallel directions."""
    s, b1 = model_structure(kind, "float"), flat_model(kind).b1
    rng = random.Random(kind)
    for c in (0.0, 1e-4, 0.6):
        w = [rng.gauss(0.0, 1.0) for _ in range(b1)]
        scale = math.sqrt(1.0 - c * c) / math.sqrt(sum(x * x for x in w))
        p = TwistParams(c, KForm(1, tuple(x * scale for x in w) + (0.0,) * (DIM - b1)))
        phit = twist(s, p)
        recover(s, phit)
        del normalization_calls[:]
        rec = recover(s, phit)
        assert normalization_calls == [], c
        assert rec.params.equivalent_to(p, FLOAT.tol)


def ref_same_contraction(s, contraction, den):
    """The earlier literal B test of recover: B(Phi) / den^3, for contraction
    = B(Phi), equal to the structure's B(phi) entry for entry across the
    denominators, in both lanes."""
    own, den3 = s._contraction
    d3 = den ** 3
    return all(contraction[i][j] * den3 == own[i][j] * d3 for i, j in g2core._PAIRS)


def ref_check_metric(s, phit):
    """The earlier metric test of recover: normalize phit's metric, then compare."""
    metric, orient = metric_from_phi(phit, s.ctx)
    if not ref_metric_matches(s, metric, orient):
        raise MetricMismatchError("form does not induce this structure's metric/orientation")


class Normalized(Exception):
    """Raised by the stub metric test of bound_accepts."""


def bound_accepts(s, phit):
    """Whether recover settles phit's metric on its residual bound alone
    (G2Structure.check_retwist): recover runs with check_metric stubbed to
    raise, so a zero residual or a bound within the slack accepts (a
    RecoveryError on the residual's own tolerance included), and a refused
    step or a bound that does not decide does not."""
    def normalize(self, form):
        raise Normalized

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G2Structure, "check_metric", normalize)
        try:
            recover(s, phit)
        except Normalized:
            return False
        except G2KitError:
            pass
    return True


def exact_contraction_gap(s, phit):
    """|B(phit) - B(phi)|_max, exact, on both forms' floats read as Fractions."""
    mine = g2core._contraction_matrix([Fraction(x) for x in phit.num])
    own = g2core._contraction_matrix([Fraction(x) for x in s.phi.num])
    return max(abs(mine[i][j] - own[i][j]) for i, j in g2core._PAIRS)


def residual_bound(s, phit):
    """The residual bound of check_retwist at phit's re-twist, and its err."""
    _, err, xs, xden, norm2 = bryant._retwist(s, phit)
    return s._retwist_bound(phit.max_abs(), err, s.ctx.ratio(sum(map(abs, xs)), xden), norm2), err


def raised(run):
    try:
        run()
    except G2KitError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_recover_refuses_what_it_refused(mode):
    """Forms outside the family are refused with the errors of the earlier
    test, which normalized every metric: 2 phi (MetricMismatchError in float
    mode; in exact mode det(B)/6^7 = 2^21 has no rational ninth root, so
    ExactModeError), 8 phi, -phi and a pullback by diag(2, 1, ..., 1)
    (MetricMismatchError), and a degenerate form (NotG2FormError)."""
    s = standard_structure(mode)
    ctx = s.ctx
    forms = foreign_forms(s)
    want = {"2phi": ExactModeError if ctx.is_exact else MetricMismatchError,
            "8phi": MetricMismatchError, "-phi": MetricMismatchError,
            "pullback": MetricMismatchError, "degenerate": NotG2FormError}
    for name, phit in forms.items():
        assert raised(lambda: recover(s, phit)) is want[name], name
        assert raised(lambda: ref_check_metric(s, phit)) is want[name], name


def reference_metric_gap(s, phit):
    """max |g(phit) - g| for the metric g(phit) that metric_from_phi normalizes."""
    metric, _ = metric_from_phi(phit, s.ctx)
    return max(abs(metric.rows[i][j] - s.metric.rows[i][j]) for i in range(DIM) for j in range(DIM))


# 0 and 1e-15, 1e-14, ..., 1e-6: the residual rule accepts the small ones on
# the models, the normalization decides the middle ones, both refuse 1e-6
PERTURBATIONS = (0.0, *(10.0 ** -k for k in range(15, 5, -1)))


def float_sphere_point(s, rng):
    """A Gaussian (c, w) put onto the float sphere of the structure's metric."""
    w = KForm(1, tuple(rng.gauss(0.0, 1.0) for _ in range(DIM)))
    return bryant._sphere_point(s, TwistParams(rng.gauss(0.0, 1.0), w))[0]


def assert_metric_tests_agree(s, rng):
    """For phit = twist + delta psi, psi a Gaussian 3-form: recover's metric
    test raises what the normalizing reference raises, and wherever the
    residual rule (bound_accepts) accepts, the reference's metric gap is
    within RECOVERY_TOL and the exact gap |B(phit) - B(phi)|_max, on the
    floats read as Fractions, is within the residual bound.  Returns how
    many perturbations it accepted."""
    base = twist(s, float_sphere_point(s, rng))
    psi = KForm(3, tuple(rng.gauss(0.0, 1.0) for _ in range(len(base.num))))
    accepted = 0
    for delta in PERTURBATIONS:
        phit = base + delta * psi
        assert raised(lambda: s.check_metric(phit)) is raised(
            lambda: ref_check_metric(s, phit)), delta
        if bound_accepts(s, phit):
            assert reference_metric_gap(s, phit) <= RECOVERY_TOL, delta
            bound, err = residual_bound(s, phit)
            assert not err or exact_contraction_gap(s, phit) <= bound, delta
            accepted += 1
    return accepted


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_slack_metric_test_agrees_with_the_normalization_on_models(kind, sign):
    """On the float models in both orientations the residual rule accepts
    the unperturbed twist, never a form the normalization would refuse."""
    s = model_structure(kind, "float")
    if sign < 0:
        s = G2Structure(-1.0 * s.phi, FLOAT)
    rng = random.Random(f"{kind}{sign}")
    for _ in range(4):
        assert assert_metric_tests_agree(s, rng) >= 1


@given(rational_frames(), st.integers(0, 2 ** 32))
@settings(max_examples=25, deadline=None)
def test_slack_metric_test_agrees_with_the_normalization_on_rational_frames(a, seed):
    """The same on float frames of both orientations with cond(g) <= 1e5."""
    s = G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT)
    assert_metric_tests_agree(s, random.Random(seed))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_slack_test_against_the_literal_test(mode):
    """On twists and on the forms outside the family the residual rule
    accepts only forms whose B the literal B test finds equal to B(phi), and
    it accepts the twists.  In exact mode it accepts exactly the forms whose
    residual is literally 0; in float mode it accepts whatever the literal
    test accepts."""
    s = standard_structure(mode)
    twists = [twist(s, TwistParams(s.ctx.zero, KForm.from_entries(1, {(2,): 1}, s.ctx)))]
    forms = twists + [f for f in unusual_forms(s).values() if f.degree == 3]
    for phit in forms:
        contraction = g2core._contraction_matrix(phit.num)
        literal = ref_same_contraction(s, contraction, phit.den)
        fast = bound_accepts(s, phit)
        assert literal or not fast
        if s.ctx.is_exact:
            assert fast is (raised(lambda: bryant._retwist(s, phit)) is None
                            and residual_bound(s, phit)[1] == 0)
        else:
            assert fast or not literal
    assert all(bound_accepts(s, phit) for phit in twists)


def test_slack_test_refuses_a_non_finite_contraction():
    """A float B(phit) that overflows raises NotG2FormError naming the
    overflow, whether its entries turn inf or nan (terms of both signs past
    the float range): phi0 with its dx126, dx246 and dx347 coefficients set
    to -1e200, 1e200 and 1e200 (B finite in its first entries, beyond the
    float range past them), 1e120 phi0 (inf on the diagonal) and a dense
    form of +-1e120.  Ints far beyond the float range pass.  The residual
    bound of phi0 is within the slack, and that of 1e120 phi0 never is
    (nan and inf compare false), so it gets the normalization's
    NotG2FormError."""
    s = standard_structure("float")
    big = list(s.phi.num)
    big[3], big[20], big[27] = -1e200, 1e200, 1e200
    exact = [x for row in g2core._contraction_matrix([Fraction(x) for x in big]) for x in row]
    assert all(abs(x) < 1e300 for x in exact[:3]) and any(abs(x) > 1e308 for x in exact)
    dense = [(1.0 if q % 3 else -1.0) * 1e120 for q in range(len(big))]
    for coeffs in (big, [x * 1e120 for x in s.phi.num], dense):
        with pytest.raises(NotG2FormError, match="overflowed"):
            g2core._contraction_matrix(coeffs)
    assert bound_accepts(s, s.phi)
    huge_ints = [x * 10 ** 400 for x in standard_structure("exact").phi.num]
    assert g2core._contraction_matrix(huge_ints)[0][0] == 6 * 10 ** 1200
    huge = s.phi * 1e120
    assert not bound_accepts(s, huge)
    assert raised(lambda: recover(s, huge)) is raised(lambda: ref_check_metric(s, huge)) \
        is NotG2FormError


# cond(g) about 1.8e3, from the frames a + 3/2 I with entries of a in
# n / d, n in -2..2, d in {1, 1, 2, 3} (random.Random(3)).  A float c = 0
# twist there gave c^2 = (<phit, phi> + 1) / 8 = -2.3e-12 through the minors
# of a float g^-1, past -CONSTRAINT_TOL, which the c^2 range check refused
# before the W pivot, which reads no c^2.  Through the minors of g it reads
# -3.3e-14, so the test moves phit by -delta phi, which moves c^2 by
# -7 delta / 8 in exact arithmetic.
NEGATIVE_C2_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "3/2 -2 1 -1 -1/3 1 2",
    "0 1/2 -2/3 -2/3 1/3 0 0",
    "-2 2 2 1/3 0 1/2 2",
    "1 -1 1/3 7/6 1 -1 2",
    "1 0 -2/3 -1 5/6 1 0",
    "-1/3 1/2 -1 -1 0 13/6 1",
    "-2 1/2 1 1 -1 2 -1/2",
)]


def test_float_c_zero_twist_with_c2_below_zero_is_recovered():
    """A c = 0 twist moved off the sphere by -delta phi, delta = 4e-12, has
    c^2 = -7 delta / 8 = -3.5e-12, below -CONSTRAINT_TOL: recover takes it
    to the W pivot, which reads no c^2, and returns the twist's point."""
    s = G2Structure(pullback(phi0(FLOAT), [[float(x) for x in row] for row in NEGATIVE_C2_FRAME]),
                    FLOAT)
    w = KForm(1, (-1.0, 1.0, -2.0, 2.0, 1.0, -1.0, 1.0))
    p = TwistParams(0.0, w / math.sqrt(form_inner(w, w, s.metric)))
    phit = twist(s, p) - s.phi * 4e-12
    assert (form_inner(phit, s.phi, s.metric) + 1) / 8 < -CONSTRAINT_TOL
    rec = recover(s, phit)
    assert rec.params.equivalent_to(p, 1e-10)


# -- recover through a pivot of X = x x^T, against the earlier c-switch branch --


def ref_recover_c_zero(s, phit):
    """The earlier c = 0 branch: odot_inverse of phit + phi is b = 2 w w^T,
    and w is its column k over 2 w_k at its largest diagonal entry b_kk."""
    try:
        b = odot_inverse(phit + s.phi, s)
    except DecompositionError as exc:
        raise RecoveryError(f"c=0 branch inversion failed: {exc}") from exc
    rows, ctx = b.rows, s.ctx
    k = max(range(DIM), key=lambda i: rows[i][i])
    bkk = rows[k][k]
    if bkk <= 0:
        raise RecoveryError("c=0 branch needs a positive rank-one symmetric part")
    wk = ctx.sqrt(bkk / 2)
    w = [rows[i][k] / (2 * wk) for i in range(DIM)]
    gap = max(abs(rows[i][j] - 2 * w[i] * w[j]) for i in range(DIM) for j in range(DIM))
    if not ctx.is_zero(gap, RECOVERY_TOL * max(1, bkk)):
        raise RecoveryError("c=0 branch data is not rank one")
    return TwistParams(ctx.zero, KForm(1, tuple(w)))


def ref_recover(s, phit, tol=RECOVERY_TOL):
    """The earlier recover: c = sqrt((<phit, phi> + 1)/8), then w = u / c above
    the earlier switch |c| = 1e-7 and the c = 0 branch at or below it."""
    phit = coerce_form(phit, s.ctx)
    if phit.degree != 3:
        raise DegreeError("recover expects a 3-form")
    s.check_metric(phit)
    ctx = s.ctx
    phi_inner, (coords, cden) = frame_coordinates(phit, s)
    c_sq = (phi_inner + 1) / 8
    excess = max(-c_sq, c_sq - 1)
    if excess > 0 and not ctx.is_zero(excess, CONSTRAINT_TOL):
        raise RecoveryError(f"implied c^2 = {c_sq} outside [0, 1]")
    c = ctx.sqrt(min(max(c_sq, 0), 1))
    if ctx.is_zero(c, 1e-7):
        params = ref_recover_c_zero(s, phit)
    else:
        params = bryant._sphere_point(s, bryant._recover_c_positive(s, coords, cden, c))[0]
    params = params.canonical()
    err = (twist(s, params) - phit).max_abs()
    if not ctx.is_zero(err, tol * max(1.0, float(phit.max_abs()))):
        raise RecoveryError(f"recovery residual {float(err)} above {tol}")
    return bryant.Recovery(params=params, residual=float(err))


def near_equator(u, t=Fraction(9, 10)):
    """(c, s u) with c = (1 - t^2)/(1 + t^2) and s = 2t/(1 + t^2): a rational
    point with 0 < c^2 < 1/16 (c = 19/181 at t = 9/10) for a unit 1-form u."""
    return TwistParams((1 - t * t) / (1 + t * t), u * (2 * t / (1 + t * t)))


def model_points(kind, rng):
    """A generic point, a c = 0 point and a point with 0 < c^2 < 1/16 on a model."""
    b1 = flat_model(kind).b1
    return [sample_params(rng, b1), sample_params(rng, b1, force_c_zero=True),
            near_equator(sample_params(rng, b1, force_c_zero=True).omega)]


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_exact_recover_equals_the_c_switch_reference_on_models(kind, rng):
    """Literally equal Recovery (parameters and residual) at generic points,
    at c = 0 and at 0 < c^2 < 1/16, and at their antipodes."""
    s = model_structure(kind, "exact")
    for _ in range(4):
        for p in model_points(kind, rng):
            for q in (p, p.antipode()):
                phit = twist(s, q)
                assert recover(s, phit) == ref_recover(s, phit)


@given(rational_frames(), sphere_points(), st.lists(st.integers(-3, 3), min_size=DIM, max_size=DIM))
@settings(max_examples=8, deadline=None)
def test_exact_recover_equals_the_c_switch_reference_on_rational_frames(a, p, u):
    """On frames of both orientations, with a non-Euclidean metric: a
    pulled-back point, a pulled-back c = 0 point and one with
    0 < c^2 < 1/16, literally equal to the earlier recover."""
    s = frame_structure(a)
    unit = frame_point(TwistParams(0, KForm.basis((1 + sum(map(abs, u)) % DIM,))), a)
    for q in (frame_point(p, a), unit, near_equator(unit.omega)):
        assert q.constraint_residual(s) == 0
        phit = twist(s, q)
        assert recover(s, phit) == ref_recover(s, phit)


def foreign_forms(s):
    """Forms outside the family of any structure: 2 phi, 8 phi, -phi, phi
    pulled back by diag(2, 1, ..., 1) and a degenerate form."""
    ctx = s.ctx
    diag = [[ctx.scalar(2 if i == j == 0 else int(i == j)) for j in range(DIM)] for i in range(DIM)]
    return {
        "2phi": 2 * s.phi,
        "8phi": 8 * s.phi,
        "-phi": -1 * s.phi,
        "pullback": pullback(s.phi, diag),
        "degenerate": KForm.from_entries(3, {(1, 2, 3): 1}, ctx),
    }


def unusual_forms(s):
    """Forms by name: foreign metrics and orientations, a degenerate form, a
    2-form, a c = 0 twist plus 1e-6 *(dx_1 ^ phi) (a 7-part of phi, not of
    the twist, so it moves the metric), and the
    quadratic Q(x) at points x whose x x^T is rational but x is not
    (c^2 = 1/2, c = 0 with w_1^2 = w_2^2 = 1/2, and c^2 = 1/50 < 1/16),
    which only the exact lane refuses."""
    ctx = s.ctx
    dx1, dx2 = (KForm.from_entries(1, {(j,): 1}, ctx) for j in (1, 2))
    c_zero = twist(s, TwistParams(ctx.zero, dx2))
    return {
        **foreign_forms(s),
        "2-form": KForm.from_entries(2, {(1, 2): 1}, ctx),
        "seven": c_zero + ctx.scalar(Fraction(1, 10 ** 6)) * s.star_dx_phi[0],
        # ref_twist is the quadratic form Q on any (c, w): Q(y / sqrt(m)) = Q(y) / m
        "c^2=1/2": ref_twist(s, TwistParams(ctx.one, dx1)) * ctx.scalar(Fraction(1, 2)),
        "w^2=1/2": ref_twist(s, TwistParams(ctx.zero, dx1 + dx2)) * ctx.scalar(Fraction(1, 2)),
        "c^2=1/50": ref_twist(s, TwistParams(ctx.one, 7 * dx1)) * ctx.scalar(Fraction(1, 50)),
    }


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_recover_refuses_what_the_c_switch_reference_refused(mode):
    """Both lanes refuse the same forms as the earlier recover, with the same
    error classes: every unusual form in exact mode, all but the three
    irrational points in float mode, where those are recovered."""
    s = standard_structure(mode)
    irrational = {"c^2=1/2", "w^2=1/2", "c^2=1/50"}
    for name, phit in unusual_forms(s).items():
        want = raised(lambda: ref_recover(s, phit))
        assert raised(lambda: recover(s, phit)) is want, name
        assert (want is None) == (mode == "float" and name in irrational), (name, want)


# a sheared frame with cond(a^T a) about 20: phi0 pulled back has a non-Euclidean metric
SHEAR = [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)] for i in range(DIM)]


@given(st.sampled_from(["t7", "s1xcy3", "t3xk3", "shear"]), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2 ** 32))
@example("t7", 0.0, False, 1)
@example("t7", 1e-12, True, 2)
@example("s1xcy3", 1e-8, False, 3)
@example("t3xk3", 1e-6, True, 4)
@example("shear", 1e-6, False, 5)
@example("t7", 1e-4, False, 6)
@example("t3xk3", 1e-2, True, 7)
@example("shear", 1 - 1e-12, True, 8)
@settings(max_examples=60, deadline=None)
def test_recover_float_roundtrip_on_the_whole_sphere(kind, c, flip, seed):
    """Float twist -> recover returns the point, up to the antipode and
    within FLOAT.tol, for every |c| in [0, 1]: below c^2 = 1/16 it is read
    off the pivot column of w w^T, so nothing divides by a small c."""
    if kind == "shear":
        s, b1 = G2Structure(pullback(phi0(FLOAT), SHEAR), FLOAT), DIM
    else:
        s, b1 = model_structure(kind, "float"), flat_model(kind).b1
    rng = random.Random(seed)
    w = [rng.gauss(0.0, 1.0) for _ in range(b1)]
    scale = math.sqrt(1.0 - c * c) / math.sqrt(sum(x * x for x in w))
    p = TwistParams(-c if flip else c, KForm(1, tuple(x * scale for x in w) + (0.0,) * (DIM - b1)))
    if kind == "shear":
        p = frame_point(p, SHEAR)
    rec = recover(s, twist(s, p))
    assert rec.params.equivalent_to(p, FLOAT.tol), (rec.params, p)
    assert rec.residual <= RECOVERY_TOL


@pytest.fixture
def symmetric_inverse_calls(monkeypatch):
    """Calls of odot_inverse and decompose3 through any module that imports them."""
    calls = []
    for name in ("odot_inverse", "decompose3"):
        real = getattr(g2core, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        # bryant imports neither; one it imported later would be counted too
        for module in (g2core, bryant):
            monkeypatch.setattr(module, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_warm_c_zero_recover_takes_no_odot_inverse(symmetric_inverse_calls, mode):
    """w w^T is read off 13 rows of the symmetric action's table: a warm
    recover of a c = 0 twist, and of one with 0 < c^2 < 1/16, calls
    odot_inverse and decompose3 0 times, on a model and on a sheared frame."""
    rng = random.Random(mode)
    ctx = Context.of(mode)
    frame = G2Structure(pullback(phi0(ctx), SHEAR), ctx)
    cases = [(model_structure("t7", mode), sample_params(rng, force_c_zero=True)),
             (model_structure("t7", mode), near_equator(sample_params(rng, force_c_zero=True).omega)),
             (frame, frame_point(sample_params(rng, force_c_zero=True), SHEAR))]
    for s, p in cases:
        if mode == "float":
            p = float_point(p)
        phit = twist(s, p)
        recover(s, phit)  # the structure's lazy tables are built on first use
        del symmetric_inverse_calls[:]
        assert recover(s, phit).params.equivalent_to(p, FLOAT.tol)
        assert symmetric_inverse_calls == []


def assert_w_pivot_identities(s, p):
    """The identities behind recover's W = w w^T, literally: J = dB_phi / lambda
    kills the 7-part, J(phit + phi) = J(p1 + p27); tr_g J(phit + phi) =
    3(<phit, phi> + 7); J(phi) = 3g; and W = J(6 phit + (1 - a) phi) / 24 for
    a = <phit, phi>.  The table keeps only nonzero entries."""
    ctx, g = s.ctx, s.metric.rows
    table = s._odot_inverse_table
    assert all(x for row in table[0] for _, x in row)
    phit = twist(s, p)
    d = decompose3(phit, s)
    jvec = ref_apply_sparse(table, phit + s.phi, ctx)
    assert jvec == ref_apply_sparse(table, d.p1 + d.p27 + s.phi, ctx)
    rows, den = exterior._metric_inverse(s.metric)
    ginv = [[ctx.ratio(x, den) for x in row] for row in rows]
    trace = sum(ginv[i][j] * x * (1 if i == j else 2) for (i, j), x in zip(g2core._PAIRS, jvec))
    a = form_inner(phit, s.phi, s.metric)
    assert trace == 3 * (a + 7)
    assert ref_apply_sparse(table, s.phi, ctx) == [3 * g[i][j] for i, j in g2core._PAIRS]
    w = p.omega.coeffs
    zeta = 6 * phit + (1 - a) * s.phi
    assert [x / 24 for x in ref_apply_sparse(table, zeta, ctx)] == [w[i] * w[j] for i, j in g2core._PAIRS]


@given(rational_frames(), sphere_points())
@settings(max_examples=6, deadline=None)
def test_w_pivot_identities_on_rational_frames(a, p):
    """On frames of both orientations, at a pulled-back point and at the
    pulled-back c = 0 point (0, dx_1)."""
    s = frame_structure(a)
    for q in (frame_point(p, a), frame_point(TwistParams(0, KForm.basis((1,))), a)):
        assert_w_pivot_identities(s, q)


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_w_pivot_identities_on_models(kind, rng):
    s = model_structure(kind, "exact")
    for _ in range(3):
        for p in model_points(kind, rng):
            assert_w_pivot_identities(s, p)


# -- recover decided by its re-twist, against the recover that tested the
# -- metric first ---------------------------------------------------------------


def ref_recover_metric_first(s, phit, tol=RECOVERY_TOL):
    """The earlier recover: the metric test (G2Structure.check_metric) on
    every call, before the pivots and the re-twist."""
    phit = coerce_form(phit, s.ctx)
    if phit.degree != 3:
        raise DegreeError("recover expects a 3-form")
    s.check_metric(phit)
    ctx = s.ctx
    phi_inner, (coords, cden) = frame_coordinates(phit, s)
    c_sq = (phi_inner + 1) / 8
    if 16 * c_sq >= 1:
        if c_sq > 1 and not ctx.is_zero(c_sq - 1, CONSTRAINT_TOL):
            raise RecoveryError(f"implied c^2 = {c_sq} outside [0, 1]")
        params = bryant._recover_c_positive(s, coords, cden, ctx.sqrt(min(c_sq, 1)))
    else:
        params = bryant._recover_w_pivot(s, phit, phi_inner, coords, cden)
        if ctx.is_zero(params.c, C_ZERO_SWITCH):
            params = TwistParams(ctx.zero, params.omega)
    params = bryant._sphere_point(s, params)[0].canonical()
    err = (twist(s, params) - phit).max_abs()
    residual = float(err)
    if not ctx.is_zero(err, tol * max(1.0, float(phit.max_abs()))):
        raise RecoveryError(f"recovery residual {residual} above {tol} in the {ctx.mode} lane")
    return bryant.Recovery(params=params, residual=residual)


def assert_recover_equals_metric_first(s, phit, name):
    """recover raises what the metric-first reference raises; otherwise the
    Recovery is equal, literally in exact mode and within FLOAT.tol in
    float mode."""
    want = raised(lambda: ref_recover_metric_first(s, phit))
    assert raised(lambda: recover(s, phit)) is want, name
    if want is None:
        got, ref = recover(s, phit), ref_recover_metric_first(s, phit)
        if s.ctx.is_exact:
            assert got == ref, name
        else:
            assert abs(got.params.c - ref.params.c) <= FLOAT.tol, name
            assert got.params.omega.isclose(ref.params.omega, FLOAT.tol), name


def perturbed_twists(s, rng, frame=None):
    """(name, phit) for phit = twist + delta psi, psi a random 3-form and
    delta in 0 and 1e-15, ..., 1e-6 (Fractions in exact mode), at a point of
    the sphere and at a c = 0 point: in exact mode points of phi0's sphere
    pulled back by the structure's frame."""
    ctx = s.ctx
    if ctx.is_exact:
        points = [sample_params(rng), sample_params(rng, force_c_zero=True)]
        if frame is not None:
            points = [frame_point(p, frame) for p in points]
        psi = rational_kform(rng, 3)
        deltas = [Fraction(0), *(Fraction(1, 10 ** k) for k in range(15, 5, -1))]
    else:
        w = float_sphere_point(s, rng).omega
        points = [float_sphere_point(s, rng), bryant._sphere_point(s, TwistParams(0.0, w))[0]]
        psi = KForm(3, tuple(rng.gauss(0.0, 1.0) for _ in s.phi.num))
        deltas = PERTURBATIONS
    for k, p in enumerate(points):
        base = twist(s, p)
        for delta in deltas:
            yield f"point {k}, delta {delta}", base + ctx.scalar(delta) * psi


def assert_recover_equals_metric_first_on(s, forms, rng, frame=None):
    """On the given forms and on perturbed_twists(s, rng, frame)."""
    forms = dict(forms)
    forms.update(perturbed_twists(s, rng, frame))
    for name, phit in forms.items():
        assert_recover_equals_metric_first(s, phit, name)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_recover_equals_the_metric_first_reference_on_models(kind, mode):
    """On the models in both lanes: the unusual forms (among them the forms
    of test_recover_refuses_what_it_refused) and perturbed twists."""
    s = model_structure(kind, mode)
    assert_recover_equals_metric_first_on(s, unusual_forms(s), random.Random(kind + mode))


@given(rational_frames(), st.integers(0, 2 ** 32))
@settings(max_examples=6, deadline=None)
def test_recover_equals_the_metric_first_reference_on_rational_frames(a, seed):
    """The same on frames of both orientations, with the foreign forms
    (unusual_forms reads the models' |dx_j| = 1): in the exact lane on every
    frame, in the float lane on frames with cond(a^T a) <= 1e5."""
    s = frame_structure(a)
    assert_recover_equals_metric_first_on(s, foreign_forms(s), random.Random(seed), a)
    af = np.asarray(a, dtype=float)
    if np.linalg.cond(af.T @ af) <= 1e5:
        sf = G2Structure(pullback(phi0(FLOAT), af.tolist()), FLOAT)
        assert_recover_equals_metric_first_on(sf, foreign_forms(sf), random.Random(seed))


@pytest.fixture
def contraction_calls(monkeypatch):
    """Calls of g2core's _contraction_matrix, which recover's metric test
    (G2Structure.check_metric) runs first."""
    calls = []
    real = g2core._contraction_matrix

    def counted(coeffs):
        calls.append(1)
        return real(coeffs)

    monkeypatch.setattr(g2core, "_contraction_matrix", counted)
    return calls


def test_warm_exact_recover_of_a_twist_builds_no_contraction_matrix(contraction_calls):
    """An exact twist re-twists literally, so warm exact recover runs no
    metric test: 0 calls of _contraction_matrix on t7 and on the sheared
    frame, at a generic point and at c = 0."""
    rng = random.Random(13)
    frame = G2Structure(pullback(phi0(), SHEAR))
    model = model_structure("t7", "exact")
    cases = [(model, sample_params(rng)), (model, sample_params(rng, force_c_zero=True)),
             (frame, frame_point(sample_params(rng), SHEAR)),
             (frame, frame_point(sample_params(rng, force_c_zero=True), SHEAR))]
    for s, p in cases:
        phit = twist(s, p)
        recover(s, phit)  # the structure's lazy tables are built on first use
        del contraction_calls[:]
        rec = recover(s, phit)
        assert contraction_calls == []
        assert rec.residual == 0 and rec.params.equivalent_to(p)


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_warm_float_recover_of_a_twist_builds_no_contraction_matrix(contraction_calls, kind):
    """A float twist misses its re-twist only in its last bits, so its
    residual bound (check_retwist) is within the slack and warm float
    recover builds no B(phit): 0 calls of _contraction_matrix on the model
    at c = 0, 1e-4 and 0.6 and at 100 seeded points of the model's parallel
    directions, every tenth with c = 0."""
    s, b1 = model_structure(kind, "float"), flat_model(kind).b1
    rng = random.Random(f"warm {kind}")
    cs = [0.0, 1e-4, 0.6] + [0.0 if k % 10 == 9 else rng.uniform(-1.0, 1.0) for k in range(100)]
    for c in cs:
        w = [rng.gauss(0.0, 1.0) for _ in range(b1)]
        scale = math.sqrt(1.0 - c * c) / math.sqrt(sum(x * x for x in w))
        p = TwistParams(c, KForm(1, tuple(x * scale for x in w) + (0.0,) * (DIM - b1)))
        phit = twist(s, p)
        recover(s, phit)  # the structure's lazy tables are built on first use
        del contraction_calls[:]
        rec = recover(s, phit)
        assert contraction_calls == [], c
        assert rec.params.equivalent_to(p, FLOAT.tol), c


# -- the float family against the exact one, across the |c| band ---------------

# |c| of the drawn points, down to where recover sets a float |c| to 0
C_BAND = (Fraction(0), Fraction(1, 10 ** 12), Fraction(1, 10 ** 8), Fraction(1, 10 ** 4),
          Fraction(3, 10))
# absolute, on every coefficient: forms and parameters on the models are O(1)
# and the float ops on their metric I round a few ulps
CROSS_LANE_TOL = 1e-14


def band_point(c0, unit, sign):
    """An exact point (c, w) of the sphere with c = sign |c|, |c| within
    1e-20 of c0 and w along the rational unit vector unit: c = (1 - t^2) /
    (1 + t^2), w = 2t / (1 + t^2) unit, for t = r / 10^20 and r the integer
    square root of 10^40 (1 - c0) / (1 + c0) (t = 1, c = 0 at c0 = 0)."""
    n2 = 10 ** 40
    q = n2 * (1 - c0) / (1 + c0)
    r = math.isqrt(q.numerator // q.denominator)
    d = n2 + r * r
    w = [Fraction(2 * r * 10 ** 20, d) * x for x in unit]
    return TwistParams(sign * Fraction(n2 - r * r, d), KForm(1, tuple(w + [0] * (DIM - len(w)))))


def float_params(p):
    return TwistParams(float(p.c), KForm(1, tuple(float(x) for x in p.omega.coeffs)))


def float_gap(f: KForm, e: KForm) -> float:
    return max(abs(x - float(y)) for x, y in zip(f.coeffs, e.coeffs))


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
@given(st.sampled_from(C_BAND), st.sampled_from((1, -1)), st.integers(0, 2 ** 32))
@settings(max_examples=25, deadline=None)
def test_float_family_matches_exact_across_the_c_band(kind, c0, sign, seed):
    """On the three models, with omega in the model's b1 coordinates and |c|
    in {0, 1e-12, 1e-8, 1e-4, 0.3}: float twist, twist_decomposed, recover
    and derivative_rank on float(x) agree with float(exact result on x).
    Forms and recovered parameters within CROSS_LANE_TOL on every
    coefficient (recover's parameters modulo the antipode, with the exact c
    set to 0 where recover zeroes a float |c| <= C_ZERO_SWITCH); ranks equal."""
    m = flat_model(kind)
    se, sf = model_structure(kind, "exact"), model_structure(kind, "float")
    p = band_point(c0, rational_unit_tuple(random.Random(seed), m.b1), sign)
    pf = float_params(p)
    phit = twist(se, p)
    assert float_gap(twist(sf, pf), phit) <= CROSS_LANE_TOL
    de, df = twist_decomposed(se, p), twist_decomposed(sf, pf)
    assert all(float_gap(f, e) <= CROSS_LANE_TOL
               for f, e in zip((df.p1, df.p7, df.p27), (de.p1, de.p7, de.p27)))
    got = recover(sf, KForm(3, tuple(float(x) for x in phit.coeffs))).params
    want = float_params(recover(se, phit).params)
    if abs(want.c) <= C_ZERO_SWITCH:
        want = TwistParams(0.0, want.omega)
    assert min(max(abs(got.c - q.c), float_gap(got.omega, q.omega))
               for q in (want, want.antipode())) <= CROSS_LANE_TOL
    assert derivative_rank(sf, pf, m.b1) == derivative_rank(se, p, m.b1)
