"""Named invariant checks covering every module.

Each check draws its own deterministic random stream from (seed, name), so
adding, removing or reordering checks does not perturb the others.  Exact-mode
checks assert literal equality; float checks compare against the supplied
tolerance.  The whole battery is budgeted to finish in well under a minute.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .bryant import (
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
from .context import EXACT, FLOAT
from .errors import (
    DecompositionError,
    ExactModeError,
    MetricMismatchError,
    ModelError,
    ParseError,
    SubspaceViolationError,
)
from .exterior import (
    BASIS,
    DIM,
    EUCLIDEAN,
    NEGATIVE,
    POSITIVE,
    KForm,
    flat,
    form_inner,
    hodge_star,
    interior,
    pullback,
    sharp,
    volume_form,
    wedge,
)
from .g2core import (
    G2Structure,
    SymTensor,
    decompose2,
    decompose3,
    infinitesimal_action,
    is_g2_form,
    metric_from_phi,
    odot,
    odot_inverse,
    odot_local,
    phi0,
    standard_structure,
    symmetric_basis,
    triple_star_sign,
)
from .liegroup import (
    HolonomySpec,
    coset_tangent_dim,
    g2_algebra_basis,
    is_g2,
    is_so7,
    lie_normalizer,
    matrix_exp,
    nf_member,
    sample_g2,
    sample_so7,
    so7_basis,
    two_form_to_matrix,
)
from .models import (
    flat_model,
    gamma_membership,
    gamma_sample,
    holonomy_sample,
    model_phi,
    model_structure,
    translation_action,
    translation_orbit,
    covering_sheet_count,
)
from .sampling import (
    float_kform,
    rational_kform,
    rational_spd_metric,
    rational_symmetric,
)
from . import serialize


class CheckFailure(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _ensure(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


def _ensure_zero(form: KForm, msg: str, tol: float = 0.0):
    m = form.max_abs()
    if isinstance(m, float) or tol:
        _ensure(float(m) <= tol, f"{msg}: residual {m}")
    else:
        _ensure(m == 0, f"{msg}: residual {m}")


def _rand_degree_pair(rng):
    k = rng.randint(0, DIM)
    l = rng.randint(0, DIM - k)
    return k, l


# -- exterior algebra ---------------------------------------------------


def check_wedge_graded_symmetry(rng, tol):
    for _ in range(60):
        k, l = _rand_degree_pair(rng)
        a = rational_kform(rng, k)
        b = rational_kform(rng, l)
        sign = -1 if (k * l) % 2 else 1
        _ensure_zero(wedge(a, b) - wedge(b, a) * sign, f"wedge symmetry at degrees {k},{l}")
        if k % 2 == 1 and 2 * k <= DIM:
            _ensure_zero(wedge(a, a), f"odd self-wedge at degree {k}")
    return "60 random pairs"


def check_wedge_associative(rng, tol):
    for _ in range(40):
        k = rng.randint(0, 3)
        l = rng.randint(0, 3 - k if k < 3 else 0)
        m = rng.randint(0, DIM - k - l)
        a, b, c = (rational_kform(rng, d) for d in (k, l, m))
        _ensure_zero(wedge(wedge(a, b), c) - wedge(a, wedge(b, c)),
                     f"associativity at degrees {k},{l},{m}")
    return "40 random triples"


def check_interior_antiderivation(rng, tol):
    for _ in range(40):
        k = rng.randint(1, DIM - 1)
        l = rng.randint(1, DIM - k)
        a = rational_kform(rng, k)
        b = rational_kform(rng, l)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(DIM))
        lhs = interior(v, wedge(a, b))
        sign = -1 if k % 2 else 1
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * sign
        _ensure_zero(lhs - rhs, f"antiderivation at degrees {k},{l}")
    return "40 random pairs"


def check_interior_squares_zero(rng, tol):
    for _ in range(30):
        k = rng.randint(2, DIM)
        a = rational_kform(rng, k)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(DIM))
        _ensure_zero(interior(v, interior(v, a)), f"double contraction at degree {k}")
    return "30 random forms"


def check_star_involution(rng, tol):
    for g in (EUCLIDEAN, rational_spd_metric(rng), rational_spd_metric(rng)):
        for o in (POSITIVE, NEGATIVE):
            for k in range(DIM + 1):
                a = rational_kform(rng, k)
                again = hodge_star(hodge_star(a, g, o), g, o)
                _ensure_zero(again - a, f"star twice at degree {k}")
    return "3 metrics x 2 orientations x 8 degrees"


def check_star_pairing(rng, tol):
    for _ in range(12):
        g = rational_spd_metric(rng)
        vol = volume_form(g, POSITIVE)
        k = rng.randint(0, DIM)
        a = rational_kform(rng, k)
        b = rational_kform(rng, k)
        lhs = wedge(a, hodge_star(b, g, POSITIVE))
        _ensure_zero(lhs - vol * form_inner(a, b, g), f"pairing at degree {k}")
    return "12 random metric/form pairs"


def check_star_orientation_flip(rng, tol):
    for _ in range(10):
        g = rational_spd_metric(rng)
        k = rng.randint(0, DIM)
        a = rational_kform(rng, k)
        _ensure_zero(hodge_star(a, g, NEGATIVE) + hodge_star(a, g, POSITIVE),
                     f"orientation flip at degree {k}")
    return "10 random forms"


def check_musical_inverse(rng, tol):
    for _ in range(20):
        g = rational_spd_metric(rng)
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(DIM))
        back = sharp(flat(v, g), g)
        _ensure(all(x == y for x, y in zip(back, v)), "sharp(flat(v)) != v")
        a = rational_kform(rng, 1)
        _ensure_zero(flat(sharp(a, g), g) - a, "flat(sharp(a)) != a")
    return "20 random metrics"


def check_pullback_composition(rng, tol):
    for _ in range(10):
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
        B = [[Fraction(rng.randint(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
        k = rng.randint(1, 4)
        a = rational_kform(rng, k)
        _ensure_zero(pullback(a, ratlin.matmul(A, B)) - pullback(pullback(a, A), B),
                     f"pullback composition at degree {k}")
    return "10 random matrix pairs"


# -- the standard 3-form and its decompositions -------------------------


def check_phi_metric_identity(rng, tol):
    s = standard_structure()
    _ensure(s.metric.is_euclidean, "induced metric is not the identity")
    _ensure(s.orientation.sign == 1, "induced orientation is not +1")
    _ensure(form_inner(s.phi, s.phi, s.metric) == 7, "|phi|^2 != 7")
    _ensure_zero(wedge(s.phi, s.star_phi) - s.vol * 7, "phi ^ *phi != 7 vol")
    g2, o2 = metric_from_phi(phi0() * -1)
    _ensure(o2.sign == -1, "negated form should flip orientation")
    _ensure(tuple(tuple(r) for r in g2.rows) == tuple(tuple(r) for r in s.metric.rows),
            "negated form should induce the same metric")
    _ensure(is_g2_form(phi0()) and not is_g2_form(KForm.zero(3, EXACT)),
            "membership test disagrees on the standard form")
    return "metric/orientation/norm on the standard form"


def check_two_form_spectrum(rng, tol):
    s = standard_structure()
    _ensure(s.lambda7 == 2 and s.lambda14 == -1, f"eigenvalues {s.lambda7}, {s.lambda14}")
    _ensure(len(s.basis2_7) == 7 and len(s.basis2_14) == 14, "eigenspace dimensions off")
    cols = []
    for idx in BASIS[2]:
        t = s.two_form_operator(KForm.basis(idx))
        cols.append(list(t.coeffs))
    T = ratlin.transpose(cols)
    I = ratlin.identity(len(BASIS[2]))
    m7 = [[T[i][j] - s.lambda7 * I[i][j] for j in range(21)] for i in range(21)]
    m14 = [[T[i][j] - s.lambda14 * I[i][j] for j in range(21)] for i in range(21)]
    prod = ratlin.matmul(m7, m14)
    _ensure(ratlin.mat_max_abs(prod) == 0, "(T - 2)(T + 1) != 0")
    return "eigenvalues 2 and -1, minimal polynomial verified"


def check_decompose2_eigen(rng, tol):
    s = standard_structure()
    for _ in range(50):
        beta = rational_kform(rng, 2)
        d = decompose2(beta, s)
        _ensure_zero(d.total() - beta, "parts do not sum back")
        _ensure_zero(s.two_form_operator(d.p7) - d.p7 * s.lambda7, "p7 not an eigenvector")
        _ensure_zero(s.two_form_operator(d.p14) - d.p14 * s.lambda14, "p14 not an eigenvector")
        _ensure(form_inner(d.p7, d.p14, s.metric) == 0, "parts not orthogonal")
        _ensure_zero(wedge(d.p14, s.star_phi), "p14 ^ *phi != 0")
        _ensure_zero(wedge(d.p7, s.phi) - s.star(d.p7) * s.lambda7, "p7 ^ phi != 2 * p7")
    return "50 random 2-forms"


def check_decompose3_projection(rng, tol):
    s = standard_structure()
    for _ in range(50):
        eta = rational_kform(rng, 3)
        d = decompose3(eta, s)
        _ensure_zero(d.total() - eta, "parts do not sum back")
        _ensure(form_inner(d.p1, d.p7, s.metric) == 0, "p1 not orthogonal to p7")
        _ensure(form_inner(d.p1, d.p27, s.metric) == 0, "p1 not orthogonal to p27")
        _ensure(form_inner(d.p7, d.p27, s.metric) == 0, "p7 not orthogonal to p27")
        _ensure_zero(d.p1 - s.phi * (form_inner(eta, s.phi, s.metric) * Fraction(1, 7)),
                     "p1 is not the phi component")
        again = decompose3(d.p27, s)
        _ensure_zero(again.p1, "p27 has a phi component")
        _ensure_zero(again.p7, "p27 has a 7-part")
        _ensure_zero(again.p27 - d.p27, "p27 not idempotent")
    return "50 random 3-forms"


def check_projector_ranks(rng, tol):
    s = standard_structure()
    rows1, rows7, rows27 = [], [], []
    for idx in BASIS[3]:
        d = decompose3(KForm.basis(idx), s)
        rows1.append(list(d.p1.coeffs))
        rows7.append(list(d.p7.coeffs))
        rows27.append(list(d.p27.coeffs))
    ranks3 = tuple(EXACT.rank(m) for m in (rows1, rows7, rows27))
    _ensure(ranks3 == (1, 7, 27), f"3-form projector ranks {ranks3}")
    rows7b, rows14 = [], []
    for idx in BASIS[2]:
        d = decompose2(KForm.basis(idx), s)
        rows7b.append(list(d.p7.coeffs))
        rows14.append(list(d.p14.coeffs))
    ranks2 = tuple(EXACT.rank(m) for m in (rows7b, rows14))
    _ensure(ranks2 == (7, 14), f"2-form projector ranks {ranks2}")
    return "ranks (1,7,27) and (7,14)"


def check_odot_metric_identity(rng, tol):
    s = standard_structure()
    g = [list(r) for r in s.metric.rows]
    _ensure_zero(odot(g, s) - s.phi * 3, "g acting on phi != 3 phi")
    scaled = [[Fraction(5) * x for x in row] for row in g]
    _ensure_zero(odot(scaled, s) - s.phi * 15, "scaling is not linear")
    return "metric acts as 3 phi"


def check_odot_antisymmetric_kernel(rng, tol):
    s = standard_structure()
    rows7 = []
    for b in s.basis2_14:
        _ensure_zero(infinitesimal_action(two_form_to_matrix(b), s),
                     "14-space matrix does not kill phi")
    for b in s.basis2_7:
        out = infinitesimal_action(two_form_to_matrix(b), s)
        d = decompose3(out, s)
        _ensure_zero(d.p1, "7-space action has a phi component")
        _ensure_zero(d.p27, "7-space action leaks into the 27-part")
        rows7.append(list(out.coeffs))
    _ensure(EXACT.rank(rows7) == 7, "7-space action drops rank")
    return "kernel 14, image 7 inside the 7-part"


def check_odot_symmetric_rank(rng, tol):
    s = standard_structure()
    cols = [list(odot(b, s).coeffs) for b in symmetric_basis(EXACT)]
    _ensure(EXACT.rank(cols) == 28, "symmetric action is not injective")
    for _ in range(10):
        b = rational_symmetric(rng)
        tr = sum(b[i][i] for i in range(DIM))
        traceless = [[b[i][j] - (tr * Fraction(1, 7) if i == j else 0) for j in range(DIM)]
                     for i in range(DIM)]
        d = decompose3(odot(traceless, s), s)
        _ensure_zero(d.p1, "traceless symmetric action has a phi part")
        _ensure_zero(d.p7, "traceless symmetric action has a 7-part")
    return "rank 28; traceless lands in the 27-part"


def check_odot_inverse_roundtrip(rng, tol):
    s = standard_structure()
    for _ in range(30):
        b = SymTensor(rational_symmetric(rng))
        back = odot_inverse(odot(b, s), s)
        diff = max(abs(x - y) for rb, rc in zip(back.rows, b.rows) for x, y in zip(rb, rc))
        _ensure(diff == 0, f"roundtrip residual {diff}")
    try:
        odot_inverse(s.frame3_7[0], s)
    except DecompositionError:
        pass
    else:
        raise CheckFailure("3-form with a 7-part should be rejected")
    return "30 random symmetric tensors"


def check_odot_local_agreement(rng, tol):
    s = standard_structure()
    for _ in range(15):
        b = rational_symmetric(rng)
        _ensure_zero(odot_local(b, s) - odot(b, s), "standard frame disagrees")
    sf = standard_structure("float")
    F = sample_so7(random.Random(rng.random()))
    for _ in range(5):
        b = [[float(x) for x in row] for row in rational_symmetric(rng)]
        ambient = ratlin.matmul(ratlin.transpose(F), ratlin.matmul(b, F))
        diff = odot_local(b, sf, frame=[tuple(r) for r in F]) - odot(ambient, sf)
        _ensure_zero(diff, "rotated frame disagrees", tol=max(tol, 1e-9))
    return "standard frame exact, rotated frame to 1e-9"


def check_triple_star_identity(rng, tol):
    s = standard_structure()
    sigma = triple_star_sign()
    _ensure(sigma in (-1, 1), f"sign {sigma}")
    for _ in range(50):
        alpha = rational_kform(rng, 1)
        lhs = wedge(s.star_phi, s.star(wedge(s.star_phi, alpha)))
        _ensure_zero(lhs - s.star(alpha) * (3 * sigma), "contraction identity fails")
    return f"sign {sigma:+d}, 50 random 1-forms"


def check_quadratic_term_parts(rng, tol):
    s = standard_structure()
    for _ in range(50):
        w = rational_kform(rng, 1)
        q = wedge(w, s.star(wedge(w, s.star_phi)))
        d = decompose3(q, s)
        n2 = form_inner(w, w, s.metric)
        _ensure_zero(d.p1 - s.phi * (n2 * Fraction(3, 7)), "phi part is not (3/7)|w|^2")
        _ensure_zero(d.p7, "quadratic term has a 7-part")
    return "50 random 1-forms"


# -- the twisted family --------------------------------------------------


def check_twist_fixes_metric(rng, tol):
    s = standard_structure()
    for _ in range(100):
        p = sample_params(rng)
        g, o = metric_from_phi(twist(s, p))
        _ensure(o.sign == s.orientation.sign, "orientation moved")
        _ensure(tuple(tuple(r) for r in g.rows) == tuple(tuple(r) for r in s.metric.rows),
                "metric moved")
    return "100 random parameter points, exact"


def check_twist_antipodal(rng, tol):
    s = standard_structure()
    for _ in range(100):
        p = sample_params(rng)
        _ensure_zero(twist(s, p) - twist(s, p.antipode()), "antipode gives a different form")
    _ensure_zero(twist(s, TwistParams(1, KForm.zero(1, EXACT))) - s.phi, "identity point")
    _ensure_zero(twist(s, TwistParams(-1, KForm.zero(1, EXACT))) - s.phi, "antipodal identity")
    return "100 random points plus both poles"


def check_twist_inner_product(rng, tol):
    s = standard_structure()
    for _ in range(60):
        p = sample_params(rng)
        val = form_inner(twist(s, p), s.phi, s.metric)
        _ensure(val == 8 * p.c * p.c - 1, f"<twist, phi> = {val}")
    return "60 random points"


def check_twist_decomposed_consistency(rng, tol):
    s = standard_structure()
    for _ in range(25):
        p = sample_params(rng)
        phit = twist(s, p)
        dd = twist_decomposed(s, p)
        d = decompose3(phit, s)
        _ensure_zero(dd.total() - phit, "closed-form parts do not sum to the twist")
        _ensure_zero(dd.p1 - d.p1, "phi parts disagree")
        _ensure_zero(dd.p7 - d.p7, "7-parts disagree")
        _ensure_zero(dd.p27 - d.p27, "27-parts disagree")
    return "25 random points"


def check_recover_roundtrip(rng, tol):
    s = standard_structure()
    for i in range(18):
        p = sample_params(rng, force_c_zero=(i % 5 == 4))
        rec = recover(s, twist(s, p))
        _ensure(rec.params.equivalent_to(p), "recovered point is not the input mod antipode")
        _ensure(rec.residual == 0, f"exact residual {rec.residual}")
    return "18 roundtrips, 3 with c = 0"


def check_recover_rejects_foreign_metric(rng, tol):
    s = standard_structure()
    stretch = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
               for i in range(DIM)]
    foreign = pullback(phi0(), stretch)
    try:
        recover(s, foreign)
    except MetricMismatchError:
        return "stretched form refused"
    raise CheckFailure("form with a different induced metric was accepted")


def check_twist_closure(rng, tol):
    s = standard_structure()
    for _ in range(3):
        p1 = sample_params(rng)
        s1 = G2Structure(twist(s, p1))
        p2 = sample_params(rng)
        rec = recover(s, twist(s1, p2))
        _ensure(rec.residual == 0, f"two-step twist not in the family, residual {rec.residual}")
    return "3 two-step compositions"


def check_derivative_matches_difference(rng, tol):
    s = standard_structure("float")
    worst = 0.0
    for _ in range(30):
        p = sample_params(rng)
        pf = TwistParams(float(p.c), p.omega.as_float())
        q = sample_params(rng)
        vec = [float(q.c)] + [float(x) for x in q.omega.coeffs]
        base = [float(p.c)] + [float(x) for x in p.omega.coeffs]
        dot = sum(x * y for x, y in zip(vec, base))
        vec = [x - dot * y for x, y in zip(vec, base)]
        n = math.sqrt(sum(x * x for x in vec))
        if n < 1e-6:
            continue
        vec = [x / n for x in vec]
        t = TwistTangent(vec[0], KForm(1, tuple(vec[1:])))
        h = 1e-6

        def at(theta):
            c = math.cos(theta)
            sn = math.sin(theta)
            pt = TwistParams(c * base[0] + sn * vec[0],
                             KForm(1, tuple(c * b + sn * v for b, v in
                                            zip(base[1:], vec[1:]))))
            return twist(s, pt)

        fd = (at(h) - at(-h)) * (1.0 / (2 * h))
        an = twist_derivative(s, pf, t)
        err = (fd - an).max_abs()
        worst = max(worst, float(err))
        _ensure(float(err) <= 1e-5, f"difference quotient off by {err}")
    return f"30 directions, worst gap {worst:.2e}"


def check_derivative_full_rank(rng, tol):
    s = standard_structure()
    pts = [TwistParams(1, KForm.zero(1, EXACT))]
    pts += [sample_params(rng) for _ in range(6)]
    pts += [sample_params(rng, force_c_zero=True) for _ in range(3)]
    for p in pts:
        r = derivative_rank(s, p, DIM)
        _ensure(r == 7, f"rank {r} at c={p.c}")
    lo, hi = derivative_margin(s, pts[0], DIM)
    _ensure(lo > 1e-9, f"singular value floor {lo}")
    return f"rank 7 at 10 points; margin at the pole [{lo:.3g}, {hi:.3g}]"


def check_derivative_subspace_rank(rng, tol):
    s = standard_structure()
    for d in (1, 3):
        for _ in range(3):
            p = sample_params(rng, subspace_dim=d)
            r = derivative_rank(s, p, d)
            _ensure(r == d, f"rank {r} with {d} directions")
    return "ranks 1 and 3 in restricted direction blocks"


def check_tangent_bases(rng, tol):
    s = standard_structure()
    for _ in range(5):
        p = sample_params(rng)
        basis = tangent_basis(s, p, DIM)
        _ensure(len(basis) == 7, f"tangent space dimension {len(basis)}")
        for t in basis:
            _ensure(t.tangency_residual(p, s) == 0, "basis vector not tangent")
        mat = derivative_matrix(s, p, DIM)
        _ensure(len(mat[0]) == 7, "matrix column count")
    return "5 points, 7 tangent directions each"


def check_zero_c_symmetric_derivative(rng, tol):
    s = standard_structure()
    for _ in range(15):
        p = sample_params(rng, force_c_zero=True)
        wdot = rational_kform(rng, 1)
        proj = form_inner(wdot, p.omega, s.metric)
        wdot = wdot - p.omega * proj
        t = TwistTangent(Fraction(0), wdot)
        h = [[wdot.coeffs[i] * p.omega.coeffs[j] + p.omega.coeffs[i] * wdot.coeffs[j]
              for j in range(DIM)] for i in range(DIM)]
        lhs = twist_derivative(s, p, t)
        rhs = odot([[2 * x for x in row] for row in h], s)
        _ensure_zero(lhs - rhs, "symmetric-tensor identity fails at c = 0")
    return "15 points on the equator"


# -- groups and algebras --------------------------------------------------


def check_algebra_dimension(rng, tol):
    s = standard_structure()
    basis = g2_algebra_basis(s)
    _ensure(basis.dim == 14, f"stabilizer algebra dimension {basis.dim}")
    for m in basis.matrices:
        _ensure_zero(infinitesimal_action(m, s), "generator does not kill phi")
    inner = lie_normalizer(basis, basis)
    _ensure(inner.dim == 14, f"self-normalizer dimension {inner.dim}")
    return "dimension 14, closed under brackets"


def check_normalizer_in_so7(rng, tol):
    n = lie_normalizer(so7_basis(EXACT), g2_algebra_basis())
    _ensure(n.dim == 14, f"normalizer dimension {n.dim}")
    return "self-normalizing inside so(7)"


def check_normalizer_plane_rotation(rng, tol):
    amb = so7_basis(EXACT)
    gen = [[Fraction(0)] * DIM for _ in range(DIM)]
    gen[0][1] = Fraction(1)
    gen[1][0] = Fraction(-1)
    from .liegroup import SubalgebraBasis
    n = lie_normalizer(amb, SubalgebraBasis((tuple(tuple(r) for r in gen),)))
    _ensure(n.dim == 11, f"normalizer of one plane rotation has dimension {n.dim}")
    return "so(2) + so(5), dimension 11"


def check_exponentials_land_in_groups(rng, tol):
    s = standard_structure()
    basis = g2_algebra_basis(s)
    for _ in range(8):
        coeffs = [rng.uniform(-1, 1) for _ in range(basis.dim)]
        A = [[sum(c * float(m[i][j]) for c, m in zip(coeffs, basis.matrices))
              for j in range(DIM)] for i in range(DIM)]
        g = matrix_exp(A)
        _ensure(is_g2(g), "exponential left the stabilizer group")
    g = sample_so7(rng)
    _ensure(is_so7(g), "sampled rotation is not orthogonal")
    try:
        matrix_exp([[Fraction(0)] * DIM for _ in range(DIM)])
    except ExactModeError:
        pass
    else:
        raise CheckFailure("exact input to the exponential should be refused")
    return "8 stabilizer exponentials plus rejection of exact input"


def check_membership_under_conjugation(rng, tol):
    spec = HolonomySpec.trivial()
    g = sample_so7(rng)
    _ensure(nf_member(g, spec), "trivial generators accept everything")
    gens = tuple(sample_g2(rng) for _ in range(3))
    spec2 = HolonomySpec(gens)
    _ensure(nf_member(sample_g2(rng), spec2), "stabilizer element rejected")
    theta = math.pi / 5
    rot = [[1.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)]
    rot[0][0] = rot[1][1] = math.cos(theta)
    rot[0][1] = -math.sin(theta)
    rot[1][0] = math.sin(theta)
    _ensure(not nf_member(rot, spec2), "plane rotation outside the stabilizer accepted")
    return "trivial, inside, and outside cases"


def check_coset_dimensions(rng, tol):
    _ensure(coset_tangent_dim(HolonomySpec.trivial()) == 7, "trivial generators")
    eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(DIM)) for i in range(DIM))
    _ensure(coset_tangent_dim(HolonomySpec((eye,))) == 7, "identity generator")
    gens = tuple(sample_g2(rng) for _ in range(3))
    d = coset_tangent_dim(HolonomySpec(gens))
    _ensure(d == 0, f"dense stabilizer sample gives {d}")
    return "7 for trivial, 0 for a dense stabilizer sample"


# -- the three flat models ------------------------------------------------


def check_model_forms(rng, tol):
    expected = {"t7": (7, "trivial"), "s1xcy3": (1, "su3"), "t3xk3": (3, "su2")}
    base = phi0()
    for kind, (b1, label) in expected.items():
        m = flat_model(kind)
        _ensure(m.b1 == b1 and m.holonomy_label == label, f"wrong invariants for {kind}")
        _ensure_zero(model_phi(m) - base, f"{kind} does not build the standard form")
    return "all three models build the standard form"


def check_model_gamma_roundtrip(rng, tol):
    for kind in ("t7", "s1xcy3", "t3xk3"):
        m = flat_model(kind)
        s = model_structure(kind)
        for i in range(4):
            pt = gamma_sample(m, rng, force_c_zero=(i == 3))
            back = gamma_membership(m, twist(s, pt.params))
            _ensure(back.params.equivalent_to(pt.params), f"{kind} roundtrip moved the point")
    return "4 points per model"


def check_model_subspace_enforced(rng, tol):
    m = flat_model("s1xcy3")
    s = model_structure("s1xcy3")
    w = KForm.from_entries(1, {(4,): Fraction(4, 5)}, EXACT)
    p = TwistParams(Fraction(3, 5), w)
    try:
        gamma_membership(m, twist(s, p))
    except SubspaceViolationError:
        return "off-model direction refused"
    raise CheckFailure("direction outside the model's block was accepted")


def check_model_rank_matches_b1(rng, tol):
    for kind in ("t7", "s1xcy3", "t3xk3"):
        m = flat_model(kind)
        s = model_structure(kind)
        for _ in range(2):
            pt = gamma_sample(m, rng)
            r = derivative_rank(s, pt.params, m.b1)
            _ensure(r == m.b1, f"{kind}: rank {r}, first Betti number {m.b1}")
    return "rank equals b1 for every model"


def check_model_holonomy_cosets(rng, tol):
    for kind in ("t7", "s1xcy3", "t3xk3"):
        m = flat_model(kind)
        spec = holonomy_sample(m, rng)
        d = coset_tangent_dim(spec)
        _ensure(d == m.b1, f"{kind}: coset dimension {d} != {m.b1}")
    return "coset dimension equals b1 for every model"


def check_translations_act_trivially(rng, tol):
    m = flat_model("t7")
    pt = gamma_sample(m, rng)
    translations = [tuple(rng.uniform(0, 1) for _ in range(DIM)) for _ in range(25)]
    orbit = translation_orbit(m, pt, translations)
    _ensure(len(orbit) == 1, f"orbit size {len(orbit)}")
    n = covering_sheet_count(m, pt, rng)
    _ensure(n == 1, f"sheet count {n}")
    other = flat_model("s1xcy3")
    try:
        translation_action(other, translations[0], gamma_sample(other, rng))
    except ModelError:
        pass
    else:
        raise CheckFailure("translation action should be specific to the 7-torus model")
    return "orbit and covering are singletons"


# -- serialization ---------------------------------------------------------


def check_serialization_roundtrips(rng, tol):
    a = rational_kform(rng, 3)
    back = serialize.kform_from_json(serialize.kform_to_json(a), EXACT)
    _ensure_zero(back - a, "exact 3-form roundtrip")
    f = float_kform(rng, 2)
    backf = serialize.kform_from_json(serialize.kform_to_json(f), FLOAT)
    _ensure_zero(backf - f, "float 2-form roundtrip")
    p = sample_params(rng)
    backp = serialize.twistparams_from_json(serialize.twistparams_to_json(p), EXACT)
    _ensure(backp.c == p.c and backp.omega.isclose(p.omega), "parameter roundtrip")
    s = standard_structure()
    blob = serialize.g2structure_to_json(s)
    s2 = serialize.g2structure_from_json(blob)
    _ensure_zero(s2.phi - s.phi, "structure roundtrip")
    tampered = dict(blob)
    tampered["derived_sha256"] = "0" * 64
    for bad, what in (
        (tampered, "tampered hash"),
        ({"degree": 1, "entries": [{"idx": [1], "coeff": 0.5}]}, "float in exact mode"),
        ({"degree": 1, "entries": [{"idx": [1], "coeff": "1"},
                                   {"idx": [1], "coeff": "2"}]}, "duplicate index"),
    ):
        try:
            if what == "tampered hash":
                serialize.g2structure_from_json(bad)
            else:
                serialize.kform_from_json(bad, EXACT)
        except ParseError:
            continue
        raise CheckFailure(f"{what} was accepted")
    return "roundtrips plus three malformed payloads refused"


CHECKS = [
    ("exterior.wedge_graded_symmetry", check_wedge_graded_symmetry),
    ("exterior.wedge_associative", check_wedge_associative),
    ("exterior.interior_antiderivation", check_interior_antiderivation),
    ("exterior.interior_squares_zero", check_interior_squares_zero),
    ("exterior.star_involution", check_star_involution),
    ("exterior.star_pairing", check_star_pairing),
    ("exterior.star_orientation_flip", check_star_orientation_flip),
    ("exterior.musical_inverse", check_musical_inverse),
    ("exterior.pullback_composition", check_pullback_composition),
    ("core.phi_metric_identity", check_phi_metric_identity),
    ("core.two_form_spectrum", check_two_form_spectrum),
    ("core.decompose2_eigen", check_decompose2_eigen),
    ("core.decompose3_projection", check_decompose3_projection),
    ("core.projector_ranks", check_projector_ranks),
    ("core.odot_metric_identity", check_odot_metric_identity),
    ("core.odot_antisymmetric_kernel", check_odot_antisymmetric_kernel),
    ("core.odot_symmetric_rank", check_odot_symmetric_rank),
    ("core.odot_inverse_roundtrip", check_odot_inverse_roundtrip),
    ("core.odot_local_agreement", check_odot_local_agreement),
    ("core.triple_star_identity", check_triple_star_identity),
    ("core.quadratic_term_parts", check_quadratic_term_parts),
    ("bryant.twist_fixes_metric", check_twist_fixes_metric),
    ("bryant.twist_antipodal", check_twist_antipodal),
    ("bryant.twist_inner_product", check_twist_inner_product),
    ("bryant.twist_decomposed_consistency", check_twist_decomposed_consistency),
    ("bryant.recover_roundtrip", check_recover_roundtrip),
    ("bryant.recover_rejects_foreign_metric", check_recover_rejects_foreign_metric),
    ("bryant.twist_closure", check_twist_closure),
    ("bryant.derivative_matches_difference", check_derivative_matches_difference),
    ("bryant.derivative_full_rank", check_derivative_full_rank),
    ("bryant.derivative_subspace_rank", check_derivative_subspace_rank),
    ("bryant.tangent_bases", check_tangent_bases),
    ("bryant.zero_c_symmetric_derivative", check_zero_c_symmetric_derivative),
    ("lie.algebra_dimension", check_algebra_dimension),
    ("lie.normalizer_in_so7", check_normalizer_in_so7),
    ("lie.normalizer_plane_rotation", check_normalizer_plane_rotation),
    ("lie.exponentials_land_in_groups", check_exponentials_land_in_groups),
    ("lie.membership_under_conjugation", check_membership_under_conjugation),
    ("lie.coset_dimensions", check_coset_dimensions),
    ("models.standard_forms", check_model_forms),
    ("models.gamma_roundtrip", check_model_gamma_roundtrip),
    ("models.subspace_enforced", check_model_subspace_enforced),
    ("models.rank_matches_b1", check_model_rank_matches_b1),
    ("models.holonomy_cosets", check_model_holonomy_cosets),
    ("models.translations_act_trivially", check_translations_act_trivially),
    ("serialize.roundtrips", check_serialization_roundtrips),
]


def run_selftest(seed: int = 0, tol: float = 1e-9) -> list:
    """Run every check of CHECKS, in order, and return one CheckResult each."""
    results = []
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        t0 = time.perf_counter()
        try:
            detail = fn(rng, tol)
            passed = True
        except CheckFailure as exc:
            detail = str(exc)
            passed = False
        dt = time.perf_counter() - t0
        results.append(CheckResult(name, passed, detail, dt))
    return results
