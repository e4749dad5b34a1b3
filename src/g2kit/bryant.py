"""The metric-preserving family of 3-forms through a structure.

A parameter point is a pair (c, omega) with c^2 + |omega|^2 = 1; twisting a
structure by it produces another 3-form with the same induced metric and
orientation, and (c, omega), (-c, -omega) give the same form.  This module
implements the twist, its closed-form type decomposition, exact/float
recovery of the canonical parameters from a twisted form, and the derivative
of the twist map with its rank on an ambient parameter subspace.

The twist, its type parts and its derivative run no star and no wedge.
They read the structure's polarized table, Bryant's formula as a symmetric
bilinear map B on the coordinate directions c, dx_1..dx_7, stored as its
nonzero scaled entries (ints in the exact lane), and sum those entries with
the point's and the tangents' coordinates: the twist at x = (c, w) is
sum_ab x_a x_b B(a, b).  A point is read once per call as x = xs / xden,
off c and omega's stored (num, den), and c^2 + |w|^2 = 1 is one scaled
identity on xs (ints in exact mode; _twist_point).  The derivative's rank
needs no tangent basis: it is the rank of the point's ambient images D_b
under that table, less one (derivative_rank).  On a Euclidean metric it is
read off Bryant's Gram identity <D_a, D_b> = 4 |x|^2 delta_ab + 3 x_a x_b,
checked on the images' scaled numerators, with no elimination; Context.rank
is the fallback.  Recovery reads X = x x^T off the
form and takes x as a pivot column of X over the root of its diagonal
entry: the pivot c when c^2 >= 1/16, else the largest diagonal entry of the
block w w^T, so no point of the sphere divides by a small number.  Its
re-twist decides: every twist of a point of the sphere induces the
structure's metric and orientation (Bryant), so a literally zero residual
accepts with no metric test, and any other residual is accepted where a
bound read off it (G2Structure.check_retwist: the residual, the rounding
of the float re-twist and the point's distance from the sphere) keeps
B(phit) within the metric test's slack of B(phi), with no B(phit).  The
structure's metric test (G2Structure.check_metric) runs only after a
refused step or where that bound does not decide.  Both lanes run one code
path; float checks read CONSTRAINT_TOL and RECOVERY_TOL from context.py, a
recovered |c| at or below C_ZERO_SWITCH is set to 0 before the antipodal
representative is picked, and the exact lane tests literal equality.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import ratlin
from .context import C_ZERO_SWITCH, CONSTRAINT_TOL, DEFAULT_TOL, RECOVERY_TOL, np
from .errors import (
    ConstraintError,
    DegreeError,
    G2KitError,
    RecoveryError,
    TangencyError,
)
from .exterior import (
    DIM,
    NK,
    KForm,
    _gram_sum,
    _metric_inverse,
    _row_sum,
    coerce_form,
    form_inner,
    sharp,
)
from .g2core import (
    Decomposition3,
    G2Structure,
    _PAIRS,
    frame_coordinates,
)
from .sampling import rational_unit_tuple


@dataclass(frozen=True)
class TwistParams:
    """A point (c, omega) on the parameter sphere; omega is a 1-form."""

    c: object
    omega: KForm

    def __post_init__(self):
        if self.omega.degree != 1:
            raise DegreeError("twist parameter omega must be a 1-form")
        if isinstance(self.c, int):
            object.__setattr__(self, "c", Fraction(self.c))

    def constraint_residual(self, s: G2Structure):
        return self.c * self.c + form_inner(self.omega, self.omega, s.metric) - 1

    def antipode(self) -> "TwistParams":
        return TwistParams(-self.c, -self.omega)

    def canonical(self) -> "TwistParams":
        """The antipodal representative with c > 0, or with the first
        nonzero omega coefficient positive when c = 0: in the float lane the
        first one beyond DEFAULT_TOL times max(1, |omega|), so that the
        rounding noise of a recovered zero picks no sign.  At c = 0 only
        omega flips, so a float c = 0.0 keeps its sign."""
        if self.c > 0:
            return self
        if self.c < 0:
            return self.antipode()
        # the stored numerators carry the coefficients' signs (den > 0)
        lane = self.omega._lane
        scale = max(1, self.omega.max_abs())
        for x in self.omega.num:
            if not lane.is_zero(x, DEFAULT_TOL, scale):
                return self if x > 0 else TwistParams(self.c, -self.omega)
        return self

    def equivalent_to(self, other: "TwistParams", tol: float = 0.0) -> bool:
        """Equality modulo the antipodal identification."""
        def close(p, q):
            if tol == 0.0:
                return p.c == q.c and p.omega.isclose(q.omega)
            return abs(p.c - q.c) <= tol and p.omega.isclose(q.omega, tol)

        return close(self, other) or close(self.antipode(), other)


@dataclass(frozen=True)
class TwistTangent:
    """A tangent vector (c_dot, omega_dot) to the parameter sphere."""

    c_dot: object
    omega_dot: KForm

    def __post_init__(self):
        if self.omega_dot.degree != 1:
            raise DegreeError("tangent omega_dot must be a 1-form")
        if isinstance(self.c_dot, int):
            object.__setattr__(self, "c_dot", Fraction(self.c_dot))

    def tangency_residual(self, p: TwistParams, s: G2Structure):
        return p.c * self.c_dot + form_inner(p.omega, self.omega_dot, s.metric)


def _coerce_params(s: G2Structure, p: TwistParams) -> TwistParams:
    return TwistParams(s.ctx.scalar(p.c), coerce_form(p.omega, s.ctx))


def _scaled_point(s: G2Structure, p: TwistParams) -> tuple:
    """(xs, xden, sq, gden) for p = (c, w) in the structure's lane: its
    coordinates x = (c, w_1..w_7) = xs / xden, read off c and w's stored
    (num, den) with no Fraction per coefficient, and |w|^2 = sq / (gden xden^2)
    with g^-1 = G / gden, the metric's one g^-1 table (_metric_inverse).  So
    c^2 + |w|^2 = (xs_0^2 gden + sq) / (xden^2 gden), one identity on ints in
    exact mode; in float mode xden = gden = 1, and sq is form_inner's own
    sum (_gram_sum), so every float value is the one form_inner gives."""
    ctx, g = s.ctx, s.metric
    ((cn,),), cden = ctx.scaled([[ctx.scalar(p.c)]])
    omega = coerce_form(p.omega, ctx)
    wden = omega.den
    xden = cden // gcd(cden, wden) * wden
    k = xden // wden
    ws = [x * k for x in omega.num]
    if g.is_euclidean:
        sq, gden = sum(x * x for x in ws), 1
    else:
        rows, gden = _metric_inverse(g)
        sq = _gram_sum(rows, ws, ws)
    return [cn * (xden // cden), *ws], xden, sq, gden


def _twist_point(s: G2Structure, p: TwistParams, ambient_dim: int = DIM) -> tuple:
    """(xs, xden, sq, gden), p read as _scaled_point reads it, once
    ambient_dim is in 1..7 (ValueError), w lies in the first ambient_dim
    coordinates and c^2 + |w|^2 - 1 is zero (ConstraintError): literally in
    exact mode, within CONSTRAINT_TOL in float mode."""
    if not 1 <= ambient_dim <= DIM:
        raise ValueError("ambient_dim must be 1..7")
    ctx = s.ctx
    xs, xden, sq, gden = _scaled_point(s, p)
    if any(xs[ambient_dim + 1:]):
        raise ConstraintError("omega leaves the ambient coordinate subspace")
    # (c^2 + |w|^2 - 1) xden^2 gden; the scale is 1 in float mode
    one = xden * xden * gden
    res = xs[0] * xs[0] * gden + sq - one
    if not ctx.is_zero(res, CONSTRAINT_TOL):
        raise ConstraintError(f"c^2 + |omega|^2 - 1 = {ctx.ratio(res, one)}, "
                              f"not zero in the {ctx.mode} lane")
    return xs, xden, sq, gden


def _pair_terms(xs, start: int = 0) -> list:
    """(a, b, f) for the pairs a <= b of nonzero x_a, x_b with a, b >= start:
    f = x_a^2 on the diagonal and 2 x_a x_b off it, so that the terms sum
    to sum_ab x_a x_b B(a, b) over those directions."""
    nonzero = [(a, x) for a, x in enumerate(xs) if x and a >= start]
    return [(a, b, x * x if a == b else 2 * x * y)
            for i, (a, x) in enumerate(nonzero) for b, y in nonzero[i:]]


def _table_sum(table, terms, zero) -> list:
    """sum f B(a, b) over the (a, b, f) terms, as 3-form numerators summed
    from zero over the polarized table's nonzero (position, value) entries."""
    out = [zero] * NK[3]
    for a, b, f in terms:
        for k, v in table[a][b]:
            out[k] += f * v
    return out


def twist(s: G2Structure, p: TwistParams) -> KForm:
    """The twisted 3-form (c^2 - |w|^2) phi + 2c *(w ^ phi) + 2 w ^ *(w ^ *phi),
    as sum_ab x_a x_b B(a, b) on the polarized table at x = (c, w_1..w_7)."""
    xs, xden = _twist_point(s, p)[:2]
    return _twist_sum(s, xs, xden)


def _twist_sum(s: G2Structure, xs, xden) -> KForm:
    """sum_ab x_a x_b B(a, b) for x = xs / xden, on the polarized table; the
    same form at -x."""
    table, den = s.polarized_table
    num = _table_sum(table, _pair_terms(xs), s.ctx.scaled_zero)
    return KForm._of(3, num, den * xden * xden, s.ctx)


def twist_decomposed(s: G2Structure, p: TwistParams) -> Decomposition3:
    """Type components of the twist without going through projections.

    p1 = (8c^2 - 1)/7 phi,  p7 = 2c *(w ^ phi),
    p27 = 2 w ^ *(w ^ *phi) - (6/7) |w|^2 phi;  on the sphere these read
    (4 coef + 3)/7 and (3 - 3 coef)/7 for coef = c^2 - |w|^2.  On the
    polarized table p7 = 2c sum_j w_j B(e_c, dx_j) and
    p27 = Q_ww + (|w|^2 - (3 - 3 coef)/7) phi, for
    Q_ww = sum_ij w_i w_j B(dx_i, dx_j) = 2 w ^ *(w ^ *phi) - |w|^2 phi.
    The scalars of phi run on the point's ints (_twist_point) as scaled
    pairs, and each part is reduced once (Context.reduce).
    """
    xs, xden, sq, gden = _twist_point(s, p)
    ctx, phi = s.ctx, s.phi
    # |w|^2 = sq / one
    one = xden * xden * gden
    table, den = s.polarized_table
    den *= xden * xden
    c2 = 2 * xs[0]
    seven = [(0, b, c2 * y) for b, y in enumerate(xs) if b and y] if c2 else []
    p7 = KForm._of(3, _table_sum(table, seven, ctx.scaled_zero), den, ctx)
    qww = _table_sum(table, _pair_terms(xs, 1), ctx.scaled_zero)
    # coef = c^2 - |w|^2 = cn / one, and phi's coefficients in p1 and p27 as
    # scaled pairs: (4 coef + 3)/7 = a1 / d1, |w|^2 - (3 - 3 coef)/7 = a27 / d27
    cn = xs[0] * xs[0] * gden - sq
    (a1,), d1, _ = ctx.reduce([4 * cn + 3 * one], 7 * one)
    (b,), bden, _ = ctx.reduce([3 * one - 3 * cn], 7 * one)
    a27, d27 = sq * bden - b * one, one * bden
    # p27 = qww / den + phi a27 / d27 over one den
    pden = phi.den * d27
    full = lcm(den, pden)
    mq, mp = full // den, full // pden
    p27 = [x * mq + y * a27 * mp for x, y in zip(qww, phi.num)]
    return Decomposition3(p1=KForm._of(3, [y * a1 for y in phi.num], phi.den * d1, ctx),
                          p7=p7, p27=KForm._of(3, p27, full, ctx))


def _ambient_images(s: G2Structure, xs, xden, units: int) -> tuple:
    """(images, den): D_b = sum_a x_a B(a, b) = images[b] / den for the
    first `units` directions b of e_c, dx_1..dx_7.

    B is Bryant's formula polarized, read from the structure's polarized
    table on those directions, and x = (c, w_1..w_7) = xs / xden are the
    coordinates of a point (_twist_point).  Sums over the nonzero x_a and
    the table's nonzero entries, on scaled entries: ints over one
    denominator in the exact lane."""
    table, den = s.polarized_table
    nonzero = [(a, x) for a, x in enumerate(xs) if x]
    zero = s.ctx.scaled_zero
    return [_table_sum(table, [(a, b, x) for a, x in nonzero], zero)
            for b in range(units)], xden * den


def _derivative_sums(s: G2Structure, xs, xden, tangents, units: int) -> list:
    """2 B(x, t) for each tangent t at the point x = xs / xden, as (scaled
    numerators, den) pairs: a tangent with coordinates y, zero past the
    first `units` directions, gives 2 sum_b y_b D_b (_ambient_images)."""
    ctx = s.ctx
    images, den = _ambient_images(s, xs, xden, units)
    out = []
    for t in tangents:
        (ys,), yden = ctx.scaled([[t.c_dot, *t.omega_dot.coeffs]])
        out.append((_row_sum([2 * y for y in ys], images, ctx.scaled_zero), yden * den))
    return out


def twist_derivative(s: G2Structure, p: TwistParams, t: TwistTangent) -> KForm:
    """Directional derivative of the twist map at p along a sphere tangent t: 2 B(p, t)."""
    xs, xden = _twist_point(s, p)[:2]
    t = TwistTangent(s.ctx.scalar(t.c_dot), coerce_form(t.omega_dot, s.ctx))
    res = t.tangency_residual(_coerce_params(s, p), s)
    if not s.ctx.is_zero(res, CONSTRAINT_TOL):
        raise TangencyError(
            f"tangency c c_dot + <w, w_dot> = {res}, not zero in the {s.ctx.mode} lane")
    ((num, den),) = _derivative_sums(s, xs, xden, [t], DIM + 1)
    return KForm._of(3, num, den, s.ctx)


@dataclass(frozen=True)
class Recovery:
    params: TwistParams
    residual: float


def _recover_c_positive(s: G2Structure, coords, cden, c) -> TwistParams:
    """omega from the frame coordinates coords / cden of the 7-part, 2c *(w ^ phi).

    That 7-part is -2c sum_i (g^-1 w)_i e_i . *phi, so its coordinates in the
    frame e_i . *phi are -2c g^-1 w, and w = -g coords / (2c).  g . coords
    runs on the metric's stored pair and the scaled coords: ints in exact
    mode.
    """
    g = s.metric
    ((p,),), q = s.ctx.scaled([[c]])
    sums = [x * q for x in ratlin.matvec(g.num, coords, s.ctx.scaled_zero)]
    return TwistParams(c, KForm._of(1, sums, -2 * p * g.den * cden, s.ctx))


def _sphere_point(s: G2Structure, p: TwistParams) -> tuple:
    """(p', xs, xden, norm2): p' = p / sqrt(c^2 + |w|^2), or p itself when
    that norm is literally 1, the coordinates xs / xden of p' (_scaled_point)
    and its c^2 + |w|^2 as one lane scalar.  An exact point recovered from a
    form of the family lies on the sphere, so only a float point moves: the
    re-twist checks the constraint within the absolute CONSTRAINT_TOL, which
    rounding in c and w can miss, and a moved point is read again under
    that check (_twist_point)."""
    xs, xden, sq, gden = _scaled_point(s, p)
    one = xden * xden * gden
    n2 = xs[0] * xs[0] * gden + sq
    if n2 != one:
        n = s.ctx.sqrt(s.ctx.ratio(n2, one))
        p = TwistParams(p.c / n, p.omega / n)
        xs, xden, sq, gden = _twist_point(s, p)
        n2, one = xs[0] * xs[0] * gden + sq, xden * xden * gden
    return p, xs, xden, s.ctx.ratio(n2, one)


# position of the pair (min(i, j), max(i, j)) in g2core's _PAIRS, the rows of
# the structure's _odot_inverse_table
_PAIR_AT = tuple(tuple(_PAIRS.index((min(i, j), max(i, j))) for j in range(DIM))
                 for i in range(DIM))


def _recover_w_pivot(s: G2Structure, phit: KForm, phi_inner, coords, cden) -> TwistParams:
    """x = X[:, k] / sqrt(X_kk) for X = x x^T and its largest diagonal entry
    X_kk in the block W = w w^T, for phit = twist(x), x = (c, w).

    phit + phi = 2c^2 phi + 2c *(w ^ phi) + odot(2 w w^T) with odot(g) = 3 phi,
    and J = dB_phi[.] / lambda (the structure's _odot_inverse_table) kills
    the 7-part, gives J(odot(h)) = 2h + tr_g(h) g and J(phi) = 3g.  On the
    sphere, with c^2 = (a + 1)/8 for a = <phit, phi>, that makes
    W = J(zeta) / 24 for zeta = 6 phit + (1 - a) phi, and X_0k = c w_k is
    u_k = -(g coords)_k / 2 from the frame coordinates coords / cden.  Only
    W's diagonal and its column k are read: 13 of the 28 sparse rows, summed
    on zeta's scaled numerators (ints in exact mode)."""
    ctx, phi, g = s.ctx, s.phi, s.metric
    rows, tden = s._odot_inverse_table
    ((a_num,),), a_den = ctx.scaled([[phi_inner]])
    f, e = 6 * phi.den * a_den, (a_den - a_num) * phit.den
    zeta = [f * x + e * y for x, y in zip(phit.num, phi.num)]
    # W = sign * (rows . zeta) / den with den made positive: lambda < 0 in orientation -1
    den = 24 * phit.den * phi.den * a_den * tden
    sign = 1 if den > 0 else -1
    den *= sign
    diag = [sign * sum(v * zeta[q] for q, v in rows[_PAIR_AT[i][i]]) for i in range(DIM)]
    k = max(range(DIM), key=diag.__getitem__)
    if diag[k] <= 0:
        raise RecoveryError("w w^T read off the form has no positive diagonal entry")
    col = [diag[i] if i == k else sign * sum(v * zeta[q] for q, v in rows[_PAIR_AT[i][k]])
           for i in range(DIM)]
    root = ctx.sqrt(diag[k] / den)
    c = ctx.ratio(-sum(x * y for x, y in zip(g.num[k], coords)), 2 * g.den * cden) / root
    ((scale,),), sden = ctx.scaled([[den * root]])
    return TwistParams(c, KForm._of(1, [y * sden for y in col], scale, ctx))


def _retwist(s: G2Structure, phit: KForm) -> tuple:
    """(params, err, xs, xden, norm2): the canonical point read off phit by
    recover's pivots, the max-abs gap between its twist and phit, and the
    point's coordinates xs / xden and c^2 + |w|^2 (_sphere_point)."""
    ctx = s.ctx
    phi_inner, (coords, cden) = frame_coordinates(phit, s)
    c_sq = (phi_inner + 1) / 8
    if 16 * c_sq >= 1:
        if c_sq > 1 and not ctx.is_zero(c_sq - 1, CONSTRAINT_TOL):
            raise RecoveryError(f"implied c^2 = {c_sq} outside [0, 1]")
        params = _recover_c_positive(s, coords, cden, ctx.sqrt(min(c_sq, 1)))
    else:
        params = _recover_w_pivot(s, phit, phi_inner, coords, cden)
        if ctx.is_zero(params.c, C_ZERO_SWITCH):
            params = TwistParams(ctx.zero, params.omega)
    params, xs, xden, norm2 = _sphere_point(s, params)
    # the twist is even, Q(-x) = Q(x), so the canonical flip keeps xs's twist
    return params.canonical(), (_twist_sum(s, xs, xden) - phit).max_abs(), xs, xden, norm2


def recover(s: G2Structure, phit: KForm, tol: float = RECOVERY_TOL) -> Recovery:
    """Canonical parameters of a form in the structure's metric family.

    Reads x = (c, w) off X = x x^T, with X_00 = c^2 = (<phit, phi> + 1)/8
    and X_0i = c w_i from the frame coordinates of the 7-part (both from
    frame_coordinates' wedge pairing, which reads no Gram and no g^-1), and
    divides a pivot column of X by the root of its diagonal entry.  At
    c^2 >= 1/16 the pivot is c (_recover_c_positive), once c^2 is at most 1
    within CONSTRAINT_TOL; below it, the largest diagonal entry of the block
    W = w w^T, read off the symmetric action's table (_recover_w_pivot),
    which reads no c^2, so a float c^2 rounded below 0 is not refused; there
    a recovered |c| at or below C_ZERO_SWITCH is set to 0 (literally zero in
    exact mode).  The point is put back onto the sphere (_sphere_point,
    which moves only float points) and made canonical.  The reported
    residual is the max-abs difference between re-twisting the recovered
    parameters and the input, which decides acceptance; exact mode demands
    literal zero.

    Every twist Q(x) with x on the sphere induces the structure's metric
    and orientation (Bryant), so a residual of literally zero proves phit in
    the family.  Any other residual goes to G2Structure.check_retwist,
    which bounds |B(phit) - B(phi)|_max by the residual, the rounding of
    the float re-twist and the point's distance from the sphere, builds no
    B(phit), and accepts where that bound is within the slack of the
    metric test.  Where it is not, and when a step refuses, the family's
    metric test (G2Structure.check_metric) runs.  Then a form that induces
    another metric or orientation raises MetricMismatchError (or the
    normalization's NotG2FormError or ExactModeError) before the step's
    error or the residual's RecoveryError, as when the test ran first.  The
    rule is the same in both lanes; the exact lane's bound is a positive
    Fraction and its is_zero literal, so it accepts only a zero residual
    and never tests the metric of a twist.
    """
    phit = coerce_form(phit, s.ctx)
    if phit.degree != 3:
        raise DegreeError("recover expects a 3-form")
    try:
        params, err, xs, xden, norm2 = _retwist(s, phit)
    except (G2KitError, ArithmeticError, ValueError):
        # a refused step (ExactModeError from a non-square root, ValueError
        # from a negative radicand, RecoveryError, ConstraintError) shows
        # nothing about the metric
        s.check_metric(phit)
        raise
    if err:
        s.check_retwist(phit, err, s.ctx.ratio(sum(map(abs, xs)), xden), norm2)
        if not s.ctx.is_zero(err, tol, max(1, phit.max_abs())):
            raise RecoveryError(f"recovery residual {float(err)} above {tol} in the {s.ctx.mode} lane")
    return Recovery(params=params, residual=float(err))


def tangent_basis(s: G2Structure, p: TwistParams, ambient_dim: int):
    """A basis of the tangent space at p inside the ambient parameter sphere
    spanned by c and the first ambient_dim coordinate 1-forms: the kernel of
    (c_dot, v) -> c c_dot + <omega, v>, with the structure's inner product.
    p is checked as _twist_point checks it (ValueError, ConstraintError)."""
    return _point_and_tangents(s, p, ambient_dim)[2]


def _point_and_tangents(s: G2Structure, p: TwistParams, ambient_dim: int) -> tuple:
    """(xs, xden, basis): p read once by _twist_point(s, p, ambient_dim),
    and tangent_basis's basis at p."""
    xs, xden = _twist_point(s, p, ambient_dim)[:2]
    p = _coerce_params(s, p)
    row = [p.c, *sharp(p.omega, s.metric)[:ambient_dim]]
    basis = []
    for v in s.ctx.nullspace([row]):
        coeffs = list(v[1:]) + [s.ctx.zero] * (DIM - ambient_dim)
        basis.append(TwistTangent(v[0], KForm(1, tuple(coeffs))))
    return xs, xden, basis


def _derivative_columns(s: G2Structure, p: TwistParams, ambient_dim: int) -> list:
    """The twist derivatives along a tangent basis, as (scaled numerators,
    den) pairs, read on the directions c and dx_1..dx_ambient_dim."""
    xs, xden, basis = _point_and_tangents(s, p, ambient_dim)
    return _derivative_sums(s, xs, xden, basis, ambient_dim + 1)


def derivative_matrix(s: G2Structure, p: TwistParams, ambient_dim: int):
    """Columns are twist derivatives along a tangent basis (35 x ambient_dim)."""
    ratio = s.ctx.ratio
    cols = _derivative_columns(s, p, ambient_dim)
    return [list(row) for row in zip(*([ratio(x, den) for x in num] for num, den in cols))]


def derivative_rank(s: G2Structure, p: TwistParams, ambient_dim: int) -> int:
    """Rank of the twist derivative on the ambient tangent space at p, with
    no tangent basis: the rank of the ambient images D_b, less one.

    The twist is Q(x) = sum_ab x_a x_b B(a, b), homogeneous quadratic with
    |Q(x)|^2 = 7 |x|^4.  So dQ_x(x) = 2 Q(x) is not zero, and
    <Q(x), dQ_x(t)> = 14 |x|^2 <x, t> = 0 for every tangent t.  The ambient
    directions are the tangent space plus the line through x, so their
    images D_b = dQ_x(e_b) / 2 span the tangent image plus the line through
    Q(x), one dimension more; one row per ambient direction e_c,
    dx_1..dx_ambient_dim.

    On a Euclidean metric the rank is read off Bryant's Gram identity
    (_gram_identity_holds): the D_b's Gram is 4 |x|^2 I + 3 x x^T, positive
    definite, so the rank is full.  Where the metric is not Euclidean, or
    the identity fails, Context.rank reads it on the scaled numerators of
    the D_b (a common positive denominator keeps it)."""
    xs, xden = _twist_point(s, p, ambient_dim)[:2]
    units = ambient_dim + 1
    images, den = _ambient_images(s, xs, xden, units)
    if s.metric.is_euclidean and _gram_identity_holds(s.ctx, images, den, xs, xden):
        return units - 1
    return s.ctx.rank(images) - 1


def _gram_identity_holds(ctx, images, den, xs, xden) -> bool:
    """Whether the ambient images D_b = images[b] / den at x = xs / xden
    satisfy <D_a, D_b> = 4 |x|^2 delta_ab + 3 x_a x_b on a Euclidean metric.

    Sym^2(R^8) = R + Lambda^3 R^7 under Spin(7) (Bryant, "Some remarks on
    G_2-structures"), so <B(x, y), B(z, w)> is fixed up to one constant,
    which |Q(x)|^2 = 7 |x|^4 fixes; with G = diag(1, g^-1) the identity reads
    4 |x|^2 G_ab + 3 (Gx)_a (Gx)_b, and G = I here.  Each pair a <= b is one
    scaled gap, with n2 = sum xs^2,
        gap_ab = (images_a . images_b) xden^2 - (4 n2 delta_ab + 3 xs_a xs_b) den^2,
    and units gap_ab must be zero under is_zero at 2 n2 den^2: literally in
    exact mode.  In float mode the closed form's least eigenvalue is
    4 n2 den^2, so by Weyl's inequality the Gram's eigenvalues lie in
    [2, 9] n2 den^2, its rank is full, and the images' singular values lie
    within a factor sqrt(9/2) of each other, which rank_float counts."""
    units = len(images)
    n2 = sum(x * x for x in xs)
    x2, d2 = xden * xden, den * den
    bound, diag = 2 * n2 * d2, 4 * n2 * d2
    for a, (row, xa) in enumerate(zip(images, xs)):
        f = 3 * xa * d2
        for b in range(a, units):
            gap = sum(map(mul, row, images[b])) * x2 - f * xs[b]
            if a == b:
                gap -= diag
            if not ctx.is_zero(units * gap, bound):
                return False
    return True


def derivative_margin(s: G2Structure, p: TwistParams, ambient_dim: int):
    """(sigma_min, sigma_max) of the float derivative matrix, for margin reports.
    Each entry is num / den of a column's pair, which rounds the exact value
    once, as KForm.as_float does."""
    cols = [[x / den for x in num] for num, den in _derivative_columns(s, p, ambient_dim)]
    sv = np.linalg.svd(np.asarray(cols, dtype=float).T, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def sample_params(rng: random.Random, subspace_dim: int = DIM, force_c_zero: bool = False) -> TwistParams:
    """Exact rational parameter point; omega confined to the first subspace_dim coords."""
    if not 1 <= subspace_dim <= DIM:
        raise ValueError("subspace_dim must be 1..7")
    if force_c_zero:
        unit = rational_unit_tuple(rng, subspace_dim)
        c = Fraction(0)
        w = list(unit)
    else:
        pt = rational_unit_tuple(rng, subspace_dim + 1)
        c = pt[0]
        w = list(pt[1:])
    w = w + [Fraction(0)] * (DIM - len(w))
    return TwistParams(c, KForm(1, tuple(w)))
