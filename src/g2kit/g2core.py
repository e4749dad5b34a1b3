"""Core pointwise G2 linear algebra.

Contents: the standard associative 3-form, recovery of the induced metric
and orientation from a nondegenerate 3-form, the irreducible type
decompositions of 2-forms (7 + 14) and 3-forms (1 + 7 + 27), and the action
of bilinear forms on the 3-form together with its inverse on the symmetric
side.

The eigenvalues of beta -> *(phi ^ beta) on 2-forms are discovered at a
structure's first read of its split, never hard-coded: their signs depend on
the star and orientation conventions, and the contract is only that the
eigenspaces have dimensions 7 and 14.  Both lanes read the splitting off
phi, not by a solve, on one path (_split_two_forms); the lane supplies the
span, kernel and eigenvector checks, on int rows in exact mode.

A structure's linear maps are built from constant index tables, not from
wedge-and-star chains or solves: the 2-form operator from the 2 x 2 minors
of g and the coefficients of phi, and the inverse of the symmetric action
from the derivative of the cubic table that gives the metric.  Every
contraction reads exterior's one signed-selection table (_interior_table):
the contractions e_m . phi and e_m . *phi (_contractions), so the 3-form
frame e_i . *phi; the action E . phi = sum_m alpha_m ^ (e_m . phi) of an
endomorphism with rows alpha_m, one wedge pass over the contraction rows
of phi; and Bryant's tables *(dx_j ^ *phi) = (g^-1 e_j) . phi and
*(dx_j ^ phi) = -(g^-1 e_j) . *phi, g^-1 row sums over those rows.  The
exact lane runs those tables on integers over one common denominator (the
forms' stored (num, den) pairs, Context.scaled for matrices) and builds one
Fraction per output scalar or one reduced pair per output form; the float
lane runs the same code on floats.  decompose3 and frame_coordinates run
the same way on the structure's scaled rows of phi and the frame forms and
a wedge pairing that reads no Gram and no g^-1; odot_inverse runs its J,
tr_g(J) and h as int numerators over one den (Context.reduce) and builds a
Fraction only for the returned tensor.  The contraction matrix B(phi), from
which the metric is read, is one loop over a cubic table in both lanes, so
the module runs on lane scalars alone and loads no numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import frexp, isfinite, lcm, ldexp, ulp

from . import ratlin
from .context import (
    DEFAULT_TOL,
    ENTRY_TOL,
    EUCLIDEAN_TOL,
    EXACT,
    FLOAT_RANK_CUTOFF,
    PHI_NORM_TOL,
    RECOVERY_TOL,
    Context,
    rational_nth_root,
)
from .errors import (
    DecompositionError,
    DegreeError,
    ExactModeError,
    FrameError,
    MetricError,
    MetricMismatchError,
    NotG2FormError,
)
from .exterior import (
    BASIS,
    DIM,
    NK,
    POS,
    KForm,
    Metric,
    NEGATIVE,
    POSITIVE,
    _comp_table,
    _contractions,
    _interior_table,
    _metric_inverse,
    _metric_minors,
    _row_sum,
    _wedge_add,
    _wedge_table,
    basis_vector,
    coerce_form,
    flat,
    hodge_star,
    interior,
    merge_sign,
    top_coeff,
    volume_form,
    wedge,
)

PHI0_ENTRIES = {
    (1, 2, 3): 1,
    (1, 4, 5): 1,
    (1, 6, 7): 1,
    (2, 4, 6): 1,
    (2, 5, 7): -1,
    (3, 4, 7): -1,
    (3, 5, 6): -1,
}

_SIX_POW_7 = 6 ** 7
_DEGENERATE = "degenerate 3-form: det of contraction matrix is 0"
_UNDERFLOWED = "3-form beyond the float range: det of its contraction matrix underflowed"


def phi0(ctx: Context = EXACT) -> KForm:
    """The standard associative 3-form on R^7."""
    return KForm.from_entries(3, PHI0_ENTRIES, ctx)


# B_ij is cubic in phi: the upper-triangle pairs (i, j), i <= j, in row order.
_PAIRS = tuple((i, j) for i in range(DIM) for j in range(i, DIM))


def _dx_wedge(i: int, u: KForm, ctx: Context) -> KForm:
    """dx_(i+1) ^ u for a k-form u in the context's lane: a signed selection
    of u's stored numerators, the inverse of _interior_table(k + 1) with its
    signs (e_i . dx_P = sign dx_Q there, and dx_i ^ dx_Q = sign dx_P)."""
    k = u.degree + 1
    out = [ctx.scaled_zero] * NK[k]
    for q, (p, sign) in _interior_table(k)[i].items():
        out[p] = u.num[q] if sign > 0 else -u.num[q]
    return KForm._of(k, out, u.den, ctx)


@lru_cache(maxsize=None)
def _contraction_table():
    """B_ij(phi) = top coefficient of (e_i . phi) ^ (e_j . phi) ^ phi, as a cubic table.

    One entry (a, b, c, pair, coefficient) per nonzero term
    coefficient * phi_a phi_b phi_c of B at `pair` (an index into _PAIRS),
    with positions a <= b <= c.  Built from the wedge tables on first use.
    """
    contr = _interior_table(3)
    top = {pa: (pb, sign) for pa, pb, sign, _ in _wedge_table(4, 3)}
    terms = {}
    for n, (i, j) in enumerate(_PAIRS):
        ci, cj = contr[i], contr[j]
        for qa, qb, sign, r in _wedge_table(2, 2):
            if qa in ci and qb in cj:
                (pa, sa), (pb, sb) = ci[qa], cj[qb]
                pc, sc = top[r]
                key = (*sorted((pa, pb, pc)), n)
                terms[key] = terms.get(key, 0) + sign * sa * sb * sc
    return tuple((*key, k) for key, k in sorted(terms.items()) if k)


@lru_cache(maxsize=None)
def _two_form_operator_table():
    """T = *(phi ^ .) on 2-forms as constant signs, with no star and no g^-1.

    T(beta) is the star of the 5-form phi ^ beta, and Jacobi's complementary
    minor identity writes the degree-5 Gram matrix of g^-1 through the 2 x 2
    minors M2(g) of g itself.  With vol = o sqrt(det g) dx1..7:

        T = o / sqrt(det g) * diag(r) . M2(g) . W(phi),

    where W(phi)[Q][AB] = c * phi_L for disjoint 2-indices Q, AB and L the
    3-index completing them.  Returns (r, terms): the 21 row signs and one
    (Q, AB, c, position of L) per disjoint pair, 210 in all.
    """
    rows = []
    for K in BASIS[2]:
        rest = tuple(i for i in range(1, DIM + 1) if i not in K)
        rows.append(merge_sign(rest, K)[0] * (-1) ** sum(K))
    terms = []
    for q, Q in enumerate(BASIS[2]):
        for ab, AB in enumerate(BASIS[2]):
            L = tuple(i for i in range(1, DIM + 1) if i not in Q and i not in AB)
            if len(L) == 3:
                terms.append((q, ab, merge_sign(L, AB)[0] * (-1) ** sum(Q), POS[3][L]))
    return tuple(rows), tuple(terms)


def _contraction_matrix(coeffs):
    """B as rows of rows from phi's coefficients (exact ints, or floats), one
    loop over the cubic table in both lanes.  Construction runs it, and so
    does the family's metric test (G2Structure.check_metric), which recover
    runs only where its residual bound does not decide (check_retwist), so
    never on an exact twist.  The loop is kept on measurement: against a
    row-at-a-time product B = C K C^T (C the 7 x 21 contractions, K the
    21 x 21 pairing of 2-forms through phi) it took 35 us against 127 us on
    phi0 and 78-85 us against 166-229 us on pulled-back phi0 (Python 3.11).
    A float cubic term beyond the float range raises NotG2FormError, which
    names the overflow: an inf or nan entry v has v - v nonzero, and an int
    or a finite float never does."""
    # the lane's zero: 0 for ints, 0.0 for finite floats
    vals = [coeffs[0] - coeffs[0]] * len(_PAIRS)
    for a, b, c, n, k in _contraction_table():
        m = coeffs[a]
        if m:
            m *= coeffs[b]
            if m:
                m *= coeffs[c]
                if m:
                    vals[n] += k * m
    if any(v - v for v in vals):
        raise NotG2FormError("3-form beyond the float range: its contraction matrix overflowed")
    B = [[None] * DIM for _ in range(DIM)]
    for (i, j), v in zip(_PAIRS, vals):
        B[i][j] = B[j][i] = v
    return B


def metric_from_phi(phi: KForm, ctx: Context = EXACT):
    """Metric and orientation induced by a nondegenerate 3-form.

    The contraction matrix B is normalized so that the standard form maps to
    the identity metric: g = B / (6 (det(B) / 6^7)^(1/9)) after flipping the
    sign of B (and recording orientation -1) when det(B) < 0.  Exact mode
    requires det(B) = 6^7 * c^9 for a rational c and raises ExactModeError
    otherwise; degenerate or indefinite B raises NotG2FormError.

    B is evaluated from a cubic table on phi's stored pair Phi / D, so in
    exact mode Phi is an integer vector, B = B(Phi) / D^3 with B(Phi) an
    integer matrix, and g is stored as B(Phi) times an int over one int
    denominator (Metric._of), with no Fraction per entry.  One leading-minor
    pass on B(Phi) gives det B and shows B or -B positive definite, so the
    exact metric takes no second elimination (_normalized_metric).
    """
    _, metric, orientation = _contraction_and_metric(phi, ctx)
    return metric, orientation


def _contraction_and_metric(phi: KForm, ctx: Context) -> tuple:
    """(B(Phi), metric, orientation) of a 3-form phi = Phi / den: its unflipped
    contraction matrix on the stored numerators and metric_from_phi's result."""
    if phi.degree != 3:
        raise DegreeError("metric recovery expects a 3-form")
    phi = coerce_form(phi, ctx)
    B = _contraction_matrix(phi.num)
    return (B, *_normalized_metric(B, phi.num, phi.den, ctx))


def _normalized_metric(B, phi_num, den, ctx: Context) -> tuple:
    """(metric, orientation) of the 3-form Phi / den, Phi = phi_num, from
    B = B(Phi), its unflipped contraction matrix (_contraction_matrix of
    Phi): metric_from_phi's normalization, with its errors.

    In exact mode one leading-minor pass on B (Context.definite_det) gives
    det B and shows B or -B positive definite, so the metric needs no second
    elimination.  A B that is neither takes the determinant, which tells a
    degenerate B from one with no rational ninth root, and is then refused
    as the metric's own test would refuse it, without running that test.  A
    float det B of 0.0 is named an underflow when B of Phi scaled by a power
    of two has full rank (_rescaled_rank), and degenerate otherwise."""
    definite = ctx.definite_det(B)
    det_b = ctx.det(B) if definite is None else definite[0]
    orient = POSITIVE if det_b > 0 else NEGATIVE
    if det_b < 0:
        B = [[-x for x in row] for row in B]
        det_b = -det_b
    # g = B(Phi) * num / scale
    if ctx.is_exact:
        if det_b == 0:
            raise NotG2FormError(_DEGENERATE)
        ninth = rational_nth_root(Fraction(det_b, den ** 21 * _SIX_POW_7), 9)
        if ninth is None:
            raise ExactModeError(
                "exact metric normalization needs det(B)/6^7 to be a rational ninth power"
            )
        if definite is None:
            raise NotG2FormError("3-form does not induce a positive metric: metric is not positive definite")
        num, scale = ninth.denominator, den ** 3 * 6 * ninth.numerator
        # det(B * num) of the flipped B, known from the pass
        known = det_b * num ** DIM
    else:
        if det_b == 0:
            raise NotG2FormError(_UNDERFLOWED if _rescaled_rank(phi_num, ctx) == DIM else _DEGENERATE)
        if not isfinite(det_b):
            raise NotG2FormError("3-form beyond the float range: det of its contraction matrix overflowed")
        # 6 (det B / 6^7)^(1/9) is 6.0 when det B = 6.0^7: phi0 gets g = I
        num, scale, known = 1, 6.0 * (det_b / 6.0 ** 7) ** (1.0 / 9.0), None
    try:
        metric = Metric._of([[x * num for x in row] for row in B], scale, ctx, known)
    except MetricError as exc:
        raise NotG2FormError(f"3-form does not induce a positive metric: {exc}") from exc
    return metric, orient


def _rescaled_rank(phi_num, ctx: Context) -> int:
    """Rank of B(2^k Phi) for the power of two 2^k that puts max |Phi| in
    [1/2, 1).  The scaling is exact, so B(2^k Phi) = 2^(3k) B(Phi) up to the
    terms that underflowed in B(Phi): a float phi0 * 1e-120 has B(Phi) = 0
    and a rescaled B of rank 7, while dx123 has B = 0 at every scale."""
    top = max(abs(x) for x in phi_num)
    if not top:
        return 0
    k = -frexp(top)[1]
    return ctx.rank(_contraction_matrix([ldexp(x, k) for x in phi_num]))


def is_g2_form(phi: KForm) -> bool:
    """True when the 3-form induces a positive definite metric (either
    orientation), decided in the form's own lane."""
    try:
        metric_from_phi(phi, phi._lane)
    except NotG2FormError:
        return False
    return True


def _split_two_forms(table, gens7, ctx: Context) -> tuple:
    """(lambda7, lambda14, (rows, den)) for T = rows / den, table =
    (rows, den), whose lambda7-eigenspace should be spanned by gens7, the
    contractions e_i . phi: the two eigenvalues and a basis of the
    14-space as Context.scaled rows over one den.

    lambda7 is the Rayleigh quotient of gens7 and lambda14 comes from
    tr T = 7 lambda7 + 14 lambda14.  The 14-space is the kernel of the
    7 x 21 matrix gens7 . (T - lambda14): its rows span the annihilator of
    that eigenspace, since gens7 . gens7^T is invertible.  It reads only phi
    and T.  (The kernel of beta -> beta ^ *phi is the same space, but it
    would read *phi too.)

    T must then act on gens7 and on the kernel basis by its two scalars
    (Context.eigenvalue, one code path on ratlin.matvec: a residual that is
    literally zero on ints in exact mode, within a relative bound in float
    mode), and the scalars must differ.  A kernel of dimension 14 means
    gens7 . (T - lambda14) has rank 7, so gens7 has rank 7 too: with spans
    of dimensions 7 and 14, the two spaces meet only in 0 and fill all 21,
    which proves that T is diagonalizable with eigenspaces of dimensions
    (7, 14).  The 14-space basis is Context.scaled_nullspace:
    in exact mode int rows whose quotients are the kernel vectors of
    Context.nullspace, normalized as the kernel of T - lambda14 is, and the
    eigenvector check runs on those ints with no Fraction per entry.  The
    7-space basis, Context.scaled_span(gens7) (int rows over one den in
    exact mode, normalized the same way), is left to G2Structure.basis2_7.
    A structure runs it at the first read of its split, not at
    construction.
    """
    rows, den = table
    lam7 = ctx.eigenvalue(rows, gens7)
    if lam7 is None:
        raise DecompositionError("2-form operator is not a scalar on the contractions of phi")
    lam14 = (sum(row[i] for i, row in enumerate(rows)) - 7 * lam7) / 14
    # gens7 . (T - lambda14) on ints: lambda14 = p / q
    ((p,),), q = ctx.scaled([[lam14]])
    kernel_rows = []
    for c in gens7:
        acc = _row_sum(c, rows, 0)
        kernel_rows.append([q * a - p * x for a, x in zip(acc, c)])
    eig14 = ctx.scaled_nullspace(kernel_rows)
    if len(eig14[0]) != 14:
        raise DecompositionError("2-form operator has no eigenspaces of dimensions (7, 14)")
    if ctx.eigenvalue(rows, eig14[0], lam14) is None:
        raise DecompositionError("2-form operator is not a scalar on its 14-space")
    lam7, lam14 = ctx.ratio(lam7, den), ctx.ratio(lam14, den)
    if ctx.is_zero(lam7 - lam14, FLOAT_RANK_CUTOFF * max(abs(lam7), abs(lam14))):
        raise DecompositionError("2-form operator has one eigenvalue on both spaces")
    return lam7, lam14, eig14


class G2Structure:
    """A nondegenerate 3-form bundled with everything derived from it.

    Construction computes (eagerly) only what every structure needs, so
    every refusal of a 3-form happens there: the contraction matrix B(phi)
    and from it the induced metric and orientation, the volume form, the
    star of phi (the one Hodge star construction runs: one product with the
    4 x 4 minors of g, which keep a float |phi|^2 = 7 within PHI_NORM_TOL on
    far worse conditioned metrics than the Gram of g^-1 does) and the check
    |phi|^2 = 7 read as top(phi ^ *phi) / top(vol).  All of it is in the
    context's arithmetic; exact mode never touches a float, and construction
    takes no inverse of g and stores no tensor of phi: the symmetric action
    (odot) reads the contractions of phi's stored numerators per call.

    Built lazily on first use, so a structure that is only compared,
    serialized or twisted does not pay for them: the operator T = *(phi ^ .)
    on 2-forms (_t_table), from the 2 x 2 minors of g and a constant sign
    table of phi's coefficients (_two_form_operator_table) with no star or
    g^-1; its split (_split: lambda7, lambda14 and a kernel basis of the
    14-space, read off phi by _split_two_forms, whose checks run at the
    first read of lambda7, lambda14, basis2_14, decompose2 or describe(),
    and raise DecompositionError there); the bases basis2_7 and basis2_14;
    the contraction frame frame3_7 = (e_i . *phi) of the 7-part of the
    3-forms, whose coordinates the wedge pairing of _frame_table reads with
    no Gram and no g^-1; and the tables that decompose3, odot_inverse,
    Bryant's formula and recover's residual bound (check_retwist) read
    (_frame_table, _odot_inverse_table, star_dx_star_phi, star_dx_phi,
    polarized_table, _contraction_slack, _retwist_terms), each described
    where it is defined.  Every g^-1 a structure reads is the metric's one
    table (_metric_inverse).
    """

    def __init__(self, phi: KForm, ctx: Context = EXACT):
        self.ctx = ctx
        self.phi = coerce_form(phi, ctx)
        contraction, self.metric, self.orientation = _contraction_and_metric(self.phi, ctx)
        # B(phi) = B(Phi) / den^3, kept for recover's residual bound, its
        # slack and odot_inverse
        self._contraction = (contraction, self.phi.den ** 3)
        self.vol = volume_form(self.metric, self.orientation)
        self.star_phi = hodge_star(self.phi, self.metric, self.orientation)
        # phi ^ *phi = |phi|^2 vol
        norm = top_coeff(wedge(self.phi, self.star_phi)) / top_coeff(self.vol)
        if not ctx.is_zero(norm - 7, PHI_NORM_TOL):
            raise NotG2FormError(f"normalized 3-form should have |phi|^2 = 7, got {norm}")

    # -- spectral data on 2-forms ------------------------------------

    def two_form_operator(self, beta: KForm) -> KForm:
        """The map beta -> *(phi ^ beta) whose eigenspaces split the 2-forms."""
        if beta.degree != 2:
            raise DegreeError("operator expects a 2-form")
        return hodge_star(wedge(self.phi, beta), self.metric, self.orientation)

    @cached_property
    def _t_table(self) -> tuple:
        """T = *(phi ^ .) as (rows, den): o / sqrt(det g) M2(g) W(phi), ints in exact mode."""
        ctx, m = self.ctx, self.metric
        phi, den = self.phi.num, self.phi.den
        ((root,),), root_den = ctx.scaled([[self.orientation.sign * top_coeff(self.vol)]])
        signs, terms = _two_form_operator_table()
        w = [[] for _ in BASIS[2]]
        for q, ab, sign, pl in terms:
            if phi[pl]:
                w[q].append((ab, sign * phi[pl]))
        g2, g2den = _metric_minors(m, 2)
        tmat = []
        for minors, sign in zip(g2, signs):
            row = [0] * NK[2]
            sign *= self.orientation.sign * root_den
            for minor, entries in zip(minors, w):
                minor *= sign
                if minor:
                    for ab, x in entries:
                        row[ab] += minor * x
            tmat.append(row)
        # the minors of g are g2 / g2den, phi = Phi / den and sqrt(det g) = root / root_den
        return tmat, den * g2den * root

    @cached_property
    def _split(self) -> tuple:
        """(lambda7, lambda14, kernel rows): _split_two_forms; its checks raise here."""
        return _split_two_forms(self._t_table, _contractions(3, self.phi.num), self.ctx)

    lambda7 = property(lambda self: self._split[0])
    lambda14 = property(lambda self: self._split[1])

    @cached_property
    def basis2_7(self) -> tuple:
        """A basis of the lambda7-eigenspace: Context.scaled_span of the
        contractions e_i . phi's numerators, in exact mode int rows over one
        den normalized as the kernel of T - lambda7 is, wrapped as forms."""
        rows, den = self.ctx.scaled_span(_contractions(3, self.phi.num))
        return tuple(KForm._of(2, v, den, self.ctx) for v in rows)

    @cached_property
    def basis2_14(self) -> tuple:
        """A basis of the lambda14-eigenspace: the kernel rows / den of the
        split (_split), wrapped as forms on first read."""
        rows, den = self._split[2]
        return tuple(KForm._of(2, v, den, self.ctx) for v in rows)

    @cached_property
    def _contraction_slack(self):
        """slack * den^3 for the structure's phi = Phi / den: a bound on
        |B(phit) - B(phi)|_max under which phit induces this orientation and
        a metric within RECOVERY_TOL of this one (check_retwist).

        Write B(phi) = o s g with o the orientation sign and s > 0 the scale
        (|B_11| / g_11), and B(phit) = o s (g + F).  The normalization of
        metric_from_phi gives phit the metric (g + F) det(I + g^-1 F)^(-1/9),
        and for eta = |g^-1 F|_2 < 1 its entries lie within
        |g|_max ((1 - eta)^(-7/9) - 1) + |F|_max (1 - eta)^(-7/9) of g's, with
        g + F positive definite, so o is phit's orientation too.
        gamma = 7 max|g^-1| bounds |g^-1|_2, so eta <= 7 gamma |F|_max, and
        |F|_max <= RECOVERY_TOL / (2 + 6 gamma max(1, |g|_max)) keeps eta
        below 2e-9 and that gap below 0.91 RECOVERY_TOL.  Fraction(RECOVERY_TOL)
        keeps the exact lane's slack a Fraction, with no float arithmetic (a
        float bound would overflow on long denominators); exact mode's literal
        is_zero never reads it."""
        own, den3 = self._contraction
        g = self.metric.rows
        inv, iden = _metric_inverse(self.metric)
        gamma = self.ctx.ratio(7 * max(abs(x) for row in inv for x in row), iden)
        size = max(1, max(abs(x) for row in g for x in row))
        # s den^3 = |B(Phi)_11| / g_11
        return Fraction(RECOVERY_TOL) * abs(own[0][0]) / g[0][0] / (2 + 6 * gamma * size)

    @cached_property
    def _retwist_terms(self) -> tuple:
        """(L, r, b) for the residual bound (_retwist_bound), as lane scalars.

        L is the cubic table's largest per-entry sum of |coefficient| (90).
        r = gamma_n max(1, |T|_max, |g^-1|_max), for T the polarized table's
        entries, with gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff
        of a double and n = DIM^2 + 2: a float sum over the point's pairs
        rounds each of its terms at most n times, the most being |x|^2 (49
        terms g^-1_pq x_p x_q, two products each), then c^2 and one
        addition; a twist coefficient has at most 36 terms x_a x_b T_ab.
        b = |B(phi)|_max.  u is a Fraction, as the slack's RECOVERY_TOL is,
        so the exact lane does no float arithmetic; it rounds nothing, and
        there r only keeps every bound positive."""
        ctx = self.ctx
        reach = [0] * len(_PAIRS)
        for *_, n, k in _contraction_table():
            reach[n] += abs(k)
        table, den = self.polarized_table
        inv, iden = _metric_inverse(self.metric)
        size = max(1, ctx.ratio(max(abs(v) for row in table for cell in row for _, v in cell), den),
                   ctx.ratio(max(abs(x) for row in inv for x in row), iden))
        nu = Fraction(ulp(1.0)) / 2 * (DIM * DIM + 2)
        own, den3 = self._contraction
        return max(reach), nu / (1 - nu) * size, ctx.ratio(max(abs(x) for row in own for x in row), den3)

    def _retwist_bound(self, top, err, spread, norm2):
        """A bound on |B(phit) - B(phi)|_max for a 3-form phit with
        |phit|_max = top that recover re-twisted at a point x of the
        family's sphere: err = |Q^ - phit|_max for Q^ the float re-twist,
        spread = sum_a |x_a| and norm2 the lane's |x|^2 = c^2 + |w|^2.

        The twist Q(x) = sum_ab x_a x_b T_ab (bryant) is quadratic in x, and
        every twist of a point of the unit sphere induces this metric and
        orientation (Bryant), so B(Q(x)) = |x|^6 B(phi).  The lane's sums
        miss Q(x) and |x|^2 by at most rho = r spread^2 (_retwist_terms), so
        |phit - Q(x)|_max <= e = err + rho and ||x|^2 - 1| <= d =
        |norm2 - 1| + rho.  B is cubic with at most L of |coefficient| per
        entry (_retwist_terms), so for m = top
        |B(phit) - B(Q(x))|_max <= L ((m + e)^3 - m^3) = L e (3 m (m + e) + e^2),
        and |B(Q(x)) - B(phi)|_max <= ((1 + d)^3 - 1) |B(phi)|_max.  Both
        are written with no cancellation, by products only (a float power
        raises OverflowError where a product gives inf).  The structure's
        tables are taken as its family's, as everywhere in the float lane.
        In exact mode the bound is a positive Fraction, reached with no
        float arithmetic, so it never decides there."""
        reach, r, b = self._retwist_terms
        rho = r * spread * spread
        e, d = err + rho, abs(norm2 - 1) + rho
        return reach * e * (3 * top * (top + e) + e * e) + d * (3 + d * (3 + d)) * b

    def check_retwist(self, phit: KForm, err, spread, norm2):
        """MetricMismatchError unless phit, which recover re-twisted with
        residual err at a point x of the family's sphere (spread and norm2
        as _retwist_bound reads them), induces this structure's metric and
        orientation.  Where the residual bound (_retwist_bound) is within
        the slack (_contraction_slack), B(phit) is within the slack of
        B(phi), which settles it with no B(phit); anywhere else check_metric
        runs, and so always in exact mode, whose is_zero is literal."""
        bound = self._retwist_bound(phit.max_abs(), err, spread, norm2)
        if not self.ctx.is_zero(bound * self._contraction[1], self._contraction_slack):
            self.check_metric(phit)

    def check_metric(self, phit: KForm):
        """MetricMismatchError unless phit, a 3-form in this structure's lane,
        induces this structure's metric and orientation: B(phit) is
        normalized (_normalized_metric, with its errors) and the orientation
        and the metric compared, the metric within RECOVERY_TOL."""
        ctx = self.ctx
        metric, orient = _normalized_metric(_contraction_matrix(phit.num), phit.num, phit.den, ctx)
        gap = max(abs(x - y) for row, own in zip(metric.rows, self.metric.rows) for x, y in zip(row, own))
        if orient.sign != self.orientation.sign or not ctx.is_zero(gap, RECOVERY_TOL):
            raise MetricMismatchError("form does not induce this structure's metric/orientation")

    # -- frame data on 3-forms ---------------------------------------

    @cached_property
    def frame3_7(self) -> tuple:
        """The frame e_i . *phi: signed selections of *phi's stored numerators."""
        ctx, star_phi = self.ctx, self.star_phi
        return tuple(KForm._of(3, row, star_phi.den, ctx)
                     for row in _contractions(4, star_phi.num, ctx.scaled_zero))

    @cached_property
    def _frame_table(self) -> tuple:
        """(rows, den, pairing): phi and the 7 frame forms as rows / den,
        and frame_coordinates' wedge pairing (prows, pden), a signed
        selection (_comp_table(3)) of the stored numerators of *phi and of
        -dx_j ^ phi over top(vol); Context.scaled rows, ints in exact mode."""
        forms = (self.phi, *self.frame3_7)
        den = lcm(*(f.den for f in forms))
        rows = [[x * (den // f.den) for x in f.num] for f in forms]
        duals = (self.star_phi, *(-_dx_wedge(j, self.phi, self.ctx) for j in range(DIM)))
        # 1 / top(vol) = r / rq
        ((r,),), rq = self.ctx.scaled([[1 / top_coeff(self.vol)]])
        pden = lcm(*(f.den for f in duals))
        prows = [[sign * f.num[pc] * r * (pden // f.den) for pc, sign in _comp_table(3)]
                 for f in duals]
        return rows, den, (prows, pden * rq)

    # -- tables built on first use --------------------------------------

    @cached_property
    def _odot_inverse_table(self) -> tuple:
        """(rows, den) with rows . eta / den = dB_phi[eta] / lambda on _PAIRS,
        each row kept as its nonzero (position, value) pairs, as
        polarized_table stores B (105 of 980 entries are nonzero on phi0).

        B(phi) = lambda g (metric_from_phi, lambda < 0 in orientation -1).
        dB_phi is the polarized cubic table: each term k phi_a phi_b phi_c of
        B_n adds k phi_b phi_c at (n, a), and likewise at b and c.  lambda is
        B_11 / g_11, read from the contraction matrix kept at construction
        (Euler's identity dB_phi[phi] = 3 B(phi) makes that the same number
        as (rows . Phi)_11 / 3: literally in exact mode and for float phi with
        integer entries, within rounding for other float phi, whose terms are
        summed in another order).
        """
        phi, pden = self.phi.num, self.phi.den
        rows = [[0] * NK[3] for _ in _PAIRS]
        for a, b, c, n, k in _contraction_table():
            pa, pb, pc = phi[a], phi[b], phi[c]
            row = rows[n]
            row[a] += k * pb * pc
            row[b] += k * pa * pc
            row[c] += k * pa * pb
        # rows = pden^2 dB_phi, so den = pden^2 lambda = 3 B(Phi)_11 / (3 pden g_11) with
        # g = G / gden; the 3 stays on both sides so that float phi with integer
        # entries round as before
        contraction, _ = self._contraction
        g = self.metric
        sparse = tuple(tuple((q, x) for q, x in enumerate(row) if x) for row in rows)
        return sparse, self.ctx.ratio(3 * contraction[0][0] * g.den, 3 * pden * g.num[0][0])

    def _ginv_contractions(self, form: KForm, sign: int) -> tuple:
        """sign (g^-1 e_j) . form for j = 1..7: each a g^-1 row sum (_row_sum)
        over the contractions e_m . form of form's stored numerators."""
        ctx = self.ctx
        ginv, gden = _metric_inverse(self.metric)
        contr = _contractions(form.degree, form.num, ctx.scaled_zero)
        return tuple(KForm._of(form.degree - 1, _row_sum(row, contr, ctx.scaled_zero),
                               sign * gden * form.den, ctx) for row in ginv)

    @cached_property
    def star_dx_star_phi(self) -> tuple:
        """u_j = *(dx_j ^ *phi) for j = 1..7, as the contractions (g^-1 e_j) . phi."""
        return self._ginv_contractions(self.phi, 1)

    @cached_property
    def star_dx_phi(self) -> tuple:
        """s_j = *(dx_j ^ phi) for j = 1..7, as the contractions -(g^-1 e_j) . *phi."""
        return self._ginv_contractions(self.star_phi, -1)

    @cached_property
    def polarized_table(self) -> tuple:
        """(table, den): Bryant's formula polarized, on the coordinate directions.

        B is the symmetric bilinear map on the parameters (c, w) with
        B(p, p) = twist(p).  On the directions e_c, dx_1..dx_7 it reads
        B(e_c, e_c) = phi, B(e_c, dx_j) = s_j and
        B(dx_i, dx_j) = dx_i ^ u_j + dx_j ^ u_i - (g^-1)_ij phi, with
        s_j = star_dx_phi[j] and u_j = star_dx_star_phi[j]; each dx_i ^ u_j
        is a signed selection of u_j's coefficients (_dx_wedge), no wedge.
        table[a][b] (index 0 is e_c) is a tuple of the nonzero coefficients
        of B(a, b) times den as (position, value) pairs, the same tuple at
        (a, b) and (b, a): Context.scaled entries, ints in exact mode."""
        ctx, phi = self.ctx, self.phi
        stars, ustars = self.star_dx_phi, self.star_dx_star_phi
        ginv, gden = _metric_inverse(self.metric)
        forms = [[phi, *stars]] + [[s] + [None] * DIM for s in stars]
        for i in range(DIM):
            for j in range(i, DIM):
                forms[i + 1][j + 1] = forms[j + 1][i + 1] = (
                    _dx_wedge(i, ustars[j], ctx) + _dx_wedge(j, ustars[i], ctx)
                    - ctx.ratio(ginv[i][j], gden) * phi)
        den = lcm(*(f.den for row in forms for f in row))
        table = [[None] * (DIM + 1) for _ in range(DIM + 1)]
        for a, row in enumerate(forms):
            for b in range(a, DIM + 1):
                f = row[b]
                scale = den // f.den
                table[a][b] = table[b][a] = tuple(
                    (k, x * scale) for k, x in enumerate(f.num) if x)
        return tuple(map(tuple, table)), den

    def star(self, a: KForm) -> KForm:
        return hodge_star(a, self.metric, self.orientation)

    def describe(self) -> dict:
        """What the structure is and what it has built so far: its lane,
        orientation sign, the eigenvalues lambda7 and lambda14 of the 2-form
        operator (whose read builds _t_table and _split), whether its metric
        is literally the identity (then stars and inner products read no
        Gram of the metric; frame coordinates read none on any metric), and
        the names of the lazy tables built so far, in definition order."""
        return {
            "lane": self.ctx.mode,
            "orientation": self.orientation.sign,
            "lambda7": self.lambda7,
            "lambda14": self.lambda14,
            "euclidean": self.metric.is_euclidean,
            "built": [name for name in _LAZY_TABLES if name in self.__dict__],
        }

    def __repr__(self):
        return f"G2Structure(mode={self.ctx.mode}, orientation={self.orientation.sign:+d})"


# the tables a G2Structure builds on first use, which describe() reports
_LAZY_TABLES = tuple(name for name, value in vars(G2Structure).items()
                     if isinstance(value, cached_property))


@lru_cache(maxsize=None)
def standard_structure(mode: str = "exact") -> G2Structure:
    """The structure of the standard form, cached per mode."""
    ctx = Context.of(mode)
    return G2Structure(phi0(ctx), ctx)


@lru_cache(maxsize=None)
def triple_star_sign() -> int:
    """Global sign sigma in  *phi ^ *( *phi ^ alpha ) = 3 sigma *alpha.

    The identity holds with a single sign fixed by the star convention;
    it is computed once on the standard structure and then asserted
    everywhere with this stored value.
    """
    s = standard_structure("exact")
    alpha = KForm.basis((1,))
    lhs = wedge(s.star_phi, s.star(wedge(s.star_phi, alpha)))
    rhs = 3 * s.star(alpha)
    if lhs.isclose(rhs):
        return 1
    if lhs.isclose(-rhs):
        return -1
    raise DecompositionError("coassociative contraction identity failed for both signs")


# -- type decompositions ----------------------------------------------


@dataclass(frozen=True)
class Decomposition2:
    p7: KForm
    p14: KForm

    def total(self) -> KForm:
        return self.p7 + self.p14


@dataclass(frozen=True)
class Decomposition3:
    p1: KForm
    p7: KForm
    p27: KForm

    def total(self) -> KForm:
        return self.p1 + self.p7 + self.p27


def decompose2(beta: KForm, s: G2Structure) -> Decomposition2:
    """Split a 2-form into its 7- and 14-dimensional eigenspace parts.

    Spectral projection: p7 = (T(beta) - lam14 beta) / (lam7 - lam14) with
    the structure's stored eigenvalues, p14 the remainder.  T(beta) is one
    21x21 product with the structure's stored T (no Hodge star).
    """
    if beta.degree != 2:
        raise DegreeError("decompose2 expects a 2-form")
    beta = coerce_form(beta, s.ctx)
    rows, den = s._t_table
    t_beta = KForm._of(2, ratlin.matvec(rows, beta.num, s.ctx.scaled_zero), den * beta.den, s.ctx)
    denom = s.lambda7 - s.lambda14
    p7 = (t_beta - s.lambda14 * beta) * (1 / denom)
    return Decomposition2(p7=p7, p14=beta - p7)


def frame_coordinates(eta: KForm, s: G2Structure):
    """(<eta, phi>, (coords, cden)): the coordinates of eta's 7-part in the
    frame e_i . *phi are coords / cden, on the lane's scaled entries (ints
    in exact mode).

    One product with the wedge pairing of _frame_table, with no Gram and
    no g^-1 on any metric: <eta, phi> = top(eta ^ *phi) / top(vol) and
    coords_j = -top(dx_j ^ phi ^ eta) / (4 top(vol)), since
    *(alpha ^ phi) = alpha# . *phi and the frame's Gram is 4 g.  eta must
    already be in the structure's lane.
    """
    rows, den = s._frame_table[2]
    inner, den = ratlin.matvec(rows, eta.num), den * eta.den
    return s.ctx.ratio(inner[0], den), (inner[1:], 4 * den)


def decompose3(eta: KForm, s: G2Structure) -> Decomposition3:
    """Split a 3-form into scalar, vector and symmetric-traceless parts.

    p1 is the phi-component <eta, phi>/7 * phi; p7 is eta's frame
    coordinates (frame_coordinates) on the contractions e_i . *phi; p27 is
    the remainder.  Each part is assembled on the structure's scaled rows
    of phi and the frame forms (ints in exact mode) and built with one
    scalar per coefficient.
    """
    if eta.degree != 3:
        raise DegreeError("decompose3 expects a 3-form")
    ctx = s.ctx
    eta = coerce_form(eta, ctx)
    v, eden = eta.num, eta.den
    phi_inner, (coords, cden) = frame_coordinates(eta, s)
    (phi, *frames), rden = s._frame_table[:2]
    # <eta, phi> / 7 = w / wden
    ((w,),), wden = ctx.scaled([[phi_inner / 7]])
    p1 = [x * w for x in phi]
    p7 = _row_sum(coords, frames, ctx.scaled_zero)
    d1, d7 = wden * rden, cden * rden
    # eta - p1 - p7 over one denominator
    den = lcm(eden, d1, d7)
    e, m1, m7 = den // eden, den // d1, den // d7
    p27 = [x * e - y * m1 - z * m7 for x, y, z in zip(v, p1, p7)]
    return Decomposition3(*(KForm._of(3, part, d, ctx)
                            for part, d in ((p1, d1), (p7, d7), (p27, den))))


# -- the action of bilinear forms on phi ------------------------------


@dataclass(frozen=True)
class SymTensor:
    """Symmetric bilinear form on R^7: 7 rows of 7 entries, literally
    symmetric (ValueError otherwise)."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("SymTensor must be 7x7")
        for i in range(DIM):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("SymTensor must be symmetric")
        object.__setattr__(self, "rows", rows)


def _as_rows(b):
    if isinstance(b, SymTensor):
        return [list(r) for r in b.rows]
    rows = [list(r) for r in b]
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError("expected a 7x7 matrix")
    return rows


def _lane_rows(b, ctx: Context):
    """b's rows coerced into the lane (a float entry in exact mode raises ExactModeError)."""
    return [[ctx.scalar(x) for x in row] for row in _as_rows(b)]


def _odot_scaled(rows, den, s: G2Structure) -> KForm:
    """E . phi = sum_m alpha_m ^ (e_m . phi) for E = rows / den (Context.scaled
    rows), alpha_m = sum_a E_ma dx_a the m-th row of E: one wedge pass per
    row over the contractions of phi's stored numerators, on ints in exact
    mode, and each coefficient is built once."""
    zero = s.ctx.scaled_zero
    out = [zero] * NK[3]
    for row, contr in zip(rows, _contractions(3, s.phi.num, zero)):
        _wedge_add(out, row, 1, contr, 2)
    return KForm._of(3, out, den * s.phi.den, s.ctx)


def odot_endo(E, s: G2Structure) -> KForm:
    """(E . phi)(u,v,w) = phi(Eu,v,w) + phi(u,Ev,w) + phi(u,v,Ew) for an endomorphism E."""
    return _odot_scaled(*s.ctx.scaled(_lane_rows(E, s.ctx)), s)


def odot(b, s: G2Structure) -> KForm:
    """Action of a bilinear form on phi: raise the first index (_odot_rows),
    then act slotwise as the endomorphism g^-1 b (_odot_scaled)."""
    return _odot_rows(*s.ctx.scaled(_lane_rows(b, s.ctx)), s)


def _odot_rows(rows, den, s: G2Structure) -> KForm:
    """odot of rows / den, Context.scaled rows: g^-1 . rows on ints in exact mode."""
    ginv, gden = _metric_inverse(s.metric)
    return _odot_scaled(ratlin.matmul(ginv, rows), gden * den, s)


def odot_local(b, s: G2Structure, frame=None) -> KForm:
    """Frame expression of the same action: sum_ij b_ij (f_i)^flat ^ (f_j . phi).

    Valid in a g-orthonormal frame; with no frame given the metric must be
    Euclidean so the standard basis qualifies, otherwise FrameError.
    """
    rows = _as_rows(b)
    ctx = s.ctx
    if frame is None:
        if not s.metric.is_euclidean_within(EUCLIDEAN_TOL):
            raise FrameError("standard basis is not orthonormal for this metric; pass a frame")
        frame = [basis_vector(i, ctx) for i in range(1, DIM + 1)]
    else:
        frame = [tuple(v) for v in frame]
        if len(frame) != DIM or any(len(v) != DIM for v in frame):
            raise FrameError("frame needs 7 vectors of 7 entries")
        for i in range(DIM):
            fi = flat(frame[i], s.metric)
            for j in range(DIM):
                val = sum(x * y for x, y in zip(fi.coeffs, frame[j]))
                if not ctx.is_zero(val - (1 if i == j else 0), ENTRY_TOL):
                    raise FrameError("frame is not orthonormal for the metric")
    out = KForm.zero(3, ctx)
    contr = [interior(f, s.phi) for f in frame]
    flats = [flat(f, s.metric) for f in frame]
    for i in range(DIM):
        for j in range(DIM):
            bij = rows[i][j]
            if bij:
                out = out + wedge(flats[i], contr[j]) * bij
    return out


def infinitesimal_action(A, s: G2Structure) -> KForm:
    """Derivative at t=0 of the frame action of exp(tA) on phi; equals (-A) acting slotwise."""
    rows = _as_rows(A)
    return odot_endo([[-x for x in row] for row in rows], s)


def symmetric_basis(ctx: Context = EXACT):
    """The 28 symmetric unit matrices: 7 diagonal then the 21 pair sums."""
    one, zero = ctx.one, ctx.zero
    basis = []
    for i in range(DIM):
        m = [[zero] * DIM for _ in range(DIM)]
        m[i][i] = one
        basis.append(m)
    for i in range(DIM):
        for j in range(i + 1, DIM):
            m = [[zero] * DIM for _ in range(DIM)]
            m[i][j] = one
            m[j][i] = one
            basis.append(m)
    return basis


def odot_inverse(eta: KForm, s: G2Structure) -> SymTensor:
    """The unique symmetric h with h acting on phi (odot) giving eta.

    Preconditions: eta is a 3-form with no 7-part (the action of symmetric
    tensors only reaches the 1- and 27-parts); violations raise
    DecompositionError.

    Closed form, no solve: with B(phi) = lambda g, for symmetric h
    dB_phi[h . phi] = lambda (2h + tr_g(h) g).  So J = dB_phi[eta] / lambda,
    one 28x35 product with the structure's table, gives
    h = (J - tr_g(J) / 9 g) / 2.  J, tr_g(J) and h run as scaled
    numerators over one den (Context.reduce: reduced ints in exact mode,
    the same float operations as lane scalars in float mode), and a
    Fraction is built only per entry of the returned h.  Float checks are
    relative: the 7-part and the residual odot(h) - eta must be within
    DEFAULT_TOL times max(1, |eta|).
    """
    if eta.degree != 3:
        raise DegreeError("odot_inverse expects a 3-form")
    ctx = s.ctx
    eta = coerce_form(eta, ctx)
    scale = max(1, eta.max_abs())
    parts = decompose3(eta, s)
    if not ctx.is_zero(parts.p7.max_abs(), DEFAULT_TOL, scale):
        raise DecompositionError("3-form has a nonzero 7-part; not in the symmetric image")
    # with p7 = 0 this is eta itself in the exact lane
    target = parts.p1 + parts.p27
    # J = sums / jden: the table's den is lambda = t / tq
    table, lam = s._odot_inverse_table
    ((t,),), tq = ctx.scaled([[lam]])
    num = target.num
    sums = [sum(x * num[q] for q, x in row) * tq for row in table]
    jvec, jden, _ = ctx.reduce(sums, t * target.den)
    # tr_g(J) / 9 = tr / trden, with g^-1 = ginv / iden and g = gnum / gden
    ginv, iden = _metric_inverse(s.metric)
    gnum, gden = s.metric.num, s.metric.den
    (tr,), trden, _ = ctx.reduce([sum(ginv[i][j] * x if i == j else 2 * ginv[i][j] * x
                                      for (i, j), x in zip(_PAIRS, jvec))], 9 * iden * jden)
    # h = (J - tr_g(J) / 9 g) / 2 on one den
    den = lcm(jden, trden * gden)
    mj, mt = den // jden, den // (trden * gden)
    upper, hden, _ = ctx.reduce([x * mj - tr * gnum[i][j] * mt for (i, j), x in zip(_PAIRS, jvec)],
                                2 * den)
    hrows = [[None] * DIM for _ in range(DIM)]
    rows = [[None] * DIM for _ in range(DIM)]
    for (i, j), x in zip(_PAIRS, upper):
        hrows[i][j] = hrows[j][i] = x
        rows[i][j] = rows[j][i] = ctx.ratio(x, hden)
    resid = (_odot_rows(hrows, hden, s) - target).max_abs()
    if not ctx.is_zero(resid, DEFAULT_TOL, scale):
        raise DecompositionError(f"inversion residual {resid} above tolerance")
    return SymTensor(tuple(tuple(r) for r in rows))
