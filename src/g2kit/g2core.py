"""Core pointwise G2 linear algebra.

Contents: the standard associative 3-form, recovery of the induced metric
and orientation from a nondegenerate 3-form, the irreducible type
decompositions of 2-forms (7 + 14) and 3-forms (1 + 7 + 27), and the action
of bilinear forms on the 3-form together with its inverse on the symmetric
side.

The eigenvalues of beta -> *(phi ^ beta) on 2-forms are discovered at
construction time and stored on the structure, never hard-coded: their signs
depend on the star and orientation conventions, and the contract is only
that the eigenspaces have dimensions 7 and 14.  Both lanes read them from
tr T and tr T^2 and keep the pair whose kernels have those dimensions; the
lane only supplies the square root and the kernel algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from . import ratlin
from .context import (
    ENTRY_TOL,
    EUCLIDEAN_TOL,
    EXACT,
    FLOAT,
    PHI_NORM_TOL,
    Context,
    lane_of,
    rational_nth_root,
)
from .errors import (
    DecompositionError,
    DegreeError,
    ExactModeError,
    FrameError,
    G2KitError,
    MetricError,
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
    _metric_inverse,
    _wedge_table,
    basis_vector,
    coerce_form,
    flat,
    form_inner,
    gram_apply,
    hodge_star,
    interior,
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


def phi0(exact: bool = True) -> KForm:
    """The standard associative 3-form on R^7."""
    return KForm.from_entries(3, PHI0_ENTRIES, exact=exact)


# B_ij is cubic in phi: the upper-triangle pairs (i, j), i <= j, in row order.
_PAIRS = tuple((i, j) for i in range(DIM) for j in range(i, DIM))


@lru_cache(maxsize=None)
def _contraction_table():
    """B_ij(phi) = top coefficient of (e_i . phi) ^ (e_j . phi) ^ phi, as a cubic table.

    One entry (a, b, c, pair, coefficient) per nonzero term
    coefficient * phi_a phi_b phi_c of B at `pair` (an index into _PAIRS),
    with positions a <= b <= c.  Built from the wedge tables on first use.
    """
    # e_i . dx_P = sign dx_Q: per i, Q position -> (P position, sign)
    contr = []
    for i in range(1, DIM + 1):
        row = {}
        for p, idx in enumerate(BASIS[3]):
            if i in idx:
                t = idx.index(i)
                row[POS[2][idx[:t] + idx[t + 1:]]] = (p, -1 if t % 2 else 1)
        contr.append(row)
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
def _contraction_arrays():
    """_contraction_table as read-only numpy columns for the float lane."""
    a, b, c, n, k = (np.asarray(col) for col in zip(*_contraction_table()))
    cols = (a, b, c, n, k.astype(float))
    for col in cols:
        col.flags.writeable = False
    return cols


def _contraction_matrix(coeffs):
    """B as rows of rows from phi's coefficients (exact ints, or floats)."""
    if isinstance(coeffs[0], float):
        phi = np.asarray(coeffs)
        a, b, c, n, k = _contraction_arrays()
        vals = np.bincount(n, weights=k * phi[a] * phi[b] * phi[c], minlength=len(_PAIRS)).tolist()
    else:
        vals = [0] * len(_PAIRS)
        for a, b, c, n, k in _contraction_table():
            m = coeffs[a]
            if m:
                m *= coeffs[b]
                if m:
                    m *= coeffs[c]
                    if m:
                        vals[n] += k * m
    B = [[None] * DIM for _ in range(DIM)]
    for (i, j), v in zip(_PAIRS, vals):
        B[i][j] = B[j][i] = v
    return B


def metric_from_phi(phi: KForm, ctx: Context = EXACT):
    """Metric and orientation induced by a nondegenerate 3-form.

    The contraction matrix B is normalized so that the standard form maps to
    the identity metric: g = B / (6^(2/9) det(B)^(1/9)) after flipping the
    sign of B (and recording orientation -1) when det(B) < 0.  Exact mode
    requires det(B) = 6^7 * c^9 for a rational c and raises ExactModeError
    otherwise; degenerate or indefinite B raises NotG2FormError.

    B is evaluated from a cubic table.  In exact mode phi = Phi / D with an
    integer vector Phi, B = B(Phi) / D^3 with B(Phi) an integer matrix, and
    each entry of g is built as one Fraction.
    """
    if phi.degree != 3:
        raise DegreeError("metric recovery expects a 3-form")
    phi = coerce_form(phi, ctx)
    if ctx.is_exact:
        den = lcm(*(x.denominator for x in phi.coeffs))
        B = _contraction_matrix([x.numerator * (den // x.denominator) for x in phi.coeffs])
        det_b = ratlin.det_exact(B).numerator
        if det_b == 0:
            raise NotG2FormError("degenerate 3-form: det of contraction matrix is 0")
        orient = POSITIVE if det_b > 0 else NEGATIVE
        if det_b < 0:
            B = [[-x for x in row] for row in B]
            det_b = -det_b
        ninth = rational_nth_root(Fraction(det_b, den ** 21 * _SIX_POW_7), 9)
        if ninth is None:
            raise ExactModeError(
                "exact metric normalization needs det(B)/6^7 to be a rational ninth power"
            )
        # g = B(Phi) / (D^3 * 6 * ninth)
        num, scale = ninth.denominator, den ** 3 * 6 * ninth.numerator
        g = [[Fraction(x * num, scale) for x in row] for row in B]
    else:
        B = _contraction_matrix(phi.coeffs)
        det_b = float(np.linalg.det(np.asarray(B, dtype=float)))
        if det_b == 0.0 or not np.isfinite(det_b):
            raise NotG2FormError("degenerate 3-form: det of contraction matrix is 0")
        orient = POSITIVE if det_b > 0 else NEGATIVE
        if det_b < 0:
            B = [[-x for x in row] for row in B]
            det_b = -det_b
        scale = 6.0 ** (2.0 / 9.0) * det_b ** (1.0 / 9.0)
        g = [[x / scale for x in row] for row in B]
    try:
        metric = Metric(tuple(tuple(row) for row in g))
    except MetricError as exc:
        raise NotG2FormError(f"3-form does not induce a positive metric: {exc}") from exc
    return metric, orient


def is_g2_form(phi: KForm, ctx: Context = EXACT) -> bool:
    """True when the 3-form induces a positive definite metric (either orientation)."""
    try:
        metric_from_phi(phi, ctx)
    except NotG2FormError:
        return False
    return True


def _full_tensor(phi: KForm):
    """phi as a totally antisymmetric 3-tensor lookup t[a][b][c] (0-based)."""
    zero = lane_of(phi.coeffs).zero
    t = [[[zero] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for (i, j, k), c in phi.entries():
        for (a, b, d), sign in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            t[a - 1][b - 1][d - 1] = c if sign > 0 else -c
    return t


def _two_form_spectrum(tmat, ctx: Context):
    """(lambda7, lambda14, kernel basis of T - lambda7, of T - lambda14).

    tr T = 7 lambda7 + 14 lambda14 and tr T^2 = 7 lambda7^2 + 14 lambda14^2
    leave two candidate pairs; the square root and the kernels are the
    lane's.  The pair whose kernels have dimensions 7 and 14 is kept: the
    two kernels then meet only in 0 and span all 21 dimensions, which proves
    (T - lambda7)(T - lambda14) = 0.  Every G2 structure gives (2, -1), the
    first candidate tried.
    """
    n2 = len(tmat)
    t1 = sum(tmat[i][i] for i in range(n2))
    t2 = sum(tmat[i][j] * tmat[j][i] for i in range(n2) for j in range(n2))
    # lambda14 solves 42 x^2 - 4 t1 x + t1^2/7 - t2 = 0
    disc = 8 * (21 * t2 - t1 * t1)
    try:
        root = ctx.sqrt(disc)
    except (ValueError, ExactModeError) as exc:
        raise DecompositionError(f"2-form operator has no (7, 14) spectrum: {exc}") from exc

    def shifted(lam):
        return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(tmat)]

    for lam14 in ((4 * t1 - root) / 84, (4 * t1 + root) / 84):
        lam7 = (t1 - 14 * lam14) / 7
        eig7, eig14 = ctx.nullspace(shifted(lam7)), ctx.nullspace(shifted(lam14))
        if (len(eig7), len(eig14)) == (7, 14):
            return lam7, lam14, eig7, eig14
    raise DecompositionError("2-form operator has no eigenspaces of dimensions (7, 14)")


class G2Structure:
    """A nondegenerate 3-form bundled with everything derived from it.

    Construction computes (eagerly): the induced metric and orientation, the
    volume form, the star of phi, the spectrum of beta -> *(phi ^ beta) on
    2-forms with its two eigenspace bases, and the Gram data of the
    contraction frame spanning the 7-dimensional piece of the 3-forms.
    All of it is in the context's arithmetic; exact mode never touches a
    float.  Its eigenvalues come from the traces of T and T^2 and are
    verified by kernel dimensions 7 and 14; the frame's inverse Gram
    matrix is g^-1 / 4, since <e_i . *phi, e_j . *phi> = 4 g_ij.

    The two contraction tables star_dx_phi and star_dx_star_phi, which
    Bryant's formula reads, are built lazily on first use, so construction
    does not pay for them.
    """

    def __init__(self, phi: KForm, ctx: Context = EXACT):
        self.ctx = ctx
        self.phi = coerce_form(phi, ctx)
        self.metric, self.orientation = metric_from_phi(self.phi, ctx)
        self.vol = volume_form(self.metric, self.orientation)
        self.star_phi = hodge_star(self.phi, self.metric, self.orientation)
        norm = form_inner(self.phi, self.phi, self.metric)
        if not ctx.is_zero(norm - 7, PHI_NORM_TOL):
            raise NotG2FormError(f"normalized 3-form should have |phi|^2 = 7, got {norm}")
        self._tensor = _full_tensor(self.phi)
        self._init_two_form_spectrum()
        self._init_three_form_frame()
        self._odot_matrix_cache = None

    # -- spectral data on 2-forms ------------------------------------

    def two_form_operator(self, beta: KForm) -> KForm:
        """The map beta -> *(phi ^ beta) whose eigenspaces split the 2-forms."""
        if beta.degree != 2:
            raise DegreeError("operator expects a 2-form")
        return hodge_star(wedge(self.phi, beta), self.metric, self.orientation)

    def _init_two_form_spectrum(self):
        n2 = NK[2]
        cols = []
        for idx in BASIS[2]:
            image = self.two_form_operator(KForm.basis(idx))
            cols.append(image.coeffs)
        tmat = [[cols[j][i] for j in range(n2)] for i in range(n2)]
        self._tmat = tmat
        self.lambda7, self.lambda14, eig7, eig14 = _two_form_spectrum(tmat, self.ctx)
        self.basis2_7 = tuple(KForm(2, tuple(v)) for v in eig7)
        self.basis2_14 = tuple(KForm(2, tuple(v)) for v in eig14)

    # -- frame data on 3-forms ---------------------------------------

    def _init_three_form_frame(self):
        exact = self.ctx.is_exact
        self.frame3_7 = tuple(
            interior(basis_vector(i, exact), self.star_phi) for i in range(1, DIM + 1)
        )
        # the frame's Gram matrix <e_i . *phi, e_j . *phi> is exactly 4 g
        self._gram7_inv = [[x / 4 for x in row] for row in _metric_inverse(self.metric)]

    # -- contraction tables for Bryant's formula (built on first use) --

    @cached_property
    def star_dx_star_phi(self) -> tuple:
        """u_j = *(dx_j ^ *phi) for j = 1..7, as the contractions (g^-1 e_j) . phi."""
        return tuple(interior(col, self.phi) for col in zip(*_metric_inverse(self.metric)))

    @cached_property
    def star_dx_phi(self) -> tuple:
        """s_j = *(dx_j ^ phi) for j = 1..7, as the contractions -(g^-1 e_j) . *phi."""
        return tuple(-interior(col, self.star_phi) for col in zip(*_metric_inverse(self.metric)))

    def star(self, a: KForm) -> KForm:
        return hodge_star(a, self.metric, self.orientation)

    def inner(self, a: KForm, b: KForm):
        return form_inner(a, b, self.metric)

    def __repr__(self):
        return f"G2Structure(mode={self.ctx.mode}, orientation={self.orientation.sign:+d})"


@lru_cache(maxsize=None)
def standard_structure(mode: str = "exact") -> G2Structure:
    """The structure of the standard form, cached per mode."""
    ctx = Context.of(mode)
    return G2Structure(phi0(ctx.is_exact), ctx)


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
    the structure's stored eigenvalues, p14 the remainder.
    """
    if beta.degree != 2:
        raise DegreeError("decompose2 expects a 2-form")
    beta = coerce_form(beta, s.ctx)
    t_beta = s.two_form_operator(beta)
    denom = s.lambda7 - s.lambda14
    p7 = (t_beta - s.lambda14 * beta) * (1 / denom)
    return Decomposition2(p7=p7, p14=beta - p7)


def frame_coordinates(eta: KForm, s: G2Structure):
    """(<eta, phi>, coordinates of eta's 7-part in the frame e_i . *phi).

    Both come from one Gram product of eta: its inner products with phi and
    the 7 frame forms, the latter mapped through the frame's inverse Gram.
    eta must already be in the structure's lane.
    """
    zero = s.ctx.zero

    def matvec(rows, v):
        # phi, the frame forms and (on flat metrics) g^-1 are sparse: skip their zeros
        return [sum((x * y for x, y in zip(row, v) if x), zero) for row in rows]

    inner = matvec([s.phi.coeffs, *(w.coeffs for w in s.frame3_7)], gram_apply(eta, s.metric))
    return inner[0], matvec(s._gram7_inv, inner[1:])


def decompose3(eta: KForm, s: G2Structure) -> Decomposition3:
    """Split a 3-form into scalar, vector and symmetric-traceless parts.

    p1 is the phi-component <eta, phi>/7 * phi; p7 is the Gram projection
    onto the span of the contractions e_i . *phi; p27 is the remainder.
    """
    if eta.degree != 3:
        raise DegreeError("decompose3 expects a 3-form")
    eta = coerce_form(eta, s.ctx)
    phi_inner, coords = frame_coordinates(eta, s)
    p1 = s.phi * (phi_inner / 7)
    p7 = KForm.zero(3, s.ctx.is_exact)
    for x, w in zip(coords, s.frame3_7):
        if x:
            p7 = p7 + w * x
    return Decomposition3(p1=p1, p7=p7, p27=eta - p1 - p7)


# -- the action of bilinear forms on phi ------------------------------


@dataclass(frozen=True)
class SymTensor:
    """Symmetric bilinear form on R^7 (rows of rows)."""

    rows: tuple
    traceless: bool = False

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("SymTensor must be 7x7")
        for i in range(DIM):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("SymTensor must be symmetric")
        object.__setattr__(self, "rows", rows)
        if self.traceless:
            tr = sum(rows[i][i] for i in range(DIM))
            if not lane_of([tr]).is_zero(tr, ENTRY_TOL):
                raise ValueError("SymTensor flagged traceless has nonzero trace")

    def trace(self):
        return sum(self.rows[i][i] for i in range(DIM))


def _as_rows(b):
    if isinstance(b, SymTensor):
        return [list(r) for r in b.rows]
    rows = [list(r) for r in b]
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError("expected a 7x7 matrix")
    return rows


def odot_endo(E, s: G2Structure) -> KForm:
    """(E . phi)(u,v,w) = phi(Eu,v,w) + phi(u,Ev,w) + phi(u,v,Ew) for an endomorphism E."""
    rows = _as_rows(E)
    t = s._tensor
    out = []
    for (i, j, k) in BASIS[3]:
        a, b, c = i - 1, j - 1, k - 1
        acc = 0
        for m in range(DIM):
            e_ma = rows[m][a]
            if e_ma:
                acc += e_ma * t[m][b][c]
            e_mb = rows[m][b]
            if e_mb:
                acc += e_mb * t[a][m][c]
            e_mc = rows[m][c]
            if e_mc:
                acc += e_mc * t[a][b][m]
        out.append(acc)
    return KForm(3, tuple(out))


def odot(b, s: G2Structure) -> KForm:
    """Action of a bilinear form on phi: raise the first index, then act slotwise."""
    rows = _as_rows(b)
    endo = ratlin.matmul([list(r) for r in _metric_inverse(s.metric)], rows)
    return odot_endo(endo, s)


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
        frame = [basis_vector(i, ctx.is_exact) for i in range(1, DIM + 1)]
    else:
        frame = [tuple(v) for v in frame]
        if len(frame) != DIM:
            raise FrameError("frame needs 7 vectors")
        for i in range(DIM):
            fi = flat(frame[i], s.metric)
            for j in range(DIM):
                val = sum(x * y for x, y in zip(fi.coeffs, frame[j]))
                if not ctx.is_zero(val - (1 if i == j else 0), ENTRY_TOL):
                    raise FrameError("frame is not orthonormal for the metric")
    out = KForm.zero(3, ctx.is_exact)
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


def symmetric_basis(exact: bool = True):
    """The 28 symmetric unit matrices: 7 diagonal then the 21 pair sums."""
    lane = EXACT if exact else FLOAT
    one, zero = lane.one, lane.zero
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


def _odot_symmetric_matrix(s: G2Structure):
    """35x28 matrix of the action restricted to symmetric tensors (cached).

    With u_i = (g^-1 e_i) . phi (the structure's star_dx_star_phi table),
    the unit tensor at (i, i) acts as dx_i ^ u_i and the pair (i, j) as
    dx_i ^ u_j + dx_j ^ u_i.
    """
    if s._odot_matrix_cache is None:
        dx = [KForm(1, basis_vector(i, s.ctx.is_exact)) for i in range(1, DIM + 1)]
        u = s.star_dx_star_phi
        cols = [wedge(dx[i], u[i]).coeffs for i in range(DIM)]
        cols += [(wedge(dx[i], u[j]) + wedge(dx[j], u[i])).coeffs
                 for i in range(DIM) for j in range(i + 1, DIM)]
        s._odot_matrix_cache = [list(row) for row in zip(*cols)]
    return s._odot_matrix_cache


def odot_inverse(eta: KForm, s: G2Structure) -> SymTensor:
    """The unique symmetric b with b acting on phi giving eta.

    Preconditions: eta is a 3-form with no 7-part (the action of symmetric
    tensors only reaches the 1- and 27-parts); violations raise
    DecompositionError.  Float checks use the structure's context tol.
    """
    if eta.degree != 3:
        raise DegreeError("odot_inverse expects a 3-form")
    ctx = s.ctx
    eta = coerce_form(eta, ctx)
    parts = decompose3(eta, s)
    if not ctx.is_zero(parts.p7.max_abs()):
        raise DecompositionError("3-form has a nonzero 7-part; not in the symmetric image")
    # with p7 = 0 this is eta itself in the exact lane
    target = [a + b for a, b in zip(parts.p1.coeffs, parts.p27.coeffs)]
    try:
        x, resid = ctx.solve(_odot_symmetric_matrix(s), target)
    except G2KitError as exc:
        raise DecompositionError(f"exact inversion failed: {exc}") from exc
    if not ctx.is_zero(resid, ctx.tol * max(1.0, float(eta.max_abs()))):
        raise DecompositionError(f"float inversion residual {resid} above tolerance")
    rows = [[None] * DIM for _ in range(DIM)]
    pos = 0
    for i in range(DIM):
        rows[i][i] = x[pos]
        pos += 1
    for i in range(DIM):
        for j in range(i + 1, DIM):
            rows[i][j] = x[pos]
            rows[j][i] = x[pos]
            pos += 1
    return SymTensor(tuple(tuple(r) for r in rows))
