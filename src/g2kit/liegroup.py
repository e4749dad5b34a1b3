"""Lie-theoretic layer over the standard inner product.

Membership tests for the orthogonal group and for the stabilizer of the
standard 3-form, the stabilizer's 14-dimensional Lie algebra realized as the
matching 2-form eigenspace, normalizer computations inside so(7), and the
conjugation test deciding whether a frame rotation moves a set of holonomy
generators into the stabilizer, together with the first-order (tangent)
dimension count of the solution set modulo the stabilizer.

Everything here targets the standard metric: algebra elements are plain
antisymmetric matrices.  The lane of a computation is that of its inputs
(context.lane_of); float checks read SO7_TOL, LIE_TOL, ENTRY_TOL and
FLOAT_RANK_CUTOFF from the tolerance ladder in context.py.

The normalizer and the coset count run one code path in both lanes: a
subspace of so(7) is tested through one annihilator (rows spanning the
vectors orthogonal to it in the 21 upper-triangle coordinates), and brackets
of coordinate vectors come from a sparse so(7) structure-constant table.
The exact lane scales its vectors to integers first, so its arithmetic runs
on ints.  The one exponential, matrix_exp, is float only and takes numpy's
eigh.  The models' holonomy samples are exact (models.holonomy_sample), so
coset_tangent_dim on them runs in the exact lane.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from functools import lru_cache

from . import ratlin
from .context import ENTRY_TOL, EUCLIDEAN_TOL, EXACT, LIE_TOL, SO7_TOL, Context, lane_of, np
from .errors import (
    BracketClosureError,
    DecompositionError,
    ExactModeError,
    FrameError,
    HolonomyError,
)
from .exterior import DIM, KForm, _row_sum, _split_rows, pullback
from .g2core import G2Structure, _as_rows, infinitesimal_action, phi0, standard_structure
from .sampling import float_antisymmetric


def _lane(*mats):
    """The lane of the matrices' entries."""
    return lane_of(x for m in mats for row in m for x in row)


def orthogonality_gap(g):
    """max |(g^T g - 1)_ij|, zero exactly when g is orthogonal."""
    rows = _as_rows(g)
    gtg = ratlin.matmul(ratlin.transpose(rows), rows)
    return ratlin.mat_max_abs(ratlin.mat_sub(gtg, ratlin.identity(DIM)))


def is_so7(g, tol: float = SO7_TOL) -> bool:
    """Orthogonal with determinant one: g^T g - 1 (orthogonality_gap) and det g - 1
    vanish (literally in exact mode, entrywise within tol in float mode)."""
    rows = _as_rows(g)
    lane = _lane(rows)
    return lane.is_zero(orthogonality_gap(rows), tol) and lane.is_zero(lane.det(rows) - 1, tol)


def act_on_form(g, a: KForm) -> KForm:
    """The group action g . a = pullback of a by g^{-1}."""
    rows = _as_rows(g)
    return pullback(a, _lane(rows).inv(rows))


def is_g2(g, tol: float = SO7_TOL) -> bool:
    """True when g is orthogonal, unimodular, and its action fixes the standard 3-form."""
    rows = _as_rows(g)
    if not is_so7(rows, tol):
        return False
    lane = _lane(rows)
    phi = phi0(lane)
    return lane.is_zero((act_on_form(rows, phi) - phi).max_abs(), tol)


def matrix_exp(a):
    """Exponential of a finite, literally antisymmetric 7x7 float matrix
    (ValueError otherwise; exact mode has no rational exponential).

    iA is Hermitian, so with iA = V diag(w) V^* (numpy's eigh),
    exp(A) = V diag(exp(-iw)) V^*, whose real part is returned."""
    rows = _as_rows(a)
    if _lane(rows).is_exact:
        raise ExactModeError("matrix_exp needs float input; the exponential leaves the rationals")
    arr = np.asarray(rows, dtype=float)
    if not (np.isfinite(arr).all() and (arr == -arr.T).all()):
        raise ValueError("matrix_exp expects a finite antisymmetric matrix")
    w, v = np.linalg.eigh(1j * arr)
    out = ((v * np.exp(-1j * w)) @ v.conj().T).real
    return tuple(tuple(float(x) for x in row) for row in out)


def bracket(a, b):
    return ratlin.mat_sub(ratlin.matmul(a, b), ratlin.matmul(b, a))


@dataclass(frozen=True)
class SubalgebraBasis:
    """Linearly independent antisymmetric matrices spanning a subspace of so(7)."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(tuple(tuple(x for x in row) for row in m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        for m in mats:
            rows = _as_rows(m)
            lane = _lane(rows)
            if not all(lane.is_zero(rows[i][j] + rows[j][i], ENTRY_TOL)
                       for i in range(DIM) for j in range(DIM)):
                raise ValueError("basis matrices must be antisymmetric")
        if mats and _lane(*mats).rank([_vec_so(m) for m in mats]) != len(mats):
            raise ValueError("basis matrices must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def is_exact(self) -> bool:
        return _lane(*self.matrices).is_exact


_UPPER = [(i, j) for i in range(DIM) for j in range(i + 1, DIM)]


def _vec_so(rows):
    """Coordinates of an antisymmetric matrix: the 21 upper-triangle entries."""
    return [rows[i][j] for (i, j) in _UPPER]


@lru_cache(maxsize=None)
def _bracket_table():
    """Structure constants of so(7) on the _UPPER coordinates.

    Entry p lists (q, r, sign) with [E_p, E_q] = sign * E_r, from
    [E_ij, E_kl] = d_jk E_il - d_ik E_jl - d_jl E_ik + d_il E_jk, where
    E_ba = -E_ab and E_aa = 0; units sharing no index commute.
    """
    pos = {pair: r for r, pair in enumerate(_UPPER)}

    def unit(a, b):
        return (pos[(a, b)], 1) if a < b else (pos[(b, a)], -1)

    table = []
    for (i, j) in _UPPER:
        row = []
        for q, (k, l) in enumerate(_UPPER):
            terms = []
            if j == k:
                terms.append((i, l, 1))
            if i == k:
                terms.append((j, l, -1))
            if j == l:
                terms.append((i, k, -1))
            if i == l:
                terms.append((j, k, 1))
            for a, b, sign in terms:
                if a != b:
                    r, s = unit(a, b)
                    row.append((q, r, sign * s))
        table.append(tuple(row))
    return tuple(table)


def _bracket_vec(u, v):
    """Coordinates of [A, B] from the coordinates of A and B (O(nnz) table walk)."""
    out = [0] * len(_UPPER)
    table = _bracket_table()
    for p, up in enumerate(u):
        if up:
            for q, r, sign in table[p]:
                vq = v[q]
                if vq:
                    out[r] += sign * up * vq
    return out


def _annihilator(lane, vecs):
    """Rows spanning the vectors orthogonal to every vec (the standard dot
    product on the 21 coordinates): w is in the span of vecs exactly when
    every row dotted with w is zero (within LIE_TOL in the float lane, where
    the rows are orthonormal).  Exact rows are scaled to ints."""
    if not vecs:
        return [[int(r == c) for c in range(len(_UPPER))] for r in range(len(_UPPER))]
    return lane.scaled_nullspace(vecs)[0]


def _in_span(lane, ann, v) -> bool:
    return lane.is_zero(max((abs(x) for x in ratlin.matvec(ann, v, lane.scaled_zero)), default=0), LIE_TOL)


def so7_basis(ctx: Context = EXACT) -> SubalgebraBasis:
    """The 21 antisymmetric units E_ij = e_i e_j^T - e_j e_i^T, i < j."""
    one, zero = ctx.one, ctx.zero
    mats = []
    for (i, j) in _UPPER:
        m = [[zero] * DIM for _ in range(DIM)]
        m[i][j] = one
        m[j][i] = -one
        mats.append(tuple(tuple(r) for r in m))
    return SubalgebraBasis(tuple(mats))


def two_form_to_matrix(beta: KForm):
    """The antisymmetric matrix B with B_ij = beta(e_i, e_j)."""
    rows = [[lane_of(beta.coeffs).zero] * DIM for _ in range(DIM)]
    for (i, j), c in beta.entries():
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = -c
    return rows


def matrix_to_two_form(rows) -> KForm:
    rows = _as_rows(rows)
    return KForm.from_entries(2, {(i + 1, j + 1): rows[i][j] for (i, j) in _UPPER}, _lane(rows))


# One stabilizer basis per structure, dropped with the structure.
_ALGEBRA_BASES = weakref.WeakKeyDictionary()


def g2_algebra_basis(s: G2Structure | None = None) -> SubalgebraBasis:
    """Basis of the stabilizer algebra: the 14-dimensional eigenspace of the
    structure's 2-form operator, reinterpreted as antisymmetric matrices.

    Requires the structure's metric to be Euclidean (so(7) is taken with the
    standard inner product here); each basis element is verified to kill phi
    under the infinitesimal action.  The basis is built and verified once
    per structure; later calls return the same object.
    """
    if s is None:
        s = standard_structure("exact")
    basis = _ALGEBRA_BASES.get(s)
    if basis is None:
        basis = _ALGEBRA_BASES[s] = _build_g2_algebra_basis(s)
    return basis


def _build_g2_algebra_basis(s: G2Structure) -> SubalgebraBasis:
    if not s.metric.is_euclidean_within(EUCLIDEAN_TOL):
        raise FrameError("algebra extraction is defined for Euclidean-metric structures")
    mats = []
    for beta in s.basis2_14:
        m = two_form_to_matrix(beta)
        if not s.ctx.is_zero(infinitesimal_action(m, s).max_abs(), LIE_TOL):
            raise DecompositionError("eigenspace element does not annihilate phi")
        mats.append(tuple(tuple(r) for r in m))
    return SubalgebraBasis(tuple(mats))


def lie_normalizer(ambient: SubalgebraBasis, sub: SubalgebraBasis) -> SubalgebraBasis:
    """Elements A of the ambient span with [A, S] in the sub span for every
    basis element S.  The sub basis must be bracket-closed (BracketClosureError).

    The kernel of A -> (annihilator . [A, S_b])_b over the ambient
    coordinates.  The exact lane scales the sub and ambient vectors to ints by
    one common denominator each; neither moves that kernel, whose basis comes
    from the unique reduced row echelon form.  Each kernel row combines the
    ambient matrices, scaled to ints as well, in one row sum (_row_sum), and
    each entry is built once (Context.ratio)."""
    lane = _lane(*ambient.matrices, *sub.matrices)
    sub_vecs = lane.scaled([_vec_so(m) for m in sub.matrices])[0]
    ann = _annihilator(lane, sub_vecs)
    for i, a in enumerate(sub_vecs):
        for b in sub_vecs[i + 1:]:
            if not _in_span(lane, ann, _bracket_vec(a, b)):
                raise BracketClosureError("sub basis is not closed under the bracket")
    if not ambient.matrices or not sub_vecs:
        return ambient
    amb_vecs = lane.scaled([_vec_so(m) for m in ambient.matrices])[0]
    constraint = []
    for svec in sub_vecs:
        cols = [ratlin.matvec(ann, _bracket_vec(avec, svec), lane.scaled_zero) for avec in amb_vecs]
        constraint.extend(list(row) for row in zip(*cols))
    flat, fden = lane.scaled([[x for row in m for x in row] for m in ambient.matrices])
    rows, den = lane.scaled_nullspace(constraint or [[0] * len(amb_vecs)])
    return SubalgebraBasis(tuple(
        _split_rows([lane.ratio(x, den * fden) for x in _row_sum(row, flat, lane.scaled_zero)])
        for row in rows))


@dataclass(frozen=True)
class HolonomySpec:
    """A finite list of orthogonal generators standing in for a holonomy group."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(tuple(x for x in row) for row in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not is_so7(g, LIE_TOL):
                raise HolonomyError("holonomy generators must be special orthogonal")

    @classmethod
    def trivial(cls) -> "HolonomySpec":
        return cls(())

    @property
    def count(self) -> int:
        return len(self.generators)


def nf_member(g, h: HolonomySpec) -> bool:
    """Does conjugating every holonomy generator by g land in the stabilizer?

    g must itself be special orthogonal within LIE_TOL (HolonomyError
    otherwise); the test is is_g2(g^T h_i g) within SO7_TOL for every
    generator, g^T being g^-1 (exactly so in the exact lane, where is_so7
    checks g^T g = 1 literally).
    """
    rows = _as_rows(g)
    if not is_so7(rows, LIE_TOL):
        raise HolonomyError("frame rotation must be special orthogonal")
    ginv = ratlin.transpose(rows)
    for gen in h.generators:
        conj = ratlin.matmul(ratlin.matmul(ginv, _as_rows(gen)), rows)
        if not is_g2(conj, SO7_TOL):
            return False
    return True


def coset_tangent_dim(h: HolonomySpec, s: G2Structure | None = None) -> int:
    """First-order dimension of the admissible rotations modulo the stabilizer.

    Linearizes the conjugation condition at the identity: counts antisymmetric
    A with A - h^-1 A h in the stabilizer algebra for every generator, then
    subtracts the stabilizer's dimension 14.  Generators must already satisfy
    is_g2 (the identity must be admissible), else HolonomyError.

    The count is the nullity of A -> (annihilator . (g^T A g - A))_g over the
    E_ij coordinates: the generators are orthogonal, so g^-1 = g^T, and
    g^T E_ij g = r_i r_j^T - r_j r_i^T for the rows r of g.  The exact lane
    takes g = G/d for an int matrix G, which scales column E_ij by d^2 and
    keeps the rank.
    """
    if s is None:
        s = standard_structure("exact")
    for gen in h.generators:
        if not is_g2(gen, LIE_TOL):
            raise HolonomyError("generators must fix the 3-form for the identity coset")
    g2b = g2_algebra_basis(s)
    if h.count == 0:
        return len(_UPPER) - g2b.dim
    lane = _lane(*h.generators, *g2b.matrices)
    ann = _annihilator(lane, lane.scaled([_vec_so(m) for m in g2b.matrices])[0])
    constraint = []
    for gen in h.generators:
        grows, d = lane.scaled(_as_rows(gen))
        cols = []
        for a, (i, j) in enumerate(_UPPER):
            gi, gj = grows[i], grows[j]
            moved = [gi[p] * gj[q] - gj[p] * gi[q] for (p, q) in _UPPER]
            moved[a] -= d * d
            cols.append(ratlin.matvec(ann, moved, lane.scaled_zero))
        constraint.extend(list(row) for row in zip(*cols))
    return len(_UPPER) - lane.rank(constraint) - g2b.dim


def sample_so7(rng: random.Random):
    """Random special orthogonal matrix via the exponential (float)."""
    return matrix_exp(float_antisymmetric(rng))


def sample_g2(rng: random.Random):
    """Random stabilizer element: the exponential (float) of a combination
    of g2_algebra_basis() with coefficients drawn uniformly from [-1, 1]."""
    flat = [[float(x) for row in m for x in row] for m in g2_algebra_basis().matrices]
    coeffs = [rng.uniform(-1.0, 1.0) for _ in flat]
    return matrix_exp(_split_rows(_row_sum(coeffs, flat, 0.0)))
