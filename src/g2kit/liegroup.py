"""Lie-theoretic layer over the standard inner product.

Membership tests for the orthogonal group and for the stabilizer of the
standard 3-form, the stabilizer's 14-dimensional Lie algebra realized as the
matching 2-form eigenspace, normalizer computations inside so(7), and the
conjugation test deciding whether a frame rotation moves a set of holonomy
generators into the stabilizer, together with the first-order (tangent)
dimension count of the solution set modulo the stabilizer.

Everything here targets the standard metric: algebra elements are plain
antisymmetric matrices.  Float rank/kernel decisions use the package cutoff
1e-8 * sigma_max; exact inputs run through the rational kernel instead.

The exact lane of the normalizer and the coset count works on integers: a
subspace of so(7) is tested through one integer annihilator (primitive int
rows spanning the vectors orthogonal to it in the 21 upper-triangle
coordinates), and brackets of coordinate vectors come from a sparse so(7)
structure-constant table.  scipy is imported on the first matrix_exp call,
so importing the package does not load it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import ratlin
from .errors import (
    BracketClosureError,
    DecompositionError,
    ExactModeError,
    FrameError,
    HolonomyError,
)
from .exterior import DIM, KForm, pullback
from .g2core import G2Structure, infinitesimal_action, phi0, standard_structure
from .sampling import float_antisymmetric

_SO7_TOL = 1e-10


def _rows(m):
    rows = [list(r) for r in m]
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError("expected a 7x7 matrix")
    return rows


def _exact_rows(rows) -> bool:
    return ratlin.is_exact_values([x for r in rows for x in r])


def is_so7(g, tol: float = _SO7_TOL) -> bool:
    """Orthogonal with determinant one."""
    rows = _rows(g)
    if _exact_rows(rows):
        gtg = ratlin.matmul(ratlin.transpose(rows), rows)
        return ratlin.mat_eq(gtg, ratlin.identity(DIM)) and ratlin.det_exact(rows) == 1
    arr = np.asarray(rows, dtype=float)
    ortho = float(np.max(np.abs(arr.T @ arr - np.eye(DIM))))
    return ortho <= tol and abs(float(np.linalg.det(arr)) - 1.0) <= tol


def act_on_form(g, a: KForm) -> KForm:
    """The group action g . a = pullback of a by g^{-1}."""
    rows = _rows(g)
    if _exact_rows(rows):
        inv = ratlin.inv_exact(rows)
    else:
        inv = np.linalg.inv(np.asarray(rows, dtype=float)).tolist()
    return pullback(a, inv)


def is_g2(g, tol: float = _SO7_TOL) -> bool:
    """True when g is orthogonal, unimodular, and its action fixes the standard 3-form."""
    rows = _rows(g)
    if not is_so7(rows, tol):
        return False
    exact = _exact_rows(rows)
    moved = act_on_form(rows, phi0(exact))
    if exact:
        return moved == phi0(True)
    return moved.isclose(phi0(False), tol)


def matrix_exp(a):
    """Matrix exponential (float only; exact mode has no rational exponential)."""
    rows = _rows(a)
    if _exact_rows(rows):
        raise ExactModeError("matrix_exp needs float input; the exponential leaves the rationals")
    from scipy.linalg import expm

    out = expm(np.asarray(rows, dtype=float))
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
            rows = _rows(m)
            exact = _exact_rows(rows)
            for i in range(DIM):
                for j in range(DIM):
                    v = rows[i][j] + rows[j][i]
                    if exact:
                        if v != 0:
                            raise ValueError("basis matrices must be antisymmetric")
                    elif abs(v) > 1e-9:
                        raise ValueError("basis matrices must be antisymmetric")
        if mats:
            vecs = [_vec_so(_rows(m)) for m in mats]
            exact = all(ratlin.is_exact_values(v) for v in vecs)
            if ratlin.matrix_rank(vecs, exact) != len(mats):
                raise ValueError("basis matrices must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def is_exact(self) -> bool:
        return all(_exact_rows(_rows(m)) for m in self.matrices)


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


def _annihilator(vecs):
    """Primitive integer rows spanning the vectors orthogonal to every vec
    (the standard dot product on the 21 coordinates): w is in the span of
    vecs exactly when every row dotted with w is zero."""
    if not vecs:
        return [[int(r == c) for c in range(len(_UPPER))] for r in range(len(_UPPER))]
    return [ratlin.primitive_int_row(v) for v in ratlin.nullspace_exact(vecs)]


def so7_basis(exact: bool = True) -> SubalgebraBasis:
    """The 21 antisymmetric units E_ij = e_i e_j^T - e_j e_i^T, i < j."""
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    mats = []
    for (i, j) in _UPPER:
        m = [[zero] * DIM for _ in range(DIM)]
        m[i][j] = one
        m[j][i] = -one
        mats.append(tuple(tuple(r) for r in m))
    return SubalgebraBasis(tuple(mats))


def two_form_to_matrix(beta: KForm):
    """The antisymmetric matrix B with B_ij = beta(e_i, e_j)."""
    exact = beta.is_exact
    zero = Fraction(0) if exact else 0.0
    rows = [[zero] * DIM for _ in range(DIM)]
    for (i, j), c in beta.entries():
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = -c
    return rows


def matrix_to_two_form(rows) -> KForm:
    rows = _rows(rows)
    return KForm.from_entries(
        2,
        {(i + 1, j + 1): rows[i][j] for (i, j) in _UPPER},
        exact=_exact_rows(rows),
    )


def g2_algebra_basis(s: G2Structure | None = None) -> SubalgebraBasis:
    """Basis of the stabilizer algebra: the 14-dimensional eigenspace of the
    structure's 2-form operator, reinterpreted as antisymmetric matrices.

    Requires the structure's metric to be Euclidean (so(7) is taken with the
    standard inner product here); each basis element is verified to kill phi
    under the infinitesimal action.
    """
    if s is None:
        s = standard_structure("exact")
    if not s.metric.is_euclidean_within(1e-12):
        raise FrameError("algebra extraction is defined for Euclidean-metric structures")
    mats = []
    for beta in s.basis2_14:
        m = two_form_to_matrix(beta)
        killed = infinitesimal_action(m, s)
        if s.ctx.is_exact:
            if killed.max_abs() != 0:
                raise DecompositionError("eigenspace element does not annihilate phi")
        elif float(killed.max_abs()) > 1e-8:
            raise DecompositionError("eigenspace element does not annihilate phi")
        mats.append(tuple(tuple(r) for r in m))
    return SubalgebraBasis(tuple(mats))


class _SpanProjector:
    """Least-squares projector onto the span of float vectors."""

    def __init__(self, vecs):
        self.vecs = [list(v) for v in vecs]
        self.empty = not self.vecs
        if not self.empty:
            self._pinv = np.linalg.pinv(np.asarray(self.vecs, dtype=float).T)

    def residual(self, v):
        """v minus its projection onto the span."""
        if self.empty:
            return list(v)
        coords = self._pinv @ np.asarray(v, dtype=float)
        proj = np.asarray(self.vecs, dtype=float).T @ coords
        return (np.asarray(v, dtype=float) - proj).tolist()


def _normalizer_kernel_exact(ambient: SubalgebraBasis, sub: SubalgebraBasis):
    """Kernel of A -> (annihilator . [A, S_b])_b over the ambient coordinates,
    or None when either basis is empty.  Sub vectors are scaled to primitive
    ints and the ambient ones by one common denominator; neither moves the
    kernel, so the rref (and the basis) equal those of the projector residuals."""
    sub_vecs = [ratlin.primitive_int_row(_vec_so(_rows(m))) for m in sub.matrices]
    ann = _annihilator(sub_vecs)
    for i, a in enumerate(sub_vecs):
        for b in sub_vecs[i + 1:]:
            if any(ratlin.matvec(ann, _bracket_vec(a, b))):
                raise BracketClosureError("sub basis is not closed under the bracket")
    if not ambient.matrices or not sub_vecs:
        return None
    amb_vecs, _ = ratlin.int_rows([_vec_so(_rows(m)) for m in ambient.matrices])
    constraint = []
    for svec in sub_vecs:
        cols = [ratlin.matvec(ann, _bracket_vec(avec, svec)) for avec in amb_vecs]
        constraint.extend(list(row) for row in zip(*cols))
    return ratlin.nullspace_exact(constraint or [[0] * len(amb_vecs)])


def _normalizer_kernel_float(ambient: SubalgebraBasis, sub: SubalgebraBasis, tol: float):
    sub_vecs = [_vec_so(_rows(m)) for m in sub.matrices]
    proj = _SpanProjector(sub_vecs)
    for i, a in enumerate(sub.matrices):
        for b in sub.matrices[i + 1:]:
            res = proj.residual(_vec_so(bracket(_rows(a), _rows(b))))
            if max(abs(r) for r in res) > tol:
                raise BracketClosureError("sub basis is not closed under the bracket")
    columns = []
    for e in ambient.matrices:
        col = []
        for smat in sub.matrices:
            col.extend(proj.residual(_vec_so(bracket(_rows(e), _rows(smat)))))
        columns.append(col)
    if not columns or not columns[0]:
        return None
    constraint = [[columns[a][r] for a in range(len(columns))] for r in range(len(columns[0]))]
    return ratlin.nullspace_float(constraint, tol)


def lie_normalizer(ambient: SubalgebraBasis, sub: SubalgebraBasis, tol: float = 1e-8) -> SubalgebraBasis:
    """Elements A of the ambient span with [A, S] in the sub span for every
    basis element S.  The sub basis must be bracket-closed (BracketClosureError)."""
    exact = ambient.is_exact() and sub.is_exact()
    if exact:
        null = _normalizer_kernel_exact(ambient, sub)
    else:
        null = _normalizer_kernel_float(ambient, sub, tol)
    if null is None:
        return ambient
    amb_mats = [_rows(m) for m in ambient.matrices]
    zero = Fraction(0) if exact else 0.0
    mats = []
    for coeffs in null:
        acc = [[zero] * DIM for _ in range(DIM)]
        for c, e in zip(coeffs, amb_mats):
            if c:
                for i in range(DIM):
                    row = e[i]
                    acc_i = acc[i]
                    for j in range(DIM):
                        if row[j]:
                            acc_i[j] += c * row[j]
        mats.append(tuple(tuple(r) for r in acc))
    return SubalgebraBasis(tuple(mats))


@dataclass(frozen=True)
class HolonomySpec:
    """A finite list of orthogonal generators standing in for a holonomy group."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(tuple(x for x in row) for row in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not is_so7(g, 1e-8):
                raise HolonomyError("holonomy generators must be special orthogonal")

    @classmethod
    def trivial(cls) -> "HolonomySpec":
        return cls(())

    @property
    def count(self) -> int:
        return len(self.generators)


def nf_member(g, h: HolonomySpec, tol: float = _SO7_TOL) -> bool:
    """Does conjugating every holonomy generator by g land in the stabilizer?

    g must itself be special orthogonal (HolonomyError otherwise); the test
    is is_g2(g^-1 h_i g) for every generator.
    """
    rows = _rows(g)
    if not is_so7(rows, max(tol, 1e-8)):
        raise HolonomyError("frame rotation must be special orthogonal")
    if _exact_rows(rows):
        ginv = ratlin.inv_exact(rows)
    else:
        ginv = ratlin.transpose(rows)
    for gen in h.generators:
        conj = ratlin.matmul(ratlin.matmul(ginv, _rows(gen)), rows)
        if not is_g2(conj, tol):
            return False
    return True


def coset_tangent_dim(h: HolonomySpec, s: G2Structure | None = None, tol: float = 1e-8) -> int:
    """First-order dimension of the admissible rotations modulo the stabilizer.

    Linearizes the conjugation condition at the identity: counts antisymmetric
    A with A - h^-1 A h in the stabilizer algebra for every generator, then
    subtracts the stabilizer's dimension 14.  Generators must already satisfy
    is_g2 (the identity must be admissible), else HolonomyError.
    """
    if s is None:
        s = standard_structure("exact")
    for gen in h.generators:
        if not is_g2(gen, max(tol, 1e-8)):
            raise HolonomyError("generators must fix the 3-form for the identity coset")
    g2b = g2_algebra_basis(s)
    if h.count == 0:
        return len(_UPPER) - g2b.dim
    exact = s.ctx.is_exact and all(_exact_rows(_rows(g)) for g in h.generators)
    nullity = _coset_nullity_exact(h, g2b) if exact else _coset_nullity_float(h, g2b, tol)
    return nullity - g2b.dim


def _coset_nullity_exact(h: HolonomySpec, g2b: SubalgebraBasis) -> int:
    """Nullity of A -> (annihilator . (A - g^-1 A g))_g over the E_ij coordinates.

    The generators are exactly orthogonal (is_g2 checked it), so g^-1 = g^T
    and g^T E_ij g = r_i r_j^T - r_j r_i^T for the rows r of g.  With g = G/d
    for an int matrix G, column E_ij is scaled by d^2, which keeps the rank."""
    ann = _annihilator([_vec_so(_rows(m)) for m in g2b.matrices])
    constraint = []
    for gen in h.generators:
        grows, d = ratlin.int_rows(_rows(gen))
        cols = []
        for a, (i, j) in enumerate(_UPPER):
            gi, gj = grows[i], grows[j]
            moved = [gi[p] * gj[q] - gj[p] * gi[q] for (p, q) in _UPPER]
            moved[a] -= d * d
            cols.append(ratlin.matvec(ann, moved))
        constraint.extend(list(row) for row in zip(*cols))
    return len(_UPPER) - ratlin.rank_exact(constraint)


def _coset_nullity_float(h: HolonomySpec, g2b: SubalgebraBasis, tol: float) -> int:
    g2_vecs = [[float(x) for x in _vec_so(_rows(m))] for m in g2b.matrices]
    proj = _SpanProjector(g2_vecs)
    columns = []
    for e in so7_basis(False).matrices:
        erows = _rows(e)
        col = []
        for gen in h.generators:
            grows = [[float(x) for x in row] for row in _rows(gen)]
            ginv = ratlin.transpose(grows)
            moved = ratlin.matmul(ratlin.matmul(ginv, erows), grows)
            diff = ratlin.mat_sub(erows, moved)
            sym_cleanup = [
                [(diff[i][j] - diff[j][i]) / 2 for j in range(DIM)] for i in range(DIM)
            ]
            col.extend(proj.residual(_vec_so(sym_cleanup)))
        columns.append(col)
    constraint = [[columns[a][r] for a in range(len(columns))] for r in range(len(columns[0]))]
    return len(ratlin.nullspace_float(constraint, tol))


def sample_so7(rng: random.Random):
    """Random special orthogonal matrix via the exponential (float)."""
    return matrix_exp(float_antisymmetric(rng))


def sample_g2(rng: random.Random, s: G2Structure | None = None):
    """Random stabilizer element: exponential of a random algebra combination (float)."""
    basis = g2_algebra_basis(s).matrices
    acc = [[0.0] * DIM for _ in range(DIM)]
    for m in basis:
        c = rng.uniform(-1.0, 1.0)
        for i in range(DIM):
            for j in range(DIM):
                acc[i][j] += c * float(m[i][j])
    return matrix_exp(acc)
