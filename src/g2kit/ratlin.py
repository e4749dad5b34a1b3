"""Small dense linear algebra kernel.

Two lanes that never mix.  The exact lane takes rational matrices (ints and
fractions.Fraction, no numpy anywhere in that path), scales each row to
integers by the lcm of its denominators and runs one routine per question
on Python ints.  The package's one exact Gauss-Jordan (_rref_ints, a gcd
pass per updated row) gives the inverse, the kernel and the span: inv_int,
nullspace_int and span_int read its rows as int rows over one den, with no
Fraction.  One fraction-free forward pass (_bareiss, Bareiss's
exact-division elimination, Math. Comp. 22 (1968) 565-578) gives the rank,
the determinant and definiteness: rank_exact counts its pivots, det_exact
signs its last pivot, and definite_det reads Sylvester's criterion off its
pivots when it takes no row out of order.  The float lane takes det as the
signed product of partial-pivoting pivots in pure Python (det_float, exact
when the pivots are, as for phi0's contraction matrix 6 I) and defers rank,
kernel and span to numpy's SVD, whose rank decisions use the singular value
cutoff context.FLOAT_RANK_CUTOFF of the tolerance ladder.  Callers pick a
lane through Context.det / definite_det / scaled_inverse (read by inv) /
rank / scaled_nullspace (read by nullspace) / scaled_span; matvec is the
package's one matrix-vector product, and Context.eigenvalue runs the eigen
check of both lanes on it.  Matrices are lists/tuples of rows; vectors are
flat sequences.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

from .context import FLOAT_RANK_CUTOFF, np
from .errors import G2KitError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(rows, v, zero=0) -> list:
    """rows . v, skipping v's zeros, each sum started at zero: ints for
    Context.scaled rows in the exact lane.  One itemgetter picks a row's
    entries at v's nonzero positions."""
    nonzero = [q for q, c in enumerate(v) if c]
    xs = [v[q] for q in nonzero]
    get = itemgetter(*nonzero) if len(nonzero) > 1 else lambda row: [row[q] for q in nonzero]
    return [sum(map(mul, get(row), xs), zero) for row in rows]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_max_abs(a):
    return max((abs(x) for row in a for x in row), default=0)


def _int_row(row):
    """(row times d, d) for d the lcm of the row's denominators: a list of ints."""
    den = 1
    for x in row:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive(row):
    """An int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def primitive_int_row(row):
    """A positive multiple of a rational row with coprime int entries (a zero row stays zero)."""
    return _primitive(_int_row(row)[0])


def int_rows(m):
    """(int rows, d) with m = rows / d, for d the lcm of all of m's denominators."""
    ints, den = _int_row([x for row in m for x in row])
    it = iter(ints)
    return [[next(it) for _ in row] for row in m], den


def _rref_ints(m):
    """(rows, pivots): the reduced row echelon form of m on int rows.  Each
    row is first scaled to coprime integers; elimination then runs on ints
    (new = pivot * row - factor * pivot_row, divided by its gcd).  Row r <
    len(pivots) has its nonzero pivot rows[r][pivots[r]] and zeros in the
    other pivot columns; the rows below are zero."""
    rows = [primitive_int_row(row) for row in m]
    if not rows:
        return rows, []
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        pivot = None
        for i in range(r, nr):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(nr):
            row = rows[i]
            f = row[c]
            if f and i != r:
                rows[i] = _primitive([pv * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _bareiss(rows):
    """Yield (k, pivot) for each pivot of one fraction-free forward pass
    over int rows (Bareiss, Math. Comp. 22 (1968) 565-578).

    Column by column, the first working row with a nonzero entry there is
    the pivot row; k is its position among the working rows, so taking it
    out costs the sign (-1)^k.  The other rows become (pivot * row -
    factor * pivot_row) // previous pivot, an exact division, and a row
    that becomes zero is dropped: it only shows rank deficiency.  A column
    with no nonzero entry is skipped.  With k = 0 at every step and no
    column skipped, the pivots are the leading principal minors."""
    rows, prev, c = list(rows), 1, 0
    while rows and c < len(rows[0]):
        k = next((i for i, row in enumerate(rows) if row[c]), None)
        if k is None:
            c += 1
            continue
        top = rows.pop(k)
        pv = top[c]
        yield k, pv
        c += 1
        tail, rest = top[c:], []
        for row in rows:
            f = row[c - 1]
            row = [(pv * x - f * y) // prev for x, y in zip(row[c:], tail)]
            if any(row):
                rest.append(row)
        rows, prev, c = rest, pv, 0


def rank_exact(m) -> int:
    """Rank: the number of pivots of one Bareiss pass (_bareiss) over the
    rows scaled to coprime ints.  No back substitution and no Fraction."""
    return sum(1 for _ in _bareiss(map(primitive_int_row, m)))


def det_exact(m):
    """Determinant by one Bareiss pass (_bareiss) on integer-scaled rows.

    Row i is scaled by the lcm d_i of its denominators, so the result is
    det(integer matrix) / prod(d_i): the last pivot, signed by the pivot
    rows' positions k, over the product; 0 with fewer pivots than rows.
    """
    den, a = 1, []
    for row in m:
        ints, d = _int_row(row)
        a.append(ints)
        den *= d
    n, sign, pv = 0, 1, 1
    for n, (k, pv) in enumerate(_bareiss(a), 1):
        if k % 2:
            sign = -sign
    return Fraction(sign * pv, den) if n == len(a) else _ZERO


def definite_det(m):
    """(det(m), sign) for a symmetric int matrix m with sign * m positive
    definite, sign = 1 or -1, else None.  One Bareiss pass (_bareiss) that
    takes every pivot from the first working row: its k-th pivot is then
    the k-th leading principal minor M_k, so m is positive definite when
    every M_k > 0 and negative definite when every (-1)^k M_k > 0
    (Sylvester's criterion); the pass stops at the first pivot off that
    pattern, and with a full count of pivots its last pivot is det(m)."""
    n, sign = 0, 1 if m[0][0] > 0 else -1
    want = sign
    for n, (k, pv) in enumerate(_bareiss(m), 1):
        if k or pv * want <= 0:
            return None
        want *= sign
    return (pv, sign) if n == len(m) else None


def inv_int(m):
    """(rows, den) with m^-1 = rows / den, int rows over one positive den,
    for an invertible square rational matrix m: one int rref of [m | I]
    (_rref_ints), no Fraction.  G2KitError("matrix is singular") otherwise."""
    n = len(m)
    rows, pivots = _rref_ints([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise G2KitError("matrix is singular")
    den = lcm(*(row[r] for r, row in enumerate(rows)))
    return [[x * (den // row[r]) for x in row[n:]] for r, row in enumerate(rows)], den


def nullspace_int(m):
    """(rows, den): a basis of the exact kernel, one vector per free column,
    as int rows over one positive den, with no Fraction.  The int rref
    (_rref_ints) gives pivot row r its pivot p_r at column c_r, and
    the kernel vector of free column f has 1 at f and -x / p_r at c_r for
    the row's entry x at f; den is the lcm of the pivots."""
    nc = len(m[0]) if m else 0
    rows, pivots = _rref_ints(m)
    den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    scaled = [(c, rows[r], den // rows[r][c]) for r, c in enumerate(pivots)]
    taken = set(pivots)
    basis = []
    for fc in range(nc):
        if fc in taken:
            continue
        v = [0] * nc
        v[fc] = den
        for c, row, k in scaled:
            v[c] = -row[fc] * k
        basis.append(v)
    return basis, den


def span_int(m):
    """(rows, den): a basis of the row span as int rows over one positive
    den, with no Fraction, in nullspace_int's normalization: the int rref
    (_rref_ints) taken from the right (columns reversed, reduced, reversed
    back), rows ordered by their last nonzero column, each scaled so that
    its entry there is den; den is the lcm of the pivots.  Those columns
    are the free columns of any matrix whose kernel is this span, so rows /
    den equals the exact Context.nullspace applied twice."""
    rows, pivots = _rref_ints([row[::-1] for row in m])
    den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    return [[x * (den // row[c]) for x in reversed(row)]
            for row, c in reversed(list(zip(rows, pivots)))], den


def _np(m):
    return np.asarray(m, dtype=float)


def _svd_rank(sv) -> int:
    """The number of singular values above FLOAT_RANK_CUTOFF times the largest."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > FLOAT_RANK_CUTOFF * sv[0]))


def det_float(m) -> float:
    """Determinant of a small float matrix (callers pass at most 7 x 7) as
    the signed product of the pivots of Gaussian elimination with partial
    pivoting, in pure Python.  Products of exact pivots stay exact, so
    det(6 I) is 6.0 ** 7 and a signed permutation gives +-1.0; numpy's
    det, exp of the summed log pivots, gives 279935.99999999953 for the
    first.  A zero pivot column gives 0.0."""
    a = [[float(x) for x in row] for row in m]
    det = 1.0
    while a:
        col = [abs(row[0]) for row in a]
        p = col.index(max(col))
        top = a[p]
        pv = top[0]
        if pv == 0.0:
            return 0.0
        if p:
            a[p] = a[0]
            det = -det
        det *= pv
        rest, top = [], top[1:]
        for row in a[1:]:
            f = row[0] / pv
            rest.append([x - f * y for x, y in zip(row[1:], top)] if f else row[1:])
        a = rest
    return det


def rank_float(m) -> int:
    arr = _np(m)
    if arr.size == 0:
        return 0
    return _svd_rank(np.linalg.svd(arr, compute_uv=False))


def nullspace_float(m):
    """Orthonormal kernel basis (list of vectors) via SVD."""
    arr = _np(m)
    if arr.size == 0:
        return []
    _, sv, vt = np.linalg.svd(arr)
    return vt[_svd_rank(sv):].tolist()


def span_float(m):
    """Orthonormal basis (list of vectors) of the row span via SVD."""
    arr = _np(m)
    if arr.size == 0:
        return []
    _, sv, vt = np.linalg.svd(arr, full_matrices=False)
    return vt[:_svd_rank(sv)].tolist()
