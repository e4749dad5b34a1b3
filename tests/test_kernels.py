"""Integer kernels of the exact lane against plain reference definitions.

- ratlin's fraction-free det/nullspace/inv against Gauss-Jordan over
  Fractions (ref_rref), kept here as the reference, the forward-only rank
  against the rref pivot count it replaced (ref_rank_exact), the int
  kernel (nullspace_int, behind Context.nullspace) against the same
  Gauss-Jordan kernel, and the int span (span_int, behind
  Context.scaled_span) against the Fraction span it replaced (ref_span);
  ref_solve, the Context.solve the odot_inverse, recover and decompose2
  references were written against; Context.inv and Context.nullspace
  against the Fraction wrappers and numpy calls they replaced (ref_inv_exact,
  ref_nullspace_exact, ref_inv_float), and ratlin.matvec against the dense
  product (ref_matvec);
- the cubic table for B(phi) against the wedge chain that defines it;
- the closed forms used at construction: frame Gram = 4 g, the symmetric
  action assembled from g^-1;
- the structure tables against the chains they replace: T from the minors
  of g against 21 wedge + star columns, odot_inverse's dB_phi table against its
  identity and against the 35x28 solve it replaced, and the counts of stars,
  Gram degrees and eliminations these paths run;
- the lazy T table, split and frame against the eager build of construction
  they replaced (ref_eager_tables);
- the 2-form splitting read off phi (the span of the contractions
  C = e_i . phi and the kernel of C (T - lambda14), with T checked on their
  generators) against the earlier exact lane (trace candidates kept by
  (T - lambda7)(T - lambda14) = 0) and float lane (numpy eigvals,
  clustered); Context.span against the double kernel; lambda7, lambda14,
  basis2_14 and odot_inverse on ints against the Fraction path they
  replaced (ref_split_two_forms, ref_odot_inverse_fractions);
- decompose3 against eight quadratic forms over the exact Gram and
  against the wedge pairing by wedges (ref_decompose3,
  ref_wedge_decompose3), frame_coordinates' wedge pairing against the
  Gram route it replaced (ref_frame_coordinates), the frame forms against
  interior contractions, and form_inner and the star of degrees 4 and up
  (through the minors of g) against the quadratic form and the star chain
  through the Fraction-entry Gram they replaced;
- the k-form Gram table (int rows, den): symmetric in both lanes, entries
  its minor determinants;
- compound and pullback against the per-minor determinants they replaced,
  kept here as ref_det_small and ref_pullback;
- odot, odot_endo, infinitesimal_action, Bryant's u/s tables and interior,
  which read exterior's one contraction table, against the loops they
  replaced: the three-slot loop over phi's tensor (ref_odot_scaled,
  ref_full_tensor) and one interior call per g^-1 row
  (ref_ginv_contractions);
- wedge, interior, exterior._row_sum and KForm's scalar arithmetic, which run
  on the forms' stored (num, den) pairs, against the loops over Fraction
  or float coefficients they replaced, kept here as ref_wedge,
  ref_interior, ref_combine, ref_add, ref_sub, ref_neg, ref_mul,
  ref_truediv and ref_max_abs;
- the exact Metric's (int rows, den) pair: its one Bareiss pass against
  the seven Fraction determinants of Sylvester's criterion
  (ref_leading_minors_positive), and is_euclidean, the metric comparison
  of G2Structure.check_metric and bryant._recover_c_positive against the
  loops over the metric's rows they replaced (ref_metric_is_euclidean, ref_metric_matches,
  ref_recover_c_positive).

Properties over drawn frames build their exact structures through
frame_structure, cached per frame, so a failing property shrinks fast.
"""
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from g2kit import bryant, exterior, g2core, ratlin
from g2kit.context import (
    EXACT,
    FLOAT,
    FLOAT_RANK_CUTOFF,
    RECOVERY_TOL,
    Context,
    lane_of,
    rational_nth_root,
)
from g2kit.errors import DecompositionError, G2KitError, MetricError, MetricMismatchError
from g2kit.exterior import (
    BASIS,
    DIM,
    NEGATIVE,
    NK,
    POSITIVE,
    KForm,
    Metric,
    _comp_table,
    _lambda_gram,
    _metric_det,
    _metric_inverse,
    _sqrt_det,
    basis_vector,
    coerce_form,
    compound,
    form_inner,
    hodge_star,
    interior,
    pullback,
    sharp,
    top_coeff,
    wedge,
)
from g2kit.g2core import (
    _PAIRS,
    G2Structure,
    SymTensor,
    _contraction_matrix,
    _contractions,
    _split_two_forms,
    decompose2,
    decompose3,
    frame_coordinates,
    infinitesimal_action,
    metric_from_phi,
    odot,
    odot_endo,
    odot_inverse,
    phi0,
    standard_structure,
    symmetric_basis,
)
from g2kit.models import model_structure
from g2kit.sampling import rational_kform

# -- reference Gauss-Jordan over Fractions ----------------------------------


def ref_rref(m):
    rows = [[Fraction(x) for x in row] for row in m]
    if not rows:
        return rows, []
    nr, nc = len(rows), len(rows[0])
    pivots, r = [], 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def ref_det(m):
    rows = [[Fraction(x) for x in row] for row in m]
    n, det = len(rows), Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def ref_nullspace(m):
    nc = len(m[0]) if m else 0
    red, pivots = ref_rref(m)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis


RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def matrices(draw, square=False):
    """Rational matrices, some rows zero or combinations of earlier rows."""
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 7))
    rows = [[draw(RATIONALS) for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combination")))
        if kind == "zero":
            rows[i] = [Fraction(0)] * nc
        elif kind == "combination" and i:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(RATIONALS), draw(RATIONALS)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@given(matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_det_matches_reference(m):
    det = ratlin.det_exact(m)
    assert isinstance(det, Fraction) and det == ref_det(m)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_reference(m):
    assert EXACT.nullspace(m) == ref_nullspace(m)


@given(matrices())
@example([])
@example([[0, 0, 0]])
@example([[2, -4, 6], [-1, 0, 3]])
@example([[Fraction(1, 2), 3, 0, 1], [0, 0, 1, 5], [1, 6, 0, 2]])
@settings(max_examples=200, deadline=None)
def test_int_nullspace_equals_the_reference_kernel(m):
    """The int kernel's rows over its one positive den are the Gauss-Jordan
    reference's vectors literally (ref_nullspace, which the exact
    Context.nullspace is tested against too): on full-rank, rank-deficient and
    zero rows (matrices()) and on the empty matrix; Context.scaled_nullspace
    gives the same pair in exact mode and the SVD basis over 1 in float
    mode."""
    rows, den = ratlin.nullspace_int(m)
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fraction(x, den) for x in row] for row in rows] == ref_nullspace(m)
    assert EXACT.scaled_nullspace(m) == (rows, den)
    fm = [[float(x) for x in row] for row in m]
    assert FLOAT.scaled_nullspace(fm) == (ratlin.nullspace_float(fm), 1)


def ref_span(m):
    """The Fraction span Context.span returned before scaled_span: the
    Gauss-Jordan reference taken from the right (columns reversed,
    reduced, reversed back), rows from the last pivot up."""
    red, pivots = ref_rref([row[::-1] for row in m])
    return [row[::-1] for row in reversed(red[:len(pivots)])]


@given(matrices())
@example([])
@example([[0, 0, 0], [1, 2, 3]])
@example([[-3, 6, 0], [0, 0, -2]])
@example([[Fraction(1, 2), 3, 0, 1], [0, 0, Fraction(-5, 3), 5], [1, 6, 0, 2]])
@settings(max_examples=200, deadline=None)
def test_int_span_equals_the_fraction_span(m):
    """span_int's rows over its one positive den are the Fraction span they
    replaced (ref_span) literally, as Fractions: on full-rank,
    rank-deficient and zero rows (matrices()), the empty matrix, negative
    pivots and Fraction rows; Context.scaled_span gives the same pair in
    exact mode and the SVD basis over 1 in float mode."""
    rows, den = ratlin.span_int(m)
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fraction(x, den) for x in row] for row in rows] == ref_span(m)
    assert EXACT.scaled_span(m) == (rows, den)
    fm = [[float(x) for x in row] for row in m]
    assert FLOAT.scaled_span(fm) == (ratlin.span_float(fm), 1)


def ref_solve(ctx, a, b):
    """(x, residual) for a x = b, as the removed Context.solve gave it: in
    exact mode a solution off the Gauss-Jordan reference (ref_rref) with
    free variables 0 and residual 0, and G2KitError for an inconsistent
    system; in float mode numpy's least squares solution and its max-abs
    residual."""
    if ctx.is_exact:
        nc = len(a[0]) if a else 0
        red, pivots = ref_rref([list(row) + [bv] for row, bv in zip(a, b)])
        if nc in pivots:
            raise G2KitError("inconsistent linear system")
        x = [Fraction(0)] * nc
        for r, c in enumerate(pivots):
            x[c] = red[r][nc]
        return x, Fraction(0)
    arr, rhs = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, *_ = np.linalg.lstsq(arr, rhs, rcond=None)
    resid = float(np.linalg.norm(arr @ x - rhs, ord=np.inf)) if arr.size else 0.0
    return x.tolist(), resid


@given(matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_inv_matches_reference(m):
    n = len(m)
    if ref_det(m) == 0:
        with pytest.raises(G2KitError):
            EXACT.inv(m)
        return
    red, _ = ref_rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)])
    assert EXACT.inv(m) == [row[n:] for row in red]


def ref_inv_exact(m):
    """The Fraction wrapper the exact Context.inv replaced: inv_int's rows
    over its den, one Fraction per entry."""
    rows, den = ratlin.inv_int(m)
    return [[Fraction(x, den) for x in row] for row in rows]


def ref_nullspace_exact(m):
    """The Fraction wrapper the exact Context.nullspace replaced."""
    rows, den = ratlin.nullspace_int(m)
    return [[Fraction(x, den) if x else Fraction(0) for x in row] for row in rows]


def ref_inv_float(m):
    """The float Context.inv before it read scaled_inverse: numpy's inverse."""
    try:
        return np.linalg.inv(np.asarray(m, dtype=float)).tolist()
    except np.linalg.LinAlgError as exc:
        raise G2KitError("matrix is singular") from exc


def ref_matvec(rows, v, zero):
    """The dense product ratlin.matvec replaced: every term, zeros of v included."""
    return [sum((x * y for x, y in zip(row, v)), zero) for row in rows]


def _outcome(f, m):
    """f(m), or the message of the G2KitError it raises."""
    try:
        return f(m)
    except G2KitError as exc:
        return "raises: " + str(exc)


@st.composite
def lined_matrices(draw, square=False):
    """matrices() with up to two columns zeroed as well."""
    m = draw(matrices(square))
    for c in draw(st.sets(st.integers(0, len(m[0]) - 1), max_size=2)):
        for row in m:
            row[c] = Fraction(0)
    return m


@st.composite
def kernel_cases(draw):
    """(square, m, v, fm, fv): a square and a general lined_matrices(), a
    vector v for m with zero entries, and float copies fm, fv of m and v
    with each zero drawn as 0.0 or -0.0."""
    sq, m = draw(lined_matrices(square=True)), draw(lined_matrices())
    v = [draw(st.one_of(st.just(Fraction(0)), RATIONALS)) for _ in m[0]]

    def signed(xs):
        return [-0.0 if x == 0 and draw(st.booleans()) else float(x) for x in xs]

    return sq, m, v, [signed(row) for row in m], signed(v)


@given(kernel_cases())
@example(([[0]], [[0, 0]], [0, 0], [[-0.0, 0.0]], [-0.0, 0.0]))
@example(([[1, 2], [2, 4]], [[1, -1], [2, 0]], [0, 3], [[1.0, -1.0], [2.0, -0.0]], [-0.0, 3.0]))
@settings(max_examples=150, deadline=None)
def test_lane_views_and_matvec_match_the_kernels_they_replaced(case):
    """Context.inv and Context.nullspace, read off scaled_inverse and
    scaled_nullspace, equal the Fraction wrappers (exact, literally) and
    numpy's inverse and the SVD kernel (float, repr-identically) on
    matrices with zero rows and columns; a singular matrix raises
    G2KitError("matrix is singular") in exact mode and wherever numpy
    raises in float mode.  ratlin.matvec, which skips v's zeros, equals
    the dense sum from the lane's scaled zero, the sign of a zero result
    included."""
    sq, m, v, fm, fv = case
    fsq = [[float(x) for x in row] for row in sq]
    if ref_det(sq) == 0:
        with pytest.raises(G2KitError, match="matrix is singular"):
            EXACT.inv(sq)
    assert _outcome(EXACT.inv, sq) == _outcome(ref_inv_exact, sq)
    assert repr(_outcome(FLOAT.inv, fsq)) == repr(_outcome(ref_inv_float, fsq))
    got = EXACT.nullspace(m)
    assert got == ref_nullspace_exact(m) and repr(got) == repr(ref_nullspace_exact(m))
    assert repr(FLOAT.nullspace(fm)) == repr(ratlin.nullspace_float(fm))
    rows, _ = EXACT.scaled(m)
    (iv,), _ = EXACT.scaled([v])
    got = ratlin.matvec(rows, iv, EXACT.scaled_zero)
    assert got == ref_matvec(rows, iv, 0) and all(type(x) is int for x in got)
    assert repr(ratlin.matvec(fm, fv, FLOAT.scaled_zero)) == repr(ref_matvec(fm, fv, 0.0))


def ref_rank_exact(m) -> int:
    """The earlier rank_exact: the pivot count of the full reduced row echelon form."""
    return len(ref_rref(m)[1])


@st.composite
def rank_matrices(draw):
    """Rational matrices of any shape, the empty one and zero columns
    included, with zero rows, duplicate rows, multiples and combinations."""
    nr, nc = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rows = [[draw(RATIONALS) for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "duplicate", "combination")))
        if kind == "zero":
            rows[i] = [Fraction(0)] * nc
        elif i and kind != "keep":
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(RATIONALS), draw(RATIONALS)
            rows[i] = list(rows[j]) if kind == "duplicate" else [
                a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@given(rank_matrices())
@example([])
@example([[]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2], [1, 2], [2, 4]])
@example([[Fraction(1, 2), 3, 0, 1], [0, 0, 1, 5]])
@example([[1], [2], [0], [Fraction(-3, 7)]])
@settings(max_examples=300, deadline=None)
def test_rank_matches_the_rref_rank(m):
    """The forward-only rank equals the rref pivot count, on the matrix and
    its transpose (tall and wide shapes alike)."""
    assert ratlin.rank_exact(m) == ref_rank_exact(m)
    if m and m[0]:
        mt = [list(col) for col in zip(*m)]
        assert ratlin.rank_exact(mt) == ref_rank_exact(mt) == ref_rank_exact(m)


def test_kernels_on_empty_and_integer_input():
    assert EXACT.scaled_span([]) == ([], 1)
    assert ratlin.det_exact([]) == 1
    assert EXACT.nullspace([]) == []
    assert ratlin.det_exact([[2, -3], [4, 5]]) == 22
    assert EXACT.scaled_span([[0, 0], [0, -4]]) == ([[0, 1]], 1)


# -- B(phi): cubic table against the wedge chain ------------------------------


def wedge_chain_b(phi: KForm):
    contr = [interior(basis_vector(i, lane_of(phi.coeffs)), phi) for i in range(1, DIM + 1)]
    return [[top_coeff(wedge(wedge(contr[i], contr[j]), phi)) for j in range(DIM)]
            for i in range(DIM)]


THREE_FORMS = st.lists(RATIONALS, min_size=NK[3], max_size=NK[3]).map(lambda v: KForm(3, tuple(v)))


@given(THREE_FORMS)
@settings(max_examples=40, deadline=None)
def test_cubic_table_matches_wedge_chain_exact(phi):
    assert _contraction_matrix(phi.coeffs) == wedge_chain_b(phi)


@given(st.lists(st.floats(-3, 3), min_size=NK[3], max_size=NK[3]))
@settings(max_examples=60, deadline=None)
def test_cubic_table_matches_wedge_chain_float(coeffs):
    phi = KForm(3, tuple(float(x) for x in coeffs))
    got, want = np.asarray(_contraction_matrix(phi.coeffs)), np.asarray(wedge_chain_b(phi))
    assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


# -- closed forms at construction ----------------------------------------------


@st.composite
def rational_frames(draw):
    """Invertible rational 7x7 matrices, with a drawn sign of the determinant."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        a = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(DIM)]
             for _ in range(DIM)]
        det = ratlin.det_exact(a)
        if det:
            break
    if (det > 0) != draw(st.booleans()):
        a[0] = [-x for x in a[0]]
    return a


@lru_cache(maxsize=64)
def _frame_structure(frame):
    return G2Structure(pullback(phi0(), frame))


def frame_structure(a) -> G2Structure:
    """The exact structure of phi0 pulled back by the frame a, cached on the
    frame's tuple: shrinking a failing property replays hundreds of frames,
    many of them more than once."""
    return _frame_structure(tuple(map(tuple, a)))


# -- compound and pullback against the per-minor determinants they replaced ---


def ref_det_small(mat, ctx=EXACT):
    """Orders up to 3 by expansion in either lane, higher orders by Context.det."""
    k = len(mat)
    if k == 0:
        return ctx.one
    if k == 1:
        return mat[0][0]
    if k == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if k == 3:
        a, b, c = mat[0]
        d, e, f = mat[1]
        g, h, i = mat[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return ctx.det(mat)


def ref_pullback(a, mat):
    """Pullback with one ref_det_small call per (I, J) pair, as pullback
    computed it before it read the compound matrix."""
    k = a.degree
    if k == 0:
        return a
    rows = [list(r) for r in mat]
    lane = lane_of((*a.coeffs, *(x for r in rows for x in r)))
    nonzero = list(a.entries())
    out = []
    for I in BASIS[k]:
        tot = lane.zero
        for J, c in nonzero:
            minor = [[rows[j - 1][i - 1] for i in I] for j in J]
            tot += c * ref_det_small(minor, lane)
        out.append(tot)
    return KForm(k, tuple(out))


def ref_minors(rows, k, lane):
    return [[ref_det_small([[rows[i - 1][j - 1] for j in J] for i in I], lane) for J in BASIS[k]]
            for I in BASIS[k]]


def float_bits(values):
    return [(type(x), repr(x)) for x in values]


@given(rational_frames(), st.integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_compound_and_pullback_equal_minor_references(a, seed):
    """compound equals the reference minors literally at orders 1-7, on the
    frame and on its int scaling, and to the last bit on float entries at
    orders 1-3.  pullback equals ref_pullback literally in the exact lane in
    every degree, and bit for bit in the float lane in degrees up to 3 (from
    order 4 the reference's float minors are numpy determinants)."""
    rng = random.Random(seed)
    ints, _ = EXACT.scaled(a)
    af = [[float(x) for x in row] for row in a]
    for k in range(1, DIM + 1):
        assert compound(a, k) == ref_minors(a, k, EXACT)
        assert compound(ints, k) == ref_minors(ints, k, EXACT)
        if k <= 3:
            got, want = compound(af, k), ref_minors(af, k, FLOAT)
            assert [float_bits(row) for row in got] == [float_bits(row) for row in want]
    for k in range(DIM + 1):
        x = rational_kform(rng, k)
        assert pullback(x, a) == ref_pullback(x, a)
        if k <= 3:
            xf = x.as_float()
            assert float_bits(pullback(xf, af).coeffs) == float_bits(ref_pullback(xf, af).coeffs)


# -- odot_inverse by the 35x28 solve it replaced, kept as the reference --------


def ref_odot_symmetric_matrix(s):
    """35x28 matrix of the action on the 28 symmetric unit tensors.

    With u_i = (g^-1 e_i) . phi (the structure's star_dx_star_phi table),
    the unit tensor at (i, i) acts as dx_i ^ u_i and the pair (i, j) as
    dx_i ^ u_j + dx_j ^ u_i.
    """
    dx = [KForm(1, basis_vector(i, s.ctx)) for i in range(1, DIM + 1)]
    u = s.star_dx_star_phi
    cols = [wedge(dx[i], u[i]).coeffs for i in range(DIM)]
    cols += [(wedge(dx[i], u[j]) + wedge(dx[j], u[i])).coeffs
             for i in range(DIM) for j in range(i + 1, DIM)]
    return [list(row) for row in zip(*cols)]


def ref_odot_inverse(eta, s):
    """The symmetric preimage by a least squares / exact solve against
    ref_odot_symmetric_matrix, with an absolute 7-part test at ctx.tol."""
    ctx = s.ctx
    eta = coerce_form(eta, ctx)
    parts = decompose3(eta, s)
    if not ctx.is_zero(parts.p7.max_abs()):
        raise DecompositionError("3-form has a nonzero 7-part; not in the symmetric image")
    target = [a + b for a, b in zip(parts.p1.coeffs, parts.p27.coeffs)]
    x, resid = ref_solve(ctx, ref_odot_symmetric_matrix(s), target)
    if not ctx.is_zero(resid, ctx.tol * max(1.0, float(eta.max_abs()))):
        raise DecompositionError(f"float inversion residual {resid} above tolerance")
    coords = iter(x)
    rows = [[None] * DIM for _ in range(DIM)]
    for i in range(DIM):
        rows[i][i] = next(coords)
    for i in range(DIM):
        for j in range(i + 1, DIM):
            rows[i][j] = rows[j][i] = next(coords)
    return SymTensor(tuple(tuple(r) for r in rows))


def inverse_values(m):
    """g^-1 as lane scalars, read off the metric's one table (rows, den)."""
    rows, den = _metric_inverse(m)
    ratio = (EXACT if m.is_exact else FLOAT).ratio
    return [[ratio(x, den) for x in row] for row in rows]


def frame_inverse_gram(s):
    """The frame's inverse Gram matrix g^-1 / 4 as lane scalars: the
    frame's Gram matrix is 4 g."""
    return [[x / 4 for x in row] for row in inverse_values(s.metric)]


@given(rational_frames())
@settings(max_examples=8, deadline=None)
def test_frame_gram_and_symmetric_action(a):
    """Frame Gram = 4 g exactly; the reference symmetric action equals 28
    odot columns, and odot_inverse takes each column back to its tensor."""
    s = frame_structure(a)
    assert s.orientation.sign == (1 if ratlin.det_exact(a) > 0 else -1)
    gram = [[form_inner(u, v, s.metric) for v in s.frame3_7] for u in s.frame3_7]
    assert gram == [[4 * x for x in row] for row in s.metric.rows]
    assert ratlin.matmul(gram, frame_inverse_gram(s)) == ratlin.identity(DIM)
    basis = symmetric_basis()
    cols = [odot(b, s) for b in basis]
    assert ref_odot_symmetric_matrix(s) == [list(row) for row in zip(*(c.coeffs for c in cols))]
    assert [odot_inverse(c, s).rows for c in cols] == [tuple(map(tuple, b)) for b in basis]
    # the exact spectrum: T = lambda on each stored eigenbasis
    for lam, basis in ((s.lambda7, s.basis2_7), (s.lambda14, s.basis2_14)):
        for beta in basis:
            assert s.two_form_operator(beta) == lam * beta
    assert metric_from_phi(s.phi) == (s.metric, s.orientation)


# -- structure tables against the chains they replace -------------------------


def t_matrix(s):
    """The structure's T as lane scalars, from its (rows, den) table."""
    rows, den = s._t_table
    return [[s.ctx.ratio(x, den) for x in row] for row in rows]


def star_t_matrix(s):
    """T from 21 wedge + star chains: column j is two_form_operator of basis 2-form j."""
    cols = [s.two_form_operator(KForm.basis(idx)).coeffs for idx in BASIS[2]]
    return [list(row) for row in zip(*cols)]


def assert_float_close(got, want, rel):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


def float_frame(a):
    """a in floats, kept to cond(a^T a) <= 1e5, where the float lane builds structures."""
    af = [[float(x) for x in row] for row in a]
    arr = np.asarray(af)
    assume(np.linalg.cond(arr.T @ arr) <= 1e5)
    return af


def random_symmetric(rng, ctx, scale=1):
    h = [[None] * DIM for _ in range(DIM)]
    for i, j in _PAIRS:
        h[i][j] = h[j][i] = ctx.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) * scale
    return h


def ref_float_normalization(phi):
    """The float metric as metric_from_phi normalized it before the pivot
    product determinant: B / (6^(2/9) det(B)^(1/9)) after the sign flip,
    with numpy's det(B)."""
    b = np.asarray(_contraction_matrix(phi.num), dtype=float)
    det = np.linalg.det(b)
    if det < 0:
        b, det = -b, -det
    return b / (6.0 ** (2.0 / 9.0) * det ** (1.0 / 9.0))


@given(rational_frames())
@settings(max_examples=40, deadline=None)
def test_float_metric_within_cond_of_exact(a):
    """On frames with cond(a^T a) <= 1e5 the float metric of phi0 pulled
    back by a is within 1e-14 cond(g) max |g| of the exact metric a^T a,
    entrywise, and so is the earlier normalization (ref_float_normalization)
    on the same draws.  Over 400 seeded frames of this distribution the
    gap relative to max |g| had median 2.2e-15 and max 1.3e-11 (the earlier
    normalization 2.5e-15 and 1.3e-11), and at most 2.7e-16 cond(g)."""
    phi = pullback(phi0(FLOAT), float_frame(a))
    exact = np.asarray(metric_from_phi(pullback(phi0(), a))[0].rows, dtype=float)
    bound = 1e-14 * np.linalg.cond(exact) * np.abs(exact).max()
    assert np.abs(np.asarray(metric_from_phi(phi, FLOAT)[0].rows) - exact).max() <= bound
    assert np.abs(ref_float_normalization(phi) - exact).max() <= bound


@pytest.mark.parametrize("name", ["t7", "s1xcy3", "t3xk3"])
def test_t_table_equals_star_chain_on_models(name):
    s = model_structure(name, "exact")
    assert t_matrix(s) == star_t_matrix(s)
    sf = model_structure(name, "float")
    assert_float_close(t_matrix(sf), star_t_matrix(sf), 1e-9)


# cond(a^T a) about 2.9e4: the float star chain, when it took the star of
# the 5-form phi ^ beta through the 5 x 5 minors of g^-1, sat 1.1e-9 * max
# from the exact T and 1.8e-7 from the table T, past the bound of 1.6e-7;
# through the 2 x 2 minors of g it sits 1.4e-12 from the exact T, as the
# table does.
STAR_CHAIN_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "2/3 1 2/3 -1/3 0 -1 -1",
    "-1 2 -1 -1 1 -1 1",
    "1 -1/3 2/3 2 1 -2 0",
    "0 2 0 2/3 2/3 1 2/3",
    "-1 1/2 0 1 2 -2/3 2",
    "1 -1 -2 1 1 -1/3 2/3",
    "-1 2/3 1/3 -2 -2 1 -1",
)]


@given(rational_frames())
@example(a=STAR_CHAIN_FRAME)
@settings(max_examples=6, deadline=None)
def test_t_table_equals_star_chain_on_frames(a):
    """Literally equal in the exact lane (both orientations: rational_frames
    draws the sign), within 1e-9 relative in the float lane.  On
    cond(a^T a) <= 1e3 the float table is also within 2e-12 relative of the
    float image of the exact table: the worst of 7909 such frames (seeds
    0-11999 of rational_frames' draw) read 4.6e-13, at cond 580."""
    s = frame_structure(a)
    assert t_matrix(s) == star_t_matrix(s)
    beta = KForm(2, tuple(Fraction(i - 10, 1 + i % 3) for i in range(NK[2])))
    t_beta = star_t_matrix(s)
    assert decompose2(beta, s).p7 == (KForm(2, tuple(ratlin.matvec(t_beta, beta.coeffs)))
                                      - s.lambda14 * beta) * (1 / (s.lambda7 - s.lambda14))
    af = float_frame(a)
    sf = G2Structure(pullback(phi0(FLOAT), af), FLOAT)
    assert_float_close(t_matrix(sf), star_t_matrix(sf), 1e-9)
    arr = np.asarray(af)
    if np.linalg.cond(arr.T @ arr) <= 1e3:
        assert_float_close(t_matrix(sf), t_matrix(s), 2e-12)


def ref_apply_sparse(table, a, ctx):
    """rows . a / den for a table (rows, den) with sparse rows, one lane
    scalar per entry: how odot_inverse read its table before it ran on ints."""
    rows, den = table
    num, den = a.num, den * a.den
    return [ctx.ratio(sum(x * num[q] for q, x in row), den) for row in rows]


@given(rational_frames())
@settings(max_examples=3, deadline=None)
def test_odot_inverse_table_identity(a):
    """dB_phi[h . phi] / lambda = 2h + tr_g(h) g, literally, on all 28
    symmetric unit tensors, in both orientations."""
    flipped = [[-x for x in a[0]]] + a[1:]
    structures = [standard_structure()] + [frame_structure(f) for f in (a, flipped)]
    assert sorted(s.orientation.sign for s in structures[1:]) == [-1, 1]
    for s in structures:
        ginv, g = inverse_values(s.metric), s.metric.rows
        for h in symmetric_basis():
            jvec = ref_apply_sparse(s._odot_inverse_table, odot(h, s), s.ctx)
            trace = sum(ginv[i][j] * h[j][i] for i in range(DIM) for j in range(DIM))
            assert jvec == [2 * h[i][j] + trace * g[i][j] for i, j in _PAIRS]


@pytest.mark.parametrize("name", ["t7", "s1xcy3", "t3xk3"])
def test_odot_inverse_equals_solve_reference_on_models(name):
    rng = random.Random(name)
    for mode in ("exact", "float"):
        s = model_structure(name, mode)
        for _ in range(3):
            h = random_symmetric(rng, s.ctx)
            eta = odot(h, s)
            got, want = odot_inverse(eta, s), ref_odot_inverse(eta, s)
            if s.ctx.is_exact:
                assert got == want == SymTensor(h)
            else:
                assert_float_close(got.rows, want.rows, 1e-12)


@given(rational_frames(), st.integers(0, 2 ** 16))
@settings(max_examples=4, deadline=None)
def test_odot_inverse_equals_solve_reference_on_frames(a, seed):
    rng = random.Random(seed)
    s = frame_structure(a)
    eta = odot(random_symmetric(rng, EXACT), s)
    assert odot_inverse(eta, s) == ref_odot_inverse(eta, s)
    with pytest.raises(DecompositionError):
        odot_inverse(eta + s.frame3_7[seed % DIM], s)
    # The float lane accepts every input the solve accepted (its 7-part test
    # is now relative) and agrees with it there.
    sf = G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT)
    eta = odot(random_symmetric(rng, FLOAT), sf)
    try:
        want = ref_odot_inverse(eta, sf)
    except DecompositionError:
        return
    assert_float_close(odot_inverse(eta, sf).rows, want.rows, 1e-9)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts hodge_star calls, the eliminations of ratlin's one exact
    Gauss-Jordan (_rref_ints, which the int inverse, kernel and span run)
    with the row counts of the matrices it eliminates, the degrees asked of
    _lambda_gram, and the (rows, order) of every exterior.compound, through
    every module that imports them."""
    calls = {"star": 0, "rref": 0, "rref_rows": [], "gram": [], "compound": []}
    star, rref, gram = exterior.hodge_star, ratlin._rref_ints, exterior._lambda_gram
    minors = exterior.compound

    def counted_star(*args, **kwargs):
        calls["star"] += 1
        return star(*args, **kwargs)

    def counted_rref(m):
        calls["rref"] += 1
        calls["rref_rows"].append(len(m))
        return rref(m)

    def counted_gram(m, k):
        calls["gram"].append(k)
        return gram(m, k)

    def counted_compound(rows, k):
        calls["compound"].append((rows, k))
        return minors(rows, k)

    for module in (exterior, g2core):
        monkeypatch.setattr(module, "hodge_star", counted_star)
        monkeypatch.setattr(module, "_lambda_gram", counted_gram, raising=False)
    monkeypatch.setattr(exterior, "compound", counted_compound)
    monkeypatch.setattr(ratlin, "_rref_ints", counted_rref)

    def reset():
        calls.update(star=0, rref=0, rref_rows=[], gram=[], compound=[])
        return calls

    return reset


def test_tables_run_no_star_chain_and_no_solve(kernel_calls):
    """Exact construction runs one star (of phi, through the 4 x 4 minors of
    g), asks for no Gram and eliminates nothing: the 2-form splitting waits
    for its first read.  decompose2, that first read here, runs no star and
    eliminates no matrix of more than 7 rows (the splitting is read off
    phi: no 21 x 21 kernel of T - lambda is left); odot_inverse, cold or
    warm, and decompose3 ask for no Gram and run no star (the frame
    coordinates read the structure's wedge pairing of phi and *phi);
    odot_inverse runs no elimination."""
    a = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5], a[4][4] = Fraction(1), Fraction(-1, 2), Fraction(2)
    rng = random.Random(3)
    for sign in (1, -1):
        a[6] = [sign * abs(x) for x in a[6]]
        phi = pullback(phi0(), a)
        calls = kernel_calls()
        s = G2Structure(phi)
        assert s.orientation.sign == sign and not s.metric.is_euclidean
        assert calls["star"] == 1 and calls["gram"] == [] and calls["rref"] == 0
        eta = odot(random_symmetric(rng, EXACT), s)
        beta = KForm(2, tuple(Fraction(rng.randint(-5, 5), 3) for _ in range(NK[2])))
        calls = kernel_calls()
        decompose2(beta, s)
        assert calls["star"] == 0
        assert calls["rref"] and max(calls["rref_rows"]) <= 7
        calls = kernel_calls()
        odot_inverse(eta, s)
        assert calls["rref"] == 0 and calls["star"] == 0 and calls["gram"] == []
        calls = kernel_calls()
        decompose3(eta, s)
        odot_inverse(eta, s)
        assert calls == {"star": 0, "rref": 0, "rref_rows": [], "gram": [], "compound": []}


def test_exact_structure_builds_each_minor_table_once(kernel_calls, monkeypatch):
    """An exact non-Euclidean structure reads g through one table of minors
    of g per order and one table of g^-1, and never through the minors of
    g^-1: construction (the star of phi through the 4 x 4 minors), the
    first split read by decompose2 (T through the 2 x 2), decompose3 and
    odot_inverse (no minors: the frame coordinates read a wedge pairing)
    and form_inner on 2-forms (the Gram of 2-forms, the 5 x 5 minors) build
    the orders 2, 4 and 5 once each, and no compound of anything else.
    Through all of that, sharp, a twist and its recover,
    Context.scaled_inverse runs once, on the metric's stored rows: every
    reader of g^-1 shares the table of that one elimination."""
    a = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[1][3], a[3][6], a[5][5] = Fraction(2, 3), Fraction(-1), Fraction(3)
    rng = random.Random(5)
    phi = pullback(phi0(), a)
    # a point of the pulled-back sphere: |pullback(w, a)|_g = |w|
    p = bryant.TwistParams(Fraction(3, 5), pullback(KForm.basis((2,)) * Fraction(4, 5), a))
    inverses, scaled_inverse = [], Context.scaled_inverse

    def counted_inverse(ctx, m):
        inverses.append(m)
        return scaled_inverse(ctx, m)

    monkeypatch.setattr(Context, "scaled_inverse", counted_inverse)
    # _lambda_gram as imported here: the fixture has replaced exterior's
    for cache in (exterior._metric_minors, _lambda_gram, exterior._metric_inverse):
        cache.cache_clear()
    calls = kernel_calls()
    s = G2Structure(phi)
    assert not s.metric.is_euclidean
    eta = odot(random_symmetric(rng, EXACT), s)
    decompose3(eta, s)
    odot_inverse(eta, s)
    beta = KForm(2, tuple(Fraction(rng.randint(-5, 5), 3) for _ in range(NK[2])))
    decompose2(beta, s)
    form_inner(beta, beta, s.metric)
    sharp(rational_kform(rng, 1), s.metric)
    got = bryant.recover(s, bryant.twist(s, p))
    assert got.residual == 0 and got.params.equivalent_to(p)
    assert sorted(k for _, k in calls["compound"]) == [2, 4, 5]
    assert all(rows == s.metric.num for rows, _ in calls["compound"])
    assert inverses == [s.metric.num]


# -- the 2-form splitting read off phi against the earlier per-lane spectra -----


def ref_exact_two_form_spectrum(tmat):
    """Trace candidates, kept by (T - lambda7)(T - lambda14) = 0 over Fractions."""
    n2 = len(tmat)
    t1 = sum(tmat[i][i] for i in range(n2))
    t2 = sum(tmat[i][j] * tmat[j][i] for i in range(n2) for j in range(n2))
    root = rational_nth_root(8 * (21 * t2 - t1 * t1), 2)
    for lam14 in ((4 * t1 + root) / 84, (4 * t1 - root) / 84):
        lam7 = (t1 - 14 * lam14) / 7
        t7, t14 = (ratlin.mat_sub(tmat, [[lam * (i == j) for j in range(n2)] for i in range(n2)])
                   for lam in (lam7, lam14))
        if all(x == 0 for row in ratlin.matmul(t7, t14) for x in row):
            return lam7, lam14, EXACT.nullspace(t7), EXACT.nullspace(t14)
    raise AssertionError("no trace candidate annihilates T")


def ref_float_two_form_spectrum(tmat):
    """numpy eigenvalues grouped by a relative gap of 1e-6, cluster means, SVD kernels."""
    tf = np.asarray(tmat, dtype=float)
    vals = sorted(float(v) for v in np.real(np.linalg.eigvals(tf)))
    scale = max(1.0, max(abs(v) for v in vals))
    clusters = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= 1e-6 * scale:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    assert sorted(len(c) for c in clusters) == [7, 14]
    by_size = {len(c): sum(c) / len(c) for c in clusters}
    lam7, lam14 = by_size[7], by_size[14]
    eye = np.eye(len(tmat))
    return (lam7, lam14, ratlin.nullspace_float(tf - lam7 * eye),
            ratlin.nullspace_float(tf - lam14 * eye))


def span_projector(rows):
    """Orthogonal projector onto the span of orthonormal rows."""
    v = np.asarray(rows, dtype=float)
    return v.T @ v


def exact_projector(rows):
    """Orthogonal projector onto the span of exact rows, in floats."""
    q, _ = np.linalg.qr(np.asarray(rows, dtype=float).T)
    return q @ q.T


@given(rational_frames())
@settings(max_examples=20, deadline=None)
def test_span_is_the_double_kernel(a):
    """Context.scaled_span on the contractions e_i . phi of a pulled-back
    phi0 (7 x 21, rank 7) and on four frame rows with two combinations of
    them (6 x 7, rank 4): in exact mode its rows over den are
    nullspace(nullspace(rows)) literally; in float mode an orthonormal basis
    over 1 whose projector is within 1e-9 of the exact span's."""
    contractions = _contractions(3, frame_structure(a).phi.coeffs)
    dependent = [*a[:4], [x + y for x, y in zip(a[0], a[1])],
                 [x - 2 * y for x, y in zip(a[2], a[3])]]
    for rows, rank in ((contractions, 7), (dependent, 4)):
        num, den = EXACT.scaled_span(rows)
        span = [[Fraction(x, den) for x in row] for row in num]
        assert len(span) == rank
        assert span == EXACT.nullspace(EXACT.nullspace(rows))
        fspan, fden = FLOAT.scaled_span([[float(x) for x in row] for row in rows])
        assert fden == 1
        assert len(fspan) == rank
        assert np.abs(np.asarray(fspan) @ np.asarray(fspan).T - np.eye(rank)).max() <= 1e-9
        assert np.abs(span_projector(fspan) - exact_projector(span)).max() <= 1e-9


@given(rational_frames())
@settings(max_examples=3, deadline=None)
def test_exact_two_form_spectrum_equals_reference(a):
    for s in (standard_structure(), frame_structure(a)):
        lam7, lam14, eig7, eig14 = ref_exact_two_form_spectrum(t_matrix(s))
        assert (s.lambda7, s.lambda14) == (lam7, lam14) == (2, -1)
        assert [list(b.coeffs) for b in s.basis2_7] == eig7
        assert [list(b.coeffs) for b in s.basis2_14] == eig14


@given(rational_frames())
@settings(max_examples=40, deadline=None)
def test_float_two_form_spectrum_matches_eigvals_reference(a):
    """On float frames with cond(g) up to 1e5 the trace eigenvalues sit within
    1e-9 of the eigvals cluster means, and the eigenbases span the same spaces."""
    af = [[float(x) for x in row] for row in a]
    arr = np.asarray(af)
    assume(np.linalg.cond(arr.T @ arr) <= 1e5)
    s = G2Structure(pullback(phi0(FLOAT), af), FLOAT)
    lam7, lam14, eig7, eig14 = ref_float_two_form_spectrum(t_matrix(s))
    assert abs(s.lambda7 - lam7) <= 1e-9 and abs(s.lambda14 - lam14) <= 1e-9
    for basis, ref in ((s.basis2_7, eig7), (s.basis2_14, eig14)):
        assert len(basis) == len(ref)
        gap = span_projector([b.coeffs for b in basis]) - span_projector(ref)
        assert np.abs(gap).max() <= 1e-9


# cond(g) about 6.9e4: the float T's eigenvalues spread by 2.5e-6 around 2
# and -1, so eigvals clustered at a 1e-6 relative gap found multiplicities
# [1, 1, 6, 13] and the float structure could not be built.
SPREAD_SPECTRUM_FRAME = [[k * x for x in row] for k, row in zip((32, 16, 1, 1, 2, 8, 32), (
    (1, 0, 0, 1, 0, 1, 0),
    (-1, 1, 1, 1, 0, 0, 1),
    (1, 0, 0, -1, 0, 0, -1),
    (-1, 1, 1, 1, 1, 1, 1),
    (0, -1, 0, -1, -1, -1, -1),
    (0, 0, 0, -1, 0, -1, -1),
    (-1, 0, 1, 0, 0, 1, 0),
))]


def test_float_spectrum_where_eigvals_clusters_split():
    s = G2Structure(pullback(phi0(), SPREAD_SPECTRUM_FRAME))
    af = [[float(x) for x in row] for row in SPREAD_SPECTRUM_FRAME]
    sf = G2Structure(pullback(phi0(FLOAT), af), FLOAT)
    assert abs(sf.lambda7 - s.lambda7) <= 1e-6 and abs(sf.lambda14 - s.lambda14) <= 1e-6
    for basis, exact in ((sf.basis2_7, s.basis2_7), (sf.basis2_14, s.basis2_14)):
        q, _ = np.linalg.qr(np.asarray([b.coeffs for b in exact], dtype=float).T)
        gap = span_projector([b.coeffs for b in basis]) - q @ q.T
        assert np.abs(gap).max() <= 1e-7


def test_two_form_spectrum_refuses_other_operators():
    """The splitting that replaced the trace path refuses three operators
    given the standard form's contractions e_i . phi0 as the 7-space: the
    identity (one eigenvalue, no (7, 14) split), diag(2 x 8, -1 x 13) and a
    rotation block (the contractions are eigenvectors of neither).

    It also refuses T + u w^T for u in the 14-space, which keeps tr T and
    the kernel matrix C (T - lambda14) (C u = 0): with w in the 7-space only
    the eigenvector check on the contractions sees it, with w in the
    14-space and orthogonal to u only the check on the kernel basis does."""
    n2 = NK[2]
    ident = ratlin.identity(n2)
    # eigenvalues 2 and -1 with multiplicities 8 and 13
    wrong = [[Fraction(2 if i < 8 else -1) * (i == j) for j in range(n2)] for i in range(n2)]
    # a rotation block: no real eigenvector in its plane
    rot = [[Fraction(0)] * n2 for _ in range(n2)]
    rot[0][1], rot[1][0] = Fraction(1), Fraction(-1)
    for ctx in (EXACT, FLOAT):
        s = standard_structure(ctx.mode)
        gens7 = _contractions(3, s.phi.coeffs)
        lam7, lam14, eig14 = _split_two_forms(s._t_table, gens7, ctx)
        assert (lam7, lam14) == (s.lambda7, s.lambda14)
        assert (len(s.basis2_7), len(eig14[0])) == (7, 14)
        for tmat in (ident, wrong, rot):
            if not ctx.is_exact:
                tmat = [[float(x) for x in row] for row in tmat]
            with pytest.raises(DecompositionError):
                _split_two_forms((tmat, 1), gens7, ctx)
        (w7, *_), (u, v, *_) = ([list(b.coeffs) for b in basis]
                                for basis in (s.basis2_7, s.basis2_14))
        w14 = [y - sum(map(mul, u, v)) / sum(map(mul, u, u)) * x for x, y in zip(u, v)]
        rows, den = s._t_table
        for w in (w7, w14):
            bumped = [[x + den * ui * wj for x, wj in zip(row, w)] for row, ui in zip(rows, u)]
            with pytest.raises(DecompositionError, match="not a scalar"):
                _split_two_forms((bumped, den), gens7, ctx)


# -- the structure path on ints against the Fraction path it replaced --------


def ref_split_two_forms(table, gens7, ctx):
    """_split_two_forms as it was before the int kernel: the 14-space basis
    as Context.nullspace's Fraction vectors, turned back into ints by
    Context.scaled for the eigenvector check."""
    rows, den = table
    lam7 = ctx.eigenvalue(rows, gens7)
    if lam7 is None:
        raise DecompositionError("2-form operator is not a scalar on the contractions of phi")
    lam14 = (sum(row[i] for i, row in enumerate(rows)) - 7 * lam7) / 14
    ((p,),), q = ctx.scaled([[lam14]])
    kernel_rows = []
    for c in gens7:
        acc = [0] * NK[2]
        for x, row in zip(c, rows):
            if x:
                acc = [a + x * y for a, y in zip(acc, row)]
        kernel_rows.append([q * a - p * x for a, x in zip(acc, c)])
    eig14 = ctx.nullspace(kernel_rows)
    if len(eig14) != 14:
        raise DecompositionError("2-form operator has no eigenspaces of dimensions (7, 14)")
    if ctx.eigenvalue(rows, ctx.scaled(eig14)[0], lam14) is None:
        raise DecompositionError("2-form operator is not a scalar on its 14-space")
    lam7, lam14 = ctx.ratio(lam7, den), ctx.ratio(lam14, den)
    if ctx.is_zero(lam7 - lam14, FLOAT_RANK_CUTOFF * max(abs(lam7), abs(lam14))):
        raise DecompositionError("2-form operator has one eigenvalue on both spaces")
    return lam7, lam14, eig14


def ref_odot_inverse_fractions(eta, s):
    """odot_inverse as it was before it ran on ints: J, tr_g(J) and h as
    lane scalars (Fractions in exact mode), rescaled to ints by odot."""
    ctx = s.ctx
    eta = coerce_form(eta, ctx)
    bound = ctx.tol * max(1.0, float(eta.max_abs()))
    parts = decompose3(eta, s)
    if not ctx.is_zero(parts.p7.max_abs(), bound):
        raise DecompositionError("3-form has a nonzero 7-part; not in the symmetric image")
    target = parts.p1 + parts.p27
    jvec = ref_apply_sparse(s._odot_inverse_table, target, ctx)
    ginv, g = inverse_values(s.metric), s.metric.rows
    trace = sum(ginv[i][j] * x if i == j else 2 * ginv[i][j] * x
                for (i, j), x in zip(_PAIRS, jvec)) / 9
    rows = [[None] * DIM for _ in range(DIM)]
    for (i, j), x in zip(_PAIRS, jvec):
        rows[i][j] = rows[j][i] = (x - trace * g[i][j]) / 2
    resid = (odot(rows, s) - target).max_abs()
    if not ctx.is_zero(resid, bound):
        raise DecompositionError(f"inversion residual {resid} above tolerance")
    return SymTensor(tuple(tuple(r) for r in rows))


def outcome(fn, *args):
    """fn's result, or the class and message of the G2KitError it raised."""
    try:
        return fn(*args)
    except G2KitError as exc:
        return type(exc), str(exc)


def assert_int_path_equals_references(s, rng):
    """lambda7, lambda14, basis2_14 and odot_inverse of the structure equal
    the Fraction-path references literally (the same float bits in the
    float lane): odot_inverse on images odot(h), on an image plus a frame
    form (a 7-part: DecompositionError) and on a random 3-form."""
    ctx = s.ctx
    lam7, lam14, eig14 = ref_split_two_forms(s._t_table, _contractions(3, s.phi.num), ctx)
    assert (s.lambda7, s.lambda14) == (lam7, lam14)
    want = tuple(KForm(2, tuple(v)) for v in eig14)
    assert s.basis2_14 == want and all(same(b, w) for b, w in zip(s.basis2_14, want))
    image = odot(random_symmetric(rng, ctx), s)
    eta = rational_kform(rng, 3)
    etas = [image, image + s.frame3_7[rng.randrange(DIM)], eta if ctx.is_exact else eta.as_float()]
    for eta in etas:
        got, want = outcome(odot_inverse, eta, s), outcome(ref_odot_inverse_fractions, eta, s)
        assert got == want
        if isinstance(got, SymTensor):
            assert all(same(r, w) for r, w in zip(got.rows, want.rows))
    assert outcome(odot_inverse, etas[1], s)[0] is DecompositionError


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["t7", "s1xcy3", "t3xk3"])
def test_int_structure_path_equals_references_on_models(name, mode):
    assert_int_path_equals_references(model_structure(name, mode), random.Random(name + mode))


@given(rational_frames(), st.integers(0, 2 ** 16))
@settings(max_examples=6, deadline=None)
def test_int_structure_path_equals_references_on_rational_frames(a, seed):
    """Exact on every frame; float where the float lane builds structures
    (cond(a^T a) <= 1e5)."""
    assert_int_path_equals_references(frame_structure(a), random.Random(seed))
    sf = G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT)
    assert_int_path_equals_references(sf, random.Random(seed))


def ref_eager_tables(s):
    """(T table, split, frame3_7) as G2Structure's construction built them
    eagerly before they became lazy (_init_two_form_spectrum and
    _init_three_form_frame), from the structure's eager state: phi, the
    metric, the orientation, vol and the star of phi."""
    ctx = s.ctx
    phi, den = s.phi.num, s.phi.den
    ((root,),), root_den = ctx.scaled([[s.orientation.sign * top_coeff(s.vol)]])
    signs, terms = g2core._two_form_operator_table()
    w = [[] for _ in BASIS[2]]
    for q, ab, sign, pl in terms:
        if phi[pl]:
            w[q].append((ab, sign * phi[pl]))
    g2, g2den = compound(s.metric.num, 2), s.metric.den ** 2
    tmat = []
    for minors, sign in zip(g2, signs):
        row = [0] * NK[2]
        sign *= s.orientation.sign * root_den
        for minor, entries in zip(minors, w):
            minor *= sign
            if minor:
                for ab, x in entries:
                    row[ab] += minor * x
        tmat.append(row)
    den *= g2den * root
    t_table = (tmat, den)
    split = _split_two_forms(t_table, _contractions(3, phi), ctx)
    star_phi = s.star_phi
    frame = tuple(KForm._of(3, row, star_phi.den, ctx)
                  for row in _contractions(4, star_phi.num, ctx.scaled_zero))
    return t_table, split, frame


def assert_lazy_tables_equal_eager_build(s):
    """The structure's lazy T table, lambda7, lambda14, 14-space kernel rows
    and frame3_7 equal ref_eager_tables literally: the same values, types and
    float bits.  The frame is read first and T last, against the eager
    order, so no lazy table leans on the order of first reads."""
    t_table, split, frame = ref_eager_tables(s)
    assert [(f.num, f.den) for f in s.frame3_7] == [(f.num, f.den) for f in frame]
    assert all(same(f, w) for f, w in zip(s.frame3_7, frame))
    assert repr((s.lambda7, s.lambda14, s._split[2])) == repr(split)
    assert repr(s._t_table) == repr(t_table)


@given(rational_frames())
@settings(max_examples=6, deadline=None)
def test_lazy_tables_equal_the_eager_build_on_frames(a):
    """Fresh exact structures on every frame, float ones where the float
    lane builds structures (cond(a^T a) <= 1e5)."""
    assert_lazy_tables_equal_eager_build(G2Structure(pullback(phi0(), a)))
    assert_lazy_tables_equal_eager_build(
        G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_lazy_tables_equal_the_eager_build_on_phi0_and_twists(mode):
    """+-phi0 and twists of phi0 at seeded points, in both lanes."""
    ctx = Context.of(mode)
    forms = [phi0(ctx), phi0(ctx) * -1]
    for seed in range(4):
        p = bryant.sample_params(random.Random(seed))
        if not ctx.is_exact:
            p = bryant.TwistParams(float(p.c), p.omega.as_float())
        forms.append(bryant.twist(standard_structure(mode), p))
    for phi in forms:
        assert_lazy_tables_equal_eager_build(G2Structure(phi, ctx))


def test_basis2_7_is_built_on_first_read(monkeypatch):
    """Construction takes no span: the 7-space basis, Context.scaled_span of
    the contractions e_i . phi, is built when basis2_7 is first read, once,
    and equals the kernel of T - lambda7 in exact mode."""
    spans = []
    span = ratlin.span_int

    def counted(m):
        spans.append(len(m))
        return span(m)

    monkeypatch.setattr(ratlin, "span_int", counted)
    a = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5], a[4][4] = Fraction(1), Fraction(-1, 2), Fraction(2)
    s = G2Structure(pullback(phi0(), a))
    assert spans == []
    basis = s.basis2_7
    assert spans == [7] and s.basis2_7 is basis
    lam7, _, eig7, _ = ref_exact_two_form_spectrum(t_matrix(s))
    assert s.lambda7 == lam7 and [list(b.coeffs) for b in basis] == eig7


def test_exact_construction_uses_no_floats(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy reached from the exact lane")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    s = G2Structure(pullback(phi0(), [[1 if j in (i, (i + 1) % DIM) else 0 for j in range(DIM)]
                                      for i in range(DIM)]))
    assert (s.lambda7, s.lambda14) == (Fraction(2), Fraction(-1))


_EXACT_LANE_NO_NUMPY = """
import random
import sys
from fractions import Fraction
from g2kit import (G2Structure, KForm, TwistParams, decompose2, decompose3, derivative_rank,
                   g2_algebra_basis, lie_normalizer, odot, odot_inverse, phi0, pullback, recover,
                   sample_params, so7_basis, standard_structure, twist)
frame = [[1 if j in (i, (i + 1) % 7) else 0 for j in range(7)] for i in range(7)]
s = G2Structure(pullback(phi0(), frame))
assert (s.lambda7, s.lambda14) == (Fraction(2), Fraction(-1))
beta = KForm.from_entries(2, {(1, 2): Fraction(1, 2), (3, 5): -2, (4, 7): 3})
assert decompose2(beta, s).total() == beta
eta = KForm.from_entries(3, {(1, 2, 3): 1, (1, 4, 5): Fraction(-1, 3), (2, 4, 6): 2})
d = decompose3(eta, s)
assert d.total() == eta
h = odot_inverse(d.p1 + d.p27, s)
assert odot(h, s) == d.p1 + d.p27
p = sample_params(random.Random(3))
q = TwistParams(p.c, pullback(p.omega, frame))
rec = recover(s, twist(s, q))
assert twist(s, rec.params) == twist(s, q)
assert derivative_rank(s, q, 7) == 7
assert lie_normalizer(so7_basis(), g2_algebra_basis(standard_structure())).dim == 14
assert "numpy" not in sys.modules, "numpy reached from the exact lane"
"""


def test_exact_kernels_never_import_numpy(fresh_python):
    """On the non-Euclidean frame above, in a new interpreter: construction,
    the decompositions, odot_inverse, twist, recover, the derivative rank and
    the normalizer of g2 in so(7) run without numpy ever being imported."""
    fresh_python(_EXACT_LANE_NO_NUMPY)


def test_float_lane_frame_gram_within_tolerance():
    a = [[1.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5] = 0.5, -0.25
    s = G2Structure(pullback(phi0(FLOAT), a), FLOAT)
    gram = np.asarray([[form_inner(u, v, s.metric) for v in s.frame3_7] for u in s.frame3_7])
    assert np.allclose(gram @ np.asarray(frame_inverse_gram(s)), np.eye(DIM), atol=FLOAT.tol)


# -- decompose3 and the frame coordinates against the Gram route ---------------


def ref_decompose3(eta, s):
    """decompose3 through ref_form_inner: one 35x35 quadratic form per inner
    product, over ref_lambda_gram."""
    p1 = s.phi * (ref_form_inner(eta, s.phi, s.metric) / 7)
    rhs = [ref_form_inner(eta, w, s.metric) for w in s.frame3_7]
    p7 = KForm.zero(3, s.ctx)
    for x, w in zip(ratlin.matvec(frame_inverse_gram(s), rhs), s.frame3_7):
        if x:
            p7 = p7 + w * x
    return p1, p7, eta - p1 - p7


def ref_wedge_decompose3(eta, s):
    """decompose3 by wedges: <eta, phi> = top(eta ^ *phi) / top(vol), and
    the coordinate of frame3_7[j] is -top(dx_j ^ phi ^ eta) / (4 top(vol))."""
    vol = top_coeff(s.vol)
    p1 = s.phi * (top_coeff(wedge(eta, s.star_phi)) / vol / 7)
    p7 = KForm.zero(3, s.ctx)
    for j, w in enumerate(s.frame3_7):
        x = -top_coeff(wedge(wedge(KForm.basis((j + 1,)), s.phi), eta)) / (4 * vol)
        if x:
            p7 = p7 + w * x
    return p1, p7, eta - p1 - p7


def ref_frame_coordinates(eta, s):
    """frame_coordinates through the Gram route its wedge pairing replaced:
    one product of eta with the metric's Gram of 3-forms (none on a
    Euclidean metric), the 8 inner products with phi and the frame forms,
    then g^-1 / 4 (the inverse of the frame's Gram 4 g) on the last 7."""
    forms = (s.phi, *s.frame3_7)
    rden = lcm(*(f.den for f in forms))
    rows = [[x * (rden // f.den) for x in f.num] for f in forms]
    v, den = eta.num, eta.den
    if not s.metric.is_euclidean:
        grows, gden = _lambda_gram(s.metric, 3)
        v, den = ratlin.matvec(grows, v), den * gden
    inner = ratlin.matvec(rows, v)
    den *= rden
    inv, iden = _metric_inverse(s.metric)
    return s.ctx.ratio(inner[0], den), (ratlin.matvec(inv, inner[1:]), 4 * den * iden)


def coordinate_values(result, ctx):
    """(<eta, phi>, coords) of a frame_coordinates result as lane scalars."""
    phi_inner, (coords, cden) = result
    return phi_inner, [ctx.ratio(x, cden) for x in coords]


# the pullback by this frame reverses the orientation and keeps g = I
REVERSAL = [[-1 if i == j == 0 else int(i == j) for j in range(DIM)] for i in range(DIM)]


@given(rational_frames(), THREE_FORMS)
@settings(max_examples=10, deadline=None)
def test_frame_coordinates_equal_the_gram_reference(a, eta):
    """frame_coordinates' wedge pairing against the Gram route it replaced
    (ref_frame_coordinates): the exact values are literally equal on frames
    of both orientations, and the float values on phi0 and on its
    orientation-reversed pullback are repr-identical, since there the
    pairing's rows are the old rows up to an exact sign, summed in the same
    order."""
    s = frame_structure(a)
    assert (coordinate_values(frame_coordinates(eta, s), EXACT)
            == coordinate_values(ref_frame_coordinates(eta, s), EXACT))
    etaf = eta.as_float()
    for sf in (standard_structure("float"), G2Structure(pullback(phi0(FLOAT), REVERSAL), FLOAT)):
        got, want = (coordinate_values(f(etaf, sf), FLOAT)
                     for f in (frame_coordinates, ref_frame_coordinates))
        assert repr(got) == repr(want)
    assert sf.orientation.sign == -1 and sf.metric.is_euclidean


def test_frame_coordinates_read_no_gram_and_no_inverse(monkeypatch):
    """frame_coordinates, decompose3 and recover's two pivots, cold (the
    pairing's first build) and warm, read neither a Gram of the metric
    (_lambda_gram) nor its g^-1 (_metric_inverse): on phi0 and on
    non-Euclidean frames of both orientations, in both lanes."""
    def refuse(*args):
        raise AssertionError("a frame-coordinate path read a metric table")

    a = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5], a[4][4] = Fraction(1), Fraction(-1, 2), Fraction(2)
    rng = random.Random(13)
    for ctx in (EXACT, FLOAT):
        identity = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
        frames = [[[ctx.scalar(x) for x in row] for row in b]
                  for b in (identity, a, [[-x for x in a[0]], *a[1:]])]
        structures = [G2Structure(pullback(phi0(ctx), b), ctx) for b in frames]
        # points of each pulled-back sphere: |pullback(w, b)|_g = |w|
        points = [bryant.TwistParams(ctx.scalar(Fraction(3, 5)),
                                     pullback(KForm.basis((2,)) * Fraction(4, 5), b)) for b in frames]
        twists = [bryant.twist(s, p) for s, p in zip(structures, points)]
        with monkeypatch.context() as patch:
            for module in (exterior, g2core, bryant):
                patch.setattr(module, "_lambda_gram", refuse, raising=False)
                patch.setattr(module, "_metric_inverse", refuse, raising=False)
            for s, phit, p in zip(structures, twists, points):
                for eta in (coerce_form(rational_kform(rng, 3), ctx), phit):
                    frame_coordinates(eta, s)
                    decompose3(eta, s)
                phi_inner, (coords, cden) = frame_coordinates(phit, s)
                assert bryant._recover_c_positive(s, coords, cden, p.c).omega.isclose(p.omega, 1e-9)
                got = bryant._recover_w_pivot(s, phit, phi_inner, coords, cden)
                assert got.equivalent_to(p, 1e-9)
        assert not structures[1].metric.is_euclidean
        assert [s.orientation.sign for s in structures] == [1, 1, -1]


# cond(g) about 4.3e5: the float star of phi through the 3 x 3 minors of
# g^-1 gave |phi|^2 = 7.0000062 here, past PHI_NORM_TOL, so the float
# structure refused this valid pullback of phi0.
REFUSED_FLOAT_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "1/3 1 -1 -2 -2 1 -1/3",
    "-2/3 0 1/2 -1/2 -2 1 -2/3",
    "-1 -2 1 2/3 1 0 1/2",
    "-1 -2/3 2/3 0 -1 -1 2/3",
    "-1 2/3 -1/2 0 2 -1 0",
    "0 2/3 1 2 -1 -2/3 -1",
    "2 -1/3 -2 -1 1/2 0 1/3",
)]


# cond(a^T a) about 4.25e4: with eta = dx567 the float p7 of decompose3
# and of the float ref_decompose3, both through the minors of a float g^-1,
# sat 6.55e-8 from the exact p7; through the minors of g it sat 6.2e-12
# relative from it, and through the wedge pairing it sits 1.4e-11.
DECOMPOSE3_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "1 2 2/3 2 2/3 -1 -1/2",
    "0 1 -1/2 0 2 -1 0",
    "0 -1/3 0 -1 -1 0 -2",
    "2/3 -1 1/3 0 2/3 -1/2 0",
    "1 1/3 1/2 -1/2 -1/3 -2/3 0",
    "0 1/3 2 -1 -2 -1 1/2",
    "-1/3 -1 -2 -2 1 1 1",
)]


def assert_float_decompose3_near_exact(eta, s, sf):
    """Float decompose3 on the float structure sf is within 1e-9 relative of
    the float image of the exact parts on s (the exact lane is the float
    lane's oracle)."""
    d, df = decompose3(eta, s), decompose3(eta.as_float(), sf)
    for got, part in zip((df.p1, df.p7, df.p27), (d.p1, d.p7, d.p27)):
        want = part.as_float()
        assert (got - want).max_abs() <= 1e-9 * max(1.0, want.max_abs())


@given(rational_frames(), THREE_FORMS)
@example(a=REFUSED_FLOAT_FRAME, eta=KForm.zero(3, EXACT))
@example(a=DECOMPOSE3_FRAME, eta=KForm.basis((5, 6, 7)))
@settings(max_examples=6, deadline=None)
def test_decompose3_matches_form_inner_reference(a, eta):
    """Exact decompose3 equals the quadratic-form reference over the exact
    Gram (ref_decompose3) and the wedge-pairing reference
    (ref_wedge_decompose3) literally.  On every frame float decompose3 is
    within 1e-9 relative of the float wedge-pairing reference, which reads
    what decompose3 reads (phi and *phi) by wedges: on seeds 0-4999 of
    this draw, one rational 3-form each, it missed on none of the 4995
    frames the float lane builds, the worst at 1.5e-14.  The float
    reference summed over the float Gram, which this check read before, is
    now the less accurate side (g^-1 / 4 amplifies its rounding by about
    cond(g)): the Gram route missed this reference on 37 of them, up to
    5.5e-8.  On frames with cond(a^T a) <= 1e5 float decompose3 is also
    near the exact one (assert_float_decompose3_near_exact): on the same
    seeds 4837 frames missed on none, the worst at 4.7e-10 (the Gram route:
    2 misses, up to 1.8e-9)."""
    s = frame_structure(a)
    d = decompose3(eta, s)
    assert (d.p1, d.p7, d.p27) == ref_decompose3(eta, s) == ref_wedge_decompose3(eta, s)
    zero = decompose3(KForm.zero(3, EXACT), s)
    assert all(type(c) is Fraction and c == 0 for part in (zero.p1, zero.p7, zero.p27)
               for c in part.coeffs)
    af = np.asarray([[float(x) for x in row] for row in a])
    sf = G2Structure(pullback(phi0(FLOAT), af.tolist()), FLOAT)
    etaf = eta.as_float()
    df = decompose3(etaf, sf)
    for got, want in zip((df.p1, df.p7, df.p27), ref_wedge_decompose3(etaf, sf)):
        assert (got - want).max_abs() <= 1e-9 * max(1.0, want.max_abs())
    if np.linalg.cond(af.T @ af) <= 1e5:
        assert_float_decompose3_near_exact(eta, s, sf)


def test_float_decompose3_on_decompose3_frame():
    """DECOMPOSE3_FRAME keeps the float decompose3 of dx567 near the exact
    one."""
    a = DECOMPOSE3_FRAME
    sf = G2Structure(pullback(phi0(FLOAT), [[float(x) for x in row] for row in a]), FLOAT)
    assert_float_decompose3_near_exact(KForm.basis((5, 6, 7)), frame_structure(a), sf)


# cond(g) about 2.8e4: at k = 3 the float Gram, the averaged re-indexed
# minors of g, sits 5.0 eps cond(g) max from the exact Gram; one side's
# minors of a float g^-1, the table it replaced, sat 8.6 eps cond(g) max.
ILL_CONDITIONED_FRAME = [[Fraction(x) for x in row.split()] for row in (
    "-2 -2 -1 0 1 0 -1",
    "0 -2 -1/2 1 1 0 -2",
    "-2 0 2 2 1 0 1/3",
    "1 1 -1 1 1 -1 1",
    "-1 1/3 -1/2 0 1 1 2/3",
    "1 -1 2 2/3 2 2/3 2/3",
    "-2/3 -1 -2 -2 2 1/3 2",
)]


def max_gap_to(exact_gram, mat):
    return max(abs(Fraction(x) - e) for row, erow in zip(mat, exact_gram) for x, e in zip(row, erow))


def minor_table(m, k):
    inv = inverse_values(m)
    return [[ref_det_small([[inv[i - 1][j - 1] for j in J] for i in I], lane_of(m.rows[0]))
             for J in BASIS[k]] for I in BASIS[k]]


def jacobi_side(m, k):
    """One side of the Gram of k-forms by Jacobi's identity, unaveraged:
    s_I s_J det(g[I^c, J^c]) / det g, the (7 - k)-minors of g by compound."""
    minors, det = compound(m.rows, DIM - k), _metric_det(m)
    comp = _comp_table(k)
    return [[minors[pi][pj] * si * sj / det for pj, sj in comp] for pi, si in comp]


@given(rational_frames())
@example(a=ILL_CONDITIONED_FRAME)
@settings(max_examples=4, deadline=None)
def test_lambda_gram_symmetric_minor_determinants(a):
    """The exact table is int rows over an int den whose entries are the
    minors of g^-1 and the Fraction-entry reference (orders 2 and 3 by
    expansion, 4 by Bareiss); the float table is over 1 and averages the
    two transposed entries of the re-indexed minors of g, so it is
    symmetric to the last bit.  Measured against the exact Gram of the same
    frame, averaging is never worse than one side plus 4 eps max|Gram|, and
    up to cond(g) 1e5 the float table is within 64 eps cond(g) max|Gram|:
    the worst of 5795 seeded frames there (seeds 0-5999 of rational_frames'
    draw) read 26.6, at k = 2 and cond(g) 4.0e4, where the minors of a
    float g^-1 read 26.7 too (both carry the float metric's rounding).
    Only the metrics are built (metric_from_phi): the subject is the table,
    not the float structure's |phi|^2 check."""
    m = metric_from_phi(pullback(phi0(), a))[0]
    mf = metric_from_phi(pullback(phi0(FLOAT), [[float(x) for x in row] for row in a]), FLOAT)[0]
    cond = np.linalg.cond(np.asarray(mf.rows))
    eps = Fraction(np.finfo(float).eps)
    for k in (2, 3, 4):
        rows, den = _lambda_gram(m, k)
        assert all(type(x) is int for row in rows for x in row) and type(den) is int
        exact_gram = [[Fraction(x, den) for x in row] for row in rows]
        assert exact_gram == ref_lambda_gram(m, k) == minor_table(m, k)
        if k == 4:
            continue
        gram, fden = _lambda_gram(mf, k)
        assert fden == 1
        assert all(gram[p][q] == gram[q][p] for p in range(NK[k]) for q in range(p))
        scale = max(abs(x) for row in exact_gram for x in row)
        gap = max_gap_to(exact_gram, gram)
        assert gap <= max_gap_to(exact_gram, jacobi_side(mf, k)) + 4 * eps * scale
        if cond <= 1e5:
            assert gap <= 64 * eps * Fraction(cond) * scale


# -- form_inner and the frame forms against the code they replace -------------


def ref_lambda_gram(m, k):
    """The Gram matrix of basis k-forms with one lane scalar per entry, as
    _lambda_gram built it before it kept the (int rows, den) table."""
    lane = EXACT if m.is_exact else FLOAT
    inv, den = _metric_inverse(m)
    den **= k
    exact = lane.is_exact
    basis = BASIS[k]

    def minor_det(I, J):
        return ref_det_small([[inv[a - 1][b - 1] for b in J] for a in I], lane)

    gram = [[None] * len(basis) for _ in basis]
    for p, I in enumerate(basis):
        for q in range(p, len(basis)):
            J = basis[q]
            d = minor_det(I, J)
            if not exact and q != p:
                d = (d + minor_det(J, I)) / 2
            gram[p][q] = gram[q][p] = lane.ratio(d, den)
    return [list(row) for row in gram]


@given(rational_frames())
@settings(max_examples=4, deadline=None)
def test_metric_inverse_is_the_one_table(a):
    """_metric_inverse is a metric's one g^-1 table, and the Gram of 1-forms
    is that same object.  The exact table is int rows over a positive int
    den in lowest terms whose quotients are EXACT.inv of g literally;
    the float table is over 1 and symmetric to the last bit."""
    m = metric_from_phi(pullback(phi0(), a))[0]
    mf = metric_from_phi(pullback(phi0(FLOAT), [[float(x) for x in row] for row in a]), FLOAT)[0]
    # the two caches evict apart: start both empty
    for cache in (_metric_inverse, _lambda_gram):
        cache.cache_clear()
    for metric in (m, mf):
        assert _lambda_gram(metric, 1) is _metric_inverse(metric)
    rows, den = _metric_inverse(m)
    assert all(type(x) is int for row in rows for x in row) and type(den) is int and den > 0
    assert gcd(den, *(x for row in rows for x in row)) == 1
    assert [[Fraction(x, den) for x in row] for row in rows] == EXACT.inv(m.rows)
    rows, den = _metric_inverse(mf)
    assert den == 1 and all(type(x) is float for row in rows for x in row)
    assert all(rows[p][q] == rows[q][p] for p in range(DIM) for q in range(p))


def ref_form_inner(a, b, m, gram=None):
    """The quadratic form a^T Gram b, summed term by term over gram, by
    default ref_lambda_gram."""
    if m.is_euclidean:
        return sum(x * y for x, y in zip(a.coeffs, b.coeffs))
    gram = ref_lambda_gram(m, a.degree) if gram is None else gram
    tot = 0
    for p, ca in enumerate(a.coeffs):
        if ca:
            for q, cb in enumerate(b.coeffs):
                if cb:
                    tot += ca * gram[p][q] * cb
    return tot


@given(rational_frames(), st.integers(0, 2 ** 16))
@settings(max_examples=4, deadline=None)
def test_form_inner_equals_quadratic_form_reference(a, seed):
    """Exact form_inner (b against the int Gram product of a) equals the
    Fraction quadratic form literally.  The float one agrees to 1e-12
    relative to the sum of the absolute terms with the quadratic form over
    the float table it reads (the float minors of a float g^-1 are no
    reference for that table: on frames with cond(g) 1e4-1e5 they moved
    <x, y> by up to 3.7e-11 of the sum at k = 3).  Up to cond(g) 1e5 it is
    also within 64 eps cond(g) of the exact value, relative to the sum of
    the absolute terms over the exact Gram; this holds the float tables to
    exact ones, g^-1 by elimination at k = 1 included: the worst of 5795
    seeded frames there read 15.0 at k = 1 (cond(g) 4.0e4), 2.6 at k = 2
    and 2.1 at k = 3 (the float metric's own rounding rides along)."""
    rng = random.Random(seed)
    m = metric_from_phi(pullback(phi0(), a))[0]
    mf = metric_from_phi(pullback(phi0(FLOAT), [[float(x) for x in row] for row in a]), FLOAT)[0]
    cond = np.linalg.cond(np.asarray(mf.rows))
    eps = np.finfo(float).eps
    for k in (1, 2, 3):
        x, y = rational_kform(rng, k), rational_kform(rng, k)
        exact = form_inner(x, y, m)
        assert exact == ref_form_inner(x, y, m)
        assert type(exact) is Fraction
        xf, yf = x.as_float(), y.as_float()
        got = form_inner(xf, yf, mf)
        rows, den = _lambda_gram(mf, k)
        assert den == 1
        size = np.abs(xf.coeffs) @ np.abs(np.asarray(rows)) @ np.abs(yf.coeffs)
        assert abs(got - ref_form_inner(xf, yf, mf, rows)) <= 1e-12 * max(1.0, size)
        if cond <= 1e5:
            gram = np.abs(np.asarray(ref_lambda_gram(m, k), dtype=float))
            size = np.abs(xf.coeffs) @ gram @ np.abs(yf.coeffs)
            assert abs(got - float(exact)) <= 64 * eps * cond * size


def ref_hodge_star(a, m, o):
    """The star through the minors of g^-1 in every degree, as hodge_star
    took it before it read the minors of g:
    (*a)_{I^c} = s_I vol (Gram_k a)_I."""
    vol = o.sign * _sqrt_det(m)
    out = [None] * NK[DIM - a.degree]
    for row, (po, s) in zip(ref_lambda_gram(m, a.degree), _comp_table(a.degree)):
        out[po] = s * vol * sum(x * c for x, c in zip(row, a.coeffs))
    return KForm(DIM - a.degree, tuple(out))


@given(rational_frames(), st.integers(0, 2 ** 16))
@example(a=STAR_CHAIN_FRAME, seed=2)
@settings(max_examples=4, deadline=None)
def test_star_equals_inverse_gram_reference(a, seed):
    """The exact star equals the Gram chain of g^-1 literally in every
    degree and both orientations.  On frames with cond(a^T a) <= 1e5 the
    float star of random forms of every degree and of w ^ phi and w ^ *phi
    (the twist's) is within 1e-9 relative of the exact one (the worst of
    the degrees 0 to 3 on 400 seeded frames read 1.3e-10).  On
    STAR_CHAIN_FRAME with seed 2 the star of w ^ *phi through the 5 x 5
    minors of g^-1 sat 2.4e-9 off, through the 2 x 2 minors of g 1.6e-12;
    over 2229 drawn frames the worst was 2.8e-10 (cond(a^T a) 8.5e4)."""
    rng = random.Random(seed)
    s = frame_structure(a)
    m, o = s.metric, s.orientation
    forms = [rational_kform(rng, k) for k in range(DIM + 1)]
    stars = [hodge_star(x, m, o) for x in forms]
    for x, want in zip(forms, stars):
        assert want == ref_hodge_star(x, m, o)
        assert hodge_star(x, m, o.reversed()) == -want
    mf, of = metric_from_phi(pullback(phi0(FLOAT), float_frame(a)), FLOAT)
    assert of == o
    w = forms[1]
    for x in (*forms, wedge(w, s.phi), wedge(w, s.star_phi)):
        got = hodge_star(x.as_float(), mf, of)
        assert_float_close(got.coeffs, hodge_star(x, m, o).coeffs, 1e-9)


def test_frame_forms_are_interior_contractions():
    """frame3_7, a signed selection of *phi's coefficients, equals the 7
    interior contractions e_i . *phi literally (types and float bits too)."""
    structures = [model_structure(name, mode) for name in ("t7", "s1xcy3", "t3xk3")
                  for mode in ("exact", "float")]
    structures.append(frame_structure(ILL_CONDITIONED_FRAME))
    float_frame_rows = [[float(x) for x in row] for row in ILL_CONDITIONED_FRAME]
    structures.append(G2Structure(pullback(phi0(FLOAT), float_frame_rows), FLOAT))
    for s in structures:
        want = tuple(interior(basis_vector(i, s.ctx), s.star_phi) for i in range(1, DIM + 1))
        assert s.frame3_7 == want
        assert [[(type(x), repr(x)) for x in w.coeffs] for w in s.frame3_7] \
            == [[(type(x), repr(x)) for x in w.coeffs] for w in want]


# -- the scaled-pair KForm kernels against the Fraction loops they replaced ---


def ref_wedge(a, b):
    """wedge as a loop over lane scalars, before forms kept (num, den)."""
    out = [lane_of(a.coeffs + b.coeffs).zero] * NK[a.degree + b.degree]
    for pa, pb, s, po in exterior._wedge_table(a.degree, b.degree):
        ca = a.coeffs[pa]
        if not ca:
            continue
        cb = b.coeffs[pb]
        if not cb:
            continue
        out[po] += ca * cb if s > 0 else -(ca * cb)
    return KForm(a.degree + b.degree, tuple(out))


def ref_interior(v, a):
    k = a.degree
    out = [lane_of((*a.coeffs, *v)).zero] * NK[k - 1]
    for p, idx in enumerate(BASIS[k]):
        c = a.coeffs[p]
        if not c:
            continue
        for t, i in enumerate(idx):
            vi = v[i - 1]
            if not vi:
                continue
            term = vi * c
            out[exterior.POS[k - 1][idx[:t] + idx[t + 1:]]] += term if t % 2 == 0 else -term
    return KForm(k - 1, tuple(out))


def ref_combine(ctx, degree, terms):
    """The coefficients of sum x * a over (x, coefficient sequence) pairs, as
    exterior._row_sum gives them."""
    out = [ctx.zero] * NK[degree]
    for x, a in terms:
        if x:
            for i, y in enumerate(a):
                if y:
                    out[i] += x * y
    return out


def ref_add(a, b):
    return KForm(a.degree, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def ref_sub(a, b):
    return KForm(a.degree, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def ref_neg(a):
    return KForm(a.degree, tuple(-x for x in a.coeffs))


def ref_mul(a, s):
    return KForm(a.degree, tuple(x * s for x in a.coeffs))


def ref_truediv(a, s):
    if isinstance(s, int):
        s = Fraction(s)
    return KForm(a.degree, tuple(x / s for x in a.coeffs))


def ref_max_abs(a):
    return max((abs(c) for c in a.coeffs), default=0)


# zeros of both signs, small rationals and doubles of every magnitude in [-4, 4]
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
DOUBLES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-4, 4, allow_nan=False, allow_infinity=False))


def lane_forms(degree, lane):
    scalars = RATIONALS if lane == "exact" else DOUBLES
    return st.lists(scalars, min_size=NK[degree], max_size=NK[degree]).map(
        lambda c: KForm(degree, tuple(c)))


def same(got, want):
    """Literally equal: the same values, types and float bits (the sign of zero too)."""
    got = got.coeffs if isinstance(got, KForm) else got
    want = want.coeffs if isinstance(want, KForm) else want
    return [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


@given(st.data(), st.sampled_from(["exact", "float"]), st.sampled_from(["exact", "float"]))
@settings(max_examples=150, deadline=None)
def test_pair_kernels_equal_fraction_loops(data, lane_a, lane_b):
    """wedge, interior, _row_sum and the scalar arithmetic of KForm, on the
    stored (num, den) pairs or the forms' Context.scaled rows, against the Fraction loops they replaced: exact
    results equal literally (Fraction types), float results are
    repr-identical (sign of zero included), and forms of two lanes meet in
    the float lane as Fraction-float arithmetic does."""
    k = data.draw(st.integers(0, 4), label="k")
    l = data.draw(st.integers(0, DIM - k), label="l")
    a = data.draw(lane_forms(k, lane_a), label="a")
    b = data.draw(lane_forms(l, lane_b), label="b")
    c = data.draw(lane_forms(k, lane_b), label="c")
    assert same(wedge(a, b), ref_wedge(a, b))
    for x, y in ((a, c), (c, a)):
        assert same(x + y, ref_add(x, y)) and same(x - y, ref_sub(x, y))
    assert same(-a, ref_neg(a))
    assert same([a.max_abs()], [ref_max_abs(a)])
    scalars = RATIONALS if lane_b == "exact" else DOUBLES
    s = data.draw(st.one_of(st.integers(-6, 6), scalars), label="s")
    assert same(a * s, ref_mul(a, s)) and same(s * a, ref_mul(a, s))
    if s:
        assert same(a / s, ref_truediv(a, s))
    if k:
        v = data.draw(st.lists(scalars, min_size=DIM, max_size=DIM), label="v")
        assert same(interior(v, a), ref_interior(v, a))
    ctx = EXACT if lane_a == "exact" else FLOAT
    forms = data.draw(st.lists(lane_forms(k, lane_a), min_size=1, max_size=5), label="forms")
    xs = data.draw(st.lists(RATIONALS if lane_a == "exact" else DOUBLES,
                            min_size=len(forms), max_size=len(forms)), label="xs")
    (num,), den = ctx.scaled([xs])
    rows, fden = ctx.scaled([f.coeffs for f in forms])
    assert same(KForm._of(k, exterior._row_sum(num, rows, ctx.scaled_zero), den * fden, ctx),
                ref_combine(ctx, k, zip(xs, (f.coeffs for f in forms))))


# -- the symmetric action and Bryant's u/s tables against the loops they replaced


def ref_full_tensor(coeffs):
    """3-form coefficients as a totally antisymmetric 3-tensor lookup
    t[a][b][c] (0-based), as G2Structure built it at construction."""
    t = [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for (i, j, k), c in zip(BASIS[3], coeffs):
        if not c:
            continue
        for (a, b, d), sign in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            t[a - 1][b - 1][d - 1] = c if sign > 0 else -c
    return t


def ref_odot_scaled(rows, den, s):
    """E . phi for E = rows / den (Context.scaled rows) by the three-slot loop
    over phi's tensor (ref_full_tensor) that g2core._odot_scaled ran."""
    t = ref_full_tensor(s.phi.num)
    out = []
    for (i, j, k) in BASIS[3]:
        a, b, c = i - 1, j - 1, k - 1
        acc = s.ctx.scaled_zero
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
    return KForm._of(3, out, den * s.phi.den, s.ctx)


def ref_odot_endo(e, s):
    return ref_odot_scaled(*s.ctx.scaled([[s.ctx.scalar(x) for x in row] for row in e]), s)


def ref_odot(b, s):
    rows, den = s.ctx.scaled([[s.ctx.scalar(x) for x in row] for row in b])
    ginv, gden = _metric_inverse(s.metric)
    return ref_odot_scaled(ratlin.matmul(ginv, rows), gden * den, s)


def ref_ginv_contractions(s):
    """(u, s) = (*(dx_j ^ *phi), *(dx_j ^ phi)) for j = 1..7 as the structure
    built them: one interior call per g^-1 row, then a division."""
    rows, den = _metric_inverse(s.metric)
    return (tuple(ref_interior(row, s.phi) / den for row in rows),
            tuple(ref_interior(row, s.star_phi) / -den for row in rows))


@given(rational_frames(), st.integers(0, 2 ** 16), st.sampled_from(["exact", "float"]))
@settings(max_examples=25, deadline=None)
def test_contraction_kernels_equal_the_loops_they_replaced(a, seed, mode):
    """odot, odot_endo, infinitesimal_action, star_dx_phi, star_dx_star_phi
    and interior of every degree, which all read exterior._interior_table,
    against ref_odot_scaled, ref_ginv_contractions and ref_interior on
    frames of both orientations (rational_frames draws the sign of det a):
    exact results equal literally, float results are repr-identical (types
    and the sign of zero included)."""
    rng = random.Random(seed)
    if mode == "exact":
        s = frame_structure(a)
    else:
        s = G2Structure(pullback(phi0(FLOAT), float_frame(a)), FLOAT)

    def draw():
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return x if mode == "exact" else float(x) * (1 + rng.random())

    assert s.orientation.sign == (1 if ratlin.det_exact(a) > 0 else -1)
    e = [[draw() for _ in range(DIM)] for _ in range(DIM)]
    b = [[None] * DIM for _ in range(DIM)]
    for i, j in _PAIRS:
        b[i][j] = b[j][i] = draw()
    assert same(odot(b, s), ref_odot(b, s))
    assert same(odot_endo(e, s), ref_odot_endo(e, s))
    assert same(infinitesimal_action(e, s), ref_odot_endo([[-x for x in row] for row in e], s))
    u_want, s_want = ref_ginv_contractions(s)
    for got, want in ((s.star_dx_star_phi, u_want), (s.star_dx_phi, s_want)):
        assert [(f.num, f.den) for f in got] == [(f.num, f.den) for f in want]
        assert all(same(f, w) for f, w in zip(got, want))
    for k in range(1, DIM + 1):
        form = KForm(k, tuple(draw() for _ in range(NK[k])))
        v = [draw() if rng.random() < 0.8 else 0 * draw() for _ in range(DIM)]
        assert same(interior(v, form), ref_interior(v, form))


# -- the scaled-pair Metric against the Fraction code it replaced --------------


def ref_leading_minors_positive(rows):
    """Sylvester's criterion as Metric ran it on Fraction rows: one
    Context.det per leading principal minor, seven in all."""
    return all(EXACT.det([row[:n] for row in rows[:n]]) > 0 for n in range(1, DIM + 1))


def ref_metric_is_euclidean(m):
    """_metric_is_euclidean's loop over the metric's rows."""
    return all(m.rows[i][j] == (1 if i == j else 0) for i in range(DIM) for j in range(DIM))


def ref_metric_matches(s, metric, orientation):
    """The metric comparison of G2Structure.check_metric with no equality
    shortcut: the max-abs entry gap over the two metrics' rows."""
    if orientation.sign != s.orientation.sign:
        return False
    diff = max(abs(metric.rows[i][j] - s.metric.rows[i][j]) for i in range(DIM) for j in range(DIM))
    return s.ctx.is_zero(diff, RECOVERY_TOL)


def ref_recover_c_positive(s, coords, c):
    """omega = -g coords / (2c) by a matvec over the metric's rows and the
    frame coordinates as lane scalars."""
    scale = -2 * c
    return KForm(1, tuple(x / scale for x in ratlin.matvec(s.metric.rows, coords)))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational 7x7 matrices L B L^T, L unit lower triangular, so
    that their leading minors are those of B, and then rows and columns
    permuted alike (or not).  B is a positive diagonal (positive definite),
    a diagonal with one negative or one zero entry (indefinite, singular),
    or a positive diagonal with a 2 x 2 block [[0, x], [x, 0]] in it: a zero
    leading minor followed by nonzero ones."""
    kind = draw(st.sampled_from(("definite", "definite", "indefinite", "singular",
                                 "zero minor")))
    b = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        b[i][i] = draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)))
    i = draw(st.integers(0, DIM - 2))
    if kind == "indefinite":
        b[i][i] = -b[i][i]
    elif kind == "singular":
        b[i][i] = Fraction(0)
    elif kind == "zero minor":
        b[i][i] = b[i + 1][i + 1] = Fraction(0)
        b[i][i + 1] = b[i + 1][i] = draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    lower = [[Fraction(int(i == j)) if j >= i else draw(small) for j in range(DIM)]
             for i in range(DIM)]
    g = ratlin.matmul(lower, ratlin.matmul(b, ratlin.transpose(lower)))
    perm = draw(st.permutations(range(DIM))) if draw(st.booleans()) else range(DIM)
    return tuple(tuple(g[p][q] for q in perm) for p in perm)


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_metric_pair_equals_sylvester_reference(rows):
    """One Bareiss pass on the int rows accepts or refuses a symmetric
    rational matrix exactly as seven Fraction determinants do.  An accepted
    one stores a canonical pair (gcd(den, *num) == 1 and den > 0) and reads
    back its rows literally, as Fractions; Metric(rows) equals the metric
    built from its scaled pair, or from a negative multiple of that pair,
    and hashes like it; det g is the pass's last pivot over den^7.  The
    pass (ratlin.definite_det) reads -num as negative definite exactly when
    num is positive definite."""
    positive = ref_leading_minors_positive(rows)
    num, den = EXACT.scaled(rows)
    found = ratlin.definite_det(num)
    assert (found is not None and found[1] == 1) is positive
    # the same pass reads -num as negative definite, and det(-num) = -det(num)
    flipped = ratlin.definite_det([[-x for x in row] for row in num])
    assert (flipped is not None and flipped[1] == -1) is positive
    if positive:
        assert flipped[0] == -found[0] == -ref_det(num)
    if not positive:
        for build in (lambda: Metric(rows), lambda: Metric._of(num, den, EXACT)):
            with pytest.raises(MetricError):
                build()
        return
    m = Metric(rows)
    assert m.rows == rows and all(type(x) is Fraction for row in m.rows for x in row)
    assert all(type(x) is int for row in m.num for x in row)
    assert m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1
    for twin in (Metric._of(num, den, EXACT),
                 Metric._of([[-3 * x for x in row] for row in num], -3 * den, EXACT)):
        assert twin == m and hash(twin) == hash(m)
        assert (twin.num, twin.den) == (m.num, m.den) and twin.rows == rows
    assert exterior._metric_det(m) == ref_det(rows)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_metric_readers_equal_fraction_loops(mode, monkeypatch):
    """is_euclidean, the metric comparison of G2Structure.check_metric and
    bryant._recover_c_positive, which read the metric's stored pair, against
    the loops over its rows they replaced: exact results equal literally,
    float results are repr-identical.  On the three flat models, a
    non-Euclidean frame and a metric 1e-12 off the first model's (inside
    RECOVERY_TOL in the float lane, unequal in the exact lane).  The
    comparison is reached through check_metric on 2 phi, whose B lies
    outside the slack, with g2core's _normalized_metric stubbed to return
    the metric and orientation under test."""
    ctx = Context.of(mode)
    frame = [[ctx.scalar(x) for x in row] for row in ILL_CONDITIONED_FRAME]
    structures = [model_structure(name, mode) for name in ("t7", "s1xcy3", "t3xk3")]
    structures.append(G2Structure(pullback(phi0(ctx), frame), ctx))
    metrics = [s.metric for s in structures]
    nudge = ctx.scalar(Fraction(1, 10 ** 12))
    metrics.append(Metric(tuple(tuple(x + nudge if i == j == 0 else x for j, x in enumerate(row))
                                for i, row in enumerate(metrics[0].rows))))
    rng = random.Random(mode)
    for s in structures:
        for m in metrics:
            assert m.is_euclidean == ref_metric_is_euclidean(m)
            for o in (POSITIVE, NEGATIVE):
                monkeypatch.setattr(g2core, "_normalized_metric", lambda *args: (m, o))
                try:
                    s.check_metric(s.phi * 2)
                    matches = True
                except MetricMismatchError:
                    matches = False
                assert matches == ref_metric_matches(s, m, o)
        for _ in range(3):
            _, (coords, cden) = frame_coordinates(coerce_form(rational_kform(rng, 3), ctx), s)
            c = ctx.scalar(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            want = ref_recover_c_positive(s, [ctx.ratio(x, cden) for x in coords], c)
            assert same(bryant._recover_c_positive(s, coords, cden, c).omega, want)


# -- basis2_14 on first read, lambda from the kept B -------------------------


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_basis2_14_is_built_on_first_read(mode):
    """Construction keeps the 14-space kernel vectors and wraps none of them:
    basis2_14 is built on first read, once, literally equal to the forms
    construction used to build from _split_two_forms."""
    ctx = Context.of(mode)
    a = [[ctx.scalar(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    a[0][1], a[2][5], a[4][4] = ctx.scalar(1), ctx.scalar(Fraction(-1, 2)), ctx.scalar(2)
    s = G2Structure(pullback(phi0(ctx), a), ctx)
    assert "basis2_14" not in s.__dict__
    basis = s.basis2_14
    assert s.basis2_14 is basis
    _, _, eig14 = ref_split_two_forms(s._t_table, _contractions(3, s.phi.num), ctx)
    want = tuple(KForm(2, tuple(v)) for v in eig14)
    assert basis == want and all(same(b, w) for b, w in zip(basis, want))


def ref_odot_inverse_den(s):
    """The earlier lambda of _odot_inverse_table: (rows . Phi)_11 / (3 pden g_11)."""
    rows, _ = s._odot_inverse_table
    b11 = sum(x * s.phi.num[q] for q, x in rows[0])
    return s.ctx.ratio(b11, 3 * s.phi.den * s.metric.rows[0][0])


@given(rational_frames())
@settings(max_examples=6, deadline=None)
def test_odot_inverse_lambda_is_the_kept_contraction_entry(a):
    """B_11(Phi) / (pden g_11) from the contraction matrix kept at
    construction equals the 35-term product it replaced: literally on exact
    frames of both orientations and on the models of both lanes (integer
    phi), and within 1e-12 (relative) on float frames with cond(a^T a) <= 1e5,
    whose non-integer phi sums the same terms in another order (over 1453
    drawn frames 1130 moved, by 1.8e-14 at worst)."""
    flipped = [[-x for x in a[0]]] + a[1:]
    structures = [frame_structure(f) for f in (a, flipped)]
    structures += [model_structure(name, mode) for name in ("t7", "s1xcy3", "t3xk3")
                   for mode in ("exact", "float")]
    for s in structures:
        assert same([s._odot_inverse_table[1]], [ref_odot_inverse_den(s)])
    for f in (a, flipped):
        af = np.asarray(f, dtype=float)
        if np.linalg.cond(af.T @ af) <= 1e5:
            s = G2Structure(pullback(phi0(FLOAT), af.tolist()), FLOAT)
            got, want = s._odot_inverse_table[1], ref_odot_inverse_den(s)
            assert abs(got - want) <= 1e-12 * abs(want)
