"""Stabilizer algebra, normalizers, and holonomy-style membership tests."""
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import g2kit
from g2kit.context import EXACT, FLOAT
from g2kit.errors import (
    BracketClosureError,
    ExactModeError,
    FrameError,
    G2KitError,
    HolonomyError,
)
from g2kit.exterior import DIM, KForm, pullback
from g2kit.g2core import PHI0_ENTRIES, G2Structure, decompose2, infinitesimal_action, phi0
from g2kit.liegroup import (
    HolonomySpec,
    SubalgebraBasis,
    act_on_form,
    bracket,
    coset_tangent_dim,
    g2_algebra_basis,
    is_g2,
    is_so7,
    lie_normalizer,
    matrix_exp,
    matrix_to_two_form,
    nf_member,
    sample_g2,
    sample_so7,
    so7_basis,
    two_form_to_matrix,
)
from g2kit.liegroup import _bracket_vec, _build_g2_algebra_basis
from g2kit.bryant import derivative_rank
from g2kit.models import flat_model, gamma_sample, holonomy_sample, model_structure
from g2kit import ratlin
from g2kit.sampling import float_antisymmetric, rational_kform

IDENTITY = tuple(tuple(Fraction(1 if i == j else 0) for j in range(DIM)) for i in range(DIM))


def unit_e(i, j):
    # E_ij = e_i e_j^T - e_j e_i^T, 1-based
    m = [[Fraction(0)] * DIM for _ in range(DIM)]
    m[i - 1][j - 1] = Fraction(1)
    m[j - 1][i - 1] = Fraction(-1)
    return tuple(tuple(r) for r in m)


def plane_rotation(i, j, theta):
    m = [[1.0 if a == b else 0.0 for b in range(DIM)] for a in range(DIM)]
    m[i - 1][i - 1] = math.cos(theta)
    m[j - 1][j - 1] = math.cos(theta)
    m[i - 1][j - 1] = -math.sin(theta)
    m[j - 1][i - 1] = math.sin(theta)
    return tuple(tuple(r) for r in m)


def test_algebra_dimension_and_kernel(s):
    basis = g2_algebra_basis(s)
    assert basis.dim == 14
    assert basis.is_exact
    for m in basis.matrices:
        assert infinitesimal_action(m, s).max_abs() == 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_algebra_basis_is_built_once_per_structure(mode):
    """A repeated call returns the same object, equal to a fresh verified build;
    another structure of the same form gets its own basis."""
    ctx = g2kit.Context.of(mode)
    s = G2Structure(phi0(ctx), ctx)
    basis = g2_algebra_basis(s)
    assert g2_algebra_basis(s) is basis
    assert basis.matrices == _build_g2_algebra_basis(s).matrices
    other = G2Structure(phi0(ctx), ctx)
    assert g2_algebra_basis(other) is not basis
    assert g2_algebra_basis(other).matrices == basis.matrices


def test_algebra_is_bracket_closed(s):
    basis = g2_algebra_basis(s)
    vecs = [[m[i][j] for i in range(DIM) for j in range(i + 1, DIM)]
            for m in basis.matrices]
    for a in basis.matrices:
        for b in basis.matrices:
            br = bracket([list(r) for r in a], [list(r) for r in b])
            vecs.append([br[i][j] for i in range(DIM) for j in range(i + 1, DIM)])
    assert EXACT.rank(vecs) == 14


def test_unit_generators_do_not_kill_phi(s):
    out = infinitesimal_action(unit_e(1, 2), s)
    assert out.max_abs() != 0
    d = decompose2(matrix_to_two_form(unit_e(1, 2)), s)
    assert d.p7.max_abs() != 0


def test_algebra_is_self_normalizing(s):
    n = lie_normalizer(so7_basis(EXACT), g2_algebra_basis(s))
    assert n.dim == 14


def test_plane_rotation_normalizer():
    # so(2) + so(5) inside so(7)
    sub = SubalgebraBasis((unit_e(1, 2),))
    n = lie_normalizer(so7_basis(EXACT), sub)
    assert n.dim == 11


def test_normalizer_rejects_open_bracket():
    sub = SubalgebraBasis((unit_e(1, 2), unit_e(1, 3)))
    with pytest.raises(BracketClosureError):
        lie_normalizer(so7_basis(EXACT), sub)


def test_subalgebra_basis_validation():
    with pytest.raises(ValueError):
        SubalgebraBasis((IDENTITY,))
    with pytest.raises(ValueError):
        SubalgebraBasis((unit_e(1, 2), unit_e(1, 2)))


def test_membership_literals():
    assert is_so7(IDENTITY)
    assert is_g2(IDENTITY)
    r = plane_rotation(1, 2, math.pi / 5)
    assert is_so7(r)
    assert not is_g2(r)
    assert not is_so7([[2 if i == j else 0 for j in range(DIM)] for i in range(DIM)])


def test_exponential_of_algebra_element_fixes_phi(rng):
    for _ in range(3):
        g = sample_g2(rng)
        assert is_so7(g, 1e-9)
        assert is_g2(g, 1e-9)
    h = sample_so7(rng)
    assert is_so7(h, 1e-9)


def test_action_composes(rng):
    a = rational_kform(rng, 3).as_float()
    g = sample_g2(rng)
    h = sample_so7(rng)
    gh = ratlin.matmul([list(r) for r in g], [list(r) for r in h])
    lhs = act_on_form(gh, a)
    rhs = act_on_form(g, act_on_form(h, a))
    assert lhs.isclose(rhs, 1e-9)


def test_action_on_identity_matrix(s):
    a = rational_kform(random.Random(7), 4)
    assert act_on_form(IDENTITY, a) == a


@pytest.mark.parametrize("lane", [EXACT, FLOAT])
def test_action_of_a_singular_matrix_is_refused_in_both_lanes(lane):
    rank_one = [[lane.scalar(i * j) for j in range(1, DIM + 1)] for i in range(1, DIM + 1)]
    with pytest.raises(G2KitError, match="matrix is singular"):
        act_on_form(rank_one, phi0(lane))
    assert not is_so7(rank_one)


def test_matrix_exp_guards():
    with pytest.raises(ExactModeError):
        matrix_exp(unit_e(1, 2))
    z = matrix_exp([[0.0] * DIM for _ in range(DIM)])
    assert all(z[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)
               for i in range(DIM) for j in range(DIM))
    not_antisymmetric = [[0.0] * DIM for _ in range(DIM)]
    not_antisymmetric[0][1], not_antisymmetric[1][0] = 0.5, -0.5 + 2.0 ** -40
    for bad in (not_antisymmetric, [[float(i == j) for j in range(DIM)] for i in range(DIM)]):
        with pytest.raises(ValueError, match="antisymmetric"):
            matrix_exp(bad)
    infinite = [[0.0] * DIM for _ in range(DIM)]
    infinite[0][1], infinite[1][0] = math.inf, -math.inf
    nan = [[0.0] * DIM for _ in range(DIM)]
    nan[2][3], nan[3][2] = math.nan, math.nan
    for bad in (infinite, nan):
        with pytest.raises(ValueError, match="finite antisymmetric"):
            matrix_exp(bad)


@pytest.mark.parametrize("span", [1.0, 3.0])
def test_matrix_exp_matches_scipy_expm(span):
    """The eigh exponential agrees with scipy's expm, the exponential it
    replaced, within 1e-13 on random antisymmetric inputs."""
    expm = pytest.importorskip("scipy.linalg").expm
    rng = random.Random(23)
    for _ in range(200):
        a = float_antisymmetric(rng, span)
        got = np.asarray(matrix_exp(a))
        assert np.abs(got - expm(np.asarray(a))).max() <= 1e-13
        assert is_so7(got.tolist(), 1e-13)


def test_two_form_matrix_roundtrip(rng):
    beta = rational_kform(rng, 2)
    m = two_form_to_matrix(beta)
    assert all(m[i][j] == -m[j][i] for i in range(DIM) for j in range(DIM))
    assert matrix_to_two_form(m) == beta


def test_algebra_needs_euclidean_metric():
    stretch = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
               for i in range(DIM)]
    crooked = G2Structure(pullback(phi0(), stretch))
    with pytest.raises(FrameError):
        g2_algebra_basis(crooked)


def test_holonomy_spec_validation():
    assert HolonomySpec.trivial().count == 0
    with pytest.raises(HolonomyError):
        HolonomySpec(([[2.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)],))


def test_membership_against_trivial_holonomy(rng):
    h = HolonomySpec.trivial()
    assert nf_member(IDENTITY, h)
    assert nf_member(sample_so7(rng), h)
    with pytest.raises(HolonomyError):
        nf_member([[2.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)], h)


def test_membership_against_stabilizer_generators(rng):
    inside = HolonomySpec((sample_g2(rng), sample_g2(rng)))
    assert nf_member(IDENTITY, inside)
    assert nf_member(sample_g2(rng), inside)
    outside = HolonomySpec((plane_rotation(1, 2, math.pi / 5),))
    assert not nf_member(IDENTITY, outside)


def test_coset_dimension_trivial(s):
    assert coset_tangent_dim(HolonomySpec.trivial(), s) == 7


def test_coset_dimension_dense_sample(s, rng):
    h = HolonomySpec(tuple(sample_g2(rng) for _ in range(3)))
    assert coset_tangent_dim(h, s) == 0


def test_coset_requires_admissible_generators(s):
    h = HolonomySpec((plane_rotation(1, 2, math.pi / 5),))
    with pytest.raises(HolonomyError):
        coset_tangent_dim(h, s)


# -- the integer exact lane against the projector-based reference -------------
#
# ref_lie_normalizer and ref_coset_tangent_dim keep the earlier exact lane: a
# least-squares projector through the inverse Gram matrix of the sub span,
# dense Fraction brackets, and residual columns.  The integer lane must return
# literally equal matrices and counts.


def ref_residual(vecs, gram_inv, v):
    if not vecs:
        return list(v)
    rhs = [sum(x * y for x, y in zip(b, v)) for b in vecs]
    coords = ratlin.matvec(gram_inv, rhs)
    out = list(v)
    for c, b in zip(coords, vecs):
        if c:
            out = [o - c * x for o, x in zip(out, b)]
    return out


def ref_projector(vecs):
    vecs = [list(v) for v in vecs]
    if not vecs:
        return vecs, None
    gram = [[sum(x * y for x, y in zip(a, b)) for b in vecs] for a in vecs]
    return vecs, EXACT.inv(gram)


def vec_so(rows):
    return [rows[i][j] for i in range(DIM) for j in range(i + 1, DIM)]


def ref_lie_normalizer(ambient, sub):
    vecs, gram_inv = ref_projector([vec_so(m) for m in sub.matrices])
    for i, a in enumerate(sub.matrices):
        for b in sub.matrices[i + 1:]:
            res = ref_residual(vecs, gram_inv, vec_so(bracket(a, b)))
            if any(r != 0 for r in res):
                raise BracketClosureError("sub basis is not closed under the bracket")
    columns = []
    for e in ambient.matrices:
        col = []
        for smat in sub.matrices:
            col.extend(ref_residual(vecs, gram_inv, vec_so(bracket(e, smat))))
        columns.append(col)
    if not columns or not columns[0]:
        return ambient
    constraint = [[columns[a][r] for a in range(len(columns))] for r in range(len(columns[0]))]
    mats = []
    for coeffs in EXACT.nullspace(constraint):
        acc = [[Fraction(0)] * DIM for _ in range(DIM)]
        for c, e in zip(coeffs, ambient.matrices):
            if c:
                for i in range(DIM):
                    for j in range(DIM):
                        if e[i][j]:
                            acc[i][j] += c * e[i][j]
        mats.append(tuple(tuple(r) for r in acc))
    return SubalgebraBasis(tuple(mats))


def ref_coset_tangent_dim(h, s):
    g2b = g2_algebra_basis(s)
    vecs, gram_inv = ref_projector([vec_so(m) for m in g2b.matrices])
    if h.count == 0:
        return 21 - g2b.dim
    columns = []
    for e in so7_basis(EXACT).matrices:
        col = []
        for gen in h.generators:
            grows = [list(r) for r in gen]
            moved = ratlin.matmul(ratlin.matmul(EXACT.inv(grows), e), grows)
            diff = ratlin.mat_sub(e, moved)
            sym = [[(diff[i][j] - diff[j][i]) / 2 for j in range(DIM)] for i in range(DIM)]
            col.extend(ref_residual(vecs, gram_inv, vec_so(sym)))
        columns.append(col)
    constraint = [[columns[a][r] for a in range(len(columns))] for r in range(len(columns[0]))]
    return len(EXACT.nullspace(constraint)) - g2b.dim


def unvec_so(vec):
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for v, (i, j) in zip(vec, ((i, j) for i in range(DIM) for j in range(i + 1, DIM))):
        rows[i][j] = v
        rows[j][i] = -v
    return rows


so_coords = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6)
                     | st.integers(-3, 3), min_size=21, max_size=21)


@given(so_coords, so_coords)
@settings(max_examples=40, deadline=None)
def test_table_bracket_matches_dense_bracket(u, v):
    assert _bracket_vec(u, v) == vec_so(bracket(unvec_so(u), unvec_so(v)))


def test_table_bracket_on_units():
    units = so7_basis(EXACT).matrices
    for p, a in enumerate(units):
        for q, b in enumerate(units):
            u = [int(r == p) for r in range(21)]
            v = [int(r == q) for r in range(21)]
            assert _bracket_vec(u, v) == vec_so(bracket(a, b))


def coordinate_so(indices):
    """so(k) on the coordinate axes in `indices` (0-based), inside so(7)."""
    return SubalgebraBasis(tuple(unit_e(i + 1, j + 1) for i in indices for j in indices if i < j))


def assert_same_basis(got, want):
    assert got.matrices == want.matrices
    assert all(type(x) is type(y) for m, n in zip(got.matrices, want.matrices)
               for r, t in zip(m, n) for x, y in zip(r, t))


@pytest.mark.parametrize("case", ["so7_g2", "g2_g2", "so7_e12"])
def test_normalizer_equals_projector_reference(s, case):
    g2 = g2_algebra_basis(s)
    ambient, sub = {
        "so7_g2": (so7_basis(EXACT), g2),
        "g2_g2": (g2, g2),
        "so7_e12": (so7_basis(EXACT), SubalgebraBasis((unit_e(1, 2),))),
    }[case]
    assert_same_basis(lie_normalizer(ambient, sub), ref_lie_normalizer(ambient, sub))


@given(st.lists(st.integers(0, DIM - 1), min_size=2, max_size=5, unique=True))
@settings(max_examples=6, deadline=None)
def test_normalizer_of_coordinate_subalgebra(indices):
    sub = coordinate_so(indices)
    k = len(indices)
    got = lie_normalizer(so7_basis(EXACT), sub)
    assert_same_basis(got, ref_lie_normalizer(so7_basis(EXACT), sub))
    # for k >= 2 the normalizer of so(k) is so(k) + so(7 - k)
    assert got.dim == k * (k - 1) // 2 + (DIM - k) * (DIM - k - 1) // 2


def test_normalizer_edge_spans():
    so7 = so7_basis(EXACT)
    # sub = so(7): the annihilator is empty; the reference's constraint is all
    # zero, so its kernel basis is the unit vectors and it returns the E_ij
    assert_same_basis(lie_normalizer(so7, so7), so7)
    assert lie_normalizer(so7, SubalgebraBasis(())) is so7
    empty = SubalgebraBasis(())
    assert lie_normalizer(empty, coordinate_so([0, 1])) is empty


@given(st.lists(st.integers(0, DIM - 1), min_size=3, max_size=DIM, unique=True))
@settings(max_examples=15, deadline=None)
def test_normalizer_rejects_non_closed_subs(indices):
    # so(k) on some axes plus one unit reaching out of them: [E_ji, E_io] = E_jo is missing
    *inside, out = indices
    opened = SubalgebraBasis(coordinate_so(inside).matrices + (unit_e(inside[0] + 1, out + 1),))
    with pytest.raises(BracketClosureError):
        lie_normalizer(so7_basis(EXACT), opened)
    with pytest.raises(BracketClosureError):
        ref_lie_normalizer(so7_basis(EXACT), opened)


# -- coset_tangent_dim on exact signed permutations in G2 ----------------------


def _phi0_values():
    """phi0(e_a, e_b, e_c) on ordered 0-based triples, zero ones left out."""
    values = {}
    for idx, c in PHI0_ENTRIES.items():
        for perm in permutations(range(3)):
            parity = sum(1 for x in range(3) for y in range(x + 1, 3) if perm[x] > perm[y]) % 2
            values[tuple(idx[k] - 1 for k in perm)] = -c if parity else c
    return values


@lru_cache(maxsize=None)
def signed_permutations_in_g2():
    """Every g with g e_i = eps_i e_sigma(i) fixing phi0: phi0(g e_i, g e_j, g e_k) = phi0_ijk."""
    values = _phi0_values()
    triples = [t for t in values if t[0] < t[1] < t[2]]
    found = []
    for sigma in permutations(range(DIM)):
        moved = [values.get((sigma[a], sigma[b], sigma[c]), 0) for (a, b, c) in triples]
        if not all(moved):
            continue
        for signs in product((1, -1), repeat=DIM):
            if all(signs[a] * signs[b] * signs[c] * m == values[(a, b, c)]
                   for (a, b, c), m in zip(triples, moved)):
                g = [[Fraction(0)] * DIM for _ in range(DIM)]
                for i in range(DIM):
                    g[sigma[i]][i] = Fraction(signs[i])
                found.append(tuple(tuple(r) for r in g))
    return tuple(found)


def test_signed_permutation_group_of_phi0():
    # 2^3 sign changes extended by the 168 collineations of the Fano plane
    group = signed_permutations_in_g2()
    assert len(group) == 1344
    assert all(is_g2(g) for g in group[::97])


@given(st.lists(st.integers(0, 1343), min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_coset_dimension_equals_projector_reference(s, picks):
    group = signed_permutations_in_g2()
    h = HolonomySpec(tuple(group[i] for i in picks))
    assert coset_tangent_dim(h, s) == ref_coset_tangent_dim(h, s)


# -- the float lane against the earlier float path ------------------------------
#
# ref_float_lie_normalizer and ref_float_coset_tangent_dim keep the earlier
# float lane: a pseudo-inverse projector onto the sub span, dense float
# brackets and conjugations, and residual columns.  The float lane now runs
# the exact lane's annihilator code; both must give the same dimensions and
# span the same spaces (rank of the stacked bases at the 1e-8 cutoff).


class RefSpanProjector:
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


def float_rows(m):
    return [[float(x) for x in row] for row in m]


def ref_float_lie_normalizer(ambient, sub, tol=1e-8):
    proj = RefSpanProjector([vec_so(float_rows(m)) for m in sub.matrices])
    for i, a in enumerate(sub.matrices):
        for b in sub.matrices[i + 1:]:
            res = proj.residual(vec_so(bracket(float_rows(a), float_rows(b))))
            if max(abs(r) for r in res) > tol:
                raise BracketClosureError("sub basis is not closed under the bracket")
    columns = [sum((proj.residual(vec_so(bracket(float_rows(e), float_rows(m))))
                    for m in sub.matrices), []) for e in ambient.matrices]
    if not columns or not columns[0]:
        return [vec_so(m) for m in ambient.matrices]
    constraint = np.asarray(columns).T
    return [list(np.asarray(c) @ np.asarray([vec_so(float_rows(e)) for e in ambient.matrices]))
            for c in ratlin.nullspace_float(constraint)]


def ref_float_coset_tangent_dim(h, s):
    g2b = g2_algebra_basis(s)
    proj = RefSpanProjector([vec_so(float_rows(m)) for m in g2b.matrices])
    if h.count == 0:
        return 21 - g2b.dim
    columns = []
    for e in so7_basis(FLOAT).matrices:
        col = []
        for gen in h.generators:
            grows = float_rows(gen)
            moved = ratlin.matmul(ratlin.matmul(ratlin.transpose(grows), float_rows(e)), grows)
            diff = ratlin.mat_sub(float_rows(e), moved)
            sym = [[(diff[i][j] - diff[j][i]) / 2 for j in range(DIM)] for i in range(DIM)]
            col.extend(proj.residual(vec_so(sym)))
        columns.append(col)
    return len(ratlin.nullspace_float(np.asarray(columns).T)) - g2b.dim


def assert_same_span(got, want_vecs):
    got_vecs = [vec_so(m) for m in got.matrices]
    assert got.dim == len(want_vecs)
    assert ratlin.rank_float(got_vecs + want_vecs) == got.dim


def float_subalgebra(basis):
    return SubalgebraBasis(tuple(float_rows(m) for m in basis.matrices))


@pytest.mark.parametrize("case", ["so7_g2", "so7_e12"])
def test_float_normalizer_spans_projector_reference(sf, case):
    ambient, sub = {
        "so7_g2": (so7_basis(FLOAT), g2_algebra_basis(sf)),
        "so7_e12": (so7_basis(FLOAT), float_subalgebra(SubalgebraBasis((unit_e(1, 2),)))),
    }[case]
    got = lie_normalizer(ambient, sub)
    assert not got.is_exact
    assert_same_span(got, ref_float_lie_normalizer(ambient, sub))
    assert got.dim == {"so7_g2": 14, "so7_e12": 11}[case]


@given(st.lists(st.integers(0, DIM - 1), min_size=2, max_size=5, unique=True))
@settings(max_examples=6, deadline=None)
def test_float_normalizer_of_coordinate_subalgebra(indices):
    sub = float_subalgebra(coordinate_so(indices))
    k = len(indices)
    got = lie_normalizer(so7_basis(FLOAT), sub)
    assert_same_span(got, ref_float_lie_normalizer(so7_basis(FLOAT), sub))
    assert got.dim == k * (k - 1) // 2 + (DIM - k) * (DIM - k - 1) // 2


@given(st.lists(st.integers(0, DIM - 1), min_size=3, max_size=DIM, unique=True))
@settings(max_examples=8, deadline=None)
def test_float_normalizer_rejects_non_closed_subs(indices):
    *inside, out = indices
    opened = float_subalgebra(SubalgebraBasis(
        coordinate_so(inside).matrices + (unit_e(inside[0] + 1, out + 1),)))
    with pytest.raises(BracketClosureError):
        lie_normalizer(so7_basis(FLOAT), opened)
    with pytest.raises(BracketClosureError):
        ref_float_lie_normalizer(so7_basis(FLOAT), opened)


# -- exact holonomy samples against the float sample they replaced -------------
#
# ref_float_holonomy_sample keeps the float holonomy sample that
# models.holonomy_sample drew before its generators were exact: exponentials
# of random combinations of the block special-unitary algebra.  It takes the
# same rng draws, so both samplers leave the rng in the same state.


def ref_embed_complex(x, offset, blocks):
    """Real 7x7 image of a complex matrix on the coordinate pairs from the
    0-based offset on: z_a lives on (offset + 2a, offset + 2a + 1)."""
    out = np.zeros((DIM, DIM))
    for a in range(blocks):
        for b in range(blocks):
            r, c = offset + 2 * a, offset + 2 * b
            out[r:r + 2, c:c + 2] = [[x[a, b].real, -x[a, b].imag], [x[a, b].imag, x[a, b].real]]
    return out


def ref_special_unitary_blocks(label):
    """i times the Gell-Mann matrices on coordinates 2..7 (su3) or the Pauli
    matrices on coordinates 4..7 (su2), as real antisymmetric matrices."""
    def herm(n, entries):
        m = np.zeros((n, n), dtype=complex)
        for (i, j), v in entries.items():
            m[i, j] = v
        return m

    if label == "su2":
        pauli = [herm(2, {(0, 1): 1, (1, 0): 1}), herm(2, {(0, 1): -1j, (1, 0): 1j}),
                 herm(2, {(0, 0): 1, (1, 1): -1})]
        return [ref_embed_complex(1j * x, 3, 2) for x in pauli]
    gell_mann = [herm(3, {(0, 1): 1, (1, 0): 1}), herm(3, {(0, 1): -1j, (1, 0): 1j}),
                 herm(3, {(0, 0): 1, (1, 1): -1}), herm(3, {(0, 2): 1, (2, 0): 1}),
                 herm(3, {(0, 2): -1j, (2, 0): 1j}), herm(3, {(1, 2): 1, (2, 1): 1}),
                 herm(3, {(1, 2): -1j, (2, 1): 1j}),
                 np.diag([1, 1, -2]).astype(complex) / np.sqrt(3)]
    return [ref_embed_complex(1j * x, 1, 3) for x in gell_mann]


def ref_float_holonomy_sample(m, rng, count=3):
    if m.holonomy_label == "trivial":
        return HolonomySpec.trivial()
    basis = ref_special_unitary_blocks(m.holonomy_label)
    gens = []
    for _ in range(count):
        acc = np.zeros((DIM, DIM))
        for b in basis:
            acc += rng.uniform(-1.0, 1.0) * b
        gens.append(matrix_exp(acc.tolist()))
    return HolonomySpec(tuple(gens))


@pytest.mark.parametrize("kind", ["s1xcy3", "t3xk3"])
@pytest.mark.parametrize("seed", range(6))
def test_float_coset_dimension_equals_reference_and_b1(s, sf, kind, seed):
    m = flat_model(kind)
    h = ref_float_holonomy_sample(m, random.Random(seed))
    for structure in (s, sf):
        got = coset_tangent_dim(h, structure)
        assert got == ref_float_coset_tangent_dim(h, structure) == m.b1


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_exact_holonomy_sample_counts_as_the_float_sample_did(s, kind):
    """On seeds 0-39 the exact sample's coset count is the float reference
    sample's, and both samplers leave the rng in the same state (8 draws per
    su(3) generator, 3 per su(2) generator).  On seeds 0-2 the projector
    reference counts the exact sample too."""
    m = flat_model(kind)
    for seed in range(40):
        exact_rng, float_rng = random.Random(seed), random.Random(seed)
        h = holonomy_sample(m, exact_rng)
        ref = ref_float_holonomy_sample(m, float_rng)
        assert exact_rng.getstate() == float_rng.getstate()
        assert coset_tangent_dim(h, s) == coset_tangent_dim(ref, s) == m.b1
        if seed < 3:
            assert ref_coset_tangent_dim(h, s) == m.b1


@pytest.mark.parametrize("kind", ["s1xcy3", "t3xk3"])
def test_exact_holonomy_generators_are_checked_literally(s, kind):
    """Every exact generator is a Fraction matrix in SO(7) and G2 with no
    tolerance; moving one entry by 10^-30 is refused by HolonomySpec."""
    m = flat_model(kind)
    for seed in range(10):
        h = holonomy_sample(m, random.Random(seed))
        assert h.count == 3
        for g in h.generators:
            assert all(type(x) is Fraction for row in g for x in row)
            assert is_so7(g, 0.0) and is_g2(g, 0.0)
        moved = [list(row) for row in h.generators[0]]
        moved[1][1] += Fraction(1, 10 ** 30)
        assert not is_so7(moved)
        with pytest.raises(HolonomyError):
            HolonomySpec((moved,))


@pytest.mark.parametrize("kind", ["t7", "s1xcy3", "t3xk3"])
def test_first_betti_number_three_ways(s, kind):
    """b1 of the model table, literally, three ways: the common fixed space
    of the exact generators is spanned by dx1..dx_b1 (the twist directions),
    the coset count, and the derivative rank of the twist at a point."""
    m = flat_model(kind)
    rng = random.Random(5)
    point = gamma_sample(m, rng)
    h = holonomy_sample(m, rng)
    eye = ratlin.identity(DIM)
    moved = [row for g in h.generators for row in ratlin.mat_sub(g, eye)]
    fixed = EXACT.nullspace(moved or [[0] * DIM])
    assert sorted(fixed) == sorted(eye[i - 1] for i in m.omega_indices)
    assert len(fixed) == coset_tangent_dim(h, s) == m.b1
    assert derivative_rank(model_structure(kind), point.params, m.b1) == m.b1


# -- numpy, scipy and the selftest load on first use, not on import ------------

_NO_SCIPY = """
import ast
import io
import json
import sys
from pathlib import Path
from fractions import Fraction
import g2kit, g2kit.cli
from g2kit.errors import ExactModeError
from g2kit.serialize import kform_to_json


def cli(argv, stdin=""):
    sys.stdin = io.StringIO(stdin)
    try:
        return g2kit.cli.main(argv)
    finally:
        sys.stdin = sys.__stdin__


def unloaded(*names):
    loaded = sorted(m for m in sys.modules for n in names if m == n or m.startswith(n + "."))
    assert not loaded, loaded[:3]


code = cli(["twist", "--c", "3/5", "--omega",
            '{"degree": 1, "entries": [{"idx": [1], "coeff": "4/5"}]}'])
assert code == 0, code
unloaded("scipy", "numpy", "g2kit.selftest")
identity = {"shape": [7, 7], "entries": [str(int(i == j)) for i in range(7) for j in range(7)]}
phit = g2kit.twist(g2kit.standard_structure(), g2kit.TwistParams(
    Fraction(3, 5), g2kit.KForm.from_entries(1, {(2,): Fraction(4, 5)})))
for argv, stdin, want in [
    (["decompose", "--degree", "2", "-"],
     '{"degree": 2, "entries": [{"idx": [1, 2], "coeff": "1/2"}, {"idx": [3, 5], "coeff": "-2"}]}', 0),
    (["g2check", "-"], json.dumps(identity), 0),
    (["recover", "-"], json.dumps(kform_to_json(phit)), 0),
    (["normalizer"], "", 0),
    (["demo", "--model", "t7", "--mode", "exact"], "", 0),
    (["demo", "--model", "s1xcy3", "--mode", "exact"], "", 0),
    (["demo", "--model", "t3xk3", "--mode", "exact"], "", 0),
    (["g2check", "-"], json.dumps({"shape": [6, 6], "entries": ["0"] * 36}), 2),
]:
    code = cli(argv, stdin)
    assert code == want, (argv, code)
    unloaded("scipy", "numpy", "g2kit.selftest")
try:
    g2kit.matrix_exp([[0] * 7 for _ in range(7)])
except ExactModeError:
    pass
else:
    raise AssertionError("exact input reached the exponential")
unloaded("scipy", "numpy")
code = cli(["decompose", "--degree", "3", "--mode", "float", "-"],
           '{"degree": 3, "entries": [{"idx": [1, 2, 3], "coeff": 0.5}, {"idx": [1, 4, 5], "coeff": -0.25}]}')
assert code == 0, code
assert "numpy" in sys.modules
unloaded("scipy", "g2kit.selftest")
assert cli(["demo", "--model", "s1xcy3", "--mode", "float"]) == 0
A = [[0.0] * 7 for _ in range(7)]
A[0][1], A[1][0] = 0.3, -0.3
g = g2kit.matrix_exp(A)
assert g2kit.is_so7(g, 1e-12) and abs(g[0][0] - 0.955336489125606) < 1e-12
unloaded("scipy", "g2kit.selftest")
for path in Path(g2kit.__file__).parent.glob("*.py"):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
            [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)
from g2kit import CheckResult, run_selftest
assert run_selftest.__module__ == CheckResult.__module__ == "g2kit.selftest"
namespace = {}
exec("from g2kit import *", namespace)
assert namespace["run_selftest"] is run_selftest and namespace["CheckResult"] is CheckResult
assert set(g2kit.__all__) <= set(namespace)
"""


def test_import_and_cli_leave_scipy_unloaded(fresh_python):
    """A cold `import g2kit` and the exact CLI subcommands, `demo` on all
    three models included, load neither numpy, scipy nor the selftest; the
    first float-lane call loads numpy; a float `demo --model s1xcy3` and
    matrix_exp load no scipy, no g2kit module imports it, and both selftest
    names still import."""
    fresh_python(_NO_SCIPY)
