"""The standard 3-form: induced metric, spectra, decompositions, tensor action."""
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import ratlin
from g2kit.bryant import TwistParams, recover, twist
from g2kit.context import EXACT, FLOAT, Context, rational_nth_root
from g2kit.errors import (
    DecompositionError,
    DegreeError,
    ExactModeError,
    FrameError,
    G2KitError,
    MetricError,
    NotG2FormError,
)
from g2kit.exterior import (
    BASIS,
    DIM,
    NK,
    KForm,
    Metric,
    basis_vector,
    coerce_form,
    form_inner,
    interior,
    pullback,
    wedge,
)
from g2kit.g2core import (
    _LAZY_TABLES,
    PHI0_ENTRIES,
    G2Structure,
    SymTensor,
    _contraction_matrix,
    _normalized_metric,
    decompose2,
    decompose3,
    infinitesimal_action,
    is_g2_form,
    metric_from_phi,
    odot,
    odot_endo,
    odot_inverse,
    odot_local,
    phi0,
    standard_structure,
    symmetric_basis,
    triple_star_sign,
)
from g2kit.liegroup import matrix_exp, act_on_form, two_form_to_matrix
from g2kit.sampling import rational_kform, rational_symmetric
from g2kit.serialize import canonical_json, g2structure_from_json, g2structure_to_json
from test_kernels import ref_solve

PHI_INDICES = {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
               (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1}
STAR_PHI_INDICES = {(4, 5, 6, 7): 1, (2, 3, 6, 7): 1, (2, 3, 4, 5): 1, (1, 3, 5, 7): 1,
                    (1, 3, 4, 6): -1, (1, 2, 5, 6): -1, (1, 2, 4, 7): -1}


def forms3():
    coeff = st.integers(min_value=-6, max_value=6).map(lambda p: Fraction(p, 2))
    return st.lists(coeff, min_size=NK[3], max_size=NK[3]).map(
        lambda v: KForm(3, tuple(v)))


def forms2():
    coeff = st.integers(min_value=-6, max_value=6).map(lambda p: Fraction(p, 2))
    return st.lists(coeff, min_size=NK[2], max_size=NK[2]).map(
        lambda v: KForm(2, tuple(v)))


# -- phi0 and the induced metric --------------------------------------------


def test_phi0_entries_frozen():
    p = phi0()
    for idx, val in PHI_INDICES.items():
        assert p.coeff(idx) == val
    assert sum(1 for c in p.coeffs if c != 0) == 7


def test_star_phi_frozen(s):
    for idx, val in STAR_PHI_INDICES.items():
        assert s.star_phi.coeff(idx) == val
    assert sum(1 for c in s.star_phi.coeffs if c != 0) == 7


def test_metric_from_phi0_is_euclidean(s, sf):
    """phi0 induces g = I literally in both lanes: the float determinant of
    B = 6 I is 6.0 ** 7 and the normalization divides by 6.0, so a float
    structure of phi0 takes the Euclidean branches, as an exact one does."""
    for ctx, st in ((EXACT, s), (FLOAT, sf)):
        g, o = metric_from_phi(phi0(ctx), ctx)
        assert o.sign == 1
        assert g.is_euclidean and st.metric.is_euclidean
        assert all(g.rows[i][j] == (1 if i == j else 0) for i in range(DIM) for j in range(DIM))
        assert form_inner(st.phi, st.phi, st.metric) == 7
    assert type(form_inner(sf.phi, sf.phi, sf.metric)) is float


def test_describe_reports_lane_spectrum_metric_and_built_tables():
    """describe() in both lanes, on phi0, on -phi0 and on a non-Euclidean
    frame: it keeps its keys, and lists each lazy table once built.  Its
    lambda7 and lambda14 are the split's first read, so the T table and the
    split are built by then and `built` lists them; it builds no other
    table.  recover bounds only a residual that is not literally zero: the
    float twist here misses its re-twist in the last bits, so the float lane
    builds the residual bound's slack and terms, and the exact lane never
    does."""
    frame = [[2 if i == j == 0 else int(i == j) for j in range(DIM)] for i in range(DIM)]
    split = ["_t_table", "_split"]
    for ctx in (EXACT, FLOAT):
        cases = ((phi0(ctx), 1, True), (phi0(ctx) * -1, -1, True),
                 (pullback(phi0(ctx), frame), 1, False))
        for phi, sign, euclidean in cases:
            s = G2Structure(phi, ctx)
            info = s.describe()
            assert info == {"lane": ctx.mode, "orientation": sign, "lambda7": s.lambda7,
                            "lambda14": s.lambda14, "euclidean": euclidean, "built": split}
            assert type(info["lambda7"]) is type(ctx.one)
            assert (info["lambda7"], info["lambda14"]) == (2, -1)
            decompose3(phi, s)
            assert s.describe()["built"] == [*split, "frame3_7", "_frame_table"]
            s.basis2_7
            assert s.describe()["built"] == [*split, "basis2_7", "frame3_7", "_frame_table"]
            # recover's re-twist builds the polarized table, and its
            # residual bound the slack and the bound's terms on a float
            # residual; |dx_2|_g = 1 in all three cases
            p = TwistParams(ctx.scalar(Fraction(3, 5)),
                            KForm.from_entries(1, {(2,): Fraction(4, 5)}, ctx))
            rec = recover(s, twist(s, p))
            assert (rec.residual == 0) is ctx.is_exact
            slack = [] if ctx.is_exact else ["_contraction_slack", "_retwist_terms"]
            assert s.describe()["built"] == [*split, "basis2_7", *slack, "frame3_7", "_frame_table",
                                             "star_dx_star_phi", "star_dx_phi", "polarized_table"]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_construction_round_trip_comparison_and_twist_build_no_lazy_table(mode):
    """A structure that is only constructed, round-tripped through JSON,
    compared and twisted builds no lazy table but the three the twist reads
    (the contraction tables of Bryant's formula and its polarized table):
    no T table, no split, no frame.  The loaded structure and the structure
    of the twist build none at all.  On phi0, -phi0 and a non-Euclidean
    frame, in both lanes."""
    ctx = Context.of(mode)
    frame = [[2 if i == j == 0 else int(i == j) for j in range(DIM)] for i in range(DIM)]
    # |dx_2|_g = 1 on all three
    p = TwistParams(ctx.scalar(Fraction(3, 5)), KForm.from_entries(1, {(2,): Fraction(4, 5)}, ctx))
    for phi in (phi0(ctx), phi0(ctx) * -1, pullback(phi0(ctx), frame)):
        s = G2Structure(phi, ctx)
        loaded = g2structure_from_json(json.loads(canonical_json(g2structure_to_json(s))))
        assert (loaded.phi, loaded.metric, loaded.orientation) == (s.phi, s.metric, s.orientation)
        twisted = G2Structure(twist(s, p), ctx)
        assert twisted.orientation == s.orientation
        assert [name for name in _LAZY_TABLES if name in s.__dict__] == [
            "star_dx_star_phi", "star_dx_phi", "polarized_table"]
        for t in (loaded, twisted):
            assert not set(_LAZY_TABLES) & set(t.__dict__)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_construction_stores_only_the_eager_state(mode):
    """A fresh structure holds exactly its lane, phi, B(phi), the metric, the
    orientation, vol and the star of phi: no tensor of phi and no lazy table.
    On phi0, -phi0 and a non-Euclidean frame."""
    ctx = Context.of(mode)
    frame = [[2 if i == j == 0 else int(i == j) for j in range(DIM)] for i in range(DIM)]
    for phi in (phi0(ctx), phi0(ctx) * -1, pullback(phi0(ctx), frame)):
        assert set(G2Structure(phi, ctx).__dict__) == {
            "ctx", "phi", "_contraction", "metric", "orientation", "vol", "star_phi"}


def test_split_failure_raises_at_first_read(monkeypatch):
    """The split's checks run at its first read: with Context.eigenvalue
    refusing every eigenvector, construction still succeeds, and decompose2,
    lambda7, lambda14, basis2_14 and describe() each raise the
    DecompositionError that construction raised before the split was lazy."""
    monkeypatch.setattr(Context, "eigenvalue", lambda self, *args: None)
    message = "2-form operator is not a scalar on the contractions of phi"
    for ctx in (EXACT, FLOAT):
        s = G2Structure(phi0(ctx), ctx)
        readers = (lambda: decompose2(KForm.basis((1, 2)), s), lambda: s.lambda7,
                   lambda: s.lambda14, lambda: s.basis2_14, s.describe)
        for read in readers:
            with pytest.raises(DecompositionError, match=f"^{message}$"):
                read()
        assert "_split" not in s.__dict__


def test_metric_from_negated_phi_flips_orientation():
    g, o = metric_from_phi(phi0() * -1)
    assert o.sign == -1
    assert all(g.rows[i][i] == 1 for i in range(DIM))


def test_metric_from_stretched_phi():
    # pulling back by diag(2,1,...,1) rescales the metric in the dx1 slot
    d = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    g, o = metric_from_phi(pullback(phi0(), d))
    assert o.sign == 1
    assert g.rows[0][0] == 4
    assert all(g.rows[i][i] == 1 for i in range(1, DIM))
    assert all(g.rows[i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)


def test_is_g2_form_cases():
    assert is_g2_form(phi0())
    assert is_g2_form(phi0() * -1)
    assert not is_g2_form(KForm.zero(3))
    assert not is_g2_form(KForm.basis((1, 2, 3)))  # degenerate
    with pytest.raises(DegreeError):
        is_g2_form(KForm.zero(2))


def test_is_g2_form_decides_in_the_forms_lane():
    """A float form is decided in the float lane, not refused by the exact one."""
    assert is_g2_form(phi0(FLOAT))
    assert not is_g2_form(KForm.zero(3, FLOAT))
    with pytest.raises(DegreeError):
        is_g2_form(KForm.zero(2, FLOAT))


def test_structure_rejects_unnormalized():
    with pytest.raises(NotG2FormError):
        G2Structure(KForm.basis((1, 2, 3)))


def test_float_structure_matches_exact(s, sf):
    assert sf.lambda7 == pytest.approx(2.0)
    assert sf.lambda14 == pytest.approx(-1.0)
    gap = max(abs(float(a) - b) for ra, rb in zip(s.metric.rows, sf.metric.rows)
              for a, b in zip(ra, rb))
    assert gap < 1e-12


# -- spectrum of the 2-form operator ----------------------------------------


def test_eigenvalues_and_dimensions(s):
    assert (s.lambda7, s.lambda14) == (2, -1)
    assert len(s.basis2_7) == 7
    assert len(s.basis2_14) == 14


def test_contraction_two_forms_are_eigenvectors(s):
    for i in range(1, DIM + 1):
        b = interior(basis_vector(i), s.phi)
        assert (s.two_form_operator(b) - b * 2).max_abs() == 0


def test_minimal_polynomial(s):
    cols = [list(s.two_form_operator(KForm.basis(idx)).coeffs) for idx in BASIS[2]]
    T = ratlin.transpose(cols)
    m7 = [[T[i][j] - (2 if i == j else 0) for j in range(21)] for i in range(21)]
    m14 = [[T[i][j] + (1 if i == j else 0) for j in range(21)] for i in range(21)]
    assert ratlin.mat_max_abs(ratlin.matmul(m7, m14)) == 0


# -- decompositions ----------------------------------------------------------


def test_decompose2_contraction_is_pure(s):
    b = interior(basis_vector(1), s.phi)
    d = decompose2(b, s)
    assert (d.p7 - b).max_abs() == 0
    assert d.p14.max_abs() == 0


def test_decompose2_frozen_example(s):
    d = decompose2(KForm.basis((2, 3)), s)
    third = Fraction(1, 3)
    expect7 = KForm.from_entries(2, {(2, 3): third, (4, 5): third, (6, 7): third})
    assert (d.p7 - expect7).max_abs() == 0
    assert (d.p14 - (KForm.basis((2, 3)) - expect7)).max_abs() == 0


def test_decompose2_matches_basis_solve(s, rng):
    # independent oracle: coordinates in the stacked eigenbasis, exact solve
    cols = [list(b.coeffs) for b in s.basis2_7 + s.basis2_14]
    for _ in range(5):
        beta = rational_kform(rng, 2)
        coords, _ = ref_solve(EXACT, ratlin.transpose(cols), list(beta.coeffs))
        p7 = KForm.zero(2)
        for x, b in zip(coords[:7], s.basis2_7):
            p7 = p7 + b * x
        d = decompose2(beta, s)
        assert (d.p7 - p7).max_abs() == 0


@given(forms2())
@settings(max_examples=30, deadline=None)
def test_decompose2_properties(beta):
    s = standard_structure()
    d = decompose2(beta, s)
    assert (d.total() - beta).max_abs() == 0
    assert (s.two_form_operator(d.p7) - d.p7 * 2).max_abs() == 0
    assert (s.two_form_operator(d.p14) + d.p14).max_abs() == 0
    assert form_inner(d.p7, d.p14, s.metric) == 0
    assert wedge(d.p14, s.star_phi).max_abs() == 0


def test_decompose3_phi_is_pure(s):
    d = decompose3(s.phi, s)
    assert (d.p1 - s.phi).max_abs() == 0
    assert d.p7.max_abs() == 0 and d.p27.max_abs() == 0


def test_decompose3_frame_is_pure(s):
    d = decompose3(s.frame3_7[0], s)
    assert d.p1.max_abs() == 0 and d.p27.max_abs() == 0
    assert (d.p7 - s.frame3_7[0]).max_abs() == 0


@given(forms3())
@settings(max_examples=30, deadline=None)
def test_decompose3_properties(eta):
    s = standard_structure()
    d = decompose3(eta, s)
    assert (d.total() - eta).max_abs() == 0
    assert form_inner(d.p1, d.p7, s.metric) == 0
    assert form_inner(d.p1, d.p27, s.metric) == 0
    assert form_inner(d.p7, d.p27, s.metric) == 0
    assert (d.p1 - s.phi * (form_inner(eta, s.phi, s.metric) * Fraction(1, 7))).max_abs() == 0


def test_projector_ranks(s):
    rows = {1: [], 7: [], 27: []}
    for idx in BASIS[3]:
        d = decompose3(KForm.basis(idx), s)
        rows[1].append(list(d.p1.coeffs))
        rows[7].append(list(d.p7.coeffs))
        rows[27].append(list(d.p27.coeffs))
    assert [EXACT.rank(rows[k]) for k in (1, 7, 27)] == [1, 7, 27]


def test_decompose_degree_guards(s):
    with pytest.raises(DegreeError):
        decompose2(KForm.zero(3), s)
    with pytest.raises(DegreeError):
        decompose3(KForm.zero(2), s)


# -- tensor action ------------------------------------------------------------


def test_identity_acts_as_three_phi(s):
    eye = [[Fraction(1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    assert (odot(eye, s) - s.phi * 3).max_abs() == 0
    assert (odot_endo(eye, s) - s.phi * 3).max_abs() == 0


def test_action_matches_group_derivative(sf):
    # independent check: (d/dt) pullback by exp(-tA) at t = 0
    A = [[0.0] * DIM for _ in range(DIM)]
    A[0][1], A[1][0] = 1.0, -1.0
    A[2][4], A[4][2] = -0.7, 0.7
    h = 1e-6
    plus = act_on_form(matrix_exp([[h * x for x in r] for r in A]), sf.phi)
    minus = act_on_form(matrix_exp([[-h * x for x in r] for r in A]), sf.phi)
    fd = (plus - minus) * (1.0 / (2 * h))
    an = infinitesimal_action(A, sf)
    assert (fd - an).max_abs() < 1e-9


def test_stabilizer_matrices_act_trivially(s):
    for b in s.basis2_14:
        assert infinitesimal_action(two_form_to_matrix(b), s).max_abs() == 0


def test_seven_part_matrices_hit_seven_part(s):
    rows = []
    for b in s.basis2_7:
        out = infinitesimal_action(two_form_to_matrix(b), s)
        d = decompose3(out, s)
        assert d.p1.max_abs() == 0 and d.p27.max_abs() == 0
        rows.append(list(out.coeffs))
    assert EXACT.rank(rows) == 7


def test_symmetric_action_injective(s):
    cols = [list(odot(b, s).coeffs) for b in symmetric_basis()]
    assert len(cols) == 28
    assert EXACT.rank(cols) == 28


def test_odot_inverse_roundtrip(s, rng):
    for _ in range(10):
        b = SymTensor(rational_symmetric(rng))
        back = odot_inverse(odot(b, s), s)
        assert all(x == y for rb, rc in zip(back.rows, b.rows) for x, y in zip(rb, rc))


def test_odot_inverse_rejects_seven_part(s):
    with pytest.raises(DecompositionError):
        odot_inverse(s.frame3_7[2], s)


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_float_odot_inverse_bounds_are_relative(scale):
    """The float 7-part test scales with |eta| like the residual test: an
    absolute 1e-10 refused 7 of 20 of these inputs at 1e6 and all at 1e8."""
    sf = standard_structure("float")
    rng = random.Random(int(scale))
    for _ in range(20):
        h = [[None] * DIM for _ in range(DIM)]
        for i in range(DIM):
            for j in range(i, DIM):
                h[i][j] = h[j][i] = rng.uniform(-1.0, 1.0) * scale
        back = odot_inverse(odot(h, sf), sf)
        gap = max(abs(x - y) for rb, rh in zip(back.rows, h) for x, y in zip(rb, rh))
        assert gap <= 1e-12 * scale
    # a 7-part is refused at every scale
    with pytest.raises(DecompositionError):
        odot_inverse(sf.frame3_7[2] * scale, sf)


def test_odot_local_standard_frame(s, rng):
    b = rational_symmetric(rng)
    assert (odot_local(b, s) - odot(b, s)).max_abs() == 0


def test_odot_local_needs_frame_off_euclidean():
    d = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    s2 = G2Structure(pullback(phi0(), d))
    b = [[Fraction(1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    with pytest.raises(FrameError):
        odot_local(b, s2)
    half = Fraction(1, 2)
    frame = [tuple((half if k == 0 else Fraction(1)) * x for x in basis_vector(k + 1))
             for k in range(DIM)]
    out = odot_local(b, s2, frame=frame)
    # frame components of the metric itself: identity, so the action is 3 phi
    assert (out - s2.phi * 3).max_abs() == 0


def test_odot_local_rejects_bad_frame(s):
    frame = [basis_vector(1)] * DIM
    with pytest.raises(FrameError):
        odot_local([[Fraction(0)] * DIM for _ in range(DIM)], s, frame=frame)


def test_odot_local_rejects_short_frame_vectors(s):
    """A frame vector of the wrong length is a FrameError, not flat's IndexError."""
    for frame in ([(1, 0)] * DIM, [(*basis_vector(k + 1), 0) for k in range(DIM)]):
        with pytest.raises(FrameError, match="7 vectors of 7 entries"):
            odot_local([[Fraction(0)] * DIM for _ in range(DIM)], s, frame=frame)


def test_sym_tensor_validation():
    bad = [[Fraction(0)] * DIM for _ in range(DIM)]
    bad[0][1] = Fraction(1)
    with pytest.raises(ValueError):
        SymTensor(tuple(tuple(r) for r in bad))


# -- contraction identities ----------------------------------------------------


def test_triple_star_sign_value():
    assert triple_star_sign() == 1


@given(st.lists(st.integers(-5, 5), min_size=7, max_size=7))
@settings(max_examples=40)
def test_triple_star_identity(coeffs):
    s = standard_structure()
    alpha = KForm(1, tuple(Fraction(c) for c in coeffs))
    lhs = wedge(s.star_phi, s.star(wedge(s.star_phi, alpha)))
    assert (lhs - s.star(alpha) * 3).max_abs() == 0


@given(st.lists(st.integers(-5, 5), min_size=7, max_size=7))
@settings(max_examples=40)
def test_quadratic_term_phi_component(coeffs):
    s = standard_structure()
    w = KForm(1, tuple(Fraction(c) for c in coeffs))
    q = wedge(w, s.star(wedge(w, s.star_phi)))
    d = decompose3(q, s)
    n2 = form_inner(w, w, s.metric)
    assert (d.p1 - s.phi * (n2 * Fraction(3, 7))).max_abs() == 0
    assert d.p7.max_abs() == 0


def test_exact_structure_rejects_float_phi():
    with pytest.raises(ExactModeError):
        G2Structure(phi0(FLOAT))


# -- metric_from_phi in one elimination -----------------------------------------


def ref_normalized_metric(B, phi_num, den, ctx):
    """metric_from_phi's normalization as it was before its one leading-minor
    pass: Context.det of B, then the metric's own positivity test.  It reads
    B only; phi_num is _normalized_metric's float underflow test's input."""
    det_b = ctx.det(B)
    if det_b == 0:
        raise NotG2FormError("degenerate 3-form: det of contraction matrix is 0")
    orient = 1 if det_b > 0 else -1
    if det_b < 0:
        B = [[-x for x in row] for row in B]
        det_b = -det_b
    if ctx.is_exact:
        ninth = rational_nth_root(det_b / (den ** 21 * 6 ** 7), 9)
        if ninth is None:
            raise ExactModeError(
                "exact metric normalization needs det(B)/6^7 to be a rational ninth power"
            )
        num, scale = ninth.denominator, den ** 3 * 6 * ninth.numerator
    else:
        if not math.isfinite(det_b):
            raise NotG2FormError("3-form beyond the float range: det of its contraction matrix overflowed")
        num, scale = 1, 6.0 * (det_b / 6.0 ** 7) ** (1.0 / 9.0)
    try:
        metric = Metric._of([[x * num for x in row] for row in B], scale, ctx)
    except MetricError as exc:
        raise NotG2FormError(f"3-form does not induce a positive metric: {exc}") from exc
    return metric, orient


def normalization_outcome(normalize, phi, ctx):
    """(num, den, det, orientation) of the metric, or the error's class and message."""
    phi = coerce_form(phi, ctx)
    try:
        metric, orient = normalize(_contraction_matrix(phi.num), phi.num, phi.den, ctx)
    except G2KitError as exc:
        return type(exc), str(exc)
    return metric.num, metric.den, metric._det, getattr(orient, "sign", orient)


# phi0 with each sign pattern on its seven terms: B is +-6 on the diagonal
# for some patterns and indefinite for others, and det B / 6^7 is always a
# ninth power, so each refusal comes from the sign pattern alone
SIGNED_PHI0 = [KForm.from_entries(3, {idx: s * c for (idx, c), s in zip(PHI0_ENTRIES.items(), signs)})
               for signs in itertools.product((1, -1), repeat=DIM)]


@given(st.integers(0, 2 ** 32))
@settings(max_examples=6, deadline=None)
def test_one_pass_normalization_equals_the_det_first_reference(seed):
    """The sign patterns of phi0, pulled back by a drawn rational frame, and
    a few forms with no rational ninth root or with det B = 0: metric,
    det g and orientation, or the refusal's class and message, equal the
    reference's, literally in exact mode and bit for bit in float mode."""
    rng = random.Random(seed)
    a = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) + 3 * (i == j) for j in range(DIM)]
         for i in range(DIM)]
    forms = [pullback(phi, a) for phi in SIGNED_PHI0]
    forms += [2 * phi0(), rational_kform(rng, 3), KForm.basis((1, 2, 3)),
              KForm.from_entries(3, {(1, 2, 3): 1, (1, 4, 5): 1})]
    for ctx in (EXACT, FLOAT):
        for phi in forms:
            got = normalization_outcome(_normalized_metric, phi, ctx)
            assert got == normalization_outcome(ref_normalized_metric, phi, ctx)


def test_exact_metric_from_phi_eliminates_b_once(monkeypatch):
    """An exact form whose B or -B is positive definite takes one
    leading-minor pass (ratlin.definite_det) and no Context.det; a refused
    indefinite or degenerate form takes the pass and Context.det, and no
    second pass or rank, and raises the reference's error."""
    calls = []
    real_pass, real_det, real_rank = ratlin.definite_det, Context.det, Context.rank

    def counted_pass(m):
        calls.append("pass")
        return real_pass(m)

    def counted_det(self, m):
        calls.append("det")
        return real_det(self, m)

    def counted_rank(self, m):
        calls.append("rank")
        return real_rank(self, m)

    monkeypatch.setattr(ratlin, "definite_det", counted_pass)
    monkeypatch.setattr(Context, "det", counted_det)
    monkeypatch.setattr(Context, "rank", counted_rank)
    for phi, orient in ((phi0(), 1), (-phi0(), -1), (SIGNED_PHI0[5], None), (KForm.basis((1, 2, 3)), None)):
        del calls[:]
        if orient is None:
            with pytest.raises(NotG2FormError) as exc:
                metric_from_phi(phi)
            assert calls == ["pass", "det"]
            with pytest.raises(NotG2FormError) as ref:
                ref_normalized_metric(_contraction_matrix(phi.num), phi.num, phi.den, EXACT)
            assert str(exc.value) == str(ref.value)
        else:
            assert metric_from_phi(phi)[1].sign == orient
            assert calls == ["pass"]


def test_float_underflowed_det_is_named_apart_from_a_degenerate_form():
    """phi0 * 1e-20 has B = 6e-60 I of full rank, whose det underflows to 0.0:
    the refusal names the underflow.  dx123 (B = 0) keeps the degenerate
    message in both lanes, and phi0 * 1e-100 (det B about 1e-2093) is named
    as phi0 * 1e-20 is.  So are phi0 * 1e-120 and phi0 * 1e-160, whose cubic
    terms underflow, so that their B is 0.0 like dx123's: B of the form
    scaled by a power of two has full rank."""
    for scale in (1e-20, 1e-100, 1e-120, 1e-160):
        with pytest.raises(NotG2FormError) as exc:
            G2Structure(phi0(FLOAT) * scale, FLOAT)
        assert str(exc.value) == "3-form beyond the float range: det of its contraction matrix underflowed"
    for ctx in (EXACT, FLOAT):
        with pytest.raises(NotG2FormError) as exc:
            metric_from_phi(KForm.from_entries(3, {(1, 2, 3): 1}, ctx), ctx)
        assert str(exc.value) == "degenerate 3-form: det of contraction matrix is 0"
