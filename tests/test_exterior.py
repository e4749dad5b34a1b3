"""Exterior algebra layer: wedge, contraction, star, musical maps, pullback."""
import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from g2kit import exterior
from g2kit.context import EXACT, FLOAT
from g2kit.errors import DegreeError, ExactModeError, MetricError
from g2kit.exterior import (
    BASIS,
    DIM,
    EUCLIDEAN,
    NEGATIVE,
    NK,
    POSITIVE,
    KForm,
    Metric,
    basis_vector,
    flat,
    form_inner,
    hodge_star,
    interior,
    pullback,
    sharp,
    volume_form,
    wedge,
)
from g2kit.g2core import G2Structure, phi0
from g2kit.ratlin import matmul
from g2kit.sampling import rational_kform, rational_spd_metric


def kforms(degree):
    n = NK[degree]
    coeff = st.integers(min_value=-9, max_value=9).map(lambda p: Fraction(p, 3))
    return st.lists(coeff, min_size=n, max_size=n).map(
        lambda v: KForm(degree, tuple(v)))


def spd_metrics():
    # g = U^T diag(d^2) U with U unit upper triangular keeps det(g) a
    # perfect square, so exact-mode stars stay rational
    upper = st.lists(st.integers(-2, 2), min_size=21, max_size=21)
    diag = st.lists(st.integers(1, 3), min_size=DIM, max_size=DIM)

    def build(args):
        ut, dg = args
        u = [[Fraction(1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
        pos = 0
        for i in range(DIM):
            for j in range(i + 1, DIM):
                u[i][j] = Fraction(ut[pos])
                pos += 1
        d = [[Fraction(dg[i] ** 2 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
        g = matmul([[u[j][i] for j in range(DIM)] for i in range(DIM)], matmul(d, u))
        return Metric(tuple(tuple(r) for r in g))

    return st.tuples(upper, diag).map(build)


# -- construction and arithmetic -----------------------------------------


def test_basis_tables():
    assert [NK[k] for k in range(8)] == [1, 7, 21, 35, 35, 21, 7, 1]
    assert BASIS[2][0] == (1, 2) and BASIS[3][-1] == (5, 6, 7)


def test_kform_coeff_sign_lookup():
    a = KForm.basis((1, 2, 3))
    assert a.coeff((1, 2, 3)) == 1
    assert a.coeff((2, 1, 3)) == -1
    assert a.coeff((1, 1, 2)) == 0


@pytest.mark.parametrize("v", [(1, 2), (), (1,) * 8], ids=["short", "empty", "long"])
def test_interior_refuses_a_vector_without_7_entries(v):
    """interior once read (1, 2) as (1, 2, 0, 0, 0, 0, 0), dropped an eighth
    entry and contracted () to the zero form."""
    with pytest.raises(ValueError, match="7 entries"):
        interior(v, phi0())
    with pytest.raises(DegreeError):
        interior(v, KForm.zero(0))


@pytest.mark.parametrize("v", [(1, 2), (1,) * 8], ids=["short", "long"])
def test_flat_refuses_a_vector_without_7_entries(v):
    with pytest.raises(ValueError, match="7 entries"):
        flat(v)


@pytest.mark.parametrize("i", [0, 8, 9, -1])
def test_basis_vector_refuses_an_index_outside_1_to_7(i):
    with pytest.raises(ValueError, match="1..7"):
        basis_vector(i)
    assert basis_vector(7, FLOAT)[-1] == 1.0


@pytest.mark.parametrize("index", [(1, 2), (1, 2, 9), (0, 1, 2), (1, 2, 3, 4), (1, 1, 8)])
def test_coeff_refuses_an_index_of_wrong_length_or_range(index):
    phi = phi0()
    with pytest.raises(DegreeError):
        phi.coeff(*index)
    with pytest.raises(DegreeError):
        phi.coeff(index)
    assert phi.coeff(1, 1, 3) == 0


def test_degree_guards():
    with pytest.raises(DegreeError):
        KForm(2, (Fraction(1),) * 5)
    with pytest.raises(DegreeError):
        wedge(KForm.basis((1, 2, 3, 4, 5)), KForm.basis((1, 2, 3)))
    with pytest.raises(DegreeError):
        interior(basis_vector(1), KForm.zero(0))


def test_mixed_scalars_normalize_to_float():
    a = KForm(1, (0.5,) + tuple(Fraction(0) for _ in range(6)))
    assert not a.is_exact
    assert all(isinstance(c, float) for c in a.coeffs)


@given(kforms(2), kforms(2))
def test_addition_commutes(a, b):
    assert (a + b).isclose(b + a)


@given(kforms(3))
def test_scalar_action(a):
    assert (a * 2 - a - a).max_abs() == 0
    assert (a / 2 + a / 2 - a).max_abs() == 0


def _pair_is_canonical(f):
    """An exact form's stored pair: int numerators over a positive int
    denominator in lowest terms, den 1 for a zero form, and coeffs its
    Fractions."""
    return (type(f.den) is int and f.den > 0 and all(type(x) is int for x in f.num)
            and gcd(f.den, *f.num) == 1 and (any(f.num) or f.den == 1)
            and f.coeffs == tuple(Fraction(x, f.den) for x in f.num)
            and all(type(x) is Fraction for x in f.coeffs))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exact_forms_store_a_canonical_pair(data):
    """KForm(k, c) keeps c's values as Fractions (ints become Fractions);
    every exact form, built or computed, stores a canonical (num, den);
    equal forms hash equal, before and after arithmetic and when zero."""
    k = data.draw(st.integers(0, 4), label="k")
    n = NK[k]
    scalar = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-30, 30),
                                                     st.integers(1, 30)))
    c = tuple(data.draw(st.lists(scalar, min_size=n, max_size=n), label="c"))
    a, b = KForm(k, c), data.draw(kforms(k), label="b")
    e = data.draw(kforms(DIM - k), label="e")
    s = data.draw(scalar.filter(bool), label="s")
    assert a.coeffs == c and all(type(x) is Fraction for x in a.coeffs)
    zero = KForm.zero(k)
    computed = [a + b, a - b, -a, a * s, s * a, a / s, a - a, a * 0, zero, wedge(a, e),
                interior(basis_vector(1), a) if k else zero, hodge_star(a), a.as_float() * 0]
    for f in computed[:-1]:
        assert _pair_is_canonical(f)
        twin = KForm(f.degree, f.coeffs)
        assert twin == f and hash(twin) == hash(f) and twin.num == f.num and twin.den == f.den
    for f, g in (((a + b) - b, a), (a - a, zero), (a * 0, zero), ((a * s) / s, a),
                 (hodge_star(hodge_star(a)), a * (-1) ** (k * (DIM - k)))):
        assert f == g and hash(f) == hash(g)
    # a float zero form equals and hashes like the exact one
    assert computed[-1] == zero and hash(computed[-1]) == hash(zero)


@given(kforms(2))
def test_exact_against_float_compares_values(a):
    """An exact form equals a float form when every coefficient is the same
    number, as Fraction == float decides, and then hashes like it."""
    f = a.as_float()
    assert (a == f) == (f == a) == all(Fraction(y) == x for x, y in zip(a.coeffs, f.coeffs))
    if a == f:
        assert hash(a) == hash(f)
    assert a != KForm(2, tuple(x + 0.5 for x in f.coeffs))


def test_exact_against_float_examples():
    halves = KForm(1, (Fraction(1, 2), Fraction(-3, 4), 0, 0, 0, 0, 2))
    assert halves == KForm(1, (0.5, -0.75, 0.0, -0.0, 0.0, 0.0, 2.0))
    assert hash(halves) == hash(KForm(1, (0.5, -0.75, 0.0, -0.0, 0.0, 0.0, 2.0)))
    thirds = KForm(1, (Fraction(1, 3),) * DIM)
    assert thirds != thirds.as_float() and thirds.as_float() != thirds
    assert thirds.isclose(thirds.as_float(), 1e-15) and not thirds.isclose(thirds.as_float())


# -- wedge ----------------------------------------------------------------


def _merge_sign_oracle(left, right):
    # independent parity count: number of transpositions to interleave
    if set(left) & set(right):
        return 0
    inv = sum(1 for x in left for y in right if x > y)
    return -1 if inv % 2 else 1


@given(st.data())
@settings(max_examples=200)
def test_wedge_of_basis_matches_parity_oracle(data):
    k = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(1, DIM - k))
    left = tuple(sorted(data.draw(
        st.lists(st.integers(1, DIM), min_size=k, max_size=k, unique=True))))
    right = tuple(sorted(data.draw(
        st.lists(st.integers(1, DIM), min_size=l, max_size=l, unique=True))))
    out = wedge(KForm.basis(left), KForm.basis(right))
    sign = _merge_sign_oracle(left, right)
    if sign == 0:
        assert out.max_abs() == 0
    else:
        merged = tuple(sorted(left + right))
        assert out.coeff(merged) == sign
        assert sum(1 for c in out.coeffs if c != 0) == 1


@given(st.data())
def test_wedge_graded_commutativity(data):
    k = data.draw(st.integers(0, DIM))
    l = data.draw(st.integers(0, DIM - k))
    a = data.draw(kforms(k))
    b = data.draw(kforms(l))
    sign = -1 if (k * l) % 2 else 1
    assert (wedge(a, b) - wedge(b, a) * sign).max_abs() == 0


@given(st.data())
def test_wedge_associativity(data):
    k = data.draw(st.integers(0, 3))
    l = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(0, DIM - k - l))
    a, b, c = (data.draw(kforms(d)) for d in (k, l, m))
    assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).max_abs() == 0


@given(kforms(2), kforms(2), kforms(3))
def test_wedge_bilinear(a, b, c):
    assert (wedge(a + b, c) - wedge(a, c) - wedge(b, c)).max_abs() == 0


# -- interior product ------------------------------------------------------


def test_contraction_literal():
    # e1 into the first slot picks out every index tuple containing 1
    a = KForm.basis((1, 3, 5))
    out = interior(basis_vector(1), a)
    assert out.coeff((3, 5)) == 1 and out.max_abs() == 1
    assert interior(basis_vector(2), a).max_abs() == 0


@given(st.data())
def test_contraction_antiderivation(data):
    k = data.draw(st.integers(1, DIM - 1))
    l = data.draw(st.integers(1, DIM - k))
    a = data.draw(kforms(k))
    b = data.draw(kforms(l))
    v = tuple(Fraction(data.draw(st.integers(-3, 3))) for _ in range(DIM))
    sign = -1 if k % 2 else 1
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * sign
    assert (lhs - rhs).max_abs() == 0


@given(st.data())
def test_contraction_squares_to_zero(data):
    k = data.draw(st.integers(2, DIM))
    a = data.draw(kforms(k))
    v = tuple(Fraction(data.draw(st.integers(-3, 3))) for _ in range(DIM))
    assert interior(v, interior(v, a)).max_abs() == 0


# -- metric, star, volume --------------------------------------------------


def test_metric_validation():
    bad = [[Fraction(1)] * DIM for _ in range(DIM)]
    bad[0][1] = Fraction(2)  # not symmetric
    with pytest.raises(MetricError):
        Metric(tuple(tuple(r) for r in bad))
    neg = [[Fraction(-1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    with pytest.raises(MetricError):
        Metric(tuple(tuple(r) for r in neg))


def test_metric_caches_keep_the_lanes_apart():
    """An exact and a float metric with the same values are not equal, so the
    Metric-keyed caches keep one entry per lane: after the exact diag(2, 1,
    ..., 1) has filled them, the float diag(2.0, 1.0, ...) still gets float
    rows, and its g^-1 and Gram tables are over 1.  The exact g^-1 table is
    diag(1, 2, ..., 2) over 2 and the exact Gram of 3-forms the 4 x 4 minors
    of g over det g = 2, both in lowest terms."""
    exact = Metric(tuple(tuple(Fraction(2 if i == j == 0 else int(i == j)) for j in range(DIM))
                         for i in range(DIM)))
    floats = Metric(tuple(tuple(float(x) for x in row) for row in exact.rows))
    for cache in (exterior._metric_inverse, exterior._metric_minors, exterior._lambda_gram):
        cache.cache_clear()
    rows, den = exterior._metric_inverse(exact)
    assert den == 2 and rows == tuple(tuple(1 + (i > 0) if i == j else 0 for j in range(DIM))
                                      for i in range(DIM))
    assert exterior._lambda_gram(exact, 3)[1] == 2
    inverse, fden = exterior._metric_inverse(floats)
    assert fden == 1 and all(type(x) is float for row in inverse for x in row)
    assert inverse[0][0] == 0.5
    rows, den = exterior._lambda_gram(floats, 3)
    assert den == 1 and all(type(x) is float for row in rows for x in row)
    assert exact != floats and floats != exact


def test_perfbench_trace_reads_the_metric_caches():
    """The benchmark's traced run reads the Metric-keyed lru caches by name
    (perfbench/tracing.py, metric_caches): after a non-Euclidean structure
    has read its Gram of 3-forms (a hit on is_euclidean and det g) and its
    g^-1 table, cache_totals() still reads a cache_info off each of them,
    so folding or renaming one cannot pass unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert exterior._metric_inverse in tracing.metric_caches()
    a = [[int(i == j) + (i == 0 and j == 1) for j in range(DIM)] for i in range(DIM)]
    s = G2Structure(pullback(phi0(), a))
    assert not s.metric.is_euclidean
    hits, misses, size = tracing.cache_totals()
    form_inner(s.phi, s.phi, s.metric)
    sharp(KForm.basis((1,)), s.metric)
    after = tracing.cache_totals()
    assert after[0] > hits and after[1] >= misses and after[2] >= 1


def test_volume_form_literals():
    vol = volume_form(EUCLIDEAN, POSITIVE)
    assert vol.coeff(tuple(range(1, 8))) == 1
    g = [[Fraction(4 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    vol2 = volume_form(Metric(tuple(tuple(r) for r in g)), POSITIVE)
    assert vol2.coeff(tuple(range(1, 8))) == 2
    assert volume_form(EUCLIDEAN, NEGATIVE).coeff(tuple(range(1, 8))) == -1


def test_star_euclidean_literals():
    assert hodge_star(KForm.basis((1, 2, 3, 4, 5)), EUCLIDEAN, POSITIVE).coeff((6, 7)) == 1
    out = hodge_star(KForm.basis((2, 3)), EUCLIDEAN, POSITIVE)
    assert out.coeff((1, 4, 5, 6, 7)) == 1
    # 0-forms and 7-forms swap
    one = KForm(0, (Fraction(1),))
    assert hodge_star(one, EUCLIDEAN, POSITIVE).coeff(tuple(range(1, 8))) == 1


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_star_involution_random_metric(data):
    g = data.draw(spd_metrics())
    k = data.draw(st.integers(0, DIM))
    a = data.draw(kforms(k))
    assert (hodge_star(hodge_star(a, g, POSITIVE), g, POSITIVE) - a).max_abs() == 0


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_star_inner_pairing(data):
    g = data.draw(spd_metrics())
    k = data.draw(st.integers(0, DIM))
    a = data.draw(kforms(k))
    b = data.draw(kforms(k))
    vol = volume_form(g, POSITIVE)
    assert (wedge(a, hodge_star(b, g, POSITIVE)) - vol * form_inner(a, b, g)).max_abs() == 0


def test_star_needs_rational_volume():
    # a metric whose determinant is not a perfect square cannot star exactly
    g = [[Fraction(2 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    with pytest.raises(ExactModeError):
        hodge_star(KForm.basis((1, 2)), Metric(tuple(tuple(r) for r in g)), POSITIVE)


def test_inner_product_literals():
    assert form_inner(KForm.basis((1, 2, 3)), KForm.basis((1, 2, 3)), EUCLIDEAN) == 1
    assert form_inner(KForm.basis((1, 2, 3)), KForm.basis((1, 2, 4)), EUCLIDEAN) == 0
    # diag(4,1,...) halves each dx1 factor's norm contribution
    g = [[Fraction(4 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    gm = Metric(tuple(tuple(r) for r in g))
    assert form_inner(KForm.basis((1, 2)), KForm.basis((1, 2)), gm) == Fraction(1, 4)


# -- musical isomorphisms and pullback --------------------------------------


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_flat_sharp_inverse(data):
    g = data.draw(spd_metrics())
    v = tuple(Fraction(data.draw(st.integers(-5, 5))) for _ in range(DIM))
    assert sharp(flat(v, g), g) == v
    a = data.draw(kforms(1))
    assert (flat(sharp(a, g), g) - a).max_abs() == 0


def test_flat_euclidean_identity():
    assert flat(basis_vector(1), EUCLIDEAN).coeff((1,)) == 1


def test_pullback_diagonal_literal():
    d = [[Fraction(2 if i == j == 0 else (1 if i == j else 0)) for j in range(DIM)]
         for i in range(DIM)]
    a = KForm.basis((1, 2))
    assert pullback(a, d).coeff((1, 2)) == 2
    assert pullback(KForm.basis((2, 3)), d).coeff((2, 3)) == 1


@pytest.mark.parametrize("degree", range(DIM + 1))
def test_pullback_checks_the_matrix_shape_in_every_degree(degree):
    """A 0-form too: it used to come back unchanged from a 1x1 matrix."""
    a = KForm(degree, (1,) * NK[degree])
    for mat in ([[1]], [[1] * DIM] * (DIM - 1), [[1] * (DIM + 1)] * DIM):
        with pytest.raises(ValueError, match="7x7"):
            pullback(a, mat)
    assert pullback(KForm(0, (Fraction(3, 2),)), [[2] * DIM] * DIM) == KForm(0, (Fraction(3, 2),))


def test_pullback_composition(rng):
    for _ in range(10):
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
        B = [[Fraction(rng.randint(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
        a = rational_kform(rng, 3)
        assert (pullback(a, matmul(A, B)) - pullback(pullback(a, A), B)).max_abs() == 0


def test_pullback_respects_wedge(rng):
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
    a = rational_kform(rng, 2)
    b = rational_kform(rng, 3)
    assert (pullback(wedge(a, b), A) - wedge(pullback(a, A), pullback(b, A))).max_abs() == 0


def test_sampled_spd_metrics_star_exactly(rng):
    # the sampler arranges a perfect-square determinant so stars stay rational
    for _ in range(5):
        g = rational_spd_metric(rng)
        a = rational_kform(rng, 3)
        assert (hodge_star(hodge_star(a, g, POSITIVE), g, POSITIVE) - a).max_abs() == 0


def test_from_entries_coerces_every_entry_into_the_lane():
    with pytest.raises(ExactModeError):
        KForm.from_entries(3, {(1, 2, 3): 0.5}, EXACT)
    exact = KForm.from_entries(3, {(1, 2, 3): 1, (1, 4, 5): "1/2"}, EXACT)
    assert exact.is_exact and exact.coeff(1, 4, 5) == Fraction(1, 2)
    floats = KForm.from_entries(3, {(1, 2, 3): Fraction(1, 2)}, FLOAT)
    assert not floats.is_exact and floats.coeffs == (0.5,) + (0.0,) * 34
    assert KForm.from_entries(2, {}, FLOAT) == KForm.zero(2, FLOAT)
