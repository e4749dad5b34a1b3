"""Product-model catalogue: standard forms, parameter recovery, coverings."""
from fractions import Fraction

import pytest

from g2kit.bryant import TwistParams, derivative_rank, twist
from g2kit.errors import ModelError, SubspaceViolationError
from g2kit.exterior import DIM, KForm, form_inner
from g2kit.g2core import phi0
from g2kit.liegroup import coset_tangent_dim, is_g2
from g2kit.models import (
    GammaPoint,
    covering_sheet_count,
    flat_model,
    gamma_membership,
    gamma_sample,
    holonomy_sample,
    model_phi,
    model_structure,
    translation_action,
    translation_orbit,
)

KINDS = ("t7", "s1xcy3", "t3xk3")


@pytest.mark.parametrize("kind", KINDS)
def test_model_forms_agree(kind):
    m = flat_model(kind)
    assert (model_phi(m) - phi0()).max_abs() == 0


def test_model_table():
    assert flat_model("t7").b1 == 7
    assert flat_model("s1xcy3").b1 == 1
    assert flat_model("t3xk3").b1 == 3
    assert flat_model("t7").holonomy_label == "trivial"
    assert flat_model("s1xcy3").holonomy_label == "su3"
    assert flat_model("t3xk3").holonomy_label == "su2"
    assert flat_model("t3xk3").omega_indices == (1, 2, 3)
    with pytest.raises(ModelError):
        flat_model("k7")


@pytest.mark.parametrize("kind", KINDS)
def test_model_structure_is_standard(kind):
    """Each model's structure has the literal metric I in both lanes, with
    rows equal to I and |phi|^2 = 7 (7.0 in the float lane)."""
    for mode in ("exact", "float"):
        s = model_structure(kind, mode)
        assert s.metric.is_euclidean
        assert s.orientation.sign == 1
        assert all(s.metric.rows[i][j] == (1 if i == j else 0)
                   for i in range(DIM) for j in range(DIM))
        norm = form_inner(s.phi, s.phi, s.metric)
        assert norm == 7 and type(norm) is (float if mode == "float" else Fraction)


@pytest.mark.parametrize("kind", KINDS)
def test_gamma_roundtrip(kind, rng):
    m = flat_model(kind)
    s = model_structure(kind)
    for force in (False, True):
        p = gamma_sample(m, rng, force_c_zero=force)
        assert p.params.constraint_residual(s) == 0
        q = gamma_membership(m, twist(s, p.params))
        assert q.params.equivalent_to(p.params)


def test_membership_rejects_foreign_direction():
    m = flat_model("s1xcy3")
    s = model_structure("s1xcy3")
    p = TwistParams(Fraction(3, 5), KForm.from_entries(1, {(4,): Fraction(4, 5)}))
    with pytest.raises(SubspaceViolationError):
        gamma_membership(m, twist(s, p))


def test_membership_rejects_foreign_direction_t3xk3():
    m = flat_model("t3xk3")
    s = model_structure("t3xk3")
    p = TwistParams(Fraction(3, 5), KForm.from_entries(1, {(7,): Fraction(4, 5)}))
    with pytest.raises(SubspaceViolationError):
        gamma_membership(m, twist(s, p))


def test_translation_orbit_is_singleton(rng):
    m = flat_model("t7")
    p = gamma_sample(m, rng)
    t = [Fraction(1, 3)] * 7
    q = translation_action(m, t, p)
    assert q == p
    orbit = translation_orbit(m, p, [t, [0] * 7, [Fraction(5, 2)] * 7])
    assert orbit == (p,)
    assert covering_sheet_count(m, p, rng) == 1


def test_translation_guards(rng):
    p = gamma_sample(flat_model("t7"), rng)
    with pytest.raises(ModelError):
        translation_action(flat_model("s1xcy3"), [0] * 7, GammaPoint("s1xcy3", p.params))
    with pytest.raises(ModelError):
        translation_action(flat_model("t7"), [0] * 3, p)


@pytest.mark.parametrize("kind", KINDS)
def test_rank_matches_first_betti(kind, rng):
    m = flat_model(kind)
    s = model_structure(kind)
    for force in (False, True):
        p = gamma_sample(m, rng, force_c_zero=force)
        assert derivative_rank(s, p.params, m.b1) == m.b1


@pytest.mark.parametrize("kind", KINDS)
def test_holonomy_sample_fixes_form(kind, rng):
    m = flat_model(kind)
    h = holonomy_sample(m, rng)
    for g in h.generators:
        assert all(type(x) is Fraction for row in g for x in row)
        assert is_g2(g)
    if kind == "t7":
        assert h.count == 0


@pytest.mark.parametrize("kind", KINDS)
def test_coset_dimension_matches_first_betti(kind, rng):
    m = flat_model(kind)
    h = holonomy_sample(m, rng)
    assert coset_tangent_dim(h, model_structure(kind)) == m.b1
