"""Flat compact product models and their parameter sets.

Three models on the 7-torus's underlying coordinate space: the full torus,
a circle times a complex 3-fold factor, and a 3-torus times a complex
surface factor.  Each carries a standard 3-form built from its Kahler and
holomorphic volume data; all three expand to the same standard form in these
coordinates.  The model's first Betti number b1 equals the number of
coordinate directions its twist parameters may use, and the parameter set is
the rational unit sphere in c plus those directions, modulo the antipode.

Holonomy labels are realized concretely as sampled block subgroup elements
(special unitary blocks acting on the complex pairs), which is what the
Lie-side membership and tangent computations consume.  The samples are
exact: products of Cayley transforms of rational su(2) elements, so they are
rational matrices in SO(7) and G2 literally, and the coset count on them
runs in the exact lane with no numpy.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import ratlin
from .bryant import TwistParams, recover, sample_params
from .context import ENTRY_TOL, EXACT, Context
from .errors import ModelError, SubspaceViolationError
from .exterior import DIM, KForm, coerce_form, wedge
from .g2core import G2Structure, phi0
from .liegroup import HolonomySpec

_MODEL_TABLE = {
    "t7": (7, "trivial"),
    "s1xcy3": (1, "su3"),
    "t3xk3": (3, "su2"),
}


@dataclass(frozen=True)
class FlatModel:
    kind: str
    b1: int
    holonomy_label: str

    @property
    def omega_indices(self) -> tuple:
        """1-based coordinate directions the twist 1-form may use."""
        return tuple(range(1, self.b1 + 1))


def flat_model(kind: str) -> FlatModel:
    if kind not in _MODEL_TABLE:
        raise ModelError(f"unknown model {kind!r}; choose from {sorted(_MODEL_TABLE)}")
    b1, label = _MODEL_TABLE[kind]
    return FlatModel(kind=kind, b1=b1, holonomy_label=label)


def _cpx_wedge(a, b):
    """Wedge of complex forms held as (real, imaginary) pairs."""
    return (
        wedge(a[0], b[0]) - wedge(a[1], b[1]),
        wedge(a[0], b[1]) + wedge(a[1], b[0]),
    )


def _dz(re_idx: int, im_idx: int):
    return (KForm.basis((re_idx,)), KForm.basis((im_idx,)))


def model_phi(m: FlatModel, ctx: Context = EXACT) -> KForm:
    """The model's standard 3-form, assembled from its product data.

    t7 uses the standard form directly; the other two build it from the
    factor Kahler form and the real/imaginary parts of the holomorphic
    volume form.  All three agree coefficientwise.
    """
    if m.kind == "t7":
        return phi0(ctx)
    if m.kind == "s1xcy3":
        kahler = KForm.from_entries(2, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
        vol3 = _cpx_wedge(_cpx_wedge(_dz(2, 3), _dz(4, 5)), _dz(6, 7))
        phi = wedge(KForm.basis((1,)), kahler) + vol3[0]
    else:
        kahler = KForm.from_entries(2, {(4, 5): 1, (6, 7): 1})
        vol2 = _cpx_wedge(_dz(4, 5), _dz(6, 7))
        phi = (
            KForm.basis((1, 2, 3))
            + wedge(KForm.basis((1,)), kahler)
            + wedge(KForm.basis((2,)), vol2[0])
            - wedge(KForm.basis((3,)), vol2[1])
        )
    return coerce_form(phi, ctx)


@lru_cache(maxsize=None)
def model_structure(kind: str, mode: str = "exact") -> G2Structure:
    m = flat_model(kind)
    ctx = Context.of(mode)
    return G2Structure(model_phi(m, ctx), ctx)


@dataclass(frozen=True)
class GammaPoint:
    """A canonical parameter point of a model's family."""

    kind: str
    params: TwistParams


def gamma_sample(m: FlatModel, rng: random.Random, force_c_zero: bool = False) -> GammaPoint:
    """Random rational parameter point confined to the model's directions."""
    params = sample_params(rng, subspace_dim=m.b1, force_c_zero=force_c_zero)
    return GammaPoint(kind=m.kind, params=params.canonical())


def gamma_membership(m: FlatModel, phit: KForm, mode: str = "exact") -> GammaPoint:
    """Recover canonical parameters and enforce the model's direction subspace.

    Recovery failures propagate (RecoveryError / MetricMismatchError); a
    successful recovery whose direction uses coordinates outside the model's
    b1 block raises SubspaceViolationError instead.
    """
    s = model_structure(m.kind, mode)
    rec = recover(s, phit)
    w = rec.params.omega
    allowed = set(m.omega_indices)
    for i in range(1, DIM + 1):
        if i not in allowed and not s.ctx.is_zero(w.coeffs[i - 1], ENTRY_TOL):
            raise SubspaceViolationError(
                f"recovered direction uses dx{i}, outside the model's {m.b1} coordinates"
            )
    return GammaPoint(kind=m.kind, params=rec.params)


def translation_action(m: FlatModel, t, p: GammaPoint) -> GammaPoint:
    """Action of a torus translation on a parameter point.

    Only the full torus model supports this; constant-coefficient forms are
    translation invariant, so the action is the identity on parameters.
    """
    if m.kind != "t7":
        raise ModelError("translation action is only modeled on the full torus")
    t = tuple(t)
    if len(t) != DIM:
        raise ModelError("translations live on the 7-torus: need 7 coordinates")
    return GammaPoint(kind=p.kind, params=p.params)


def translation_orbit(m: FlatModel, p: GammaPoint, translations) -> tuple:
    """Distinct points in the orbit of p under the given translations."""
    seen = []
    for t in translations:
        q = translation_action(m, t, p)
        if all(q != r for r in seen):
            seen.append(q)
    if all(p != r for r in seen):
        seen.append(p)
    return tuple(seen)


def covering_sheet_count(m: FlatModel, p: GammaPoint, rng: random.Random) -> int:
    """Sheet count over a parameter point: the orbit size under _SHEET_SAMPLES sampled translations."""
    translations = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(DIM)] for _ in range(_SHEET_SAMPLES)]
    return len(translation_orbit(m, p, translations))


# A holonomy draw is rng.uniform(-1, 1) rounded to a multiple of 1/_DRAW_DEN.
_DRAW_DEN = 16
# Draws per call: covering_sheet_count's translations, holonomy_sample's generators.
_SHEET_SAMPLES = 40
_HOLONOMY_GENERATORS = 3

# {label: (draws per generator, ((z_p, z_q), draw indices of a, b, c) per
# Cayley factor)}.  The complex coordinate z_k lives on the 0-based real pair
# (1 + 2k, 2 + 2k): z_0, z_1, z_2 span coordinates 2..7 of the 3-fold factor,
# and the surface factor's z_1, z_2 span coordinates 4..7.  An su(3)
# generator has one factor per root su(2), and its 8 draws follow the
# Gell-Mann basis: lambda_1..3 on (z_0, z_1), lambda_4, 5 on (z_0, z_2) and
# lambda_6, 7 on (z_1, z_2); lambda_8, a multiple of sigma_3 on (z_0, z_2)
# plus sigma_3 on (z_1, z_2), gives both of those factors their c.
_CAYLEY_ROOTS = {
    "su3": (8, (((0, 1), (0, 1, 2)), ((0, 2), (3, 4, 7)), ((1, 2), (5, 6, 7)))),
    "su2": (3, (((1, 2), (0, 1, 2)),)),
}


def _draw(rng: random.Random) -> int:
    """One rng.uniform(-1, 1) draw as the numerator of its nearest multiple of 1/_DRAW_DEN."""
    return round(rng.uniform(-1.0, 1.0) * _DRAW_DEN)


def _cayley_factor(p: int, q: int, a: int, b: int, c: int) -> tuple:
    """(rows, den): the Cayley transform U = (I - A)^-1 (I + A) of
    A = i(a s1 + b s2 + c s3) / _DRAW_DEN on the complex pair (z_p, z_q), as int
    rows over den, the identity elsewhere.

    A^2 = -r^2 I with r^2 = (a^2 + b^2 + c^2) / _DRAW_DEN^2, so
    U = ((1 - r^2) I + 2A) / (1 + r^2), a rational element of SU(2).  The
    complex entry x + iy at (z_j, z_k) is the real block [[x, -y], [y, x]]."""
    n = a * a + b * b + c * c
    unit, two = _DRAW_DEN * _DRAW_DEN, 2 * _DRAW_DEN
    den = unit + n
    complex_rows = (((unit - n, two * c), (two * b, two * a)),
                    ((-two * b, two * a), (unit - n, -two * c)))
    rows = [[den * (i == j) for j in range(DIM)] for i in range(DIM)]
    for zr, entries in zip((p, q), complex_rows):
        for zc, (x, y) in zip((p, q), entries):
            r, col = 1 + 2 * zr, 1 + 2 * zc
            rows[r][col], rows[r][col + 1] = x, -y
            rows[r + 1][col], rows[r + 1][col + 1] = y, x
    return rows, den


def _cayley_generator(rng: random.Random, label: str) -> tuple:
    """One exact generator: the product of the label's Cayley factors."""
    count, roots = _CAYLEY_ROOTS[label]
    draws = [_draw(rng) for _ in range(count)]
    rows, den = [[int(i == j) for j in range(DIM)] for i in range(DIM)], 1
    for (p, q), idx in roots:
        f_rows, f_den = _cayley_factor(p, q, *(draws[i] for i in idx))
        rows, den = ratlin.matmul(rows, f_rows), den * f_den
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def holonomy_sample(m: FlatModel, rng: random.Random) -> HolonomySpec:
    """Sampled generators of the model's holonomy label, as a HolonomySpec.

    The torus gives the trivial spec.  The other models give
    _HOLONOMY_GENERATORS exact rational generators of their block
    special-unitary group, each a product of Cayley transforms
    (_cayley_factor) on root su(2)s, from 8 draws per su(3) generator and 3
    per su(2) generator.  The generators are Fraction matrices whatever the
    caller's lane, so coset_tangent_dim and every membership test on them
    are decided literally."""
    if m.holonomy_label == "trivial":
        return HolonomySpec.trivial()
    return HolonomySpec(tuple(_cayley_generator(rng, m.holonomy_label) for _ in range(_HOLONOMY_GENERATORS)))
