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
Lie-side membership and tangent computations consume.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bryant import TwistParams, recover, sample_params
from .context import ENTRY_TOL, EXACT, Context, np
from .errors import ModelError, SubspaceViolationError
from .exterior import DIM, KForm, coerce_form, wedge
from .g2core import G2Structure, phi0
from .liegroup import HolonomySpec, matrix_exp

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


def covering_sheet_count(m: FlatModel, p: GammaPoint, rng: random.Random, samples: int = 100) -> int:
    """Sheet count over a parameter point: the orbit size under sampled translations."""
    translations = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(DIM)] for _ in range(samples)]
    return len(translation_orbit(m, p, translations))


def _su3_real_blocks():
    """The 8 standard special-unitary generators of the 3-fold factor,
    embedded as real antisymmetric matrices on coordinates 2..7."""
    lam = []
    z = np.zeros((3, 3), dtype=complex)

    def mk(entries):
        m = z.copy()
        for (i, j), v in entries.items():
            m[i, j] = v
        return m

    lam.append(mk({(0, 1): 1, (1, 0): 1}))
    lam.append(mk({(0, 1): -1j, (1, 0): 1j}))
    lam.append(mk({(0, 0): 1, (1, 1): -1}))
    lam.append(mk({(0, 2): 1, (2, 0): 1}))
    lam.append(mk({(0, 2): -1j, (2, 0): 1j}))
    lam.append(mk({(1, 2): 1, (2, 1): 1}))
    lam.append(mk({(1, 2): -1j, (2, 1): 1j}))
    lam.append(np.diag([1, 1, -2]).astype(complex) / np.sqrt(3))
    return [_embed_complex(1j * x, offset=1, blocks=3) for x in lam]


def _su2_real_blocks():
    """The 3 special-unitary generators of the surface factor on coordinates 4..7."""
    pauli = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return [_embed_complex(1j * x, offset=3, blocks=2) for x in pauli]


def _embed_complex(x, offset: int, blocks: int):
    """Real 7x7 image of a complex matrix acting on the paired coordinates
    starting at 0-based offset; z_a lives on (offset + 2a, offset + 2a + 1)."""
    out = np.zeros((DIM, DIM))
    for a in range(blocks):
        for b in range(blocks):
            re, im = x[a, b].real, x[a, b].imag
            r, c = offset + 2 * a, offset + 2 * b
            out[r, c] = re
            out[r, c + 1] = -im
            out[r + 1, c] = im
            out[r + 1, c + 1] = re
    return out


def holonomy_sample(m: FlatModel, rng: random.Random, count: int = 3) -> HolonomySpec:
    """Sampled generators of the model's holonomy label, as a HolonomySpec.

    The torus gives the trivial spec; the other models exponentiate random
    combinations of their block special-unitary algebra."""
    if m.holonomy_label == "trivial":
        return HolonomySpec.trivial()
    basis = _su3_real_blocks() if m.holonomy_label == "su3" else _su2_real_blocks()
    gens = []
    for _ in range(count):
        acc = np.zeros((DIM, DIM))
        for b in basis:
            acc += rng.uniform(-1.0, 1.0) * b
        gens.append(matrix_exp(acc.tolist()))
    return HolonomySpec(tuple(gens))
