"""Computation context: the arithmetic lane and the tolerance ladder.

A whole computation runs either exact (fractions.Fraction everywhere) or
float; the two are never mixed inside one structure.  A Context names the
lane and is the only place that knows what a lane is: it coerces incoming
scalars once, gives the lane's zero and one, decides "is this zero" (literal
in exact, within a tolerance the caller names in float), and routes square
roots, determinants, definiteness, inverses, ranks, kernels, spans,
symmetrizing, integer scaling and the reduction of a k-form's stored
(num, den) pair to the lane's algorithm.  Inverses, kernels and spans come
as scaled pairs (rows, den), int rows over one den in exact mode.  The
eigenvector check runs one code path in both lanes, on ratlin.matvec, and
reads the lane only through scaled, ratio and is_zero.  Constructors that
need a lane's zero and one (phi0(FLOAT), KForm.zero, basis_vector, ...)
take a Context, never a bool.  lane_of finds
the lane of values that arrive without a Context (ints and Fractions are
exact, any float makes them float).

Only the float lane calls numpy, so the kernel modules reach it through the
handle `np` below, which imports numpy on the first float-lane call: the
exact lane and `import g2kit` never load it.

Every float tolerance of the package is one of the named constants below;
the exact lane replaces each with literal equality.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExactModeError, G2KitError, ParseError

Scalar = Union[int, float, Fraction]

# -- the tolerance ladder ------------------------------------------------------
# Absolute unless marked relative.
#
# Context.tol, a class constant: the CLI's --tol default; odot_inverse's 7-part
# and residual (relative to max(1, |eta|)); the sign TwistParams.canonical
# reads off a float omega at c = 0 (relative to max(1, |omega|)).
DEFAULT_TOL = 1e-10
# is_so7 / is_g2 default and nf_member's conjugates: entries of g^T g - 1,
# det g - 1, g.phi0 - phi0.
SO7_TOL = 1e-10
# c^2 + |omega|^2 = 1, tangency c c_dot + <omega, omega_dot> = 0, the range of c^2 in recover.
CONSTRAINT_TOL = 1e-12
# recover: induced metric match and the re-twist residual (relative to max(1, |phit|)).
RECOVERY_TOL = 1e-9
# recover sets a recovered |c| at or below this to 0 before it picks the
# antipodal representative; it lies below the 1e-10 that equivalent_to allows in c.
C_ZERO_SWITCH = 1e-11
# relative: singular values at or below this times the largest count as zero.
FLOAT_RANK_CUTOFF = 1e-8
# Lie side: holonomy generators in SO(7) and G2, algebra elements killing phi,
# brackets staying in a span.
LIE_TOL = 1e-8
# entrywise float identities: orthonormal frame, antisymmetric basis matrices,
# a model's unused directions.
ENTRY_TOL = 1e-9
# a float metric taken as the identity (the standard basis is orthonormal).
EUCLIDEAN_TOL = 1e-12
# |phi|^2 = 7 for a normalized 3-form.
PHI_NORM_TOL = 1e-6
# relative: smallest eigenvalue of a positive definite float metric.
SPD_EIG_TOL = 1e-12


class _LazyNumpy:
    """numpy for the float lane, imported on the first attribute access.

    Each resolved attribute (np.asarray, np.linalg, ...) is stored on the
    handle, so later lookups are plain attribute reads.  Dunder names are
    refused rather than resolved: tools that probe objects (copy, inspect)
    must not import numpy through the handle."""

    def __getattr__(self, name):
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()

_MODES = ("exact", "float")
_ZERO = Fraction(0)
_ONE = Fraction(1)

# Fraction("1e999999999") expands 10**999999999 before anything can refuse it,
# so decimal exponents are capped like Python's 4300-digit limit on int strings.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def _check_exponent(text: str):
    m = _EXPONENT.search(text)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
            raise ParseError(f"decimal exponent beyond {_MAX_DECIMAL_EXPONENT} in {text[:40]!r}")


@dataclass(frozen=True)
class Context:
    """One arithmetic lane, "exact" or "float".  The lane carries no
    tolerance of its own: every is_zero call names its bound, and tol is
    the class constant DEFAULT_TOL, the ladder's default for callers that
    read it."""

    mode: str = "exact"
    tol = DEFAULT_TOL

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @staticmethod
    def of(mode) -> "Context":
        """The shared context of a mode name ("exact" or "float"); ValueError otherwise."""
        if isinstance(mode, str) and mode in _MODES:
            return EXACT if mode == "exact" else FLOAT
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    @property
    def zero(self) -> Scalar:
        return _ZERO if self.is_exact else 0.0

    @property
    def one(self) -> Scalar:
        return _ONE if self.is_exact else 1.0

    def is_zero(self, x, tol: float, scale=1) -> bool:
        """x == 0 in exact mode; |x| <= tol * scale in float mode.  A
        relative bound passes its scale apart, so an exact scale is never
        multiplied by the float tol."""
        if self.is_exact:
            return x == 0
        return abs(x) <= tol * scale

    def scalar(self, x) -> Scalar:
        """Coerce one scalar into this context's arithmetic.

        Exact mode accepts ints, Fractions and "p/q" strings; a float is
        rejected rather than silently promoted to its binary expansion.
        Float mode accepts all of those plus finite floats; NaN, infinities
        and strings beyond the float range are rejected.  A string's decimal
        exponent may not exceed 4300 in either mode.
        """
        if isinstance(x, bool):
            raise ParseError("booleans are not scalars")
        if isinstance(x, str):
            _check_exponent(x)
        if self.is_exact:
            if isinstance(x, float):
                raise ExactModeError(
                    "exact mode got a float scalar; pass an int, Fraction or 'p/q' string"
                )
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise ParseError(f"bad exact scalar {x!r}") from exc
        try:
            val = float(Fraction(x)) if isinstance(x, str) else float(x)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise ParseError(f"bad float scalar {x!r}") from exc
        if not math.isfinite(val):
            raise ParseError(f"float scalar {x!r} is not finite")
        return val

    def sqrt(self, x) -> Scalar:
        """Square root in this arithmetic.

        Exact mode requires the rational to be a perfect square and raises
        ExactModeError otherwise; float mode defers to math.sqrt.
        """
        if x < 0:
            raise ValueError("negative radicand")
        if not self.is_exact:
            return math.sqrt(x)
        q = Fraction(x)
        root = rational_nth_root(q, 2) if q else _ZERO
        if root is None:
            raise ExactModeError(f"{q} has no rational square root")
        return root

    # ratlin reads FLOAT_RANK_CUTOFF from this module, so it is imported on use.

    def scaled(self, rows) -> tuple:
        """(rows', den) with rows = rows' / den.  Exact mode: int rows over
        the lcm of every denominator; float mode: the rows themselves over 1.
        Table code runs on rows' in both lanes, so the exact lane's sums and
        products are on ints, and builds each output with ratio."""
        if self.mode != "exact":
            return rows, 1
        from . import ratlin

        return ratlin.int_rows(rows)

    def ratio(self, num, den) -> Scalar:
        """num / den as one lane scalar: Fraction(num, den) in exact mode (a
        single gcd for ints), num / den in float mode."""
        # called once per output entry of every table product: mode is read
        # directly, not through the is_exact property
        return Fraction(num, den) if self.mode == "exact" else num / den

    @property
    def scaled_zero(self):
        """The zero that sums on scaled rows start from: int 0 in exact mode,
        0.0 in float mode."""
        return 0 if self.mode == "exact" else 0.0

    def reduce(self, num, den) -> tuple:
        """(num', den', values) storing num / den as a k-form does.

        Exact mode: num' / den' in lowest terms over one denominator, so
        gcd(den', *num') == 1 and den' > 0 (a zero vector gets den' == 1);
        values is None, as the Fractions are built on first read.  Float
        mode: the floats num / den (num itself when den is 1) over 1, and
        values the same tuple."""
        if self.mode == "exact":
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g == 1:
                return tuple(num), den, None
            return tuple(x // g for x in num), den // g, None
        vals = tuple(num) if den == 1 else tuple(x / den for x in num)
        return vals, 1, vals

    def symmetric(self, m) -> list:
        """A square matrix whose transposed entries agree in exact arithmetic,
        made symmetric: exact mode returns it as it is (ints stay ints), float
        mode replaces each transposed pair by its mean (x_pq + x_qp) / 2."""
        if self.mode == "exact":
            return m
        n = len(m)
        out = [[None] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                out[p][q] = out[q][p] = (m[p][q] + m[q][p]) / 2
        return out

    def det(self, m) -> Scalar:
        """Determinant: Bareiss elimination in exact mode, in float mode the
        signed product of partial-pivoting pivots (ratlin.det_float), so an
        integer-valued matrix with exact pivots, such as 6 I, has its
        determinant to the last bit."""
        from . import ratlin

        return ratlin.det_exact(m) if self.is_exact else ratlin.det_float(m)

    def definite_det(self, m):
        """(det(m), sign) when one leading-minor pass over a symmetric int
        matrix m (ratlin.definite_det) shows sign * m positive definite, in
        exact mode; None otherwise.  Float mode returns None: the float lane
        reads positivity off the eigenvalues (Metric) and det off
        Context.det."""
        from . import ratlin

        return ratlin.definite_det(m) if self.is_exact else None

    def inv(self, m) -> list:
        """Inverse as lane rows, scaled_inverse's pair read through ratio;
        G2KitError("matrix is singular") in both modes."""
        rows, den = self.scaled_inverse(m)
        return [[self.ratio(x, den) for x in row] for row in rows]

    def scaled_inverse(self, m) -> tuple:
        """The inverse as Context.scaled rows (rows, den): in exact mode int
        rows over one den from one int elimination (ratlin.inv_int), with no
        Fraction; in float mode numpy's inverse over 1.  G2KitError("matrix
        is singular") in both modes."""
        from . import ratlin

        if self.is_exact:
            return ratlin.inv_int(m)
        try:
            return np.linalg.inv(np.asarray(m, dtype=float)).tolist(), 1
        except np.linalg.LinAlgError as exc:
            raise G2KitError("matrix is singular") from exc

    def rank(self, m) -> int:
        from . import ratlin

        return ratlin.rank_exact(m) if self.is_exact else ratlin.rank_float(m)

    def nullspace(self, m) -> list:
        """A kernel basis as lane rows, scaled_nullspace's pair read through
        ratio."""
        rows, den = self.scaled_nullspace(m)
        return [[self.ratio(x, den) for x in row] for row in rows]

    def scaled_nullspace(self, m) -> tuple:
        """A kernel basis as Context.scaled rows (rows, den): in exact mode
        one vector per free column, int rows over one den built with no
        Fraction (ratlin.nullspace_int); in float mode the orthonormal
        basis over 1."""
        from . import ratlin

        return ratlin.nullspace_int(m) if self.is_exact else (ratlin.nullspace_float(m), 1)

    def scaled_span(self, m) -> tuple:
        """A basis of the row span as Context.scaled rows (rows, den): in
        exact mode int rows over one den built with no Fraction
        (ratlin.span_int), normalized as scaled_nullspace normalizes a
        kernel, so the rows / den are nullspace(nullspace(m)) literally; in
        float mode the orthonormal SVD basis over 1."""
        from . import ratlin

        return ratlin.span_int(m) if self.is_exact else (ratlin.span_float(m), 1)

    def eigenvalue(self, m, vectors, lam=None):
        """lam (by default the vectors' Rayleigh quotient) when m v = lam v
        for every vector, else None.  The images are ratlin.matvec's and
        lam = p / q is split by scaled, so each residual max|q m v - p v| is
        zero under is_zero: literally in exact mode, in float mode within
        FLOAT_RANK_CUTOFF times q |m|_inf |v|_max, the bound of |q m v|,
        passed as is_zero's scale."""
        from . import ratlin

        images = [ratlin.matvec(m, v, self.scaled_zero) for v in vectors]
        if lam is None:
            den = sum(x * x for v in vectors for x in v)
            if not den:
                return None
            lam = self.ratio(sum(x * y for v, w in zip(vectors, images) for x, y in zip(v, w)), den)
        ((p,),), q = self.scaled([[lam]])
        norm = None
        for v, w in zip(vectors, images):
            res = max((abs(q * y - p * x) for x, y in zip(v, w)), default=0)
            if res:
                if norm is None:
                    norm = max(sum(abs(x) for x in row) for row in m)
                if not self.is_zero(res, FLOAT_RANK_CUTOFF, q * norm * max(map(abs, v))):
                    return None
        return lam


EXACT = Context("exact")
FLOAT = Context("float")


def lane_of(values) -> Context:
    """The lane of loose values: FLOAT when any is a float, else EXACT."""
    for v in values:
        if isinstance(v, float):
            return FLOAT
    return EXACT


def _int_nth_root(m: int, n: int):
    """Largest r with r**n <= m, for m >= 0: math.isqrt for n = 2, else an
    integer Newton iteration from 2**ceil(bits / n), which lies above the
    root, so it decreases until it stops at the root (no float guess)."""
    if m < 0:
        raise ValueError("negative radicand")
    if n == 2:
        return math.isqrt(m)
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + m // r ** (n - 1)) // n
        if nxt >= r:
            return r
        r = nxt


def rational_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact positive n-th root of a positive rational, or None."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("radicand must be positive")
    p, r = q.numerator, q.denominator
    a = _int_nth_root(p, n)
    b = _int_nth_root(r, n)
    if a ** n == p and b ** n == r:
        return Fraction(a, b)
    return None
