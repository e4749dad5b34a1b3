"""Computation context: scalar mode plus tolerances.

A whole computation runs either exact (fractions.Fraction everywhere) or
float; the two are never mixed inside one structure.  The Context object is
handed to the entry points (G2Structure construction, serialization, CLI) and
coerces incoming scalars once, so everything downstream stays in one
arithmetic.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExactModeError, ParseError

Scalar = Union[int, float, Fraction]

DEFAULT_TOL = 1e-10

_MODES = ("exact", "float")

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
    mode: str = "exact"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (isinstance(self.tol, (int, float)) and self.tol > 0):
            raise ValueError(f"tol must be a positive number, got {self.tol!r}")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

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

    def eq(self, a, b, tol: float | None = None) -> bool:
        """Scalar equality: literal in exact mode, tolerance in float mode."""
        if self.is_exact:
            return a == b
        return abs(a - b) <= (self.tol if tol is None else tol)


EXACT = Context("exact")
FLOAT = Context("float")


def _int_nth_root(m: int, n: int):
    """Largest r with r**n <= m, for m >= 0 (exact integer Newton)."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1):
        return m
    r = int(round(m ** (1.0 / n))) or 1
    while r ** n > m:
        r = (r * (n - 1) + m // r ** (n - 1)) // n
    while (r + 1) ** n <= m:
        r += 1
    return r


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


def scalar_sqrt(x, exact: bool):
    """Square root in the given arithmetic.

    Exact mode requires the rational to be a perfect square and raises
    ExactModeError otherwise; float mode defers to math.sqrt.
    """
    if exact:
        q = Fraction(x)
        if q < 0:
            raise ValueError("negative radicand")
        if q == 0:
            return Fraction(0)
        root = rational_nth_root(q, 2)
        if root is None:
            raise ExactModeError(f"{q} has no rational square root")
        return root
    if x < 0:
        raise ValueError("negative radicand")
    return math.sqrt(x)
