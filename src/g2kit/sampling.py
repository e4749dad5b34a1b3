"""Seeded random generators shared by tests, the selftest suite and the CLI.

Everything exact-mode is driven by random.Random so runs are reproducible
from a single integer seed across platforms; float helpers take the same rng
and go through Fractions first where exactness matters.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .exterior import DIM, NK, KForm, Metric
from . import ratlin


def rational_unit_tuple(rng: random.Random, n: int) -> tuple:
    """A rational point on the unit sphere in R^n (sum of squares exactly 1).

    Stereographic image of an integer vector a with entries in -9..9: the
    first coordinate is (|a|^2 - 1)/(|a|^2 + 1), the rest 2 a_i/(|a|^2 + 1).
    Every output is an exact Fraction; a = 0 gives the pole (-1, 0, ..., 0).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (Fraction(rng.choice((-1, 1))),)
    a = [rng.randint(-9, 9) for _ in range(n - 1)]
    s = sum(x * x for x in a)
    d = s + 1
    return (Fraction(s - 1, d),) + tuple(Fraction(2 * x, d) for x in a)


def rational_kform(rng: random.Random, degree: int) -> KForm:
    """Dense random k-form, coefficients p / q with p in -9..9 and q in 1..4."""
    coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(NK[degree]))
    return KForm(degree, coeffs)


def float_kform(rng: random.Random, degree: int) -> KForm:
    coeffs = tuple(rng.uniform(-2.0, 2.0) for _ in range(NK[degree]))
    return KForm(degree, coeffs)


def rational_spd_metric(rng: random.Random) -> Metric:
    """Random exact SPD metric g = A^T A with integer A, entries in -3..3.

    det(g) = det(A)^2 is a perfect square, so the exact Hodge star works on
    these without leaving the rationals.
    """
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(DIM)] for _ in range(DIM)]
        if ratlin.det_exact(a) != 0:
            return Metric(tuple(tuple(r) for r in ratlin.matmul(ratlin.transpose(a), a)))


def rational_symmetric(rng: random.Random) -> list:
    """Random exact symmetric 7x7 matrix (rows of Fractions)."""
    m = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            m[i][j] = v
            m[j][i] = v
    return m


def float_antisymmetric(rng: random.Random, span: float = 1.0) -> list:
    m = [[0.0] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            v = rng.uniform(-span, span)
            m[i][j] = v
            m[j][i] = -v
    return m
