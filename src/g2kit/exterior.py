"""Exterior algebra over a fixed oriented 7-dimensional inner-product space.

A k-form is stored dense: one coefficient per strictly increasing index tuple
of length k (indices run 1..7), ordered lexicographically.  Degree-0 forms
are scalars, degree-7 forms are multiples of dx1^...^dx7.  The convention
throughout is the determinant evaluation without factorial weights, so
dx1^dx2 applied to (e1, e2) is +1 and interior contraction is an
antiderivation acting on the first slot.

A form stores its coefficients as a pair (num, den).  An exact form keeps
int numerators over one positive int denominator in lowest terms, and its
coeffs, the fractions.Fraction values every public reader sees, are built
on first read; a float form keeps its floats as num and coeffs over 1.  A
single form never mixes the two (construction normalizes ints to Fraction
unless a float is present), and forms of both lanes meet in the float lane.
Every kernel here (the arithmetic, wedge, interior, the star, inner
products, sharp, pullback) reads the stored pairs, sums on them (ints in
the exact lane) and builds its result's pair with Context.reduce, so the
exact lane builds no Fraction per coefficient.  Contraction has one
definition, the signed-selection table _interior_table: _contractions
reads the seven rows e_i . a off a form's numerators with it, and interior
is the row sum of v over those rows (_row_sum); g2core's contractions,
dx_i ^ u and cubic table of B read the same table.

A Metric is stored the same way: an exact metric keeps 7 int rows over one
positive int denominator in lowest terms, and builds its Fraction rows on
first read; a float metric keeps its float rows over 1.  Its symmetry and
positivity checks (the leading minors, from one Bareiss pass) run on the
ints, and equality and the hash read the pair, so the Metric-keyed caches
below compare ints on every lookup.  Metrics of different lanes never
compare equal, so those caches keep one entry per lane.

A non-Euclidean metric is read through two tables, each kept per metric:
g^-1 (_metric_inverse), the one inverse every reader in every module
shares, from one elimination and made symmetric once in the float lane,
and the minors of g of each order (compound); int rows over one den in the
exact lane, float rows over 1 in the float lane.  By Jacobi's complementary-minor identity the k x k minors of g^-1 are the
re-indexed (7 - k) x (7 - k) minors of g over det g, so the Gram of basis
k-forms for k >= 2 (_lambda_gram) and the star of every degree read the
minors of g; the Gram of 1-forms is g^-1.  The star and sharp run one
ratlin.matvec of a table with the form's stored numerators, form_inner one
Gram sum (_gram_sum).  The float minors of g round far better with
cond(g) than the minors of a float g^-1: they keep the float star of phi
at |phi|^2 = 7 on frames where the 3 x 3 minors of g^-1 miss it by 1e-6.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterator, Sequence, Tuple

from . import ratlin
from .context import EXACT, FLOAT, SPD_EIG_TOL, Context, lane_of, np
from .errors import DegreeError, MetricError

DIM = 7

BASIS = {k: tuple(combinations(range(1, DIM + 1), k)) for k in range(DIM + 1)}
POS = {k: {idx: p for p, idx in enumerate(BASIS[k])} for k in range(DIM + 1)}
NK = {k: len(BASIS[k]) for k in range(DIM + 1)}
TOP_INDEX = BASIS[DIM][0]


def merge_sign(i_tuple: Tuple[int, ...], j_tuple: Tuple[int, ...]):
    """Shuffle sign for concatenating two increasing tuples.

    Returns (sign, merged_tuple); sign is 0 (and merged None) when the
    tuples share an index.  The sign counts the transpositions needed to
    sort the concatenation, so dx_I ^ dx_J = sign * dx_merged.
    """
    merged = []
    inversions = 0
    a, b = 0, 0
    while a < len(i_tuple) and b < len(j_tuple):
        x, y = i_tuple[a], j_tuple[b]
        if x == y:
            return 0, None
        if x < y:
            merged.append(x)
            a += 1
        else:
            merged.append(y)
            b += 1
            inversions += len(i_tuple) - a
    merged.extend(i_tuple[a:])
    merged.extend(j_tuple[b:])
    return (-1) ** inversions, tuple(merged)


@lru_cache(maxsize=None)
def _wedge_table(k: int, l: int):
    """Nonzero structure constants of the wedge: (pos_a, pos_b, sign, pos_out)."""
    table = []
    for pa, I in enumerate(BASIS[k]):
        for pb, J in enumerate(BASIS[l]):
            s, merged = merge_sign(I, J)
            if s:
                table.append((pa, pb, s, POS[k + l][merged]))
    return tuple(table)


@lru_cache(maxsize=None)
def _comp_table(k: int):
    """Per k-index: (position of the complement, permutation sign)."""
    table = []
    full = set(range(1, DIM + 1))
    for I in BASIS[k]:
        J = tuple(sorted(full - set(I)))
        s, _ = merge_sign(I, J)
        table.append((POS[DIM - k][J], s))
    return tuple(table)


def _normalize(values) -> tuple:
    vals = tuple(values)
    if any(isinstance(v, float) for v in vals):
        return tuple(float(v) for v in vals)
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vals)


@dataclass(frozen=True, eq=False)
class KForm:
    """Dense k-form; immutable and hashable.

    Stored as a pair, num over den.  An exact form keeps a tuple of ints
    over one positive int den, in lowest terms (gcd(den, *num) == 1, and a
    zero form has den == 1), so two exact forms are equal when their pairs
    are; coeffs, its Fractions, are built on first read and kept.  A float
    form keeps its floats as both num and coeffs, over den == 1.  Kernels
    read and build the pair (Context.reduce), never the Fractions.
    """

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.degree, int) or not 0 <= self.degree <= DIM:
            raise DegreeError(f"degree must be 0..{DIM}, got {self.degree!r}")
        vals = _normalize(self.coeffs)
        if len(vals) != NK[self.degree]:
            raise DegreeError(
                f"degree {self.degree} needs {NK[self.degree]} coefficients, got {len(vals)}"
            )
        lane = lane_of(vals[:1])
        (num,), den = lane.scaled([vals])
        state = self.__dict__
        state["coeffs"], state["num"], state["den"], state["_lane"] = vals, tuple(num), den, lane

    @classmethod
    def _of(cls, degree: int, num, den, lane: Context) -> "KForm":
        """The form num / den, num a sequence of the lane's scaled entries
        (ints in exact mode, floats in float mode), stored as Context.reduce
        gives it."""
        form = object.__new__(cls)
        num, den, values = lane.reduce(num, den)
        state = form.__dict__
        state["degree"], state["num"], state["den"], state["_lane"] = degree, num, den, lane
        if values is not None:
            state["coeffs"] = values
        return form

    def __getattr__(self, name):
        # only coeffs is ever missing: an exact form's Fractions, built once
        if name != "coeffs" or "num" not in self.__dict__:
            raise AttributeError(name)
        den, ratio = self.den, self._lane.ratio
        coeffs = self.__dict__["coeffs"] = tuple(ratio(x, den) for x in self.num)
        return coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.degree != other.degree:
            return False
        if self._lane.mode == other._lane.mode:
            return self.den == other.den and self.num == other.num
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    @classmethod
    def zero(cls, degree: int, ctx: Context = EXACT) -> "KForm":
        return cls.from_entries(degree, {}, ctx)

    @classmethod
    def basis(cls, index: Sequence[int]) -> "KForm":
        idx = tuple(index)
        k = len(idx)
        if k > DIM or idx not in POS[k]:
            raise DegreeError(f"not a strictly increasing index tuple: {idx!r}")
        coeffs = [Fraction(0)] * NK[k]
        coeffs[POS[k][idx]] = Fraction(1)
        return cls(k, tuple(coeffs))

    @classmethod
    def from_entries(cls, degree: int, entries, ctx: Context = EXACT) -> "KForm":
        """A k-form from {index tuple: coefficient}, every entry coerced into
        the lane (a float entry of an exact form raises ExactModeError)."""
        coeffs = [ctx.zero] * NK[degree]
        for idx, c in dict(entries).items():
            idx = tuple(idx)
            if idx not in POS[degree]:
                raise DegreeError(f"bad index {idx!r} for degree {degree}")
            coeffs[POS[degree][idx]] = ctx.scalar(c)
        return cls(degree, tuple(coeffs))

    @property
    def is_exact(self) -> bool:
        return self._lane.is_exact

    def coeff(self, *index: int):
        """Signed coefficient lookup; repeated indices give 0, bad ones DegreeError."""
        if len(index) == 1 and isinstance(index[0], (tuple, list)):
            index = tuple(index[0])
        if len(index) != self.degree or not set(index) <= set(range(1, DIM + 1)):
            raise DegreeError(f"bad index {index!r} for degree {self.degree}")
        order = tuple(sorted(index))
        if len(set(order)) != len(order):
            return self._lane.zero
        sign = _permutation_sign(index)
        return self._lane.ratio(sign * self.num[POS[self.degree][order]], self.den)

    def entries(self) -> Iterator[tuple]:
        for p, I in enumerate(BASIS[self.degree]):
            c = self.coeffs[p]
            if c:
                yield I, c

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        a, b, lane = _meet(self, other)
        return KForm._of(self.degree, *_pair_sum(a, b, 1), lane)

    def __sub__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise DegreeError("cannot subtract forms of different degree")
        a, b, lane = _meet(self, other)
        return KForm._of(self.degree, *_pair_sum(a, b, -1), lane)

    def __neg__(self) -> "KForm":
        return KForm._of(self.degree, [-a for a in self.num], self.den, self._lane)

    def __mul__(self, s) -> "KForm":
        lane = lane_of((self.num[0], s))
        a = coerce_form(self, lane)
        ((x,),), xden = lane.scaled([[s]])
        return KForm._of(a.degree, [y * x for y in a.num], a.den * xden, lane)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "KForm":
        if not s:
            raise ZeroDivisionError("k-form divided by zero")
        lane = lane_of((self.num[0], s))
        a = coerce_form(self, lane)
        ((x,),), xden = lane.scaled([[s]])
        return KForm._of(a.degree, [y * xden for y in a.num], a.den * x, lane)

    def max_abs(self):
        return self._lane.ratio(max(abs(x) for x in self.num), self.den)

    def isclose(self, other: "KForm", tol: float = 0.0) -> bool:
        """Coefficientwise comparison; tol=0 means literal equality."""
        if self.degree != other.degree:
            return False
        if tol == 0.0:
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        return all(abs(a - b) <= tol for a, b in zip(self.coeffs, other.coeffs))

    def as_float(self) -> "KForm":
        # int / int rounds the exact quotient once, as float(Fraction) does
        return KForm._of(self.degree, [x / self.den for x in self.num], 1, FLOAT)


def _meet(a: KForm, b: KForm) -> tuple:
    """(a, b, lane) with both forms in one lane: the float lane when either
    is float, as Fraction-float arithmetic meets."""
    lane = lane_of((a.num[0], b.num[0]))
    return coerce_form(a, lane), coerce_form(b, lane), lane


def _pair_sum(a: KForm, b: KForm, sign: int) -> tuple:
    """(num, den) of a + sign * b on the stored pairs of two forms of one lane."""
    if a.den == b.den:
        if sign > 0:
            return [x + y for x, y in zip(a.num, b.num)], a.den
        return [x - y for x, y in zip(a.num, b.num)], a.den
    den = lcm(a.den, b.den)
    ma, mb = den // a.den, sign * (den // b.den)
    return [x * ma + y * mb for x, y in zip(a.num, b.num)], den


def _permutation_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return (-1) ** inv


def coerce_form(a: KForm, ctx: Context) -> KForm:
    """Re-express a form in the context's arithmetic (may raise on floats in
    exact mode); a form already in that lane is returned as it is."""
    if a._lane.mode == ctx.mode:
        return a
    return KForm(a.degree, tuple(ctx.scalar(c) for c in a.coeffs))


def basis_vector(i: int, ctx: Context = EXACT) -> tuple:
    if not 1 <= i <= DIM:
        raise ValueError(f"basis vector index must be 1..{DIM}, got {i!r}")
    return tuple(ctx.one if j == i else ctx.zero for j in range(1, DIM + 1))


def wedge(a: KForm, b: KForm) -> KForm:
    if a.degree + b.degree > DIM:
        raise DegreeError(f"wedge degree {a.degree}+{b.degree} exceeds {DIM}")
    out_deg = a.degree + b.degree
    a, b, lane = _meet(a, b)
    out = [lane.scaled_zero] * NK[out_deg]
    _wedge_add(out, a.num, a.degree, b.num, b.degree)
    return KForm._of(out_deg, out, a.den * b.den, lane)


def _wedge_add(out, ac, k: int, bc, l: int) -> None:
    """out += a ^ b on the scaled coefficients ac of a k-form and bc of an
    l-form (ints in the exact lane), term by term in _wedge_table order."""
    for pa, pb, s, po in _wedge_table(k, l):
        ca = ac[pa]
        if not ca:
            continue
        cb = bc[pb]
        if not cb:
            continue
        out[po] += ca * cb if s > 0 else -(ca * cb)


@lru_cache(maxsize=None)
def _interior_table(k: int):
    """e_i . dx_P = sign dx_Q on k-forms: per i = 1..7, {Q position: (P position, sign)}.
    The one definition of contraction: every contraction in the package reads it."""
    table = []
    for i in range(1, DIM + 1):
        row = {}
        for p, idx in enumerate(BASIS[k]):
            if i in idx:
                t = idx.index(i)
                row[POS[k - 1][idx[:t] + idx[t + 1:]]] = (p, -1 if t % 2 else 1)
        table.append(row)
    return tuple(table)


def _contractions(k: int, coeffs, zero=0) -> list:
    """e_i . a for i = 1..7 on a k-form's coefficients: signed selections
    (_interior_table), one row of NK[k - 1] entries each, no arithmetic."""
    rows = []
    for contr in _interior_table(k):
        out = [zero] * NK[k - 1]
        for q, (p, sign) in contr.items():
            if coeffs[p]:
                out[q] = coeffs[p] if sign > 0 else -coeffs[p]
        rows.append(out)
    return rows


def interior(v: Sequence, a: KForm) -> KForm:
    """Contraction of a k-form with a vector in the first slot: the row sum
    sum_i v_i (e_i . a) over the contractions of a's stored numerators."""
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    if len(v) != DIM:
        raise ValueError(f"interior needs a vector of {DIM} entries, got {len(v)}")
    k = a.degree
    lane = lane_of((a.num[0], *v))
    a = coerce_form(a, lane)
    (v,), vden = lane.scaled([v])
    zero = lane.scaled_zero
    return KForm._of(k - 1, _row_sum(v, _contractions(k, a.num, zero), zero), a.den * vden, lane)


@dataclass(frozen=True)
class Orientation:
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")

    def reversed(self) -> "Orientation":
        return Orientation(-self.sign)


POSITIVE = Orientation(1)
NEGATIVE = Orientation(-1)


_IDENTITY = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))


def _split_rows(flat) -> tuple:
    return tuple(tuple(flat[i * DIM:(i + 1) * DIM]) for i in range(DIM))


@dataclass(frozen=True, eq=False)
class Metric:
    """Symmetric positive definite 7x7 matrix g; immutable and hashable.

    Stored as a pair, num over den, as a KForm is.  An exact metric keeps a
    tuple of int rows over one positive int den, in lowest terms, and its
    rows, the Fractions every public reader sees, are built on first read
    and kept; a float metric keeps its float rows as both num and rows, over
    den == 1.  Symmetry, positivity, equality and the hash read the pair.
    Positivity is Sylvester's criterion in exact mode: one Bareiss pass on
    num, whose pivots are its leading principal minors and whose last pivot
    det(num) _metric_det reuses (metric_from_phi runs that pass on B and
    hands its det to _of); float mode reads the eigenvalues.  Metrics
    of different lanes are never equal, so a Metric-keyed cache never hands
    one lane's tables to the other.
    """

    rows: tuple

    def __post_init__(self):
        if len(self.rows) != DIM or any(len(r) != DIM for r in self.rows):
            raise MetricError("metric must be 7x7")
        vals = _normalize(x for r in self.rows for x in r)
        lane = lane_of(vals[:1])
        rows = self.__dict__["rows"] = _split_rows(vals)
        num, den = lane.scaled(rows)
        self._store(tuple(tuple(r) for r in num), den, lane)

    @classmethod
    def _of(cls, num, den, lane: Context, det=None) -> "Metric":
        """The metric num / den, num 7 rows of the lane's scaled entries (ints
        in exact mode, floats in float mode), stored as Context.reduce gives
        it; no Fraction is built.  A caller that has shown the int rows num
        positive definite passes det = det(num), and no second pass runs."""
        metric = object.__new__(cls)
        flat, out, values = lane.reduce([x for row in num for x in row], den)
        if values is not None:
            metric.__dict__["rows"] = _split_rows(values)
        if det is not None:
            # Context.reduce divided num by den // out
            det //= (den // out) ** DIM
        metric._store(_split_rows(flat), out, lane, det)
        return metric

    def _store(self, num, den, lane: Context, det=None):
        for i in range(DIM):
            for j in range(i):
                if num[i][j] != num[j][i]:
                    raise MetricError("metric must be symmetric")
        if lane.is_exact:
            found = ratlin.definite_det(num) if det is None else (det, 1)
            if found is None or found[1] < 0:
                raise MetricError("metric is not positive definite")
            det = found[0]
        else:
            eig = np.linalg.eigvalsh(np.asarray(num, dtype=float))
            scale = max(1.0, float(np.max(np.abs(eig))))
            if eig[0] <= SPD_EIG_TOL * scale:
                raise MetricError("metric is not positive definite")
        state = self.__dict__
        state["num"], state["den"], state["_lane"], state["_det"] = num, den, lane, det
        # Metric-keyed caches hash on every lookup
        state["_hash"] = hash((lane.mode, den, num))

    def __getattr__(self, name):
        # only rows is ever missing: an exact metric's Fractions, built once
        if name != "rows" or "num" not in self.__dict__:
            raise AttributeError(name)
        den, ratio = self.den, self._lane.ratio
        rows = self.__dict__["rows"] = tuple(tuple(ratio(x, den) for x in row) for row in self.num)
        return rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._lane.mode == other._lane.mode and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return self._hash

    @property
    def is_exact(self) -> bool:
        return self._lane.is_exact

    @property
    def is_euclidean(self) -> bool:
        return _metric_is_euclidean(self)

    def is_euclidean_within(self, tol: float) -> bool:
        """Euclidean up to entrywise tol; float metrics carry roundoff."""
        lane = self._lane
        return self.is_euclidean or all(lane.is_zero(self.rows[i][j] - (1 if i == j else 0), tol)
                                        for i in range(DIM) for j in range(DIM))


# Bound of each Metric-keyed cache below: a caller that sees many metrics
# (one per structure it builds) must not grow them without limit.
_METRIC_CACHE_SIZE = 32

EUCLIDEAN = Metric(tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(DIM)) for i in range(DIM)))


@lru_cache(maxsize=_METRIC_CACHE_SIZE)
def _metric_is_euclidean(m: Metric) -> bool:
    return m.den == 1 and m.num == _IDENTITY


@lru_cache(maxsize=_METRIC_CACHE_SIZE)
def _metric_inverse(m: Metric) -> tuple:
    """g^-1 as a table (rows, den), the one every reader shares: den(g) num^-1
    from one elimination on the metric's stored pair (Context.scaled_inverse;
    ints and no Fraction in the exact lane), in lowest terms over a positive
    den as Context.reduce stores a form.  Context.symmetric averages the
    float table's transposed entries once; exact ones already agree."""
    lane = m._lane
    inv, den = lane.scaled_inverse(m.num)
    flat, den, _ = lane.reduce([x * m.den for row in inv for x in row], den)
    return tuple(tuple(row) for row in lane.symmetric(_split_rows(flat))), den


@lru_cache(maxsize=_METRIC_CACHE_SIZE)
def _metric_det(m: Metric):
    """det g: an exact metric's det(num) / den^7, det(num) the last pivot of
    its positivity test; Context.det of a float metric."""
    det, lane = m._det, m._lane
    return lane.det(m.rows) if det is None else lane.ratio(det, m.den ** DIM)


def _sqrt_det(m: Metric):
    return m._lane.sqrt(_metric_det(m))


@lru_cache(maxsize=None)
def _laplace_table(r: int):
    """Expansion of an order-r minor along its first row: per r-index J, the
    flat pairs (column of J[t], position of J without J[t] in BASIS[r - 1])
    for t = 0..r-1, whose terms alternate in sign from +."""
    return tuple(tuple(x for t, j in enumerate(J) for x in (j - 1, POS[r - 1][J[:t] + J[t + 1:]]))
                 for J in BASIS[r])


def compound(rows, k: int) -> list:
    """Every k x k minor of a 7 x 7 matrix, C[p][q] = det(rows[I, J]) for
    I, J = BASIS[k][p], BASIS[k][q], order by order by Laplace expansion
    (_laplace_table) in the entries' own arithmetic (ints for Context.scaled
    rows).  Terms add left to right from the first, so float minors of
    orders 2 and 3 are bit for bit the textbook expansion.  Orders up to 4
    (the star of phi reads order 4) run as one expression per minor, with
    the expansion's signs written out."""
    minors = [[1]]
    for r in range(1, k + 1):
        table, nxt = _laplace_table(r), []
        for I in BASIS[r]:
            row, below = rows[I[0] - 1], minors[POS[r - 1][I[1:]]]
            if r == 1:
                out = [row[a] * below[b] for a, b in table]
            elif r == 2:
                out = [row[a] * below[b] - row[c] * below[d] for a, b, c, d in table]
            elif r == 3:
                out = [row[a] * below[b] - row[c] * below[d] + row[e] * below[f]
                       for a, b, c, d, e, f in table]
            elif r == 4:
                out = [row[a] * below[b] - row[c] * below[d] + row[e] * below[f]
                       - row[g] * below[h] for a, b, c, d, e, f, g, h in table]
            else:
                out = []
                for t in table:
                    tot = row[t[0]] * below[t[1]]
                    for u in range(2, 2 * r, 2):
                        x = row[t[u]] * below[t[u + 1]]
                        tot = tot - x if u % 4 == 2 else tot + x
                    out.append(tot)
            nxt.append(out)
        minors = nxt
    return minors


@lru_cache(maxsize=_METRIC_CACHE_SIZE)
def _metric_minors(m: Metric, k: int):
    """The k x k minors of g as a table (rows, den): compound(num) over
    den^k, ints in the exact lane."""
    return tuple(tuple(row) for row in compound(m.num, k)), m.den ** k


@lru_cache(maxsize=_METRIC_CACHE_SIZE)
def _lambda_gram(m: Metric, k: int):
    """Gram matrix of the basis k-forms as a table (rows, den).

    k >= 2: Gram[I][J] = s_I s_J det(g[I^c, J^c]) / det g (Jacobi), s the
    signs of _comp_table(k), so the table re-indexes _metric_minors(m, 7 - k)
    over det g = p / q (Context.scaled), stored as Context.reduce stores a
    form.  k = 1: _metric_inverse itself, whose float rounding grows less
    with cond(g) than that of the 6 x 6 minors over det g (0.28 against 0.83
    eps cond(g)).  Context.symmetric averages the float table's transposed
    entries, which keeps <a, a> as the full matrix gives it; exact ones
    already agree."""
    if k == 1:
        return _metric_inverse(m)
    lane = m._lane
    minors, den = _metric_minors(m, DIM - k)
    ((p,),), q = lane.scaled([[_metric_det(m)]])
    comp = _comp_table(k)
    table = lane.symmetric([[minors[pi][pj] * (q if si == sj else -q) for pj, sj in comp]
                            for pi, si in comp])
    flat, den, _ = lane.reduce([x for row in table for x in row], den * p)
    return tuple(tuple(flat[i:i + NK[k]]) for i in range(0, NK[k] ** 2, NK[k])), den


def _row_sum(xs, rows, zero) -> list:
    """xs . rows = sum x_i rows_i over the nonzero x_i, summed from zero on
    scaled rows of one length (ints in the exact lane); zip stops at the
    shorter of xs and rows."""
    out = [zero] * len(rows[0])
    for x, row in zip(xs, rows):
        if x:
            out = [u + x * y for u, y in zip(out, row)]
    return out


def _gram_sum(rows, v, w):
    """w . rows . v on scaled rows (ints in the exact lane), summed from 0
    over the nonzero entries of v and w only."""
    nonzero = [(q, x) for q, x in enumerate(v) if x]
    tot = 0
    for p, y in enumerate(w):
        if y:
            row = rows[p]
            for q, x in nonzero:
                tot += row[q] * x * y
    return tot


def form_inner(a: KForm, b: KForm, m: Metric = EUCLIDEAN):
    """Inner product of two k-forms induced by the metric: on a non-Euclidean
    metric the dot product of b with the Gram product of a, built as one
    lane scalar."""
    if a.degree != b.degree:
        raise DegreeError("inner product needs equal degrees")
    if m.is_euclidean:
        a, b, lane = _meet(a, b)
        return lane.ratio(sum(x * y for x, y in zip(a.num, b.num)), a.den * b.den)
    lane = lane_of((a.num[0], b.num[0], m.num[0][0]))
    a, b = coerce_form(a, lane), coerce_form(b, lane)
    rows, den = _lambda_gram(m, a.degree)
    return lane.ratio(_gram_sum(rows, a.num, b.num), den * a.den * b.den)


def volume_form(m: Metric = EUCLIDEAN, o: Orientation = POSITIVE) -> KForm:
    """Riemannian volume form: o.sign * sqrt(det g) dx1..7."""
    return KForm(DIM, (o.sign * _sqrt_det(m),))


def hodge_star(a: KForm, m: Metric = EUCLIDEAN, o: Orientation = POSITIVE) -> KForm:
    """Hodge star, defined by b ^ *a = <b, a> vol for all b: on a
    non-Euclidean metric sqrt(det g) / det g times the signed (7 - k) x
    (7 - k) minors of g (_metric_minors) in every degree."""
    k = a.degree
    out_deg = DIM - k
    comp = _comp_table(k)
    if m.is_euclidean:
        out = [None] * NK[out_deg]
        for (po, s), c in zip(comp, a.num):
            out[po] = (c * o.sign) if s > 0 else -(c * o.sign)
        return KForm._of(out_deg, out, a.den, a._lane)
    lane = lane_of((a.num[0], m.num[0][0]))
    a = coerce_form(a, lane)
    # Jacobi: the k x k minor of g^-1 on rows I, columns J is
    # s_I s_J det(g[I^c, J^c]) / det g, s the signs of comp, so
    # (*a)_{I^c} = vol / det g * sum_J det(g[I^c, J^c]) s_J a_J
    signed = [None] * NK[out_deg]
    for (po, s), c in zip(comp, a.num):
        signed[po] = c if s > 0 else -c
    rows, den = _metric_minors(m, out_deg)
    ((scale,),), sden = lane.scaled([[_sqrt_det(m) * o.sign / _metric_det(m)]])
    out = [x * scale for x in ratlin.matvec(rows, signed, lane.scaled_zero)]
    return KForm._of(out_deg, out, den * a.den * sden, lane)


def flat(v: Sequence, m: Metric = EUCLIDEAN) -> KForm:
    """Lower an index: the 1-form g(v, .)."""
    if len(v) != DIM:
        raise ValueError(f"flat needs a vector of {DIM} entries, got {len(v)}")
    return KForm(1, tuple(sum(m.rows[i][j] * v[j] for j in range(DIM)) for i in range(DIM)))


def sharp(a: KForm, m: Metric = EUCLIDEAN) -> tuple:
    """Raise an index: the vector dual to a 1-form."""
    if a.degree != 1:
        raise DegreeError("sharp expects a 1-form")
    lane = lane_of((a.num[0], m.num[0][0]))
    a = coerce_form(a, lane)
    inv, den = _metric_inverse(m)
    den *= a.den
    return tuple(lane.ratio(x, den) for x in ratlin.matvec(inv, a.num, lane.scaled_zero))


def pullback(a: KForm, mat) -> KForm:
    """Pullback of a k-form by the linear map with matrix mat (7x7 rows).

    Coefficientwise: (F*a)_I = sum_J a_J det(mat[J rows, I cols]) (compound).
    """
    rows = [list(r) for r in mat]
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError("pullback needs a 7x7 matrix")
    k = a.degree
    lane = lane_of((a.num[0], *(x for r in rows for x in r)))
    a = coerce_form(a, lane)
    rows, den = lane.scaled(rows)
    sums = _row_sum(a.num, compound(rows, k), lane.scaled_zero)
    return KForm._of(k, sums, a.den * den ** k, lane)


def top_coeff(a: KForm):
    """Coefficient of dx1^...^dx7 (the form must be degree 7)."""
    if a.degree != DIM:
        raise DegreeError("top_coeff expects a 7-form")
    return a._lane.ratio(a.num[0], a.den)
