"""Classification of invariant non-special divisors of degree g.

Implements the bound B(n0, j), the equivalent counting criteria for a
coefficient tuple to define a non-special divisor of degree g, exhaustive
enumeration of all such tuples, and closed-form coefficient families for
the lambda patterns (1,...,1), (1,...,1,m/2), (1,...,1,m/2,m/2) and
(1,...,1,2).

The criterion depends on the curve only through the residues j * lambda_i
mod m (j = 1..m-1): one table of them, built once per (m, lambdas) and
cached, gives every bound B(n0, j) and every overflow set C(n0, j).  The
scalar check reads all rows of that table at once.  The bulk check covers
the whole box, n0 included, in one call: the counts |C(n0, j)| do not
depend on n0, so it packs them one digit per j into integer words, sums
those once per curve and decides each n0 with a few whole-word operations,
one slice per index of the leading axes when the box is large.
Enumeration reads its tuples off that one verdict array.

Everything here is purely combinatorial in (m, lambda_1, ..., lambda_r);
abstract curves are accepted everywhere.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .curve import InvariantTuple, KummerCurve, make_curve
from .errors import (
    FormulaMismatch,
    JOutOfRange,
    LengthMismatch,
    NkNotPositive,
    RegimeViolation,
    SearchSpaceTooLarge,
    UsageError,
)
from .ffield import _integer

DEFAULT_SEARCH_CAP = 10**8
#: bytes of packed counts that bulk_verdicts holds at once before slicing;
#: a slice also holds a scratch copy of them
_BULK_BYTE_LIMIT = 1 << 19


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class _Residues(NamedTuple):
    rows: tuple  # rows[i][j-1] = j * lambda_i mod m, in [1, m]: a zero residue reads m
    sums: tuple  # sum_i rows[i][j-1] for j = 1..m-1


@lru_cache(maxsize=256)
def _residues(m: int, lambdas: tuple) -> _Residues:
    """The residues of one curve shape and their sums over i, as Python
    ints.  One cached table per curve shape, linear in m."""
    table = (np.outer(lambdas, np.arange(1, m)) - 1) % m + 1
    return _Residues(tuple(table.tolist()), tuple(table.sum(axis=0).tolist()))


def _bounds(curve: KummerCurve, n0: int, res: _Residues) -> list[int]:
    """B(n0, j) for j = 1..m-1 as exact ints.

    -j * lambda_i mod m is m - res_ji, so B = -1 + ceil((sum_i (-j lambda_i
    mod m) - n0 d_inf) / m) reads r - 1 - floor((sum_i res_ji + n0 d_inf) / m).
    """
    shift = n0 * curve.ram.d_inf
    return [curve.r - 1 - (s + shift) // curve.m for s in res.sums]


def _reach(curve: KummerCurve, n) -> list[int]:
    """n_i d_i clipped above at m - 1: i lies in C(n0, j) iff res_ji <= n_i d_i,
    and a zero residue, read as m, lies in no C.  Every residue is read in
    [1, m], so the clip keeps that exact for an int of any size, and a
    negative reach excludes i just as 0 does."""
    if len(n) != curve.r:
        raise LengthMismatch("tuple length does not match curve")
    return [min(ni * di, curve.m - 1) for ni, di in zip(n, curve.ram.d)]


def _row(curve: KummerCurve, j: int) -> int:
    j = _integer(j, "j")
    if not 1 <= j < curve.m:
        raise JOutOfRange(f"j={j} outside [1, {curve.m})")
    return j - 1


def bound_B(curve: KummerCurve, n0: int, j: int) -> int:
    """The per-j upper bound on how many coefficients may 'overflow'."""
    n0 = _integer(n0, "n0")
    return _bounds(curve, n0, _residues(curve.m, curve.lambdas))[_row(curve, j)]


def overflow_set(curve: KummerCurve, tup: InvariantTuple, j: int) -> list[int]:
    """C(n0, j): indices i with n_i * d_i >= (j * lambda_i mod m) > 0."""
    row = _row(curve, j)
    rows = _residues(curve.m, curve.lambdas).rows
    return [i for i, (xs, reach) in enumerate(zip(rows, _reach(curve, tup.n)))
            if xs[row] <= reach]


@dataclass
class CriterionReport:
    mode: str                      # "cond2" | "cond3"
    rows: list                     # (j, B, |C|, row_ok)
    bounds_ok: bool
    degree: int
    genus: int
    verdict: str                   # "nonspecial_deg_g" | "fails"

    @property
    def passed(self) -> bool:
        return self.verdict == "nonspecial_deg_g"

    def to_json(self):
        return {
            "mode": self.mode,
            "bounds_ok": self.bounds_ok,
            "degree": self.degree,
            "genus": self.genus,
            "verdict": self.verdict,
            "rows": [{"j": j, "B": b, "C": c, "ok": ok}
                     for j, b, c, ok in self.rows],
        }


def criterion_check(curve: KummerCurve, tup: InvariantTuple,
                    mode: str = "cond3") -> CriterionReport:
    """Decide whether a coefficient tuple gives a non-special divisor of degree g.

    mode "cond3": all per-j counts must equal their bounds (no degree check).
    mode "cond2": degree must equal g and all counts must stay at or below
    their bounds.  The two modes always agree on the verdict.
    """
    if mode not in ("cond2", "cond3"):
        raise RegimeViolation(f"unknown mode {mode!r}")
    res = _residues(curve.m, curve.lambdas)
    reach = _reach(curve, tup.n)
    counts = [sum(map(operator.le, col, reach)) for col in zip(*res.rows)]
    ram = curve.ram
    bounds_ok = (0 <= tup.n0 < ram.e_inf
                 and all(0 <= ni < ei for ni, ei in zip(tup.n, ram.e)))
    degree = tup.degree(curve)
    bounds = _bounds(curve, tup.n0, res)
    holds = list(map(operator.le if mode == "cond2" else operator.eq, counts, bounds))
    rows = list(zip(range(1, curve.m), bounds, counts, holds))
    ok = bounds_ok and all(holds)
    if mode == "cond2":
        ok = ok and degree == curve.genus
    verdict = "nonspecial_deg_g" if ok else "fails"
    return CriterionReport(mode, rows, bounds_ok, degree, curve.genus, verdict)


# ---------------------------------------------------------------------------
# Bulk evaluation over the whole bounded coefficient box
# ---------------------------------------------------------------------------

def _word_layout(m: int, r: int) -> tuple[np.dtype, range]:
    """The dtype of bulk_verdicts' packed counts and the shift of each word:
    all m-1 digits of w bits below the sign bit of the narrowest signed dtype
    that holds them, else floor(63 / w) digits per int64 word."""
    w = r.bit_length() + 1
    for dtype in map(np.dtype, (np.int8, np.int16, np.int32, np.int64)):
        if (m - 1) * w < 8 * dtype.itemsize:
            return dtype, range(0, (m - 1) * w, (m - 1) * w)
    return dtype, range(0, (m - 1) * w, 63 // w * w)


def bulk_verdicts(curve: KummerCurve):
    """Criterion verdicts for every tuple of the search box.

    Returns (cond2, cond3): boolean arrays of shape (e_inf, e_1, ..., e_r);
    entry [n0, n_1, ..., n_r] is the verdict for (n0; n_1, ..., n_r).  The
    coefficient bounds hold automatically inside the box, so cond2 here is
    degree == g plus all counts <= bounds, and cond3 is all counts == bounds.

    The counts |C(j)| depend on n_1..n_r alone, so they are summed once, as
    packed words, and each n0 is decided with whole-word operations.  Digit
    j-1 of the sum, w = r.bit_length() + 1 bits wide, is a count c in
    [0, r], below its guard bit 2^(w-1).  Inside the box every
    bound B lies in [-1, r-1]: row j's residue sum lies in [r, rm - 1],
    because gcd(m, lambdas) = 1, and n0 d_inf < m.  So:

    - cond3 compares the counts with the packed bounds.  The lowest digit
      with a bound of -1 packs as 2^w - 1, borrowing from the digits above
      it, and no count reaches 2^w - 1.
    - cond2 adds the word whose digits are 2^(w-1) - 1 - B.  Each digit sum
      c + 2^(w-1) - 1 - B lies in [2^(w-1) - r, 2^(w-1) + r], inside
      [0, 2^w), so no carry crosses a digit, and its guard bit is set iff
      c > B.  cond2 is no guard bit set, plus the degree test.

    The digits fill one word of the narrowest signed dtype that holds them,
    or several int64 words.  While the packed counts of the remaining axes
    exceed _BULK_BYTE_LIMIT bytes, one more leading axis of n_1..n_r is
    fixed and walked index by index.
    """
    m, r, ram = curve.m, curve.r, curve.ram
    res = _residues(m, curve.lambdas)
    w = r.bit_length() + 1
    dtype, shifts = _word_layout(m, r)

    def words(xs) -> np.ndarray:
        """Packed Python ints as an array of words, word k first."""
        return np.array([[x >> s & ((1 << shifts.step) - 1) for x in xs]
                         for s in shifts], dtype)

    digits = range(0, (m - 1) * w, w)

    def prefix(xs, e: int, d: int) -> list:
        """Entry v of an axis: digit j-1 is 1 iff n_i = v puts i in C(j),
        that is iff res_ji <= v d_i.  The residues are multiples of d_i."""
        steps = [0] * (e + 1)  # steps[k]: the digits of the residue k d_i
        for t, x in zip(digits, xs):
            steps[x // d] += 1 << t
        return list(accumulate(steps[1:-1], initial=0))

    guards = dtype.type(sum(1 << (t + w - 1) for t in range(0, shifts.step, w)))
    target = [sum(b << t for t, b in zip(digits, _bounds(curve, n0, res)))
              for n0 in range(ram.e_inf)]
    fill = sum(((1 << (w - 1)) - 1) << t for t in digits)
    excess = [fill - packed for packed in target]  # digits 2^(w-1) - 1 - B
    lead = 0
    while lead < r - 1 and (len(shifts) * dtype.itemsize * math.prod(ram.e[lead:])
                            > _BULK_BYTE_LIMIT):
        lead += 1
    tail = ram.e[lead:]
    shapes = [tuple(e if a == b else 1 for b in range(len(tail)))
              for a, e in enumerate(tail)]
    # word k of the counts that n_i = v adds, at [k, v] or, on a tail axis,
    # at [k, 1, ..., v, ..., 1]
    axes = dict(zip(curve.lambdas, zip(res.rows, ram.e, ram.d)))
    hit = {lam: words(prefix(*axis)) for lam, axis in axes.items()}
    hit = [hit[lam] for lam in curve.lambdas[:lead]] + [
        hit[lam].reshape((-1,) + sh) for lam, sh in zip(curve.lambdas[lead:], shapes)]
    # every degree and degree target lies in (-r * m, r * m)
    deg_type = np.min_scalar_type(-r * m)
    tail_deg = sum(np.arange(e, dtype=deg_type).reshape(sh) * d
                   for e, sh, d in zip(tail, shapes, ram.d[lead:]))
    target = words(target).reshape((len(shifts), -1) + (1,) * len(tail))
    excess = words(excess).T
    scratch = np.empty(tail, dtype)
    ok = np.empty(tail, bool)
    cond2 = np.empty((ram.e_inf,) + ram.e, dtype=bool)
    cond3 = np.empty_like(cond2)
    for idx in np.ndindex(*ram.e[:lead]):
        start = sum((h[:, v] for h, v in zip(hit, idx)), np.zeros(len(shifts), dtype))
        # last axis first, so that each sum adds its axis in long runs
        counts = sum(reversed(hit[lead:]), start.reshape((-1,) + (1,) * len(tail)))
        deg = curve.genus - sum(v * d for v, d in zip(idx, ram.d))
        c2, c3 = cond2[(slice(None),) + idx], cond3[(slice(None),) + idx]
        np.equal(tail_deg, np.arange(deg, deg - m, -ram.d_inf, deg_type)
                 .reshape((-1,) + (1,) * len(tail)), out=c2)
        np.equal(counts[0], target[0], out=c3)
        for word, t in zip(counts[1:], target[1:]):
            c3 &= word == t
        for row, adds in zip(c2, excess):
            for word, x in zip(counts, adds):
                np.bitwise_and(np.add(word, x, out=scratch), guards, out=scratch)
                row &= np.equal(scratch, 0, out=ok)
    return cond2, cond3


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def search_cap() -> int:
    """Enumeration cap; the KDL_MAX_SEARCH environment variable overrides it."""
    raw = os.environ.get("KDL_MAX_SEARCH")
    if not raw:
        return DEFAULT_SEARCH_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"KDL_MAX_SEARCH must be an integer, got {raw!r}") from None


def enumerate_nonspecial(curve: KummerCurve,
                         dedup: bool = False) -> list[InvariantTuple]:
    """All effective invariant non-special tuples of degree g, lexicographic.

    With dedup, returns one canonical representative (coefficients sorted
    within each equal-lambda group) per permutation orbit.
    """
    ram = curve.ram
    space = ram.e_inf * math.prod(ram.e)
    cap = search_cap()
    if space > cap:
        raise SearchSpaceTooLarge(f"search space {space} exceeds cap {cap}")
    cond3 = bulk_verdicts(curve)[1]
    # rows (n0, n_1, ..., n_r), in C order and so lexicographic; the flat
    # indices come several times faster than argwhere's
    rows = np.column_stack(np.unravel_index(np.flatnonzero(cond3), cond3.shape))
    if dedup:
        lambdas = np.array(curve.lambdas)
        for lam in set(curve.lambdas):
            cols = 1 + np.flatnonzero(lambdas == lam)
            rows[:, cols] = np.sort(rows[:, cols], axis=1)
    keys = map(tuple, rows.tolist())
    return [InvariantTuple(n0, tuple(n))
            for n0, *n in (sorted(set(keys)) if dedup else keys)]


# ---------------------------------------------------------------------------
# Closed-form coefficient families
# ---------------------------------------------------------------------------

def _verify(curve: KummerCurve, tup: InvariantTuple, family: str) -> InvariantTuple:
    report = criterion_check(curve, tup, mode="cond3")
    if not report.passed:
        raise FormulaMismatch(
            f"{family} output {tup} fails the criterion: {report.to_json()}")
    return tup


def coeffs_all_ones(m: int, r: int) -> InvariantTuple:
    """Unique sorted solution for lambda = (1, ..., 1): n_i = ceil(m(i-1)/r) - 1."""
    if m < 2 or r < 1:
        raise RegimeViolation(f"need m >= 2, r >= 1, got m={m}, r={r}")
    curve = make_curve(None, m, [1] * r)
    n = tuple(max(0, _ceil_div(m * (i - 1), r) - 1) for i in range(1, r + 1))
    return _verify(curve, InvariantTuple(0, n), "coeffs_all_ones")


def coeffs_half_single(m: int, r: int, N: int) -> InvariantTuple:
    """Closed form for lambda = (1,...,1, m/2) with r-1 ones; N in {0, 1}."""
    if m < 4 or m % 2:
        raise RegimeViolation(f"need even m >= 4, got m={m}")
    if N not in (0, 1):
        raise RegimeViolation(f"N must be 0 or 1, got {N}")
    need_r = m // 2 - (m // 2) % 2 if N == 0 else m // 2 + 2
    if r < max(2, need_r):
        raise RegimeViolation(f"need r >= {need_r} for N={N}, got r={r}")
    s = r - 1
    n = []
    for i in range(1, s + 1):
        even_part = 2 * _ceil_div(m * (i - 1), 2 * s) - 2
        # m(i - N - 1/2) = (2mi - 2mN - m) / 2, cleared to denominator 4s
        odd_part = 2 * _ceil_div(2 * m * i - 2 * m * N - m - 2 * s, 4 * s) - 1
        n.append(max(0, even_part, odd_part))
    curve = make_curve(None, m, [1] * s + [m // 2])
    return _verify(curve, InvariantTuple(0, tuple(n) + (N,)),
                   "coeffs_half_single")


def coeffs_half_double(m: int, r: int, N: int) -> InvariantTuple:
    """Closed form for lambda = (1,...,1, m/2, m/2) with r-2 ones; N in {0,1,2}."""
    if m < 4 or m % 2:
        raise RegimeViolation(f"need even m >= 4, got m={m}")
    if N not in (0, 1, 2):
        raise RegimeViolation(f"N must be 0, 1 or 2, got {N}")
    need_r = {0: m + 1 - (m // 2) % 2, 1: 3, 2: m + 3}[N]
    if r < need_r:
        raise RegimeViolation(f"need r >= {need_r} for N={N}, got r={r}")
    s = r - 2
    n = []
    for i in range(1, s + 1):
        even_part = 2 * _ceil_div(m * (i - 1), 2 * s) - 2
        odd_part = 2 * _ceil_div(m * (i - N) - s, 2 * s) - 1
        n.append(max(0, even_part, odd_part))
    half = (1 if N >= 1 else 0, 1 if N >= 2 else 0)
    curve = make_curve(None, m, [1] * s + [m // 2, m // 2])
    return _verify(curve, InvariantTuple(0, tuple(n) + half),
                   "coeffs_half_double")


def coeffs_lambda_two(m: int, r: int, n0: int, k: int) -> InvariantTuple:
    """Closed form for lambda = (1,...,1,2) with r-1 ones; m, r-1 even."""
    if m % 2 or (r - 1) % 2 or r < 3:
        raise RegimeViolation(f"need even m and even r-1 >= 2, got m={m}, r={r}")
    Lam = r + 1
    d_inf = math.gcd(m, Lam)
    if not (0 <= n0 and n0 * d_inf < Lam <= m):
        raise RegimeViolation(
            f"need 0 <= n0*gcd(m,Lambda) < Lambda <= m; n0={n0}, m={m}, r={r}")
    if not 1 <= k <= Lam // 2 - 1:
        raise RegimeViolation(f"need 1 <= k <= {Lam // 2 - 1}, got k={k}")

    def N(i):
        return (m * i - 1 - n0 * d_inf) // Lam

    if N(k) <= 0:
        raise NkNotPositive(f"N_{k} = {N(k)} is not positive")
    n = []
    for i in range(1, r):
        if i <= k:
            n.append(max(0, N(i - 1)))
        elif i < k + Lam // 2:
            n.append(N(i))
        else:
            n.append(N(i + 1))
    curve = make_curve(None, m, [1] * (r - 1) + [2])
    return _verify(curve, InvariantTuple(n0, tuple(n) + (N(k),)),
                   "coeffs_lambda_two")
