"""Classification of invariant non-special divisors of degree g.

Implements the bound B(n0, j), the equivalent counting criteria for a
coefficient tuple to define a non-special divisor of degree g, exhaustive
enumeration of all such tuples, and closed-form coefficient families for
the lambda patterns (1,...,1), (1,...,1,m/2), (1,...,1,m/2,m/2) and
(1,...,1,2).

The criterion depends on the curve only through the residues j * lambda_i
mod m (j = 1..m-1): one (m-1) x r table of them gives every bound B(n0, j)
and every overflow set C(n0, j); it is built once per (m, lambdas) and
cached.  The scalar check reads all rows of that table at once.  The bulk check covers the whole box, n0 included, in one
call: the counts |C(n0, j)| do not depend on n0, so it sums them once per
curve and compares them with each n0's bounds, one slice per index of the
leading axes when the box is large.  Enumeration reads its tuples off that
one verdict array.

Everything here is purely combinatorial in (m, lambda_1, ..., lambda_r);
abstract curves are accepted everywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
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

DEFAULT_SEARCH_CAP = 10**8
#: values (m-1 per tuple) that bulk_verdicts holds at once before slicing
_BULK_CELL_LIMIT = 1 << 22


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class _Residues(NamedTuple):
    table: np.ndarray  # (m-1) x r, read-only
    sums: tuple        # its row sums, as ints


@lru_cache(maxsize=256)
def _residues(m: int, lambdas: tuple) -> _Residues:
    """The (m-1) x r table of j * lambda_i mod m, row j-1 for j = 1..m-1,
    with each residue taken in [1, m]: a zero residue reads m.  One cached
    table per curve shape, so it is read-only."""
    table = (np.outer(np.arange(1, m), lambdas) - 1) % m + 1
    table.flags.writeable = False
    return _Residues(table, tuple(table.sum(axis=1).tolist()))


def _bounds(curve: KummerCurve, n0: int, res: _Residues) -> list[int]:
    """B(n0, j) for j = 1..m-1 as exact ints.

    -j * lambda_i mod m is m - res_ji, so B = -1 + ceil((sum_i (-j lambda_i
    mod m) - n0 d_inf) / m) reads r - 1 - floor((sum_i res_ji + n0 d_inf) / m).
    """
    shift = n0 * curve.ram.d_inf
    return [curve.r - 1 - (s + shift) // curve.m for s in res.sums]


def _overflows(curve: KummerCurve, n, res: _Residues) -> np.ndarray:
    """Boolean (m-1) x r table: i lies in C(n0, j) iff n_i d_i >= res_ji,
    where a zero residue (read as m) lies in no C."""
    if len(n) != curve.r:
        raise LengthMismatch("tuple length does not match curve")
    # clipping n_i d_i to [0, m-1] keeps every comparison with a residue
    # in [1, m] and lets an int of any size or sign into the array
    return res.table <= [min(max(ni * di, 0), curve.m - 1)
                         for ni, di in zip(n, curve.ram.d)]


def _row(curve: KummerCurve, j: int) -> int:
    if not 1 <= j < curve.m:
        raise JOutOfRange(f"j={j} outside [1, {curve.m})")
    return j - 1


def bound_B(curve: KummerCurve, n0: int, j: int) -> int:
    """The per-j upper bound on how many coefficients may 'overflow'."""
    return _bounds(curve, n0, _residues(curve.m, curve.lambdas))[_row(curve, j)]


def overflow_set(curve: KummerCurve, tup: InvariantTuple, j: int) -> list[int]:
    """C(n0, j): indices i with n_i * d_i >= (j * lambda_i mod m) > 0."""
    row = _row(curve, j)
    overflows = _overflows(curve, tup.n, _residues(curve.m, curve.lambdas))
    return np.flatnonzero(overflows[row]).tolist()


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
    counts = _overflows(curve, tup.n, res).sum(axis=1).tolist()
    ram = curve.ram
    bounds_ok = (tup.is_effective() and tup.n0 < ram.e_inf
                 and all(ni < ei for ni, ei in zip(tup.n, ram.e)))
    degree = tup.degree(curve)
    rows = [(j, b, c, c <= b if mode == "cond2" else c == b)
            for j, (b, c) in enumerate(zip(_bounds(curve, tup.n0, res), counts), 1)]
    ok = bounds_ok and all(row_ok for *_, row_ok in rows)
    if mode == "cond2":
        ok = ok and degree == curve.genus
    verdict = "nonspecial_deg_g" if ok else "fails"
    return CriterionReport(mode, rows, bounds_ok, degree, curve.genus, verdict)


# ---------------------------------------------------------------------------
# Bulk evaluation over the whole bounded coefficient box
# ---------------------------------------------------------------------------

def bulk_verdicts(curve: KummerCurve):
    """Criterion verdicts for every tuple of the search box.

    Returns (cond2, cond3): boolean arrays of shape (e_inf, e_1, ..., e_r);
    entry [n0, n_1, ..., n_r] is the verdict for (n0; n_1, ..., n_r).  The
    coefficient bounds hold automatically inside the box, so cond2 here is
    degree == g plus all counts <= bounds, and cond3 is all counts == bounds.

    The counts |C(j)| depend on n_1..n_r alone, so those of all j are summed
    once, in int8, and then shifted in place from one n0 to the next by the
    change of the bounds B(n0, j).  The excess |C| - B lies in [-r-1, r+1],
    and r <= 64, numpy's limit on axes.  While the m-1 counts per tuple of
    the remaining axes exceed _BULK_CELL_LIMIT, one more leading axis of
    n_1..n_r is fixed and walked index by index.
    """
    m, r, ram = curve.m, curve.r, curve.ram
    res = _residues(curve.m, curve.lambdas)
    # hit[i][j-1, v] = 1 iff n_i = v puts i in C(j)
    hit = [(res.table[:, i, None] <= np.arange(e) * d).astype(np.int8)
           for i, (e, d) in enumerate(zip(ram.e, ram.d))]
    # counts lie in [0, r], so clipping B to [-1, r + 1] keeps == and <=
    bounds = np.array([[min(max(b, -1), r + 1) for b in _bounds(curve, n0, res)]
                       for n0 in range(ram.e_inf)], dtype=np.int8)
    steps = np.diff(bounds, axis=0, prepend=np.int8(0))
    lead = 0
    while lead < r - 1 and (m - 1) * math.prod(ram.e[lead:]) > _BULK_CELL_LIMIT:
        lead += 1
    grid = np.ix_(*(range(e) for e in ram.e[lead:]))
    tail_deg = sum(g * d for g, d in zip(grid, ram.d[lead:]))
    column = (m - 1,) + (1,) * (r - lead)
    cond2 = np.empty((ram.e_inf,) + ram.e, dtype=bool)
    cond3 = np.empty_like(cond2)
    for idx in np.ndindex(*ram.e[:lead]):
        start = sum((h[:, v] for h, v in zip(hit, idx)),
                    np.zeros(m - 1, dtype=np.int8)).reshape(column)
        # last axis first, so that each sum adds its axis in long runs
        excess = sum(reversed([h[:, g] for h, g in zip(hit[lead:], grid)]), start)
        deg = curve.genus - sum(v * d for v, d in zip(idx, ram.d))
        for n0, step in enumerate(steps):
            excess -= step.reshape(column)
            # folding whole rows is several times faster than numpy's
            # element-wise reduction over a short leading axis
            cond2[(n0,) + idx] = ((reduce(np.maximum, excess) <= 0)
                                  & (tail_deg == deg - n0 * ram.d_inf))
            cond3[(n0,) + idx] = reduce(np.bitwise_or, excess) == 0
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
    # rows (n0, n_1, ..., n_r), in C order and so lexicographic
    rows = np.argwhere(bulk_verdicts(curve)[1])
    if dedup:
        lambdas = np.array(curve.lambdas)
        for lam in set(curve.lambdas):
            cols = 1 + np.flatnonzero(lambdas == lam)
            rows[:, cols] = np.sort(rows[:, cols], axis=1)
        rows = np.unique(rows, axis=0)
    return [InvariantTuple(n0, tuple(n)) for n0, *n in rows.tolist()]


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
