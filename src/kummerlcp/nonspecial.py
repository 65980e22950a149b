"""Classification of invariant non-special divisors of degree g.

Implements the bound B(n0, j), the equivalent counting criteria for a
coefficient tuple to define a non-special divisor of degree g, exhaustive
enumeration of all such tuples, and closed-form coefficient families for
the lambda patterns (1,...,1), (1,...,1,m/2), (1,...,1,m/2,m/2) and
(1,...,1,2).

Everything here is purely combinatorial in (m, lambda_1, ..., lambda_r);
abstract curves are accepted everywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .curve import InvariantTuple, KummerCurve, make_curve
from .errors import (
    FormulaMismatch,
    JOutOfRange,
    LengthMismatch,
    NkNotPositive,
    NoSolution,
    RegimeViolation,
    SearchSpaceTooLarge,
    UsageError,
)

DEFAULT_SEARCH_CAP = 10**8
_BULK_CELL_LIMIT = 1 << 22


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def bound_B(curve: KummerCurve, n0: int, j: int) -> int:
    """The per-j upper bound on how many coefficients may 'overflow'."""
    if not 1 <= j < curve.m:
        raise JOutOfRange(f"j={j} outside [1, {curve.m})")
    m = curve.m
    s = sum((-j * lam) % m for lam in curve.lambdas)
    return -1 + _ceil_div(s - n0 * curve.ram.d_inf, m)


def overflow_set(curve: KummerCurve, tup: InvariantTuple, j: int) -> list[int]:
    """C(n0, j): indices i with n_i * d_i >= (j * lambda_i mod m) > 0."""
    if not 1 <= j < curve.m:
        raise JOutOfRange(f"j={j} outside [1, {curve.m})")
    m = curve.m
    out = []
    for i, (ni, di, lam) in enumerate(zip(tup.n, curve.ram.d, curve.lambdas)):
        res = (j * lam) % m
        if res > 0 and ni * di >= res:
            out.append(i)
    return out


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
    if len(tup.n) != curve.r:
        raise LengthMismatch("tuple length does not match curve")
    ram = curve.ram
    bounds_ok = (tup.is_effective() and tup.n0 < ram.e_inf
                 and all(ni < ei for ni, ei in zip(tup.n, ram.e)))
    degree = tup.degree(curve)
    rows = []
    all_rows_ok = True
    for j in range(1, curve.m):
        b = bound_B(curve, tup.n0, j)
        c = len(overflow_set(curve, tup, j))
        row_ok = (c <= b) if mode == "cond2" else (c == b)
        rows.append((j, b, c, row_ok))
        all_rows_ok = all_rows_ok and row_ok
    ok = bounds_ok and all_rows_ok
    if mode == "cond2":
        ok = ok and degree == curve.genus
    verdict = "nonspecial_deg_g" if ok else "fails"
    return CriterionReport(mode, rows, bounds_ok, degree, curve.genus, verdict)


# ---------------------------------------------------------------------------
# Bulk evaluation over the whole bounded coefficient box
# ---------------------------------------------------------------------------

def _bulk_leaf(ind, B, dvec, c_off, deg_off, g):
    """Verdict arrays over the remaining axes with fixed leading offsets."""
    shape = tuple(len(v) for v in dvec)
    naxes = len(shape)
    eq = np.ones(shape, dtype=bool)
    le = np.ones(shape, dtype=bool)
    for j_idx, vecs in enumerate(ind):
        cnt = np.zeros((), dtype=np.int64) + c_off[j_idx]
        for axis, vec in enumerate(vecs):
            sh = [1] * naxes
            sh[axis] = len(vec)
            cnt = cnt + vec.reshape(sh)
        eq &= cnt == B[j_idx]
        le &= cnt <= B[j_idx]
    deg = np.zeros((), dtype=np.int64) + deg_off
    for axis, vec in enumerate(dvec):
        sh = [1] * naxes
        sh[axis] = len(vec)
        deg = deg + vec.reshape(sh)
    return le & (deg == g), eq


def _bulk_rec(ind, B, dvec, c_off, deg_off, g, limit):
    shape = tuple(len(v) for v in dvec)
    if math.prod(shape) <= limit or len(shape) == 1:
        return _bulk_leaf(ind, B, dvec, c_off, deg_off, g)
    cond2 = np.empty(shape, dtype=bool)
    cond3 = np.empty(shape, dtype=bool)
    for v in range(shape[0]):
        sub_ind = [vecs[1:] for vecs in ind]
        sub_off = [c_off[j] + int(ind[j][0][v]) for j in range(len(ind))]
        c2, c3 = _bulk_rec(sub_ind, B, dvec[1:], sub_off,
                           deg_off + int(dvec[0][v]), g, limit)
        cond2[v], cond3[v] = c2, c3
    return cond2, cond3


def bulk_verdicts(curve: KummerCurve, n0: int, limit: int = _BULK_CELL_LIMIT):
    """Criterion verdicts for every tuple with the given n0.

    Returns (cond2, cond3): boolean arrays of shape (e_1, ..., e_r); entry
    [n_1, ..., n_r] is the verdict for (n0; n_1, ..., n_r).  The coefficient
    bounds hold automatically inside the box, so cond2 here is degree == g
    plus all counts <= bounds, and cond3 is all counts == bounds.
    """
    m = curve.m
    ram = curve.ram
    ind = []
    B = []
    for j in range(1, m):
        vecs = []
        for di, lam, ei in zip(ram.d, curve.lambdas, ram.e):
            res = (j * lam) % m
            ni = np.arange(ei, dtype=np.int64)
            vecs.append(((res > 0) & (ni * di >= res)).astype(np.int64))
        ind.append(vecs)
        B.append(bound_B(curve, n0, j))
    dvec = [np.arange(ei, dtype=np.int64) * di for ei, di in zip(ram.e, ram.d)]
    return _bulk_rec(ind, B, dvec, [0] * len(ind), n0 * ram.d_inf,
                     curve.genus, limit)


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


def _canonical(curve: KummerCurve, tup: InvariantTuple) -> InvariantTuple:
    """Sort coefficients non-decreasing within each equal-lambda index group."""
    groups = {}
    for i, lam in enumerate(curve.lambdas):
        groups.setdefault(lam, []).append(i)
    n = list(tup.n)
    for idxs in groups.values():
        vals = sorted(n[i] for i in idxs)
        for i, v in zip(idxs, vals):
            n[i] = v
    return InvariantTuple(tup.n0, tuple(n))


def enumerate_nonspecial(curve: KummerCurve, dedup: bool = False,
                         cap: int | None = None) -> list[InvariantTuple]:
    """All effective invariant non-special tuples of degree g, lexicographic.

    With dedup, returns one canonical representative (coefficients sorted
    within each equal-lambda group) per permutation orbit.
    """
    ram = curve.ram
    space = ram.e_inf * math.prod(ram.e)
    limit = cap if cap is not None else search_cap()
    if space > limit:
        raise SearchSpaceTooLarge(f"search space {space} exceeds cap {limit}")
    out = []
    seen = set()
    for n0 in range(ram.e_inf):
        _, cond3 = bulk_verdicts(curve, n0)
        for idx in np.argwhere(cond3):
            tup = InvariantTuple(n0, tuple(int(v) for v in idx))
            if dedup:
                tup = _canonical(curve, tup)
                if tup in seen:
                    continue
                seen.add(tup)
            out.append(tup)
    if dedup:
        out.sort(key=lambda t: (t.n0, t.n))
    return out


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
    counts = [sum(1 for ni in n if ni == j) for j in range(m)]
    for j in range(1, m):
        want = bound_B(curve, 0, j)
        if j < m - 1:
            want -= bound_B(curve, 0, j + 1)
        if counts[j] != want:
            raise NoSolution(
                f"counting condition fails at j={j}: {counts[j]} != {want}")
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
