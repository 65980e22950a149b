"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (written past
pytest's capture so the lines always appear in the run log) and fails the
usual way on any violation.
"""

import math
import random
import time

import numpy as np
import pytest

from kummerlcp import (
    Divisor,
    InvariantTuple,
    bound_B,
    build_code,
    census,
    coeffs_all_ones,
    coeffs_half_double,
    coeffs_half_single,
    coeffs_lambda_two,
    completely_split_values,
    criterion_check,
    enumerate_nonspecial,
    gf_rank,
    invariant_divisor,
    lcp_build_regime,
    lcp_verify,
    make_curve,
    min_distance_exact,
)
from kummerlcp.codes import (
    basis_valuation,
    divisor_shape,
    infinity_functional,
    s_interval,
    split_place_list,
)
from kummerlcp.curve import ell_invariant_bulk, x_pole_divisor
from kummerlcp.errors import NkNotPositive, RegimeViolation
from kummerlcp.ffield import make_field
from kummerlcp.instances import (
    EX37_TUPLES,
    dickson,
    dickson_curve_single,
    f49_curve,
    f169_curve,
    reproduce,
)
from kummerlcp.nonspecial import bulk_verdicts


def report(num: int, ok: bool, detail: str):
    import conftest

    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    if not ok:
        pytest.fail(line)


def test_acceptance_01_reference_enumeration():
    start = time.monotonic()
    curve = make_curve(None, 6, [1, 1, 1, 3, 5])
    tuples = enumerate_nonspecial(curve, dedup=True)
    got = sorted((t.n0,) + t.n for t in tuples)
    elapsed = time.monotonic() - start
    ok = got == sorted(EX37_TUPLES) and len(got) == 24 and elapsed < 1.0
    report(1, ok, f"m=6 lambda=(1,1,1,3,5): {len(got)} tuples, set equality, "
                  f"{elapsed:.3f}s")


def test_acceptance_02_nonexistence():
    start = time.monotonic()
    curve = make_curve(None, 17, [1, 2])
    tuples = enumerate_nonspecial(curve)
    elapsed = time.monotonic() - start
    ok = tuples == [] and elapsed < 1.0
    report(2, ok, f"m=17 lambda=(1,2): empty set, {elapsed:.3f}s")


def test_acceptance_03_criterion_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20260824)
    curves = 0
    tuples_checked = 0
    for m in range(2, 11):
        for r in range(2, 6):
            seen = set()
            draws = 0
            while draws < 50:
                lambdas = tuple(rng.randrange(1, m) for _ in range(r)) \
                    if m > 1 else (1,) * r
                draws += 1
                if math.gcd(m, *lambdas) != 1 or lambdas in seen:
                    continue
                seen.add(lambdas)
                c = make_curve(None, m, list(lambdas))
                cond2, cond3 = bulk_verdicts(c)
                for n0 in range(c.ram.e_inf):
                    ell = ell_invariant_bulk(c, n0)
                    deg = np.zeros((), dtype=np.int64) + n0 * c.ram.d_inf
                    for axis, (e_i, d_i) in enumerate(zip(c.ram.e, c.ram.d)):
                        sh = [1] * c.r
                        sh[axis] = e_i
                        vec = np.arange(e_i, dtype=np.int64) * d_i
                        deg = deg + vec.reshape(sh)
                    oracle = (deg == c.genus) & (ell == 1)
                    if not (np.array_equal(cond2[n0], cond3[n0])
                            and np.array_equal(cond3[n0], oracle)):
                        report(3, False,
                               f"disagreement on m={m} lambdas={lambdas} n0={n0}")
                    tuples_checked += int(cond3[n0].size)
                curves += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 300 and curves > 500
    report(3, ok, f"cond3 <=> cond2 <=> (deg=g and ell=1) on {curves} curves, "
                  f"{tuples_checked} tuples, {elapsed:.1f}s")


def test_acceptance_04_bound_sum_identity():
    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        m = rng.randrange(2, 13)
        r = rng.randrange(1, 7)
        lambdas = [rng.randrange(1, m) for _ in range(r)]
        if math.gcd(m, *lambdas) != 1:
            continue
        c = make_curve(None, m, lambdas)
        for n0 in range(c.ram.e_inf):
            total = sum(bound_B(c, n0, j) for j in range(1, m))
            if total != c.genus - n0 * c.ram.d_inf:
                report(4, False, f"sum identity fails: m={m} "
                                 f"lambdas={lambdas} n0={n0}")
            checked += 1
    report(4, checked > 500,
           f"sum_j B(n0,j) = g - n0*gcd(m,Lambda) on {checked} (curve, n0) pairs")


def test_acceptance_05_closed_form_families():
    produced = 0
    for m in range(2, 25):
        for r in range(2, min(m + 4, 29)):
            tup = coeffs_all_ones(m, r)  # self-verifying
            produced += 1
            if math.gcd(m, r) == 1:
                want = tuple((m * (i - 1)) // r for i in range(1, r + 1))
                if tup.n != want:
                    report(5, False,
                           f"gcd(m,r)=1 closed form fails at m={m} r={r}: "
                           f"{tup.n} != {want}")
            if m % 2 or m < 4:
                continue
            for fn, ns in ((coeffs_half_single, (0, 1)),
                           (coeffs_half_double, (0, 1, 2))):
                for N in ns:
                    try:
                        fn(m, r, N)
                        produced += 1
                    except RegimeViolation:
                        pass
            if (r - 1) % 2 == 0 and r >= 3:
                for k in range(1, (r + 1) // 2):
                    try:
                        coeffs_lambda_two(m, r, 0, k)
                        produced += 1
                    except (RegimeViolation, NkNotPositive):
                        pass
    report(5, produced > 1000,
           f"{produced} closed-form tuples all pass the criterion (m <= 24)")


def _brute_force_places(curve):
    """Rational places and completely split x-values of y^m = f(x), by brute force.

    Scans every pair (x, y) of GF(q)^2.  Away from the branch points each
    solution (x, y) is one rational place, and x is completely split when it
    has m solutions y.  Over a branch point alpha_i, and at infinity, the
    rational places are the solutions z in GF(q) of z^d = u, where
    d = gcd(m, lambda) and u is the unit a * prod_{j != i} (alpha_i -
    alpha_j)^lambda_j, or a at infinity (Stichtenoth, §3.7); they are
    counted by scanning z over GF(q) as well.
    """
    F, m = curve.field, curve.m
    mth_powers = [F.pow(y, m) for y in range(F.q)]
    places = split = 0
    for x in range(F.q):
        fx = curve.f_eval(x)
        if fx == 0:
            continue
        solutions = mth_powers.count(fx)
        places += solutions
        split += solutions == m

    def roots(u, d):
        return sum(1 for z in range(F.q) if F.pow(z, d) == u)

    for i, (alpha, lam) in enumerate(zip(curve.alphas, curve.lambdas)):
        u = curve.a_enc
        for j, (beta, mu) in enumerate(zip(curve.alphas, curve.lambdas)):
            if j != i:
                u = F.mul(u, F.pow(F.sub(alpha, beta), mu))
        places += roots(u, math.gcd(m, lam))
    places += roots(curve.a_enc, math.gcd(m, sum(curve.lambdas)))
    return places, split


def test_acceptance_06_quartic_curve_end_to_end():
    """y^8 = x^2(x^4+1) end to end over GF(49) and over GF(169).

    The catalog entry f49 records 232 rational places, maximality, t = 28
    completely split x-values and the codes [224,160,52] / [224,64,148].
    GF(49) cannot carry them: 232 = 49 + 1 + 2*13*7 is the Hasse-Weil bound
    for g = 13, so the targets claim a maximal curve, while brute force over
    all (x, y) gives 104 places and 12 split values (no twist
    y^8 = a x^2(x^4+c) over GF(49) gets beyond 136).  The same equation over
    GF(169) has every recorded number; it is not maximal there either, the
    bound being 508.

    Over GF(49): genus 13, the family tuple (0; 0,2,3,6; 1) is non-special
    of degree 13, census and split count equal brute force, the curve is not
    maximal, reproduce("f49") fails on exactly the point-count and code
    targets, and the lambda_two pair of length 8*t verifies.  Over GF(169):
    every recorded number, census against brute force, and the LCP pair.
    """
    start = time.monotonic()
    failures = []

    c49 = f49_curve()
    if c49.genus != 13:
        failures.append(f"genus {c49.genus} != 13")
    A = coeffs_lambda_two(8, 5, 0, 1)
    if (A.n0, A.n) != (0, (0, 2, 3, 6, 1)):
        failures.append(f"family tuple {A} != (0; 0,2,3,6; 1)")
    if not criterion_check(c49, A).passed or A.degree(c49) != 13:
        failures.append("A is not non-special of degree 13")

    F = c49.field
    brute49, split49 = _brute_force_places(c49)
    res49 = census(c49)
    if res49.n_rational != brute49:
        failures.append(f"census {res49.n_rational} != brute force {brute49}")
    if res49.split_count != split49:
        failures.append(f"split count {res49.split_count} != brute force "
                        f"{split49}")
    hasse_weil = F.q + 1 + 2 * c49.genus * math.isqrt(F.q)
    if res49.is_maximal or brute49 >= hasse_weil:
        failures.append(f"GF(49) reported maximal or brute force {brute49} "
                        f"reaches the Hasse-Weil bound {hasse_weil}")

    # the recorded targets stay asserted: over GF(49) they must mismatch
    rep = reproduce("f49")
    mismatched = {key for key, val in rep["expected"].items()
                  if rep["observed"].get(key) != val}
    if rep["ok"] or mismatched != {"census", "maximal", "t",
                                   "params_G", "params_H"}:
        failures.append(f"reproduce(f49) mismatches {sorted(mismatched)}, "
                        f"expected census, maximal, t, params_G, params_H")
    if rep["observed"]["census"] != brute49:
        failures.append(f"reproduce(f49) census {rep['observed']['census']} "
                        f"!= brute force {brute49}")

    pair49 = lcp_build_regime(c49, "lambda_two", s=2)
    if not (pair49.verified and lcp_verify(pair49.C, pair49.E)
            and pair49.C.n == pair49.E.n == 8 * split49
            and pair49.C.k + pair49.E.k == pair49.C.n):
        failures.append(f"GF(49) pair [{pair49.C.n},{pair49.C.k}] / "
                        f"[{pair49.E.n},{pair49.E.k}] is not an LCP pair of "
                        f"length 8*{split49}")

    # the same equation over GF(169) attains every recorded number
    c169 = f169_curve()
    res169 = census(c169)
    brute169, _ = _brute_force_places(c169)
    ok169 = (c169.genus == 13 and res169.n_rational == 232 == brute169
             and res169.split_count == 28)
    pair = lcp_build_regime(c169, "lambda_two", s=2)
    stacked = np.vstack([pair.C.gen(), pair.E.gen()])
    ok169 = (ok169 and pair.s == 2
             and (pair.C.n, pair.C.k, pair.C.designed_distance) == (224, 160, 52)
             and (pair.E.n, pair.E.k, pair.E.designed_distance) == (224, 64, 148)
             and gf_rank(c169.field, stacked) == 224
             and lcp_verify(pair.C, pair.E))
    if not ok169:
        failures.append(f"GF(169) companion checks failed (census "
                        f"{res169.n_rational}, brute force {brute169})")

    elapsed = time.monotonic() - start
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    ok = not failures
    detail = (f"quartic curve end-to-end, GF(49) {brute49} places / "
              f"{split49} split (targets 232 / 28 reported as mismatch), "
              f"GF(169) all targets, {elapsed:.1f}s"
              if ok else "; ".join(failures))
    report(6, ok, detail)


def test_acceptance_07_dickson_instance():
    F = make_field(7, 2)
    phi3 = dickson(3, F)
    from kummerlcp.ffield import poly_analyze

    analysis = poly_analyze(phi3)
    roots = [r for r, mult in analysis.roots if mult == 1]
    ok = len(roots) == 3 and len(analysis.roots) == 3 and \
        F.neg(2) not in roots
    c = dickson_curve_single(8, 7)
    ok = ok and c.genus == 9
    pair0 = lcp_build_regime(c, "half_single")
    first, last = s_interval(c, pair0.C.n, 3)
    built = 0
    for s in range(first, last + 1):
        pair = lcp_build_regime(c, "half_single", s=s)
        if not (pair.verified and pair.gcd_identity and pair.lmd_identity):
            report(7, False, f"pair fails at s={s}")
        built += 1
    report(7, ok and built == last - first + 1,
           f"phi_3 roots {sorted(roots)}, g=9, verified pairs for "
           f"s in [{first}, {last}]")


def _toy_codes(toy9):
    A = coeffs_all_ones(2, 5)
    fibers = split_place_list(toy9, completely_split_values(toy9))
    base = invariant_divisor(toy9, A) - Divisor({toy9.q_infinity(): 1})
    return [build_code(toy9, base + c * x_pole_divisor(toy9), fibers)
            for c in (1, 2, 3)]


def test_acceptance_08_minimum_distance(toy9):
    results = []
    for code in _toy_codes(toy9):
        if toy9.field.q ** code.k > 10**6:
            continue
        d = min_distance_exact(code)
        if d < code.designed_distance:
            report(8, False, f"[{code.n},{code.k}] has d={d} below designed "
                             f"{code.designed_distance}")
        results.append((code.n, code.k, d, code.designed_distance))
    report(8, len(results) == 3,
           "exact d >= designed on " +
           ", ".join(f"[{n},{k}] d={d}>={dd}" for n, k, d, dd in results))


def _check_code_basis(curve, code):
    A, delta = divisor_shape(curve, code.divisor_G + Divisor())
    inv = invariant_divisor(curve, A)
    places = ([p for i in range(curve.r) for p in curve.branch_places(i)]
              + curve.infinity_places())
    for elem in code.basis:
        for place in places:
            for _, bf in elem.terms:
                if basis_valuation(curve, bf, place) + inv.coeff(place) < 0:
                    return False
        if delta == 1 and infinity_functional(curve, A.n0, elem) != 0:
            return False
    return gf_rank(curve.field, code.gen()) == code.k == len(code.basis)


def test_acceptance_09_basis_validity(toy9, f169, dickson_m8):
    checked = 0
    codes = _toy_codes(toy9)
    for curve, pair in [(f169, lcp_build_regime(f169, "lambda_two", s=2)),
                        (dickson_m8, lcp_build_regime(dickson_m8,
                                                      "half_single"))]:
        for code in (pair.C, pair.E):
            if not _check_code_basis(curve, code):
                report(9, False, f"basis check fails on [{code.n},{code.k}]")
            checked += 1
    for code in codes:
        if not _check_code_basis(toy9, code):
            report(9, False, f"basis check fails on [{code.n},{code.k}]")
        checked += 1
    report(9, checked == 7,
           f"div(f)+G >= 0 and full rank l(G) on {checked} codes")


def test_acceptance_10_divisor_identities(f169, dickson_m8):
    F25 = make_field(5, 2)
    curves_pairs = [
        (f169, lcp_build_regime(f169, "lambda_two", s=2)),
        (dickson_m8, lcp_build_regime(dickson_m8, "half_single")),
        (make_curve(F25, 4, [(0, 1), (2, 2), (3, 2)]),
         None),
    ]
    curves_pairs[2] = (curves_pairs[2][0],
                       lcp_build_regime(curves_pairs[2][0], "half_double_N1"))
    checked = 0
    for curve, pair in curves_pairs:
        base = (invariant_divisor(curve, pair.A)
                - Divisor({curve.q_infinity(): 1}))
        G, H = pair.C.divisor_G, pair.E.divisor_G
        if G.gcd_min(H) != base:
            report(10, False, "gcd(G, H) != A - Q_infinity")
        if not pair.lmd_identity:
            report(10, False, "lmd(G,H) - D - (A - Q_infinity) is not "
                              "principal of degree 0")
        # lmd degree check recomputed directly: deg lmd = deg base + n
        if G.lmd_max(H).degree != base.degree + pair.C.n:
            report(10, False, "lmd(G, H) has the wrong degree")
        checked += 1
    report(10, checked == 3,
           f"gcd and lmd divisor identities hold on {checked} built pairs")
