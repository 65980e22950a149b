import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from kummerlcp import (
    InvariantTuple,
    bound_B,
    coeffs_all_ones,
    coeffs_half_double,
    coeffs_half_single,
    coeffs_lambda_two,
    criterion_check,
    enumerate_nonspecial,
    make_curve,
    nonspecial,
)
from kummerlcp.curve import ell_invariant_bulk
from kummerlcp.errors import (
    JOutOfRange,
    LengthMismatch,
    NkNotPositive,
    RegimeViolation,
    SearchSpaceTooLarge,
)
from kummerlcp.instances import EX37_TUPLES
from kummerlcp.nonspecial import bulk_verdicts, overflow_set, search_cap

#: a failing example is reported as drawn, without a shrink phase
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True,
                         phases=(Phase.explicit, Phase.generate))


def random_curves(seed, count, m_range=(2, 10), r_range=(2, 5)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randrange(*m_range[0:1] + (m_range[1] + 1,))
        r = rng.randrange(r_range[0], r_range[1] + 1)
        lambdas = [rng.randrange(1, m) for _ in range(r)]
        if math.gcd(m, *lambdas) != 1:
            continue
        out.append(make_curve(None, m, lambdas))
    return out


# ---------------------------------------------------------------------------
# The bound B and the overflow sets C
# ---------------------------------------------------------------------------

def test_bound_B_hand_values(ex37_curve):
    # m=6, lambdas=(1,1,1,3,5): residues of -j*lambda mod 6 summed, minus 0,
    # divided by 6, ceiling, minus 1
    assert bound_B(ex37_curve, 0, 1) == 3   # (5+5+5+3+1)=19 -> ceil/6 - 1
    assert bound_B(ex37_curve, 0, 2) == 2   # (4+4+4+0+2)=14
    assert bound_B(ex37_curve, 0, 3) == 2   # (3+3+3+3+3)=15
    assert bound_B(ex37_curve, 0, 4) == 1   # (2+2+2+0+4)=10
    assert bound_B(ex37_curve, 0, 5) == 1   # (1+1+1+3+5)=11
    with pytest.raises(JOutOfRange):
        bound_B(ex37_curve, 0, 0)
    with pytest.raises(JOutOfRange):
        bound_B(ex37_curve, 0, 6)


def test_bound_B_all_ones_closed_form():
    # for lambda = (1,...,1): B(0, j) = r - 1 - floor(r*j/m)
    for m, r in [(5, 3), (7, 4), (9, 5), (11, 3)]:
        c = make_curve(None, m, [1] * r)
        for j in range(1, m):
            assert bound_B(c, 0, j) == r - 1 - (r * j) // m


def test_bound_B_sum_identity():
    # sum over j of B(n0, j) equals g - n0 * d_inf
    for c in random_curves(42, 60):
        for n0 in range(c.ram.e_inf):
            total = sum(bound_B(c, n0, j) for j in range(1, c.m))
            assert total == c.genus - n0 * c.ram.d_inf


def test_overflow_set_examples(ex37_curve):
    tup = InvariantTuple(0, (0, 1, 3, 0, 5))
    # j=1: n_i * d_i >= (lambda_i mod 6) > 0 picks indices with n_i >= residue
    assert overflow_set(ex37_curve, tup, 1) == [1, 2, 4]
    assert overflow_set(ex37_curve, InvariantTuple(0, (0, 0, 0, 0, 0)), 1) == []
    with pytest.raises(JOutOfRange):
        overflow_set(ex37_curve, tup, 0)
    with pytest.raises(LengthMismatch):
        overflow_set(ex37_curve, InvariantTuple(0, (0, 1, 3)), 1)


# ---------------------------------------------------------------------------
# The criterion
# ---------------------------------------------------------------------------

def test_criterion_known_tuples(ex37_curve):
    good = criterion_check(ex37_curve, InvariantTuple(0, (0, 1, 3, 0, 5)))
    assert good.passed and good.degree == good.genus == 9
    assert all(ok for _, _, _, ok in good.rows)
    bad = criterion_check(ex37_curve, InvariantTuple(0, (0, 0, 0, 0, 0)))
    assert not bad.passed
    report = criterion_check(ex37_curve, InvariantTuple(0, (0, 1, 3, 0, 5)),
                             mode="cond2")
    assert report.passed
    blob = good.to_json()
    assert blob["verdict"] == "nonspecial_deg_g"
    assert len(blob["rows"]) == ex37_curve.m - 1


def test_criterion_bad_inputs(ex37_curve):
    with pytest.raises(LengthMismatch):
        criterion_check(ex37_curve, InvariantTuple(0, (0, 0, 0)), mode="cond3")
    with pytest.raises(RegimeViolation):
        criterion_check(ex37_curve, InvariantTuple(0, (0, 0, 0, 0, 0)),
                        mode="bogus")
    out_of_box = criterion_check(ex37_curve, InvariantTuple(9, (0, 0, 0, 0, 0)))
    assert not out_of_box.bounds_ok and not out_of_box.passed


def test_modes_agree_and_match_dimension_oracle(monkeypatch):
    # cond2 and cond3 give the same verdict, and both coincide with the
    # direct dimension computation: degree g and dim L(A) = 1
    for c in random_curves(2024, 40):
        cond2, cond3 = bulk_verdicts(c)
        assert cond3.shape == (c.ram.e_inf,) + c.ram.e
        # no box here reaches the default limit, so only a smaller limit
        # walks leading axes: the bytes of the packed words of the tuples
        # of e[k:] walk exactly k of them, for every depth k = 0..r-1
        dtype, shifts = nonspecial._word_layout(c.m, c.r)
        for k in range(c.r):
            monkeypatch.setattr(nonspecial, "_BULK_BYTE_LIMIT",
                                dtype.itemsize * len(shifts) * math.prod(c.ram.e[k:]))
            split2, split3 = bulk_verdicts(c)
            assert np.array_equal(split2, cond2)
            assert np.array_equal(split3, cond3)
        monkeypatch.undo()
        for n0 in range(c.ram.e_inf):
            assert np.array_equal(cond2[n0], cond3[n0])
            ell = ell_invariant_bulk(c, n0)
            deg = np.zeros((), dtype=np.int64) + n0 * c.ram.d_inf
            for axis, (e_i, d_i) in enumerate(zip(c.ram.e, c.ram.d)):
                sh = [1] * c.r
                sh[axis] = e_i
                deg = deg + (np.arange(e_i, dtype=np.int64) * d_i).reshape(sh)
            oracle = (deg == c.genus) & (ell == 1)
            assert np.array_equal(cond3[n0], oracle)


def curves_with_r(min_r, max_m=12):
    """Abstract curves y^m = prod (x - alpha_i)^lambda_i, m in 2..max_m, r in
    min_r..5, with gcd(m, lambda_1, ..., lambda_r) = 1."""
    return st.integers(2, max_m).flatmap(
        lambda m: st.lists(st.integers(1, m - 1), min_size=min_r, max_size=5)
        .filter(lambda lambdas: math.gcd(m, *lambdas) == 1)
        .map(lambda lambdas: make_curve(None, m, lambdas)))


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(c=curves_with_r(2), data=st.data())
def test_modes_agree_on_drawn_curves(c, data):
    # cond2 and cond3 agree on the whole box of every n0, and criterion_check
    # agrees with both on a drawn tuple and on a drawn non-special one
    cond2, cond3 = bulk_verdicts(c)
    for n0 in range(c.ram.e_inf):
        assert np.array_equal(cond2[n0], cond3[n0])
    n0 = data.draw(st.integers(0, c.ram.e_inf - 1), label="n0")
    drawn = [tuple(data.draw(st.integers(0, e - 1), label="n_i") for e in c.ram.e)]
    hits = [tuple(int(v) for v in idx) for idx in np.argwhere(cond3[n0])]
    if hits:
        drawn.append(data.draw(st.sampled_from(hits), label="hit"))
    for idx in drawn:
        tup = InvariantTuple(n0, idx)
        assert criterion_check(c, tup, mode="cond2").passed \
            == criterion_check(c, tup, mode="cond3").passed \
            == cond2[(n0,) + idx] == cond3[(n0,) + idx]


def oracle_bound(c, n0, j):
    """B(n0, j) = -1 + ceil((sum_i (-j lambda_i mod m) - n0 d_inf) / m)."""
    s = sum((-j * lam) % c.m for lam in c.lambdas)
    return -1 - ((n0 * c.ram.d_inf - s) // c.m)


def oracle_overflow(c, tup, j):
    """C(n0, j): indices i with n_i * d_i >= (j * lambda_i mod m) > 0."""
    out = []
    for i, (ni, di, lam) in enumerate(zip(tup.n, c.ram.d, c.lambdas)):
        res = (j * lam) % c.m
        if res > 0 and ni * di >= res:
            out.append(i)
    return out


#: coefficients inside and outside the box, negative and beyond int64
coefficients = st.integers(-3, 14) | st.integers(-2**70, 2**70)


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(c=curves_with_r(1, max_m=70), data=st.data())
def test_criterion_rows_match_per_j_oracle(c, data):
    # the residue table gives the same bounds, overflow sets and report rows
    # as the per-j formulas, as exact Python ints for any coefficient size
    tup = InvariantTuple(data.draw(coefficients, label="n0"),
                         tuple(data.draw(coefficients, label="n_i")
                               for _ in range(c.r)))
    expected = [(j, oracle_bound(c, tup.n0, j), len(oracle_overflow(c, tup, j)))
                for j in range(1, c.m)]
    for j, b, _ in expected:
        assert bound_B(c, tup.n0, j) == b
        assert overflow_set(c, tup, j) == oracle_overflow(c, tup, j)
    for mode, holds in (("cond2", int.__le__), ("cond3", int.__eq__)):
        report = criterion_check(c, tup, mode=mode)
        assert report.rows == [(j, b, n, holds(n, b)) for j, b, n in expected]
        assert all(type(v) is int for row in report.rows for v in row[:3])
        assert all(type(row[3]) is bool for row in report.rows)
    for j in (0, c.m):
        with pytest.raises(JOutOfRange):
            bound_B(c, tup.n0, j)
        with pytest.raises(JOutOfRange):
            overflow_set(c, tup, j)


def small_box_curve(m, r, rng):
    """Of 300 drawn curves with r branch points, one with the smallest box:
    all lambdas but the last share a factor with m where m allows it."""
    pool = [lam for lam in range(1, m) if math.gcd(m, lam) > 1] or [1]
    best = None
    for _ in range(300):
        lambdas = [rng.choice(pool) for _ in range(r - 1)] + [rng.randrange(1, m)]
        if math.gcd(m, *lambdas) == 1:
            c = make_curve(None, m, lambdas)
            box = c.ram.e_inf * math.prod(c.ram.e)
            if best is None or box < best[0]:
                best = (box, c)
    return best


#: (m, r) where the packed counts change shape: r = 1, 3, 4, 7, 8 take
#: digits of w = 2, 3, 4, 4, 5 bits, and m - 1 lies just below, at and just
#: past the floor(63 / w) digits of one int64 word, and at and just past the
#: digits that fit int8, int16 and int32
WORD_BOUNDARIES = sorted(
    {(bits // (r.bit_length() + 1) + 1 + step, r)
     for r in (1, 3, 4, 7, 8) for bits in (7, 15, 31, 63)
     for step in ((-1, 0, 1) if bits == 63 else (0, 1))} - {(1, 8)})


@pytest.mark.parametrize("m, r", WORD_BOUNDARIES)
def test_word_and_digit_boundaries(m, r, monkeypatch):
    # the scalar rows match the per-j formulas, for coefficients in the box
    # and of +-2^70; where the box is small enough, the bulk modes agree
    # with each other and with the dimension oracle at every slicing depth
    rng = random.Random(m * 100 + r)
    box, c = small_box_curve(m, r, rng)
    w = r.bit_length() + 1
    dtype, shifts = nonspecial._word_layout(m, r)
    assert len(shifts) == (2 if m - 1 > 63 // w else 1)
    tuples = [InvariantTuple(0, (0,) * r),
              InvariantTuple(rng.randrange(c.ram.e_inf),
                             tuple(rng.randrange(e) for e in c.ram.e)),
              InvariantTuple(rng.choice([-2**70, 2**70]),
                             tuple(rng.choice([-2**70, 2**70, 1]) for _ in range(r)))]
    for tup in tuples:
        expected = [(j, oracle_bound(c, tup.n0, j), len(oracle_overflow(c, tup, j)))
                    for j in range(1, m)]
        for mode, holds in (("cond2", int.__le__), ("cond3", int.__eq__)):
            assert criterion_check(c, tup, mode=mode).rows \
                == [(j, b, n, holds(n, b)) for j, b, n in expected]
        for j in range(1, m):
            assert overflow_set(c, tup, j) == oracle_overflow(c, tup, j)
    if box > 10**5:
        return  # a prime m with r >= 7: every e_i is m
    cond2, cond3 = bulk_verdicts(c)
    assert np.array_equal(cond2, cond3)
    for k in range(r):
        monkeypatch.setattr(nonspecial, "_BULK_BYTE_LIMIT",
                            dtype.itemsize * len(shifts) * math.prod(c.ram.e[k:]))
        split2, split3 = bulk_verdicts(c)
        assert np.array_equal(split2, cond2) and np.array_equal(split3, cond3)
    for n0 in range(c.ram.e_inf):
        deg = n0 * c.ram.d_inf + sum(
            np.arange(e).reshape([e if a == i else 1 for a in range(r)]) * d
            for i, (e, d) in enumerate(zip(c.ram.e, c.ram.d)))
        oracle = (deg == c.genus) & (ell_invariant_bulk(c, n0) == 1)
        assert np.array_equal(cond3[n0], oracle)


def test_criterion_permutation_symmetry(ex37_curve):
    # the first three branch points all carry lambda = 1, so permuting their
    # coefficients cannot change the verdict
    rng = random.Random(9)
    for _ in range(100):
        n = [rng.randrange(0, 6) for _ in range(3)] + [rng.randrange(0, 2),
                                                       rng.randrange(0, 6)]
        base = criterion_check(ex37_curve, InvariantTuple(0, tuple(n))).passed
        for perm in itertools.permutations(n[:3]):
            tup = InvariantTuple(0, tuple(perm) + tuple(n[3:]))
            assert criterion_check(ex37_curve, tup).passed == base


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_matches_reference_list(ex37_curve):
    tuples = enumerate_nonspecial(ex37_curve, dedup=True)
    assert sorted((t.n0,) + t.n for t in tuples) == sorted(EX37_TUPLES)
    assert len(tuples) == 24


def test_enumeration_dedup_vs_full(ex37_curve):
    full = enumerate_nonspecial(ex37_curve)
    deduped = enumerate_nonspecial(ex37_curve, dedup=True)
    assert len(deduped) <= len(full)
    # every full tuple canonicalizes into the deduped list
    canon = {(t.n0,) + t.n for t in deduped}
    for t in full:
        key = (t.n0,) + tuple(sorted(t.n[:3])) + t.n[3:]
        assert key in canon
    # all tuples pass the criterion and have degree g
    for t in full:
        assert criterion_check(ex37_curve, t).passed
        assert t.degree(ex37_curve) == 9


def test_enumeration_empty_case():
    # m=17, lambda=(1,2): no invariant non-special divisor of degree g exists
    c = make_curve(None, 17, [1, 2])
    assert enumerate_nonspecial(c) == []
    assert enumerate_nonspecial(c, dedup=True) == []


def canonical(c, tup):
    """Coefficients sorted non-decreasing within each equal-lambda group."""
    n = list(tup.n)
    for lam in set(c.lambdas):
        idxs = [i for i, l in enumerate(c.lambdas) if l == lam]
        for i, v in zip(idxs, sorted(n[i] for i in idxs)):
            n[i] = v
    return InvariantTuple(tup.n0, tuple(n))


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_enumeration_dedup_is_canonical_orbit_set(data):
    # lambdas from a small pool repeat, so equal-lambda groups occur; the
    # deduplicated list is the sorted set of canonical forms of the full
    # list, and the full list is strictly increasing, in Python ints
    m = data.draw(st.integers(2, 8), label="m")
    lambdas = data.draw(st.lists(st.sampled_from(range(1, min(m, 4))),
                                 min_size=1, max_size=4)
                        .filter(lambda ls: math.gcd(m, *ls) == 1), label="lambdas")
    c = make_curve(None, m, lambdas)
    full = enumerate_nonspecial(c)
    keys = [(t.n0,) + t.n for t in full]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(type(v) is int for key in keys for v in key)
    deduped = enumerate_nonspecial(c, dedup=True)
    assert deduped == sorted({canonical(c, t) for t in full},
                             key=lambda t: (t.n0,) + t.n)
    assert all(type(v) is int for t in deduped for v in (t.n0,) + t.n)


def test_enumeration_all_ones_unique_up_to_order():
    # with n0 = 0, lambda all ones, the sorted solution is unique
    c = make_curve(None, 5, [1, 1, 1])
    tuples = enumerate_nonspecial(c, dedup=True)
    assert [(t.n0,) + t.n for t in tuples if t.n0 == 0] == [(0, 0, 1, 3)]


def test_search_cap(monkeypatch):
    c = make_curve(None, 6, [1, 1, 1, 3, 5])
    box = c.ram.e_inf * math.prod(c.ram.e)    # 15552 tuples
    monkeypatch.setenv("KDL_MAX_SEARCH", str(box - 1))
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_nonspecial(c)
    monkeypatch.setenv("KDL_MAX_SEARCH", str(box))
    assert len(enumerate_nonspecial(c, dedup=True)) == 24
    monkeypatch.setenv("KDL_MAX_SEARCH", "10")
    assert search_cap() == 10
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_nonspecial(c)
    monkeypatch.delenv("KDL_MAX_SEARCH")
    assert search_cap() > 10


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------

def test_all_ones_examples():
    assert coeffs_all_ones(5, 3) == InvariantTuple(0, (0, 1, 3))
    assert coeffs_all_ones(2, 5) == InvariantTuple(0, (0, 0, 0, 1, 1))
    with pytest.raises(RegimeViolation):
        coeffs_all_ones(1, 3)    # m < 2
    for m, r in [(3, 2), (7, 3), (8, 5), (11, 4), (13, 7)]:
        if math.gcd(m, 1) != 1:
            continue
        tup = coeffs_all_ones(m, r)
        c = make_curve(None, m, [1] * r)
        assert criterion_check(c, tup).passed


def test_all_ones_gcd_one_simple_form():
    # when gcd(m, r) = 1 the ceiling is never attained exactly, so
    # n_i = floor(m*(i-1)/r)
    for m, r in [(5, 3), (7, 4), (9, 5), (11, 3), (8, 5)]:
        assert math.gcd(m, r) == 1
        tup = coeffs_all_ones(m, r)
        assert tup.n == tuple((m * i) // r for i in range(r))


def test_half_single_examples():
    assert coeffs_half_single(8, 4, 0) == InvariantTuple(0, (1, 3, 5, 0))
    tup = coeffs_half_single(8, 6, 1)
    c = make_curve(None, 8, [1] * 5 + [4])
    assert criterion_check(c, tup).passed and tup.n[-1] == 1
    with pytest.raises(RegimeViolation):
        coeffs_half_single(7, 4, 0)    # odd m
    with pytest.raises(RegimeViolation):
        coeffs_half_single(8, 4, 2)    # N out of range
    with pytest.raises(RegimeViolation):
        coeffs_half_single(8, 3, 1)    # r too small for N=1


def test_half_double_examples():
    tup0 = coeffs_half_double(4, 7, 0)
    assert tup0.n[-2:] == (0, 0)
    c7 = make_curve(None, 4, [1] * 5 + [2, 2])
    assert criterion_check(c7, tup0).passed
    assert tup0.degree(c7) == c7.genus
    tup1 = coeffs_half_double(4, 5, 1)
    assert tup1.n[-2:] == (1, 0)
    c = make_curve(None, 4, [1, 1, 1, 2, 2])
    assert criterion_check(c, tup1).passed
    with pytest.raises(RegimeViolation):
        coeffs_half_double(5, 7, 1)    # odd m
    with pytest.raises(RegimeViolation):
        coeffs_half_double(4, 5, 3)
    with pytest.raises(RegimeViolation):
        coeffs_half_double(4, 6, 2)    # r too small for N=2


def test_lambda_two_examples():
    assert coeffs_lambda_two(8, 5, 0, 1) == InvariantTuple(0, (0, 2, 3, 6, 1))
    with pytest.raises(RegimeViolation):
        coeffs_lambda_two(7, 5, 0, 1)  # odd m
    with pytest.raises(RegimeViolation):
        coeffs_lambda_two(8, 4, 0, 1)  # odd r - 1
    with pytest.raises(RegimeViolation):
        coeffs_lambda_two(8, 5, 0, 5)  # k out of range
    with pytest.raises(NkNotPositive):
        coeffs_lambda_two(4, 3, 0, 1)  # N_1 = (4 - 1)//4 = 0


def test_families_sweep():
    # every closed-form output must pass the criterion (the family functions
    # already self-check; this exercises a broad parameter range)
    count = 0
    for m in range(2, 17):
        for r in range(2, 9):
            tup = coeffs_all_ones(m, r)
            assert tup.degree(make_curve(None, m, [1] * r)) == \
                make_curve(None, m, [1] * r).genus
            count += 1
            if m % 2 == 0 and m >= 4:
                for N in (0, 1):
                    try:
                        coeffs_half_single(m, r, N)
                        count += 1
                    except RegimeViolation:
                        pass
                for N in (0, 1, 2):
                    try:
                        coeffs_half_double(m, r, N)
                        count += 1
                    except RegimeViolation:
                        pass
                if (r - 1) % 2 == 0 and r >= 3:
                    for k in range(1, (r + 1) // 2):
                        try:
                            coeffs_lambda_two(m, r, 0, k)
                            count += 1
                        except (RegimeViolation, NkNotPositive):
                            pass
    assert count > 150


def test_lambda_two_with_positive_n0():
    # nonzero coefficient at infinity, still degree g and non-special
    tup = coeffs_lambda_two(14, 5, 1, 1)
    c = make_curve(None, 14, [1, 1, 1, 1, 2])
    assert tup.n0 == 1
    assert criterion_check(c, tup).passed


def test_nonspecial_tuples_have_trivial_space(monkeypatch):
    # a passing tuple supports only constants: every shifted summand with
    # t > 0 has negative degree and the t = 0 summand has degree exactly 0
    from kummerlcp.curve import _restricted_summand

    monkeypatch.setenv("KDL_MAX_SEARCH", str(10**6))
    for c in random_curves(77, 25):
        tuples = enumerate_nonspecial(c)
        for tup in tuples[:5]:
            assert _restricted_summand(c, tup.n0, tup.n, 0)[0] == 0
            for t in range(1, c.m):
                assert _restricted_summand(c, tup.n0, tup.n, t)[0] < 0
