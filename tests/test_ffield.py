import functools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_pow_mod, gf_rem, gf_sqf_p

from kummerlcp import make_field, nth_roots, poly_analyze
from kummerlcp.errors import DegreeZero, FieldTooLarge, NotPrime, ZeroPolynomial
from kummerlcp.ffield import Poly
from kummerlcp.instances import dickson_curve_single

FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (7, 2), (13, 2)]

#: table-built fields from GF(2) to the cap: prime fields, GF(p^2) (GF(49),
#: GF(169) and GF(10609) are the benchmark's fields) and GF(2^k)
LARGE_FIELDS = [(2, 1), (7, 1), (65521, 1), (7, 2), (13, 2), (103, 2),
                (2, 3), (2, 8), (2, 16), (3, 5)]

#: the prime powers q <= 256, as (p, k), factored by sympy
SMALL_FIELDS = [pk for q in range(2, 257) if len(f := sympy.factorint(q)) == 1
                for pk in f.items()]

#: derandomized; a failing example is reported as drawn, without shrinking
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True,
                         phases=(Phase.explicit, Phase.generate))


@pytest.fixture(params=FIELDS, ids=lambda pk: f"GF({pk[0] ** pk[1]})")
def field(request):
    return make_field(*request.param)


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 2)
    with pytest.raises(DegreeZero):
        make_field(5, 0)
    with pytest.raises(FieldTooLarge):
        make_field(2, 40)
    with pytest.raises(FieldTooLarge):
        make_field(257, 2)   # q = 66049 > 2^16
    # rejected before p ** k is formed or p is trial-divided
    with pytest.raises(FieldTooLarge):
        make_field(3, 10**4)
    with pytest.raises(FieldTooLarge):
        make_field(2**61 - 1, 1)


def test_canonical_modulus_deterministic():
    # the modulus is the lexicographically least monic irreducible, so
    # reconstructing the field always yields the same tables
    assert make_field(7, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert make_field(5, 1).modulus == (0, 1)          # x
    F1 = make_field.__wrapped__(13, 2)
    F2 = make_field.__wrapped__(13, 2)
    assert F1.modulus == F2.modulus == make_field(13, 2).modulus


def test_modulus_is_irreducible(field):
    # the generating element t (enc = p) must not satisfy any proper factor:
    # its minimal polynomial has full degree k, i.e. 1, t, ..., t^{k-1} are
    # linearly independent <=> t generates all q encodings as polynomials
    if field.k == 1:
        return
    mod = Poly.from_ints(field, field.modulus)
    t = field.p  # encoding of the generator of the extension
    assert mod.eval_enc(t) == 0


def test_field_axioms_random(field):
    rng = random.Random(20260824)
    F = field
    for _ in range(2000):
        a = rng.randrange(F.q)
        b = rng.randrange(F.q)
        c = rng.randrange(F.q)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_fermat_exhaustive(field):
    F = field
    for a in range(F.q):
        assert F.pow(a, F.q) == a
        if a:
            assert F.pow(a, F.q - 1) == 1


def test_pow_negative_and_zero(field):
    F = field
    for a in range(1, F.q):
        assert F.mul(F.pow(a, -1), a) == 1
        assert F.pow(a, 0) == 1
        assert F.pow(a, -3) == F.inv(F.pow(a, 3))
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def _multiplicative_order(F, a):
    order, acc = 1, a
    while acc != 1:
        acc = F.mul(acc, a)
        order += 1
    return order


def test_element_order_divides_group_order(field):
    # brute-force orders: pow must act as the cyclic group of order q - 1
    F = field
    assert _multiplicative_order(F, F.generator) == F.q - 1
    for a in range(1, F.q):
        order = _multiplicative_order(F, a)
        assert (F.q - 1) % order == 0
        assert F.pow(a, order) == 1
        for f in {2, 3, 5, 7}:
            if order % f == 0:
                assert F.pow(a, order // f) != 1


def digit_op(F, op, *args):
    """op on each base-p digit of the encodings, mod p: the oracle for
    addition (op = +) and negation (op = unary -)."""
    digits = [[x // F.p ** i % F.p for i in range(F.k)] for x in args]
    return sum(op(*column) % F.p * F.p ** i for i, column in enumerate(zip(*digits)))


def test_vectorized_ops_match_scalar(field):
    # add, neg and sub share one digit loop with their _arr forms, so both
    # are checked against the digit oracle: on scalars, on 1-D arrays and on
    # a column broadcast against a row, the shapes gf_rank uses
    F = field
    rng = random.Random(7)
    a = [rng.randrange(F.q) for _ in range(200)] + [0, F.q - 1]
    b = [rng.randrange(F.q) for _ in range(200)] + [F.q - 1, 0]
    pairs = list(zip(a, b))
    add = [digit_op(F, lambda x, y: x + y, x, y) for x, y in pairs]
    neg = [digit_op(F, lambda x: -x, x) for x in a]
    sub = [digit_op(F, lambda x, y: x - y, x, y) for x, y in pairs]
    assert [F.add(x, y) for x, y in pairs] == add
    assert [F.neg(x) for x in a] == neg
    assert [F.sub(x, y) for x, y in pairs] == sub
    assert [int(F.add_arr(x, y)) for x, y in pairs] == add
    assert [int(F.neg_arr(x)) for x in a] == neg
    assert [int(F.sub_arr(x, y)) for x, y in pairs] == sub
    a, b = np.array(a), np.array(b)
    assert F.add_arr(a, b).tolist() == add
    assert F.neg_arr(a).tolist() == neg
    assert F.sub_arr(a, b).tolist() == sub
    col, row = a[:12, None], b[None, 100:110]
    for kernel, op in ((F.add_arr, lambda x, y: x + y),
                       (F.sub_arr, lambda x, y: x - y)):
        out = kernel(col, row)
        assert out.dtype == np.int64 and out.shape == (12, 10)
        assert out.tolist() == [[digit_op(F, op, x, y) for y in row[0].tolist()]
                                for x in col[:, 0].tolist()]
    assert F.neg_arr(col).tolist() == [[digit_op(F, lambda x: -x, x)]
                                       for x in col[:, 0].tolist()]
    # an array with a scalar, as in sub_arr(xs, alpha)
    assert F.sub_arr(a, int(b[0])).tolist() \
        == [digit_op(F, lambda x, y: x - y, x, int(b[0])) for x in a.tolist()]
    assert all(int(v) == F.mul(int(x), int(y))
               for v, x, y in zip(F.mul_arr(a, b), a, b))
    assert all(int(v) == F.pow(int(x), 5) for v, x in zip(F.pow_arr(a, 5), a))


def test_pow_arr_array_exponents_match_scalar(field):
    F = field
    a = np.arange(F.q)
    e = np.arange(-3, 8)
    # every element to every exponent, broadcast; 0 only to e >= 0
    assert F.pow_arr(a[1:, None], e[None, :]).tolist() \
        == [[F.pow(x, int(k)) for k in e] for x in range(1, F.q)]
    assert F.pow_arr(a[:, None], e[None, e >= 0]).tolist() \
        == [[F.pow(x, int(k)) for k in e[e >= 0]] for x in range(F.q)]
    assert F.pow_arr([0, 0, 1, 0], [0, 1, -2, 0]).tolist() == [1, 0, 1, 1]
    with pytest.raises(ZeroDivisionError):
        F.pow_arr([1, 0], [-1, -1])
    with pytest.raises(ZeroDivisionError):
        F.pow_arr(a[:, None], e[None, :])
    # a scalar exponent keeps its meaning, 0^0 = 1 included
    assert F.pow_arr(a, 0).tolist() == [1] * F.q
    assert F.pow_arr(a[1:], -1).tolist() == [F.inv(x) for x in range(1, F.q)]
    with pytest.raises(ZeroDivisionError):
        F.pow_arr(a, -1)
    # scalar (0-d) inputs
    for x, k in ((F.q - 1, 2), (1, -3), (F.q // 2, 5), (0, 3), (0, 0)):
        assert int(F.pow_arr(x, k)) == F.pow(x, k)
    assert int(F.pow_arr(0, 0)) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow_arr(0, -1)


def scalar_pow_prod(F, bases, exps):
    """Oracle for pow_prod: each entry a product of scalar pow's by mul."""
    return [[functools.reduce(F.mul, (F.pow(b, e) for b, e in zip(col, row)), 1)
             for col in zip(*bases)] for row in exps]


@pytest.mark.parametrize("pk", [(3, 2), (7, 2), (13, 2), (103, 2), (2, 4)],
                         ids=lambda pk: f"GF({pk[0] ** pk[1]})")
def test_pow_prod_matches_scalar(pk):
    F = make_field(*pk)
    q = F.q
    rng = random.Random(q)
    # bases 0 and 1 hold zeros and take only exponents >= 0, among them
    # multiples of q - 1 (which still send 0 to 0); bases 2 and 3 are
    # nonzero and take any exponent, negative and beyond int32 included
    T = 12
    bases = [[0, 0, 1, 0] + [rng.randrange(q) for _ in range(T - 4)],
             [0, 1, 0, 0] + [rng.randrange(q) for _ in range(T - 4)],
             [rng.randrange(1, q) for _ in range(T)],
             [rng.randrange(1, q) for _ in range(T)]]
    nonneg = [0, 1, 2, q - 2, q - 1, q, 2 * (q - 1), 3 * q + 1, 10**12]
    signed = nonneg + [-1, -(q - 1), -q, -10**12 - 3]
    exps = [[0, 0, 0, 0], [q - 1, q - 1, q - 1, q - 1], [0, q - 1, -(q - 1), 1]]
    exps += [[rng.choice(nonneg), rng.choice(nonneg), rng.choice(signed),
              rng.choice(signed)] for _ in range(20)]
    assert F.pow_prod(bases, exps).tolist() == scalar_pow_prod(F, bases, exps)
    # one base row is pow_arr; empty rows, columns and products
    assert F.pow_prod(bases[2:3], [[-5], [q + 3]]).tolist() \
        == [F.pow_arr(bases[2], e).tolist() for e in (-5, q + 3)]
    assert F.pow_prod(np.zeros((0, T), np.int64), np.zeros((3, 0), np.int64)).tolist() \
        == [[1] * T] * 3
    assert F.pow_prod(bases, np.zeros((0, 4), np.int64)).shape == (0, T)
    assert F.pow_prod(np.zeros((4, 0), np.int64), exps).shape == (len(exps), 0)
    # a negative power of a zero base raises, a multiple of q - 1 included,
    # and a zero exponent elsewhere in its row does not hide it
    for row in ([-1, 0, 0, 0], [0, -(q - 1), 5, -2]):
        with pytest.raises(ZeroDivisionError):
            F.pow_prod(bases, [[0, 0, 0, 0], row])
    with pytest.raises(ZeroDivisionError):
        F.pow_prod([[0, 1]], [[1], [-1]])


def test_nth_roots_properties(field):
    F = field
    for n in (1, 2, 3, F.q - 1 if F.q > 2 else 1):
        counted = 0
        for c in range(F.q):
            roots = nth_roots(F, c, n)
            assert roots == sorted(roots)
            for r in roots:
                assert F.pow(r, n) == c
            if c == 0:
                assert roots == [0]
            else:
                g = math.gcd(n, F.q - 1)
                assert len(roots) in (0, g)
            counted += len(roots)
        # y -> y^n is a function from the field onto its image
        assert counted == F.q


def scan_roots(F, n) -> dict:
    """Oracle: {c: every y with y^n = c, increasing}, by scanning the field."""
    out = {}
    for y in range(F.q):
        out.setdefault(F.pow(y, n), []).append(y)
    return out


@pytest.mark.parametrize("pk", [(7, 1), (3, 2), (7, 2), (13, 2)],
                         ids=lambda pk: f"GF({pk[0] ** pk[1]})")
def test_nth_roots_match_field_scan(pk):
    F = make_field(*pk)
    # every n up to q - 1: the divisors of q - 1, and exponents n for which
    # n / gcd(n, q - 1) must be inverted
    for n in range(1, F.q):
        scan = scan_roots(F, n)
        for c in range(F.q):
            assert nth_roots(F, c, n) == scan.get(c, []), (c, n)


def test_nth_roots_match_field_scan_sampled():
    F = make_field(103, 2)  # q - 1 = 10608 = 2^4 * 3 * 13 * 17
    rng = random.Random(11)
    divisors = [d for d in range(1, F.q) if (F.q - 1) % d == 0]
    for n in [8] + rng.sample(divisors, 4) + rng.sample(range(1, F.q), 3):
        scan = scan_roots(F, n)
        powers = [F.pow(rng.randrange(1, F.q), n) for _ in range(20)]
        for c in rng.sample(range(F.q), 40) + powers:
            assert nth_roots(F, c, n) == scan.get(c, []), (c, n)


def test_nth_roots_known_values():
    F = make_field(7, 1)
    assert nth_roots(F, 1, 3) == [1, 2, 4]
    assert nth_roots(F, 6, 3) == [3, 5, 6]
    assert nth_roots(F, 3, 2) == []  # 3 is no square mod 7


def test_poly_arithmetic(field):
    F = field
    rng = random.Random(13)
    for _ in range(50):
        a = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
        b = Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree
        pt = rng.randrange(F.q)
        assert (a * b).eval_enc(pt) == F.mul(a.eval_enc(pt), b.eval_enc(pt))
        assert (a + b).eval_enc(pt) == F.add(a.eval_enc(pt), b.eval_enc(pt))
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(F, [1, 1]), Poly(F, []))


def test_field_and_poly_reprs_and_hash():
    F = make_field(7, 2)
    assert repr(F) == "GF(49)"
    assert repr(Poly(F, [3, 0, 1, 0])) == "Poly(GF(49), [3, 0, 1])"
    # equal polynomials hash alike, so they meet in a set
    assert len({Poly(F, [1, 2]), Poly(F, [1, 2, 0]), Poly.x(F)}) == 2


def test_poly_analyze_quartic_over_gf49():
    F = make_field(7, 2)
    f = Poly.from_ints(F, [1, 0, 0, 0, 1])  # x^4 + 1
    analysis = poly_analyze(f)
    assert len(analysis.roots) == 4
    assert all(mult == 1 for _, mult in analysis.roots)
    assert analysis.separable
    for root, _ in analysis.roots:
        assert F.pow(root, 4) == F.neg(1)


def test_poly_analyze_multiplicities_and_separability():
    F = make_field(7, 1)
    sq = Poly.from_ints(F, [0, 0, 1])  # x^2
    analysis = poly_analyze(sq)
    assert analysis.roots == [(0, 2)]
    assert not analysis.separable
    no_roots = Poly.from_ints(F, [1, 0, 1])  # x^2 + 1, irreducible mod 7
    analysis = poly_analyze(no_roots)
    assert analysis.roots == [] and analysis.separable
    with pytest.raises(ZeroPolynomial):
        poly_analyze(Poly(F, []))


def deflate(F, coeffs, a):
    """(f div (x - a), f(a)) by synthetic division with scalar ops, for f
    given by its coefficients low to high."""
    acc, out = 0, []
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, a), c)
        out.append(acc)
    return out[-2::-1], out[-1]


def scan_root_multiplicities(f: Poly) -> list:
    """[(a, multiplicity)] over every element a of the field, by deflation."""
    F, found = f.field, []
    for a in range(F.q):
        coeffs, mult = list(f.coeffs), 0
        while True:
            quot, value = deflate(F, coeffs, a)
            if value:
                break
            coeffs, mult = quot, mult + 1
        if mult:
            found.append((a, mult))
    return found


@functools.lru_cache(maxsize=None)
def rootless_quadratic(F):
    """The first monic x^2 + b x + c, by (c, b), with no root in F."""
    return next(g for c in range(1, F.q) for b in range(F.q)
                if not scan_root_multiplicities(g := Poly(F, [c, b, 1])))


@pytest.mark.parametrize("pk", [(2, 1), (3, 1), (13, 1), (103, 1), (3, 2), (7, 2),
                                (5, 3), (2, 2), (2, 5), (2, 8)],
                         ids=lambda pk: f"GF({pk[0] ** pk[1]})")
@settings(max_examples=20, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_poly_analyze_matches_scalar_scan(pk, data):
    # f = c * prod (x - a)^e * (a rootless quadratic) * rest: roots with
    # multiplicity (0 among them: a zero constant term), or none at all
    F = make_field(*pk)
    f = Poly(F, [data.draw(st.integers(1, F.q - 1), label="lead")])
    roots = data.draw(st.lists(st.tuples(elements(F), st.integers(1, 3)), max_size=4),
                      label="roots")
    for a, e in roots:
        f = f * Poly.linear(F, a) ** e
    if data.draw(st.booleans(), label="rootless"):
        f = f * rootless_quadratic(F)
    rest = Poly(F, data.draw(st.lists(elements(F), max_size=4), label="rest"))
    if not rest.is_zero():
        f = f * rest
    want = scan_root_multiplicities(f)
    analysis = poly_analyze(f)
    assert analysis.roots == want
    assert [a for a, _ in want] == sorted({a for a, _ in roots} | {a for a, _ in want})
    if any(mult > 1 for _, mult in want):
        assert not analysis.separable
    if F.k == 1:  # separable = squarefree, by sympy over GF(p)
        assert analysis.separable == gf_sqf_p(list(f.coeffs[::-1]), F.p, ZZ)
    # the derivative against i * c_i as i-fold sums
    folded = []
    for i, c in enumerate(f.coeffs[1:], 1):
        acc = 0
        for _ in range(i):
            acc = F.add(acc, c)
        folded.append(acc)
    assert f.derivative() == Poly(F, folded)


def test_poly_analyze_evaluates_no_element_by_element(monkeypatch):
    # the roots of phi_3 over GF(103^2) come from one array pass: the
    # scalar evaluations are those of the multiplicity loop, mult + 1 per
    # root, not one per element of the 10609
    calls = []
    eval_enc = Poly.eval_enc

    def spy(f, a):
        calls.append(a)
        return eval_enc(f, a)

    monkeypatch.setattr(Poly, "eval_enc", spy)
    curve = dickson_curve_single(8, 103)
    assert curve.lambdas == (1, 1, 1, 4)
    assert len(calls) <= sum(mult + 1 for mult in [1, 1, 1])
    assert sorted(set(calls)) == sorted(curve.alphas[:3])


def test_poly_from_roots_and_derivative():
    F = make_field(3, 2)
    roots = [0, 1, 4]
    f = Poly.linear(F, 0) * Poly.linear(F, 1) * Poly.linear(F, 4)
    assert f.degree == 3
    for r in roots:
        assert f.eval_enc(r) == 0
    analysis = poly_analyze(f)
    assert analysis.roots == [(r, 1) for r in roots]
    # (x^3)' = 0 in characteristic 3
    cube = Poly.from_ints(F, [0, 0, 0, 1])
    assert cube.derivative().is_zero()


def test_field_serialization_roundtrip(field):
    data = field.to_json()
    again = make_field(data["p"], data["k"])
    assert again == field
    assert tuple(data["modulus"]) == field.modulus


# ---------------------------------------------------------------------------
# Properties and an independent oracle on table-built fields
# ---------------------------------------------------------------------------

def elements(F):
    # 0 weighted in: it reads the zero sentinel of the log table
    return st.sampled_from([0, 1, F.q - 1]) | st.integers(0, F.q - 1)


@pytest.mark.parametrize("pk", LARGE_FIELDS, ids=lambda pk: f"GF({pk[0] ** pk[1]})")
@settings(max_examples=30, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_field_axioms_property(pk, data):
    F = make_field(*pk)
    a, b, c = (data.draw(elements(F), label=name) for name in "abc")
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
    assert F.add(a, F.neg(a)) == 0 and F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == 1
    e = data.draw(st.integers(0, 2 * F.q), label="e")
    assert F.pow(a, e + 1) == F.mul(F.pow(a, e), a)

    # the vectorized ops agree with the scalar ops element by element
    xs = np.array(data.draw(st.lists(elements(F), min_size=1, max_size=20),
                            label="xs"))
    ys = np.array(data.draw(st.lists(elements(F), min_size=len(xs),
                                     max_size=len(xs)), label="ys"))
    es = np.array(data.draw(st.lists(st.integers(-3, 2 * F.q), min_size=len(xs),
                                     max_size=len(xs)), label="es"))
    es = np.where(xs == 0, np.abs(es), es)  # 0 has no negative powers
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert F.mul_arr(xs, ys).tolist() == [F.mul(x, y) for x, y in pairs]
    assert F.add_arr(xs, ys).tolist() == [F.add(x, y) for x, y in pairs]
    assert F.sub_arr(xs, ys).tolist() == [F.sub(x, y) for x, y in pairs]
    assert F.pow_arr(xs, es).tolist() \
        == [F.pow(x, k) for x, k in zip(xs.tolist(), es.tolist())]
    # a bool array reads as 0/1, not as an index mask
    assert F.mul_arr(ys > xs, ys).tolist() == [F.mul(int(y > x), y) for x, y in pairs]


@pytest.mark.parametrize("p", [2, 3, 7, 13, 103])
@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_poly_gcd_and_division_match_sympy(p, data):
    # Poly.gcd, // and % over GF(p) against sympy's polynomials mod p; half
    # of the pairs share a drawn factor, so their gcd is not always 1
    F = make_field(p, 1)
    coeffs = st.lists(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1),
                      max_size=8)
    a, b = (Poly(F, data.draw(coeffs, label=name)) for name in "ab")
    if data.draw(st.booleans(), label="common"):
        c = Poly(F, data.draw(coeffs, label="c"))
        a, b = a * c, b * c
    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.Poly(list(f.coeffs[::-1]) or [0], x, modulus=p)

    def from_sympy(g):
        return Poly.from_ints(F, g.all_coeffs()[::-1])

    assert a.gcd(b) == from_sympy(to_sympy(a).gcd(to_sympy(b)))
    if not b.is_zero():
        quot, rem = to_sympy(a).div(to_sympy(b))
        assert a // b == from_sympy(quot)
        assert a % b == from_sympy(rem)


def _gf_poly(F, enc):
    """sympy's dense GF(p) polynomial (high to low) of an encoding."""
    digits = []
    while enc:
        enc, d = divmod(enc, F.p)
        digits.append(d)
    return digits[::-1]


def _gf_enc(F, poly):
    enc = 0
    for d in poly:
        enc = enc * F.p + int(d)
    return enc


@pytest.mark.parametrize("pk", sorted(set(LARGE_FIELDS + SMALL_FIELDS)),
                         ids=lambda pk: f"GF({pk[0] ** pk[1]})")
def test_construction_matches_sympy(pk):
    p, k = pk
    F = make_field(p, k)
    q = F.q
    x = sympy.Symbol("x")
    # the modulus is the first irreducible in the scan order: monic,
    # degree k, candidates by encoding (constant term first)
    modulus = list(F.modulus[::-1])
    assert modulus[0] == 1 and len(modulus) == k + 1
    assert sympy.Poly(modulus, x, modulus=p).is_irreducible
    for enc in range(p ** k, _gf_enc(F, modulus)):
        assert not sympy.Poly(_gf_poly(F, enc), x, modulus=p).is_irreducible
    # exp[i + 1] = exp[i] * g mod the modulus, and log inverts exp
    g = _gf_poly(F, F.generator)
    exp = F._exp[:q - 1].tolist()
    steps = range(q - 1) if q <= 256 else random.Random(q).sample(range(q - 1), 2000)
    for i in steps:
        step = gf_rem(gf_mul(_gf_poly(F, exp[i]), g, p, ZZ), modulus, p, ZZ)
        assert _gf_enc(F, step) == exp[(i + 1) % (q - 1)], i
    assert exp[0] == 1
    assert F._log[exp].tolist() == list(range(q - 1))
    # no smaller encoding generates the multiplicative group
    factors = sympy.factorint(q - 1)
    for a in range(2, F.generator):
        assert any(gf_pow_mod(_gf_poly(F, a), (q - 1) // f, modulus, p, ZZ) == [1]
                   for f in factors), a
