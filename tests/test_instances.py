import random

import pytest

from kummerlcp import catalog, dickson, make_field, reproduce
from kummerlcp.errors import (
    CongruenceViolated,
    FieldTooLarge,
    NotPrime,
    RegimeViolation,
    RootCountMismatch,
    UnknownId,
)
from kummerlcp.ffield import Poly, poly_analyze
from kummerlcp.instances import (
    _x2_quartic_curve,
    dickson_curve_double,
    dickson_curve_single,
    f49_curve,
    f169_curve,
)


# ---------------------------------------------------------------------------
# Dickson polynomials
# ---------------------------------------------------------------------------

def test_dickson_small_cases(gf7):
    assert dickson(0, gf7) == Poly.from_ints(gf7, [2])
    assert dickson(1, gf7) == Poly.x(gf7)
    assert dickson(2, gf7) == Poly.from_ints(gf7, [-2, 0, 1])
    assert dickson(3, gf7) == Poly.from_ints(gf7, [0, -3, 0, 1])
    assert dickson(4, gf7) == Poly.from_ints(gf7, [2, 0, -4, 0, 1])
    with pytest.raises(RegimeViolation):
        dickson(-1, gf7)


def test_dickson_functional_identity():
    # phi_d(u + 1/u) = u^d + u^(-d) for every unit u
    for p, k in [(7, 2), (13, 2)]:
        F = make_field(p, k)
        rng = random.Random(p)
        for d in range(1, 41):
            phi = dickson(d, F)
            for _ in range(10):
                u = rng.randrange(1, F.q)
                x = F.add(u, F.inv(u))
                want = F.add(F.pow(u, d), F.pow(u, -d))
                assert phi.eval_enc(x) == want


def test_dickson_fixed_points(gf49):
    # u = 1 gives phi_d(2) = 2; u = -1 gives phi_d(-2) = 2*(-1)^d
    F = gf49
    two = 2 % F.p
    for d in range(1, 30):
        phi = dickson(d, F)
        assert phi.eval_enc(two) == two
        want = two if d % 2 == 0 else F.neg(two)
        assert phi.eval_enc(F.neg(two)) == want


def test_dickson_degree_and_leading_coeff(gf49):
    for d in range(1, 20):
        phi = dickson(d, gf49)
        assert phi.degree == d
        assert phi.coeffs[-1] == 1


# ---------------------------------------------------------------------------
# Dickson curve families
# ---------------------------------------------------------------------------

LARGE_PRIME = 10000000279  # prime, = 7 (mod 48)


def test_dickson_single_m8_q7(dickson_m8):
    c = dickson_m8
    assert c.m == 8 and c.field.q == 49
    assert sorted(c.lambdas) == [1, 1, 1, 4]
    assert c.genus == 9
    # branch points: the three simple roots of phi_3 plus x = -2
    F = c.field
    phi3 = dickson(3, F)
    lam_one = [a for a, lam in zip(c.alphas, c.lambdas) if lam == 1]
    for a in lam_one:
        assert phi3.eval_enc(a) == 0
    assert any(a == F.neg(2) and lam == 4
               for a, lam in zip(c.alphas, c.lambdas))


def test_dickson_single_congruence_guard():
    with pytest.raises(CongruenceViolated):
        dickson_curve_single(8, 5)  # 5 != 7 mod 48
    with pytest.raises(RegimeViolation):
        dickson_curve_single(7, 7)  # odd m
    with pytest.raises(RegimeViolation):
        dickson_curve_single(2, 3)  # m too small
    # q^2 exceeds the field cap: rejected before q is trial-divided
    with pytest.raises(FieldTooLarge):
        dickson_curve_single(8, LARGE_PRIME)


def test_dickson_double_curve():
    # m=4: y^4 = (x^2-4)^2 * phi_5(x); phi_5 must have 5 simple roots
    # distinct from +-2.  q=11: phi_5 = x^5 - 5x^3 + 5x splits over GF(121).
    c = dickson_curve_double(4, 11)
    assert c.m == 4 and c.field.q == 121
    assert sorted(c.lambdas) == [1, 1, 1, 1, 1, 2, 2]
    assert c.genus == (4 * 4) // 2  # m^2 / 2
    F = c.field
    phi5 = dickson(5, F)
    assert poly_analyze(phi5).separable
    for a, lam in zip(c.alphas, c.lambdas):
        if lam == 1:
            assert phi5.eval_enc(a) == 0
        else:
            assert a in (2, F.neg(2))


def test_dickson_double_guard():
    with pytest.raises(CongruenceViolated):
        dickson_curve_double(4, 5)  # char 5 divides m(m+1) = 20
    with pytest.raises(RegimeViolation):
        dickson_curve_double(5, 11)  # odd m
    with pytest.raises(NotPrime):
        dickson_curve_double(4, 6)  # q = 6 is not a prime power
    with pytest.raises(FieldTooLarge):
        dickson_curve_double(4, LARGE_PRIME)
    with pytest.raises(RootCountMismatch):
        dickson_curve_double(4, 7)  # phi_5 has one root in GF(49), 0


def test_quartic_curve_needs_a_split_quartic():
    with pytest.raises(RootCountMismatch):
        _x2_quartic_curve(2)  # x^4 + 1 = (x + 1)^4 over GF(4)


# ---------------------------------------------------------------------------
# Catalog and reproduction
# ---------------------------------------------------------------------------

def test_catalog_entries():
    for cid in ("ex37", "f49", "f169", "dickson_half_m8"):
        entry = catalog(cid)
        assert entry["id"] == cid and "expected" in entry
    with pytest.raises(UnknownId):
        catalog("nope")
    with pytest.raises(UnknownId):
        reproduce("nope")


def test_f49_and_f169_are_the_same_equation():
    c49, c169 = f49_curve(), f169_curve()
    assert c49.m == c169.m == 8
    assert sorted(c49.lambdas) == sorted(c169.lambdas) == [1, 1, 1, 1, 2]
    assert c49.field.q == 49 and c169.field.q == 169
    # both right-hand sides are x^2 * (x^4 + 1) = x^6 + x^2
    for c in (c49, c169):
        assert c.f_poly() == Poly.from_ints(c.field, [0, 0, 1, 0, 0, 0, 1])


def test_reproduce_ex37():
    rep = reproduce("ex37")
    assert rep["ok"]
    assert rep["observed"]["count"] == 24
    assert rep["observed"]["tuples"] == rep["expected"]["tuples"]


def test_reproduce_dickson():
    rep = reproduce("dickson_half_m8")
    assert rep["ok"]
    assert rep["observed"] == rep["expected"]


def test_reproduce_f169():
    rep = reproduce("f169")
    assert rep["ok"], rep
    assert rep["observed"]["census"] == 232
    assert rep["observed"]["t"] == 28
    assert rep["observed"]["params_G"] == [224, 160, 52]
    assert rep["observed"]["params_H"] == [224, 64, 148]
    assert rep["observed"]["verified"]


def test_reproduce_f49_reports_the_discrepancy():
    # the recorded targets for this instance do not hold over GF(49): the
    # curve has 104 rational places and 12 completely split values, not
    # 232 and 28.  reproduce() must report this honestly instead of
    # glossing over it; the same equation over GF(169) attains every target
    # (see test_reproduce_f169).
    rep = reproduce("f49")
    assert not rep["ok"]
    assert rep["observed"]["census"] == 104
    assert rep["observed"]["t"] == 12
    assert rep["observed"]["maximal"] is False
    # the combinatorial side is field-independent and does match
    assert rep["observed"]["genus"] == 13
    assert rep["observed"]["A"] == rep["expected"]["A"]
    # the pair construction itself still verifies at the smaller length
    assert rep["observed"]["verified"]
    assert rep["observed"]["params_G"][0] == 12 * 8
