import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from kummerlcp import (
    Divisor,
    InvariantTuple,
    KummerCurve,
    Place,
    census,
    completely_split_values,
    ell_invariant,
    invariant_divisor,
    make_curve,
    make_field,
    nth_roots,
    principal_divisor,
    restrict,
    splitting_type,
)
from kummerlcp.curve import (
    branch_zero_divisor,
    ell_invariant_bulk,
    rational_degree,
    rational_ell,
    x_pole_divisor,
    y_divisor,
)
from kummerlcp.codes import BasisFunction, basis_valuation, split_place_list
from kummerlcp.errors import (
    AbstractField,
    CharDividesM,
    DuplicateBranch,
    GcdViolation,
    InvalidPlace,
    LengthMismatch,
    NegativeCoefficient,
    NotAnElement,
    NotAnInteger,
    RationalityError,
    UnsupportedRoot,
    UsageError,
)
from kummerlcp.ffield import Poly, poly_analyze
from kummerlcp.nonspecial import bound_B
from kummerlcp.instances import dickson_curve_single


# ---------------------------------------------------------------------------
# Construction and ramification data
# ---------------------------------------------------------------------------

def test_genus_values(ex37_curve, f49, dickson_m8, toy9):
    assert ex37_curve.genus == 9
    assert f49.genus == 13
    assert dickson_m8.genus == 9
    assert toy9.genus == 2


def test_ramification_invariants(ex37_curve):
    ram = ex37_curve.ram
    assert ram.d == (1, 1, 1, 3, 1)
    assert ram.e == (6, 6, 6, 2, 6)
    assert all(d * e == ex37_curve.m for d, e in zip(ram.d, ram.e))
    assert ram.lam_sum == 11
    assert ram.d_inf == 1 and ram.e_inf == 6


def test_genus_formula_against_degree_count():
    # independent check: 2g - 2 = -2m + sum over ramified places of (e - 1)*f
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(2, 11)
        r = rng.randrange(1, 6)
        lambdas = [rng.randrange(1, m) for _ in range(r)]
        if math.gcd(m, *lambdas) != 1:
            continue
        c = make_curve(None, m, lambdas)
        ram = c.ram
        rami = sum((e - 1) * d for e, d in zip(ram.e, ram.d))
        rami += (ram.e_inf - 1) * ram.d_inf
        assert 2 * c.genus - 2 == -2 * m + rami


def test_construction_errors(gf49):
    with pytest.raises(DuplicateBranch):
        make_curve(gf49, 3, [(1, 1), (1, 2)])
    with pytest.raises(CharDividesM):
        make_curve(gf49, 7, [(0, 1), (1, 2)])
    with pytest.raises(GcdViolation):
        make_curve(None, 6, [2, 4])       # gcd(m, lambdas) = 2
    with pytest.raises(GcdViolation):
        make_curve(None, 6, [0, 1])       # lambda out of [1, m)
    with pytest.raises(GcdViolation):
        make_curve(None, 1, [1])
    with pytest.raises(GcdViolation):
        make_curve(gf49, 4, [(0, 1)], a=0)
    # encodings must name elements of GF(49)
    with pytest.raises(NotAnElement):
        make_curve(gf49, 4, [(0, 1), (1, 1)], a=99)
    with pytest.raises(NotAnElement):
        make_curve(gf49, 4, [(0, 1), (49, 1)])
    with pytest.raises(NotAnElement):
        make_curve(gf49, 4, [(-1, 1), (1, 1)])
    for field in (None, gf49):
        with pytest.raises(GcdViolation, match="at least one branch point"):
            make_curve(field, 4, [])
    # a field of the wrong kind once raised TypeError, not a KummerError
    for field in (7, (7, 2), "GF(49)", [7, 2]):
        with pytest.raises(UsageError, match="FieldSpec or None"):
            make_curve(field, 4, [(0, 1)])


def test_place_lists_and_validation(ex37_curve, f49):
    assert len(ex37_curve.branch_places(3)) == 3   # d_4 = gcd(6, 3)
    assert len(ex37_curve.infinity_places()) == 1
    assert ex37_curve.q_infinity() == Place("infinity", j=0)
    with pytest.raises(InvalidPlace):
        ex37_curve.branch_places(5)
    with pytest.raises(InvalidPlace):
        ex37_curve.validate_place(Place("branch", i=0, j=1))
    with pytest.raises(InvalidPlace):
        f49.validate_place(Place("split", a=f49.alphas[0], y=1))
    with pytest.raises(InvalidPlace):  # y^m = f(a) = 0 there, but y = 0
        f49.validate_place(Place("split", a=f49.alphas[0], y=0))
    with pytest.raises(InvalidPlace):
        f49.validate_place(Place("split", a=3, y=0))
    # j past the d_inf places above infinity, or below 0; a kind of none
    for curve in (ex37_curve, f49):
        d_inf = len(curve.infinity_places())
        curve.validate_place(Place("infinity", j=d_inf - 1))
        for j in (d_inf, -1):
            with pytest.raises(InvalidPlace, match="invalid infinite place"):
                curve.validate_place(Place("infinity", j=j))
        with pytest.raises(InvalidPlace, match="unknown place kind 'bogus'"):
            curve.validate_place(Place("bogus", j=0))


def test_conjugate_labels_are_roots(f49):
    F = f49.field
    for i in range(f49.r):
        labels = f49.conjugate_labels("branch", i)
        d = f49.ram.d[i]
        assert len(labels) == d
        assert labels == sorted(labels)
        for lab in labels:
            assert F.pow(lab, d) == f49.branch_unit(i)
    inf = f49.conjugate_labels("infinity")
    assert len(inf) == f49.ram.d_inf
    for lab in inf:
        assert F.pow(lab, f49.ram.d_inf) == f49.a_enc
    # monic leading coefficient: the distinguished infinite label is 1
    assert inf[0] == 1


def test_curve_serialization_roundtrip(ex37_curve, f49):
    for c in (ex37_curve, f49):
        again = KummerCurve.from_json(c.to_json())
        assert again.m == c.m and again.lambdas == c.lambdas
        assert again.alphas == c.alphas and again.genus == c.genus


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

def test_divisor_arithmetic(ex37_curve):
    p0 = ex37_curve.branch_places(0)[0]
    q = ex37_curve.q_infinity()
    D = Divisor({p0: 2, q: -1})
    E = Divisor({p0: 1, q: 1})
    assert (D + E).degree == 3
    assert (D - E) == Divisor({p0: 1, q: -2})
    assert (3 * D) == Divisor({p0: 6, q: -3})
    assert (-D) + D == Divisor()
    assert not D.is_effective() and E.is_effective()
    assert D.lmd_max(E) >= E and D.lmd_max(E) >= D
    assert E >= D.gcd_min(E)
    assert D.gcd_min(E) == Divisor({p0: 1, q: -1})
    assert D.lmd_max(E) == Divisor({p0: 2, q: 1})
    assert D.gcd_min(E) + D.lmd_max(E) == D + E
    again = Divisor.from_json(D.to_json())
    assert again == D
    assert repr(Divisor({q: 2})) == f"Divisor([({q!r}, 2)])"


def test_curve_reprs(ex37_curve, f169):
    assert repr(ex37_curve) == "KummerCurve(abstract, m=6, lambdas=(1, 1, 1, 3, 5))"
    assert repr(f169) == "KummerCurve(GF(169), m=8, lambdas=(1, 1, 1, 1, 2))"


#: derandomized; a failing example is reported as drawn, without shrinking
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True,
                         phases=(Phase.explicit, Phase.generate))

KIND_RANK = ("branch", "infinity", "split")


def place_key(p):
    return (KIND_RANK.index(p.kind), p.i, p.j, p.a, p.y)


@settings(max_examples=60, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_places_and_divisors_match_plain_oracles(f169, data):
    pool = [p for i in range(f169.r) for p in f169.branch_places(i)]
    pool += f169.infinity_places()
    for a in completely_split_values(f169)[:3]:
        pool += splitting_type(f169, a).places
    shuffled = data.draw(st.permutations(pool), label="shuffled")
    assert sorted(shuffled) == sorted(shuffled, key=place_key)
    keys = {"branch": ["kind", "i", "j"], "infinity": ["kind", "j"],
            "split": ["kind", "a", "y"]}
    for p in pool:
        assert list(p.to_json()) == keys[p.kind]
        assert Place.from_json(p.to_json()) == p

    tables = st.dictionaries(st.sampled_from(pool), st.integers(-3, 3),
                             max_size=len(pool))
    ta, tb = data.draw(tables, label="A"), data.draw(tables, label="B")
    k = data.draw(st.integers(-3, 3), label="k")
    A, B = Divisor(ta), Divisor(tb)
    support = set(ta) | set(tb)

    def pointwise(fn):
        return {p: fn(ta.get(p, 0), tb.get(p, 0)) for p in support}

    cases = [
        (A, ta),
        (B, tb),
        (A + B, pointwise(lambda a, b: a + b)),
        (A - B, pointwise(lambda a, b: a - b)),
        (-A, {p: -c for p, c in ta.items()}),
        (k * A, {p: k * c for p, c in ta.items()}),
        (A.gcd_min(B), pointwise(min)),
        (A.lmd_max(B), pointwise(max)),
    ]
    wants = [{p: c for p, c in table.items() if c} for _, table in cases]
    for (D, _), want in zip(cases, wants):
        assert D.table == want and 0 not in D.table.values()
        assert D.items() == sorted(want.items(), key=lambda pc: place_key(pc[0]))
        assert D.degree == sum(want.values())
        assert D.is_effective() == all(c >= 0 for c in want.values())
        assert Divisor.from_json(D.to_json()) == D
        assert hash(Divisor(dict(reversed(want.items())))) == hash(D)
    assert (A == B) == (wants[0] == wants[1])
    assert (A >= B) == all(c >= 0 for c in pointwise(lambda a, b: a - b).values())


def test_invariant_divisor_expansion(ex37_curve):
    tup = InvariantTuple(2, (0, 0, 1, 3, 5))
    D = invariant_divisor(ex37_curve, tup)
    assert D.degree == tup.degree(ex37_curve)
    assert D.coeff(ex37_curve.q_infinity()) == 2
    for j in range(3):
        assert D.coeff(Place("branch", i=3, j=j)) == 3


def test_standard_divisors_have_degree_m(f49):
    m = f49.m
    assert x_pole_divisor(f49).degree == m
    for i in range(f49.r):
        assert branch_zero_divisor(f49, i).degree == m
    a = completely_split_values(f49)[0]
    zero = principal_divisor(f49, {a: 1}) + x_pole_divisor(f49)  # div_0(x - a)
    assert zero.degree == m
    assert zero == Divisor(dict.fromkeys(splitting_type(f49, a).places, 1))


def test_y_divisor_is_principal(f49, ex37_curve):
    for c in (f49, ex37_curve):
        assert y_divisor(c).degree == 0


# ---------------------------------------------------------------------------
# Valuations and principal divisors
# ---------------------------------------------------------------------------

def _linear(b):
    """x - b as a basis function: the factor (x - b)^(-r) with r = -1."""
    return BasisFunction(0, 0, ((b, -1),))


Y = BasisFunction(1, 0, ())


def test_valuations(ex37_curve, f49):
    # abstract curve: the divisor builders carry v(y) and v(x - alpha_i)
    c = ex37_curve
    q = c.q_infinity()
    p3 = c.branch_places(3)[0]
    div_x0 = branch_zero_divisor(c, 0) - x_pole_divisor(c)   # div(x - alpha_1)
    div_x3 = branch_zero_divisor(c, 3) - x_pole_divisor(c)   # div(x - alpha_4)
    assert y_divisor(c).coeff(q) == -11             # -Lambda / d_inf
    assert div_x0.coeff(q) == -6                    # -e_inf
    assert div_x3.coeff(p3) == 2                    # e_4 = 2
    assert div_x0.coeff(p3) == 0
    assert y_divisor(c).coeff(p3) == 1              # lambda_4 / d_4
    # concrete curve: split places and x-valuations by value
    a = completely_split_values(f49)[0]
    sp = splitting_type(f49, a).places[0]
    assert basis_valuation(f49, _linear(a), sp) == 1
    assert basis_valuation(f49, _linear((a + 1) % 7 if a < 7 else 0), sp) in (0, 1)
    assert basis_valuation(f49, Y, sp) == 0
    assert basis_valuation(f49, BasisFunction(1, 1, ()), f49.q_infinity()) == \
        -f49.ram.e_inf - f49.ram.lam_sum // f49.ram.d_inf
    # at branch and infinite places basis_valuation agrees with the divisors
    for p in f49.infinity_places() + [b for i in range(f49.r)
                                      for b in f49.branch_places(i)]:
        assert basis_valuation(f49, Y, p) == y_divisor(f49).coeff(p)
        for i, alpha in enumerate(f49.alphas):
            div = branch_zero_divisor(f49, i) - x_pole_divisor(f49)
            assert basis_valuation(f49, _linear(alpha), p) == div.coeff(p)


def test_basis_valuation_abstract_guard(ex37_curve):
    with pytest.raises(AbstractField):
        basis_valuation(ex37_curve, BasisFunction(0, 1, ()),
                        ex37_curve.branch_places(0)[0])


def test_principal_divisors_have_degree_zero(f49, toy9):
    for c in (f49, toy9):
        split = completely_split_values(c)
        roots = {split[0]: 1, split[1]: 1, c.alphas[0]: -1}
        for t in (0, 1, 2):
            D = principal_divisor(c, roots, t)
            assert D.degree == 0
    # a root that is neither a branch point nor completely split is rejected
    bad = next(a for a in range(f49.field.q)
               if a not in f49.alphas and a not in completely_split_values(f49))
    with pytest.raises(UnsupportedRoot):
        principal_divisor(f49, {bad: 1})


def test_principal_divisor_of_y_power(f49):
    # y^m = f(x), so m * div(y) must match div(f)
    assert m_times_y_equals_div_f(f49)


def m_times_y_equals_div_f(curve):
    f = curve.f_poly()
    roots = dict(poly_analyze(f).roots)
    assert sum(roots.values()) == f.degree  # f splits over the base field
    return curve.m * y_divisor(curve) == principal_divisor(curve, roots)


@pytest.mark.parametrize("name", ["f49", "toy9", "dickson_m8", "dickson103"])
def test_principal_divisor_matches_basis_valuation(name, request):
    # oracle: div(prod (x - a)^mult * y^t) coefficient by coefficient against
    # the closed-form valuation of the basis function with the same factors
    c = request.getfixturevalue(name)
    split = completely_split_values(c)
    root_maps = [
        {split[0]: 2, split[-1]: 1, c.alphas[0]: -1, c.alphas[-1]: -2},
        {split[1]: -1, c.alphas[1]: 1, c.alphas[0]: -3},
        # up to 50 split values (the lmd identity's shape), mixed signs
        {**{a: (-1) ** j * (j % 3 + 1) for j, a in enumerate(split[:50])},
         c.alphas[0]: 2},
    ]
    for roots in root_maps:
        zeros_above = [p for a in roots if a in split
                       for p in splitting_type(c, a).places]
        checked = (c.infinity_places() + zeros_above
                   + [p for i in range(c.r) for p in c.branch_places(i)])
        for t in (0, 1, 2):
            D = principal_divisor(c, roots, t)
            bf = BasisFunction(t, 0, tuple((a, -mult) for a, mult in roots.items()))
            for p in checked:
                assert D.coeff(p) == basis_valuation(c, bf, p), (roots, t, p)
            assert set(D.table) <= set(checked)
            assert D.degree == 0


# ---------------------------------------------------------------------------
# Restriction and the invariant Riemann-Roch dimension
# ---------------------------------------------------------------------------

def test_restrict_examples(ex37_curve):
    c = ex37_curve
    # coefficients below the ramification index restrict to zero
    D = invariant_divisor(c, InvariantTuple(0, (5, 0, 0, 1, 0)))
    assert restrict(c, D) == {}
    D = invariant_divisor(c, InvariantTuple(6, (6, 0, 0, 2, 0)))
    assert restrict(c, D) == {("infinity",): 1, ("branch", 0): 1,
                              ("branch", 3): 1}
    assert rational_degree(restrict(c, D)) == 3
    assert rational_ell(restrict(c, D)) == 4
    assert rational_ell({("infinity",): -1}) == 0


def test_restrict_split_conjugate_minimum(f49):
    a = completely_split_values(f49)[0]
    places = splitting_type(f49, a).places
    full = Divisor({p: 2 for p in places})
    assert restrict(f49, full) == {("split", a): 2}
    partial = Divisor({places[0]: 5})
    # missing conjugates count as zero in the minimum
    assert restrict(f49, partial) == {}
    mixed = Divisor({places[0]: -1, places[1]: 3})
    assert restrict(f49, mixed) == {("split", a): -1}


def test_ell_invariant_against_restriction(ex37_curve, f49):
    # closed-form summand degrees must agree with explicit restriction of
    # A + div(y^t), computed through completely independent code paths
    for c in (ex37_curve, f49):
        rng = random.Random(5)
        for _ in range(30):
            tup = InvariantTuple(rng.randrange(0, 8),
                                 tuple(rng.randrange(0, 8) for _ in range(c.r)))
            A = invariant_divisor(c, tup)
            total = 0
            for t in range(c.m):
                total += rational_ell(restrict(c, A + t * y_divisor(c)))
            assert ell_invariant(c, tup) == total


def test_ell_invariant_known_values(ex37_curve, f49):
    assert ell_invariant(ex37_curve, InvariantTuple(0, (0, 0, 0, 0, 0))) == 1
    # a non-special divisor of degree g has dimension exactly 1
    assert ell_invariant(ex37_curve, InvariantTuple(0, (0, 1, 3, 0, 5))) == 1
    assert ell_invariant(f49, InvariantTuple(0, (0, 2, 3, 6, 1))) == 1
    # far beyond 2g - 2 the Riemann-Roch formula is exact
    c = ex37_curve
    big = InvariantTuple(30, (0, 0, 0, 0, 0))
    assert ell_invariant(c, big) == big.degree(c) - c.genus + 1
    short = InvariantTuple(0, (0, 0, 0))
    with pytest.raises(LengthMismatch):
        short.degree(c)
    with pytest.raises(LengthMismatch):
        ell_invariant(c, short)


def test_ell_invariant_monotone(ex37_curve):
    rng = random.Random(11)
    c = ex37_curve
    for _ in range(50):
        tup = InvariantTuple(rng.randrange(0, 5),
                             tuple(rng.randrange(0, 5) for _ in range(c.r)))
        bigger = InvariantTuple(tup.n0 + rng.randrange(0, 3),
                                tuple(v + rng.randrange(0, 3) for v in tup.n))
        assert ell_invariant(c, bigger) >= ell_invariant(c, tup)


def test_ell_invariant_negative_guard(ex37_curve):
    with pytest.raises(NegativeCoefficient):
        ell_invariant(ex37_curve, InvariantTuple(-1, (0, 0, 0, 0, 0)))
    assert ell_invariant(ex37_curve, InvariantTuple(-1, (0, 0, 0, 0, 0)),
                         allow_negative=True) == 0


def test_ell_invariant_bulk_matches_scalar(ex37_curve):
    c = ex37_curve
    for n0 in (0, 2, 5):
        table = ell_invariant_bulk(c, n0)
        assert table.shape == c.ram.e
        rng = random.Random(3)
        for _ in range(40):
            idx = tuple(rng.randrange(e) for e in c.ram.e)
            assert table[idx] == ell_invariant(c, InvariantTuple(n0, idx))


# ---------------------------------------------------------------------------
# Splitting types and the census
# ---------------------------------------------------------------------------

def test_splitting_types(f49):
    assert splitting_type(f49, f49.alphas[0]).kind == "branch"
    info = splitting_type(f49, completely_split_values(f49)[0])
    assert info.kind == "split" and len(info.places) == f49.m
    F = f49.field
    for p in info.places:
        assert F.pow(p.y, f49.m) == f49.f_eval(p.a)
    non_split = next(a for a in range(F.q)
                     if a not in f49.alphas
                     and a not in completely_split_values(f49))
    assert splitting_type(f49, non_split).kind == "inert-or-partial"


@pytest.mark.parametrize("name", ["f49", "f169"])
def test_splitting_type_splits_exactly_the_split_values(name, request):
    # nth_roots alone decides: x = a splits iff f(a) has m-th roots
    curve = request.getfixturevalue(name)
    F = curve.field
    split = set(completely_split_values(curve))
    for a in range(F.q):
        info = splitting_type(curve, a)
        assert (info.kind == "split") == (a in split)
        if info.kind == "split":
            assert info.places == [Place("split", a=a, y=y)
                                   for y in nth_roots(F, curve.f_eval(a), curve.m)]


def test_f_eval_arr_matches_scalar_f_eval(toy9, f49, f169, dickson103):
    # every element of the small fields; 500 drawn ones of GF(103^2), with
    # the branch points, where f vanishes
    for curve in (toy9, f49, f169):
        xs = np.arange(curve.field.q)
        assert curve.f_eval_arr(xs).tolist() == [curve.f_eval(a) for a in xs]
    xs = random.Random(7).sample(range(dickson103.field.q), 500) + list(dickson103.alphas)
    assert dickson103.f_eval_arr(np.array(xs)).tolist() \
        == [dickson103.f_eval(a) for a in xs]


def test_f_eval_arr_kernel_calls(dickson103, kernel_calls):
    # one sub_arr (with its nested add_arr and neg_arr) against all branch
    # points, one pow_prod by the lambdas and one mul_arr by a: no pow_arr
    dickson103.f_eval_arr(np.arange(dickson103.field.q))
    assert kernel_calls == {"sub_arr": 1, "add_arr": 1, "neg_arr": 1,
                            "pow_prod": 1, "mul_arr": 1}


#: each entry point that takes a field encoding, called with v in its place
ENCODING_ENTRY_POINTS = {
    "nth_roots": lambda c, v: nth_roots(c.field, v, 2),
    "alpha": lambda c, v: make_curve(c.field, 4, [(v, 1)]),
    "a": lambda c, v: make_curve(c.field, 4, [(0, 1)], a=v),
    "splitting_type": lambda c, v: splitting_type(c, v),
    "split_place_list": lambda c, v: split_place_list(
        c, [v, completely_split_values(c)[0]]),
}


@pytest.mark.parametrize("entry", sorted(ENCODING_ENTRY_POINTS))
def test_encodings_are_integers_in_the_field(f49, entry):
    # a float, bool or string is no encoding: it raises, never truncates to
    # an element (1.5 once read as 1), and an integer outside [0, 49) raises
    call = ENCODING_ENTRY_POINTS[entry]
    for bad in (1.5, 2.0, np.float64(2.0), True, np.bool_(True), "2", None,
                -1, 49, np.int64(100)):
        with pytest.raises(NotAnElement):
            call(f49, bad)
    # numpy integers are encodings like Python ints
    good = completely_split_values(f49)[1]
    call(f49, np.int64(good))
    assert splitting_type(f49, np.int32(good)) == splitting_type(f49, good)


#: each entry point that takes an integer parameter, called with v in its
#: place, and a value it accepts there
INTEGER_ENTRY_POINTS = {
    "m": (lambda F, v: make_curve(F, v, [(0, 1), (3, 1)]).to_json(), 4),
    "lambda": (lambda F, v: make_curve(F, 4, [(0, 1), (3, v)]).to_json(), 1),
    "abstract m": (lambda F, v: make_curve(None, v, [1, 1]).to_json(), 4),
    "abstract lambda": (lambda F, v: make_curve(None, 4, [1, v]).to_json(), 1),
    "p": (lambda F, v: make_field(v, 2), 7),
    "k": (lambda F, v: make_field(7, v), 2),
    "coeff": (lambda F, v: Divisor.from_json(
        [{"place": {"kind": "infinity", "j": 0}, "coeff": v}]), 3),
    "place": (lambda F, v: Place.from_json({"kind": "split", "a": v, "y": 1}), 5),
    "divisor coeff": (lambda F, v: Divisor({Place("infinity", j=0): v}), 3),
    "divisor scalar": (lambda F, v: v * Divisor({Place("infinity", j=0): 2}), 3),
    "tuple n0": (lambda F, v: InvariantTuple(v, (0, 1)), 0),
    "tuple n_i": (lambda F, v: InvariantTuple(0, (0, v)), 1),
    "bound_B n0": (lambda F, v: bound_B(make_curve(None, 6, [1, 1, 1, 3, 5]), v, 1), 0),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_parameters_are_integers(f49, entry):
    # make_curve(F, 4.5, [(0, 1), (3, 1.5)]) once built y^4 = x (x - 3)
    # with lambda = (1, 1); a float equal to an integer, a bool, a string
    # or None is no integer either (make_field(7.0, 2) once hit the cache
    # entry of GF(49)), nor a list (make_field([7], 2) once raised
    # TypeError in the cache); Divisor({P: 1.5}) once stored 1, 2.5 * D
    # truncated, InvariantTuple(0, (0, 1.5, 3, 0, 5)) passed the
    # criterion on ex37 with ell_invariant 1.0, and bound_B floored a
    # float n0
    call, good = INTEGER_ENTRY_POINTS[entry]
    for bad in (4.5, float(good), np.float64(good), True, np.bool_(True), str(good),
                None, [good]):
        with pytest.raises(NotAnInteger):
            call(f49.field, bad)
    # numpy integers are integers like Python ints
    assert call(f49.field, np.int64(good)) == call(f49.field, good)


@pytest.mark.parametrize("build, obj", [
    (Place.from_json, {"kind": "split"}),  # once a = y = -1
    (Place.from_json, {"kind": "branch", "i": 0}),
    (Place.from_json, {"kind": "split", "a": 1, "y": 2, "i": 0}),
    (Place.from_json, {"kind": "bogus", "j": 0}),
    (Place.from_json, {"kind": ["split"], "a": 1, "y": 2}),
    (Place.from_json, [["kind", "infinity"], ["j", 0]]),
    (KummerCurve.from_json, {"m": 4}),  # once KeyError: 'field'
    (KummerCurve.from_json, [4]),
    (KummerCurve.from_json, {"abstract": True, "m": 4}),
    (KummerCurve.from_json, {"abstract": True, "m": 4, "lambdas": 1}),
    (KummerCurve.from_json, {"field": [7, 2], "m": 4, "branches": []}),
    (KummerCurve.from_json, {"field": {"p": 7}, "m": 4, "branches": []}),
    (KummerCurve.from_json, {"field": {"p": 7, "k": 2}, "m": 4,
                             "branches": {"alpha": 0, "lambda": 1}}),
    (KummerCurve.from_json, {"field": {"p": 7, "k": 2}, "m": 4, "branches": [[0, 1]]}),
    (Divisor.from_json, [{"x": 1}]),  # once KeyError: 'place'
    (Divisor.from_json, {"place": {"kind": "infinity", "j": 0}, "coeff": 1}),
    (Divisor.from_json, [{"place": {"kind": "split"}, "coeff": 1}]),
])
def test_from_json_rejects_malformed_objects(build, obj):
    with pytest.raises(UsageError):
        build(obj)


def test_out_of_range_x_values_rejected(f169):
    # -167 and 171 would read as x = 2, a split value, in the log tables
    q = f169.field.q
    split = completely_split_values(f169)[0]
    y = splitting_type(f169, split).places[0].y
    for a in (split - q, split + q, -1, q):
        with pytest.raises(NotAnElement):
            splitting_type(f169, a)
        with pytest.raises(NotAnElement):
            principal_divisor(f169, {a: 1})
        with pytest.raises(NotAnElement):
            f169.validate_place(Place("split", a=a, y=y))
    for bad_y in (y - q, y + q):
        with pytest.raises(NotAnElement):
            f169.validate_place(Place("split", a=split, y=bad_y))
    f169.validate_place(Place("split", a=split, y=y))


def test_splitting_requires_kummer_rational(gf9):
    c = make_curve(gf9, 5, [(0, 1), (1, 2)])  # 5 does not divide 8
    with pytest.raises(RationalityError):
        splitting_type(c, 2)
    with pytest.raises(RationalityError):
        census(c)


def test_census_values(f49, f169, toy9):
    c49 = census(f49)
    assert c49.n_rational == 104 and c49.split_count == 12
    assert not c49.is_maximal
    c169 = census(f169)
    assert c169.n_rational == 232 and c169.split_count == 28
    assert not c169.is_maximal
    ct = census(toy9)
    assert ct.split_count == 4 and ct.n_rational == 4 * 2 + 5 + 1


def test_census_brute_force_oracle(toy9, f49):
    # independent count: solutions of y^m = f(x) with y != 0, plus places
    # above branch points and infinity
    for c in (toy9, f49):
        F = c.field
        affine = 0
        for a in range(F.q):
            if a in c.alphas:
                continue
            fa = c.f_eval(a)
            affine += sum(1 for y in range(1, F.q) if F.pow(y, c.m) == fa)
        expected = affine
        for i in range(c.r):
            expected += c.ram.d[i]
        expected += c.ram.d_inf
        assert census(c).n_rational == expected


def _split_values_scalar(curve):
    """Oracle: the scalar Euler-criterion loop over f_eval, one a at a time."""
    F = curve.field
    power = (F.q - 1) // curve.m
    return [a for a in range(F.q)
            if a not in curve.alphas and F.pow(curve.f_eval(a), power) == 1]


def test_completely_split_values_scalar_oracle(toy9, f49, f169, dickson_m8):
    # a generator is no m-th power, so the leading coefficient moves the split set
    F = f49.field
    non_monic = make_curve(F, f49.m, list(zip(f49.alphas, f49.lambdas)),
                           a=F.generator)
    for c in (toy9, f49, f169, dickson_m8, non_monic):
        assert completely_split_values(c) == _split_values_scalar(c)
    big = dickson_curve_single(8, 103)   # over GF(10609)
    split = completely_split_values(big)
    assert len(split) == 1557
    assert split == _split_values_scalar(big)


def test_census_hasse_weil_bound(toy9, f49, f169, dickson_m8):
    for c in (toy9, f49, f169, dickson_m8):
        res = census(c)
        q = c.field.q
        assert res.n_rational <= q + 1 + 2 * c.genus * math.isqrt(q)


def test_census_invariant_under_branch_relabeling(toy9):
    reordered = make_curve(toy9.field, toy9.m,
                           list(zip(toy9.alphas, toy9.lambdas))[::-1])
    assert census(reordered).n_rational == census(toy9).n_rational


def test_genus_zero_cover(gf9):
    c = make_curve(gf9, 2, [(0, 1)])  # y^2 = x, rational
    assert c.genus == 0
    assert census(c).n_rational == gf9.q + 1


def test_maximal_census():
    # y^6 = x^5 + x over GF(25) is a model of the Hermitian curve and
    # attains the upper bound q + 1 + 2*g*sqrt(q) = 126
    F = make_field(5, 2)
    quintic = Poly.from_ints(F, [0, 1, 0, 0, 0, 1])
    roots = [r for r, _ in poly_analyze(quintic).roots]
    assert len(roots) == 5
    c = make_curve(F, 6, [(rho, 1) for rho in roots])
    assert c.genus == 10
    res = census(c)
    assert res.is_maximal
    assert res.n_rational == 25 + 1 + 2 * 10 * 5
