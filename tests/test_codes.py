import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from sympy import factorint
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from kummerlcp import (
    Divisor,
    InvariantTuple,
    build_code,
    coeffs_all_ones,
    completely_split_values,
    dickson_curve_double,
    enumerate_nonspecial,
    eval_matrix,
    gf_rank,
    infinity_functional,
    invariant_divisor,
    lcp_build_general,
    lcp_build_regime,
    lcp_verify,
    make_curve,
    make_field,
    min_distance_exact,
    rr_basis,
)
from kummerlcp import codes
from kummerlcp.codes import (
    Basis,
    BasisFunction,
    Fibers,
    Run,
    SpaceElement,
    basis_valuation,
    divisor_shape,
    fiber_values,
    s_interval,
    split_place_list,
    x_part_rank,
)
from kummerlcp.curve import Place, ell_invariant, principal_divisor, x_pole_divisor
from kummerlcp.errors import (
    DegreeOutOfRange,
    InvalidPlace,
    KummerError,
    LengthMismatch,
    NotAnElement,
    NotAnInteger,
    NotNonSpecial,
    NotWholeFibers,
    PoleAtEvaluationPlace,
    RampPreconditionViolated,
    RationalityError,
    RegimeViolation,
    SRangeEmpty,
    SupportOverlap,
    TooLargeToEnumerate,
    UnsupportedRoot,
    UnsupportedShape,
)
from kummerlcp.ffield import Poly
from kummerlcp.instances import _x2_quartic_curve, f169_curve


#: (non-special tuple A, Phi) of the pair on y^8 = x^2 (x^4 + 1), f49 and f169
QUARTIC_PAIR = (InvariantTuple(0, (0, 2, 3, 6, 1)), [0, 1, 2, 3])

#: a failing example is reported as drawn: shrinking a failure of the
#: evaluator or the rank ran for minutes
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True,
                         phases=(Phase.explicit, Phase.generate))


@pytest.fixture(scope="module")
def zero_split():
    # y^4 = (x - 1)(x - 2)(x - 5)^2 over GF(25): x = 0 splits completely,
    # which no catalog curve has (0 is a branch point of each)
    curve = make_curve(make_field(5, 2), 4, [(1, 1), (2, 1), (5, 2)])
    assert completely_split_values(curve)[0] == 0
    return curve


@pytest.fixture(scope="module")
def hd_n1_curve():
    return make_curve(make_field(5, 2), 4, [(0, 1), (2, 2), (3, 2)])


@pytest.fixture(scope="module")
def hd_n2_curve():
    F = make_field(5, 2)
    branches = [(0, 1), (1, 1), (2, 1), (3, 1), (6, 1), (7, 2), (15, 2)]
    return make_curve(F, 4, branches)


def assert_basis_in_space(curve, basis, G):
    """Certify div(f) + G >= 0 for every basis element of L(G).

    Each term of an element must individually lie in the invariant part of
    G; elements with a forced extra zero at the distinguished infinite place
    must additionally be killed by the leading-coefficient functional.
    """
    A, delta = divisor_shape(curve, G + Divisor())
    inv = invariant_divisor(curve, A)
    check_places = ([p for i in range(curve.r) for p in curve.branch_places(i)]
                    + curve.infinity_places())
    for elem in basis:
        for place in check_places:
            for _, bf in elem.terms:
                assert basis_valuation(curve, bf, place) + inv.coeff(place) >= 0
        # no poles outside the branch locus
        assert all(alpha in curve.alphas
                   for _, bf in elem.terms for alpha, _ in bf.factors)
        if delta == 1:
            assert infinity_functional(curve, A.n0, elem) == 0


# ---------------------------------------------------------------------------
# Shapes and bases
# ---------------------------------------------------------------------------

def test_divisor_shape_roundtrip(f169):
    tup = InvariantTuple(2, (0, 1, 0, 3, 1))
    D = invariant_divisor(f169, tup)
    assert divisor_shape(f169, D) == (tup, 0)
    shifted = D - Divisor({f169.q_infinity(): 1})
    assert divisor_shape(f169, shifted) == (tup, 1)


def test_divisor_shape_rejections(f169, gf7):
    split = split_place_list(f169, completely_split_values(f169)[:1]).places[0]
    with pytest.raises(UnsupportedShape):
        divisor_shape(f169, Divisor({split: 1}))
    p0, p1 = f169.branch_places(4)  # d_5 = 2, two conjugates
    with pytest.raises(UnsupportedShape):
        divisor_shape(f169, Divisor({p0: 1, p1: 2}))
    with pytest.raises(UnsupportedShape):
        divisor_shape(f169, Divisor({f169.branch_places(0)[0]: -1}))
    with pytest.raises(UnsupportedShape):
        divisor_shape(f169, Divisor({f169.q_infinity(): -2,
                                     f169.infinity_places()[1]: 0}))
    # y^6 = (x - 1)(x - 2)^5 over GF(7): d_inf = gcd(6, 6) = 6 places above
    # infinity; the five beside Q_infinity must carry one coefficient
    curve = make_curve(gf7, 6, [(1, 1), (2, 5)])
    inf = curve.infinity_places()
    assert len(inf) == 6
    assert divisor_shape(curve, Divisor(dict.fromkeys(inf[1:], 1))) \
        == (InvariantTuple(1, (0, 0)), 1)
    with pytest.raises(UnsupportedShape, match="non-distinguished infinite places"):
        divisor_shape(curve, Divisor({**dict.fromkeys(inf[1:], 1), inf[2]: 2}))


def test_rr_basis_dimensions(f169):
    g = f169.genus
    # the zero divisor supports exactly the constants
    basis0 = rr_basis(f169, (InvariantTuple(0, (0,) * 5), 0))
    assert len(basis0) == 1
    only = basis0[0]
    assert len(only.terms) == 1 and only.terms[0][1].x_degree() == 0
    # beyond 2g - 2 the dimension is deg - g + 1, with and without the
    # forced zero at the distinguished infinite place
    for n0 in (14, 15, 20):
        tup = InvariantTuple(n0, (0,) * 5)
        deg = tup.degree(f169)
        assert len(rr_basis(f169, (tup, 0))) == deg - g + 1
        assert len(rr_basis(f169, (tup, 1))) == deg - 1 - g + 1


def test_rr_basis_matches_ell(f169):
    import random

    rng = random.Random(4)
    for _ in range(25):
        tup = InvariantTuple(rng.randrange(0, 10),
                             tuple(rng.randrange(0, 6) for _ in range(5)))
        assert len(rr_basis(f169, (tup, 0))) == ell_invariant(f169, tup)


def test_rr_basis_elements_lie_in_space(f169):
    tup = InvariantTuple(16, (1, 0, 2, 0, 1))
    D = invariant_divisor(f169, tup)
    assert_basis_in_space(f169, rr_basis(f169, D), D)
    shifted = D - Divisor({f169.q_infinity(): 1})
    assert_basis_in_space(f169, rr_basis(f169, shifted), shifted)


def test_infinity_functional_linearity(f169):
    F = f169.field
    tup = InvariantTuple(16, (0, 0, 0, 0, 0))
    basis = rr_basis(f169, (tup, 0))
    vals = [infinity_functional(f169, tup.n0, e) for e in basis]
    assert any(vals)  # the functional is not identically zero on L(A)
    # linear: phi(c * e_i "+" e_j) on a two-term element
    a, b = basis[0].terms[0][1], basis[1].terms[0][1]
    combo = SpaceElement(((3, a), (1, b)))
    assert infinity_functional(f169, tup.n0, combo) == \
        F.add(F.mul(3, vals[0]), vals[1])
    # kernel of the functional = the delta = 1 space
    kernel = rr_basis(f169, (tup, 1))
    for e in kernel:
        assert infinity_functional(f169, tup.n0, e) == 0
    assert len(kernel) == len(basis) - 1


@settings(max_examples=150, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_infinity_functional_closed_form(data):
    """On a drawn curve with rational Q_infinity, monic (omega = 1) or with a
    drawn d_inf-th power a: two single terms of valuation -c_inf there take
    values in the ratio omega^((t2 - t1) / e_inf), omega the first label
    above infinity; a term above -c_inf adds 0, one below raises."""
    m = data.draw(st.sampled_from(range(2, 13)), label="m")
    F = make_field(*data.draw(st.sampled_from(
        [(p, k) for p, k in DRAWN_FIELDS if (p ** k - 1) % m == 0]), label="field"))
    r = data.draw(st.sampled_from(range(1, min(5, F.q) + 1)), label="r")
    alphas = data.draw(st.lists(st.sampled_from(range(F.q)), min_size=r, max_size=r,
                                unique=True), label="alphas")
    lambdas = [1] + [data.draw(st.sampled_from(range(1, m)), label="lambda")
                     for _ in range(r - 1)]
    a = 1 if data.draw(st.booleans(), label="monic") else F.pow(
        data.draw(st.integers(1, F.q - 1), label="root"), math.gcd(m, sum(lambdas)))
    curve = make_curve(F, m, list(zip(alphas, lambdas)), a)
    ram, q_inf = curve.ram, curve.q_infinity()
    omega = curve.conjugate_labels("infinity")[0]
    t1 = data.draw(st.integers(0, m - 1), label="t1")
    xpow = data.draw(st.integers(-3, 6), label="xpow")
    factors = tuple((alpha, data.draw(st.integers(1, 2), label="r_alpha"))
                    for alpha in data.draw(st.sets(st.sampled_from(alphas)),
                                           label="factors"))
    first = BasisFunction(t1, xpow, factors)
    c_inf = -basis_valuation(curve, first, q_inf)
    # t -> t + e_inf * k, x-degree -> x-degree - (Lambda/d_inf) * k keeps
    # the valuation
    k = data.draw(st.integers(-3, 3), label="k")
    second = BasisFunction(t1 + ram.e_inf * k,
                           xpow - ram.lam_sum // ram.d_inf * k, factors)
    assert basis_valuation(curve, second, q_inf) == -c_inf
    v1, v2 = (infinity_functional(curve, c_inf, SpaceElement.single(bf))
              for bf in (first, second))
    assert v1 != 0 and v2 == F.mul(v1, F.pow(omega, k))
    above = BasisFunction(t1, xpow - 1, factors)   # valuation -c_inf + e_inf
    below = BasisFunction(t1, xpow + 1, factors)   # valuation -c_inf - e_inf
    assert infinity_functional(curve, c_inf, SpaceElement.single(above)) == 0
    assert infinity_functional(curve, c_inf, SpaceElement(((3, above), (1, first)))) == v1
    with pytest.raises(UnsupportedShape):
        infinity_functional(curve, c_inf, SpaceElement.single(below))


def test_rr_basis_rejects_irrational_infinity():
    # a = 13 is no square in GF(169) and d_inf = 2: the places above
    # infinity are not rational, so the delta = 1 functional has no Q_infinity
    curve = make_curve(make_field(13, 2), 8,
                       [(26, 1), (39, 1), (130, 1), (143, 1), (0, 2)], a=13)
    assert curve.ram.d_inf == 2 and curve.conjugate_labels("infinity") == []
    A = QUARTIC_PAIR[0]
    assert len(rr_basis(curve, (A, 0))) == ell_invariant(curve, A)
    with pytest.raises(RationalityError, match="infinity"):
        rr_basis(curve, (A, 1))


def test_basis_valuation_lower_bound(f169):
    # every term of every basis element of L(A) has valuation >= -A
    tup = InvariantTuple(4, (1, 0, 0, 0, 0))
    basis = rr_basis(f169, (tup, 0))
    inv = invariant_divisor(f169, tup)
    for e in basis:
        for p in f169.infinity_places() + f169.branch_places(0):
            assert min(basis_valuation(f169, bf, p) for _, bf in e.terms) \
                >= -inv.coeff(p)


# ---------------------------------------------------------------------------
# Linear algebra over GF(q)
# ---------------------------------------------------------------------------

def test_gf_rank_known_matrices(gf7):
    eye = np.eye(4, dtype=np.int64)
    assert gf_rank(gf7, eye) == 4
    assert gf_rank(gf7, np.zeros((3, 5), dtype=np.int64)) == 0
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert gf_rank(gf7, M) == 2  # row 2 = 2 * row 1 mod 7
    # rank depends on the field: [[2, 1], [1, 2]] is singular only in char 3
    N = np.array([[2, 1], [1, 2]], dtype=np.int64)
    assert gf_rank(gf7, N) == 2
    assert gf_rank(make_field(3, 1), N) == 1
    # columns with one nonzero entry: two on one row count that row once,
    # and a peeled row leaves the others to eliminate
    assert gf_rank(gf7, np.array([[3, 5, 1], [0, 0, 2], [0, 0, 4]])) == 2
    assert gf_rank(gf7, np.array([[1, 1, 2], [0, 3, 6], [0, 0, 0]])) == 2


@settings(max_examples=80, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_gf_rank_matches_sympy_over_prime_fields(data):
    # sympy's DomainMatrix eliminates over GF(p) independently of the tables
    p = data.draw(st.sampled_from([2, 3, 7, 13, 103]), label="p")
    rows, cols = data.draw(st.integers(1, 10), label="rows"), \
        data.draw(st.integers(1, 10), label="cols")

    def matrix(r, c):
        return np.array(data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
            min_size=r, max_size=r)), dtype=np.int64).reshape(r, c)

    if data.draw(st.booleans(), label="product"):
        # rank at most inner: rank-deficient whenever inner < min(rows, cols)
        inner = data.draw(st.integers(0, min(rows, cols)), label="inner")
        M = (matrix(rows, inner) @ matrix(inner, cols)) % p
    else:
        M = matrix(rows, cols)
    want = DomainMatrix.from_list(M.tolist(), GF(p)).rank()
    assert gf_rank(make_field(p, 1), M) == want


@settings(max_examples=80, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_gf_rank_peel_matches_sympy_on_sparse_matrices(data):
    # mostly-zero matrices with the columns gf_rank peels before eliminating:
    # unit columns, two single-entry columns on one row, zero rows and zero
    # columns, in a drawn order
    p = data.draw(st.sampled_from([2, 3, 7, 103]), label="p")
    rows, cols = data.draw(st.integers(1, 8), label="rows"), \
        data.draw(st.integers(0, 8), label="cols")
    entry = st.one_of(st.just(0), st.just(0), st.integers(1, p - 1))
    M = np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)),
                 dtype=np.int64).reshape(rows, cols)
    row = st.integers(0, rows - 1)
    singles = data.draw(st.lists(row, max_size=3), label="unit rows")
    twice = data.draw(st.lists(row, max_size=1), label="two on one row")
    extra = np.zeros((rows, len(singles) + 2 * len(twice)), dtype=np.int64)
    for j, r in enumerate(singles + twice + twice):
        extra[r, j] = data.draw(st.integers(1, p - 1), label="entry")
    zero_cols = data.draw(st.integers(0, 2), label="zero columns")
    M = np.hstack([M, extra, np.zeros((rows, zero_cols), dtype=np.int64)])
    M = np.vstack([M, np.zeros((data.draw(st.integers(0, 2), label="zero rows"),
                                M.shape[1]), dtype=np.int64)])
    M = M[data.draw(st.permutations(range(len(M))), label="row order")]
    M = M[:, data.draw(st.permutations(range(M.shape[1])), label="column order")]
    want = DomainMatrix.from_list(M.tolist(), GF(p)).rank() if M.size else 0
    assert gf_rank(make_field(p, 1), M) == want


@settings(max_examples=150, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_divided_row_ranks_as_dense_rank(f49, data):
    # side 1 is the run x^j / D_1, j = 0..d1, and one more row P / L, L =
    # D_1 c_1, of one term (set by index) or of several (divided by c_1):
    # deg P < deg c_1, P a multiple of c_1, c_1 = 1, or zeros on top of P.
    # Or a term c x^j / L or c x^j / D_1, j next to deg c_1 or d1, set by
    # index, alone and beside the same function plus 0 / L, divided.  The
    # rank equals the dense rank of the generator rows
    F = f49.field
    values = data.draw(st.lists(st.sampled_from(completely_split_values(f49)),
                                min_size=1, max_size=12, unique=True), label="values")
    fibers = split_place_list(f49, values)
    factors = st.lists(st.tuples(st.sampled_from([a for a in range(F.q)
                                                   if a not in values]),
                                 st.integers(1, 2)),
                       min_size=1, max_size=2, unique_by=lambda f: f[0]).map(tuple)
    case = data.draw(st.sampled_from(["any", "short", "multiple", "one", "cancel",
                                      "term"]), label="case")
    D1 = data.draw(factors, label="D1")
    c1 = () if case == "one" else data.draw(factors, label="c1")
    d1 = data.draw(st.integers(0, 5), label="d1")
    element = st.integers(0, F.q - 1)
    deg_c1 = sum(r for _, r in c1)
    P = data.draw(st.lists(element, min_size=1,
                           max_size=max(deg_c1, 1) if case == "short" else 5), label="P")
    if case == "multiple":
        P = list(reduce(Poly.__mul__, [Poly.linear(F, a) ** r for a, r in c1],
                        Poly(F, P)).coeffs) or [0]
    terms = list(enumerate(P))
    if case == "cancel":  # a term and its negative: zeros on top of P
        top = data.draw(st.integers(1, F.q - 1), label="top")
        terms += [(len(P), top), (len(P), F.neg(top))]
    L = D1 + c1  # a factor set naming alpha twice adds the powers: L / D_1 = c_1
    D = data.draw(st.sampled_from([L, D1]), label="D") if case == "term" else L
    if case == "term":  # j at an edge of a rule
        edges = {deg_c1 - 1, deg_c1, deg_c1 + 1, d1, d1 + 1, d1 + 2} - {-1}
        terms = [(data.draw(st.sampled_from(sorted(edges)), label="j"), P[0])]
    row = tuple((c, BasisFunction(0, j, D)) for j, c in terms)
    bases = [monomial_rows(0, D1, range(d1 + 1)) + [SpaceElement(row)]]
    if case == "term":
        bases.append(bases[0] + [SpaceElement(row + ((0, BasisFunction(0, 0, L)),))])
    for basis in bases:
        assert x_part_rank(f49, basis, fibers) \
            == gf_rank(F, scalar_gen(F, basis, fibers.places))


def test_eval_matrix_constants_row(f169):
    fibers = split_place_list(f169, completely_split_values(f169)[:2])
    basis = rr_basis(f169, (InvariantTuple(0, (0,) * 5), 0))
    M = eval_matrix(f169, basis, fibers)
    assert M.shape == (1, 2 * f169.m)
    # the constant 1 is its weight-0 x-part at both x-values, nothing else
    assert (M[:, :2] == 1).all()
    assert not M[:, 2:].any()


def test_split_place_list_rejects_bad_values(f169):
    with pytest.raises(UnsupportedRoot):
        split_place_list(f169, [f169.alphas[0]])
    # a repeated x-value would evaluate its fiber twice
    values = completely_split_values(f169)
    repeated = values + [values[0]]
    with pytest.raises(NotWholeFibers, match=rf"repeated: \[{values[0]}\]"):
        split_place_list(f169, repeated)
    with pytest.raises(NotWholeFibers, match=rf"repeated: \[{values[0]}\]"):
        lcp_build_general(f169, *QUARTIC_PAIR, repeated, 2)
    with pytest.raises(NotWholeFibers, match=rf"repeated: \[{values[0]}\]"):
        lcp_build_regime(f169, "lambda_two", split_values=repeated, s=2)
    # encodings outside [0, q) would alias split values in the log tables
    for bad in ([2 - f169.field.q], [2 + f169.field.q], [2, 2 - f169.field.q]):
        with pytest.raises(NotAnElement):
            split_place_list(f169, bad)


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------

def toy_code(toy9, c):
    A = coeffs_all_ones(2, 5)
    G = (invariant_divisor(toy9, A) - Divisor({toy9.q_infinity(): 1})
         + c * x_pole_divisor(toy9))
    fibers = split_place_list(toy9, completely_split_values(toy9))
    return build_code(toy9, G, fibers)


def test_build_code_toy_parameters(toy9):
    for c, k in [(1, 2), (2, 4), (3, 6)]:
        code = toy_code(toy9, c)
        assert (code.n, code.k) == (8, k)
        assert code.designed_distance == 8 - (1 + 2 * c)
        assert gf_rank(toy9.field, code.gen()) == k
        assert_basis_in_space(toy9, code.basis, code.divisor_G)


def test_build_code_errors(toy9):
    A = coeffs_all_ones(2, 5)
    fibers = split_place_list(toy9, completely_split_values(toy9))
    base = invariant_divisor(toy9, A) - Divisor({toy9.q_infinity(): 1})
    with pytest.raises(DegreeOutOfRange):
        build_code(toy9, base, fibers)  # deg g - 1 = 1 <= 2g - 2
    with pytest.raises(DegreeOutOfRange):
        build_code(toy9, base + 4 * x_pole_divisor(toy9), fibers)  # deg >= n
    with pytest.raises(SupportOverlap):
        build_code(toy9, base + 2 * x_pole_divisor(toy9)
                   + Divisor({fibers.places[0]: 1}), fibers)


def test_build_code_support_overlap_at_any_fiber_place(toy9):
    # G meets the fibers at a place equal to one of theirs, with either
    # sign; a split place above another x-value is no overlap, and the
    # divisor shape then refuses it
    values = completely_split_values(toy9)
    fibers = split_place_list(toy9, values[1:])  # n = 6
    G = (invariant_divisor(toy9, coeffs_all_ones(2, 5))
         - Divisor({toy9.q_infinity(): 1}) + x_pole_divisor(toy9))
    for p, c in ((fibers.places[0], 1), (fibers.places[-1], -1), (fibers.places[3], 2)):
        with pytest.raises(SupportOverlap, match=r"supp\(G\) meets the evaluation"):
            build_code(toy9, G + Divisor({Place("split", a=p.a, y=p.y): c}), fibers)
    off = split_place_list(toy9, values[:1]).places[0]
    with pytest.raises(UnsupportedShape, match="split-place support"):
        build_code(toy9, G + Divisor({off: 1}), fibers)


def test_build_code_needs_whole_fibers(toy9, f49, f169):
    A = coeffs_all_ones(2, 5)
    G = (invariant_divisor(toy9, A) - Divisor({toy9.q_infinity(): 1})
         + x_pole_divisor(toy9))
    places = split_place_list(toy9, completely_split_values(toy9)).places
    basis = rr_basis(toy9, G)
    # the code and the evaluator take only fibers that fiber_values checked
    with pytest.raises(TypeError, match=r"fiber_values\(curve, places\)"):
        build_code(toy9, G, places)
    with pytest.raises(TypeError, match=r"fiber_values\(curve, places\)"):
        eval_matrix(toy9, basis, places)
    not_fibers = [
        places[:-1],                            # a fiber missing a place
        places[:-1] + [places[-2]],             # a y-value twice
        places + places[:2],                    # a fiber twice
        [Place("branch", i=0, j=0)] + places[1:],
        [toy9.q_infinity()] + places,
    ]
    for bad in not_fibers:
        with pytest.raises(NotWholeFibers):
            build_code(toy9, G, fiber_values(toy9, bad))
        with pytest.raises(NotWholeFibers):
            eval_matrix(toy9, basis, fiber_values(toy9, bad))
    # no places at all: a [0, 0] code would divide by zero later
    line = make_curve(make_field(7, 1), 3, [(0, 1)])  # y^3 = x, genus 0
    with pytest.raises(NotWholeFibers, match="no places"):
        build_code(line, Divisor({line.q_infinity(): -1}), fiber_values(line, []))
    # a whole fiber whose x- or y-values lie outside [0, q)
    q = toy9.field.q
    for shift in ({"a": q}, {"a": -q}, {"y": q}):
        bad = [Place("split", a=p.a + shift.get("a", 0), y=p.y + shift.get("y", 0))
               if p.a == places[0].a else p for p in places]
        with pytest.raises(NotAnElement):
            build_code(toy9, G, fiber_values(toy9, bad))
        with pytest.raises(NotAnElement):
            eval_matrix(toy9, basis, fiber_values(toy9, bad))
    # a whole fiber of m distinct y-values off the curve: each y above x = 2
    # times the generator g, so y^m = g^m f(2) != f(2)
    F, values = f169.field, completely_split_values(f169)[:6]
    places = split_place_list(f169, values).places
    off = [Place("split", a=p.a, y=F.mul(p.y, F.generator)) if p.a == 2 else p
           for p in places]
    G = 4 * x_pole_divisor(f169)
    with pytest.raises(InvalidPlace, match=r"a=2, .* does not lie on the curve"):
        build_code(f169, G, fiber_values(f169, off))
    with pytest.raises(InvalidPlace, match=r"a=2, .* does not lie on the curve"):
        eval_matrix(f169, rr_basis(f169, G), fiber_values(f169, off))
    # whole fibers checked on another curve: f49's places are not on f169
    foreign = split_place_list(f49, completely_split_values(f49)[:6])
    with pytest.raises(InvalidPlace, match="another curve"):
        build_code(f169, G, foreign)
    with pytest.raises(InvalidPlace, match="another curve"):
        eval_matrix(f169, rr_basis(f169, G), foreign)
    # an equal curve is the same curve, and a pair's codes share theirs;
    # the same curve with its branches listed in reverse is another one
    code = build_code(f169_curve(), G, split_place_list(f169, values))
    assert (code.n, code.k) == (48, 20)
    flipped = make_curve(F, f169.m, list(zip(f169.alphas, f169.lambdas))[::-1],
                         f169.a_enc)
    stray = replace(code, fibers=fiber_values(flipped, code.fibers.places))
    with pytest.raises(InvalidPlace, match="another curve"):
        lcp_verify(code, stray)
    # Fibers that fiber_values did not return are refused, even with the
    # fields of checked ones: built directly, or copied with a field changed
    fibers = code.fibers
    direct = Fibers(f169, fibers.places, fibers.xs, fibers.col, fibers.y)
    assert not hasattr(fibers, "_replace")
    for unchecked in (direct, replace(fibers, curve=flipped)):
        with pytest.raises(TypeError, match=r"fiber_values\(curve, places\)"):
            build_code(f169, G, unchecked)
        with pytest.raises(TypeError, match=r"fiber_values\(curve, places\)"):
            eval_matrix(f169, code.basis, unchecked)
        for pair in ((code, replace(code, fibers=unchecked)),
                     (replace(code, fibers=unchecked), code)):
            with pytest.raises(TypeError, match=r"fiber_values\(curve, places\)"):
                lcp_verify(*pair)


def scalar_gen(F, basis, places):
    """Oracle generator matrix: each basis element at each place (a, y),
    by scalar field arithmetic."""
    rows = []
    for elem in basis:
        row = []
        for p in places:
            total = 0
            for coeff, bf in elem.terms:
                v = F.mul(coeff, F.mul(F.pow(p.a, bf.xpow), F.pow(p.y, bf.t)))
                for alpha, r in bf.factors:
                    v = F.mul(v, F.pow(F.sub(p.a, alpha), -r))
                total = F.add(total, v)
            row.append(total)
        rows.append(row)
    return rows


def test_gen_matches_scalar_oracle(toy9, f49, f169):
    codes = [toy_code(toy9, c) for c in (1, 2, 3)]
    for curve in (f49, f169):
        pair = lcp_build_regime(curve, "lambda_two", s=2)
        codes += [pair.C, pair.E]
    for code in codes:
        want = scalar_gen(code.field, code.basis, code.fibers.places)
        assert code.gen().tolist() == want
        assert code.to_json()["rows"] == want


def expand_x_part(F, X, places):
    """The generator rows of an x-part matrix: at the place (a, y), the sum
    over t of its weight-t entry at a times y^t, by scalar arithmetic."""
    xs = sorted({p.a for p in places})
    T = len(xs)
    rows = []
    for x_row in X.tolist():
        row = []
        for p in places:
            total = 0
            for t in range(len(x_row) // T):
                total = F.add(total, F.mul(x_row[t * T + xs.index(p.a)],
                                           F.pow(p.y, t)))
            row.append(total)
        rows.append(row)
    return rows


def eval_oracle_property(curve, data, always=()):
    """eval_matrix of a drawn basis, expanded through y^t, equals scalar_gen.

    Elements have up to four terms with coefficients that may be 0, so two
    terms often share a (row, weight) cell; factors are denominators away
    from the drawn x-values or numerators (r <= 0) anywhere, 0 included."""
    F = curve.field
    split = completely_split_values(curve)
    values = data.draw(st.lists(st.sampled_from(split), max_size=5, unique=True),
                       label="values")
    values = sorted(set(values) | set(always)) or split[:1]
    fibers = split_place_list(curve, values)
    poles = [a for a in range(F.q) if a not in values]
    factor = st.one_of(st.tuples(st.sampled_from(poles), st.integers(1, 3)),
                       st.tuples(st.integers(0, F.q - 1), st.integers(-3, 0)))
    function = st.builds(BasisFunction, st.integers(0, curve.m - 1),
                         st.integers(0, 4), st.lists(factor, max_size=3).map(tuple))
    coeff = st.sampled_from([0, 1]) | st.integers(0, F.q - 1)
    element = st.lists(st.tuples(coeff, function), min_size=1, max_size=4)
    basis = [SpaceElement(tuple(terms)) for terms in
             data.draw(st.lists(element, max_size=6), label="basis")]
    X = eval_matrix(curve, basis, fibers)
    assert X.shape == (len(basis), curve.m * len(values))
    assert expand_x_part(F, X, fibers.places) == scalar_gen(F, basis, fibers.places)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_eval_matrix_matches_scalar_oracle_toy9(toy9, data):
    eval_oracle_property(toy9, data)


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_eval_matrix_matches_scalar_oracle_f49(f49, data):
    eval_oracle_property(f49, data)


@settings(max_examples=15, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_eval_matrix_matches_scalar_oracle_f169(f169, data):
    eval_oracle_property(f169, data)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_eval_matrix_matches_scalar_oracle_zero_split(zero_split, data):
    # x = 0 among the x-values: 0^0 = 1 for xpow = 0 and for r = 0
    eval_oracle_property(zero_split, data, always=(0,))


def test_eval_matrix_rejects_poles_and_bad_weights(f49):
    values = completely_split_values(f49)[:3]
    fibers = split_place_list(f49, values)
    a, b = values[1], f49.alphas[0]
    shared = ((b, 1), (a, 1))
    rows = [SpaceElement.single(BasisFunction(1, j, shared)) for j in range(3)]
    cases = [
        [SpaceElement.single(BasisFunction(0, 0, ((a, 1),)))],
        rows,
        # the pole in the second term of a row, its denominator shared
        [SpaceElement(((1, BasisFunction(0, 1, ())), (3, BasisFunction(1, 0, shared)))),
         *rows],
        # a two-denominator stack, as ranked by residue
        [SpaceElement.single(BasisFunction(1, j, ((b, 2),))) for j in range(3)] + rows,
    ]
    for basis in cases:
        for evaluate_or_rank in (eval_matrix, x_part_rank):
            with pytest.raises(PoleAtEvaluationPlace, match=f"x = {a}"):
                evaluate_or_rank(f49, basis, fibers)
    # a pole-free denominator and a numerator at a evaluate
    eval_matrix(f49, [SpaceElement.single(BasisFunction(0, 0, ((b, 1), (a, -1))))],
                fibers)
    # a weight outside [0, m) has no column block
    for t in (-1, f49.m, 3 * f49.m):
        for evaluate_or_rank in (eval_matrix, x_part_rank):
            with pytest.raises(UnsupportedShape, match="weights"):
                evaluate_or_rank(f49, [SpaceElement.single(BasisFunction(0, 0, ())),
                                       SpaceElement.single(BasisFunction(t, 0, ()))],
                                 fibers)
    # the stacked bases of a pair with one such row
    pair = lcp_build_regime(f49, "lambda_two", s=2)
    with pytest.raises(PoleAtEvaluationPlace):
        eval_matrix(f49, pair.C.basis + pair.E.basis + cases[0], pair.C.fibers)


def test_poles_raise_in_eval_matrix_and_x_part_rank(f49, zero_split):
    # x^j / (x - a_0), j = 0, 1, at the first four split values of f49, a_0
    # the first of them: rows x_part_rank would rank by residue, without
    # evaluating; and x^(-1) at the split value 0 of zero_split, a pole (a
    # KummerError), not a ZeroDivisionError from the field
    values = completely_split_values(f49)[:4]
    rows = [SpaceElement.single(BasisFunction(0, j, ((values[0], 1),))) for j in range(2)]
    x_inv = [SpaceElement.single(BasisFunction(1, -1, ()))]
    for curve, basis, fibers, pole in (
            (f49, rows, split_place_list(f49, values), values[0]),
            (zero_split, x_inv, split_place_list(zero_split, [0, 6]), 0)):
        for evaluate_or_rank in (eval_matrix, x_part_rank):
            with pytest.raises(PoleAtEvaluationPlace, match=f"pole at x = {pole} "):
                evaluate_or_rank(curve, basis, fibers)
    # away from 0, x^(-1) has no pole: its weight is evaluated
    fibers = split_place_list(zero_split, [6, 7])
    assert x_part_rank(zero_split, x_inv, fibers) == 1


def test_eval_matrix_sums_a_repeated_factor(f49):
    # a factor set may name an alpha twice: (x - b) / (x - b)^3 = (x - b)^2,
    # and (x - a)^1 (x - a)^2 at the x-value a is 0; the exponents add
    values = completely_split_values(f49)[:3]
    fibers = split_place_list(f49, values)
    a, b = values[0], f49.alphas[0]
    basis = [SpaceElement.single(BasisFunction(t, j, f)) for t, j, f in (
        (0, 0, ((b, 1), (b, -3))), (1, 2, ((b, 1), (b, -3))),
        (2, 1, ((a, -1), (a, -2))), (0, 1, ((b, 2), (a, -1), (b, -2))))]
    X = eval_matrix(f49, basis, fibers)
    assert expand_x_part(f49.field, X, fibers.places) \
        == scalar_gen(f49.field, basis, fibers.places)
    merged = [SpaceElement.single(BasisFunction(t, j, f)) for t, j, f in (
        (0, 0, ((b, -2),)), (1, 2, ((b, -2),)), (2, 1, ((a, -3),)), (0, 1, ((a, -1),)))]
    assert np.array_equal(X, eval_matrix(f49, merged, fibers))


def test_min_distance_toy_codes(toy9):
    # designed distance n - deg(G) is a true lower bound; the toy codes are
    # small enough for exhaustive enumeration
    for c, expect in [(1, 7), (2, 5), (3, 3)]:
        code = toy_code(toy9, c)
        d = min_distance_exact(code)
        assert d >= code.designed_distance
        assert d == expect
    with pytest.raises(TooLargeToEnumerate):
        min_distance_exact(toy_code(toy9, 3), cap=10)


def test_min_distance_zero_code_is_singleton_bound():
    # y^2 = x (x - 1) over GF(49) has g = 0; with s = 0 the pair's H has
    # degree -1, so E = [2, 0]: no nonzero word, and its distance is
    # n - k + 1 = 3, the designed n - deg H
    curve = make_curve(make_field(7, 2), 2, [(0, 1), (1, 1)])
    assert curve.genus == 0
    pair = lcp_build_general(curve, InvariantTuple(0, (0, 0)), [0], [2], 0)
    E = pair.E
    assert (E.n, E.k, E.divisor_G.degree, E.designed_distance) == (2, 0, -1, 3)
    assert min_distance_exact(E) == E.n + 1 == E.designed_distance
    assert pair.verified and min_distance_exact(pair.C) >= pair.C.designed_distance


def test_lcp_verify_basics(toy9):
    c2 = toy_code(toy9, 2)  # k = 4 = n/2
    assert not lcp_verify(c2, c2)  # a code never complements itself
    c1 = toy_code(toy9, 1)
    assert not lcp_verify(c1, c2)  # dimensions don't even add up
    with pytest.raises(LengthMismatch):
        lcp_verify(c2, toy_code_short(toy9))
    # same length, different places
    with pytest.raises(LengthMismatch):
        lcp_verify(toy_code_short(toy9), toy_code_short(toy9, values=slice(1, 4)))


def toy_code_short(toy9, values=slice(0, 3)):
    fibers = split_place_list(toy9, completely_split_values(toy9)[values])
    A = coeffs_all_ones(2, 5)
    G = (invariant_divisor(toy9, A) - Divisor({toy9.q_infinity(): 1})
         + x_pole_divisor(toy9))
    return build_code(toy9, G, fibers)


# ---------------------------------------------------------------------------
# The complementary-pair construction
# ---------------------------------------------------------------------------

def test_s_interval(f169):
    first, last = s_interval(f169, 224, 4)
    assert (first, last) == (1, 6)
    with pytest.raises(SRangeEmpty):
        s_interval(f169, 16, 4)  # (g-1)/32 < s < (16-12)/32 has no integer


def test_lcp_general_guards(f169, toy9):
    split = completely_split_values(f169)
    with pytest.raises(NotNonSpecial):
        lcp_build_general(f169, InvariantTuple(0, (0, 0, 0, 0, 0)),
                          [0, 1, 2, 3], split)
    with pytest.raises(NotNonSpecial):
        # fails the criterion (and has nonzero coefficient at infinity)
        lcp_build_general(f169, InvariantTuple(1, (0, 2, 3, 5, 1)),
                          [0, 1, 2, 3], split)
    # the non-special tuples with n0 != 0 pass the criterion, then stop at
    # the construction's coefficient 0 at infinity
    tuples = [A for A in enumerate_nonspecial(f169) if A.n0]
    assert len(tuples) == 72
    for A in tuples:
        with pytest.raises(NotNonSpecial, match="coefficient 0 at infinity"):
            lcp_build_general(f169, A, [0, 1, 2, 3], split)
    for phi in ([0, 4], [9], []):   # lambda_4 = 2; out of range; empty
        with pytest.raises(RampPreconditionViolated):
            lcp_build_general(f169, InvariantTuple(0, (0, 2, 3, 6, 1)),
                              phi, split)
    A = coeffs_all_ones(2, 5)
    with pytest.raises(SRangeEmpty):
        lcp_build_general(toy9, A, [0], completely_split_values(toy9), s=7)


@pytest.mark.parametrize("name, A, phi", [("toy9", coeffs_all_ones(2, 5), [0]),
                                          ("f49", *QUARTIC_PAIR)])
def test_split_values_default_to_every_completely_split_value(request, name, A, phi):
    curve = request.getfixturevalue(name)
    values = completely_split_values(curve)
    fibers, given = split_place_list(curve), split_place_list(curve, values)
    assert fibers.places == given.places
    for field in ("xs", "col", "y"):
        assert np.array_equal(getattr(fibers, field), getattr(given, field))
    pair, built = lcp_build_general(curve, A, phi), lcp_build_general(curve, A, phi, values)
    assert pair.to_json() == built.to_json()
    for code, same in ((pair.C, built.C), (pair.E, built.E)):
        assert code.divisor_G == same.divisor_G
        assert code.fibers.places == same.fibers.places
        assert np.array_equal(code.gen(), same.gen())


def test_lcp_general_inputs_are_integers(f169):
    # s = 2.5 once built a verified pair with k = 144 / 80 and reported
    # s = 2.5, and Phi = [0.2, 1, 2, 3.9] was read as {0, 1, 2, 3}
    A, phi = QUARTIC_PAIR
    split = completely_split_values(f169)
    for bad in (2.5, 2.0, np.float64(2.0), True, "2", [2]):
        with pytest.raises(NotAnInteger, match=f"s = {re.escape(repr(bad))} "):
            lcp_build_general(f169, A, phi, split, bad)
    for bad in ([0.2, 1, 2, 3.9], [0, 1, 2, 3.0], [0, 1, True, 3], [0, 1, 2, "3"]):
        with pytest.raises(NotAnInteger, match="Phi index = "):
            lcp_build_general(f169, A, bad, split)
    pair = lcp_build_general(f169, A, [np.int64(i) for i in phi], split, np.int64(2))
    assert type(pair.s) is int
    assert pair.to_json() == lcp_build_general(f169, A, phi, split, 2).to_json()


def test_lcp_pair_f169(f169):
    pair = lcp_build_regime(f169, "lambda_two", s=2)
    assert (pair.C.n, pair.C.k, pair.C.designed_distance) == (224, 160, 52)
    assert (pair.E.n, pair.E.k, pair.E.designed_distance) == (224, 64, 148)
    assert pair.verified and pair.gcd_identity and pair.lmd_identity
    assert pair.C.k + pair.E.k == pair.C.n
    blob = pair.to_json()
    assert blob["params_G"]["k"] == 160 and blob["verified"]


def test_lcp_pair_divisor_identities(f169):
    # the two divisors agree on their minimum (A - Q_inf) and their maximum
    # differs from D + A - Q_inf by a principal divisor (degree 0)
    pair = lcp_build_regime(f169, "lambda_two", s=2)
    G, H = pair.C.divisor_G, pair.E.divisor_G
    base = (invariant_divisor(f169, pair.A)
            - Divisor({f169.q_infinity(): 1}))
    assert G.gcd_min(H) == base
    n_places = pair.C.n
    assert (G.lmd_max(H)).degree == base.degree + n_places
    assert pair.gcd_identity and pair.lmd_identity


def test_lcp_all_admissible_s_dickson(dickson_m8):
    pair1 = lcp_build_regime(dickson_m8, "half_single")
    n = pair1.C.n
    first, last = s_interval(dickson_m8, n, 3)
    assert (first, last) == (1, 6)
    for s in range(first, last + 1):
        pair = lcp_build_regime(dickson_m8, "half_single", s=s)
        assert pair.verified and pair.gcd_identity and pair.lmd_identity
        assert pair.C.k + pair.E.k == n


def test_lcp_half_double_regimes(hd_n1_curve, hd_n2_curve):
    p1 = lcp_build_regime(hd_n1_curve, "half_double_N1")
    assert (p1.C.n, p1.C.k, p1.E.k) == (40, 36, 4)
    assert p1.verified and p1.gcd_identity and p1.lmd_identity
    p2 = lcp_build_regime(hd_n2_curve, "half_double_N2")
    assert (p2.C.n, p2.C.k, p2.E.k) == (32, 12, 20)
    assert p2.verified and p2.gcd_identity and p2.lmd_identity


def assert_div_h_from_fibers(curve, pair, values):
    """div(h), h = prod (x - a) over the split values, read off the pair's
    fibers as D - T div_inf(x), equals principal_divisor of h: the identity
    the lmd check cancels D by."""
    fibers = pair.C.fibers
    assert fibers.xs.tolist() == sorted(values)
    div_h = Divisor({p: 1 for p in fibers.places}) \
        - len(fibers.xs) * x_pole_divisor(curve)
    assert div_h == principal_divisor(curve, {a: 1 for a in values})


@pytest.mark.parametrize("name, regime, s, n_values", [
    ("f169", "lambda_two", 2, None),
    ("f49", "lambda_two", 2, None),
    ("dickson103", "half_single", None, 50),
])
def test_lmd_identity_div_h_matches_principal_divisor(name, regime, s, n_values,
                                                      request):
    curve = request.getfixturevalue(name)
    values = completely_split_values(curve)[:n_values]
    pair = lcp_build_regime(curve, regime, split_values=values, s=s)
    assert pair.verified and pair.gcd_identity and pair.lmd_identity
    assert_div_h_from_fibers(curve, pair, values)


@pytest.mark.parametrize("regime", ["half_double_N1", "half_double_N2"])
@pytest.mark.parametrize("m, q, params", [(4, 11, (160, 140, 20)),
                                          (6, 13, (180, 138, 42))])
def test_dickson_curve_double_pairs(m, q, params, regime):
    # the half_double regimes on the Dickson family itself, at the first 40
    # split values (GF(169) has only 30 for m = 6)
    curve = dickson_curve_double(m, q)
    values = completely_split_values(curve)[:40]
    pair = lcp_build_regime(curve, regime, split_values=values)
    assert (pair.C.n, pair.C.k, pair.E.k) == params
    assert pair.verified and pair.gcd_identity and pair.lmd_identity
    assert_div_h_from_fibers(curve, pair, values)
    for code in (pair.C, pair.E):
        assert gf_rank(curve.field, code.gen()) == code.k


def test_lcp_regime_validation(f169, toy9):
    with pytest.raises(RegimeViolation):
        lcp_build_regime(f169, "bogus")
    with pytest.raises(RegimeViolation):
        lcp_build_regime(toy9, "lambda_two")  # pattern mismatch
    with pytest.raises(SRangeEmpty):
        lcp_build_regime(f169, "lambda_two", s=99)


def test_lcp_code_bases_lie_in_their_spaces(f169):
    pair = lcp_build_regime(f169, "lambda_two", s=2)
    assert_basis_in_space(f169, pair.C.basis, pair.C.divisor_G)
    assert_basis_in_space(f169, pair.E.basis, pair.E.divisor_G)


# ---------------------------------------------------------------------------
# Pairs on drawn curves, end to end
# ---------------------------------------------------------------------------

#: the prime powers 3 <= q <= 125, as (p, k)
DRAWN_FIELDS = [pk for q in range(3, 126) if len(f := factorint(q)) == 1
                for pk in f.items()]

#: min_distance_exact runs where q^k is at most this
DISTANCE_CAP = 1 << 14


def draw_pair_inputs(data):
    """A curve y^m = prod (x - alpha_i)^lambda_i over a drawn field: m | q - 1
    up to 12, r = 2..5 branch points, lambda_1 = 1 and the other lambda_i
    any (so some branches have d_i > 1), and the inputs of a pair on it: A
    a non-special tuple with n_0 = 0, Phi totally ramified branches and a
    drawn split-value subset and s.  None for a draw with no split value,
    no tuple or no admissible s."""
    m = data.draw(st.sampled_from(range(2, 13)), label="m")
    F = make_field(*data.draw(st.sampled_from(
        [(p, k) for p, k in DRAWN_FIELDS if (p ** k - 1) % m == 0]), label="field"))
    r = data.draw(st.sampled_from(range(2, min(5, F.q) + 1)), label="r")
    alphas = data.draw(st.lists(st.sampled_from(range(F.q)), min_size=r, max_size=r,
                                unique=True), label="alphas")
    lambdas = [1] + [data.draw(st.sampled_from(range(1, m)), label="lambda")
                     for _ in range(r - 1)]
    curve = make_curve(F, m, list(zip(alphas, lambdas)))
    split = completely_split_values(curve)
    tuples = [A for A in enumerate_nonspecial(curve) if A.n0 == 0]
    if not split or not tuples:
        return None
    A = data.draw(st.sampled_from(tuples), label="A")
    phi = data.draw(st.sets(st.sampled_from(
        [i for i, d in enumerate(curve.ram.d) if d == 1]), min_size=1), label="phi")
    T = data.draw(st.sampled_from(range(1, min(len(split), 24) + 1)), label="T")
    values = data.draw(st.lists(st.sampled_from(split), min_size=T, max_size=T,
                                unique=True), label="values")
    try:
        first, last = s_interval(curve, m * T, len(phi))
    except SRangeEmpty:
        return None
    return curve, A, phi, values, data.draw(st.integers(first, last), label="s")


@settings(max_examples=400, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_drawn_curve_pairs_end_to_end(data):
    """A pair on a curve of draw_pair_inputs.  Each code has dense rank k
    and a basis in L(G), the stack has dense rank n exactly when the pair
    is verified, l(A) = 1, both divisor identities hold, the minimum
    distance reaches the designed one (n + 1 for a code with k = 0), and
    the build evaluates each code's basis once: no rank pass evaluates a
    weight.  Draws with no split value, no tuple or no admissible s end."""
    drawn = draw_pair_inputs(data)
    if drawn is None:
        return
    curve, A, phi, values, s = drawn
    F = curve.field
    evaluated = []

    def spy(on, basis, fibers):
        evaluated.append(len(basis))
        return eval_matrix(on, basis, fibers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "eval_matrix", spy)
        pair = lcp_build_general(curve, A, phi, values, s)
    assert evaluated == [pair.C.k, pair.E.k]
    gens = [pair.C.gen(), pair.E.gen()]
    for code, gen in zip((pair.C, pair.E), gens):
        assert gf_rank(F, gen) == code.k
        assert_basis_in_space(curve, code.basis, code.divisor_G)
        if F.q ** code.k <= DISTANCE_CAP:
            assert min_distance_exact(code, DISTANCE_CAP) >= code.designed_distance
    assert (gf_rank(F, np.vstack(gens)) == pair.C.n) == pair.verified
    assert ell_invariant(curve, A) == 1
    assert pair.gcd_identity and pair.lmd_identity


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_drawn_pairs_rank_by_residue_at_both_ends_of_s(data):
    """The pair of draw_pair_inputs at the first and at the last admissible
    s is verified, and its build evaluates each code's basis once, in
    build_code: no rank pass falls back to the dense oracle, as the proof
    in x_part_rank's docstring says of every stacked pair."""
    drawn = draw_pair_inputs(data)
    if drawn is None:
        return
    curve, A, phi, values, _ = drawn
    evaluated = []

    def spy(on, basis, fibers):
        evaluated.append(len(basis))
        return eval_matrix(on, basis, fibers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "eval_matrix", spy)
        for s in s_interval(curve, curve.m * len(values), len(phi)):
            evaluated.clear()
            pair = lcp_build_general(curve, A, phi, values, s)
            assert evaluated == [pair.C.k, pair.E.k] and pair.verified


def with_zero_terms(rows):
    """The rows, each with a zero term added: Basis.of reads no run from them."""
    return [SpaceElement(elem.terms + ((0, elem.terms[0][1]),)) for elem in rows]


@settings(max_examples=80, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_runs_read_as_their_expanded_rows(data):
    """The bases of a pair on a curve of draw_pair_inputs as runs (a Basis),
    as the list of their rows, and as those rows with a zero term added
    (single rows, no runs): the same len, eval_matrix, x_part_rank (dense
    rank of the x-part matrix) and gen(), for each code, for the stack with
    a plain list, and for drawn rows of the stack by index (repeats
    allowed)."""
    drawn = draw_pair_inputs(data)
    if drawn is None:
        return
    curve, F = drawn[0], drawn[0].field
    pair = lcp_build_general(*drawn)
    C, E, fibers = pair.C, pair.E, pair.C.fibers
    stack = C.basis + E.basis
    rows = list(stack)
    assert rows == list(C.basis) + list(E.basis) == [stack[i] for i in range(len(rows))]
    assert Basis.of(rows).pieces == stack.pieces  # the grouping finds rr_basis's runs
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows)),
                      label="picks")
    cases = [(C.basis, list(C.basis)), (E.basis, list(E.basis)), (stack, rows),
             (C.basis + list(E.basis), rows), (Basis.of(list(C.basis)) + E.basis, rows),
             (Basis.of([stack[i] for i in picks]), [rows[i] for i in picks])]
    for runs, listed in cases:
        assert len(runs) == len(listed) == len(with_zero_terms(listed))
        X = eval_matrix(curve, listed, fibers)
        rank = x_part_rank(curve, listed, fibers)
        assert rank == gf_rank(F, X)
        for other in (runs, with_zero_terms(listed)):
            assert np.array_equal(eval_matrix(curve, other, fibers), X)
            assert x_part_rank(curve, other, fibers) == rank
    gens = [C.gen(), E.gen()]
    for code, gen in zip((C, E), gens):
        assert np.array_equal(replace(code, basis=list(code.basis)).gen(), gen)
    both = replace(C, k=C.n, basis=C.basis + list(E.basis))
    assert np.array_equal(both.gen(), np.vstack(gens))


def test_dickson103_n400_works_per_run(dickson103, monkeypatch):
    # the seed-1 pair of the n = 400 benchmark: G has delta = 0 (d_inf = 1),
    # and H = A - Q_inf + s div_0(phi) has delta = 1; rr_basis evaluates the
    # functional once per run of H, 8 = m calls where once per row made 25,
    # and the build and lcp_verify expand no row of the bases: they make one
    # BasisFunction and one SpaceElement per functional call, where a
    # BasisFunction and a SpaceElement per row made over 400 of each
    values = sorted(random.Random(1).sample(completely_split_values(dickson103), 50))
    functional, per_divisor, made = [], [], Counter()
    original_rr, original_functional = codes.rr_basis, codes.infinity_functional

    def rr_spy(curve, D):
        before = len(functional)
        basis = original_rr(curve, D)
        per_divisor.append((len(basis), len(functional) - before))
        return basis

    def functional_spy(*args):
        functional.append(args)
        return original_functional(*args)

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    monkeypatch.setattr(codes, "rr_basis", rr_spy)
    monkeypatch.setattr(codes, "infinity_functional", functional_spy)
    counting(BasisFunction)
    counting(SpaceElement)
    pair = lcp_build_regime(dickson103, "half_single", split_values=values)
    assert (pair.C.n, pair.C.k, pair.E.k) == (400, 376, 24) and pair.verified
    assert per_divisor == [(376, 0), (24, dickson103.m)]
    assert made == {"BasisFunction": dickson103.m, "SpaceElement": dickson103.m}


# ---------------------------------------------------------------------------
# The x-part rank against dense elimination of the generator matrix
# ---------------------------------------------------------------------------

def stacked_pair(pair):
    """The pair's stacked bases and generator matrices."""
    return pair.C.basis + pair.E.basis, np.vstack([pair.C.gen(), pair.E.gen()])


def test_x_part_rank_coupling_rows(f169):
    pair = lcp_build_regime(f169, "lambda_two", s=2)
    F, m, T, fibers = f169.field, f169.m, 28, pair.C.fibers
    basis, gen = stacked_pair(pair)
    X = eval_matrix(f169, basis, fibers)
    weights = X.reshape(len(X), m, T).any(axis=2).sum(axis=1)
    coupling = np.flatnonzero(weights > 1)
    assert len(coupling) == 2  # the delta = 1 functional's rows
    assert all(len(basis[i].terms) > 1 for i in coupling)
    for code in (pair.C, pair.E):
        assert x_part_rank(f169, code.basis, fibers) == gf_rank(F, code.gen()) == code.k
    assert x_part_rank(f169, basis, fibers) == gf_rank(F, gen) == 224
    # rank-deficient stacks: a repeated coupling row or basis row adds
    # nothing, and one code's rows twice have the rank of that code
    for extra in (coupling[:1], coupling, [0]):
        rows = list(range(len(basis))) + list(extra)
        assert x_part_rank(f169, [basis[i] for i in rows], fibers) \
            == gf_rank(F, gen[rows]) == 224
    C = pair.C
    assert x_part_rank(f169, C.basis + C.basis, fibers) \
        == gf_rank(F, np.vstack([C.gen(), C.gen()])) == C.k
    assert not lcp_verify(C, C)


def test_x_part_rank_joins_weights_in_chains(f49):
    # rows joining weights 1-2 and then 0-2 chain weights 0, 1 and 2,
    # whichever row comes first: at T = 2 the single rows 1, x at weights 1
    # and 2 span everything, so both joining rows are dependent; a row
    # ranked apart from the singles of one of its weights would count as
    # independent
    F = f49.field
    fibers = split_place_list(f49, completely_split_values(f49)[:2])
    joins = [SpaceElement(((1, BasisFunction(1, 0, ())), (1, BasisFunction(2, 1, ())))),
             SpaceElement(((1, BasisFunction(0, 0, ())), (1, BasisFunction(2, 0, ()))))]
    singles = monomial_rows(0, (), range(1)) + monomial_rows(1, (), range(2)) \
        + monomial_rows(2, (), range(2))
    for basis in (joins + singles, joins[::-1] + singles, singles + joins):
        assert x_part_rank(f49, basis, fibers) \
            == gf_rank(F, scalar_gen(F, basis, fibers.places)) == 5


@pytest.mark.parametrize("name", ["toy9", "f49", "f169", "dickson_m8"])
def test_x_part_rank_deficient_stacks_through_bases(name, request):
    """One code's basis stacked on itself, and a pair missing one E row, ranked
    through their bases against dense rank of the generator rows."""
    curve = request.getfixturevalue(name)
    F = curve.field
    if name == "toy9":
        pair = lcp_build_general(curve, coeffs_all_ones(2, 5), [0],
                                 completely_split_values(curve), 2)
    else:
        pair = lcp_build_regime(
            curve, "half_single" if name == "dickson_m8" else "lambda_two", s=1)
    C, E, fibers = pair.C, pair.E, pair.C.fibers
    for code in (C, E):
        assert x_part_rank(curve, code.basis + code.basis, fibers) \
            == gf_rank(F, np.vstack([code.gen(), code.gen()])) == code.k
    basis, gen = stacked_pair(pair)
    # the first, a middle and the last row of E: the last leaves its weight
    # with exponents 0..d - 1, the middle one leaves a gap
    for drop in sorted({C.k, C.k + E.k // 2, C.n - 1}):
        keep = [i for i in range(C.n) if i != drop]
        assert x_part_rank(curve, [basis[i] for i in keep], fibers) \
            == gf_rank(F, gen[keep]) == C.n - 1


def fiber_rank_property(curve, A, phi, min_values, data):
    """For a pair on a drawn subset of split values: the x-part rank of each
    code, of the stack, of a code over the other code of another pair, and of
    drawn row selections (repeats allowed) with drawn row combinations
    appended equals the dense rank of the matching generator rows."""
    F = curve.field
    split = completely_split_values(curve)
    values = data.draw(st.lists(st.sampled_from(split), min_size=min_values,
                                unique=True), label="values")
    first, last = s_interval(curve, len(values) * curve.m, len(phi))
    s = data.draw(st.integers(first, last), label="s")
    pair = lcp_build_general(curve, A, phi, values, s)
    fibers = pair.C.fibers
    for code in (pair.C, pair.E):
        assert x_part_rank(curve, code.basis, fibers) == gf_rank(F, code.gen()) == code.k
    basis, gen = stacked_pair(pair)
    assert x_part_rank(curve, basis, fibers) == gf_rank(F, gen) == pair.C.n
    assert pair.verified
    # C over the E of another admissible s: its denominators may divide
    # (deg c = 0) and its degree may reach T (elimination)
    other = lcp_build_general(curve, A, phi, values,
                              data.draw(st.integers(first, last), label="s2"))
    for top, bottom in ((pair.C, other.E), (other.C, pair.E)):
        assert x_part_rank(curve, top.basis + bottom.basis, fibers) \
            == gf_rank(F, np.vstack([top.gen(), bottom.gen()]))
    X = eval_matrix(curve, basis, fibers)
    row = st.integers(0, len(X) - 1)
    rows = data.draw(st.lists(row, min_size=1, max_size=len(X)), label="rows")
    combos = data.draw(st.lists(st.tuples(row, row, st.integers(1, F.q - 1)),
                                max_size=3), label="combos")
    sub_X, sub_gen = [X[rows]], [gen[rows]]
    sub_basis = [basis[i] for i in rows]
    for i, j, c in combos:  # row i + c * row j, crossing weights in general
        sub_X.append(F.add_arr(X[i], F.mul_arr(X[j], c))[None, :])
        sub_gen.append(F.add_arr(gen[i], F.mul_arr(gen[j], c))[None, :])
        sub_basis.append(SpaceElement(basis[i].terms + tuple(
            (F.mul(c, a), bf) for a, bf in basis[j].terms)))
    # the rows a stored matrix would give are the rows the basis evaluates to
    assert np.array_equal(np.vstack(sub_X), eval_matrix(curve, sub_basis, fibers))
    assert x_part_rank(curve, sub_basis, fibers) == gf_rank(F, np.vstack(sub_gen))


@settings(max_examples=25, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_fiber_rank_equals_dense_rank_toy9(toy9, data):
    fiber_rank_property(toy9, coeffs_all_ones(2, 5), [0], 2, data)


@settings(max_examples=10, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_fiber_rank_equals_dense_rank_f49(f49, data):
    fiber_rank_property(f49, *QUARTIC_PAIR, 6, data)


@settings(max_examples=6, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_fiber_rank_equals_dense_rank_f169(f169, data):
    fiber_rank_property(f169, *QUARTIC_PAIR, 6, data)


def monomial_rows(t, factors, exponents):
    return [SpaceElement.single(BasisFunction(t, j, factors)) for j in exponents]


def monomial_rank_property(curve, data):
    """Rows x^j / D(x) * y^t with one or two drawn denominators over the
    branch points, drawn exponent ranges (some past T), repeats and drops:
    the rank with the basis equals the dense rank of the generator rows."""
    F = curve.field
    values = data.draw(st.lists(st.sampled_from(completely_split_values(curve)),
                                min_size=1, max_size=6, unique=True),
                       label="values")
    T = len(values)
    fibers = split_place_list(curve, values)
    factors = st.lists(st.tuples(st.sampled_from(curve.alphas), st.integers(1, 3)),
                       max_size=3, unique_by=lambda f: f[0]).map(tuple)
    basis = []
    for _ in range(data.draw(st.integers(1, 2), label="denominators")):
        basis += monomial_rows(data.draw(st.integers(0, 1), label="t"),
                               data.draw(factors, label="factors"),
                               range(data.draw(st.integers(0, T + 2), label="d") + 1))
    drops = data.draw(st.sets(st.sampled_from(range(len(basis))), max_size=2),
                      label="drops")
    repeats = data.draw(st.lists(st.sampled_from(range(len(basis))), max_size=2),
                        label="repeats")
    basis = [e for i, e in enumerate(basis) if i not in drops] + \
        [basis[i] for i in repeats]
    if not basis:
        return
    assert x_part_rank(curve, basis, fibers) \
        == gf_rank(F, scalar_gen(F, basis, fibers.places))


@settings(max_examples=60, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_monomial_rank_equals_dense_rank_toy9(toy9, data):
    monomial_rank_property(toy9, data)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_monomial_rank_equals_dense_rank_f49(f49, data):
    monomial_rank_property(f49, data)


def coupled_rank_property(curve, data):
    """A delta = 1 shaped basis: single-term rows x^j / D(x) * y^t in one or
    two groups at each of two weights, the top row of a group at the pivot
    weight (either one) removed and added, times a drawn coefficient, to the
    top row of a group at the other weight; a single row dropped (a gap, or
    a rank short of T) and one repeated; then extra rows of two or three
    terms across the weights, with zero or cancelling coefficients, exponent
    gaps and further denominators.  T is drawn next to a weight's single-row
    count and top degree + 1 (where it may saturate) and next to the degree
    of a coupled part over the lcm of the denominators at its weight (where
    that part reaches T).  The rank with the basis equals the dense rank of
    the generator rows."""
    F = curve.field
    split = completely_split_values(curve)
    factors = st.lists(st.tuples(st.sampled_from(curve.alphas), st.integers(1, 2)),
                       max_size=2, unique_by=lambda f: f[0]).map(tuple)
    weights = data.draw(st.lists(st.integers(0, curve.m - 1), min_size=2,
                                 max_size=2, unique=True), label="weights")
    groups = []  # (t, factors, exponents)
    for t in weights:
        f = data.draw(factors, label="factors")
        for k in range(data.draw(st.integers(1, 2), label="groups")):
            if k and data.draw(st.booleans(), label="nested"):
                # the first denominator times more factors: their lcm is
                # this one, as on the stacked bases of a pair
                more = data.draw(factors, label="more")
                f = tuple(sorted({**dict(more), **{a: r + dict(more).get(a, 0)
                                                   for a, r in f}}.items()))
            elif k:
                f = data.draw(factors, label="factors")
            d = data.draw(st.integers(0, 5), label="d")
            groups.append((t, f, list(range(d + 1))))
    pivot = data.draw(st.sampled_from([g for g in groups if g[0] == weights[0]]),
                      label="pivot")
    other = data.draw(st.sampled_from([g for g in groups if g[0] == weights[1]]),
                      label="other")
    top = [BasisFunction(t, exps.pop(), f) for t, f, exps in (pivot, other)]
    ratio = data.draw(st.integers(1, F.q - 1), label="ratio")
    basis = [SpaceElement(((1, top[1]), (ratio, top[0])))]
    singles = [SpaceElement.single(BasisFunction(t, j, f))
               for t, f, exps in groups for j in exps]
    drops = data.draw(st.sets(st.sampled_from(range(len(singles))), max_size=1)
                      if singles else st.just(set()), label="drops")
    repeats = data.draw(st.lists(st.sampled_from(singles), max_size=1)
                        if singles else st.just([]), label="repeats")
    basis += [e for i, e in enumerate(singles) if i not in drops] + repeats
    term = st.tuples(st.integers(0, F.q - 1), st.sampled_from(weights),
                     st.integers(0, 4), factors)
    for _ in range(data.draw(st.integers(0, 3), label="extra")):
        terms = data.draw(st.lists(term, min_size=2, max_size=3), label="terms")
        row = tuple((c, BasisFunction(t, j, f)) for c, t, j, f in terms)
        if data.draw(st.booleans(), label="cancel"):  # the first term twice, negated
            row += ((F.neg(row[0][0]), row[0][1]),)
        basis.append(SpaceElement(row))
    lcm = {t: {} for t in weights}
    for elem in basis:
        for _, bf in elem.terms:
            for alpha, r in bf.factors:
                lcm[bf.t][alpha] = max(lcm[bf.t].get(alpha, 0), r)

    def degree(bf):  # of x^j * lcm / D
        return bf.xpow + sum(lcm[bf.t].values()) - sum(r for _, r in bf.factors)

    # a weight saturates when its single rows number T or span the degrees
    # below T; a coupled part reaches T at its degree
    sizes = [sum(len(exps) for t, _, exps in groups if t == w) for w in weights]
    spans = [1 + degree(BasisFunction(t, exps[-1], f)) for t, f, exps in groups if exps]
    near = sorted({min(max(v + e, 1), len(split))
                   for v in sizes + spans + [degree(bf) for bf in top]
                   for e in (-1, 0, 1)})
    T = data.draw(st.sampled_from(near), label="T")
    values = data.draw(st.lists(st.sampled_from(split), min_size=T, max_size=T,
                                unique=True), label="values")
    fibers = split_place_list(curve, values)
    basis = data.draw(st.permutations(basis), label="order")
    assert x_part_rank(curve, basis, fibers) \
        == gf_rank(F, scalar_gen(F, basis, fibers.places))


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_coupled_rank_equals_dense_rank_toy9(toy9, data):
    coupled_rank_property(toy9, data)


@settings(max_examples=150, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_coupled_rank_equals_dense_rank_f49(f49, data):
    coupled_rank_property(f49, data)


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_coupled_rank_equals_dense_rank_f169(f169, data):
    coupled_rank_property(f169, data)


def outcome(compute):
    """compute()'s value, or the type and message of the KummerError it raises."""
    try:
        return compute()
    except KummerError as exc:
        return type(exc), str(exc)


def exponents(factors):
    """{alpha: r} of a factor set, r summed where it names alpha twice."""
    out = {}
    for alpha, r in factors:
        out[alpha] = out.get(alpha, 0) + r
    return out


def differential_rank_property(curve, data):
    """x_part_rank of a basis drawn from a grammar of pieces against the
    dense oracles.

    Factor sets come from a small pool, so pieces share them, some reordered
    or naming an alpha twice (both powers of one sign); their alphas are
    branch points, the first split value (a pole where it is an x-value) or
    other elements, with numerators (r < 0) among the powers.  The basis
    starts with a short run x^j / D * y^t and the row c / (D * more) over
    it, as E's rows lie over C's run in a stacked pair; up to two pieces
    follow: more rows over D * more, runs, one-term rows (zero coefficients
    too), and rows of two or three terms across weights, some with a term
    and its negation.  Powers of x may be negative, and a weight may leave
    [0, m).  T is drawn from each run's d + 1, d + deg(L / D) and one past
    it, and mostly d + 2 where that is at most d + deg(L / D): side 1 then
    ends below T while its polynomials reach T.  A row over the first run
    may be prod (x - v) over the x-values, zero at each of them.

    x_part_rank, gf_rank of eval_matrix and x_part_rank of the rows read
    back by Basis.of agree: the same rank, or the same KummerError with the
    same message.  A rank is also gf_rank of scalar_gen, which checks
    nothing: at a pole it divides by zero."""
    F = curve.field
    m, split = curve.m, completely_split_values(curve)
    away = [a for a in range(F.q) if a not in split]  # never a pole
    alpha = st.sampled_from([*curve.alphas, split[0]]) | st.sampled_from(away)
    power = st.sampled_from([1, 1, 1, 2, 2, 3, -1])

    def factor_set():
        f = data.draw(st.lists(st.tuples(alpha, power), max_size=3,
                               unique_by=lambda a: a[0]), label="factors")
        if f and data.draw(st.booleans(), label="twice"):  # (a, r) as (a, s), (a, r - s)
            a, r = f[0]
            f[:1] = [(a, r // abs(r)), (a, r - r // abs(r))] if abs(r) > 1 else [(a, r)]
        return tuple(f)

    pool = [factor_set() for _ in range(data.draw(st.integers(1, 3), label="sets"))]
    factors = st.sampled_from(pool) | st.sampled_from(pool).map(lambda f: f[::-1])
    weights = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2,
                                 unique=True), label="weights")
    if data.draw(st.integers(0, 9), label="outside") == 0:
        weights.append(data.draw(st.sampled_from([-1, m, 2 * m]), label="weight"))
    weight = st.sampled_from(weights)
    coeff = st.sampled_from([1, 0]) | st.integers(1, F.q - 1)
    xpow = st.sampled_from([*range(7), *range(4), -1])
    function = st.builds(BasisFunction, weight, xpow, factors)
    # a short run x^j / D, and c / (D * more) over it, c != 0
    first = Run(data.draw(weight, label="t"), data.draw(factors, label="D"),
                data.draw(st.sampled_from([0, 0, 1, 2]), label="d"))
    more = data.draw(st.lists(st.tuples(st.sampled_from(
        [a for a in away if a not in dict(first.factors)]), st.integers(1, 3)),
        min_size=1, max_size=2, unique_by=lambda a: a[0]), label="more")
    over = first.factors + tuple(more)
    pieces = [first, SpaceElement(((data.draw(st.integers(1, F.q - 1), label="c"),
                                    BasisFunction(first.t, 0, over)),))]
    for kind in data.draw(st.lists(st.sampled_from(["over", "run", "one", "many"]),
                                   max_size=2), label="pieces"):
        if kind == "over":
            pieces.append(SpaceElement(((data.draw(coeff, label="c"), BasisFunction(
                first.t, data.draw(st.integers(0, 3), label="j"), over)),)))
        elif kind == "run":
            pieces.append(Run(data.draw(weight, label="t"), data.draw(factors, label="D"),
                              data.draw(st.integers(0, 5), label="d")))
        elif kind == "one":
            pieces.append(SpaceElement((data.draw(st.tuples(coeff, function),
                                                  label="term"),)))
        else:
            terms = data.draw(st.lists(st.tuples(coeff, function), min_size=2,
                                       max_size=3), label="terms")
            if data.draw(st.booleans(), label="cancel"):
                terms.append((F.neg(terms[0][0]), terms[0][1]))
            pieces.append(SpaceElement(tuple(terms)))
    top = {}  # weight -> alpha -> the highest power of (x - alpha) below the line
    for row in Basis(pieces):
        for _, bf in row.terms:
            at = top.setdefault(bf.t, {})
            for a, r in exponents(bf.factors).items():
                at[a] = max(at.get(a, 0), r)
    near, window = {1, 2, 3}, set()
    for piece in pieces:
        if isinstance(piece, Run):
            mine = exponents(piece.factors)
            c = sum(e - max(mine.get(a, 0), 0) for a, e in top[piece.t].items())
            near |= {piece.d + 1, piece.d + c, piece.d + c + 1}
            window |= {piece.d + 2} if c > 1 else set()  # d + 1 < T <= d + c
    near, window = ([v for v in sorted(vs) if 1 <= v <= len(split)] for vs in (near, window))
    if window and data.draw(st.integers(0, 3), label="in window"):
        near = window
    T = data.draw(st.sampled_from(near), label="T")
    values = data.draw(st.lists(st.sampled_from(split), min_size=T, max_size=T,
                                unique=True), label="values")
    if data.draw(st.integers(0, 3), label="vanishing") == 0:
        P = reduce(Poly.__mul__, [Poly.linear(F, v) for v in values])
        pieces.append(SpaceElement(tuple((c, BasisFunction(first.t, i, over))
                                         for i, c in enumerate(P.coeffs) if c)))
    basis, fibers = Basis(pieces), split_place_list(curve, values)
    got = outcome(lambda: x_part_rank(curve, basis, fibers))
    assert outcome(lambda: gf_rank(F, eval_matrix(curve, basis, fibers))) == got
    assert outcome(lambda: x_part_rank(curve, Basis.of(list(basis)), fibers)) == got
    if isinstance(got, int):
        assert gf_rank(F, scalar_gen(F, basis, fibers.places)) == got
    elif got[0] is PoleAtEvaluationPlace:
        with pytest.raises(ZeroDivisionError):
            scalar_gen(F, basis, fibers.places)


@settings(max_examples=200, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_differential_rank_toy9(toy9, data):
    differential_rank_property(toy9, data)


@settings(max_examples=80, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_differential_rank_f49(f49, data):
    differential_rank_property(f49, data)


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_differential_rank_f169(f169, data):
    differential_rank_property(f169, data)


@settings(max_examples=80, **PROPERTY_SETTINGS)
@given(data=st.data())
def test_differential_rank_zero_split(zero_split, data):
    differential_rank_property(zero_split, data)


def test_side_one_reaching_T_above_its_rows(toy9):
    # on toy9 at T = 3: side 1 is the run 1, x (d_1 = 1) and c_1 = L =
    # (x - 8)^3, so d_1 + 1 = 2 < T <= d_1 + deg c_1 = 4, while the row
    # 3 / (x - 8)^3 leaves only the residue 3, in the lowest column.  Side
    # 1's polynomials reach degree T, so residues cannot rank the weight: at
    # every 3 of the split values the rows have rank 2, where a count that
    # read only the residues' columns gives 3
    F = toy9.field
    basis = Basis([Run(0, (), 1), SpaceElement(((3, BasisFunction(0, 0, ((8, 3),))),))])
    for values in itertools.combinations(completely_split_values(toy9), 3):
        fibers = split_place_list(toy9, values)
        assert x_part_rank(toy9, basis, fibers) \
            == gf_rank(F, eval_matrix(toy9, basis, fibers)) \
            == gf_rank(F, scalar_gen(F, basis, fibers.places)) == 2


@pytest.fixture
def rank_calls(monkeypatch):
    """The matrices codes.gf_rank is called on, copied."""
    matrices = []

    def spy(field, matrix):
        matrices.append(np.array(matrix))
        return gf_rank(field, matrix)

    monkeypatch.setattr(codes, "gf_rank", spy)
    return matrices


@pytest.fixture
def eval_calls(monkeypatch):
    """The bases codes.eval_matrix is called on."""
    bases = []

    def spy(curve, basis, fibers):
        bases.append(list(basis))
        return eval_matrix(curve, basis, fibers)

    monkeypatch.setattr(codes, "eval_matrix", spy)
    return bases


def shapes(matrices):
    return [M.shape for M in matrices]


def test_monomial_rank_branches(f49, zero_split, rank_calls, eval_calls):
    # T = 4 split values of f49; denominators over its first three branch
    # points; gf_rank sees one residue matrix, or, for a basis the residues
    # cannot rank, the oracle's eval_matrix of the whole basis, and
    # eval_matrix sees that basis and no other
    F = f49.field
    values = completely_split_values(f49)[:4]
    fibers = split_place_list(f49, values)
    a, b, z = f49.alphas[:3]
    one, x = BasisFunction(0, 0, ()), BasisFunction(0, 1, ())
    # prod (x - v) over the x-values: degree T, zero at every x-value
    vanish = reduce(Poly.__mul__, [Poly.linear(F, v) for v in values])
    cases = [
        # one denominator, d + 1 = 6 > T: the Vandermonde rank min(d + 1, T)
        (monomial_rows(0, ((a, 2),), range(6)), 4, [], False),
        # L = (x - a)^2 (x - b), and c_1 = x - a on the side reaching N: the
        # other row (x - b) leaves a remainder mod c_1
        (monomial_rows(0, ((a, 1), (b, 1)), range(2))
         + monomial_rows(0, ((a, 2),), range(1)), 3, [(1, 1)], False),
        # D_2 | D_1 and side 1 reaches N: c_1 = 1, no residue column
        (monomial_rows(0, ((a, 1), (b, 1)), range(3))
         + monomial_rows(0, ((a, 1),), range(1)), 3, [], False),
        # coprime, N = 3 + 1 >= T: side 1 alone has d + 1 = 4 = T rows, a
        # Vandermonde block of rank T, so the weight saturates whatever the
        # other group adds (the polynomial span has dimension 5 > T)
        (monomial_rows(0, ((a, 1),), range(4)) + monomial_rows(0, ((b, 1),), range(4)),
         4, [], False),
        # two terms in a row (no side 1: every coefficient is a residue), or
        # a third denominator (side 1 is 1 / 1, with c_1 = L of degree 2)
        ([SpaceElement(((1, one), (1, x)))], 1, [(1, 2)], False),
        (monomial_rows(0, (), range(1)) + monomial_rows(0, ((a, 1),), range(1))
         + monomial_rows(0, ((b, 1),), range(1)), 3, [(2, 2)], False),
        # a factor set naming a twice is (x - a)^2: side 1 is 1 / 1 with
        # c_1 = L = (x - a)^2, and the rows 1, x leave two remainders
        (monomial_rows(0, ((a, 1), (a, 1)), range(2)) + monomial_rows(0, (), range(1)),
         3, [(2, 2)], False),
        # a run naming (x - a)(x - b) in the other order is not side 1, and
        # its rows x^j L / D = x^j c_1 (j <= d) leave zero residues: none
        # with c_1 = 1, beside one remainder column (mod c_1 = x - z) of
        # the third set's rows x^j (x - a)(x - b)
        (monomial_rows(0, ((a, 1), (b, 1)), range(3))
         + monomial_rows(0, ((b, 1), (a, 1)), range(2)), 3, [], False),
        (monomial_rows(0, ((a, 1), (b, 1)), range(3))
         + monomial_rows(0, ((b, 1), (a, 1)), range(2))
         + monomial_rows(0, ((z, 1),), range(2)), 4, [(4, 1)], False),
        # a factor with r < 0 is a numerator, here zero at an x-value: the
        # oracle ranks the 4 x mT evaluated basis
        (monomial_rows(0, ((values[0], -1),), range(4)), 3, [(4, 32)], True),
        # rows whose terms put them in a weight they are zero on: a zero
        # coefficient (the closed form would count 1) and two terms that
        # cancel leave zero polynomials, with no residue column
        ([SpaceElement(((0, one),))], 0, [], False),
        ([SpaceElement(((1, x), (F.neg(1), x)))], 0, [], False),
        # weight 0 saturates: side 1 = x^j, j <= 1, times c_1 = (x - a)(x - b)
        # and the residues 1, x of the other group reach T, so the coupled
        # part x^2 c_1 of degree T drops out; at weight 1 the coupled part x
        # leaves one quotient coefficient above side 1 = {1}
        (monomial_rows(0, (), range(2)) + monomial_rows(0, ((a, 1), (b, 1)), range(2))
         + monomial_rows(1, (), range(1))
         + [SpaceElement(((1, BasisFunction(0, 2, ())), (1, BasisFunction(1, 1, ()))))],
         6, [(2, 2), (1, 1)], False),
        # a single-weight row of degree T that vanishes at every x-value:
        # its polynomial is independent, its values are zero, so weight 0
        # cannot saturate by residue and the oracle ranks the 5 x mT
        # evaluated basis
        (monomial_rows(0, (), range(3))
         + [SpaceElement(tuple((c, BasisFunction(0, i, ()))
                               for i, c in enumerate(vanish.coeffs) if c)),
            SpaceElement(((1, BasisFunction(0, 4, ())), (1, BasisFunction(1, 0, ()))))],
         4, [(5, 32)], True),
    ]
    for basis, want, calls, oracle in cases:
        rank_calls.clear()
        eval_calls.clear()
        assert x_part_rank(f49, basis, fibers) \
            == gf_rank(F, scalar_gen(F, basis, fibers.places)) == want
        assert shapes(rank_calls) == calls
        # the oracle evaluates the whole basis once; the residues evaluate nothing
        assert eval_calls == ([basis] if oracle else [])
    # the term x at the single x-value 0: exponents {1}, not 0..d, and of
    # degree 1 = T, so the oracle's evaluated row
    F, fibers = zero_split.field, split_place_list(zero_split, [0])
    basis = [SpaceElement.single(x)]
    rank_calls.clear()
    eval_calls.clear()
    assert x_part_rank(zero_split, basis, fibers) \
        == gf_rank(F, scalar_gen(F, basis, fibers.places)) == 0
    assert shapes(rank_calls) == [(1, 4)]
    assert eval_calls == [basis]


def test_dickson103_n400_eliminates_remainders_only(dickson103, rank_calls):
    # every weight of each code is one Vandermonde block; the stack leaves
    # a 3 x 3 remainder block per weight, never a 47 x 50 or 50 x 50 block,
    # and gf_rank sees the eight of them as one matrix
    values = completely_split_values(dickson103)[:50]
    pair = lcp_build_regime(dickson103, "half_single", split_values=values)
    assert (pair.C.n, pair.C.k, pair.E.k) == (400, 376, 24) and pair.verified
    assert shapes(rank_calls) == [(24, 24)]
    (M,) = rank_calls
    # eight 3 x 3 diagonal blocks, so M is diagonal: 24 nonzeros
    assert np.count_nonzero(M) == 24
    assert np.array_equal(M, np.diag(np.diag(M)))


def test_quartic103_n1600_ranks_by_residue(rank_calls):
    # the lambda_two pair on y^8 = x^2 (x^4 + 1) over GF(103^2) at 200 split
    # values: each code's delta = 1 row joins weights 0 and 4 and leaves a
    # 1 x 2 residue matrix; in the stack weight 0 saturates (a 4 x 4
    # residue check), and the joined weight 4 leaves 5 x 5 and the six others
    # 4 x 4 remainders, ranked as one 29 x 29 matrix.  Dense rank of the
    # joined block was 400 x 400.
    curve = _x2_quartic_curve(103)
    values = completely_split_values(curve)[:200]
    pair = lcp_build_regime(curve, "lambda_two", split_values=values)
    assert (pair.C.n, pair.C.k, pair.E.k) == (1600, 1568, 32)
    assert pair.verified and pair.gcd_identity and pair.lmd_identity
    assert shapes(rank_calls) == [(1, 2), (1, 2), (4, 4), (29, 29)]


def test_dickson103_n400_eval_calls_follow_denominators(dickson103, kernel_calls):
    # the C basis: 376 single-term rows over 7 factor sets; the same basis
    # cut to the first row of each factor set makes the same kernel calls
    values = completely_split_values(dickson103)[:50]
    pair = lcp_build_regime(dickson103, "half_single", split_values=values)
    basis, fibers = pair.C.basis, pair.C.fibers
    seen, cut = set(), []
    for elem in basis:
        factors = {bf.factors for _, bf in elem.terms}
        if not factors <= seen:
            cut.append(elem)
            seen |= factors
    assert (len(basis), len(cut)) == (376, 7)
    counts = []
    for rows in (basis, cut):
        kernel_calls.clear()
        eval_matrix(dickson103, rows, fibers)
        counts.append(dict(kernel_calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) < len(cut) * 20


def test_eval_matrix_kernel_calls_are_constant(f169, kernel_calls):
    # the f169 pair's bases: 6 factor sets each, with 14 (C) and 28 (E)
    # (alpha, r) entries; every term's x^j / D comes from one sub_arr and
    # one pow_prod, so the kernel calls do not grow with the entries
    pair = lcp_build_regime(f169, "lambda_two", s=2)
    counts = []
    for code, entries in ((pair.C, 14), (pair.E, 28)):
        factor_sets = {bf.factors for elem in code.basis for _, bf in elem.terms}
        assert (len(factor_sets), sum(map(len, factor_sets))) == (6, entries)
        kernel_calls.clear()
        eval_matrix(f169, code.basis, code.fibers)
        counts.append(dict(kernel_calls))
    assert counts[0] == counts[1]
    assert counts[1]["sub_arr"] == counts[1]["pow_prod"] == 1
    # sub_arr's add_arr and neg_arr, and one mul_arr by the coefficients
    assert sum(counts[1].values()) == 5


def test_dickson103_pair_n2400(dickson103):
    # no code keeps its k x n x-part matrix and lcp_verify stacks none: the
    # pair retains ~1 MiB (a stored matrix is 43.5 MiB), and the build peaks
    # once, at C's matrix of 8 k_C n bytes and the temporaries evaluating it
    values = completely_split_values(dickson103)[:300]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = lcp_build_regime(dickson103, "half_single", split_values=values)
        retained, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert (pair.C.n, pair.C.k, pair.E.k) == (2400, 2376, 24)
    assert pair.verified and pair.gcd_identity and pair.lmd_identity
    assert retained < 8 * 2**20
    assert peak < 1.75 * 8 * pair.C.k * pair.C.n
