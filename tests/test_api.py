"""The exported API on malformed input: a KummerError or a correct result.

A derandomized property hands an exported call a drawn value where it
takes an integer, an encoding, a tuple, a delta or a place, and hands the
from_json readers drawn objects.  The call either raises a KummerError or
returns a result that an independent check confirms.  Any other exception
fails, and so does a result from a value that is no integer (a float equal
to one, a bool, a numpy float): that would be a silent truncation.
"""

import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from kummerlcp import (
    Divisor,
    InvariantTuple,
    KummerCurve,
    Place,
    Poly,
    bound_B,
    completely_split_values,
    criterion_check,
    dickson,
    ell_invariant,
    invariant_divisor,
    make_curve,
    make_field,
    nth_roots,
    poly_analyze,
    principal_divisor,
    restrict,
    rr_basis,
    splitting_type,
)
from kummerlcp.errors import KummerError


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def values(lo: int, hi: int):
    """An integer in [lo, hi] as a Python or numpy int, or a value that is
    no integer: a float or numpy float equal to one, a bool, 1.5, a string."""
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(np.int64), ints.map(float), ints.map(np.float64),
                     st.sampled_from([True, False, np.bool_(True), 1.5, np.float32(0.5),
                                      "1", None]))


def roots_by_scan(F, c, n) -> list[int]:
    return [y for y in range(F.q) if F.pow(y, n) == c]


def on_curve(curve, p: Place) -> bool:
    """Whether the place belongs to the curve, from the ramification data
    and, for a split place, y^m = f(a) with y != 0."""
    if p.kind == "branch":
        return 0 <= p.i < curve.r and 0 <= p.j < curve.ram.d[p.i]
    if p.kind == "infinity":
        return 0 <= p.j < curve.ram.d_inf
    F = curve.field
    return (p.kind == "split" and F is not None and 0 <= p.a < F.q and 0 < p.y < F.q
            and F.pow(p.y, curve.m) == curve.f_eval(p.a))


def bound_by_definition(curve, n0: int, j: int) -> int:
    """B(n0, j) = -1 + ceil((sum_i (-j lambda_i mod m) - n0 d_inf) / m)."""
    top = sum(-j * lam % curve.m for lam in curve.lambdas) - n0 * curve.ram.d_inf
    return -1 - (-top // curve.m)


def containers(item, lo: int, hi: int):
    """lo..hi drawn items in a list or a tuple, or held some other way: in
    an iterator, or replaced by an int, None or a string."""
    items = st.lists(item, min_size=lo, max_size=hi)
    return st.one_of(items, items.map(tuple), items.map(iter),
                     st.sampled_from([5, None, "12"]))


def is_sequence(v, length=None) -> bool:
    return isinstance(v, (list, tuple)) and length in (None, len(v))


def places(curve):
    """Places of every kind, with fields in and out of range; split places
    are often a real one with one coordinate moved."""
    real = splitting_type(curve, completely_split_values(curve)[0]).places
    drawn = st.builds(Place, st.sampled_from(["branch", "infinity", "split", "bogus"]),
                      st.integers(-1, 6), st.integers(-1, 3), st.integers(-1, 170),
                      st.integers(-1, 170))
    moved = st.builds(lambda p, da, y: Place("split", a=p.a + da, y=y),
                      st.sampled_from(real), st.integers(0, 2), st.integers(0, 170))
    return st.one_of(drawn, st.sampled_from(real), moved)


#: the abstract curve of the paper's example 3.7
ABSTRACT = make_curve(None, 6, [1, 1, 1, 3, 5])

#: name -> (what is drawn, check).  A check makes the call with the drawn
#: value first and then says whether the result is right; a KummerError
#: from the call passes.  A drawn value of None stands for places(curve).
CALLS = {}


def call(name: str, drawn=None):
    def register(check):
        CALLS[name] = (drawn, check)
        return check
    return register


@call("make_field p", values(-2, 40))
def _(c, v):
    return make_field(v, 1).q == v and is_integer(v) and all(v % d for d in range(2, v))


@call("make_field k", values(-2, 6))
def _(c, v):
    return make_field(17, v).q == 17 ** v and is_integer(v)


@call("make_curve m", values(-2, 30))
def _(c, v):
    return make_curve(c.field, v, [(0, 1), (3, 1)]).m == v and is_integer(v)


@call("make_curve alpha", values(-2, 200))
def _(c, v):
    return make_curve(c.field, 4, [(0, 1), (v, 1)]).alphas == (0, v) and is_integer(v)


@call("make_curve lambda", values(-2, 6))
def _(c, v):
    return make_curve(c.field, 4, [(0, 1), (3, v)]).lambdas == (1, v) and is_integer(v)


@call("make_curve branches", containers(st.tuples(st.sampled_from([0, 3, 5]), st.just(1)),
                                         0, 3))
def _(c, v):
    curve = make_curve(c.field, 4, v)
    return is_sequence(v) and curve.alphas == tuple(alpha for alpha, _ in v)


@call("make_curve branch", containers(st.integers(1, 3), 0, 3))
def _(c, v):
    curve = make_curve(c.field, 4, [(0, 1), v])
    return is_sequence(v, 2) and (curve.alphas[1], curve.lambdas[1]) == tuple(v)


@call("make_curve lambdas", containers(st.integers(1, 5), 0, 3))
def _(c, v):
    lambdas = make_curve(None, 6, v).lambdas
    return is_sequence(v) and lambdas == tuple(v)


@call("InvariantTuple n", containers(st.integers(0, 3), 0, 6))
def _(c, n):
    tup = InvariantTuple(0, n)
    return is_sequence(n) and type(tup.n) is tuple and tup.n == tuple(n)


@call("nth_roots c", values(-2, 200))
def _(c, v):
    return nth_roots(c.field, v, 4) == roots_by_scan(c.field, v, 4) and is_integer(v)


@call("nth_roots n", values(-3, 30))
def _(c, v):
    return nth_roots(c.field, 5, v) == roots_by_scan(c.field, 5, v) and is_integer(v)


@call("dickson d", values(-3, 12))
def _(c, v):
    # phi_d(u + 1/u) = u^d + u^(-d) for every unit u, and deg phi_d = d
    P, F = dickson(v, c.field), c.field
    return is_integer(v) and P.degree == v and all(
        P.eval_enc(F.add(u, F.inv(u))) == F.add(F.pow(u, v), F.pow(u, -v))
        for u in range(1, 6))


@call("Poly coefficient", values(-3, 400))
def _(c, v):
    P = Poly(c.field, [v, 1])  # x + v
    return is_integer(v) and P.coeffs == (v, 1) and \
        poly_analyze(P).roots == [(c.field.neg(int(v)), 1)]


@call("bound_B n0", values(-3, 10))
def _(c, v):
    return bound_B(ABSTRACT, v, 1) == bound_by_definition(ABSTRACT, v, 1) and is_integer(v)


@call("bound_B j", values(-3, 9))
def _(c, v):
    return bound_B(ABSTRACT, 0, v) == bound_by_definition(ABSTRACT, 0, v) and \
        is_integer(v) and 1 <= v < ABSTRACT.m


@call("invariant_divisor length", st.integers(0, 7))
def _(c, n):
    tup = InvariantTuple(1, (1,) * n)
    return invariant_divisor(c, tup).degree == tup.degree(c) and n == c.r


@call("rr_basis length", st.integers(0, 7))
def _(c, n):
    return len(rr_basis(c, (InvariantTuple(0, (0,) * n), 0))) == 1 and n == c.r


#: a tuple of f169 (r = 5) with deg A - delta > 2g - 2 at either delta
A16 = InvariantTuple(16, (0,) * 5)


@call("rr_basis pair", containers(st.sampled_from([A16, 0, 1, None]), 0, 3))
def _(c, v):
    basis = rr_basis(c, v)
    return is_sequence(v, 2) and v[0] is A16 and len(basis) == 32 - v[1] - c.genus + 1


@call("rr_basis delta", values(-2, 3))
def _(c, v):
    # deg A - delta = 32 - delta > 2g - 2 = 24, so dim L is 32 - delta - g + 1
    basis = rr_basis(c, (A16, v))
    return is_integer(v) and v in (0, 1) and len(basis) == 32 - v - c.genus + 1


@call("criterion_check length", st.integers(0, 7))
def _(c, n):
    tup = InvariantTuple(0, (0, 1, 3, 0, 5, 0, 0)[:n])  # non-special at n = 5
    return criterion_check(ABSTRACT, tup).passed and n == ABSTRACT.r


@call("ell_invariant length", st.integers(0, 7))
def _(c, n):
    tup = InvariantTuple(0, (0, 1, 3, 0, 5, 0, 0)[:n])
    return ell_invariant(ABSTRACT, tup) == 1 and n == ABSTRACT.r


@call("splitting_type a", values(-2, 200))
def _(c, v):
    info = splitting_type(c, v)
    if not is_integer(v):
        return False
    if v in c.alphas:
        return info.kind == "branch"
    ys = roots_by_scan(c.field, c.f_eval(int(v)), c.m)
    return [p.y for p in info.places] == ys and \
        info.kind == ("split" if ys else "inert-or-partial")


@call("principal_divisor a", values(-2, 200))
def _(c, v):
    # a root must be a branch point or a completely split value
    return principal_divisor(c, {v: 1}).degree == 0 and is_integer(v) and (
        v in c.alphas or len(roots_by_scan(c.field, c.f_eval(int(v)), c.m)) == c.m)


@call("restrict place")
def _(c, p):
    return isinstance(restrict(c, Divisor({p: 2})), dict) and on_curve(c, p)


@call("restrict place, abstract curve")
def _(c, p):
    return isinstance(restrict(ABSTRACT, Divisor({p: 2})), dict) and on_curve(ABSTRACT, p)


@call("validate_place")
def _(c, p):
    c.validate_place(p)
    return on_curve(c, p)


@settings(max_examples=620, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_exported_calls_raise_a_kummer_error_or_are_right(f169, data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    drawn, check = CALLS[name]
    v = data.draw(drawn if drawn is not None else places(f169), label="value")
    try:
        right = check(f169, v)
    except KummerError:
        return
    assert right, (name, v)


#: keys of the place, divisor and curve objects, so that drawn objects
#: often hold one
JSON_KEYS = ["kind", "i", "j", "a", "y", "place", "coeff", "abstract", "field", "p", "k",
             "m", "branches", "alpha", "lambda", "lambdas"]

#: values to put in: mostly small integers, which a reader may accept, and
#: floats equal to one; else any JSON value
json_values = st.one_of(
    st.integers(-2, 6), st.integers(-2, 6).map(float),
    st.sampled_from(["branch", "infinity", "split", True, None]),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 60) | st.text(max_size=2)
        | st.floats(allow_nan=False, allow_infinity=False, width=16),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=3),
        max_leaves=6))

#: valid objects of each reader, to be edited
JSON_OBJECTS = {
    "place": (Place.from_json, [{"kind": "split", "a": 2, "y": 5},
                                {"kind": "branch", "i": 4, "j": 1},
                                {"kind": "infinity", "j": 0}]),
    "divisor": (Divisor.from_json, [[{"place": {"kind": "infinity", "j": 0}, "coeff": 2},
                                     {"place": {"kind": "branch", "i": 1, "j": 0},
                                      "coeff": -1}]]),
    "curve": (KummerCurve.from_json, [
        {"field": {"p": 7, "k": 2}, "m": 4, "a": 1,
         "branches": [{"alpha": 0, "lambda": 1}, {"alpha": 3, "lambda": 1}]},
        {"abstract": True, "m": 6, "lambdas": [1, 1, 1, 3, 5]}]),
}


def paths(obj, path=()):
    """Every path of keys and indices into a JSON object, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, path + (key,))


def edited(data, obj):
    """obj with one or two edits at drawn paths: a drawn value put in, a
    key or an item taken out, or an item of a list repeated."""
    obj = json.loads(json.dumps(obj))
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        path = data.draw(st.sampled_from(list(paths(obj))), label="path")
        value = data.draw(json_values, label="value")
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        how = data.draw(st.sampled_from(["put", "drop", "repeat"]), label="how")
        if how == "drop":
            del parent[path[-1]]
        elif how == "repeat" and isinstance(parent, list):
            parent.append(parent[path[-1]])
        else:
            parent[path[-1]] = value
    return obj


def same_json(a, b) -> bool:
    """Equal as JSON text: 4 and 4.0, or 1 and true, differ."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def read_back(kind: str, obj, result) -> bool:
    """Whether a reader's result holds exactly what obj states."""
    if kind == "place":
        return same_json(result.to_json(), obj)
    if kind == "divisor":
        stated = {}
        for entry in obj:
            place = Place.from_json(entry["place"])
            stated[place] = stated.get(place, 0) + entry["coeff"]
        return result == Divisor(stated)
    if obj.get("abstract"):
        return same_json(result.to_json(), {"abstract": True, "m": obj["m"],
                                            "lambdas": obj["lambdas"]})
    return same_json(result.to_json(), {
        "field": {"p": obj["field"]["p"], "k": obj["field"]["k"]}, "m": obj["m"],
        "a": obj.get("a", 1),
        "branches": [{"alpha": b["alpha"], "lambda": b["lambda"]} for b in obj["branches"]]})


@settings(max_examples=400, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_from_json_raises_a_kummer_error_or_reads_exactly(data):
    kind = data.draw(st.sampled_from(sorted(JSON_OBJECTS)), label="reader")
    read, valid = JSON_OBJECTS[kind]
    obj = edited(data, data.draw(st.sampled_from(valid), label="object"))
    try:
        result = read(obj)
    except KummerError:
        return
    assert read_back(kind, obj, result), obj


SHORT = InvariantTuple(0, (1,))  # one entry, on curves of more branches


@pytest.mark.parametrize("call", [
    lambda c: bound_B(ABSTRACT, 0, 1.5),                   # once TypeError
    lambda c: nth_roots(c.field, 5, 2.0),                  # once TypeError
    lambda c: dickson(2.5, c.field),                       # once TypeError
    lambda c: Poly(c.field, [1.5, 1]),                     # once (1, 1)
    lambda c: Poly(c.field, [10**6, 1]),                   # poly_analyze: IndexError
    lambda c: restrict(ABSTRACT, Divisor({Place("branch", i=99, j=0): 1})),  # IndexError
    lambda c: invariant_divisor(c, SHORT),                 # zip truncated
    lambda c: rr_basis(c, (SHORT, 0)),                     # zip truncated
    lambda c: rr_basis(c, (InvariantTuple(0, (0,) * c.r), 2)),  # an empty basis
    lambda c: Place.from_json({"kind": "branch", "i": -1, "j": 0}),  # to_json drops i
    lambda c: make_curve(c.field, 4, [(0, 1), (3,)]),      # ValueError: unpacking
    lambda c: make_curve(c.field, 4, [(0, 1), (3, 1, 5)]),  # ValueError: unpacking
    lambda c: make_curve(c.field, 4, [5, (3, 1)]),         # TypeError: unpacking
    lambda c: make_curve(c.field, 4, 5),                   # TypeError: not iterable
    lambda c: make_curve(None, 4, 5),                      # TypeError: not iterable
    lambda c: rr_basis(c, (A16,)),                         # ValueError: unpacking
    lambda c: rr_basis(c, (A16, 0, 1)),                    # ValueError: unpacking
    lambda c: rr_basis(c, 5),                              # TypeError: unpacking
    lambda c: InvariantTuple(0, 5),                        # TypeError: not iterable
    lambda c: InvariantTuple(0, None),                     # TypeError: not iterable
    lambda c: principal_divisor(c, {False: 1}),            # read as the branch point 0
], ids=["bound_B j", "nth_roots n", "dickson d", "Poly float", "Poly range", "restrict",
        "invariant_divisor", "rr_basis length", "rr_basis delta", "Place.from_json",
        "branch short", "branch long", "branch int", "branches int", "lambdas int",
        "rr_basis short pair", "rr_basis long pair", "rr_basis int", "n int", "n None",
        "principal_divisor bool"])
def test_malformed_inputs_found_by_the_properties(f169, call):
    # each was accepted, or raised something other than a KummerError
    with pytest.raises(KummerError):
        call(f169)


def test_divisor_json_sums_a_repeated_place():
    # a divisor is a formal sum: the last entry of a place once overwrote
    # the others, and this read as coefficient 1
    entry = {"place": {"kind": "infinity", "j": 0}, "coeff": 1}
    assert Divisor.from_json([entry, entry]) == Divisor({Place("infinity", j=0): 2})
