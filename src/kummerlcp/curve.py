"""Kummer extensions y^m = a * prod (x - alpha_i)^lambda_i over GF(q).

Provides ramification data and genus, symbolic place classes, divisors,
principal divisors, the restriction map to the rational subfield, the
combinatorial Riemann-Roch dimension for invariant divisors,
splitting types and the rational-place census.  div(y), div_inf(x) and
div_0(x - alpha_i) are invariant divisors: the first two are
invariant_divisor of one tuple, and principal_divisor sums them with the
zeros of x - a at a completely split value a, its m places.

Curves come in two flavors:

* concrete -- a :class:`~kummerlcp.ffield.FieldSpec` plus branch points
  (alpha_i, lambda_i); supports splitting, census and code construction.
* abstract -- no field at all, only (m, lambdas); supports everything that
  is purely combinatorial (genus, restriction, invariant dimensions).

Conjugate places above a branch point alpha_i are labeled by the d_i-th
roots of the unit c_i = a * prod_{j != i} (alpha_i - alpha_j)^lambda_j,
taken in increasing encoding order; places above x = infinity likewise by
the d_inf-th roots of the leading coefficient a.  The distinguished place
Q_infinity is Infinity(0), the one whose root label has smallest encoding
(equal to 1 for monic curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AbstractField,
    CharDividesM,
    DuplicateBranch,
    FormulaMismatch,
    GcdViolation,
    InvalidPlace,
    LengthMismatch,
    NegativeCoefficient,
    NotAnElement,
    RationalityError,
    UnsupportedRoot,
    UsageError,
)
from .ffield import FieldSpec, Poly, _integer, make_field, nth_roots


class Place(NamedTuple):
    """A symbolic place class of the function field.

    kind "branch":   conjugate j above branch point i (0 <= j < d_i)
    kind "infinity": conjugate j above x = infinity   (0 <= j < d_inf)
    kind "split":    rational place (x=a, y=y) with f(a) a nonzero m-th power

    Fields a kind does not use hold -1.  Places order as tuples: by kind
    ("branch" < "infinity" < "split"), then by i, j, a and y.
    """

    kind: str
    i: int = -1
    j: int = -1
    a: int = -1
    y: int = -1

    def to_json(self):
        return {k: v for k, v in self._asdict().items() if v != -1}

    @staticmethod
    def from_json(obj) -> "Place":
        """The place of a to_json() object: its kind and the nonnegative
        integer fields that kind uses, no others (a field of -1 is one
        to_json leaves out).  Anything else raises UsageError."""
        uses = {"branch": ("i", "j"), "infinity": ("j",), "split": ("a", "y")}
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not (isinstance(kind, str) and kind in uses
                and set(obj) == {"kind", *uses[kind]}):
            raise UsageError(f"not a place: {obj!r}")
        fields = {f: _integer(obj[f], f) for f in uses[kind]}
        if min(fields.values()) < 0:
            raise UsageError(f"not a place: {obj!r} has a negative field")
        return Place(kind, **fields)


@dataclass(frozen=True)
class RamificationData:
    d: tuple[int, ...]      # d_i = gcd(m, lambda_i)
    e: tuple[int, ...]      # e_i = m / d_i
    lam_sum: int            # Lambda = sum lambda_i
    d_inf: int              # gcd(m, Lambda)
    e_inf: int              # m / d_inf
    genus: int


class KummerCurve:
    """Immutable model of y^m = a * prod (x - alpha_i)^lambda_i."""

    def __init__(self, field, m, branches, a=1):
        self.m = _integer(m, "m")
        if self.m < 2:
            raise GcdViolation(f"extension degree m must be >= 2, got {m}")
        if field is None:
            self.field = None
            lambdas = [_integer(l, "lambda") for l in branches]
            alphas = None
            a_enc = 1
        else:
            if not isinstance(field, FieldSpec):
                raise UsageError(f"field must be a FieldSpec or None, got {field!r}")
            self.field = field
            alphas = []
            lambdas = []
            for alpha, lam in branches:
                alphas.append(field._element(alpha, "alpha"))
                lambdas.append(_integer(lam, "lambda"))
            if len(set(alphas)) != len(alphas):
                raise DuplicateBranch(f"branch points not distinct: {alphas}")
            if field.p != 0 and self.m % field.p == 0:
                raise CharDividesM(f"char {field.p} divides m={self.m}")
            a_enc = field._element(a, "a")
            if a_enc == 0:
                raise GcdViolation("leading coefficient a must be nonzero")
        if not lambdas:
            raise GcdViolation("at least one branch point required")
        if any(not 1 <= l < self.m for l in lambdas):
            raise GcdViolation(f"lambdas must lie in [1, m): {lambdas}")
        if math.gcd(self.m, *lambdas) != 1:
            raise GcdViolation(f"gcd(m, lambdas) != 1 for m={self.m}, {lambdas}")
        self.lambdas = tuple(lambdas)
        self.alphas = tuple(alphas) if alphas is not None else None
        self.a_enc = a_enc
        self.r = len(lambdas)

        d = tuple(math.gcd(self.m, l) for l in lambdas)
        e = tuple(self.m // di for di in d)
        lam_sum = sum(lambdas)
        d_inf = math.gcd(self.m, lam_sum)
        e_inf = self.m // d_inf
        num = (self.m - 1) * (self.r - 1) - sum(di - 1 for di in d) - (d_inf - 1)
        if num % 2:
            raise FormulaMismatch(f"genus numerator {num} is odd")
        self.ram = RamificationData(d, e, lam_sum, d_inf, e_inf, num // 2)
        self._labels = {}

    # -- basic properties --

    @property
    def is_abstract(self) -> bool:
        return self.field is None

    @property
    def genus(self) -> int:
        return self.ram.genus

    def _require_field(self):
        if self.is_abstract:
            raise AbstractField("operation requires a concrete field")
        return self.field

    def _require_kummer_rational(self):
        F = self._require_field()
        if (F.q - 1) % self.m != 0:
            raise RationalityError(f"m={self.m} does not divide q-1={F.q - 1}")
        return F

    def f_poly(self) -> Poly:
        """The right-hand side a * prod (x - alpha_i)^lambda_i as a Poly."""
        F = self._require_field()
        out = Poly(F, [self.a_enc])
        for alpha, lam in zip(self.alphas, self.lambdas):
            out = out * (Poly.linear(F, alpha) ** lam)
        return out

    def f_eval_arr(self, xs) -> np.ndarray:
        """f(x) = a * prod (x - alpha_i)^lambda_i at a 1-D array of
        encodings: one pow_prod of the differences x - alpha_i."""
        F = self._require_field()
        diffs = F.sub_arr(np.asarray(xs)[None, :], np.array(self.alphas)[:, None])
        return F.mul_arr(F.pow_prod(diffs, [self.lambdas])[0], self.a_enc)

    def f_eval(self, a_enc: int) -> int:
        F = self._require_field()
        acc = self.a_enc
        for alpha, lam in zip(self.alphas, self.lambdas):
            acc = F.mul(acc, F.pow(F.sub(a_enc, alpha), lam))
        return acc

    # -- place classes --

    def branch_places(self, i: int) -> list[Place]:
        if not 0 <= i < self.r:
            raise InvalidPlace(f"branch index {i} out of range")
        return [Place("branch", i=i, j=j) for j in range(self.ram.d[i])]

    def infinity_places(self) -> list[Place]:
        return [Place("infinity", j=j) for j in range(self.ram.d_inf)]

    def q_infinity(self) -> Place:
        return Place("infinity", j=0)

    def branch_unit(self, i: int) -> int:
        """c_i = a * prod_{j != i} (alpha_i - alpha_j)^lambda_j (encoding)."""
        F = self._require_field()
        acc = self.a_enc
        for j, (alpha, lam) in enumerate(zip(self.alphas, self.lambdas)):
            if j != i:
                acc = F.mul(acc, F.pow(F.sub(self.alphas[i], alpha), lam))
        return acc

    def conjugate_labels(self, place_kind: str, i: int = -1) -> list[int]:
        """Root labels (encodings, increasing) for branch/infinity conjugates."""
        key = (place_kind, i)
        if key not in self._labels:
            F = self._require_field()
            if place_kind == "infinity":
                self._labels[key] = nth_roots(F, self.a_enc, self.ram.d_inf)
            else:
                self._labels[key] = nth_roots(F, self.branch_unit(i), self.ram.d[i])
        return self._labels[key]

    def validate_place(self, place: Place):
        if place.kind == "branch":
            if not (0 <= place.i < self.r and 0 <= place.j < self.ram.d[place.i]):
                raise InvalidPlace(f"invalid branch place {place}")
        elif place.kind == "infinity":
            if not 0 <= place.j < self.ram.d_inf:
                raise InvalidPlace(f"invalid infinite place {place}")
        elif place.kind == "split":
            self.split_coordinates([place])
        else:
            raise InvalidPlace(f"unknown place kind {place.kind!r}")

    def split_coordinates(self, places):
        """(xs, col, y) of split places: the sorted distinct x-values, each
        place's index into xs and its y-value.  Raises NotAnElement for a
        coordinate outside [0, q), then InvalidPlace for the first place off
        the curve: y = 0 or y^m != f(a)."""
        F = self._require_field()
        out = [p for p in places if not (0 <= p.a < F.q and 0 <= p.y < F.q)]
        if out:
            raise NotAnElement(f"{out[0]} has a coordinate outside [0, {F.q})")
        xs, col = np.unique([p.a for p in places], return_inverse=True)
        y = np.array([p.y for p in places], dtype=np.int64)
        off = np.flatnonzero((y == 0)
                             | (F.pow_arr(y, self.m) != self.f_eval_arr(xs)[col]))
        if off.size:
            raise InvalidPlace(f"{places[off[0]]} does not lie on the curve")
        return xs, col, y

    # -- serialization --

    def to_json(self) -> dict:
        if self.is_abstract:
            return {"abstract": True, "m": self.m, "lambdas": list(self.lambdas)}
        return {
            "field": {"p": self.field.p, "k": self.field.k},
            "m": self.m,
            "a": self.a_enc,
            "branches": [{"alpha": a, "lambda": l}
                         for a, l in zip(self.alphas, self.lambdas)],
        }

    @staticmethod
    def from_json(obj) -> "KummerCurve":
        """The curve of a to_json() object.  A missing key, or a field or a
        branch list of the wrong kind, raises UsageError; the constructors
        check the values."""
        if isinstance(obj, dict) and obj.get("abstract"):
            m, lambdas = _keys(obj, ("m", "lambdas"), "an abstract curve")
            return KummerCurve(None, m, _items(lambdas, "lambdas"))
        field, m, branches = _keys(obj, ("field", "m", "branches"), "a curve")
        branches = [_keys(b, ("alpha", "lambda"), "a branch")
                    for b in _items(branches, "branches")]
        return KummerCurve(make_field(*_keys(field, ("p", "k"), "a field")), m,
                           branches, obj.get("a", 1))

    def __repr__(self):
        base = "abstract" if self.is_abstract else repr(self.field)
        return f"KummerCurve({base}, m={self.m}, lambdas={self.lambdas})"


def _keys(obj, keys, what: str) -> list:
    """The values of obj at keys, if obj is a dict holding them all."""
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise UsageError(f"{what} should be an object with keys {list(keys)}, "
                         f"got {obj!r}")
    return [obj[k] for k in keys]


def _items(obj, what: str) -> list:
    """obj, if it is a list."""
    if not isinstance(obj, list):
        raise UsageError(f"{what} should be a list, got {obj!r}")
    return obj


def make_curve(field, m, branches, a=1) -> KummerCurve:
    """Construct a Kummer curve; pass field=None and a lambda list for abstract.
    A field that is neither a FieldSpec nor None raises UsageError."""
    return KummerCurve(field, m, branches, a)


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

class Divisor:
    """Finite formal integer combination of place classes.  A coefficient
    that is not a Python or numpy integer raises NotAnInteger."""

    __slots__ = ("table",)

    def __init__(self, table=None):
        self.table = {}
        for p, c in (table or {}).items():
            c = c if type(c) is int else _integer(c, "coeff")
            if c:
                self.table[p] = c

    def coeff(self, place: Place) -> int:
        return self.table.get(place, 0)

    @property
    def degree(self) -> int:
        # all tracked place classes are rational of degree 1
        return sum(self.table.values())

    def items(self):
        return sorted(self.table.items())

    def __add__(self, other):
        out = dict(self.table)
        for p, c in other.table.items():
            out[p] = out.get(p, 0) + c
        return Divisor(out)

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, scalar: int):
        scalar = _integer(scalar, "scalar")
        return Divisor({p: scalar * c for p, c in self.table.items()})

    def __neg__(self):
        return Divisor({p: -c for p, c in self.table.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.table.values())

    def __ge__(self, other):
        return (self - other).is_effective()

    def _pointwise(self, other: "Divisor", op) -> "Divisor":
        return Divisor({p: op(self.coeff(p), other.coeff(p))
                        for p in self.table.keys() | other.table.keys()})

    def gcd_min(self, other: "Divisor") -> "Divisor":
        return self._pointwise(other, min)

    def lmd_max(self, other: "Divisor") -> "Divisor":
        return self._pointwise(other, max)

    def to_json(self):
        return [{"place": p.to_json(), "coeff": c} for p, c in self.items()]

    @staticmethod
    def from_json(obj) -> "Divisor":
        """The divisor of a to_json() list of {"place", "coeff"} objects with
        integer coefficients, a place named twice counting the sum of its
        coefficients; anything else raises a KummerError."""
        entries = [_keys(e, ("place", "coeff"), "a divisor entry")
                   for e in _items(obj, "a divisor")]
        return sum((Divisor({Place.from_json(p): c}) for p, c in entries), Divisor())

    def __repr__(self):
        return f"Divisor({self.items()})"


@dataclass(frozen=True)
class InvariantTuple:
    """Coefficient tuple (n_0; n_1, ..., n_r) of an invariant divisor.

    Encodes A = n_0 * div_inf(x)/e_inf + sum n_i * div_0(x - alpha_i)/e_i,
    i.e. coefficient n_0 on each infinite place and n_i on each conjugate
    above alpha_i.
    """

    n0: int
    n: tuple[int, ...]

    def __post_init__(self):
        """n0 and each n_i as ints; anything but an integer raises NotAnInteger."""
        if type(self.n0) is not int or type(self.n) is not tuple or \
                not all(type(v) is int for v in self.n):
            object.__setattr__(self, "n0", _integer(self.n0, "n0"))
            object.__setattr__(self, "n", tuple(_integer(v, "n_i") for v in self.n))

    def degree(self, curve: KummerCurve) -> int:
        if len(self.n) != curve.r:
            raise LengthMismatch("tuple length does not match curve")
        return self.n0 * curve.ram.d_inf + sum(
            ni * di for ni, di in zip(self.n, curve.ram.d))

    def is_effective(self) -> bool:
        return self.n0 >= 0 and all(ni >= 0 for ni in self.n)

    def to_json(self):
        return {"n0": self.n0, "n": list(self.n)}


def invariant_divisor(curve: KummerCurve, tup: InvariantTuple) -> Divisor:
    """Expand an invariant tuple into an explicit place table: n_0 on each
    place above infinity and n_i on each conjugate above alpha_i."""
    if len(tup.n) != curve.r:
        raise LengthMismatch("tuple length does not match curve")
    table = dict.fromkeys(curve.infinity_places(), tup.n0)
    for i, ni in enumerate(tup.n):
        table.update(dict.fromkeys(curve.branch_places(i), ni))
    return Divisor(table)


# ---------------------------------------------------------------------------
# Standard divisors and principal divisors
# ---------------------------------------------------------------------------

def x_pole_divisor(curve: KummerCurve) -> Divisor:
    """div_inf(x) = e_inf * sum of infinite places (degree m)."""
    return invariant_divisor(curve, InvariantTuple(curve.ram.e_inf, (0,) * curve.r))


def branch_zero_divisor(curve: KummerCurve, i: int) -> Divisor:
    """div_0(x - alpha_i) = e_i * sum of conjugates above alpha_i (degree m)."""
    return Divisor({p: curve.ram.e[i] for p in curve.branch_places(i)})


def y_divisor(curve: KummerCurve) -> Divisor:
    """Principal divisor of y: lambda_i / d_i on each conjugate above alpha_i
    and -Lambda / d_inf on each place above infinity."""
    ram = curve.ram
    n = tuple(lam // d for lam, d in zip(curve.lambdas, ram.d))
    return invariant_divisor(curve, InvariantTuple(-ram.lam_sum // ram.d_inf, n))


def principal_divisor(curve: KummerCurve, roots, t: int = 0) -> Divisor:
    """Divisor of prod (x - a)^mult * y^t for roots = {a: mult}.

    A negative multiplicity is a pole.  Every a must be a branch point or a
    completely split value, whose zero div_0(x - a) is its m places; other
    x-values have no rational place class to carry them (UnsupportedRoot).
    """
    out = t * y_divisor(curve) - sum(roots.values()) * x_pole_divisor(curve)
    for a, mult in roots.items():
        if curve.alphas and a in curve.alphas:
            zero = branch_zero_divisor(curve, curve.alphas.index(a))
        else:
            info = splitting_type(curve, a)
            if info.kind != "split":
                raise UnsupportedRoot(f"x = {a} is not completely split")
            zero = Divisor(dict.fromkeys(info.places, 1))
        out = out + mult * zero
    return out


# ---------------------------------------------------------------------------
# Restriction map and invariant Riemann-Roch dimension
# ---------------------------------------------------------------------------

def restrict(curve: KummerCurve, D: Divisor) -> dict:
    """Push a divisor down to the rational subfield.

    Returns a table keyed by ("branch", i), ("split", a) and ("infinity",)
    with value min over P|Q of floor(v_P(D) / e(P|Q)); zero entries dropped.
    A place not on the curve raises InvalidPlace (a split place needs a
    concrete curve).
    """
    out = {}
    for p in D.table:
        curve.validate_place(p)
        if p.kind == "branch":
            key, e, above = ("branch", p.i), curve.ram.e[p.i], curve.branch_places(p.i)
        elif p.kind == "infinity":
            key, e, above = ("infinity",), curve.ram.e_inf, curve.infinity_places()
        else:  # unramified: e = 1; a conjugate missing from D, read as None, is 0
            key, e = ("split", p.a), 1
            above = [q for q in D.table if q.kind == "split" and q.a == p.a]
            above += [None] * (curve.m - len(above))
        out[key] = min(D.coeff(q) // e for q in above)
    return {key: v for key, v in out.items() if v}


def rational_degree(rdiv: dict) -> int:
    return sum(rdiv.values())


def rational_ell(rdiv: dict) -> int:
    """dim L(D) on the projective line: deg + 1 if deg >= 0 else 0."""
    deg = rational_degree(rdiv)
    return deg + 1 if deg >= 0 else 0


def _restricted_summand(curve: KummerCurve, n0: int, n, t: int):
    """(deg, r): deg R(A + div(y^t)) for the invariant tuple (n0; n), in
    closed form, and the floors r_i = (n_i d_i + t lambda_i) // m at the
    branch points.  deg is (n0 d_inf - t Lambda) // m + sum r_i, and the
    weight-t summand of L(A) has the basis x^j / prod (x - alpha_i)^r_i *
    y^t, j = 0..deg."""
    ram = curve.ram
    if len(n) != curve.r:
        raise LengthMismatch("tuple length does not match curve")
    r = [(ni * di + t * lam) // curve.m
         for ni, di, lam in zip(n, ram.d, curve.lambdas)]
    return (n0 * ram.d_inf - t * ram.lam_sum) // curve.m + sum(r), r


def ell_invariant(curve: KummerCurve, A: InvariantTuple,
                  allow_negative: bool = False) -> int:
    """dim L(A) for an invariant divisor, by restriction to the subfield."""
    if not allow_negative and not A.is_effective():
        raise NegativeCoefficient(f"tuple {A} is not effective")
    total = 0
    for t in range(curve.m):
        deg, _ = _restricted_summand(curve, A.n0, A.n, t)
        if deg >= 0:
            total += deg + 1
    return total


def ell_invariant_bulk(curve: KummerCurve, n0: int) -> np.ndarray:
    """dim L(A) for all tuples with the given n0, over the bounded box.

    Returns an integer array of shape (e_1, ..., e_r); entry [n_1, ..., n_r]
    is ell of the tuple (n0; n_1, ..., n_r).  Used as the independent oracle
    in equivalence tests and computed purely from the restriction formula.
    """
    ram = curve.ram
    m = curve.m
    dims = ram.e
    ell = np.zeros(dims, dtype=np.int64)
    for t in range(m):
        deg = np.zeros((), dtype=np.int64)
        for axis, (di, lam, e_i) in enumerate(zip(ram.d, curve.lambdas, ram.e)):
            ni = np.arange(e_i, dtype=np.int64)
            vec = (ni * di + t * lam) // m
            shape = [1] * curve.r
            shape[axis] = e_i
            deg = deg + vec.reshape(shape)
        deg = deg + (n0 * ram.d_inf - t * ram.lam_sum) // m
        ell += np.where(deg >= 0, deg + 1, 0)
    return ell


# ---------------------------------------------------------------------------
# Splitting types and the census
# ---------------------------------------------------------------------------

@dataclass
class SplittingInfo:
    kind: str  # "branch" | "split" | "inert-or-partial"
    places: list


def splitting_type(curve: KummerCurve, a) -> SplittingInfo:
    """Decomposition of the place x = a in the extension."""
    F = curve._require_kummer_rational()
    a_enc = F._element(a, "x")
    if curve.alphas and a_enc in curve.alphas:
        i = curve.alphas.index(a_enc)
        return SplittingInfo("branch", curve.branch_places(i))
    # f(a) != 0 off the branch points, so its m-th roots are m or none
    ys = nth_roots(F, curve.f_eval(a_enc), curve.m)
    if ys:
        return SplittingInfo("split", [Place("split", a=a_enc, y=y) for y in ys])
    return SplittingInfo("inert-or-partial", [])


def completely_split_values(curve: KummerCurve) -> list[int]:
    """All a in GF(q) over which the curve splits completely, sorted.

    One Euler test f(a)^((q-1)/m) == 1 over the whole field; f vanishes at
    the branch points, so they fail it.
    """
    F = curve._require_kummer_rational()
    fx = curve.f_eval_arr(np.arange(F.q, dtype=np.int64))
    return np.flatnonzero(F.pow_arr(fx, (F.q - 1) // curve.m) == 1).tolist()


@dataclass
class CensusResult:
    n_rational: int
    is_maximal: bool
    split_count: int  # number of completely split x-values


def census(curve: KummerCurve) -> CensusResult:
    """Count the rational places of the curve over its field."""
    F = curve._require_kummer_rational()
    split_count = len(completely_split_values(curve))
    total = curve.m * split_count
    for i in range(curve.r):
        total += len(curve.conjugate_labels("branch", i))
    total += len(curve.conjugate_labels("infinity"))
    sq = math.isqrt(F.q)
    is_maximal = sq * sq == F.q and total == F.q + 1 + 2 * curve.genus * sq
    return CensusResult(total, is_maximal, split_count)
