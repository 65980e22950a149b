"""Riemann-Roch bases, AG evaluation codes, and complementary pairs.

Handles function spaces L(D) for divisors D of the shape
(invariant part) - delta * Q_infinity with delta in {0, 1}:

* delta = 0: the space splits as a direct sum over powers of y; each summand
  has an explicit rational-subfield basis.
* delta = 1: the subspace of functions with one extra forced zero at
  Q_infinity is cut out as the kernel of a single linear functional that
  evaluates the leading coefficient at Q_infinity in closed form, once per
  summand, at its top term.

A basis is a Basis: in order, the runs x^j / D * y^t, j = 0..d, one per
summand y^t (D its factor set), and the few rows the delta = 1 kernel joins.
rr_basis, eval_matrix and x_part_rank read the runs, so a code costs Python
work per run, not per row; the rows are SpaceElements only when read one by
one (LinearCode.basis is such a lazily expanded sequence).  A list of
SpaceElements is read as a Basis by Basis.of.  One term check (_check_terms)
reads a basis for eval_matrix and x_part_rank: it sums the powers of each
distinct factor set once, and both read those sums.

On top of that sit generator matrices, exact rank computation over GF(q),
the G/H construction producing complementary pairs of codes from a
non-special divisor of degree g, and exhaustive minimum-distance checks.

Codes are evaluated at whole fibers: all m places (a, y_1), ..., (a, y_m)
above each of T distinct completely split x-values a (split_place_list
takes every such a when given none).  fiber_values checks
a place list once and returns it as Fibers (the curve, the places, their
sorted x-values xs, each place's column into xs and its y-value);
build_code, eval_matrix, LinearCode.gen() and lcp_verify reuse it and
check only that fiber_values made it, on the same curve.  The lmd identity
of a pair needs only the number T of x-values: div(h) of h = prod (x - a)
is D - T div_inf(x), and D cancels from both sides.

A basis element sum_t b_t(x) * y^t takes the value sum_t b_t(a) * y_j^t at
(a, y_j), so the generator matrix is the k x mT x-part matrix R of
eval_matrix (entry [i, t * T + j] = b_t(xs[j])) times a block-diagonal of
invertible Vandermonde matrices V_a[t, j] = y_j^t, and has the rank of R.
x_part_rank ranks R in one pass over the weights of the basis, by counts
and one residue matrix; its docstring gives the argument.  Dense gf_rank
of a whole generator matrix is the test oracle, and gf_rank of eval_matrix
is x_part_rank's fallback for a basis its residues cannot rank, which no
pair's stacked bases are.  A code stores no matrix: LinearCode.gen()
evaluates on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    Divisor,
    InvariantTuple,
    KummerCurve,
    Place,
    _items,
    _restricted_summand,
    completely_split_values,
    invariant_divisor,
    principal_divisor,
    split_fiber,
    x_pole_divisor,
)
from .errors import (
    AbstractField,
    DegreeOutOfRange,
    DimensionMismatch,
    FormulaMismatch,
    InvalidPlace,
    LengthMismatch,
    NotNonSpecial,
    NotWholeFibers,
    PoleAtEvaluationPlace,
    RampPreconditionViolated,
    RationalityError,
    RegimeViolation,
    SRangeEmpty,
    SupportOverlap,
    TooLargeToEnumerate,
    UnsupportedShape,
    UsageError,
)
from .ffield import FieldSpec, Poly, _integer
from .nonspecial import (
    coeffs_half_double,
    coeffs_half_single,
    coeffs_lambda_two,
    criterion_check,
)

ENUM_CAP = 10**6


# ---------------------------------------------------------------------------
# Basis functions b(x) * y^t and linear combinations of them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFunction:
    """The function x^xpow * prod (x - alpha)^(-r) * y^t."""

    t: int
    xpow: int
    factors: tuple  # ((alpha_enc, r), ...) meaning a factor (x - alpha)^(-r)

    def x_degree(self) -> int:
        return self.xpow - sum(r for _, r in self.factors)


@dataclass(frozen=True)
class SpaceElement:
    """A finite linear combination of basis functions."""

    terms: tuple  # ((coeff_enc, BasisFunction), ...)

    @staticmethod
    def single(bf: BasisFunction) -> "SpaceElement":
        return SpaceElement(((1, bf),))


@dataclass(frozen=True)
class Run:
    """The rows x^j / D * y^t, j = 0..d, of one factor set D."""

    t: int
    factors: tuple  # D, as in BasisFunction
    d: int

    def row(self, j: int) -> SpaceElement:
        return SpaceElement.single(BasisFunction(self.t, j, self.factors))


class Basis:
    """The rows of a basis as pieces, in order: a Run stands for its d + 1
    rows, a SpaceElement for one row.

    eval_matrix and x_part_rank read the pieces.  The rows are expanded into
    SpaceElements only when read as a sequence (len, indexing, iteration);
    basis + other joins the pieces of basis and of Basis.of(other).
    """

    def __init__(self, pieces):
        self.pieces = tuple(pieces)
        self.starts = [0]  # piece i's first row; the last entry is len
        for piece in self.pieces:
            self.starts.append(self.starts[-1]
                               + (piece.d + 1 if isinstance(piece, Run) else 1))

    @staticmethod
    def of(rows) -> "Basis":
        """rows as a Basis: a Basis as it is; in a list, each stretch of rows
        1 * x^j / D * y^t, j = 0, 1, ..., becomes one Run."""
        if isinstance(rows, Basis):
            return rows
        pieces = []
        for elem in rows:
            bf = elem.terms[0][1] if len(elem.terms) == 1 and elem.terms[0][0] == 1 \
                else None
            last = pieces[-1] if pieces else None
            if bf is not None and isinstance(last, Run) and \
                    (last.t, last.factors, last.d + 1) == (bf.t, bf.factors, bf.xpow):
                pieces[-1] = Run(bf.t, bf.factors, bf.xpow)
            elif bf is not None and bf.xpow == 0:
                pieces.append(Run(bf.t, bf.factors, 0))
            else:
                pieces.append(elem)
        return Basis(pieces)

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, i: int) -> SpaceElement:
        row = range(len(self))[i]  # IndexError past either end
        k = int(np.searchsorted(self.starts, row, side="right")) - 1
        piece = self.pieces[k]
        return piece.row(row - self.starts[k]) if isinstance(piece, Run) else piece

    def __iter__(self):
        for piece in self.pieces:
            if isinstance(piece, Run):
                yield from map(piece.row, range(piece.d + 1))
            else:
                yield piece

    def __add__(self, other) -> "Basis":
        return Basis(self.pieces + Basis.of(other).pieces)


def basis_valuation(curve: KummerCurve, bf: BasisFunction, place: Place) -> int:
    """Exact valuation of x^xpow * prod (x - alpha)^(-r) * y^t at a place class.

    Closed-form Kummer ramification data: at the places above infinity
    v(x - alpha) = -e_inf and v(y) = -Lambda/d_inf; above alpha_i
    v(x - alpha_i) = e_i and v(y) = lambda_i/d_i; at a split place (a, y)
    v(x - a) = 1 and v(y) = 0.  Every other linear factor is a unit.
    """
    if curve.is_abstract:
        raise AbstractField("valuations need concrete branch points")
    curve.validate_place(place)
    ram = curve.ram
    if place.kind == "infinity":
        return -ram.e_inf * bf.x_degree() - bf.t * (ram.lam_sum // ram.d_inf)
    if place.kind == "branch":
        center, e, v_y = (curve.alphas[place.i], ram.e[place.i],
                          curve.lambdas[place.i] // ram.d[place.i])
    else:
        center, e, v_y = place.a, 1, 0
    v = e * bf.xpow if center == 0 else 0
    v -= e * sum(r for a, r in bf.factors if a == center)
    return v + bf.t * v_y


# ---------------------------------------------------------------------------
# Divisor shape recognition
# ---------------------------------------------------------------------------

def divisor_shape(curve: KummerCurve, D: Divisor):
    """Decompose D as invariant(A) - delta * Q_infinity; raise otherwise.

    Returns (A: InvariantTuple with unbounded nonnegative coefficients,
    delta in {0, 1}).
    """
    if any(p.kind == "split" for p in D.table):
        raise UnsupportedShape("divisor has split-place support")
    n = []
    for i in range(curve.r):
        coeffs = {D.coeff(p) for p in curve.branch_places(i)}
        if len(coeffs) != 1:
            raise UnsupportedShape(f"branch {i} conjugates carry unequal coefficients")
        ni = coeffs.pop()
        if ni < 0:
            raise UnsupportedShape(f"negative coefficient at branch {i}")
        n.append(ni)
    inf = [D.coeff(p) for p in curve.infinity_places()]
    rest = inf[1:]
    if rest:
        if len(set(rest)) != 1:
            raise UnsupportedShape(
                "non-distinguished infinite places carry unequal coefficients")
        n0 = rest[0]
        delta = n0 - inf[0]
    else:
        # single infinite place: delta is ambiguous; prefer delta = 0
        n0, delta = (inf[0], 0) if inf[0] >= 0 else (inf[0] + 1, 1)
    if delta not in (0, 1) or n0 < 0:
        raise UnsupportedShape(
            f"infinite coefficients {inf} are not invariant minus delta*Q_infinity")
    return InvariantTuple(n0, tuple(n)), delta


# ---------------------------------------------------------------------------
# Riemann-Roch bases
# ---------------------------------------------------------------------------

def infinity_functional(curve: KummerCurve, c_inf: int,
                        elem: SpaceElement) -> int:
    """Leading coefficient at Q_infinity of an element of L(A), where A has
    per-place coefficient c_inf at infinity.  The kernel of this map is
    exactly L(A - Q_infinity).

    Only terms of valuation exactly -c_inf count, and a term below raises
    UnsupportedShape.  Their weights agree modulo e_inf (Lambda/d_inf is
    prime to e_inf), so they share one monomial mu = x^u * y^(t mod e_inf)
    of valuation -c_inf, and b(x) * y^t / mu is (y^e_inf / x^(Lambda/d_inf))
    ^(t // e_inf) times a unit that is 1 at Q_infinity.  That quotient takes
    the value omega = conjugate_labels("infinity")[0] at Q_infinity, so the
    functional is elem / mu there: the sum of c * omega^(t // e_inf).
    Raises RationalityError if the places above infinity are not rational.
    """
    F = curve.field
    labels = curve.conjugate_labels("infinity")
    if not labels:
        raise RationalityError(
            "the places above infinity are not rational: "
            f"w^{curve.ram.d_inf} = {curve.a_enc} has no root in GF({F.q})")
    total = 0
    for coeff, bf in elem.terms:
        v = basis_valuation(curve, bf, curve.q_infinity())
        if v < -c_inf:
            raise UnsupportedShape(
                f"term has valuation {v} < {-c_inf} at Q_infinity")
        if v == -c_inf:
            power = F.pow(labels[0], bf.t // curve.ram.e_inf)
            total = F.add(total, F.mul(coeff, power))
    return total


def rr_basis(curve: KummerCurve, D) -> Basis:
    """Basis of L(D) for D of the shape invariant(A) - delta * Q_infinity.

    Accepts either a Divisor or a pair (InvariantTuple, delta), and raises
    UsageError for anything else.  The weight-t
    summand of L(A) is one Run x^j / D * y^t, j = 0..d.  For delta = 1 the
    functional is evaluated once per run, at its top term: the valuation at
    Q_infinity falls as j grows, so no other term reaches -n_0.  The first
    run whose top term it does not kill gives up that term, and every later
    such top term becomes a joined row, itself minus a multiple of it.
    """
    if isinstance(D, Divisor):
        A, delta = divisor_shape(curve, D)
    else:
        A, delta = _items(D, "D (a Divisor or a pair (A, delta))", 2)
        if not isinstance(A, InvariantTuple):
            raise UsageError(f"A = {A!r} is not an InvariantTuple")
        if _integer(delta, "delta") not in (0, 1):
            raise UnsupportedShape(f"delta = {delta} is neither 0 nor 1")
    runs = []
    for t in range(curve.m):
        deg, r = _restricted_summand(curve, A.n0, A.n, t)
        if deg >= 0:
            runs.append(Run(t, tuple((curve.alphas[i], ri) for i, ri in enumerate(r)
                                     if ri), deg))
    tops = [BasisFunction(run.t, run.d, run.factors) for run in runs] if delta else []
    vals = [infinity_functional(curve, A.n0, SpaceElement.single(bf)) for bf in tops]
    pivot = next((i for i, v in enumerate(vals) if v), None)
    if pivot is None:  # delta = 0, or the functional vanishes on L(A)
        return Basis(runs)
    F = curve.field
    pieces = []
    for i, (run, v) in enumerate(zip(runs, vals)):
        if v == 0:
            pieces.append(run)
            continue
        if run.d:
            pieces.append(Run(run.t, run.factors, run.d - 1))
        if i != pivot:
            ratio = F.mul(v, F.inv(vals[pivot]))
            pieces.append(SpaceElement(((1, tops[i]), (F.neg(ratio), tops[pivot]))))
    return Basis(pieces)


# ---------------------------------------------------------------------------
# Evaluation and linear algebra over GF(q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Fibers:
    """Evaluation places that fiber_values found to be whole fibers.

    Only the values fiber_values returns are accepted: a Fibers built
    directly, or by dataclasses.replace, raises TypeError where it is used.
    """

    curve: KummerCurve  # the curve they were checked on
    places: list        # the places as given
    xs: np.ndarray      # the T sorted x-values
    col: np.ndarray     # each place's index into xs
    y: np.ndarray       # each place's y-value
    _seal = None        # not a field: fiber_values sets it to _SEAL


_SEAL = object()  # set on a Fibers by fiber_values, and by nothing else


def fiber_values(curve: KummerCurve, places: list[Place]) -> Fibers:
    """The places as Fibers, if they are whole fibers: m split places with
    distinct y-values above each of one or more x-values, on the curve."""
    if not places:
        raise NotWholeFibers("no places: evaluation needs at least one whole fiber")
    fibers = {}
    for p in places:
        if p.kind != "split":
            raise NotWholeFibers(f"{p} is not a split place")
        fibers.setdefault(p.a, []).append(p.y)
    for a, ys in fibers.items():
        if len(ys) != curve.m or len(set(ys)) != curve.m:
            raise NotWholeFibers(
                f"x = {a} carries {len(ys)} places with {len(set(ys))} distinct "
                f"y-values, not the m = {curve.m} of a whole fiber")
    fibers = Fibers(curve, places, *curve.split_coordinates(places))
    object.__setattr__(fibers, "_seal", _SEAL)  # frozen, and not an argument
    return fibers


def _require_fibers(curve: KummerCurve, fibers) -> Fibers:
    if not isinstance(fibers, Fibers) or fibers._seal is not _SEAL:
        raise TypeError("evaluate at Fibers, built by fiber_values(curve, places)")
    if fibers.curve is not curve and fibers.curve.to_json() != curve.to_json():
        raise InvalidPlace("the fibers were checked on another curve")
    return fibers


def _check_terms(basis: Basis, xs: np.ndarray, m: int):
    """(sets, negative) of the terms c * x^j / D * y^t of the basis: sets
    maps each distinct factor set D, in order of first use, to {alpha: r}
    with r summed where D names alpha twice; negative tells whether a term
    has j < 0.  eval_matrix and x_part_rank read D's powers from sets.

    Raises UnsupportedShape if a term has a weight outside [0, m), then
    PoleAtEvaluationPlace if one has a pole at one of the x-values xs: a
    factor (x - alpha)^(-r) with r > 0 and alpha among them, or a negative
    power of x with 0 among them.  It reads the pieces (a run's powers are
    0..d), with no field operations."""
    sets, weights, negative = {}, set(), False
    for piece in basis.pieces:
        for t, f, j in ([(piece.t, piece.factors, 0)] if isinstance(piece, Run)
                        else [(bf.t, bf.factors, bf.xpow) for _, bf in piece.terms]):
            weights.add(t)
            negative = negative or j < 0
            if f not in sets:
                sets[f] = {}
                for alpha, r in f:
                    sets[f][alpha] = sets[f].get(alpha, 0) + r
    if weights and not 0 <= min(weights) <= max(weights) < m:
        raise UnsupportedShape(f"basis weights {sorted(weights)} leave [0, {m})")
    values = set(xs.tolist())
    poles = [alpha for exps in sets.values() for alpha, r in exps.items()
             if r > 0 and alpha in values]
    if poles:
        raise PoleAtEvaluationPlace(f"pole at x = {poles[0]} among evaluation places")
    if 0 in values and negative:
        raise PoleAtEvaluationPlace("pole at x = 0 among evaluation places")
    return sets, negative


def split_place_list(curve: KummerCurve, a_values=None) -> Fibers:
    """The fibers above distinct completely split x-values, places sorted;
    a_values None reads as every completely split value of the curve."""
    F = curve._require_field()
    if a_values is None:
        a_values = completely_split_values(curve)
    values = sorted(F._element(v, "x") for v in a_values)
    repeated = sorted({a for a, b in zip(values, values[1:]) if a == b})
    if repeated:
        raise NotWholeFibers(f"split x-values repeated: {repeated}")
    return fiber_values(curve, [p for a in values for p in split_fiber(curve, a)])


def eval_matrix(curve: KummerCurve, basis, fibers: Fibers) -> np.ndarray:
    """The basis (a Basis or a list of SpaceElements) at whole fibers, in
    weight coordinates: with xs the T sorted x-values, entry [i, t * T + j]
    is the sum of c * b(xs[j]) over the terms c * b(x) * y^t of row i.  At
    the place (xs[j], y) the row takes the value sum_t [i, t * T + j] * y^t,
    so this k x mT matrix has the generator matrix's shape and rank.

    All terms are evaluated together.  Every term c * x^j / D is a row of
    one exponent matrix over the bases x, x - alpha_1, ..., x - alpha_A (the
    A distinct alpha's): (j, -r_1, ..., -r_A), r summed when a set names an
    alpha twice.  One sub_arr gives the (A + 1) x T base values, one
    pow_prod every term's x^j / D at xs, and one mul_arr multiplies in the
    coefficients.  Terms that share a (row, weight) cell are summed by
    add_arr, one call per term beyond the first in the fullest cell, so the
    field kernel calls grow with neither the number of terms nor of
    denominators.
    """
    F = curve.field
    xs = _require_fibers(curve, fibers).xs
    basis = Basis.of(basis)
    T, m = len(xs), curve.m
    out = np.zeros((len(basis), m * T), dtype=np.int64)
    sets, _ = _check_terms(basis, xs, m)
    index = dict(zip(sets, range(len(sets))))
    spans = []  # (first row, t, first j, number of terms, c, index of D)
    for start, piece in zip(basis.starts, basis.pieces):
        if isinstance(piece, Run):
            spans.append((start, piece.t, 0, piece.d + 1, 1, index[piece.factors]))
        else:
            spans += [(start, bf.t, bf.xpow, 1, c, index[bf.factors])
                      for c, bf in piece.terms]
    if not spans:
        return out
    spans = np.array(spans, dtype=np.int64).T
    size = spans[3]  # a run's d + 1 terms come from np.arange and np.repeat
    step = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    row, t, xpow, _, coeff, den = (np.repeat(column, size) for column in spans)
    row, xpow = row + step, xpow + step
    col = {alpha: j for j, alpha in
           enumerate(dict.fromkeys(alpha for e in sets.values() for alpha in e), 1)}
    exps = np.zeros((len(sets), len(col) + 1), dtype=np.int64)
    for k, e in enumerate(sets.values()):  # prod (x - alpha)^(-r) at xs
        for alpha, r in e.items():
            exps[k, col[alpha]] = -r
    exps = exps[den]
    exps[:, 0] = xpow
    bases = F.sub_arr(xs[None, :], np.array([0, *col], dtype=np.int64)[:, None])
    vals = F.mul_arr(F.pow_prod(bases, exps), coeff[:, None])
    # a (row, weight) cell may hold several terms: fancy assignment keeps
    # one write per repeated index and np.add.at adds integers, not field
    # elements, so pass r adds the r-th term of every cell by add_arr
    cells = out.reshape(len(basis) * m, T)  # cells[i * m + t]: weight t of row i
    cell = row * m + t
    order = np.argsort(cell, kind="stable")
    cell, vals = cell[order], vals[order]
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)
    cells[cell[rank == 0]] = vals[rank == 0]
    for r in range(1, rank.max() + 1):
        here = cell[rank == r]
        cells[here] = F.add_arr(cells[here], vals[rank == r])
    return out


def x_part_rank(curve: KummerCurve, basis, fibers: Fibers) -> int:
    """Rank of eval_matrix(curve, basis, fibers), in one pass over the
    weights of the basis.

    The basis passes eval_matrix's term check first (UnsupportedShape for
    a weight outside [0, m), PoleAtEvaluationPlace for a pole), so no
    denominator, nor any lcm of them, vanishes at one of the T x-values; a
    factor set that names an alpha twice counts the sum of its powers.  The
    matrix is [R_0 | ... | R_(m-1)], one block of T columns per weight,
    and its rank is unchanged when one block R_w is replaced by its image
    under a linear map that is injective on the span of R_w's rows.
    Scaling the columns by L, reading off the coefficients of polynomials
    of degree < T, and the identity (the evaluated values) are such maps.
    Eliminating by a row whose only part is at w touches only block w.  So
    each weight is handled on its own, adds a count, and puts either
    nothing or one column block into a single matrix, whose gf_rank
    completes the rank.

    At weight w, L is the lcm of the denominators D of the terms there
    (the highest power of each factor), and a term c x^j / D becomes the
    polynomial c x^j (L / D).  Side 1 is the runs of one factor set D_1,
    rows x^j / D_1 with j = 0..d for the longest of them, of the highest
    degree d + deg c_1, where c_1 = L / D_1 (if there is no run, d = -1 and
    c_1 = 1).  Its rows span the multiples of c_1 of degree <= d + deg c_1,
    and the residue of any polynomial P modulo that span is (P mod c_1, the
    coefficients of P div c_1 in degrees > d); where deg P > d + deg c_1
    it is deg c_1 plus the top quotient degree, so cancelling terms count
    no degree.  While every polynomial at w has degree < T, the weight adds
    d + 1 and the residues of the other parts.  Each one-term row and each
    run but side 1's is a span c x^j L / D, j = j_0..j_0 + n - 1 (a run has
    c = 1, j_0 = 0 and n = d + 1), and each of its rows takes the first of
    three rules that applies:
      * if L / D = c_1, the residue is c at quotient degree j when j > d,
        and 0 otherwise (set by index);
      * if L / D = 1 and j < deg c_1, the term is its own remainder (set by
        index);
      * otherwise the row is divided by c_1, as is every row of several
        terms.
    A stacked pair's shorter run at each weight takes the first rule or the
    second, so the divisions are few.

    A weight is saturated when its single-weight rows reach rank T: side 1
    alone with d + 1 >= T, whatever other rows are there (its rows are a
    Vandermonde matrix times the invertible diagonal 1 / D_1), or side 1
    plus the residues of the other single-weight rows, all of degree < T,
    when only parts of rows that join weights reach degree T (checked by
    its own gf_rank).  It adds T, and every other part at that weight
    drops out.

    A basis the residues cannot rank goes to the oracle, gf_rank of
    eval_matrix of the whole basis: one with a numerator factor (r < 0) or
    a negative power of x, or with an unsaturated weight where a polynomial
    reaches degree T.

    No code's rr_basis reaches the oracle.  It is one run x^j / D, j = 0..d,
    per weight, with factors r > 0 and powers j >= 0, and for delta = 1 at
    most one joined row per weight: the functional takes only a summand's
    top term x^(d+1) / D off its run (the valuation at Q_infinity falls as
    j grows, so only the top term can reach -n_0).  So at each weight
    L = D and c_1 = 1, and either d + 1 >= T saturates the weight, or every
    polynomial at it has degree <= d + 1 < T.  No bound on deg G is needed.

    Nor does the stack C.basis + E.basis of a pair that lcp_build_general
    builds: A is non-special of degree g with n_0 = 0 and 0 <= n_i < e_i,
    and Phi holds totally ramified branches.  Let N = s |Phi|.
      * In the floors of _restricted_summand, r_i = (n_i d_i + w lambda_i)
        // m grows by s at each i in Phi (d_i = 1, n_i grows by s m), and
        the degree of G's runs exceeds A's by T - N.  So with x^j / D_w,
        j <= a_w, the weight-w run of L(A), C's rows at w are x^j / D_w,
        j <= a_w + T - N, and E's are x^j / (D_w phi^s), j <= a_w + N,
        where phi = prod_{i in Phi} (x - alpha_i): L(H) is phi^(-s) times
        L(A - Q_inf + N div_inf(x)).
      * a_0 = 0 and D_0 = 1 (n_0 = 0 and n_i d_i < m), and l(A) = 1 is the
        sum of a_w + 1 over the runs, so a_w < 0 for w >= 1.
      * At weight 0, C's top term x^(T - N) and E's x^N / phi^s have
        valuation exactly minus their coefficient at Q_inf, (T - N) e_inf
        and 0, so the functional gives each the value omega^0 = 1: weight 0
        is the pivot, and its top term is left only in joined rows.  Where
        d_inf = 1, divisor_shape folds G's -Q_inf into n_0 instead, and C's
        run stops at j = T - N - 1 all the same.
      * s <= last gives s m |Phi| < mT - g + 1.  For g >= 1, s >= 1, so
        1 <= N < T.  For g = 0, N = 0 or N = T leaves E or C with k = 0 and
        no rows, so the stack is one code's basis; any other N is as above.
    Every factor set at weight w divides D_w phi^s, so L / D has degree at
    most N on C's parts and 0 on E's, and d_1 + cols, at most the highest
    degree at w, stays below T at every w >= 1: C's parts have degree
    <= a_w + T < T, and E's <= a_w + N < T.  At weight 0 every part has
    degree < T except the pivot's top in C's joined rows, of degree T.
    There side 1 is C's run (T - N rows, n_1 = T - 1 > N - 1), c_1 = phi^s
    has degree N, and E's rows x^j, j < N, are N unit residues (the second
    rule): the T - N + N single-weight rows saturate weight 0.  So only
    hand-built bases reach the oracle.  A list of rows is read as Basis.of
    reads it: runs where rows x^0 / D, x^1 / D, ... follow one another,
    single rows elsewhere.
    """
    field = curve.field
    xs = _require_fibers(curve, fibers).xs
    basis = Basis.of(basis)
    sets, negative = _check_terms(basis, xs, curve.m)
    T = len(xs)
    # a numerator factor or a negative power of x: not a polynomial over a denominator
    if any(r < 0 for e in sets.values() for r in e.values()) or negative:
        return gf_rank(field, eval_matrix(curve, basis, fibers))
    # weight -> {D: [(first row, d)]} of the runs x^j / D, j = 0..d, and
    # weight -> {row: [(c, j, D)]} of the other rows' terms there, in basis order
    runs, rest, joined = {}, {}, set()
    for k, p in zip(basis.starts, basis.pieces):
        if isinstance(p, Run):  # nearly every row of a code's basis
            runs.setdefault(p.t, {}).setdefault(p.factors, []).append((k, p.d))
            continue
        for c, bf in p.terms:
            rest.setdefault(bf.t, {}).setdefault(k, []).append((c, bf.xpow, bf.factors))
        if len({bf.t for _, bf in p.terms}) > 1:
            joined.add(k)
    rank, width, index, blocks = 0, 0, {}, []  # index: row -> its row of the matrix
    for w in sorted(runs.keys() | rest.keys()):
        groups, terms_at = runs.get(w, {}), rest.get(w, {})
        factor_sets = set(groups).union(*({f for _, _, f in terms}
                                          for terms in terms_at.values()))
        top = {}  # L = prod (x - alpha)^top[alpha]
        for f in factor_sets:
            for alpha, r in sets[f].items():
                top[alpha] = max(top.get(alpha, 0), r)
        # L / D = prod (x - alpha)^ratio[D][alpha], of degree deg[D]
        ratio = {f: {alpha: e - sets[f].get(alpha, 0) for alpha, e in top.items()
                     if e != sets[f].get(alpha, 0)} for f in factor_sets}
        deg = {f: sum(ratio[f].values()) for f in factor_sets}
        side, d1, n1 = None, -1, -1  # n1 = d1 + deg c_1
        for f, rs in groups.items():
            d = max(d for _, d in rs)
            if d + deg[f] > n1:
                side, d1, n1 = f, d, d + deg[f]
        other = [(k, d, f) for f, rs in groups.items() if f != side for k, d in rs]
        ids = list(terms_at) + [k + j for k, d, _ in other for j in range(d + 1)]
        if d1 + 1 >= T or not ids:  # saturated, or side 1 alone (L = D_1)
            rank += min(d1 + 1, T)
            continue
        c1, e1 = ratio.get(side, {}), n1 - d1  # c_1 = L / D_1 (1 if no side 1)
        top_degree = max([n1] + [d + deg[f] for _, d, f in other] + [
            j + deg[f] for terms in terms_at.values() for _, j, f in terms])
        R = np.zeros((len(ids), top_degree - d1), dtype=np.int64)
        at = {k: i for i, k in enumerate(ids)}
        divide = [(at[k], terms) for k, terms in terms_at.items() if len(terms) > 1]
        # spans c x^j L / D, j = j0..j0 + n - 1, from row i of R
        spans = [(at[k], *terms[0], 1) for k, terms in terms_at.items()
                 if len(terms) == 1] + [(at[k], 1, 0, f, d + 1) for k, d, f in other]
        for i, c, j0, f, n in spans:  # x^j c_1 with j <= d_1 is 0: skipped
            for j in range(max(j0, d1 + 1) if ratio[f] == c1 else j0, j0 + n):
                if ratio[f] == c1:  # x^j c_1: c at quotient degree j
                    R[i + j - j0, j - d1 - 1 + e1] = c
                elif not ratio[f] and j < e1:  # x^j, j < deg c_1: itself
                    R[i + j - j0, j] = c
                else:
                    divide.append((i + j - j0, [(c, j, f)]))

        def poly(c, j, exps):  # c x^j prod (x - alpha)^e
            return math.prod((Poly.linear(field, a) for a, e in exps.items()
                              for _ in range(e)), start=Poly(field, [0] * j + [c]))

        for i, terms in divide:  # P = sum c x^j L / D, then P divmod c_1
            P = sum((poly(c, j, ratio[f]) for c, j, f in terms), Poly(field, []))
            quot, rem = divmod(P, poly(1, 0, c1))
            high = quot.coeffs[d1 + 1:]  # the quotient in degrees > d_1
            R[i, :len(rem.coeffs)], R[i, e1:e1 + len(high)] = rem.coeffs, high

        def cols(rows):  # n - d1, n the highest degree of side 1 and rows
            hit = np.flatnonzero(rows.any(axis=0))
            return max(e1, hit[-1] + 1) if hit.size else e1

        if d1 + cols(R) >= T:  # a polynomial reaches degree T
            local = R[[k not in joined for k in ids]]
            local = local[:, :cols(local)]  # if empty, it adds 0 < T - d1 - 1
            if d1 + local.shape[1] < T and local.size and \
                    d1 + 1 + gf_rank(field, local) == T:
                rank += T
                continue
            return gf_rank(field, eval_matrix(curve, basis, fibers))
        rank += d1 + 1
        block = R[:, :cols(R)]
        for k in ids:
            index.setdefault(k, len(index))
        blocks.append((ids, width, block))
        width += block.shape[1]
    M = np.zeros((len(index), width), dtype=np.int64)
    for ids, col, block in blocks:
        M[[index[k] for k in ids], col:col + block.shape[1]] = block
    return rank + (gf_rank(field, M) if M.size else 0)


def gf_rank(field: FieldSpec, matrix: np.ndarray) -> int:
    """Rank over GF(q) by vectorized Gaussian elimination.

    A column with one nonzero entry pivots on its row and touches no other
    row, so those rows are peeled first, one each.  The pivot row is not
    normalized: each row below is reduced by its own multiple
    pivot^-1 * entry, which leaves the rank unchanged.
    """
    M = np.array(matrix, dtype=np.int64)
    single = np.count_nonzero(M, axis=0) == 1
    peeled = np.unique(np.nonzero(M[:, single])[0])
    M = np.delete(M, peeled, axis=0)[:, ~single]
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nonzero = rank + np.flatnonzero(M[rank:, c])
        if len(nonzero) == 0:
            continue
        if nonzero[0] != rank:
            M[[rank, nonzero[0]]] = M[[nonzero[0], rank]]
        # the other rows with a nonzero entry in column c kept their places
        idx = nonzero[1:]
        if len(idx):
            factors = field.mul_arr(M[idx, c], field.inv(int(M[rank, c])))
            M[idx] = field.sub_arr(
                M[idx], field.mul_arr(factors[:, None], M[rank][None, :]))
        rank += 1
    return len(peeled) + rank


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------

@dataclass
class LinearCode:
    field: FieldSpec
    n: int
    k: int
    divisor_G: Divisor
    designed_distance: int
    basis: Basis
    fibers: Fibers                  # the n evaluation places, and the curve

    def gen(self) -> np.ndarray:
        """The k x n generator matrix, evaluated on every call.

        Entry [i, j] is basis[i] at fibers.places[j] = (a, y): the sum over
        t of the weight-t block of eval_matrix at a times y^t.
        """
        F = self.field
        T, col, y_arr = len(self.fibers.xs), self.fibers.col, self.fibers.y
        X = eval_matrix(self.fibers.curve, self.basis, self.fibers)
        gen = np.zeros((self.k, self.n), dtype=np.int64)
        for t in range(X.shape[1] // T):
            block = X[:, t * T:(t + 1) * T]
            rows = np.flatnonzero(block.any(axis=1))
            if rows.size:
                term = F.mul_arr(block[rows][:, col], F.pow_arr(y_arr, t)[None, :])
                gen[rows] = F.add_arr(gen[rows], term)
        return gen

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "field": {"p": self.field.p, "k": self.field.k},
            "designed_distance": self.designed_distance,
            "rows": self.gen().tolist(),
        }


def build_code(curve: KummerCurve, G: Divisor, fibers: Fibers) -> LinearCode:
    """Evaluation code of L(G) at whole fibers of split places."""
    n = len(_require_fibers(curve, fibers).places)
    if any(fibers.places[i] == p for p in G.table if p.kind == "split" for i in
           np.flatnonzero((fibers.xs[fibers.col] == p.a) & (fibers.y == p.y))):
        raise SupportOverlap("supp(G) meets the evaluation divisor")
    deg = G.degree
    g = curve.genus
    if not 2 * g - 2 < deg < n:
        raise DegreeOutOfRange(f"need 2g-2 < deg(G) < n, got deg={deg}, n={n}")
    basis = rr_basis(curve, G)
    k = deg - g + 1
    if len(basis) != k:
        raise DimensionMismatch(
            f"basis size {len(basis)} != deg - g + 1 = {k}")
    # x_part_rank makes every check this call makes; the call stays because
    # the benchmark's layer trace requires eval_matrix calls on its workloads
    eval_matrix(curve, basis, fibers)
    # the generator matrix has the rank of its weight-coordinate matrix
    if x_part_rank(curve, basis, fibers) != k:
        raise DimensionMismatch("generator matrix rank below ell(G)")
    return LinearCode(curve.field, n, k, G, n - deg, basis, fibers)


def lcp_verify(C: LinearCode, E: LinearCode) -> bool:
    """True iff the two codes intersect trivially and span everything.

    The stacked generator matrix has the rank of the x-part matrix of the
    stacked bases, since both codes share their evaluation places.
    """
    if C.n != E.n or C.field != E.field or C.fibers.places != E.fibers.places:
        raise LengthMismatch("codes must share length, field and places")
    curve = _require_fibers(C.fibers.curve, C.fibers).curve
    fibers = _require_fibers(curve, E.fibers)
    if C.k + E.k != C.n:
        return False
    return x_part_rank(curve, C.basis + E.basis, fibers) == C.n


def min_distance_exact(code: LinearCode, cap: int = ENUM_CAP) -> int:
    """Minimum Hamming weight by exhaustive codeword enumeration.

    A code with k = 0 has no nonzero word; its distance is n + 1, the
    Singleton bound n - k + 1.  build_code reaches k = 0 only when g = 0
    and deg G = -1, where n + 1 is the designed distance n - deg G.
    """
    F = code.field
    q, k, n = F.q, code.k, code.n
    if q**k > cap:
        raise TooLargeToEnumerate(f"q^k = {q**k} exceeds cap {cap}")
    gen = code.gen()
    best = n + 1
    batch = max(1, min(q**k, 1 << 14))
    total = q**k
    start = 1  # skip the zero message
    while start < total:
        stop = min(start + batch, total)
        msgs = np.arange(start, stop, dtype=np.int64)
        cw = np.zeros((len(msgs), n), dtype=np.int64)
        rest = msgs
        for i in range(k):
            digit = rest % q
            rest = rest // q
            nz = digit != 0
            if nz.any():
                cw[nz] = F.add_arr(cw[nz], F.mul_arr(digit[nz, None],
                                                     gen[i][None, :]))
        weights = (cw != 0).sum(axis=1)
        best = min(best, int(weights.min()))
        start = stop
    return best


# ---------------------------------------------------------------------------
# The complementary-pair construction
# ---------------------------------------------------------------------------

@dataclass
class LCPPair:
    C: LinearCode
    E: LinearCode
    s: int
    A: InvariantTuple
    verified: bool
    gcd_identity: bool
    lmd_identity: bool

    def to_json(self):
        return {
            "params_G": {"n": self.C.n, "k": self.C.k,
                         "designed_distance": self.C.designed_distance},
            "params_H": {"n": self.E.n, "k": self.E.k,
                         "designed_distance": self.E.designed_distance},
            "s": self.s,
            "A": self.A.to_json(),
            "verified": self.verified,
            "gcd_identity": self.gcd_identity,
            "lmd_identity": self.lmd_identity,
        }


def s_interval(curve: KummerCurve, n: int, n_phi: int):
    """Open interval of admissible s values for the pair construction."""
    g = curve.genus
    den = curve.m * n_phi
    first = (g - 1) // den + 1        # floor((g - 1) / den) + 1
    last = -((g - 1 - n) // den) - 1  # ceil((n - g + 1) / den) - 1
    if first > last:
        raise SRangeEmpty(
            f"no integer strictly between {g - 1}/{den} and {n - g + 1}/{den}")
    return first, last


def lcp_build_general(curve: KummerCurve, A: InvariantTuple, phi_indices,
                      split_values=None, s: int | None = None) -> LCPPair:
    """Build the pair of codes from a non-special degree-g tuple A.

    G = A - Q_inf + (t - s*|phi|) * div_inf(x) and
    H = A - Q_inf + s * div_0(prod_{i in phi} (x - alpha_i)),
    evaluated at the places above the given completely split x-values
    (split_values None: every completely split value).
    """
    phi_indices = sorted({_integer(i, "Phi index") for i in phi_indices})
    s = s if s is None else _integer(s, "s")
    report = criterion_check(curve, A, mode="cond3")
    if not report.passed:
        raise NotNonSpecial(f"tuple {A} is not non-special of degree g")
    if A.n0 != 0:
        raise NotNonSpecial("the construction requires coefficient 0 at infinity")
    if not phi_indices or not all(0 <= i < curve.r for i in phi_indices):
        raise RampPreconditionViolated(
            f"Phi {phi_indices} must be a nonempty set of indices in [0, {curve.r})")
    for i in phi_indices:
        if curve.ram.d[i] != 1:
            raise RampPreconditionViolated(
                f"branch {i} (lambda={curve.lambdas[i]}) is not totally ramified")
    fibers = split_place_list(curve, split_values)
    t = len(fibers.xs)
    n_phi = len(phi_indices)
    first, last = s_interval(curve, len(fibers.places), n_phi)
    if s is None:
        s = first
    if not first <= s <= last:
        raise SRangeEmpty(f"s={s} outside the admissible range [{first}, {last}]")

    base = invariant_divisor(curve, A) - Divisor({curve.q_infinity(): 1})
    x_pole = x_pole_divisor(curve)
    # phi = prod_{i in Phi} (x - alpha_i), and div_0(phi) = div(phi) + |Phi| div_inf(x)
    phi = principal_divisor(curve, {curve.alphas[i]: 1 for i in phi_indices})
    G = base + (t - s * n_phi) * x_pole
    H = base + s * (phi + n_phi * x_pole)

    code_G = build_code(curve, G, fibers)
    code_H = build_code(curve, H, fibers)
    verified = lcp_verify(code_G, code_H)

    # divisor identities of the construction
    gcd_ok = G.gcd_min(H) == base
    # h = prod over the split values (x - a): lmd(G, H) = base + D + s div(phi)
    # - div(h), and the zeros of h are the places D, so div(h) = D - t
    # div_inf(x) and D cancels
    lmd_ok = G.lmd_max(H) - base == s * phi + t * x_pole

    return LCPPair(code_G, code_H, s, A, verified, gcd_ok, lmd_ok)


#: regime name -> (lambda pattern of (m, r), coefficient family of (m, r, k))
REGIMES = {
    "half_single": (lambda m, r: [1] * (r - 1) + [m // 2],
                    lambda m, r, k: coeffs_half_single(m, r, 0)),
    "half_double_N1": (lambda m, r: [1] * (r - 2) + [m // 2, m // 2],
                       lambda m, r, k: coeffs_half_double(m, r, 1)),
    "half_double_N2": (lambda m, r: [1] * (r - 2) + [m // 2, m // 2],
                       lambda m, r, k: coeffs_half_double(m, r, 2)),
    "lambda_two": (lambda m, r: [1] * (r - 1) + [2],
                   lambda m, r, k: coeffs_lambda_two(m, r, 0, k)),
}


def lcp_build_regime(curve: KummerCurve, regime: str, split_values=None,
                     s: int | None = None, k: int = 1) -> LCPPair:
    """Pair construction specialized to a lambda-pattern family.

    Picks the non-special tuple A from the matching closed-form family,
    takes Phi over all totally ramified lambda=1 branch points, and runs the
    general construction; the specialized degree formulas are re-checked.
    """
    if regime not in REGIMES:
        raise RegimeViolation(f"unknown regime {regime!r}")
    pattern, family = REGIMES[regime]
    m, r = curve.m, curve.r
    if sorted(curve.lambdas) != sorted(pattern(m, r)):
        raise RegimeViolation(
            f"lambda pattern {curve.lambdas} does not match regime {regime!r}")
    tup = family(m, r, k)
    # the family orders coefficients ones-first: curve indices in that order
    order = sorted(range(r), key=lambda i: curve.lambdas[i] != 1)
    A = InvariantTuple(tup.n0, tuple(v for _, v in sorted(zip(order, tup.n))))
    n_phi = curve.lambdas.count(1)

    pair = lcp_build_general(curve, A, order[:n_phi], split_values, s)

    n = pair.C.n
    g = curve.genus
    want_G = n - pair.s * m * n_phi + g - 1
    want_H = pair.s * m * n_phi + g - 1
    if pair.C.divisor_G.degree != want_G or pair.E.divisor_G.degree != want_H:
        raise FormulaMismatch(
            f"specialized degrees ({want_G}, {want_H}) disagree with the built "
            f"pair ({pair.C.divisor_G.degree}, {pair.E.divisor_G.degree})")
    return pair
