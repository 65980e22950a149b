"""Exact arithmetic in GF(p^k) and univariate polynomials over it.

Elements are canonically encoded as integers: an element with coefficient
vector (c_0, ..., c_{k-1}) over GF(p) encodes as enc = sum c_i * p^i, a
bijection onto {0, ..., q-1}.  These plain integers are the only field
values: every operation takes and returns encodings.

Field orders are capped at q <= 2^16 (:data:`MAX_ORDER`); a larger order
raises :class:`~kummerlcp.errors.FieldTooLarge`.  Every field is built one
way: the canonical modulus is found by trial division with :class:`Poly`
over GF(p), and the discrete-log tables come from the modulus' companion
matrix by doubling.  The tables carry a zero sentinel, so a product, scalar
or vectorized, is one table lookup.  Addition and negation each run one
digit loop over the k coefficients (a single digit in a prime field), the
same code for integers and for int64 arrays.  A product of powers of
several arrays (pow_prod) is one integer matrix product of logarithms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeZero,
    FieldTooLarge,
    FormulaMismatch,
    NotAnElement,
    NotAnInteger,
    NotPrime,
    ZeroPolynomial,
)

#: largest supported field order; every field up to it carries log/exp tables
MAX_ORDER = 1 << 16

#: degree of the zero polynomial
NEG_INF = float("-inf")


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _integer(v, what: str) -> int:
    """v as an int, if it is a Python or numpy integer and not a bool;
    anything else raises NotAnInteger, never truncates (4.5 is not 4)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise NotAnInteger(f"{what} = {v!r} is not an integer")
    return int(v)


def _canonical_modulus(p, k):
    """Least monic irreducible of degree k over GF(p), coefficients low to
    high: candidates are scanned by encoding, the constant term first."""
    if k == 1:
        return (0, 1)
    Fp = make_field(p, 1)

    def monic(deg):
        for enc in range(p ** deg):
            yield Poly(Fp, [enc // p ** i % p for i in range(deg)] + [1])

    # irreducible <=> no monic factor of degree 1..k//2
    divisors = [d for deg in range(1, k // 2 + 1) for d in monic(deg)]
    for cand in monic(k):
        if all(not (cand % d).is_zero() for d in divisors):
            return cand.coeffs
    raise FormulaMismatch(f"no monic irreducible of degree {k} over GF({p})")


def _mat_pow(M, e, p):
    """M ** e over GF(p), for a square int64 matrix with entries in [0, p)."""
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# Field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(p^k) with a fixed canonical modulus.

    Immutable after construction; all operations are pure and safe to share
    across workers.  Use :func:`make_field` rather than the constructor.
    """

    def __init__(self, p: int, k: int):
        p, k = _integer(p, "p"), _integer(k, "k")
        if k < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {k}")
        # the cap first: it bounds p ** k and the trial division of p
        # (p >= 2 and k > 16 already give p ** k > 2^16)
        if p > MAX_ORDER or (p > 1 and (k >= MAX_ORDER.bit_length()
                                        or p ** k > MAX_ORDER)):
            raise FieldTooLarge(f"field order {p}^{k} exceeds cap {MAX_ORDER}")
        if prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k)
        self._pows = tuple(p ** i for i in range(k))
        self._build_tables()

    def _build_tables(self):
        """Log/exp tables from the companion matrix C of the modulus.

        The element a acts on coefficient vectors as M_a = sum digit_i(a) C^i.
        Every int64 product below stays under k * p^2 < 2^33.
        """
        p, k, q = self.p, self.k, self.q
        C = np.zeros((k, k), dtype=np.int64)  # multiplication by x
        C[np.arange(1, k), np.arange(k - 1)] = 1
        C[:, -1] = -np.array(self.modulus[:k]) % p
        C_pows = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            C_pows.append(C_pows[-1] @ C % p)

        def action(a):
            return sum(a // pw % p * Ci for pw, Ci in zip(self._pows, C_pows)) % p

        factors = prime_factors(q - 1)
        identity = np.eye(k, dtype=np.int64)
        gen = next((a for a in range(2, q)
                    if all((_mat_pow(action(a), (q - 1) // f, p) != identity).any()
                           for f in factors)),
                   1)  # q == 2: the group is trivial
        # rows g^0..g^(L-1) stacked on their images under g^L, L doubling
        V = identity[:1]
        step = action(gen)
        while len(V) < q - 1:
            V = np.vstack([V, V @ step.T % p])
            step = step @ step % p
        exp = V[:q - 1] @ np.array(self._pows)
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # zero sentinel: log 0 lands any sum with a zero term in the zeros
        # that follow two periods of powers
        log[0] = 2 * (q - 1)
        self.generator = gen
        self._exp = np.concatenate([exp, exp, np.zeros(2 * (q - 1) + 1, np.int64)])
        self._log = log

    def _element(self, v, what: str) -> int:
        """v as the encoding of an element: a Python or numpy integer, not a
        bool, in [0, q).  Anything else raises NotAnElement, never truncates."""
        if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                or not 0 <= v < self.q):
            raise NotAnElement(
                f"{what} = {v!r} encodes no element: not an integer in [0, {self.q})")
        return int(v)

    # -- scalar ops on encodings --

    def add(self, a: int, b: int) -> int:
        """a + b digit by digit; the same loop serves add_arr, since it runs
        unchanged on int64 arrays (which broadcast)."""
        p = self.p
        out = 0
        for pw in self._pows:
            out += (((a // pw) + (b // pw)) % p) * pw
        return out

    def neg(self, a: int) -> int:
        """-a digit by digit; the same loop serves neg_arr."""
        p = self.p
        out = 0
        for pw in self._pows:
            out += ((-(a // pw)) % p) * pw
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self._exp[(-int(self._log[a])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    # -- vectorized ops on numpy arrays of encodings --

    def add_arr(self, a, b):
        return self.add(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def neg_arr(self, a):
        return self.neg(np.asarray(a, dtype=np.int64))

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        # int64 first: a bool array must read as 0/1, not as an index mask
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._exp[self._log[a] + self._log[b]]

    def pow_arr(self, a, e):
        """a ** e elementwise, for an integer e or an integer array that
        broadcasts against a; 0 ** 0 = 1, as in pow."""
        a, e = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(e, dtype=np.int64))
        zero = a == 0
        if (e[zero] < 0).any():
            raise ZeroDivisionError("negative power of zero")
        return np.where(zero, e == 0, self._exp[(self._log[a] * e) % (self.q - 1)])

    def pow_prod(self, bases, exps):
        """Row i is prod_j bases[j] ** exps[i, j], elementwise over the
        columns of bases (A x T, with exps D x A): one integer matrix product
        of logarithms.  Zero bases follow pow_arr: 0 ** 0 = 1, a positive
        power is 0 and a negative one raises.  Those masks (made only when a
        base is 0) read the exponents before they are reduced modulo q - 1,
        so the result is exact for any int64 exponent."""
        bases = np.asarray(bases, dtype=np.int64)
        exps = np.asarray(exps, dtype=np.int64)
        zero = (bases == 0).astype(np.int64)
        if zero.any() and ((exps < 0) @ zero).any():
            raise ZeroDivisionError("negative power of zero")
        # log 0 is the sentinel 2 (q - 1): a zero base adds 0 modulo q - 1
        out = self._exp[(exps % (self.q - 1)) @ self._log[bases] % (self.q - 1)]
        return np.where((exps > 0) @ zero > 0, 0, out) if zero.any() else out

    # -- misc --

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})"


# typed=True: a float or bool that reached it would miss the entry of the equal int
_fields = functools.lru_cache(maxsize=None, typed=True)(FieldSpec)


def make_field(p: int, k: int) -> FieldSpec:
    """Construct (and cache) GF(p^k) with the canonical modulus.  p and k
    are checked before the cache, which would raise TypeError on a list."""
    return _fields(_integer(p, "p"), _integer(k, "k"))


# the cache's handles, as on an lru_cache function
make_field.cache_clear, make_field.__wrapped__ = _fields.cache_clear, FieldSpec


# ---------------------------------------------------------------------------
# Polynomials over GF(p^k)
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with coefficients stored as encodings, low to high.

    Trailing zeros are trimmed; the zero polynomial has degree NEG_INF.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        """coeffs are encodings, low to high: anything but an integer in
        [0, q) raises NotAnElement, never truncates (1.5 is not 1)."""
        cs = [c if type(c) is int and 0 <= c < field.q else field._element(c, "coeff")
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: FieldSpec, ints) -> "Poly":
        """Build from integer coefficients, reduced into the prime subfield."""
        return cls(field, [int(c) % field.p for c in ints])

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, [1])

    @classmethod
    def linear(cls, field: FieldSpec, alpha: int) -> "Poly":
        """x - alpha."""
        return cls(field, [field.neg(int(alpha)), 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.add(a, b))
        return Poly(F, out)

    def __neg__(self):
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly(F, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(a, c) for a in self.coeffs])

    def __pow__(self, e: int):
        out = Poly.one(self.field)
        for _ in range(e):
            out = out * self
        return out

    def __divmod__(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lead = F.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            lead = rem[-1]
            if lead:
                factor = F.mul(lead, inv_lead)
                shift = len(rem) - 1 - db
                quot[shift] = factor
                for i, bc in enumerate(other.coeffs):
                    rem[shift + i] = F.sub(rem[shift + i], F.mul(factor, bc))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other) -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.scale(self.field.inv(a.coeffs[-1]))  # monic normalization

    def derivative(self) -> "Poly":
        F = self.field  # i % p encodes the integer i of the prime subfield
        return Poly(F, [F.mul(c, i % F.p) for i, c in enumerate(self.coeffs) if i])

    def eval_enc(self, a: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def __repr__(self):
        return f"Poly(GF({self.field.q}), {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# Root extraction and analysis
# ---------------------------------------------------------------------------

def nth_roots(F: FieldSpec, c: int, n: int) -> list[int]:
    """All y in F with y^n = c, sorted.

    Discrete logarithm: y^n = c for c != 0 means n * log y = log c modulo
    q - 1.  With g = gcd(n, q - 1) that congruence is solvable iff g divides
    log c, and then has exactly g solutions, one base solution plus the
    multiples of (q - 1)/g.  O(g) work instead of a scan of the field.
    """
    n = _integer(n, "n")
    if n < 1:
        raise DegreeZero(f"root degree n must be >= 1, got {n}")
    if F._element(c, "c") == 0:
        return [0]
    order = F.q - 1
    g = math.gcd(n, order)
    log_c = int(F._log[c])
    hits = []
    if log_c % g == 0:
        step = order // g
        base = log_c // g * pow(n // g, -1, step) % step
        hits = sorted(int(F._exp[base + j * step]) for j in range(g))
    # power test: nonempty iff c^((q-1)/gcd(n, q-1)) == 1
    if bool(hits) != (F.pow(c, order // g) == 1):
        raise FormulaMismatch(
            f"root solve for y^{n} = {c} disagrees with Euler's criterion")
    return hits


@dataclass
class PolyAnalysis:
    roots: list  # (encoding, multiplicity) pairs, sorted by encoding
    separable: bool


def poly_analyze(f: Poly) -> PolyAnalysis:
    """Roots in the field (with multiplicity) and separability of f.

    Roots by one Horner pass over every element at once, multiplicity by
    repeated division, separability via gcd(f, f').
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot analyze the zero polynomial")
    F = f.field
    xs = np.arange(F.q, dtype=np.int64)
    vals = np.zeros(F.q, dtype=np.int64)
    for c in reversed(f.coeffs):
        vals = F.add_arr(F.mul_arr(vals, xs), c)
    roots = []
    work = f
    for a in np.flatnonzero(vals == 0).tolist():
        mult = 0
        lin = Poly.linear(F, a)
        while work.eval_enc(a) == 0:
            work = work // lin
            mult += 1
        roots.append((a, mult))
    g = f.gcd(f.derivative())
    separable = g.degree <= 0
    return PolyAnalysis(roots=roots, separable=separable)
