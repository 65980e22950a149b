"""Exact arithmetic in GF(p^k) and univariate polynomials over it.

Elements are canonically encoded as integers: an element with coefficient
vector (c_0, ..., c_{k-1}) over GF(p) encodes as enc = sum c_i * p^i, a
bijection onto {0, ..., q-1}.  These plain integers are the only field
values: every operation takes and returns encodings.

Field orders are capped at q <= 2^16 (:data:`MAX_ORDER`); a larger order
raises :class:`~kummerlcp.errors.FieldTooLarge`.  Every field carries a
discrete-log table pair, which makes scalar multiplication O(1) and enables
vectorized numpy operations on whole arrays of encodings (used heavily by
the linear algebra in the codes module).
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
    NotPrime,
    ZeroPolynomial,
)

#: largest supported field order; every field up to it carries log/exp tables
MAX_ORDER = 1 << 16

#: degree of the zero polynomial
NEG_INF = float("-inf")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


# ---------------------------------------------------------------------------
# GF(p)[x] helpers on plain coefficient lists (low-to-high), used only for
# the canonical-modulus search and modular reduction inside FieldSpec.
# ---------------------------------------------------------------------------

def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_rem(a, b, p):
    """Remainder of a modulo monic b over GF(p)."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * bc) % p
        _gfp_trim(a)
        if not a:
            break
        if len(a) - 1 < db:
            break
    return _gfp_trim(a)


def _gfp_monic_polys(p, deg):
    for enc in range(p ** deg):
        coeffs = []
        v = enc
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


def _gfp_is_irreducible(poly, p):
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for div in _gfp_monic_polys(p, d):
            if not _gfp_rem(poly, div, p):
                return False
    return True


def _canonical_modulus(p, k):
    """Least monic irreducible of degree k, scanning the constant term up."""
    if k == 1:
        return (0, 1)
    for cand in _gfp_monic_polys(p, k):
        if _gfp_is_irreducible(cand, p):
            return tuple(cand)
    raise FormulaMismatch(f"no monic irreducible of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# Field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(p^k) with a fixed canonical modulus.

    Immutable after construction; all operations are pure and safe to share
    across workers.  Use :func:`make_field` rather than the constructor.
    """

    def __init__(self, p: int, k: int):
        if k < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {k}")
        # the cap first: it bounds p ** k and the trial division in is_prime
        # (p >= 2 and k > 16 already give p ** k > 2^16)
        if p > MAX_ORDER or (p > 1 and (k >= MAX_ORDER.bit_length()
                                        or p ** k > MAX_ORDER)):
            raise FieldTooLarge(f"field order {p}^{k} exceeds cap {MAX_ORDER}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k)
        self._pows = tuple(p ** i for i in range(k + 1))
        self._build_tables()

    # -- encoding helpers --

    def digits(self, enc: int) -> tuple[int, ...]:
        p = self.p
        return tuple((enc // self._pows[i]) % p for i in range(self.k))

    def from_digits(self, digits) -> int:
        return sum((int(d) % self.p) * self._pows[i] for i, d in enumerate(digits))

    # -- scalar ops on encodings --

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        for i in range(self.k):
            pw = self._pows[i]
            out += (((a // pw) + (b // pw)) % p) * pw
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = 0
        for i in range(self.k):
            pw = self._pows[i]
            out += ((-(a // pw)) % p) * pw
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        da = self.digits(a)
        db = self.digits(b)
        p = self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _gfp_rem(prod, list(self.modulus), p)
        return self.from_digits(rem)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

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

    def _build_tables(self):
        q = self.q

        def power(a, e):  # square-and-multiply, before the tables exist
            result = 1
            while e:
                if e & 1:
                    result = self._mul_poly(result, a)
                a = self._mul_poly(a, a)
                e >>= 1
            return result

        factors = prime_factors(q - 1)
        gen = next((cand for cand in range(2, q)
                    if all(power(cand, (q - 1) // f) != 1 for f in factors)),
                   1)  # q == 2: the group is trivial
        exp = np.zeros(max(q - 1, 1), dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, gen)
        self.generator = gen
        self._exp = exp
        self._log = log

    # -- vectorized ops on numpy arrays of encodings --

    def add_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.k):
            pw = self._pows[i]
            out += (((a // pw) + (b // pw)) % p) * pw
        return out

    def neg_arr(self, a):
        a = np.asarray(a, dtype=np.int64)
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = np.zeros(a.shape, dtype=np.int64)
        for i in range(self.k):
            pw = self._pows[i]
            out += ((-(a // pw)) % p) * pw
        return out

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(np.asarray(b, dtype=np.int64)))

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        if mask.any():
            la = self._log[a[mask]]
            lb = self._log[b[mask]]
            out[mask] = self._exp[(la + lb) % (self.q - 1)]
        return out

    def pow_arr(self, a, e):
        """a ** e elementwise, for an integer e or an integer array that
        broadcasts against a; 0 ** 0 = 1, as in pow."""
        a, e = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(e, dtype=np.int64))
        zero = a == 0
        if (e[zero] < 0).any():
            raise ZeroDivisionError("negative power of zero")
        out = self._exp[(self._log[a] * e) % (self.q - 1)]
        out[zero] = e[zero] == 0
        return out

    # -- misc --

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """Construct (and cache) GF(p^k) with the canonical modulus."""
    return FieldSpec(p, k)


# ---------------------------------------------------------------------------
# Polynomials over GF(p^k)
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with coefficients stored as encodings, low to high.

    Trailing zeros are trimmed; the zero polynomial has degree NEG_INF.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [int(c) for c in coeffs]
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
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            scalar = i % F.p
            c = self.coeffs[i]
            acc = 0
            for _ in range(scalar):
                acc = F.add(acc, c)
            out.append(acc)
        return Poly(F, out)

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
    if c == 0:
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

    Roots by exhaustive evaluation, multiplicity by repeated division,
    separability via gcd(f, f').
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot analyze the zero polynomial")
    F = f.field
    roots = []
    work = f
    for a in range(F.q):
        if f.eval_enc(a) == 0:
            mult = 0
            lin = Poly.linear(F, a)
            while not work.is_zero() and work.eval_enc(a) == 0:
                work = work // lin
                mult += 1
            roots.append((a, mult))
    g = f.gcd(f.derivative())
    separable = g.degree <= 0
    return PolyAnalysis(roots=roots, separable=separable)
