"""Exception hierarchy.

Every domain error raised by this package derives from :class:`KummerError`,
so callers (notably the CLI) can map any of them to a nonzero exit code with
a message naming the violated precondition.
"""


class KummerError(Exception):
    """Base class for all domain errors."""


# --- finite fields ---------------------------------------------------------

class NotPrime(KummerError):
    """A characteristic is not a prime, or a field order not a prime power."""


class DegreeZero(KummerError):
    """An extension degree, or the degree n of an n-th root, must be at least 1."""


class FieldTooLarge(KummerError):
    """Field order exceeds the cap q <= 2^16."""


class ZeroPolynomial(KummerError):
    """Operation undefined for the zero polynomial."""


# --- curves and divisors ---------------------------------------------------

class DuplicateBranch(KummerError):
    """Branch points must be pairwise distinct."""


class GcdViolation(KummerError):
    """gcd(m, lambda_1, ..., lambda_r) must equal 1."""


class CharDividesM(KummerError):
    """The field characteristic must not divide the extension degree."""


class NotAnElement(KummerError):
    """An integer encoding lies outside [0, q) of the curve's field."""


class NotAnInteger(KummerError):
    """An integer parameter (p, k, m, a lambda_i, a divisor coefficient) is
    not a Python or numpy integer."""


class InvalidPlace(KummerError):
    """Place does not belong to this curve."""


class UnsupportedRoot(KummerError):
    """Polynomial root is not representable as a known place class."""


class NegativeCoefficient(KummerError):
    """Divisor tuple has a negative coefficient and effectivity is required."""


class AbstractField(KummerError):
    """Operation requires a concrete finite field."""


class RationalityError(KummerError):
    """Rationality precondition (e.g. m | q-1) does not hold."""


# --- non-special criterion and generators ----------------------------------

class JOutOfRange(KummerError):
    """Criterion index j must lie in [1, m)."""


class SearchSpaceTooLarge(KummerError):
    """Enumeration space exceeds the configured cap."""


class RegimeViolation(KummerError):
    """Parameters fall outside the requested regime, mode or family."""


class NkNotPositive(KummerError):
    """The N_k coefficient is not positive for the chosen k."""


class FormulaMismatch(KummerError):
    """A closed-form formula disagreed with its independent verification."""


# --- codes -----------------------------------------------------------------

class UnsupportedShape(KummerError):
    """Divisor is not of the supported invariant-minus-Q_infinity shape."""


class DimensionMismatch(KummerError):
    """Computed Riemann-Roch basis size disagrees with the expected dimension."""


class PoleAtEvaluationPlace(KummerError):
    """A basis function has a pole at an evaluation place."""


class SupportOverlap(KummerError):
    """supp(G) and the evaluation divisor must be disjoint."""


class NotWholeFibers(KummerError):
    """Evaluation places must be whole fibers above distinct split x-values."""


class DegreeOutOfRange(KummerError):
    """deg(G) must satisfy 2g-2 < deg(G) < n."""


class SRangeEmpty(KummerError):
    """No admissible integer s in the open interval."""


class RampPreconditionViolated(KummerError):
    """Phi indices must correspond to totally ramified places."""


class NotNonSpecial(KummerError):
    """The supplied tuple is not a verified non-special divisor of degree g."""


class LengthMismatch(KummerError):
    """Lengths disagree: two codes (or their fields), or a tuple and a curve."""


class TooLargeToEnumerate(KummerError):
    """Exhaustive codeword enumeration exceeds the configured cap."""


# --- instances -------------------------------------------------------------

class CongruenceViolated(KummerError):
    """q does not satisfy the congruence required by the curve family."""


class RootCountMismatch(KummerError):
    """A defining polynomial does not have the expected distinct roots."""


# --- catalog / CLI ---------------------------------------------------------

class UnknownId(KummerError):
    """Unknown catalog identifier."""


class UsageError(KummerError):
    """Invalid combination of command-line arguments, a malformed JSON
    object (a missing key, or a value of the wrong kind), or an argument of
    the wrong kind (make_curve's field neither a FieldSpec nor None)."""
