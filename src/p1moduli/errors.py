"""Exception types shared across the package.

Every failure that a caller might reasonably branch on gets its own class;
plain ValueError is reserved for outright misuse of an API.
"""


class P1ModuliError(Exception):
    """Base class for all package errors."""


class ZeroRadicand(P1ModuliError):
    """A tower extension was requested with radicand zero."""


class NotGalois(P1ModuliError):
    """The tower is not Galois over the rationals.

    Carries the offending step index and a description of the conjugated
    radicand that has no square root in the tower.
    """

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        self.detail = detail
        super().__init__(f"tower is not Galois at step {step}: {detail}")


class NoInverse(P1ModuliError):
    """Division by zero inside a tower field."""


class SingularMatrix(P1ModuliError):
    """A matrix that had to be invertible is singular."""


class DegenerateTriple(P1ModuliError):
    """Three points that had to be pairwise distinct are not."""


class DegreeTooSmall(P1ModuliError):
    """A divisor has fewer than three points where at least three are needed."""


class BadDegree(P1ModuliError):
    """A degree constraint on input data is violated."""


class UnrecognizedGroup(P1ModuliError):
    """Order statistics match no finite subgroup of the Mobius group;
    indicates a bug upstream."""


class SingularForm(P1ModuliError):
    """A ternary quadratic form with zero determinant where a nonsingular
    one is required."""


class FactorizationTooLarge(P1ModuliError):
    """An integer resisted factorization within the configured effort."""


class SearchExhausted(P1ModuliError):
    """A bounded search or descent ran out of steps before reaching the
    result it was guaranteed to reach; indicates an internal
    inconsistency upstream."""


class PointNotOnConic(P1ModuliError):
    """A claimed point does not lie on the form it was supplied for."""


class TangentLine(P1ModuliError):
    """A line meets a conic in a double point where two distinct points
    were required."""


class SplitSymbol(P1ModuliError):
    """A quaternion symbol that had to be nonsplit is split."""


class RetriesExhausted(P1ModuliError):
    """The randomized rejection loop ran out of retries."""


class NotAnInvolution(P1ModuliError):
    """An element expected to have order two does not."""


class HypothesesNotMet(P1ModuliError):
    """Input does not satisfy the stated hypotheses of the routine."""


class GenusTooSmall(P1ModuliError):
    """A branch divisor corresponds to a curve of genus below two."""


class NonCyclicAut(P1ModuliError):
    """Compression requested for a divisor whose automorphism group is
    not cyclic."""


class DescentFailure(P1ModuliError):
    """The semilinear averaging failed to produce a full fixed basis."""


class NonElementaryGaloisQuotient(P1ModuliError):
    """Quaternion decomposition requested over a Galois group that is not
    elementary abelian of exponent two."""


class UnsupportedAut(P1ModuliError):
    """An operation does not support this automorphism group."""


class InternalInconsistency(P1ModuliError):
    """A theorem-backed invariant failed at runtime; always a bug."""


class SchemaError(P1ModuliError):
    """Malformed JSON input; message carries the offending field path."""
