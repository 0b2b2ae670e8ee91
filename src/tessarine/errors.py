"""Exception hierarchy shared by every tessarine module."""


class TessarineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TessarineError):
    """Operands do not share the required dimensions."""


class ZeroDivisor(TessarineError):
    """Inversion of a scalar with a vanishing idempotent component."""


class ZeroNorm(ZeroDivisor):
    """Normalization of a vector whose squared norm is not invertible."""


class NonFiniteInput(TessarineError):
    """An input matrix has a NaN or infinite entry."""


class ClusterAmbiguity(TessarineError):
    """Eigenvalue gaps fall in the band where clustering is unreliable.

    Raised instead of guessing; callers should adjust ``cluster_gap``.
    """


class NilpotentBlock(TessarineError):
    """A non-trivial nilpotent Jordan block blocks the requested square root."""


class NotDiagonalizable(TessarineError):
    """The naive SVD needs a diagonalizable product and did not get one."""


class SingularComponent(TessarineError):
    """A construction step needs an inverse that does not exist."""


class NoPseudoinverse(TessarineError):
    """The rank condition for a pseudoinverse fails."""


class PreconditionFailed(TessarineError):
    """An algorithm was invoked outside its guaranteed hypothesis."""


class VerificationFailed(TessarineError):
    """A computed factorization failed its reconstruction check."""


class RetryExhausted(TessarineError):
    """The randomized orthonormal extension hit its retry bound."""


class BadProfile(TessarineError):
    """Unknown matrix-pair generation profile."""


# the explorer's generation profiles, here so the CLI's help reads them
# without loading the explorer
PROFILES = ("dense", "ranks", "invertible", "jordan", "counterexample")
