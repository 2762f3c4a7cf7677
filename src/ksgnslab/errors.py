"""Exception types shared across the package."""


class KsgnslabError(Exception):
    """Base class for all structured failures raised by this package."""


class NonFinite(KsgnslabError):
    """Input contains NaN or Inf entries."""


class NonHermitian(KsgnslabError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPSD(KsgnslabError):
    """Gram or Choi matrix has an eigenvalue below the negativity gate."""


class ShapeMismatch(KsgnslabError):
    """Operands live over incompatible algebras or dimensions."""


class SubmoduleViolation(KsgnslabError):
    """A map fails to preserve the null space it must descend through."""


class UnequalCopies(KsgnslabError):
    """A pre-module built as equal copies of one block has copies that differ."""


class SingularGram(KsgnslabError):
    """Gram matrix of a purported Hilbert module is numerically singular."""


class TwistMismatch(KsgnslabError):
    """Twisted-linearity data does not match the expected automorphism."""


class NonLinearMap(KsgnslabError):
    """Operator images fail the required module-linearity constraint."""


class NotCP(KsgnslabError):
    """Map fails the complete-positivity certificate."""


class WellDefinednessViolation(KsgnslabError):
    """A quotient-level map fails to send null vectors to null vectors."""


class ObjectMismatch(KsgnslabError):
    """Morphisms composed across non-matching endpoint objects."""


class SpanningFailure(KsgnslabError):
    """A dilation does not span its module, so no unitary can be solved."""


class NonConvergentInput(KsgnslabError):
    """A morphism path handed to a continuity probe does not converge."""


class InvalidConfig(KsgnslabError):
    """Suite configuration violates its invariants."""


class ParseError(KsgnslabError):
    """Instance file cannot be parsed."""


class ValidationError(KsgnslabError):
    """Parsed instance data is structurally inconsistent."""
