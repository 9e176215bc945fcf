"""Exception types shared across the package."""


class OppositeSigns(ArithmeticError):
    """Tropical addition of a positive and a negative number is undefined."""


class DimensionTooLarge(ValueError):
    """Instance exceeds a configured combinatorial bound."""


class NotMetzler(ValueError):
    """Operation requires every off-diagonal coefficient to be negative or -inf."""


class CirculationExists(RuntimeError):
    """The tangent hypergraph admits a circulation; no interior direction exists."""


class NotCertified(RuntimeError):
    """Cross-validation requires a genericity certificate."""


class PencilFormatError(ValueError):
    """Malformed pencil document."""


class CertificateCheckFailed(RuntimeError):
    """A computed circulation, direction or witness failed its exact re-check."""
