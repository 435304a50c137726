"""Exception hierarchy shared across the package.

Validation errors (bad inputs, malformed configs) double as ValueError so
callers can catch them generically; everything else signals a numerical
failure inside an otherwise valid computation.
"""


class WeylScatterError(Exception):
    """Base class for all package errors."""


class ValidationError(WeylScatterError, ValueError):
    """Base class for input/configuration validation failures."""


class InvalidPotential(ValidationError):
    """A potential description violates one of its invariants."""


class UnboundedTail(ValidationError):
    """No finite truncation radius exists for the requested tolerance."""


class ConfigParseError(ValidationError):
    """A run configuration file could not be parsed or validated."""


class InvalidPacket(ValidationError):
    """A wave-packet specification violates one of its invariants."""


class InvalidSlabWidth(ValidationError):
    """Slab width passed to the transfer-matrix oracle is unusable."""


class DegenerateEnergy(ValidationError):
    """Closed-form barrier formula evaluated at its removable singularity."""


class NodeAtOrigin(WeylScatterError):
    """|u(0)| underflowed relative to |u'(0)|: the logarithmic derivative has a pole."""


class OdeStepFailure(WeylScatterError):
    """Adaptive stepping could not meet the requested tolerances."""


class SpectralSingularity(WeylScatterError):
    """An m-value's error bar is of the order of m: lambda sits at or near a pole of m."""


class ResonantDenominator(WeylScatterError):
    """m_l + m_r vanished: the diagonal Green function has a pole here."""


class EvanescentOverflow(WeylScatterError):
    """Transfer-matrix entries exceeded the overflow guard; split the slab and retry."""


class NotConverged(WeylScatterError):
    """Wave-packet run hit t_max before the interaction region emptied."""


class BoundaryLeak(WeylScatterError):
    """Wave-packet mass reached the domain edge; enlarge the box."""


class SingularResolvent(WeylScatterError):
    """A lattice resolvent solve is ill-conditioned beyond recovery."""
