"""Exception hierarchy for the phaseagg simulator.

Every failure mode of the aggregation pipeline raises a distinct class so
tests and callers can discriminate; all inherit from PhaseAggError.
"""


class PhaseAggError(Exception):
    """Base class for all phaseagg errors."""


class InvalidTopologyError(PhaseAggError):
    """Channel sampling requested for fewer than two clients."""


class NoSelfChannelError(PhaseAggError):
    """A client has no channel to itself; the matrix diagonal is undefined."""


class InvalidGradientError(PhaseAggError):
    """Gradient vector contains non-finite entries."""


class CorruptedAggregateError(PhaseAggError):
    """Decoded digit sums fall outside the range reachable by the contributors."""


class InvalidDigitError(PhaseAggError):
    """Quantized digit outside [0, levels)."""


class ResidualMaskError(PhaseAggError):
    """Aggregated phases are off the constellation grid: mask cancellation failed."""


class FramingError(PhaseAggError):
    """FEC bit stream length is not a multiple of the code block size."""


class DegenerateGroupError(PhaseAggError):
    """A client's complementary set is empty; no mask can be formed."""


class UnrecoverableRoundError(PhaseAggError):
    """Dropouts left the round undecodable (or reveal-unsafe to recover)."""


class RevealSafetyError(PhaseAggError):
    """A recovery would reveal both a client's private phase and its whole mask."""


class InsufficientClientsError(PhaseAggError):
    """Two-group assignment needs at least four clients."""


class SecurityFloorError(PhaseAggError):
    """Subgroup size below 2 would let a single reveal expose a client's mask."""


class InfeasibleGroupingError(PhaseAggError):
    """Client count cannot be split into the requested group layout."""


class ShapeError(PhaseAggError):
    """Vector dimensions disagree."""


class DivergenceError(PhaseAggError):
    """Model update produced non-finite parameters."""


class UnderpoweredTestError(PhaseAggError):
    """Too few samples for the statistical test to be meaningful."""


class CheckFailedError(PhaseAggError):
    """A finished command's artifacts fail a check: an overhead, recovery or baseline count."""


class TranscriptFormatError(PhaseAggError):
    """A transcripts file is not one JSON round transcript per line."""


class ConfigValidationError(PhaseAggError):
    """Scenario configuration violated one or more constraints.

    Carries the full list of violations so a user sees everything at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid scenario configuration:\n"
            + "\n".join(f"  - {v}" for v in self.violations)
        )
