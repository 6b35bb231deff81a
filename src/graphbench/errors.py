"""Exception types shared across the package."""


class GraphBenchError(Exception):
    """Base class for all graphbench errors."""


class InvalidN(GraphBenchError):
    """Node count below the minimum a generator family supports."""


class DisconnectedGraph(GraphBenchError):
    """Operation requires a connected graph."""


class TooLarge(GraphBenchError):
    """Graph exceeds the configured node cap for an exact solver."""


class ExhaustedAttempts(GraphBenchError):
    """Resampling loop hit its attempt budget."""


class MissingParam(GraphBenchError):
    """Task question requires a node parameter that was not supplied."""


class MixedTasks(GraphBenchError):
    """Baseline corpus mixes more than one task."""


class RateLimited(GraphBenchError):
    """Endpoint returned a rate-limit response."""


class TransportError(GraphBenchError):
    """Network-level failure talking to the endpoint."""


class MalformedResponse(GraphBenchError):
    """Endpoint response missing required fields."""


class EmptyFactor(GraphBenchError):
    """Factor space contains an empty dimension."""


class ZeroDenominator(GraphBenchError):
    """Rate computation with a non-positive reference accuracy."""


class EmptyGroup(GraphBenchError):
    """Aggregation over an empty record set."""


class InsufficientCoverage(GraphBenchError):
    """Sensitivity analysis needs at least two schemes and two formats."""


class BadRecord(GraphBenchError, ValueError):
    """A result record a report cannot fold in: a field it reads is missing
    or holds a value of the wrong kind."""
