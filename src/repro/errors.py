"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CompressionError(ReproError):
    """Raised when a compressor cannot encode the given input."""


class DecompressionError(ReproError):
    """Raised when a compressed payload is malformed or inconsistent."""


class BitstreamError(DecompressionError):
    """Raised on bit-level framing problems (overruns, bad padding)."""


class ConfigurationError(ReproError):
    """Raised when a model or device is configured inconsistently."""


class CapacityError(ReproError):
    """Raised when a device or FTL runs out of physical space."""


class SimulationError(ReproError):
    """Raised on discrete-event simulation misuse (e.g. time travel)."""


class SanitizerError(SimulationError):
    """Raised by the runtime simulation sanitizer
    (:mod:`repro.analyzers.runtime`) when an engine invariant breaks:
    time moving backwards, malformed heap entries, an event firing
    twice, callbacks registered after an event fired, or waiter queues
    left populated at run end."""


class AnalyzerError(ReproError):
    """Raised on static-analyzer misuse (unknown rule codes, unreadable
    lint targets)."""


class WorkloadError(ReproError):
    """Raised when a workload generator receives invalid parameters."""


class ServiceError(ReproError):
    """Raised on offload-service misuse (bad policy, queue overrun)."""


class PolicyLookupError(ServiceError, ValueError):
    """Raised when a dispatch-policy name matches no registered policy.

    Doubles as a :class:`ValueError` so callers that validate plain
    user input (CLI flags, config files) can catch it without importing
    the service error hierarchy.
    """


class FleetConfigError(ServiceError, ValueError):
    """Raised on invalid fleet composition (duplicate device names,
    non-positive queue depths).

    Doubles as a :class:`ValueError` for the same reason as
    :class:`PolicyLookupError`: fleet composition is user input.
    """


class ClusterError(ReproError):
    """Raised on cluster-session misuse (no clients, missing store)."""


class ClusterSpecError(ClusterError, ValueError):
    """Raised when a :class:`~repro.cluster.ClusterSpec` (or a dict/JSON
    document being deserialized into one) is invalid — unknown keys,
    unknown device kinds, out-of-range parameters.
    """


class SweepError(ReproError):
    """Raised on sweep-runner failures (a point's run raised, or every
    grid point was filtered away)."""


class SweepSpecError(SweepError, ValueError):
    """Raised when a :class:`~repro.sweep.SweepSpec` (or a dict/JSON
    document being deserialized into one) is invalid — unknown keys,
    duplicate axis names, filters naming unknown axes, or a grid point
    whose resolved spec fails validation.

    Doubles as a :class:`ValueError` for the same reason as
    :class:`ClusterSpecError`: sweep descriptions are user input.
    """


class FederationError(ReproError):
    """Raised on multi-cluster federation failures: assembling or
    driving a federated session, or errors on the distributed-dispatch
    socket protocol (see :class:`DispatchError`)."""


class FederationSpecError(FederationError, ValueError):
    """Raised when a :class:`~repro.federation.FederationSpec` (or a
    dict/JSON document being deserialized into one) is invalid —
    unknown keys, duplicate member names, member clusters declaring
    their own telemetry or store tiers, unknown routing policies.

    Doubles as a :class:`ValueError` for the same reason as
    :class:`ClusterSpecError`: federation descriptions are user input.
    """


class DispatchError(FederationError):
    """Raised by the distributed sweep dispatch layer
    (:mod:`repro.federation.dispatch`): a missing worker key, a lost
    connection or undecodable message, protocol-version mismatches,
    workers dying mid-point with the requeue budget exhausted, or every
    worker dead with grid points still unserved.  Never a bare
    :class:`EOFError` — a connection closed mid-message is reported as
    lost."""


class StoreError(ReproError):
    """Raised on block-store misuse (unmapped block, oversized write)."""


class TelemetryError(ReproError):
    """Raised on telemetry misuse (bad capacity or interval, duplicate
    gauge names) and by trace-document validation failures."""
