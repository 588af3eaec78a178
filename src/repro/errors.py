"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch the whole family with one clause.
The subclasses map onto the major subsystems (hardware model, simulation
engine, memory management, applications, cost model) so that tests and
downstream tooling can assert on the *kind* of failure rather than on
message text.
"""

from __future__ import annotations

import sys

if sys.version_info >= (3, 11):
    # The builtin, which concurrent.futures aliases from 3.11 on; the
    # import would load logging and threading into every interpreter.
    _FuturesTimeoutError = TimeoutError
else:
    from concurrent.futures import TimeoutError as _FuturesTimeoutError

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TransientError",
    "is_retryable",
    "TopologyError",
    "CapacityError",
    "SimulationError",
    "AllocationError",
    "PolicyError",
    "MigrationError",
    "WorkloadError",
    "CostModelError",
    "FaultError",
    "DeviceFaultError",
    "PoisonedReadError",
    "RetryExhaustedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A spec, preset, or experiment configuration is invalid."""


class TopologyError(ConfigurationError):
    """A platform topology is malformed (unknown node, bad wiring, ...)."""


class CapacityError(ReproError):
    """A memory device or tier ran out of capacity."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class AllocationError(ReproError):
    """A page/region allocation could not be satisfied."""


class PolicyError(ReproError):
    """A memory policy was constructed or applied incorrectly."""


class MigrationError(ReproError):
    """A page migration request was invalid (bad page, same node, ...)."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured or exhausted."""


class CostModelError(ReproError):
    """Abstract Cost Model parameters are out of their valid domain."""


class FaultError(ReproError):
    """Base class for injected RAS faults (link, poison, device loss).

    These are *runtime conditions*, not programming errors: the fault
    layer raises them to drive the applications' degradation policies
    (retry, failover, load shedding), so callers are expected to catch
    them and recover rather than crash.
    """


class DeviceFaultError(FaultError):
    """A memory device/node is offline or unreachable."""

    def __init__(self, node_id: int, message: str = "") -> None:
        self.node_id = node_id
        super().__init__(message or f"memory node {node_id} is offline")


class PoisonedReadError(FaultError):
    """A read returned a poisoned cacheline (uncorrectable error)."""

    def __init__(self, page_id: int, node_id: int, message: str = "") -> None:
        self.page_id = page_id
        self.node_id = node_id
        super().__init__(
            message or f"poisoned read: page {page_id} on node {node_id}"
        )


class TransientError(ReproError):
    """A failure expected to clear on retry with the same inputs.

    The marker the *harness* (sweep runner, chaos injection, external
    resources) uses where the simulation layer uses :class:`FaultError`:
    raising it tells :func:`is_retryable` callers the operation may be
    re-attempted verbatim.  Tasks that wrap flaky external effects
    (filesystems, subprocesses) should raise this rather than a bare
    ``RuntimeError`` so the runner retries instead of quarantining.
    """


#: OS-level stream/timeout conditions that clear on retry.  The
#: connection-shaped members (``BrokenPipeError``,
#: ``ConnectionResetError``, ``socket.timeout``, the builtin
#: ``TimeoutError``) are already ``OSError`` subclasses; they are named
#: here so the classification is explicit and pinned by tests rather
#: than an accident of the exception hierarchy.
#: ``concurrent.futures.TimeoutError`` is listed separately because on
#: Python < 3.11 it (and its alias ``asyncio.TimeoutError``) does *not*
#: derive from ``OSError`` — a served request that times out against a
#: wedged backend must still classify as transient there.  From 3.11 on
#: it is the builtin ``TimeoutError``.
_TRANSIENT_OS_ERRORS: "tuple" = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
    TimeoutError,
    _FuturesTimeoutError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether re-running the failed operation unchanged could succeed.

    The transient-vs-permanent classification shared by the simulation
    retry policies, the sweep runner, and the serving stack:

    * :class:`TransientError` — the explicit harness-level marker;
    * :class:`FaultError` — injected RAS conditions, the same family
      :func:`repro.faults.retry.retry_call` retries inside the sims;
    * ``OSError``/``MemoryError`` — environmental pressure (fd limits,
      OOM) that another attempt on a fresh worker may not hit;
    * OS-level stream errors (``BrokenPipeError``,
      ``ConnectionResetError``, ``TimeoutError`` in all its stdlib
      spellings) — a peer hung up or a read timed out; the connection
      can be retried.

    Everything else — ``ValueError``, assertion failures, programming
    errors — is permanent: re-running a deterministic task on the same
    ``(params, seed)`` would only fail identically.
    """
    return isinstance(
        exc,
        (TransientError, FaultError, OSError, MemoryError)
        + _TRANSIENT_OS_ERRORS,
    )


class RetryExhaustedError(FaultError):
    """The bounded retry/backoff budget was spent without success."""

    def __init__(
        self,
        attempts: int,
        last_error: "BaseException | None" = None,
        message: str = "",
    ) -> None:
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            message
            or f"retry budget exhausted after {attempts} attempts"
            + (f" (last: {last_error!r})" if last_error is not None else "")
        )
