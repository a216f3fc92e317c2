"""Exception hierarchy for the Corleone reproduction.

All errors raised by this package derive from :class:`CorleoneError`, so a
caller can catch everything the library raises with a single ``except``
clause while still being able to distinguish configuration problems from
data problems or crowd-budget exhaustion.
"""

from __future__ import annotations


class CorleoneError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(CorleoneError):
    """An invalid parameter value or inconsistent configuration."""


class SchemaError(CorleoneError):
    """Tables or records do not conform to the expected schema."""


class DataError(CorleoneError):
    """Malformed input data (empty tables, bad CSV rows, unknown ids...)."""


class FeatureError(CorleoneError):
    """A feature could not be computed or an unknown feature was requested."""


class RuleError(CorleoneError):
    """A rule is malformed or cannot be applied to the given data."""


class CrowdError(CorleoneError):
    """The crowd platform failed to answer a question batch."""


class TransientCrowdError(CrowdError):
    """A temporary platform failure that a retry may recover from.

    Raised for the realistic microtask failure taxonomy
    (:mod:`repro.crowd.faults`): platform outages, per-answer timeouts
    and HIT expiry.  The resilient gateway
    (:class:`repro.crowd.gateway.ResilientCrowd`), the only layer that
    retries, retries these with capped exponential backoff until an
    answer arrives or its circuit breaker opens.  Without a gateway the
    labelling service asks once and lets the error reach its caller.
    """


class AnswerTimeoutError(TransientCrowdError):
    """No :class:`~repro.crowd.base.WorkerAnswer` arrived in time.

    The question was posted but no worker answered within the deadline;
    no answer was consumed (and none is charged).
    """


class HitExpiredError(TransientCrowdError):
    """A posted HIT was abandoned by its worker or expired unanswered.

    The gateway reacts by *reposting* the HIT (metered as a fresh HIT in
    the cost tracker) rather than merely re-asking.
    """


class CrowdUnavailableError(CrowdError):
    """The crowd platform is down and retrying is no longer useful.

    The gateway's one give-up outcome: raised when a failure leaves its
    circuit breaker open (``failure_threshold`` consecutive platform
    failures, or a failed half-open trial), chained from that failure,
    and by every call while the circuit stays open.  The engine
    degrades gracefully: the last stage-boundary checkpoint is already
    on disk, so :meth:`repro.core.pipeline.Corleone.resume` can continue
    the run (with a recovered platform) to a bit-identical result.
    ``partial`` is attached by the pipeline when the error escapes a
    checkpointed run, so callers can inspect how far the run got.
    """

    def __init__(self, failures: int,
                 message: str | None = None) -> None:
        super().__init__(
            message if message is not None else
            f"crowd platform unavailable: circuit opened after "
            f"{failures} consecutive platform failures"
        )
        self.failures = failures
        self.partial = None
        """Set by the pipeline: the partial CorleoneResult at failure."""


class BudgetExhaustedError(CrowdError):
    """The monetary budget for crowdsourcing has been exhausted.

    Raised by budget-capped crowd platforms when a question batch would
    exceed the remaining budget.  The pipeline catches this to terminate
    gracefully and return the best result obtained so far.
    """

    def __init__(self, spent: float, budget: float) -> None:
        super().__init__(
            f"crowd budget exhausted: spent ${spent:.2f} of ${budget:.2f}"
        )
        self.spent = spent
        self.budget = budget


class EstimationError(CorleoneError):
    """Accuracy estimation could not be completed."""
