"""Crowdsourcing substrate (Section 8).

Corleone was evaluated on Amazon Mechanical Turk; offline we replace the
worker pool with the random-worker simulation model that the paper itself
uses for its sensitivity analysis (Section 9.3): each answer is flipped
independently with a configurable error rate.  Everything above the worker
pool — HIT packing, 2+1 and strong-majority vote aggregation, label
caching, and cost accounting — is implemented exactly as described in the
paper and is platform-agnostic.
"""

from .base import CrowdPlatform, WorkerAnswer
from .simulated import (
    BiasedCrowd,
    HeterogeneousCrowd,
    PerfectCrowd,
    SimulatedCrowd,
)
from .aggregation import (
    VoteScheme,
    majority_2plus1,
    strong_majority,
    asymmetric_majority,
)
from .cost import CostTracker
from .service import CachedLabel, LabelingService
from .profiler import (
    AdaptivePolicy,
    ErrorRateEstimator,
    ProfilingLabelingService,
)
from .latency import (
    LatencyModel,
    PayPoint,
    SimulatedClock,
    TimedCrowd,
    cheapest_within_deadline,
    pareto_sweep,
)
from .faults import (
    FAULT_DUPLICATE,
    FAULT_EXPIRY,
    FAULT_KINDS,
    FAULT_OUTAGE,
    FAULT_SPAMMER,
    FAULT_TIMEOUT,
    FaultSpec,
    FaultyCrowd,
    fault_stream_seed,
)
from .gateway import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    ResilientCrowd,
    find_clock,
)
from .transcript import (
    QuestionTranscript,
    TranscriptingPlatform,
    group_by_question,
    transcript_from_jsonl,
    transcript_to_jsonl,
    worker_agreement_report,
)
from .questions import (
    Hit,
    Question,
    hit_to_html,
    pack_hits,
    question_to_html,
    question_to_text,
    render_question,
)

__all__ = [
    "CrowdPlatform",
    "WorkerAnswer",
    "SimulatedCrowd",
    "PerfectCrowd",
    "HeterogeneousCrowd",
    "BiasedCrowd",
    "VoteScheme",
    "majority_2plus1",
    "strong_majority",
    "asymmetric_majority",
    "CostTracker",
    "CachedLabel",
    "LabelingService",
    "AdaptivePolicy",
    "ErrorRateEstimator",
    "ProfilingLabelingService",
    "LatencyModel",
    "PayPoint",
    "SimulatedClock",
    "TimedCrowd",
    "cheapest_within_deadline",
    "pareto_sweep",
    "FAULT_DUPLICATE",
    "FAULT_EXPIRY",
    "FAULT_KINDS",
    "FAULT_OUTAGE",
    "FAULT_SPAMMER",
    "FAULT_TIMEOUT",
    "FaultSpec",
    "FaultyCrowd",
    "fault_stream_seed",
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CircuitBreaker",
    "ResilientCrowd",
    "find_clock",
    "Hit",
    "Question",
    "hit_to_html",
    "pack_hits",
    "question_to_html",
    "question_to_text",
    "render_question",
    "QuestionTranscript",
    "TranscriptingPlatform",
    "group_by_question",
    "transcript_from_jsonl",
    "transcript_to_jsonl",
    "worker_agreement_report",
]
