"""Configuration for every tunable parameter in the Corleone paper.

Each field corresponds to a value called out explicitly in the SIGMOD 2014
paper; the section reference is given alongside.  The default values are the
paper's defaults.  Benchmarks for Section 9.4 sweep many of these.

The config is a frozen dataclass: experiments derive variants with
:func:`dataclasses.replace`, which keeps runs hermetic and hashable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    """Random-forest hyper-parameters (Section 5.1, Weka defaults)."""

    n_trees: int = 10
    """Number of decision trees per forest (paper: k = 10)."""

    bagging_fraction: float = 0.6
    """Fraction of training data sampled (without replacement) per tree."""

    max_depth: int = 32
    """Safety cap on tree depth; the paper's trees had 8-655 leaves."""

    min_samples_split: int = 2
    """Do not split nodes with fewer examples than this."""

    min_samples_leaf: int = 2
    """Every leaf must contain at least this many training examples.

    Deliberate deviation from Weka's default of 1: with noisy crowd
    labels, purity-grown leaves memorize individual wrong labels and
    the matcher's precision collapses (we measured F1 0.78 -> 0.99 on
    the noisy restaurants workload when raising this to 2).
    """

    def features_per_split(self, n_features: int) -> int:
        """Weka default m = log2(n) + 1 features examined per split."""
        if n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        return max(1, int(math.log2(n_features)) + 1)


@dataclass(frozen=True)
class BlockerConfig:
    """Blocking parameters (Section 4)."""

    t_b: int = 3_000_000
    """Blocking threshold: block only if |A x B| > t_b (paper: 3M pairs,
    the number of feature vectors that fit in memory).  Scaled-down
    experiments lower this proportionally."""

    sampling_strategy: str = "uniform"
    """How the learning sample S is drawn from A x B: "uniform" (the
    paper's §4.1 scheme) or "weighted" (the §10 extension: half the B
    rows chosen by shared-rare-token weight — use when an attribute
    carries identifying tokens such as model numbers)."""

    sampling_attribute: str | None = None
    """Attribute the weighted sampler scores on (None: first textual)."""

    top_k_rules: int = 20
    """Number of candidate blocking rules sent to crowd evaluation."""

    eval_batch_size: int = 20
    """Examples labelled per round while evaluating one rule (paper: b=20)."""

    min_precision: float = 0.95
    """P_min: rules below this estimated precision are discarded."""

    max_error_margin: float = 0.05
    """epsilon_max: stop evaluating a rule once its margin is this tight."""

    confidence: float = 0.95
    """Confidence level delta for rule-precision intervals."""

    max_labels_per_rule: int = 200
    """Safety cap on crowd labels spent evaluating a single rule."""

    n_workers: int = 1
    """Worker processes the sharded executor (:mod:`repro.exec`, the
    Hadoop stand-in) applies the chosen rules over A x B with; 1 runs
    every shard in-process."""

    shard_size: int = 0
    """Rows of A per shard for the sharded executor; 0 auto-sizes to
    roughly four shards per worker."""


@dataclass(frozen=True)
class MatcherConfig:
    """Active-learning matcher parameters (Section 5)."""

    batch_size: int = 20
    """q: examples labelled by the crowd per learning iteration."""

    pool_size: int = 100
    """p: highest-entropy examples from which the batch is sampled."""

    selection_strategy: str = "entropy_weighted"
    """How the q-example batch is drawn from the unlabelled pool:

    * ``"entropy_weighted"`` — the paper's §5.2 scheme: top-p by entropy,
      then weighted sampling with entropy weights (informative + diverse);
    * ``"top_entropy"`` — plain top-q by entropy (no diversity);
    * ``"random"`` — uniform over the unlabelled pool (passive learning,
      the Baseline-1 regime).
    """

    monitor_fraction: float = 0.03
    """Fraction of the candidate set set aside as the monitoring set V."""

    monitor_cap: int = 2000
    """Upper bound on |V| so confidence evaluation stays cheap."""

    smoothing_window: int = 5
    """w: width of the moving-average smoothing window (odd)."""

    epsilon: float = 0.01
    """Tolerance used by all three stopping patterns."""

    n_converged: int = 20
    """Iterations of stable confidence that trigger the converged stop."""

    n_high: int = 3
    """Iterations of near-absolute (>= 1 - epsilon) confidence that stop."""

    n_degrade: int = 15
    """Window size for the degrading-confidence comparison."""

    max_iterations: int = 150
    """Hard cap on active-learning iterations (budget safety net)."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy-estimation parameters (Section 6)."""

    max_error_margin: float = 0.05
    """epsilon_max for the precision and recall estimates."""

    confidence: float = 0.95
    """Confidence level for the error margins (Eqs. 2-3)."""

    probe_size: int = 50
    """b: examples labelled per limited-sampling probe of C."""

    top_k_rules: int = 20
    """Candidate reduction rules considered per enumeration round."""

    max_probes: int = 200
    """Safety cap on probe rounds (each costs ``probe_size`` labels)."""

    removed_audit_cap: int = 30
    """Labels spent auditing each removed-region stratum (predicted
    positives / predicted negatives), so precision and recall transfer
    from the reduced set to all of C by measurement, not assumption."""


@dataclass(frozen=True)
class LocatorConfig:
    """Difficult-pairs locator parameters (Section 7)."""

    top_k_rules: int = 20
    """Precise positive and negative rules extracted (k each)."""

    min_rule_coverage: int = 5
    """Rules covering fewer candidate pairs than this are not even sent
    to crowd evaluation: certifying a 3-pair rule is statistically
    meaningless and such rules are usually overfit leaf artifacts."""

    min_difficult_pairs: int = 200
    """Stop iterating if fewer difficult pairs remain than this."""

    max_reduction_ratio: float = 0.9
    """Stop if |C'| >= this fraction of |C| (no significant reduction)."""


@dataclass(frozen=True)
class CrowdConfig:
    """Crowd-engagement parameters (Section 8)."""

    questions_per_hit: int = 10
    """Questions packed into one HIT."""

    price_per_question: float = 0.01
    """Dollars paid per answer to one question (1 cent default)."""

    strong_majority_gap: int = 3
    """Strong majority: majority minus minority answers must reach this."""

    strong_majority_max: int = 7
    """Strong majority: give up and take majority after this many answers."""

    max_platform_retries: int = 2
    """Transient platform failures (:class:`~repro.exceptions.CrowdError`
    from ``ask``) are retried this many times per question before the
    error propagates.  Budget exhaustion is never retried."""


@dataclass(frozen=True)
class GatewayConfig:
    """Resilient-gateway parameters (beyond the paper; see
    ``docs/robustness.md``).

    Tunes :class:`repro.crowd.gateway.ResilientCrowd`: how hard the
    labelling path retries transient platform failures before the
    circuit breaker declares the crowd unavailable.  All delays are in
    *simulated* seconds on the shared :class:`repro.crowd.latency.
    SimulatedClock`; nothing here ever sleeps on wall time.
    """

    max_attempts: int = 5
    """Total tries per question (first attempt + retries)."""

    base_delay_seconds: float = 30.0
    """Backoff delay before the first retry."""

    backoff_factor: float = 2.0
    """Multiplier applied to the backoff delay per further retry."""

    max_delay_seconds: float = 600.0
    """Cap on any single backoff delay."""

    jitter_fraction: float = 0.1
    """Fractional deterministic jitter applied to each delay."""

    question_timeout_seconds: float = 300.0
    """Simulated seconds charged when a question's answer never arrives."""

    failure_threshold: int = 5
    """Consecutive platform failures that open the circuit breaker."""

    cooldown_seconds: float = 3600.0
    """Simulated seconds the circuit stays open before half-open."""

    def __post_init__(self) -> None:
        _raise_first_failure([
            (self.max_attempts >= 1, "gateway.max_attempts must be >= 1"),
            (self.base_delay_seconds >= 0,
             "gateway.base_delay_seconds must be >= 0"),
            (self.backoff_factor >= 1.0,
             "gateway.backoff_factor must be >= 1"),
            (self.max_delay_seconds >= 0,
             "gateway.max_delay_seconds must be >= 0"),
            (0 <= self.jitter_fraction < 1,
             "gateway.jitter_fraction must be in [0, 1)"),
            (self.question_timeout_seconds >= 0,
             "gateway.question_timeout_seconds must be >= 0"),
            (self.failure_threshold >= 1,
             "gateway.failure_threshold must be >= 1"),
            (self.cooldown_seconds >= 0,
             "gateway.cooldown_seconds must be >= 0"),
        ])

    def delay_seconds(self, attempt: int,
                      rng: "np.random.Generator") -> float:
        """The backoff delay before retry number ``attempt`` (0-based).

        Capped exponential, then jittered by a draw from ``rng`` — one
        draw per scheduled retry, so identical seeds yield bit-identical
        retry schedules.
        """
        if attempt < 0:
            raise ConfigurationError("attempt must be >= 0")
        delay = min(self.max_delay_seconds,
                    self.base_delay_seconds * self.backoff_factor ** attempt)
        if self.jitter_fraction:
            swing = self.jitter_fraction * (2.0 * float(rng.random()) - 1.0)
            delay *= 1.0 + swing
        return delay


@dataclass(frozen=True)
class PlanConfig:
    """Spill settings of :mod:`repro.plan`.

    Oversized candidate feature matrices can be backed by memory-mapped
    spill files under the run directory — see "The plan compiler" in
    docs/architecture.md.  Results are bit-identical with spilling on
    or off; only memory residency changes.
    """

    spill_threshold_mb: float = 0.0
    """Matrices at least this many MiB spill to memory-mapped ``.npy``
    files under the run directory (0 disables spilling; spilling also
    requires a run directory to spill into)."""

    @property
    def spill_threshold_bytes(self) -> int:
        return int(self.spill_threshold_mb * 1024 * 1024)


@dataclass(frozen=True)
class CorleoneConfig:
    """Top-level configuration bundling every module's parameters."""

    forest: ForestConfig = field(default_factory=ForestConfig)
    blocker: BlockerConfig = field(default_factory=BlockerConfig)
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    locator: LocatorConfig = field(default_factory=LocatorConfig)
    crowd: CrowdConfig = field(default_factory=CrowdConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)

    max_pipeline_iterations: int = 5
    """Cap on matcher->estimate->reduce rounds (paper needed 1-2)."""

    budget: float | None = None
    """Optional dollar cap for the whole run (None = unlimited)."""

    seed: int = 0
    """Root RNG seed; every stochastic component derives from it."""

    def __post_init__(self) -> None:
        _validate(self)

    def replace(self, **changes: object) -> "CorleoneConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def _validate(cfg: CorleoneConfig) -> None:
    """Raise :class:`ConfigurationError` for out-of-range parameters."""
    checks: list[tuple[bool, str]] = [
        (cfg.forest.n_trees >= 1, "forest.n_trees must be >= 1"),
        (0 < cfg.forest.bagging_fraction <= 1.0,
         "forest.bagging_fraction must be in (0, 1]"),
        (cfg.forest.max_depth >= 1, "forest.max_depth must be >= 1"),
        (cfg.blocker.t_b >= 1, "blocker.t_b must be >= 1"),
        (cfg.blocker.sampling_strategy in ("uniform", "weighted"),
         "blocker.sampling_strategy must be uniform or weighted"),
        (cfg.blocker.top_k_rules >= 1, "blocker.top_k_rules must be >= 1"),
        (cfg.blocker.n_workers >= 1, "blocker.n_workers must be >= 1"),
        (cfg.blocker.shard_size >= 0, "blocker.shard_size must be >= 0"),
        (0 < cfg.blocker.min_precision < 1,
         "blocker.min_precision must be in (0, 1)"),
        (0 < cfg.blocker.max_error_margin < 1,
         "blocker.max_error_margin must be in (0, 1)"),
        (0 < cfg.blocker.confidence < 1,
         "blocker.confidence must be in (0, 1)"),
        (cfg.matcher.batch_size >= 1, "matcher.batch_size must be >= 1"),
        (cfg.matcher.pool_size >= cfg.matcher.batch_size,
         "matcher.pool_size must be >= matcher.batch_size"),
        (cfg.matcher.selection_strategy in
         ("entropy_weighted", "top_entropy", "random"),
         "matcher.selection_strategy must be entropy_weighted, "
         "top_entropy or random"),
        (0 < cfg.matcher.monitor_fraction < 1,
         "matcher.monitor_fraction must be in (0, 1)"),
        (cfg.matcher.smoothing_window % 2 == 1,
         "matcher.smoothing_window must be odd"),
        (cfg.matcher.max_iterations >= 1,
         "matcher.max_iterations must be >= 1"),
        (0 < cfg.estimator.max_error_margin < 1,
         "estimator.max_error_margin must be in (0, 1)"),
        (cfg.estimator.probe_size >= 1, "estimator.probe_size must be >= 1"),
        (cfg.locator.min_difficult_pairs >= 0,
         "locator.min_difficult_pairs must be >= 0"),
        (0 < cfg.locator.max_reduction_ratio <= 1,
         "locator.max_reduction_ratio must be in (0, 1]"),
        (cfg.crowd.questions_per_hit >= 1,
         "crowd.questions_per_hit must be >= 1"),
        (cfg.crowd.price_per_question >= 0,
         "crowd.price_per_question must be >= 0"),
        (cfg.crowd.strong_majority_gap >= 1,
         "crowd.strong_majority_gap must be >= 1"),
        (cfg.crowd.strong_majority_max >= cfg.crowd.strong_majority_gap,
         "crowd.strong_majority_max must be >= strong_majority_gap"),
        (cfg.crowd.max_platform_retries >= 0,
         "crowd.max_platform_retries must be >= 0"),
        (cfg.plan.spill_threshold_mb >= 0,
         "plan.spill_threshold_mb must be >= 0"),
        (cfg.max_pipeline_iterations >= 1,
         "max_pipeline_iterations must be >= 1"),
        (cfg.budget is None or cfg.budget > 0, "budget must be positive"),
    ]
    _raise_first_failure(checks)


def _raise_first_failure(checks: list[tuple[bool, str]]) -> None:
    """Raise :class:`ConfigurationError` for the first failed check."""
    for ok, message in checks:
        if not ok:
            raise ConfigurationError(message)


DEFAULT_CONFIG = CorleoneConfig()
"""A shared default configuration with the paper's parameter values."""


def scaled_config(t_b: int = 30_000, seed: int = 0,
                  **changes: object) -> CorleoneConfig:
    """Return a configuration scaled for laptop-sized experiments.

    The paper's t_B of three million pairs assumes tables with tens of
    thousands of rows; the synthetic datasets shipped with this repository
    default to a few hundred to a few thousand rows, so the blocking
    threshold is scaled down proportionally to keep the Blocker's
    trigger-and-sample logic on the same code path.
    """
    cfg = CorleoneConfig(
        blocker=BlockerConfig(t_b=t_b),
        seed=seed,
    )
    if changes:
        cfg = cfg.replace(**changes)
    return cfg
