"""Deterministic fault injection for crowd platforms.

Corleone's hands-off premise is that the crowd "just answers" — real
microtask platforms do not.  HITs time out, workers abandon them,
spammers submit garbage in bursts, duplicate submissions arrive, and
the platform itself suffers transient outages: exactly the noise regime
CrowdER (Wang et al., VLDB 2012) and the noisy-oracle analysis of
Mazumdar & Saha (2017) treat as the central obstacle of crowdsourced
ER.  :class:`FaultyCrowd` wraps any platform and injects that taxonomy
*deterministically*: every fault kind draws from its own named,
seed-derived RNG stream, so a given seed replays the exact same fault
schedule — which is what lets the chaos harness assert bit-identical
recovery (see ``docs/robustness.md``).

The taxonomy and the exception each fault raises:

========== ==============================================================
kind       behaviour
========== ==============================================================
timeout    no answer arrives in time — :class:`AnswerTimeoutError`
expiry     the HIT is abandoned/expires — :class:`HitExpiredError`
spammer    a transient worker answers randomly (or adversarially) for
           ``spammer_burst`` consecutive questions
duplicate  the platform re-delivers the previous submission for the pair
outage     the platform is down for ``outage_length`` consecutive asks —
           :class:`TransientCrowdError`
========== ==============================================================

``hard_outage_after`` additionally models a *scheduled* outage: after
that many delivered answers the platform goes dark until an operator
resumes the run with a recovered platform.  The hard outage consumes no
RNG draws and no answers, so a run killed by it stays bit-identical to
the never-interrupted run up to the failure point — the property the
resume sweep in ``tests/test_chaos.py`` asserts.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from ..data.pairs import Pair
from ..exceptions import (
    AnswerTimeoutError,
    ConfigurationError,
    HitExpiredError,
    TransientCrowdError,
)
from .base import CrowdPlatform, WorkerAnswer

FAULT_TIMEOUT = "timeout"
FAULT_EXPIRY = "expiry"
FAULT_SPAMMER = "spammer"
FAULT_DUPLICATE = "duplicate"
FAULT_OUTAGE = "outage"

FAULT_KINDS = (
    FAULT_TIMEOUT,
    FAULT_EXPIRY,
    FAULT_SPAMMER,
    FAULT_DUPLICATE,
    FAULT_OUTAGE,
)
"""Every fault kind, in the order ``ask`` evaluates them."""

FaultObserver = Callable[[str, Pair], None]
"""Callback fired as ``on_fault(kind, pair)`` for every injected fault
(the engine's ``fault_injected`` event hook)."""


@dataclass(frozen=True)
class FaultSpec:
    """Per-kind fault rates and shape parameters (all independent).

    Rates are per-``ask`` probabilities in [0, 1]; each kind draws from
    its own RNG stream, so raising one rate never perturbs another
    kind's schedule (the same stream-independence contract the engine's
    :meth:`~repro.engine.context.RunContext.rng` gives the stages).
    """

    timeout_rate: float = 0.0
    """Probability an answer never arrives (no answer consumed)."""

    expiry_rate: float = 0.0
    """Probability the HIT is abandoned/expires (no answer consumed)."""

    spammer_rate: float = 0.0
    """Probability a spammer burst starts on this question."""

    spammer_burst: int = 3
    """Consecutive answers a spammer produces once triggered."""

    adversarial_spam: bool = False
    """True: the spammer inverts the real answer; False: answers
    uniformly at random (the Ipeirotis-style random spammer)."""

    duplicate_rate: float = 0.0
    """Probability the platform re-delivers the pair's last submission."""

    outage_rate: float = 0.0
    """Probability a transient platform outage starts on this ask."""

    outage_length: int = 3
    """Consecutive asks a transient outage rejects once started."""

    hard_outage_after: int | None = None
    """Go dark permanently after this many delivered answers (None:
    never).  Models a scheduled platform failure for the chaos sweep's
    kill points; deliberately consumes no randomness."""

    def __post_init__(self) -> None:
        for name in ("timeout_rate", "expiry_rate", "spammer_rate",
                     "duplicate_rate", "outage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.spammer_burst < 1:
            raise ConfigurationError("spammer_burst must be >= 1")
        if self.outage_length < 1:
            raise ConfigurationError("outage_length must be >= 1")
        if self.hard_outage_after is not None and self.hard_outage_after < 0:
            raise ConfigurationError("hard_outage_after must be >= 0")

    @classmethod
    def uniform(cls, rate: float, **overrides: object) -> "FaultSpec":
        """A spec with every per-ask fault kind at the same ``rate``."""
        values: dict[str, object] = {
            "timeout_rate": rate,
            "expiry_rate": rate,
            "spammer_rate": rate,
            "duplicate_rate": rate,
            "outage_rate": rate,
        }
        values.update(overrides)
        return cls(**values)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible representation of the spec."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def fault_stream_seed(root: int | np.random.SeedSequence,
                      kind: str) -> np.random.SeedSequence:
    """The named seed sequence for one fault kind's stream.

    Mirrors :meth:`repro.engine.context.RunContext.rng`'s scheme: the
    stream is a deterministic function of the root seed and the stream
    *name* only, so adding a fault kind never shifts another's draws.
    """
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    key = zlib.crc32(f"fault.{kind}".encode("utf-8"))
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=(*root.spawn_key, key),
    )


class FaultyCrowd(CrowdPlatform):
    """A platform wrapper injecting the configured fault taxonomy.

    Sits *below* the gateway and the labelling service, so every answer
    it does deliver is still metered normally; faults that deliver no
    answer charge nothing (the accounting invariant: answers delivered
    == answers charged).  Exposes ``state_dict``/``load_state`` so the
    engine's checkpoints capture the fault schedule mid-run and a
    resumed run replays the exact same faults.
    """

    def __init__(self, inner: CrowdPlatform, spec: FaultSpec,
                 seed: int | np.random.SeedSequence = 0,
                 on_fault: FaultObserver | None = None) -> None:
        self.inner = inner
        self.spec = spec
        self._rngs = {
            kind: np.random.default_rng(fault_stream_seed(seed, kind))
            for kind in FAULT_KINDS
        }
        self.on_fault = on_fault
        self.counts: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)
        """Faults injected so far, by kind."""
        self._delivered = 0
        self._outage_remaining = 0
        self._spam_remaining = 0
        self._spam_answers = 0
        self._last: dict[Pair, WorkerAnswer] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def answers_delivered(self) -> int:
        """Answers this platform actually handed to its caller."""
        return self._delivered

    @property
    def faults_injected(self) -> int:
        """Total faults injected so far, over all kinds."""
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # The answer path
    # ------------------------------------------------------------------

    def ask(self, pair: Pair) -> WorkerAnswer:
        """One answer — or one injected fault — for ``pair``."""
        spec = self.spec
        if (spec.hard_outage_after is not None
                and self._delivered >= spec.hard_outage_after):
            self._fault(FAULT_OUTAGE, pair)
            raise TransientCrowdError(
                f"platform outage (scheduled after "
                f"{spec.hard_outage_after} answers)"
            )
        if self._outage_remaining > 0:
            self._outage_remaining -= 1
            self._fault(FAULT_OUTAGE, pair)
            raise TransientCrowdError("platform outage in progress")
        if spec.outage_rate and self._draw(FAULT_OUTAGE) < spec.outage_rate:
            # This ask is the first rejection of the outage window.
            self._outage_remaining = spec.outage_length - 1
            self._fault(FAULT_OUTAGE, pair)
            raise TransientCrowdError("transient platform outage")
        if spec.timeout_rate and self._draw(FAULT_TIMEOUT) < spec.timeout_rate:
            self._fault(FAULT_TIMEOUT, pair)
            raise AnswerTimeoutError(f"no answer arrived for {pair}")
        if spec.expiry_rate and self._draw(FAULT_EXPIRY) < spec.expiry_rate:
            self._fault(FAULT_EXPIRY, pair)
            raise HitExpiredError(f"HIT abandoned/expired for {pair}")
        if spec.duplicate_rate and pair in self._last \
                and self._draw(FAULT_DUPLICATE) < spec.duplicate_rate:
            # The platform re-delivers (and bills) the last submission.
            self._fault(FAULT_DUPLICATE, pair)
            self._delivered += 1
            return self._last[pair]
        spamming = self._spam_remaining > 0
        if not spamming and spec.spammer_rate \
                and self._draw(FAULT_SPAMMER) < spec.spammer_rate:
            spamming = True
            self._spam_remaining = spec.spammer_burst
        if spamming:
            self._spam_remaining -= 1
            return self._spam_answer(pair)
        answer = self.inner.ask(pair)
        self._delivered += 1
        self._last[pair] = answer
        return answer

    def _spam_answer(self, pair: Pair) -> WorkerAnswer:
        """One garbage answer from the transient spammer worker.

        The real worker's slot is consumed (the platform billed the
        question), but the label is noise: adversarial spam inverts the
        real answer, random spam flips a fair coin.  Spammer answers
        carry negative worker ids so transcripts can tell them apart.
        """
        answer = self.inner.ask(pair)
        if self.spec.adversarial_spam:
            label = not answer.label
        else:
            label = bool(self._rngs[FAULT_SPAMMER].random() < 0.5)
        self._spam_answers += 1
        self._fault(FAULT_SPAMMER, pair)
        self._delivered += 1
        spam = WorkerAnswer(answer.pair, label,
                            worker_id=-self._spam_answers)
        self._last[pair] = spam
        return spam

    def _draw(self, kind: str) -> float:
        """One uniform draw from the kind's own stream."""
        return float(self._rngs[kind].random())

    def _fault(self, kind: str, pair: Pair) -> None:
        """Count one injected fault and notify the observer."""
        self.counts[kind] += 1
        if self.on_fault is not None:
            self.on_fault(kind, pair)

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.crowd.base.stack_state)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The fault schedule's own state (JSON-compatible)."""
        return {
            "rngs": {kind: self._rngs[kind].bit_generator.state
                     for kind in FAULT_KINDS},
            "counts": dict(self.counts),
            "delivered": self._delivered,
            "outage_remaining": self._outage_remaining,
            "spam_remaining": self._spam_remaining,
            "spam_answers": self._spam_answers,
            "last": [
                [pair.a_id, pair.b_id, bool(answer.label),
                 int(answer.worker_id)]
                for pair, answer in self._last.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a schedule captured by :meth:`state_dict`."""
        for kind in FAULT_KINDS:
            self._rngs[kind].bit_generator.state = state["rngs"][kind]
        self.counts = dict(state["counts"])
        self._delivered = int(state["delivered"])
        self._outage_remaining = int(state["outage_remaining"])
        self._spam_remaining = int(state["spam_remaining"])
        self._spam_answers = int(state["spam_answers"])
        self._last = {}
        for a_id, b_id, label, worker_id in state["last"]:
            pair = Pair(str(a_id), str(b_id))
            self._last[pair] = WorkerAnswer(pair, bool(label),
                                            worker_id=int(worker_id))
