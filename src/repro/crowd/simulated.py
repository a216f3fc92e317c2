"""Simulated crowds.

:class:`SimulatedCrowd` implements the random-worker model of Ipeirotis et
al. / Guo et al. that the paper uses for its own sensitivity analysis
(Section 9.3): every answer is independently flipped with probability
``error_rate``.  :class:`PerfectCrowd` is the 0%-error special case and
:class:`HeterogeneousCrowd` draws a per-worker error rate, modelling a mix
of careful workers and spammers.

Every platform here defaults to a *fixed-seed* generator
(``np.random.default_rng(0)``) when no ``rng`` is passed — the
determinism contract (corlint CL001) forbids ambient entropy in crowd
code, so even a casually constructed crowd replays bit-identically.
Pass your own seeded Generator for independent answer streams.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence

import numpy as np

from ..data.pairs import Pair
from ..exceptions import CrowdError
from .base import CrowdPlatform, WorkerAnswer

Oracle = Callable[[Pair], bool]
"""Ground truth: maps a pair to its true matched/unmatched label."""


class _StatefulCrowd(CrowdPlatform):
    """Shared answer-stream state capture for the simulated platforms.

    The staged execution engine checkpoints every layer's
    ``state_dict()`` (:func:`repro.crowd.base.stack_state`), so a resumed
    run draws the *same* noisy answers the uninterrupted run would have
    — without it, a noisy crowd's RNG would restart and diverge.
    """

    _rng: np.random.Generator
    _answers_given: int

    def state_dict(self) -> dict:
        """The platform's answer-stream state (JSON-compatible)."""
        return {
            "rng": self._rng.bit_generator.state,
            "answers_given": self._answers_given,
        }

    def load_state(self, state: dict) -> None:
        """Restore answer-stream state captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self._answers_given = int(state["answers_given"])


def oracle_from_matches(matches: Collection[Pair]) -> Oracle:
    """Build an oracle from the set of true matching pairs."""
    match_set = {Pair(*pair) for pair in matches}
    return lambda pair: Pair(*pair) in match_set


class SimulatedCrowd(_StatefulCrowd):
    """Random-worker crowd with one fixed error rate for all workers."""

    def __init__(self, oracle: Oracle | Collection[Pair],
                 error_rate: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        if not callable(oracle):
            oracle = oracle_from_matches(oracle)
        if not 0.0 <= error_rate <= 1.0:
            raise CrowdError("error_rate must be in [0, 1]")
        self._oracle: Oracle = oracle
        self.error_rate = error_rate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._answers_given = 0

    @property
    def answers_given(self) -> int:
        """Total single-worker answers produced so far."""
        return self._answers_given

    def true_label(self, pair: Pair) -> bool:
        """Ground-truth label (used by evaluation code, never by Corleone)."""
        return self._oracle(pair)

    def ask(self, pair: Pair) -> WorkerAnswer:
        truth = self._oracle(pair)
        flip = self._rng.random() < self.error_rate
        self._answers_given += 1
        return WorkerAnswer(pair, truth != flip, worker_id=self._answers_given)


class PerfectCrowd(SimulatedCrowd):
    """A crowd that always answers correctly (0% error rate)."""

    def __init__(self, oracle: Oracle | Collection[Pair],
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(oracle, error_rate=0.0, rng=rng)


class BiasedCrowd(_StatefulCrowd):
    """A crowd with *asymmetric* error rates.

    Real EM workers miss matches more often than they invent them: a
    subtly different product pair gets a lazy "no" far more readily than
    a clearly distinct pair gets a "yes".  This platform models that
    with separate false-negative and false-positive rates, stressing the
    §8 voting analysis (which the paper develops under symmetric noise).
    """

    def __init__(self, oracle: Oracle | Collection[Pair],
                 false_negative_rate: float = 0.15,
                 false_positive_rate: float = 0.02,
                 rng: np.random.Generator | None = None) -> None:
        if not callable(oracle):
            oracle = oracle_from_matches(oracle)
        for name, rate in (("false_negative_rate", false_negative_rate),
                           ("false_positive_rate", false_positive_rate)):
            if not 0.0 <= rate <= 1.0:
                raise CrowdError(f"{name} must be in [0, 1]")
        self._oracle: Oracle = oracle
        self.false_negative_rate = false_negative_rate
        self.false_positive_rate = false_positive_rate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._answers_given = 0

    @property
    def answers_given(self) -> int:
        """Total single-worker answers produced so far."""
        return self._answers_given

    def true_label(self, pair: Pair) -> bool:
        """Ground-truth label (evaluation only, never used by Corleone)."""
        return self._oracle(pair)

    def ask(self, pair: Pair) -> WorkerAnswer:
        """One answer, flipped at the class-conditional error rate."""
        truth = self._oracle(pair)
        rate = (self.false_negative_rate if truth
                else self.false_positive_rate)
        flip = self._rng.random() < rate
        self._answers_given += 1
        return WorkerAnswer(pair, truth != flip,
                            worker_id=self._answers_given)


class HeterogeneousCrowd(_StatefulCrowd):
    """A pool of workers with individually drawn error rates.

    Each question is routed to a uniformly random worker from the pool,
    so answer quality varies question to question — a closer model of a
    real AMT population than a single global error rate.
    """

    def __init__(self, oracle: Oracle | Collection[Pair],
                 worker_error_rates: Sequence[float],
                 rng: np.random.Generator | None = None) -> None:
        if not callable(oracle):
            oracle = oracle_from_matches(oracle)
        if not worker_error_rates:
            raise CrowdError("worker pool must not be empty")
        rates = [float(r) for r in worker_error_rates]
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise CrowdError("every worker error rate must be in [0, 1]")
        self._oracle: Oracle = oracle
        self._rates = rates
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._answers_given = 0

    @property
    def answers_given(self) -> int:
        """Total single-worker answers produced so far."""
        return self._answers_given

    def true_label(self, pair: Pair) -> bool:
        """Ground-truth label (evaluation only, never used by Corleone)."""
        return self._oracle(pair)

    def ask(self, pair: Pair) -> WorkerAnswer:
        """One answer from a uniformly chosen worker of the pool."""
        worker = int(self._rng.integers(len(self._rates)))
        truth = self._oracle(pair)
        flip = self._rng.random() < self._rates[worker]
        self._answers_given += 1
        return WorkerAnswer(pair, truth != flip, worker_id=worker)
