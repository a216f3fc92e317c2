"""Platform abstraction: a crowd is anything that answers match questions.

A :class:`CrowdPlatform` answers one question — "does pair (a, b) match?" —
with one worker's (possibly wrong) boolean answer.  Vote aggregation,
caching and budgeting are layered on top by
:class:`repro.crowd.service.LabelingService`.

Platforms stack: a wrapper sets :attr:`CrowdPlatform.inner` to the
platform it wraps.  Only this module walks that link — :func:`layers`,
:func:`stack_state`, :func:`load_stack_state` — so any wrapper that
sets ``inner`` joins every walk.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from typing import NamedTuple

from ..data.pairs import Pair


class WorkerAnswer(NamedTuple):
    """One worker's answer to one question."""

    pair: Pair
    label: bool
    worker_id: int


class CrowdPlatform(abc.ABC):
    """Source of single-worker answers to match questions."""

    inner: "CrowdPlatform | None" = None
    """The platform this one wraps (None on a leaf)."""

    @abc.abstractmethod
    def ask(self, pair: Pair) -> WorkerAnswer:
        """Solicit one fresh answer for ``pair`` from some worker.

        Successive calls for the same pair simulate posting the question
        to additional workers (as the 2+1 / strong-majority schemes do).
        """

    def ask_many(self, pair: Pair, n: int) -> list[WorkerAnswer]:
        """Solicit ``n`` independent answers for ``pair``."""
        return [self.ask(pair) for _ in range(n)]

    def state_dict(self) -> dict | None:
        """This layer's own resumable state (None: it keeps none)."""
        return None

    def load_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict` (no-op here)."""


def layers(platform: CrowdPlatform | None) -> Iterator[CrowdPlatform]:
    """Every layer of a platform stack, outermost first."""
    while platform is not None:
        yield platform
        platform = platform.inner


def stack_state(platform: CrowdPlatform) -> dict | None:
    """Each layer's own state, with the layers below under ``"inner"``.

    None when no layer keeps any state.
    """
    state = None
    for layer in reversed(list(layers(platform))):
        own = layer.state_dict()
        state = own if state is None else {**(own or {}), "inner": state}
    return state


def load_stack_state(platform: CrowdPlatform, state: dict | None) -> None:
    """Restore a :func:`stack_state` document (None levels: no-op)."""
    for layer in layers(platform):
        if state is None:
            return
        layer.load_state(state)
        state = state.get("inner")
