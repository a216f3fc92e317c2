"""CL002 — crowd accounting: all labels flow through LabelingService.

Section 8's cents-per-question budget only means something if every
crowd answer is metered.  ``LabelingService`` is the single entry point
that meters cost, enforces the budget and feeds the label cache; a
stray ``platform.ask(pair)`` anywhere else produces an unbilled,
uncached answer that silently skews both the spend report and the
cache-reuse statistics.

Two contexts legitimately touch ``ask``: the platform layer itself
(``crowd/base.py``, ``crowd/service.py``) and decorator platforms —
classes deriving from ``CrowdPlatform`` (or a ``*Crowd``/``*Platform``
base) that forward ``ask`` to an inner platform.  Those are *below* the
service in the stack, so the service still meters everything they do.
"""

from __future__ import annotations

import ast

from ..findings import Severity
from ..source import SourceModule
from .base import ModuleContext, ModuleRule, dotted_name, is_test_module

_ANSWER_METHODS = frozenset({"ask", "ask_many"})
_EXEMPT_SUFFIXES = ("crowd/service.py", "crowd/base.py")


class AccountingRule(ModuleRule):
    """Flags CrowdPlatform answer-path calls outside the service layer."""

    rule_id = "CL002"
    severity = Severity.ERROR
    summary = ("crowd answers must route through LabelingService; direct "
               "CrowdPlatform.ask/ask_many calls bypass cost metering, "
               "the budget and the label cache")

    def applies_to(self, module: SourceModule) -> bool:
        """Everywhere except the platform abstraction and tests."""
        if is_test_module(module):
            return False
        return not module.relpath.endswith(_EXEMPT_SUFFIXES)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Flag ``<expr>.ask(...)`` unless inside a platform subclass."""
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _ANSWER_METHODS):
            return
        if self._in_platform_class(ctx):
            return
        ctx.report(self, node,
                   f"direct CrowdPlatform.{func.attr}() bypasses "
                   "LabelingService accounting (cost metering, budget, "
                   "label cache); use LabelingService.label_batch/"
                   "label_all")

    @staticmethod
    def _in_platform_class(ctx: ModuleContext) -> bool:
        """Is the call inside a class deriving from the platform layer?

        Decorator platforms (``ResilientCrowd(CrowdPlatform)`` etc.)
        forward ``ask`` to an inner platform by design; they sit below
        the service, which still meters every answer they produce.
        """
        enclosing = ctx.enclosing_class()
        if enclosing is None:
            return False
        for base in enclosing.bases:
            chain = dotted_name(base)
            if chain is None:
                continue
            leaf = chain[-1]
            if leaf.endswith(("CrowdPlatform", "Crowd", "Platform")):
                return True
        return False
