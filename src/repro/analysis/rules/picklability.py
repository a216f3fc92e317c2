"""CL005 — picklability: pool workers must be module-level functions.

The sharded blocking executor (``exec/executor.py``) ships work to a
``multiprocessing`` pool; callables passed to pool methods cross the
process boundary by pickling, and lambdas or closures fail there at
runtime — on the fork path only when a worker actually unpickles them,
which makes the bug platform-dependent.  This rule catches it
statically: the callable handed to a pool/executor method must resolve
to a module-level ``def`` (or an import), never a lambda or a function
nested inside another function.
"""

from __future__ import annotations

import ast

from ..findings import Severity
from ..source import SourceModule
from .base import ModuleContext, ModuleRule, dotted_name

_POOL_METHODS = frozenset({
    "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async", "submit",
})
_POOLISH_NAMES = ("pool", "executor")
_PARTIAL_NAMES = frozenset({"partial"})


class PicklabilityRule(ModuleRule):
    """Flags lambdas/closures handed to multiprocessing pool methods."""

    rule_id = "CL005"
    severity = Severity.ERROR
    summary = ("callables passed to multiprocessing pool / executor "
               "methods must be module-level functions (picklable), "
               "not lambdas or closures")

    def begin_module(self, module: SourceModule,
                     ctx: ModuleContext) -> None:
        """Index module-level vs nested function definitions."""
        self._module_level: set[str] = set()
        self._nested: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_level.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self._module_level.add(bound)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if (sub is not node
                            and isinstance(sub, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))):
                        self._nested.add(sub.name)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Inspect the callable argument of pool-shaped method calls."""
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _POOL_METHODS):
            return
        receiver = func.value
        leaf = None
        if isinstance(receiver, ast.Name):
            leaf = receiver.id
        elif isinstance(receiver, ast.Attribute):
            leaf = receiver.attr
        if leaf is None or not any(
                poolish in leaf.lower() for poolish in _POOLISH_NAMES):
            return
        if not node.args:
            return
        self._check_callable(node.args[0], ctx)

    def _check_callable(self, arg: ast.expr, ctx: ModuleContext) -> None:
        """Vet the callable being shipped across the process boundary."""
        if isinstance(arg, ast.Lambda):
            ctx.report(self, arg,
                       "lambda passed to a multiprocessing pool cannot "
                       "be pickled; hoist it to a module-level def")
            return
        if (isinstance(arg, ast.Call) and (chain := dotted_name(arg.func))
                and chain[-1] in _PARTIAL_NAMES and arg.args):
            # functools.partial pickles iff its inner callable does.
            self._check_callable(arg.args[0], ctx)
            return
        if isinstance(arg, ast.Name):
            name = arg.id
            if name in self._nested and name not in self._module_level:
                ctx.report(self, arg,
                           f"function {name!r} is defined inside another "
                           "function; closures cannot cross the process "
                           "boundary — hoist it to module level")
