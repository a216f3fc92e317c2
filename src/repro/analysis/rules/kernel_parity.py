"""CL003 — kernel parity: every library measure has a batched kernel.

PR 1's contract: ``features/batch.py`` provides a bit-exact column-wise
kernel for every measure registered in ``features/library.py``, and no
kernel exists without a measure (a dead kernel is an untested one).
This is a cross-module check: the rule parses both files' registries —
the ``_MEASURE_COSTS`` dict, the ``_KERNELS`` dict, plus the measures
``kernel_for`` special-cases with ``measure == "..."`` comparisons —
and reports any asymmetry at the exact registry line that declares the
orphaned name.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence

from ..findings import Severity
from ..source import SourceModule
from .base import ProjectContext, ProjectRule, iter_string_keys

_LIBRARY_SUFFIX = "features/library.py"
_BATCH_SUFFIX = "features/batch.py"


def _dict_assignment(tree: ast.Module, name: str) -> ast.Dict | None:
    """The dict literal assigned to module-level ``name``, if any."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (isinstance(target, ast.Name) and target.id == name
                    and isinstance(value, ast.Dict)):
                return value
    return None


def _special_cased_measures(tree: ast.Module) -> set[str]:
    """Measure names ``kernel_for`` handles with explicit branches.

    Collected from ``measure == "<name>"`` comparisons inside the
    ``kernel_for`` function (``exact`` and ``cosine_tfidf`` today).
    """
    out: set[str] = set()
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "kernel_for"):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Compare) and len(sub.ops) == 1
                    and isinstance(sub.ops[0], ast.Eq)):
                continue
            operands = [sub.left, *sub.comparators]
            names = [n for n in operands if isinstance(n, ast.Name)]
            consts = [c for c in operands
                      if isinstance(c, ast.Constant)
                      and isinstance(c.value, str)]
            if any(n.id == "measure" for n in names):
                out.update(c.value for c in consts)
    return out


class KernelParityRule(ProjectRule):
    """Cross-checks the measure registry against the kernel registry."""

    rule_id = "CL003"
    severity = Severity.ERROR
    summary = ("every measure in features/library.py _MEASURE_COSTS must "
               "have a batched kernel in features/batch.py (_KERNELS or a "
               "kernel_for special case), and vice versa")

    def check_project(self, modules: Sequence[SourceModule],
                      ctx: ProjectContext) -> None:
        """Run the parity check when both registry files were scanned."""
        library = self._find(modules, _LIBRARY_SUFFIX)
        batch = self._find(modules, _BATCH_SUFFIX)
        if library is None or batch is None:
            return
        measures_dict = _dict_assignment(library.tree, "_MEASURE_COSTS")
        kernels_dict = _dict_assignment(batch.tree, "_KERNELS")
        if measures_dict is None or kernels_dict is None:
            missing_in = library if measures_dict is None else batch
            name = ("_MEASURE_COSTS" if measures_dict is None
                    else "_KERNELS")
            ctx.report(self, missing_in, missing_in.tree,
                       f"registry dict {name} not found as a module-level "
                       "dict literal; the kernel-parity contract cannot "
                       "be checked")
            return

        special = _special_cased_measures(batch.tree)
        measure_keys = dict(iter_string_keys(measures_dict))
        kernel_keys = dict(iter_string_keys(kernels_dict))
        kernel_names = set(kernel_keys) | special

        for measure, key_node in sorted(measure_keys.items()):
            if measure not in kernel_names:
                ctx.report(self, library, key_node,
                           f"measure {measure!r} has no batched kernel in "
                           f"{_BATCH_SUFFIX} (_KERNELS entry or kernel_for "
                           "special case); build_feature_library would "
                           "raise FeatureError")
        for kernel, key_node in sorted(kernel_keys.items()):
            if kernel not in measure_keys:
                ctx.report(self, batch, key_node,
                           f"kernel {kernel!r} has no measure in "
                           f"{_LIBRARY_SUFFIX} _MEASURE_COSTS; a kernel "
                           "outside the library is never parity-tested")

    @staticmethod
    def _find(modules: Sequence[SourceModule],
              suffix: str) -> SourceModule | None:
        """The scanned module whose path ends with ``suffix``, if any."""
        for module in modules:
            if module.relpath.endswith(suffix):
                return module
        return None
