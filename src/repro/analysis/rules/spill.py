"""CL015 — spill ownership: memmap handles live in ``plan/spill.py``.

The spill subsystem (:mod:`repro.plan.spill`) owns every memory-mapped
array in the codebase: creation (``np.lib.format.open_memmap``, raw
``np.memmap``) and mapping on load (``np.load(..., mmap_mode=...)``)
happen only there, so the file layout under the run directory and the
spill accounting are enforced in exactly one place.  A memmap opened
anywhere else bypasses the :class:`~repro.plan.spill.SpillManager`
lifecycle — nothing tracks its bytes or releases its handle, and
nothing counts it in ``bytes_spilled``.
"""

from __future__ import annotations

import ast

from ..findings import Severity
from ..source import SourceModule
from .base import ModuleContext, ModuleRule, dotted_name, is_test_module

_OWNER_SUFFIX = "plan/spill.py"


class SpillOwnershipRule(ModuleRule):
    """Flags memmap creation/opening outside ``plan/spill.py``."""

    rule_id = "CL015"
    severity = Severity.ERROR
    summary = ("memory-mapped arrays (np.memmap, open_memmap, "
               "np.load(mmap_mode=...)) are created only in "
               "plan/spill.py — allocate spill matrices through "
               "SpillManager")

    def applies_to(self, module: SourceModule) -> bool:
        """Everywhere except the owning module itself and tests."""
        if is_test_module(module):
            return False
        return not module.relpath.endswith(_OWNER_SUFFIX)

    def begin_module(self, module: SourceModule,
                     ctx: ModuleContext) -> None:
        """Prescan imports to resolve numpy aliases and bare names."""
        self._numpy = set()
        self._numpy_lib_format = set()
        self._memmap_funcs = set()
        self._load_funcs = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self._numpy.add(alias.asname or "numpy")
                    elif alias.name == "numpy.lib.format":
                        self._numpy_lib_format.add(
                            alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if (node.module == "numpy"
                            and alias.name == "memmap"):
                        self._memmap_funcs.add(bound)
                    elif (node.module == "numpy"
                            and alias.name == "load"):
                        self._load_funcs.add(bound)
                    elif (node.module == "numpy.lib.format"
                            and alias.name == "open_memmap"):
                        self._memmap_funcs.add(bound)
                    elif (node.module == "numpy.lib"
                            and alias.name == "format"):
                        self._numpy_lib_format.add(bound)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Classify one call against the spill-ownership contract."""
        chain = dotted_name(node.func)
        if chain is None:
            return
        head, tail = chain[0], chain[1:]
        if self._creates_memmap(head, tail):
            ctx.report(self, node,
                       "memmap created outside plan/spill.py; allocate "
                       "through repro.plan.SpillManager so the spill "
                       "lifecycle (accounting, handle release) stays "
                       "owned in one place")
        elif self._maps_on_load(head, tail, node):
            ctx.report(self, node,
                       "np.load(mmap_mode=...) outside plan/spill.py; "
                       "memory-mapped arrays belong to "
                       "repro.plan.SpillManager")

    def _creates_memmap(self, head: str, tail: tuple[str, ...]) -> bool:
        """Is this ``np.memmap`` / ``open_memmap`` under any alias?"""
        if not tail:
            return head in self._memmap_funcs
        if head in self._numpy:
            return tail in (("memmap",), ("lib", "format", "open_memmap"))
        if head in self._numpy_lib_format:
            # `import numpy.lib.format as fmt` binds the submodule,
            # `import numpy.lib.format` binds plain `numpy`; either way
            # the chain ends in open_memmap.
            return tail[-1:] == ("open_memmap",)
        return False

    def _maps_on_load(self, head: str, tail: tuple[str, ...],
                      node: ast.Call) -> bool:
        """Is this ``np.load`` under any alias with ``mmap_mode=``?

        Only an explicit non-None ``mmap_mode`` maps the file;
        ``np.load(path)`` and ``mmap_mode=None`` read normally and
        stay legal everywhere.
        """
        is_load = ((tail == ("load",) and head in self._numpy)
                   or (not tail and head in self._load_funcs))
        if not is_load:
            return False
        for keyword in node.keywords:
            if keyword.arg == "mmap_mode":
                is_none = (isinstance(keyword.value, ast.Constant)
                           and keyword.value.value is None)
                return not is_none
        return False
