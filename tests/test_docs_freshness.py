"""Documentation freshness: the docs must not reference dead code.

README/DESIGN/EXPERIMENTS and the docs/ pages name modules, files and
symbols; these tests keep those references alive as the code evolves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).parent.parent
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


def test_all_doc_files_exist():
    for path in DOC_FILES:
        assert path.is_file(), f"missing doc file {path}"
    assert len(DOC_FILES) >= 5


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_referenced_benchmark_files_exist(path):
    for match in re.finditer(r"bench_[a-z0-9_]+\.py", path.read_text()):
        target = ROOT / "benchmarks" / match.group(0)
        assert target.is_file(), (
            f"{path.name} references missing {match.group(0)}"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_referenced_example_files_exist(path):
    text = path.read_text()
    for match in re.finditer(r"`([a-z_]+\.py)`", text):
        name = match.group(1)
        candidates = [
            ROOT / "examples" / name,
            ROOT / "benchmarks" / name,
            ROOT / name,
        ]
        assert any(c.is_file() for c in candidates), (
            f"{path.name} references missing script {name}"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_referenced_modules_importable(path):
    """Every `repro.x.y` dotted reference resolves to a real module or
    attribute."""
    text = path.read_text()
    for match in re.finditer(r"`(repro(?:\.[a-z_]+)+)`", text):
        dotted = match.group(1)
        parts = dotted.split(".")
        # Try as module; fall back to attribute of the parent module.
        try:
            importlib.import_module(dotted)
            continue
        except ImportError:
            pass
        module = importlib.import_module(".".join(parts[:-1]))
        assert hasattr(module, parts[-1]), (
            f"{path.name} references unknown {dotted}"
        )


@functools.cache
def repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == info.name:
                classes.setdefault(name, []).append(value)
    return classes


def class_has(cls: type, attr: str) -> bool:
    """Does ``cls`` define ``attr``: a class attribute, an annotated
    field or an attribute its methods assign to ``self``?"""
    if hasattr(cls, attr) or any(
            attr in vars(klass).get("__annotations__", {})
            for klass in cls.__mro__):
        return True
    assignment = rf"\bself\.{attr}\s*(:[^=\n]+)?="
    return any(re.search(assignment, inspect.getsource(klass))
               for klass in cls.__mro__
               if klass.__module__.startswith("repro."))


def resolves(owner: object, dotted: str) -> bool:
    """Does the attribute path ``dotted`` resolve on ``owner``?"""
    *path, last = dotted.split(".")
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        return class_has(owner, last)
    return hasattr(owner, last)


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_referenced_module_attributes_resolve(path):
    """Every `repro.module:attr` reference names a real attribute; the
    attribute may be dotted (`repro.module:Class.method`)."""
    text = path.read_text()
    for match in re.finditer(
            r"`(repro(?:\.[a-z_]+)+):([A-Za-z_][A-Za-z0-9_.]*)`", text):
        module = importlib.import_module(match.group(1))
        assert resolves(module, match.group(2)), (
            f"{path.name} references unknown {match.group(0)}"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_referenced_class_attributes_resolve(path):
    """Every `Class.attr` reference whose class is defined in `repro`
    names an attribute of that class, so a deleted method the docs
    still name fails here."""
    classes = repro_classes()
    text = path.read_text()
    for match in re.finditer(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_]\w*)`",
                             text):
        name, attr = match.groups()
        if name not in classes:
            continue
        assert any(class_has(cls, attr) for cls in classes[name]), (
            f"{path.name} references unknown {name}.{attr}"
        )


def test_design_lists_every_bench_module():
    design = (ROOT / "DESIGN.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        assert bench.name in design, (
            f"DESIGN.md does not mention {bench.name}"
        )


def test_readme_lists_every_example():
    readme = (ROOT / "README.md").read_text()
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert example.name in readme, (
            f"README.md does not mention {example.name}"
        )


def test_experiments_covers_every_paper_artifact():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                     "Figure 2", "Figure 3"):
        assert artifact in experiments
