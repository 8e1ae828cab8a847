"""The public surface: every function the package exports is called from
inside the library, or is listed below with the reason it is exported
without a caller."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import woldlab

# exported functions that no library module calls, each with its reason
ALLOWED_WITHOUT_CALLER = {
    "decomposition_report": "library entry point: the case-(ii) structure report",
    "wandering_orthogonality_check": "library entry point: the wandering Gram checks",
    "enum_A": "the shell enumeration the acceptance criteria exercise",
    "child_n": "the iterated children the acceptance criteria exercise",
}


def exported_functions() -> set:
    return {name for name in woldlab.__all__ if inspect.isfunction(getattr(woldlab, name))}


def library_references() -> set:
    """Every name read in the package's modules; the re-exports in
    `__init__` and bare imports do not count as reads."""
    names = set()
    for path in Path(woldlab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_function_has_a_library_caller():
    orphans = exported_functions() - library_references() - set(ALLOWED_WITHOUT_CALLER)
    assert not orphans, f"exported but called only from outside the library: {sorted(orphans)}"


def test_allowlist_holds_only_uncalled_exports():
    # a deleted function, or one that gained a library caller, leaves the list
    listed = set(ALLOWED_WITHOUT_CALLER)
    assert listed <= exported_functions(), sorted(listed - exported_functions())
    called = listed & library_references()
    assert not called, f"listed but called inside the library: {sorted(called)}"
