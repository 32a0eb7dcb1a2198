"""The prose docs name only code that exists.

Every backticked CamelCase name and every backticked ``repro.``-dotted path
in ``README.md`` and the verify skill must be defined somewhere in
``src/repro``, found by an ``ast`` walk of the package (nothing is
imported).  A name from outside the package goes on :data:`EXTERNAL` with
the reason it is allowed; Python builtins (``ValueError``) are always
allowed.  Every backticked ``ClassName.attr`` whose class the package
defines must name a method, class-level assignment or ``self.attr``
assignment of that class or one of its package bases.  Deleting a class or
a method without updating the docs that name it fails here.
"""

from __future__ import annotations

import ast
import builtins
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
# The README and the verify skill (build-and-drive notes in a dot-directory).
DOCS = ["README.md", *sorted(str(path.relative_to(ROOT))
                             for path in ROOT.glob(".*/skills/verify/SKILL.md"))]

# Names the docs cite from other code bases, each with its reason.
EXTERNAL = {
    "SparseBMM": "xformers' batched sparse matmul, cited as the exemplar "
                 "for the attention kernel's score-gradient rule",
}

_SPAN = re.compile(r"`([^`\n]+)`")
# A CamelCase identifier not reached through an attribute (``x.Name``) or a
# pytest node id (``file.py::TestName``).
_CAMEL = re.compile(r"(?<![\w.:])([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)\b")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _modules():
    """``{dotted module name: parsed tree}`` for every file of the package."""
    out = {}
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = ast.parse(path.read_text(), filename=str(path))
    return out


def _top_level_names(tree: ast.Module) -> set:
    """Names a module binds at its top level, imports included."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _defined_anywhere(modules) -> set:
    """Every class, function, method and top-level or class-level variable
    the package defines (imports excluded)."""
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                body = node.body
            elif isinstance(node, ast.Module):
                body = node.body
            else:
                continue
            for stmt in body:
                if isinstance(stmt, ast.Assign):
                    names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
    return names


def _class_members(modules) -> dict:
    """``{class name: (base names, attributes)}`` for every package class;
    same-named classes pool their entries."""
    classes = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases, attrs = classes.setdefault(node.name, (set(), set()))
            bases.update(b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute)))
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    attrs.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                    attrs.update(t.id for t in targets if isinstance(t, ast.Name))
            for sub in ast.walk(node):
                targets = (sub.targets if isinstance(sub, ast.Assign) else
                           [sub.target] if isinstance(sub, (ast.AnnAssign,
                                                            ast.AugAssign))
                           else [])
                attrs.update(t.attr for t in targets
                             if isinstance(t, ast.Attribute)
                             and isinstance(t.value, ast.Name)
                             and t.value.id == "self")
    return classes


MODULES = _modules()
DEFINED = _defined_anywhere(MODULES)
CLASSES = _class_members(MODULES)
# ``ClassName.attr``, not reached through a pytest node id.
_MEMBER = re.compile(r"(?<![\w:])([A-Z]\w*)\.([A-Za-z_]\w*)")


def _has_member(cls: str, attr: str, seen=()) -> bool:
    """Whether package class ``cls`` or one of its package bases defines
    ``attr``."""
    bases, attrs = CLASSES[cls]
    return attr in attrs or any(
        _has_member(base, attr, seen + (cls,)) for base in bases
        if base in CLASSES and base not in seen + (cls,))


def _resolves(path: str) -> bool:
    """``repro.a.b.name.attr``: the longest module prefix exists, the next
    part is bound at its top level, and any further part is defined
    somewhere in the package."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in MODULES:
            rest = parts[cut:]
            if not rest:
                return True
            return (rest[0] in _top_level_names(MODULES[module])
                    and all(part in DEFINED for part in rest[1:]))
    return False


def _spans(doc: str):
    return _SPAN.findall((ROOT / doc).read_text())


@pytest.mark.parametrize("doc", DOCS)
def test_camel_case_names_are_defined_in_the_package(doc):
    names = {name for span in _spans(doc) for name in _CAMEL.findall(span)}
    assert names, f"{doc} names no classes; the pattern is broken"
    missing = sorted(name for name in names
                     if name not in DEFINED and name not in EXTERNAL
                     and not hasattr(builtins, name))
    assert missing == [], f"{doc} names code that does not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_repro_paths_resolve(doc):
    paths = {path for span in _spans(doc) for path in _DOTTED.findall(span)}
    assert paths, f"{doc} names no repro paths; the pattern is broken"
    missing = sorted(path for path in paths if not _resolves(path))
    assert missing == [], f"{doc} names code that does not exist: {missing}"


def _member_references(doc: str) -> set:
    return {ref for span in _spans(doc) for ref in _MEMBER.findall(span)
            if ref[0] in CLASSES}


@pytest.mark.parametrize("doc", DOCS)
def test_class_attributes_are_defined_by_the_class(doc):
    refs = _member_references(doc)
    missing = sorted(f"{cls}.{attr}" for cls, attr in refs
                     if not _has_member(cls, attr))
    assert missing == [], f"{doc} names class members that do not exist: {missing}"


def test_member_check_reads_the_docs_and_catches_a_stale_name():
    assert sum(len(_member_references(doc)) for doc in DOCS) >= 10
    assert _has_member("Adam", "step") and _has_member("Adam", "step_count")
    assert _has_member("LoRALinear", "parameters")     # from Module
    assert not _has_member("Adam", "removed_method")


def test_both_docs_are_checked():
    assert len(DOCS) == 2 and all((ROOT / doc).is_file() for doc in DOCS)


def test_external_names_are_not_defined_in_the_package():
    # An allowlisted name the package defines no longer needs the allowance.
    assert not set(EXTERNAL) & DEFINED

