"""The prose docs name only code that exists.

Every backticked CamelCase name and every backticked ``repro.``-dotted path
in ``README.md`` and the verify skill must be defined somewhere in
``src/repro``, found by an ``ast`` walk of the package (nothing is
imported).  A name from outside the package goes on :data:`EXTERNAL` with
the reason it is allowed; Python builtins (``ValueError``) are always
allowed.  Every backticked ``ClassName.attr`` whose class the package
defines must name a method, class-level assignment or ``self.attr``
assignment of that class or one of its package bases.  Every keyword a
backticked span or a fenced ``python`` block passes to a package class must
be one of that class's dataclass fields or ``__init__`` parameters.
Deleting a class, a method or a constructor option without updating the
docs that name it fails here.
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



# -- constructor keywords ------------------------------------------------------

_FENCED = re.compile(r"```python\n(.*?)```", re.S)


def _class_defs(modules) -> dict:
    """``{class name: [ClassDef, ...]}``; same-named classes pool."""
    defs = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).append(node)
    return defs


CLASS_DEFS = _class_defs(MODULES)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
               for d in node.decorator_list)


def _accepted_keywords(cls: str, seen=()):
    """Keywords package class ``cls``'s constructor accepts: its dataclass
    fields and ``__init__`` parameters, its package bases' included.  None
    when that cannot be told from the source (``**kwargs``, a constructor
    inherited from outside the package)."""
    accepted = set()
    for node in CLASS_DEFS[cls]:
        init = next((stmt for stmt in node.body
                     if isinstance(stmt, ast.FunctionDef)
                     and stmt.name == "__init__"), None)
        if init is not None:
            if init.args.kwarg is not None:
                return None
            accepted |= {arg.arg for arg in (init.args.posonlyargs
                                             + init.args.args
                                             + init.args.kwonlyargs)}
            continue
        if _is_dataclass(node):
            accepted |= {stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)}
        for base in node.bases:
            name = ast.unparse(base).split(".")[-1]
            if name == "object":
                continue
            if name not in CLASS_DEFS or name in seen:
                return None
            inherited = _accepted_keywords(name, seen + (cls,))
            if inherited is None:
                return None
            accepted |= inherited
    return accepted


def _constructor_keywords(source: str) -> list:
    """``(class, keyword)`` for every keyword ``source`` passes to a package
    class; source that does not parse as Python names none."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name in CLASS_DEFS:
            calls.extend((name, kw.arg) for kw in node.keywords
                         if kw.arg is not None)
    return calls


def _stale_keywords(calls) -> list:
    stale = []
    for cls, keyword in calls:
        accepted = _accepted_keywords(cls)
        if accepted is not None and keyword not in accepted:
            stale.append(f"{cls}({keyword}=)")
    return sorted(stale)


def _doc_keywords(doc: str) -> list:
    text = (ROOT / doc).read_text()
    return [call for source in _SPAN.findall(text) + _FENCED.findall(text)
            for call in _constructor_keywords(source)]


@pytest.mark.parametrize("doc", DOCS)
def test_constructor_keywords_are_accepted_by_the_class(doc):
    stale = _stale_keywords(_doc_keywords(doc))
    assert stale == [], f"{doc} passes keywords no constructor takes: {stale}"


def test_keyword_check_reads_the_docs_and_catches_a_stale_keyword():
    assert sum(len(_doc_keywords(doc)) for doc in DOCS) >= 10
    assert _stale_keywords(_constructor_keywords(
        "CaptureConfig(warmup=0)")) == ["CaptureConfig(warmup=)"]
    assert _stale_keywords(_constructor_keywords(
        "StepCapture(warmup_steps=0)")) == ["StepCapture(warmup_steps=)"]
    # ``...`` parses as Ellipsis, so an elided call is still checked.
    assert _stale_keywords(_constructor_keywords(
        "FineTuner(..., capture=StepCapture())")) == ["FineTuner(capture=)"]
    assert _stale_keywords(_constructor_keywords(
        "repro.TrainingConfig(capture=CaptureConfig(enabled=True))")) == []
    # Dataclass fields and package bases count; an outside base cannot be
    # told and is skipped.
    assert "streaming_tile" in _accepted_keywords("AttentionConfig")
    assert "rank" in _accepted_keywords("LoRALinear")
