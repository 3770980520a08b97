"""Every function, class and method in `src/vismine` has a caller there.

A definition that only tests reach is code the pipeline carries for
nothing.  Names are matched, not objects: a function or class counts as
used when its name appears as a Name, an Attribute or an imported name in
any module other than `__init__.py`, whose re-exports call nothing, and a
method or property only when its name appears as an Attribute, the only
way to reach one.  No module imports another module's underscore-prefixed
names, only `gateway.py` keys or parses a request, only `jsonl.py` opens
an append-only log, no import in vismine, at any level, names a package
outside the standard library, and importing the CLI loads no network
module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import vismine

SRC = Path(vismine.__file__).parent

# Definitions kept although nothing in `src/vismine` calls them.
ALLOWED = {
    "dump": "Bm25Index's snapshot is the tests' view of the postings it builds",
    "StubBackend": "the response-function backend the tests drive the gateway with",
    "recall": "the score arithmetic's third ratio, next to precision and f1",
    "micro_f1": "the stage-3 metric's definition, which the tests check the reports against",
}


def _defined_and_referenced() -> tuple[dict[str, str], set[str]]:
    """Where each name is first defined, and the names counted as used."""
    defined: dict[str, str] = {}
    functions: set[str] = set()  # names defined outside class bodies, classes included
    named: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_class = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                    if id(node) not in in_class or isinstance(node, ast.ClassDef):
                        functions.add(node.name)
            if path.name != "__init__.py":
                (attributes if isinstance(node, ast.Attribute) else named).update(_names(node))
    return defined, attributes | (named & functions)


def _names(node: ast.AST) -> list[str]:
    """The names `node` references: as a Name, an Attribute or imported names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_no_definition_is_reached_only_from_tests():
    defined, referenced = _defined_and_referenced()
    unused = sorted(
        f"{name} ({where})" for name, where in defined.items()
        if name not in referenced and name not in ALLOWED
    )
    assert not unused, "defined in src/vismine but never referenced there: " + ", ".join(unused)


def test_allowlist_names_only_unreferenced_definitions():
    defined, referenced = _defined_and_referenced()
    stale = sorted(name for name in ALLOWED if name not in defined or name in referenced)
    assert not stale, f"allowlisted names that are gone or now referenced: {stale}"


def test_no_module_imports_another_modules_private_names():
    private = sorted(
        f"{alias.name} ({path.name}:{node.lineno})"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("vismine"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert not private, "private names imported across modules: " + ", ".join(private)


def test_only_the_gateway_keys_and_parses_requests():
    owned = {"prompt_hash", "parse_json_payload"}
    outside = sorted(
        f"{name} ({path.name}:{node.lineno})"
        for path in sorted(SRC.glob("*.py")) if path.name != "gateway.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _names(node) if name in owned
    )
    assert not outside, "request keys or parses outside gateway.py: " + ", ".join(outside)


def test_only_jsonl_opens_an_append_only_log():
    # One log design: every append-only log in the cache dir is a `jsonl.AppendLog`.
    outside = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "jsonl.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "O_APPEND" in _names(node)
    )
    assert not outside, "O_APPEND outside jsonl.py: " + ", ".join(outside)


def _imports(node: ast.AST):
    """Each import under `node`, at any level, and the top-level package it names."""
    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield child, alias.name.split(".")[0]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child, child.module.split(".")[0]


def test_no_module_imports_a_third_party_package():
    # One `import numpy` would add its resident memory to the runs that reach it.
    outside = sorted(
        f"{package} ({path.name}:{node.lineno})"
        for path in sorted(SRC.glob("*.py"))
        for node, package in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if package not in sys.stdlib_module_names and package != "vismine"
    )
    assert not outside, "third-party imports: " + ", ".join(outside)


def test_importing_the_cli_loads_no_network_module():
    # `HttpBackend.complete` imports these on call; `ssl` alone would add tens of
    # milliseconds and megabytes to every run's start.
    network = ["ssl", "http.client", "urllib.request", "requests"]
    code = f"import sys, vismine.cli; print([m for m in {network!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"
