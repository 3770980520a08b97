"""Every function, class and method in `src/vismine` has a caller there.

A definition that only tests reach is code the pipeline carries for
nothing.  A module-level function or class counts as used when it is
imported from its module, read as an attribute of that module, or named
inside its module outside its own body; a method or property when its
name appears as an Attribute, the only way to reach one; a function
nested in another when its name appears at all.  `__init__.py` is not
read: its re-exports call nothing.  No module imports another module's
underscore-prefixed names, only `gateway.py` keys or parses a request,
only `jsonl.py` opens an append-only log, no import in vismine, at any
level, names a package outside the standard library, and importing the
CLI loads no network module and no thread pool.
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
    "score": "BM25's one-document formula, the reference the tests check rankings against",
}


def _module_names() -> tuple[dict[str, ast.Module], set[tuple[str, str]], set[str], set[str]]:
    """Each module's tree by name, the (module, name) pairs imported from a module
    or read as its attribute, and the names seen as a Name and as an Attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    from_module: set[tuple[str, str]] = set()
    named: set[str] = set()
    attributes: set[str] = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        aliases = {alias.asname or alias.name: alias.name  # `from . import bm25 as b`
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and node.level == 1 and node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                from_module.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    from_module.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name):
                named.add(node.id)
    return trees, from_module, named, attributes


def _definitions() -> list[tuple[str, str, bool]]:
    """(name, where, used) of each function, class and method in `src/vismine`."""
    trees, from_module, named, attributes = _module_names()
    found = []
    for module, tree in trees.items():
        in_class = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for item in node.body}
        # The names each top-level statement of the module holds as a Name.
        statements = [{n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
                      for top in tree.body]
        top_level = {id(top): number for number, top in enumerate(tree.body)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if id(node) in top_level:
                used = (module, node.name) in from_module or any(
                    node.name in names for number, names in enumerate(statements)
                    if number != top_level[id(node)])
            elif id(node) in in_class and not isinstance(node, ast.ClassDef):
                used = node.name in attributes
            else:
                used = node.name in named | attributes
            found.append((node.name, f"{module}.py:{node.lineno}", used))
    return found


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
    unused = sorted(f"{name} ({where})" for name, where, used in _definitions()
                    if not used and name not in ALLOWED)
    assert not unused, "defined in src/vismine but never referenced there: " + ", ".join(unused)


def test_allowlist_names_only_unreferenced_definitions():
    unused = {name for name, _, used in _definitions() if not used}
    stale = sorted(name for name in ALLOWED if name not in unused)
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


def _loaded_by_importing_the_cli(modules: list[str]) -> str:
    """The printed list of `modules` that a fresh `import vismine.cli` loads."""
    code = f"import sys, vismine.cli; print([m for m in {modules!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_importing_the_cli_loads_no_network_module():
    # `HttpBackend.complete` imports these on call; `ssl` alone would add tens of
    # milliseconds and megabytes to every run's start.
    network = ["ssl", "http.client", "urllib.request", "requests"]
    assert _loaded_by_importing_the_cli(network) == "[]\n"


def test_importing_the_cli_loads_no_thread_pool():
    # `map_items` imports it only to run more than one worker.
    assert _loaded_by_importing_the_cli(["concurrent.futures"]) == "[]\n"
