"""Every public top-level function and class, and every private top-level
function, of the package is reached.

A name counts as reached when it appears as a word anywhere other than on
its own definition line: elsewhere in the package (``__init__.py`` excluded,
since re-exporting is not use), in the acceptance gate, or in the benchmark.
Code that only its own unit tests call fails this guard.  And every
`module.name` the README quotes names something the module defines.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "couette_gevrey"


def _definitions(private: bool):
    kinds = (ast.FunctionDef,) if private else (ast.FunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, kinds) and node.name.startswith("_") == private:
                yield path, node.name, node.lineno


def _reaching_lines():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            yield path, lineno, line


def _unreached(private: bool):
    lines = list(_reaching_lines())
    unreached = []
    for path, name, def_line in _definitions(private):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) and (p, n) != (path, def_line) for p, n, line in lines):
            unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_public_definition_is_reached():
    unreached = _unreached(private=False)
    assert not unreached, f"reached only by their own unit tests: {unreached}"


def test_every_private_function_is_reached():
    unreached = _unreached(private=True)
    assert not unreached, f"private functions nothing calls: {unreached}"


def test_readme_module_references_resolve():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    readme = (ROOT / "README.md").read_text()
    refs = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", readme) if mod in modules]
    assert refs, "the README quotes no module.name"
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"couette_gevrey.{mod}"), name)]
    assert not missing, f"README names that do not resolve: {missing}"
