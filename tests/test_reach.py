"""Every public top-level function and class, every public method of a
package class, and every private top-level function of the package is
reached.

A name counts as reached when it appears as a word in a code token other
than on its own definition line: elsewhere in the package (``__init__.py``
excluded, since re-exporting is not use), in the acceptance gate, or in the
benchmark.  Comments and docstrings are not code, so naming a function there
reaches nothing.  Code that only its own unit tests call fails this guard.
And every `module.name` the README quotes names something the module defines.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "couette_gevrey"


def _definitions(private: bool):
    """(path, label, name, line) of every definition the guard covers."""
    kinds = (ast.FunctionDef,) if private else (ast.FunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, kinds) and node.name.startswith("_") == private:
                yield path, node.name, node.name, node.lineno
            if not private and isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item.name, item.lineno


def _code_tokens():
    """(path, line, text) of every token that is neither a comment nor a
    docstring, that is a string expression standing as a statement."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        text = path.read_text()
        docstrings = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, str)}
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT and tok.start not in docstrings:
                yield path, tok.start[0], tok.string


def _unreached(private: bool):
    tokens = list(_code_tokens())
    unreached = []
    for path, label, name, def_line in _definitions(private):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) and (p, n) != (path, def_line) for p, n, text in tokens):
            unreached.append(f"{path.stem}.{label}")
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
