"""Module boundaries of the package, read from its source."""

import ast
from pathlib import Path

import nlprover

PACKAGE = Path(nlprover.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """The `_`-prefixed names that `path` imports from a sibling module,
    each as "line: module.name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.level == 0 and (node.module or "").startswith("nlprover."):
            module = node.module.removeprefix("nlprover.")
        else:
            continue
        found += [
            f"{node.lineno}: {module}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    # A decision more than one module needs sits behind a public name of the
    # module that owns it, as herbrand.decide does for grounding.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offences = {p.name: found for p in modules if (found := _private_imports(p))}
    assert offences == {}
