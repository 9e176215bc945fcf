from __future__ import annotations

import ast
from pathlib import Path

import tropsdp


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ breaks
    # "from tropsdp import *" for every caller
    missing = [name for name in tropsdp.__all__ if not hasattr(tropsdp, name)]
    assert missing == []
    assert len(set(tropsdp.__all__)) == len(tropsdp.__all__)
    namespace: dict = {}
    exec("from tropsdp import *", namespace)
    assert set(tropsdp.__all__) <= namespace.keys()


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is exempt: its imports are the package's public API
    unused = []
    for path in sorted(Path(tropsdp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # import a.b binds a
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
