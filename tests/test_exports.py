from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropsdp
from conftest import FIXTURES


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ breaks
    # "from tropsdp import *" for every caller
    missing = [name for name in tropsdp.__all__ if not hasattr(tropsdp, name)]
    assert missing == []
    assert len(set(tropsdp.__all__)) == len(tropsdp.__all__)
    assert set(tropsdp.__all__) <= set(dir(tropsdp))
    namespace: dict = {}
    exec("from tropsdp import *", namespace)
    assert set(tropsdp.__all__) <= namespace.keys()


#: The tropsdp submodules each verb loads, and a bare "import tropsdp": none.
BASE = {"cli", "errors", "pencils", "signed"}
SEARCH = BASE | {"hypergraphs", "lp"}
LOADS = [
    ((), set()),
    (("member", "line_pencil.json", "--at", "0,0,0"), BASE),
    (("decompose", "quadrant_ray.json", "--diamond", "1,2:>="), BASE),
    (("slice", "polygon9.json", "--fix", "x0=0", "--box", "0,8", "--step", "1/2"), BASE),
    (("generic", "m1_distinct.json"), SEARCH),
    (("hypergraph", "line_pencil.json", "--at", "0,0,0"), SEARCH),
    (("validate", "m1_distinct.json", "--step", "1"),
     SEARCH | {"oracle", "polynomials", "puiseux"}),
]


@pytest.mark.parametrize("argv, loaded", LOADS, ids=[a[0] if a else "import" for a, _ in LOADS])
def test_each_verb_loads_only_its_layers(argv, loaded):
    # a fresh interpreter on the same package: the verb's output, then the
    # tropsdp submodules it imported on its last line
    if argv:
        argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:]]
    call = f"from tropsdp.cli import main; main({argv!r})" if argv else "import tropsdp"
    code = f"import sys; {call}; print(sorted(m for m in sys.modules if m.startswith('tropsdp.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(tropsdp.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == str(sorted(f"tropsdp.{m}" for m in loaded))


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(tropsdp.__file__).parent.glob("*.py")):
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
