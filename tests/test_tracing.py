from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # the benchmark tracer wraps these functions by name, and its install
    # fails on the first one a rename has removed
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = []
    for table in (tracing.SPANS, tracing.COUNTS):
        for layer, functions in table.items():
            module = importlib.import_module(f"tropsdp.{layer}")
            for name in functions:
                target = module
                for part in name.split("."):
                    target = getattr(target, part, None)
                assert callable(target), f"tropsdp.{layer}.{name}"
                names.append(f"{layer}.{name}")
    assert {"hypergraphs.find_circulation", "hypergraphs.farkas_direction",
            "puiseux.PuiseuxPoly.from_terms"} <= set(names)
