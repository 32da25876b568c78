"""The benchmark's traced run patches package functions by name; each must exist.

``bench/tracing.py`` is loaded from its file and only read: deleting or
renaming a traced function fails here, not only in a traced bench run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.TARGETS


def resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(f"fibered_lrc.{module}")
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_trace_targets_resolve():
    targets = load_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not resolves(module, attr)]
    assert not missing, missing
