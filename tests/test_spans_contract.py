"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or a traced run silently loses that span."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in spans.TARGETS
        if not callable(getattr(spans._resolve(owner), attr, None))
    ]
    assert missing == []
    assert spans.TARGETS
