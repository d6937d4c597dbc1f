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


def test_gauss_batteries_reach_the_traced_sums(monkeypatch):
    # the Gauss batteries call the sums and the c-table through
    # ``hypergeometric``'s bindings, which the tracer wraps: max_n = 6 gives
    # gauss_2f1 at two entries per n in each of signs and beta-identity,
    # big_e once per 2 <= k <= n in each of signs and e-link, and one
    # c-table per n >= 2 in each of those two
    from hilbertdepth import depth, verify

    monkeypatch.setattr(depth, "FLIP", False)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for name in ("signs", "beta-identity", "e-link"):
            assert verify.run_battery(name, max_n=6).passed
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = {span: totals[2] for span, totals in tracer.collect()[0].items()}
    assert calls["hypergeometric.gauss_2f1"] == 24
    assert calls["hypergeometric.big_e"] == 30
    assert calls["hypergeometric.coeff_table"] == 10
