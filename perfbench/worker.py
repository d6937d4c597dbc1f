"""One workload run in a fresh interpreter: a closed loop with one client.

Drives ``hilbertdepth.cli.main(argv)`` in-process with stdout and stderr
captured, one request after the other.  Warm-up requests come first and are
not timed.  The workload's fixed request set then runs in passes, each in a
new seeded order, for as many whole passes as fit in the time budget; every
answer is checked against the oracle after its timed region ends.

On a shared virtual machine the CPU speed changes by 20-30% within seconds
and stays changed for seconds to minutes, so the same request set timed in
two 15-second windows can differ by 25%.  The end-to-end times therefore
measure the program against the host's current speed: every timed execution
is bracketed by two runs of ``reference_kernel``, fixed pure-Python work that
does not touch the package, and the execution counts as its time multiplied
by REFERENCE_NS over the mean of its two brackets.  A request's latency is
the median of these scaled times over its executions, one per pass; cold
starts for setup_s are scaled the same way.  The values read as times on a
host where the reference kernel takes REFERENCE_NS.  A change to the program
moves them; a change in host speed moves program and reference alike and
cancels (on a 2-vCPU Xeon VM the scaled medians of 15-second windows spread
3-4% where the unscaled ones spread 25%).  The unscaled values and the
median reference time are reported beside them.  The whole run is pinned to
one CPU so that the scheduler does not move it.

With --trace 1 every execution runs twice, with and without the span
wrappers, alternating which goes first; that gives the per-layer times and
the tracing overhead on the same inputs.

Prints one JSON object on stdout; run.py turns it into the benchmark result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # executions per request that a median is taken over, at least
# reference_kernel's time on the host the end-to-end times are scaled to; about
# its median on a 2-vCPU "Intel(R) Xeon(R) Processor" VM under CPython 3.11
REFERENCE_NS = 3_000_000
COLD_STARTS = 2  # setup_s samples per pass

# per_layer time metrics: (span, "incl" or "self"), reported in ms per request
LAYER_TIMES = {
    "cli.main_self_ms": ("cli.main", "self"),
    "dsl.parse_spec_ms": ("dsl.parse_spec", "incl"),
    "dsl.elaborate_ms": ("dsl.elaborate", "incl"),
    "series.construct_ms": ("series.construct", "incl"),
    "series.evaluate_ms": ("series.evaluate", "incl"),
    "depth.bounds_ms": ("depth.bounds", "incl"),
    "depth.qdepth_self_ms": ("depth.qdepth", "self"),
    "depth.beta_ms": ("depth.beta", "incl"),
    "depth.beta_table_ms": ("depth.beta_table", "incl"),
    "depth.reconstruct_ms": ("depth.reconstruct", "incl"),
    "squarefree.parse_ideal_ms": ("squarefree.parse_ideal", "incl"),
    "squarefree.alpha_vector_ms": ("squarefree.alpha_vector", "incl"),
    "squarefree.qdepth_from_alpha_ms": ("squarefree.qdepth_from_alpha", "incl"),
    "hypergeometric.gauss_2f1_ms": ("hypergeometric.gauss_2f1", "incl"),
    "hypergeometric.big_e_ms": ("hypergeometric.big_e", "incl"),
    "hypergeometric.coeff_table_ms": ("hypergeometric.coeff_table", "incl"),
}
LAYER_TIMES.update({f"verify.{b}_ms": (f"verify.{b}", "incl") for b in oracle.VERIFY_CASES})
# per_layer counts taken at a wrapper, absent when its span is
COUNTED_AT = {"series.evaluate_calls": "series.evaluate",
              "squarefree.alpha_masks": "squarefree.alpha_vector",
              "squarefree.alpha_yield": "squarefree.alpha_vector"}


def time_reference() -> int:
    """ns that reference_kernel takes now."""
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


def reference_kernel() -> int:
    """Fixed work in the interpreter, independent of the package: a loop of
    small-integer and dict arithmetic and a product of big integers, the
    kinds of work the workloads do.  About 3 ms."""
    total, counts = 0, {}
    for i in range(12000):
        total += i * i % 7
        counts[i & 63] = counts.get(i & 63, 0) + 1
    product = 1
    for i in range(1, 120):
        product *= 1000003 + i
    return total + len(counts) + product % 97


class Loop:
    """Runs requests through cli.main and keeps what the metrics need."""

    def __init__(self, cli, requests: list[workloads.Request], tracer=None):
        self.cli = cli
        self.requests = requests
        self.tracer = tracer
        self.times: list[list[int]] = [[] for _ in requests]  # ns per execution
        self.scaled: list[list[float]] = [[] for _ in requests]  # ns on the reference host
        self.reference: list[int] = []  # ns per reference_kernel run
        self.calls = 0
        self.failures: list[str] = []
        self.failed_requests: set[int] = set()
        self.traced: list[int] = []  # ns per traced execution
        self.untraced: list[int] = []  # ns per untraced execution, when tracing
        self.spans: dict[str, list[int]] = {}
        self.counts: list[dict] = []  # per request, from the first pass
        self.raw_spans: list[dict] = []

    def call(self, i: int, bracket: bool = False) -> tuple[int, str | None, str]:
        """Time one execution of request i, then check its answer:
        (ns, failure or None, stdout).  With ``bracket`` the reference
        kernel is timed right after the execution, before the check."""
        req = self.requests[i]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
            error = None if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
        except SystemExit as exc:
            error = f"SystemExit {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # a crash is a failed request, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - t0
        if bracket:
            self.reference.append(time_reference())
        output = out.getvalue()
        if error is None:
            try:
                error = req.check(output)
            except Exception as exc:  # unparseable or malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        self.calls += 1
        if error is not None:
            self.failures.append(f"{' '.join(req.argv)[:120]} -> {error}")
            self.failed_requests.add(i)
        return elapsed, error, output

    def run(self, i: int, first_pass: bool) -> None:
        if self.tracer is None:
            if not self.reference:  # warm-up runs outside run_passes
                self.reference.append(time_reference())
            elapsed = self.call(i, bracket=True)[0]
            self.times[i].append(elapsed)
            self.scaled[i].append(scaled(elapsed, *self.reference[-2:]))
            return
        traced_first = len(self.traced) % 2 == 1
        if not traced_first:
            self.untraced.append(self.call(i)[0])
        self.tracer.install()
        try:
            elapsed, error, output = self.call(i)
        finally:
            self.tracer.uninstall()
        self.traced.append(elapsed)
        totals, counters, raw = self.tracer.collect(keep=first_pass)
        if traced_first:
            self.untraced.append(self.call(i)[0])
        for span, (incl, own, calls) in totals.items():
            acc = self.spans.setdefault(span, [0, 0, 0])
            acc[0] += incl
            acc[1] += own
            acc[2] += calls
        if first_pass:
            req = self.requests[i]
            self.counts.append(exact_counts(req, None if error else output, totals, counters))
            self.raw_spans.append({"request": i, "argv": req.argv, **(raw or {})})

    def run_passes(self, seconds: float, seed: int, between=None) -> int:
        """Whole passes over the request set, each in a new seeded order,
        while the next pass is expected to end within `seconds`; at least
        MIN_PASSES.  ``between()`` runs before each pass."""
        begin = time.perf_counter()
        passes = 0
        while True:
            if between is not None:
                between()
            if self.tracer is None:
                self.reference.append(time_reference())  # the pass's first bracket
            order = list(range(len(self.requests)))
            random.Random(f"pass/{seed}/{passes}").shuffle(order)
            pass_begin = time.perf_counter()
            for i in order:
                self.run(i, first_pass=passes == 0)
            passes += 1
            now = time.perf_counter()
            if passes >= MIN_PASSES and now - begin + (now - pass_begin) > seconds:
                return passes


SETUP_CODE = (
    "import time; t = time.perf_counter(); "
    "import hilbertdepth.cli as c; c.build_parser(); print(time.perf_counter() - t)"
)


class ColdStarts:
    """setup_s: a fresh interpreter imports the CLI and builds its parser.

    Sampled COLD_STARTS times before every pass, so the samples spread over
    the run like the requests do; setup_s is the median of the samples."""

    def __init__(self):
        self.samples: list[float] = []  # s
        self.scaled: list[float] = []  # s on the reference host
        self.start()  # writes any missing bytecode; not counted

    @staticmethod
    def start() -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    def __call__(self) -> None:
        before = time_reference()
        for _ in range(COLD_STARTS):
            seconds = self.start()
            after = time_reference()
            self.samples.append(seconds)
            self.scaled.append(scaled(seconds, before, after))
            before = after


def exact_counts(req, output: str | None, totals: dict, counters: dict) -> dict:
    """Counts that repeat exactly for a given input, from the request's
    input, output and the counters at the wrapped boundaries."""
    counts = {"evaluate_calls": totals.get("series.evaluate", [0, 0, 0])[2],
              "alpha_masks": counters["alpha_masks"], "alpha_total": counters["alpha_total"]}
    if output is None:
        return counts
    result = json.loads(output)
    depth_result = None
    if req.argv[0] == "qdepth":
        depth_result = result
        counts["numerator_terms"] = len(result["function"]["numerator"])
    elif req.argv[0] == "sqf":
        depth_result = result["functionDepth"]
        counts["numerator_terms"] = sum(1 for a in result["alpha"] if a != "0")
    elif req.argv[0] == "verify":
        counts["cases"] = {b["battery"]: b["casesRun"] for b in result["batteries"]}
    if depth_result is not None:
        counts["window_width"] = (int(depth_result["upperBound"])
                                  - int(depth_result["lowerBound"]) + 1)
        counts["cert_max_bits"] = max(
            abs(int(v)).bit_length() for v in depth_result["certificate"]["values"])
    return counts


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, i.e. the 11th largest sample.  With 10 or
    fewer samples it is the largest one and the beyond count says so."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1) if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def scaled(elapsed: float, before: int, after: int) -> float:
    """elapsed as it would read on the reference host, from the reference
    times measured just before and just after it."""
    return elapsed * 2 * REFERENCE_NS / (before + after)


def latency_metrics(loop: Loop, per_execution: list[list[float]]) -> dict:
    """Latency metrics over the requests' median executions; throughput and
    cases per second of the time a pass of median executions takes."""
    typical = [statistics.median(t) for t in per_execution]
    busy_s = sum(typical) / 1e9
    cases = sum(sum(oracle.VERIFY_CASES.values()) if req.argv[0] == "verify" else 1
                for i, req in enumerate(loop.requests) if i not in loop.failed_requests)
    return {
        "latency_p50_ms": statistics.median(typical) / 1e6,
        "latency_tail_ms": tail(typical)[0] / 1e6,
        "throughput_rps": len(typical) / busy_s,
        "cases_per_s": cases / busy_s,
    }


def end_to_end(loop: Loop, setup: ColdStarts) -> dict:
    """The end-to-end metrics on the reference host (module docstring),
    and beside them, with ``_raw`` names, the same metrics unscaled."""
    raw = latency_metrics(loop, loop.times)
    raw["setup_s"] = statistics.median(setup.samples)
    metrics = latency_metrics(loop, loop.scaled)
    metrics["setup_s"] = statistics.median(setup.scaled)
    _, tail_pct, beyond = tail([statistics.median(t) for t in loop.scaled])
    return {
        **metrics,
        **{f"{name}_raw": value for name, value in raw.items()},
        "reference_ms": statistics.median(loop.reference) / 1e6,
        "reference_host_ms": REFERENCE_NS / 1e6,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
        "requests": len(loop.requests),
        "fail_ratio": len(loop.failures) / loop.calls,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(loop: Loop, tracer) -> tuple[dict, list[str]]:
    n = len(loop.traced)
    metrics, absent = {}, []
    for metric, (span, kind) in LAYER_TIMES.items():
        source = "verify." if span.startswith("verify.") else span
        if source not in tracer.installed:
            absent.append(metric)
            continue
        incl, own, _ = loop.spans.get(span, [0, 0, 0])
        metrics[metric] = (incl if kind == "incl" else own) / n / 1e6
    # counts: per request of the first pass (cert_max_bits: the largest)
    counts = loop.counts
    known = lambda key: [c[key] for c in counts if key in c]
    metrics["series.numerator_terms"] = _mean(known("numerator_terms"))
    metrics["series.evaluate_calls"] = _mean(known("evaluate_calls"))
    metrics["depth.window_width"] = _mean(known("window_width"))
    metrics["depth.cert_max_bits"] = max(known("cert_max_bits"), default=0)
    masks = sum(known("alpha_masks"))
    metrics["squarefree.alpha_masks"] = masks / len(counts)
    metrics["squarefree.alpha_yield"] = sum(known("alpha_total")) / masks if masks else 0.0
    for battery in oracle.VERIFY_CASES:
        metrics[f"verify.{battery}_cases"] = _mean(c.get("cases", {}).get(battery, 0) for c in counts)
    for metric, span in COUNTED_AT.items():
        if span not in tracer.installed:
            del metrics[metric]
            absent.append(metric)
    metrics["trace.request_ms"] = sum(loop.traced) / n / 1e6
    metrics["trace.overhead_ratio"] = sum(loop.traced) / sum(loop.untraced)
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the first pass's spans here (JSON)")
    args = parser.parse_args()

    from hilbertdepth import cli
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported {source}, not the checkout's src/", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    warm = Loop(cli, workload.warmup(args.seed))
    for i in range(len(warm.requests)):
        warm.run(i, first_pass=False)
    result = {"warmup": warm.calls, "warmup_failures": warm.failures}

    if not args.trace:
        loop = Loop(cli, workload.requests(args.seed))
        setup = ColdStarts()
        result["passes"] = loop.run_passes(args.seconds, args.seed, between=setup)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {**end_to_end(loop, setup), "peak_rss_mib": rss_mib}
        result["setup_samples"] = setup.samples
        result["times_ms"] = [[round(ns / 1e6, 3) for ns in t] for t in loop.times]
        result["reference_ms"] = [round(ns / 1e6, 4) for ns in loop.reference]
    else:
        from spans import Tracer
        tracer = Tracer()
        loop = Loop(cli, workload.requests(args.seed), tracer)
        result["passes"] = loop.run_passes(args.seconds, args.seed)
        result["metrics"], result["absent"] = per_layer(loop, tracer)
        result["missing_wrappers"] = tracer.missing
        if args.spans:
            Path(args.spans).write_text(json.dumps({"spans": loop.raw_spans}))
    result["requests"] = len(loop.requests)
    result["attempted"] = loop.calls
    result["failed"] = len(loop.failures)
    result["failure_examples"] = loop.failures[:3]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
