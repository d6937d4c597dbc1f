"""Benchmark of the hilbertdepth CLI: query latency and battery throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload depth-wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-test

Workloads and metrics are listed in BENCHMARK.json; the request sets are in
perfbench/workloads.py and the timing rules in perfbench/worker.py.

Each run starts one fresh interpreter (worker.py) that drives
``hilbertdepth.cli.main(argv)`` from ``src/`` in a closed loop with one
client, checks every answer against perfbench/oracle.py, and reports.  With
--trace 0 the result holds the end-to-end metrics, setup_s among them (cold
starts that import hilbertdepth.cli and build the parser), as times on a
reference host: each timed execution is scaled by the speed the host shows
on a fixed reference kernel just before and after it (worker.py says why).
With --trace 1 it holds the per-layer metrics from spans (spans.py),
unscaled.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it print every metric by name and unit, fail_ratio, the
unscaled end-to-end values, the tail percentile and sample counts, and the
environment.  fail_ratio (failed over attempted executions) is printed but
is not a BENCHMARK.json metric, since it is 0 whenever the program is right;
the result's "failed" field holds it.  The full record, and with --trace 1
the first pass's spans, go to .perfbench/ in the checkout.
Exit 2 without a result when the checkout has no src/hilbertdepth.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
FLIP_ENV = "HILBERTDEPTH_FLIP_BETA"
WORKER_TIMEOUT = 170

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(flip: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k != FLIP_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if flip:
        env[FLIP_ENV] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, worker: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup_requests": worker["warmup"],
        "requests": worker["requests"],
        "passes": worker["passes"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
    }


def benchmark(args) -> int:
    if not (ROOT / "src" / "hilbertdepth" / "cli.py").is_file():
        print(f"error: no src/hilbertdepth under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}-spans.json" if args.trace else None
    try:
        worker = run_worker(args.workload, args.seed, args.seconds, args.trace, env, spans)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": worker["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in worker["metrics"]}
    record = {"environment": environment(args, worker),
              "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
              "worker": worker, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# environment {json.dumps(record['environment'])}")
    for name, entry in metrics.items():
        print(f"# {name:34} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        m = worker["metrics"]
        print(f"# {'fail_ratio':34} {m['fail_ratio']:>14.6g} ratio")
        print(f"# times above are scaled to a host where the reference kernel takes "
              f"{m['reference_host_ms']:g} ms; here it took {m['reference_ms']:.4g} ms (median), unscaled:")
        for name, unit in units.items():
            if f"{name}_raw" in m:
                print(f"# {name + '_raw':34} {m[name + '_raw']:>14.6g} {unit}")
        print(f"# latency_tail_ms is p{m['latency_tail_percentile']:.2f} with "
              f"{m['latency_tail_beyond']} of {m['requests']} requests beyond it")
    for name in worker.get("absent", []):
        print(f"# {name:34} {'absent':>14} (wrapped name missing)")
    for example in worker["failure_examples"]:
        print(f"# failure: {example}")
    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


def self_test() -> int:
    """Deterministic streams, the same base requests (so the same work)
    for every seed, and oracles that catch the fault-injection hook's wrong
    answers."""
    sys.path.insert(0, str(HERE))
    import workloads

    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {what}")

    for w in workloads.WORKLOADS.values():
        a, again, other = w.requests(1), w.requests(1), w.requests(2)
        argv = lambda batch: [r.argv for r in batch]
        shapes = lambda batch: sorted(r.shape for r in batch)
        report(argv(a) == argv(again), f"{w.name}: seed 1 twice gives identical argv lists")
        report(argv(a) != argv(other), f"{w.name}: seed 2 gives a different stream")
        report(shapes(a) == shapes(other), f"{w.name}: seeds 1 and 2 vary the same base requests")
    if not (ROOT / "src" / "hilbertdepth" / "cli.py").is_file():
        print("error: no src/hilbertdepth; cannot run the fault-injection checks", file=sys.stderr)
        return 2
    for name in ("depth-wide", "elab-heavy", "sqf-wide", "verify-mix"):
        worker = run_worker(name, 1, 1.0, 0, child_env(flip=True))
        ratio = worker["metrics"]["fail_ratio"]
        report(ratio > 0, f"{name}: with {FLIP_ENV}=1 fail_ratio is {ratio:.3f} > 0")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the streams and that the oracles catch wrong answers")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
