"""flatobs benchmark: seeded, answer-checked, closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload sections --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, one process each

One op does in-process what `flatobs analyze --format json` does:
`cli.validate_scenario`, `cli.run`, then `json.dumps` of the report, with
no file I/O.  A workload runs in one process with one client and no
threads; the next op starts when the previous one has been answered and its
answer checked against the value its construction fixes (see workloads.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs each op of a fixed
number of rounds untraced and then traced from outside (see tracer.py),
checks that both runs give identical answers, reports the per-layer metrics
and writes the spans to .perfbench/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

# A hung op is failed at this wall time and the run goes on.  The slowest
# ops, the largest scan boxes, take about 1.5 s untraced on a 2-core Xeon VM.
OP_CAP_S = 20.0
SETUP_SAMPLES = 9
TRACE_ROUNDS = {"sections": 3, "extendability": 2, "hodge": 2}
TRACE_BUDGET_S = 120.0

END_TO_END = (
    ("throughput_ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *tracer.LAYER_METRICS,
    ("trace.overhead_ratio", "ratio"),
    *((f"class.{c}.p50_ms", "ms") for c in workloads.CLASSES),
    *((f"class.{c}.ops", "count") for c in workloads.CLASSES),
)

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import flatobs.cli\n"
    "print(time.perf_counter() - start)\n"
)


CAPPED = "over the per-op wall cap"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past OP_CAP_S.

    A BaseException, so no handler in the code under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


def install_cap() -> None:
    """Route SIGALRM, which run_op arms for each op, to OpTimeout."""
    signal.signal(signal.SIGALRM, _on_alarm)


def import_flatobs():
    """Import flatobs from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import flatobs
        import flatobs.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import flatobs from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(flatobs.__file__))) != SRC:
        raise SystemExit(f"perfbench: flatobs was imported from {flatobs.__file__}, not {SRC}")
    return flatobs


def measure_setup() -> float:
    """Median time to import flatobs.cli, and all eight layers, in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def execute(cli, scenario: dict) -> dict:
    """One op: what `flatobs analyze --format json` does, minus file I/O."""
    data = cli.validate_scenario(scenario)
    report = cli.run(data)
    json.dumps(report, indent=2)
    return report


def run_op(cli, op) -> tuple:
    """(latency s, failure reason or None, answer) for one capped op."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        try:
            report = execute(cli, op.scenario)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:  # also when the alarm fires just before it is disarmed
        return time.perf_counter() - start, CAPPED, None
    except Exception as exc:  # the benchmark counts the failure and goes on
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None
    latency = time.perf_counter() - start
    report.pop("timing_seconds", None)
    try:
        reason = workloads.check(op, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"malformed report: {type(exc).__name__}: {exc}"
    return latency, reason, json.dumps(report, sort_keys=True)


class Pass:
    """Latencies, failures and answers of one pass over a list of ops."""

    def __init__(self):
        self.ops: list = []
        self.latencies: list = []
        self.failures: list = []  # (index, class, reason)
        self.answers: list = []
        self.wall = 0.0  # op time plus answer checking

    def run(self, cli, op) -> None:
        start = time.perf_counter()
        latency, reason, answer = run_op(cli, op)
        if reason is not None:
            self.failures.append((len(self.ops), op.cls, reason))
            latency = max(latency, OP_CAP_S)  # a failed op misses any latency limit
        self.ops.append(op)
        self.latencies.append(latency)
        self.answers.append(answer)
        self.wall += time.perf_counter() - start

    @property
    def wrong(self) -> list:
        """Failures other than the wall cap: exceptions and wrong answers."""
        return [f for f in self.failures if f[2] != CAPPED]


def timed_pass(cli, workload: str, seed: int, seconds: float) -> Pass:
    """Closed loop over the seeded op stream until `seconds` of op time is spent.

    Input generation is excluded from the timed wall; answer checking is in it.
    """
    result = Pass()
    stream = workloads.ops_for(workload, seed)
    while result.wall < seconds:
        result.run(cli, next(stream))
    return result


def paired_passes(cli, trace, ops) -> tuple:
    """Run each op untraced, then traced; pairing cancels slow machine phases.

    Stops early, with the ops run so far, once TRACE_BUDGET_S has passed.
    """
    plain, traced = Pass(), Pass()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start > TRACE_BUDGET_S:
            break
        plain.run(cli, op)
        trace.op = i
        with trace:
            traced.run(cli, op)
    return plain, traced


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def input_properties(workload: str, ops) -> list:
    """Human-readable input properties of the ops a run attempted."""
    shares = {}
    for op in ops:
        shares[op.cls] = shares.get(op.cls, 0) + 1
    heights = [workloads.coefficient_height(op.scenario) for op in ops]
    lines = [
        "op classes: " + ", ".join(f"{c} {100 * k / len(ops):.0f}%" for c, k in shares.items()),
        f"coefficient height: {min(heights)}..{max(heights)}",
    ]
    if workload == "sections":
        lines.append(f"empty singular locus: {100 * shares.get('smooth', 0) / len(ops):.0f}% of ops")
    if workload == "hodge":
        seen, repeats = set(), 0
        for op in ops:
            md = workloads.multidegree_of(op)
            if md is not None:
                repeats += md in seen
                seen.add(md)
        lines.append(f"multidegree repeats an earlier op: {100 * repeats / len(ops):.0f}% of ops")
    return lines


def report_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def print_failures(result: Pass, label: str) -> None:
    for index, cls, reason in result.failures[:10]:
        print(f"  {label} op {index} ({cls}) failed: {reason}")


def bench_timed(args, cli, setup_s: float) -> int:
    result = timed_pass(cli, args.workload, args.seed, args.seconds)
    attempted, failed = len(result.ops), len(result.failures)
    metrics = {
        "throughput_ops_per_s": (attempted - failed) / result.wall,
        "latency_p50_ms": 1000 * statistics.median(result.latencies),
        "latency_p90_ms": 1000 * percentile(result.latencies, 90),
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(x > metrics["latency_p90_ms"] / 1000 for x in result.latencies)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{result.wall:.2f} s of op time, one closed-loop client")
    for line in input_properties(args.workload, result.ops):
        print(f"  {line}")
    print(f"  failed_ratio {failed / attempted:g} ({failed} of {attempted} attempted)")
    print_failures(result, "timed")
    for name, unit in END_TO_END:
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print(f"  (latencies over {attempted} samples, {beyond} beyond p90)")
    print(report_line(not result.wrong, attempted, failed, metrics, END_TO_END))
    return 0


def bench_traced(args, flatobs) -> int:
    rounds = islice(workloads.rounds_for(args.workload, args.seed), TRACE_ROUNDS[args.workload])
    ops = [op for ops_of_round in rounds for op in ops_of_round]
    trace = tracer.Tracer(flatobs)
    plain, traced = paired_passes(flatobs.cli, trace, ops)
    metrics = trace.metrics()
    metrics["trace.overhead_ratio"] = traced.wall / plain.wall
    for cls in workloads.CLASSES:
        lat = [x for op, x in zip(plain.ops, plain.latencies) if op.cls == cls]
        metrics[f"class.{cls}.p50_ms"] = 1000 * statistics.median(lat) if lat else 0.0
        metrics[f"class.{cls}.ops"] = len(lat)
    os.makedirs(TRACE_DIR, exist_ok=True)
    span_file = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    trace.write(span_file)
    mismatched = [i for i, (a, b) in enumerate(zip(plain.answers, traced.answers)) if a != b]
    print(f"workload {args.workload}, seed {args.seed}, traced: {len(plain.ops)} of {len(ops)} "
          f"ops, untraced {plain.wall:.2f} s, traced {traced.wall:.2f} s, "
          f"{len(trace.spans)} spans in {span_file}")
    print_failures(plain, "untraced")
    print_failures(traced, "traced")
    if mismatched:
        print(f"  traced answers differ from untraced ones at ops {mismatched[:10]}")
    for name, unit in PER_LAYER:
        print(f"  {name} {metrics[name]:.6g} {unit}")
    correct = not plain.wrong and not traced.wrong and not mismatched
    failed = len({i for i, _, _ in plain.failures + traced.failures} | set(mismatched))
    print(report_line(correct, len(plain.ops), failed, metrics, PER_LAYER))
    return 0


def bench_workload(args) -> int:
    flatobs = import_flatobs()
    install_cap()
    if args.trace:
        return bench_traced(args, flatobs)
    return bench_timed(args, flatobs.cli, measure_setup())


def bench_all(args) -> int:
    """Run every workload, each in its own fresh process, and merge the results."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.ROUNDS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.ROUNDS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return bench_all(args)
    return bench_workload(args)


if __name__ == "__main__":
    sys.exit(main())
