"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that the same seed gives the same inputs, that a wrong expected
answer is reported as a failure, that an op over the wall cap fails without
stopping the run, that the tracer sees every layer listed for a workload
and restores every binding, that traced and untraced answers agree, that
the exact counts repeat across two traced runs, and that BENCHMARK.json
names exactly the metrics run.py prints.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Layers each workload must reach, as `calls` metrics of a traced round.
REQUIRED_CALLS = {
    "sections": (
        "idealcalc.buchberger", "idealcalc.projective_dimension", "idealcalc.standard_monomials",
        "singular.analyze_singularities", "polyring.parse_poly", "polyring.dehomogenize",
        "polyring.MultiPoly.partial_derivative", "polyring.MultiPoly.evaluate",
        "linalg.exact_rank", "hodgeci.hodge_diamond", "bettisng.defect",
        "obstruct.verdict_report", "obstruct.ih_from_betti", "obstruct.corob_check",
        "cli.run", "cli.validate_scenario",
    ),
    "extendability": (
        "idealcalc.buchberger", "idealcalc.projective_dimension", "singular.extendability",
        "polyring.parse_poly", "polyring.MultiPoly.partial_derivative",
        "cli.run", "cli.validate_scenario",
    ),
    "hodge": (
        "hodgeci.hodge_diamond", "hodgeci.scan_level1", "bettisng.quadric_analysis",
        "linalg.exact_rank", "polyring.parse_poly", "obstruct.verdict_report",
        "obstruct.ih_from_betti", "obstruct.corob_check", "cli.run", "cli.validate_scenario",
    ),
}


def first_round(workload: str, seed: int) -> list:
    return next(workloads.rounds_for(workload, seed))


def _dump(ops) -> str:
    return json.dumps([(op.cls, op.scenario, repr(op.expect)) for op in ops], sort_keys=True)


def check_seeded_inputs(flatobs) -> list:
    problems = []
    for workload in workloads.ROUNDS:
        if _dump(first_round(workload, 7)) != _dump(first_round(workload, 7)):
            problems.append(f"{workload}: seed 7 gave two different input sets")
        if _dump(first_round(workload, 7)) == _dump(first_round(workload, 8)):
            problems.append(f"{workload}: seeds 7 and 8 gave the same inputs")
    return problems


def _wrong_ops() -> list:
    sections = {op.cls: op for op in first_round("sections", 1)}
    nodal, smooth = sections["nodal"], sections["smooth"]
    hodge = {op.cls: op for op in first_round("hodge", 1)}
    diamond, quadric, scan = hodge["diamond"], hodge["quadric"], hodge["scan"]
    wrong = [
        dataclasses.replace(nodal, expect={**nodal.expect, "complete": False}),
        dataclasses.replace(nodal, expect={**nodal.expect, "nodes": nodal.expect["nodes"][1:]}),
        dataclasses.replace(smooth, cls="nodal", expect=nodal.expect),
        dataclasses.replace(nodal, cls="smooth"),
        dataclasses.replace(sections["incomplete"], cls="segre"),
        dataclasses.replace(diamond, expect={**diamond.expect, "n": diamond.expect["n"] + 2}),
        dataclasses.replace(diamond, expect={**diamond.expect, "asserted": not diamond.expect["asserted"]}),
        dataclasses.replace(quadric, expect={**quadric.expect, "degrees": (2, *quadric.expect["degrees"])}),
        dataclasses.replace(scan, expect={"families": scan.expect["families"][1:]}),
        dataclasses.replace(diamond, cls="golden"),
    ]
    for op in first_round("extendability", 1)[:3]:
        wrong.append(dataclasses.replace(op, expect={"extendable": not op.expect["extendable"]}))
    return wrong


def check_wrong_answers_fail(flatobs) -> list:
    problems = []
    for op in _wrong_ops():
        _, reason, _ = run.run_op(flatobs.cli, op)
        if reason is None:
            problems.append(f"a wrong expected answer for a {op.cls} op passed the check")
    return problems


class _HangingCli:
    """Stands in for flatobs.cli with an op that never finishes."""

    @staticmethod
    def validate_scenario(data):
        return data

    @staticmethod
    def run(data):
        while True:
            time.sleep(0.01)


def check_wall_cap(flatobs) -> list:
    saved = run.OP_CAP_S
    run.OP_CAP_S = 0.2
    try:
        op = first_round("hodge", 1)[0]
        start = time.perf_counter()
        _, reason, _ = run.run_op(_HangingCli, op)
        elapsed = time.perf_counter() - start
        _, after, _ = run.run_op(flatobs.cli, op)
    finally:
        run.OP_CAP_S = saved
    problems = []
    if reason != run.CAPPED:
        problems.append(f"a hanging op was not failed by the cap: {reason}")
    if elapsed > 2.0:
        problems.append(f"the cap took {elapsed:.2f} s to stop a 0.2 s-capped op")
    if after is not None:
        problems.append(f"the op after a capped one failed: {after}")
    return problems


def _bindings(flatobs) -> list:
    out = []
    for module, attr, _ in tracer.BINDINGS:
        owner, key = tracer.binding_owner(flatobs, module, attr)
        out.append(owner.__dict__[key])
    return out


def _traced_round(flatobs, workload: str):
    trace = tracer.Tracer(flatobs)
    plain, traced = run.paired_passes(flatobs.cli, trace, first_round(workload, 3))
    return plain, traced, trace.metrics()


def check_tracing(flatobs) -> list:
    problems = []
    originals = _bindings(flatobs)
    for workload, required in REQUIRED_CALLS.items():
        plain, traced, first = _traced_round(flatobs, workload)
        if _bindings(flatobs) != originals:
            problems.append(f"{workload}: the tracer left a binding replaced")
        for label, result in (("untraced", plain), ("traced", traced)):
            for index, cls, reason in result.failures:
                problems.append(f"{workload}: {label} op {index} ({cls}) failed: {reason}")
        if plain.answers != traced.answers:
            problems.append(f"{workload}: traced answers differ from untraced ones")
        for layer in required:
            if not first[f"{layer}.calls"] > 0:
                problems.append(f"{workload}: {layer} was never called in a traced round")
        _, _, second = _traced_round(flatobs, workload)
        for name in first:
            if tracer.is_exact(name) and first[name] != second[name]:
                problems.append(f"{workload}: {name} was {first[name]}, then {second[name]}")
    return problems


def check_declared_metrics(flatobs) -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(printed):
            problems.append(f"BENCHMARK.json {key} differs from what run.py prints")
    if [w["name"] for w in spec["workloads"]] != list(workloads.ROUNDS):
        problems.append("BENCHMARK.json workloads differ from workloads.ROUNDS")
    return problems


CHECKS = (
    check_seeded_inputs,
    check_wrong_answers_fail,
    check_wall_cap,
    check_tracing,
    check_declared_metrics,
)


def main() -> int:
    flatobs = run.import_flatobs()
    run.install_cap()
    failed = 0
    for check in CHECKS:
        problems = check(flatobs)
        print(f"selfcheck {check.__name__}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
