"""Scenario runner and report emitter.

`analyze` ingests a scenario JSON (`validate_scenario` is the format's
spec), runs the pipeline (restrict -> singularity certificate -> Betti
assembly -> verdict), and emits a report as text or JSON.  `run` is a
pure function of the scenario: it reads no clock and touches no file, so
the same scenario always gives the same report.  The subcommands do the
I/O around it, such as the `--dump-matrix` CSV.  Partial failures
annotate the report instead of aborting when downstream steps are
independent.

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from math import comb

from . import __version__
from .bettisng import (
    betti_vector_nodal,
    conditions_degree,
    defect,
    evaluation_matrix,
    quadric_analysis,
)
from .errors import ToolError
from .hodgeci import (
    Multidegree,
    betti_vector_smooth,
    euler_characteristic,
    griffiths_middle_hodge,
    hodge_diamond,
    scan_level1,
)
from .linalg import matrix_to_csv
from .obstruct import (
    UNKNOWN,
    BettiVector,
    Hypotheses,
    HypothesisError,
    corob_check,
    ih_from_betti,
    verdict_report,
)
from .polyring import parse_poly, restrict_to_hyperplane
from .singular import ProjectivePoint, analyze_singularities, extendability

REPORT_SCHEMA_VERSION = 2

SCAN_CONVENTIONS = [
    "box-relative: the classification is certified only inside the stated box",
    "curves (n = 1) are excluded",
    "degree-1 factors are rejected at the type level",
]


class CliError(ToolError):
    code = "cli.invalid"


class SchemaError(CliError):
    code = "cli.schema"


class TooLargeError(CliError):
    code = "cli.too_large"


#: Most terms a restricted section may have, C(arity + d - 2, d) for a
#: degree-d variety; larger inputs are refused before the expansion.
RESTRICTION_TERM_CAP = 10_000

#: Hodge-side caps, checked before any diamond: dimension (also a section's,
#: ambient_arity - 2), number of degrees, size of each degree, scan n_max,
#: scan box size.
DIMENSION_CAP = 40
DEGREE_COUNT_CAP = 40
DEGREE_CAP = 100
SCAN_N_CAP = 11
SCAN_BOX_CAP = 500


# An integer or a fraction with a nonzero denominator, e.g. "-2/3".
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


# -- scenario validation ----------------------------------------------


def _need(data: dict, key: str, types, context: str):
    if key not in data:
        raise SchemaError(f"{context}: missing required field '{key}'")
    value = data[key]
    if types is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{context}: field '{key}' must be a boolean")
    elif not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{context}: field '{key}' has the wrong type")
    return value


def _need_hypotheses(data: dict, context: str) -> Hypotheses:
    block = _need(data, "hypotheses", dict, context)
    return Hypotheses(
        H_nonconstant=_need(block, "H_nonconstant", bool, f"{context}.hypotheses"),
        abelian_scheme=_need(block, "abelian_scheme", bool, f"{context}.hypotheses"),
    )


def _need_multidegree(data: dict, context: str) -> Multidegree:
    n = _need(data, "dimension", int, context)
    if n > DIMENSION_CAP:
        raise TooLargeError(f"{context}: dimension {n} is over the cap of {DIMENSION_CAP}")
    degrees = _need(data, "degrees", list, context)
    if len(degrees) > DEGREE_COUNT_CAP:
        raise TooLargeError(
            f"{context}: {len(degrees)} degrees is over the cap of {DEGREE_COUNT_CAP}"
        )
    if not degrees or any(not isinstance(d, int) or isinstance(d, bool) for d in degrees):
        raise SchemaError(f"{context}: 'degrees' must be a nonempty list of integers")
    if max(degrees) > DEGREE_CAP:
        raise TooLargeError(f"{context}: degree {max(degrees)} is over the cap of {DEGREE_CAP}")
    return Multidegree(n, tuple(degrees))


def validate_scenario(data) -> dict:
    """Check a scenario dict before any computation; this is the scenario spec."""
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    version = _need(data, "schema_version", int, "scenario")
    if version != 1:
        raise SchemaError(f"unsupported schema_version {version}")
    _need(data, "name", str, "scenario")
    kind = _need(data, "kind", str, "scenario")
    if kind not in KINDS:
        raise SchemaError(f"unknown scenario kind {kind!r}; expected one of {', '.join(KINDS)}")
    context = f"scenario[{kind}]"
    if kind == "hypersurface_section":
        arity = _need(data, "ambient_arity", int, context)
        if arity < 4:
            raise SchemaError(f"{context}: ambient_arity must be at least 4")
        if arity - 2 > DIMENSION_CAP:
            raise TooLargeError(
                f"{context}: section dimension {arity - 2} is over the cap of {DIMENSION_CAP}"
            )
        _need(data, "variety", str, context)
        _need(data, "hyperplane", str, context)
        eliminate = _need(data, "eliminate", int, context)
        if not 0 <= eliminate < arity:
            raise SchemaError(f"{context}: eliminate index out of range")
        points = data.get("candidate_singular_points", [])
        if not isinstance(points, list) or any(
            not isinstance(pt, list) or any(not isinstance(c, str) for c in pt)
            for pt in points
        ):
            raise SchemaError(
                f"{context}: candidate_singular_points must be arrays of rational strings"
            )
        for pt in points:
            if len(pt) not in (arity, arity - 1):
                raise SchemaError(
                    f"{context}: candidate point has {len(pt)} coordinates; "
                    f"expected {arity} (ambient model) or {arity - 1} (section model)"
                )
            for c in pt:
                if not _RATIONAL.fullmatch(c):
                    raise SchemaError(
                        f"{context}: candidate coordinate {c!r} is not a rational "
                        "string such as '-2/3' with a nonzero denominator"
                    )
    elif kind == "quadric_section":
        arity = _need(data, "arity", int, context)
        _need(data, "quadric", str, context)
        family = _need(data, "smooth_family", dict, context)
        md = _need_multidegree(family, f"{context}.smooth_family")
        if arity != md.ambient + 1:
            raise SchemaError(
                f"{context}: arity {arity} does not match smooth_family {md.label()}, "
                f"which lives in P^{md.ambient} (arity {md.ambient + 1})"
            )
        flags = _need(data, "section_smooth_flags", dict, context)
        _need(flags, "components_smooth_and_distinct", bool, f"{context}.section_smooth_flags")
    elif kind == "smooth_ci":
        _need_multidegree(data, context)
    elif kind == "level1_scan":
        n_max, d_max, k_max = (_need(data, key, int, context) for key in ("n_max", "d_max", "k_max"))
        # (n_max - 1) // 2 odd n times C(d_max - 1 + k_max, k_max) - 1 degree lists, so at
        # least d_max - 1 and k_max; scan_level1 refuses the empty boxes skipped here
        if n_max > SCAN_N_CAP or min(n_max - 2, d_max - 1, k_max) > 0 and (
            max(d_max - 1, k_max) > SCAN_BOX_CAP
            or (n_max - 1) // 2 * (comb(d_max - 1 + k_max, k_max) - 1) > SCAN_BOX_CAP
        ):
            raise TooLargeError(f"{context}: scan boxes are capped at n_max {SCAN_N_CAP} "
                                f"and {SCAN_BOX_CAP} multidegrees")
    elif kind == "extendability":
        arity = _need(data, "arity", int, context)
        if arity < 2:
            raise SchemaError(f"{context}: arity must be at least 2")
        _need(data, "polynomial", str, context)
    if KINDS[kind][1]:
        _need_hypotheses(data, context)
    return data


def load_scenario(path: str):
    """The parsed JSON of a scenario file; `run` validates it."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read scenario file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    return data


def bundled_scenario(name: str) -> dict:
    """The parsed JSON of a bundled scenario; `run` validates it."""
    import json
    from importlib import resources
    ref = resources.files("flatobs").joinpath("scenarios", f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


# -- verdict assembly --------------------------------------------------


def _level_label(diamond) -> int | str:
    level = diamond.level()
    return "constant" if level is None else level


def _smooth_family(md: Multidegree, hypotheses: Hypotheses, annotations):
    """Hodge diamond and Betti vector of the smooth member, built once.

    The Hodge level is annotated as evidence for the abelian_scheme assertion.
    """
    diamond = hodge_diamond(md)
    level = _level_label(diamond)
    if level == 1:
        annotations.append(
            f"abelian_scheme assertion corroborated: {md.label()} has Hodge level 1"
        )
    elif hypotheses.abelian_scheme:
        annotations.append(
            f"warning: abelian_scheme asserted but {md.label()} has Hodge level {level}"
        )
    return diamond, betti_vector_smooth(diamond)


def _verdict_tail(bv, smooth_bv: BettiVector, hypotheses: Hypotheses, pipeline, annotations):
    """Betti vector -> fiber dimension -> verdict, IH profile and vanishing table.

    Fills `pipeline` and returns the verdict dict, or None when `bv` is None
    or the hypotheses refuse a verdict.
    """
    if bv is None:
        return None
    pipeline["betti_vector"] = bv.to_json()
    middle = smooth_bv.b(bv.n)
    fiber_dim = middle // 2 if middle % 2 == 0 else None
    pipeline["fiber_dimension"] = fiber_dim
    try:
        block = verdict_report(bv, hypotheses)
    except HypothesisError as exc:
        annotations.append(f"verdict refused: {exc}")
        return None
    ih = ih_from_betti(bv, hypotheses.H_nonconstant)
    pipeline["ih_profile"] = {"dims": list(ih)}
    if fiber_dim is not None:
        table = {(j, 2 * fiber_dim - 1): ih[j] for j in range(1, bv.n + 1)}
        result = corob_check(table, fiber_dim)
        witnesses = [w._asdict() for w in result.witnesses]  # lists, not tuples, in JSON
        pipeline["corob"] = {**result._asdict(), "witnesses": witnesses}
    else:
        annotations.append(
            "fiber dimension unavailable (odd middle Betti number); vanishing table skipped"
        )
    return block


# -- pipelines ----------------------------------------------------------
#
# Every runner takes (data, hypotheses) and returns
# (pipeline, verdict dict or None, annotations).


def _run_hypersurface_section(data: dict, hypotheses: Hypotheses):
    pipeline: dict = {}
    annotations: list = []
    arity = data["ambient_arity"]
    variety = parse_poly(data["variety"], arity)
    d = variety.degree or 0
    terms = 1  # C(arity + d - 2, i), rising to the bound at i = min(d, arity - 2)
    for i in range(1, min(d, arity - 2) + 1):
        terms = terms * (arity + d - 1 - i) // i
        if terms > RESTRICTION_TERM_CAP:
            raise TooLargeError(
                f"a degree-{d} variety in arity {arity} restricts to up to "
                f"C({arity + d - 2}, {d}) terms, over the cap of {RESTRICTION_TERM_CAP}"
            )
    hyperplane = parse_poly(data["hyperplane"], arity)
    section = restrict_to_hyperplane(variety, hyperplane, data["eliminate"])
    if section.is_zero or not section.is_homogeneous:
        raise CliError("the restricted equation is zero or inhomogeneous")
    n = section.arity - 2
    d = section.degree
    pipeline["restriction"] = {
        "arity": section.arity,
        "degree": d,
        "section_dimension": n,
        "polynomial": str(section),
    }

    candidates = []
    for raw in data.get("candidate_singular_points", []):
        if len(raw) == arity:
            if hyperplane.evaluate(raw) != 0:
                raise CliError(
                    f"candidate point ({', '.join(raw)}) does not lie on the hyperplane"
                )
            reduced = raw[: data["eliminate"]] + raw[data["eliminate"] + 1 :]
            candidates.append(ProjectivePoint(reduced))
        else:
            candidates.append(ProjectivePoint(raw))

    report = analyze_singularities(section, candidates)
    pipeline["singularities"] = report.to_json_dict()
    pipeline["extendable"] = report.locus_dimension <= 0

    md = Multidegree(n, (d,))
    _, smooth_bv = _smooth_family(md, hypotheses, annotations)
    pipeline["smooth_family"] = {"label": md.label(), "betti": smooth_bv.to_json()}

    bv = None
    if report.locus_dimension == -1:
        bv = smooth_bv
        annotations.append("section is smooth; using the smooth family Betti vector")
    elif report.locus_dimension <= 0 and report.complete:
        defect_report = defect(report.nodes(), conditions_degree(n, d))
        pipeline["defect"] = defect_report._asdict()
        bv = betti_vector_nodal(smooth_bv, defect_report)
    else:
        annotations.append(
            "no certified finite node set (locus dimension "
            f"{report.locus_dimension}, complete={report.complete}); "
            "Betti vector and verdict unavailable"
        )
    return pipeline, _verdict_tail(bv, smooth_bv, hypotheses, pipeline, annotations), annotations


def _run_quadric_section(data: dict, hypotheses: Hypotheses):
    pipeline: dict = {}
    annotations: list = []
    quadric = parse_poly(data["quadric"], data["arity"])
    flags = data["section_smooth_flags"]
    analysis = quadric_analysis(
        quadric,
        components_smooth_and_distinct=flags["components_smooth_and_distinct"],
    )
    pipeline["quadric"] = analysis._asdict()

    md = _need_multidegree(data["smooth_family"], "scenario.smooth_family")
    n = md.n
    if n % 2 == 0:
        raise CliError("quadric-section scenarios need an odd section dimension")
    _, smooth_bv = _smooth_family(md, hypotheses, annotations)
    pipeline["smooth_family"] = {"label": md.label(), "betti": smooth_bv.to_json()}

    bv = None
    if analysis.components_of_section == 2:
        entries = list(smooth_bv.entries)
        entries[n] = UNKNOWN
        entries[2 * n] = 2
        bv = BettiVector(n, tuple(entries))
        annotations.append(
            "two-component section: b_0 = 1 (components meet) and b_{2n} = 2 are "
            "computed; interior entries follow the smooth weak-Lefschetz pattern; "
            "middle UNKNOWN"
        )
    elif analysis.rank == 1:
        annotations.append("quadric is a double hyperplane (non-reduced); no verdict emitted")
    elif analysis.components_of_section is None:
        annotations.append(
            "rank-2 quadric but the smooth/distinct-components assertion is missing; "
            "no verdict emitted"
        )
    else:
        annotations.append(
            "quadric is irreducible (rank >= 3); no reducibility obstruction from this section"
        )
    return pipeline, _verdict_tail(bv, smooth_bv, hypotheses, pipeline, annotations), annotations


def _run_smooth_ci(data: dict, hypotheses: Hypotheses):
    pipeline: dict = {}
    annotations: list = []
    md = _need_multidegree(data, "scenario")
    diamond, bv = _smooth_family(md, hypotheses, annotations)
    pipeline["hodge"] = {
        "label": md.label(),
        "middle": list(diamond.middle),
        "level": _level_label(diamond),
        "euler": diamond.euler(),
    }
    return pipeline, _verdict_tail(bv, bv, hypotheses, pipeline, annotations), annotations


def _run_level1_scan(data: dict, hypotheses):
    found = scan_level1(data["n_max"], data["d_max"], data["k_max"])
    pipeline = {
        "box": {"n_max": data["n_max"], "d_max": data["d_max"], "k_max": data["k_max"]},
        "families": [
            {"label": md.label(), "n": md.n, "degrees": list(md.degrees)} for md in found
        ],
        "conventions": SCAN_CONVENTIONS,
    }
    return pipeline, None, []


def _run_extendability(data: dict, hypotheses):
    poly = parse_poly(data["polynomial"], data["arity"])
    result = extendability(poly)
    pipeline = {"extendable": result, "arity": data["arity"]}
    return pipeline, None, []


# kind -> (runner, whether the scenario states hypotheses and gets a verdict)
KINDS = {
    "hypersurface_section": (_run_hypersurface_section, True),
    "quadric_section": (_run_quadric_section, True),
    "smooth_ci": (_run_smooth_ci, True),
    "level1_scan": (_run_level1_scan, False),
    "extendability": (_run_extendability, False),
}


def run(data: dict) -> dict:
    """Validate a scenario, execute it and assemble the full report."""
    data = validate_scenario(data)
    runner, has_verdict = KINDS[data["kind"]]
    hypotheses = _need_hypotheses(data, "scenario") if has_verdict else None
    pipeline, verdict_json, annotations = runner(data, hypotheses)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "flatobs", "version": __version__},
        "scenario": data,
        "pipeline": pipeline,
        "verdict": verdict_json,
        "annotations": annotations,
    }


# -- text rendering -----------------------------------------------------


def _betti_str(entries) -> str:
    return "(" + ", ".join("?" if v is None else str(v) for v in entries) + ")"


def render_text(report: dict) -> str:
    scenario = report["scenario"]
    pipeline = report["pipeline"]
    lines = [
        f"flatobs {report['tool']['version']} -- scenario '{scenario['name']}' ({scenario['kind']})"
    ]
    if "restriction" in pipeline:
        r = pipeline["restriction"]
        lines.append(
            f"section: degree {r['degree']} hypersurface in P^{r['arity'] - 1} "
            f"(dimension {r['section_dimension']})"
        )
    if "singularities" in pipeline:
        s = pipeline["singularities"]
        lines.append(f"singular locus dimension: {s['locus_dimension']}")
        if s["points"]:
            nodes = sum(1 for p in s["points"] if p["classification"] == "node")
            lines.append(
                f"verified points: {nodes} node(s) of {len(s['points'])} candidates; "
                f"complete: {'yes' if s['complete'] else 'no'}"
                + (
                    f" (Jacobian scheme degree {s['jacobian_quotient_degree']})"
                    if s["jacobian_quotient_degree"] is not None
                    else ""
                )
            )
    if "singularities" in pipeline and "extendable" in pipeline:
        lines.append(
            "extendable to a smooth hypersurface one dimension up: "
            + ("yes (isolated singularities)" if pipeline["extendable"] else "no")
        )
    if "quadric" in pipeline:
        q = pipeline["quadric"]
        lines.append(
            f"quadric rank: {q['rank']} (reduced: {'yes' if q['reduced'] else 'no'}; "
            f"section components: {q['components_of_section']})"
        )
    if "hodge" in pipeline:
        h = pipeline["hodge"]
        lines.append(
            f"{h['label']}: middle hodge numbers {tuple(h['middle'])}, "
            f"level {h['level']}, euler {h['euler']}"
        )
    if "defect" in pipeline:
        d = pipeline["defect"]
        lines.append(
            f"defect: t={d['t']}, nodes={d['node_count']}, rank={d['imposed_rank']}, "
            f"delta={d['defect']}  =>  b_(n+1) = {d['b_above_middle']}"
        )
    if "betti_vector" in pipeline:
        lines.append(f"betti vector: {_betti_str(pipeline['betti_vector'])}")
    if "fiber_dimension" in pipeline and pipeline["fiber_dimension"] is not None:
        lines.append(f"associated fiber dimension: {pipeline['fiber_dimension']}")
    if "ih_profile" in pipeline:
        dims = pipeline["ih_profile"]["dims"][1:]
        lines.append("local IH dims (k=1..n): " + ", ".join(str(v) for v in dims))
    if "families" in pipeline:
        box = pipeline["box"]
        lines.append(
            f"level-1 families in box (n odd <= {box['n_max']}, d <= {box['d_max']}, "
            f"k <= {box['k_max']}):"
        )
        lines.extend(f"  {f['label']}" for f in pipeline["families"])
        lines.extend(f"note: {c}" for c in pipeline["conventions"])
    if scenario["kind"] == "extendability":
        lines.append(
            "extendable: "
            + ("yes (isolated singularities)" if pipeline["extendable"] else
               "no (positive-dimensional singular locus)")
        )
    if report["verdict"]:
        v = report["verdict"]
        lines.append(f"verdict: {v['verdict']}")
        for w in v["witnesses"]:
            lines.append(f"  witness k={w['k']}: b_plus = {w['b_plus']} != {w['b_minus']} = b_minus")
        lines.append(f"note: {v['disclaimer']}")
    for note in report["annotations"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> None:
    import json
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), end="")


# -- subcommands ---------------------------------------------------------


def _cmd_analyze(args) -> int:
    report = run(load_scenario(args.scenario))
    pipeline = report["pipeline"]
    if args.dump_matrix and "defect" in pipeline:
        nodes = [
            ProjectivePoint(pt["coordinates"])
            for pt in pipeline["singularities"]["points"]
            if pt["classification"] == "node"
        ]
        text = matrix_to_csv(evaluation_matrix(nodes, pipeline["defect"]["t"]))
        try:
            with open(args.dump_matrix, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write matrix file {args.dump_matrix!r}: {exc}") from exc
        report["annotations"].append(f"evaluation matrix written to {args.dump_matrix}")
    _emit(report, args.format)
    return 0


def _cmd_hodge(args) -> int:
    try:
        degrees = tuple(int(part) for part in args.degrees.split(","))
    except ValueError as exc:
        raise CliError(f"--degrees must be a comma-separated integer list: {exc}") from exc
    md = _need_multidegree({"dimension": args.n, "degrees": list(degrees)}, "hodge")
    diamond = hodge_diamond(md)
    payload = {
        "label": md.label(),
        "n": md.n,
        "degrees": list(md.degrees),
        "middle": list(diamond.middle),
        "betti": diamond.betti_list(),
        "level": _level_label(diamond),
        "euler": diamond.euler(),
    }
    if args.format == "json":
        _emit(payload, "json")
    else:
        print(f"{payload['label']}: smooth complete intersection, ambient P^{md.ambient}")
        print("middle hodge numbers h^(p,n-p), p=0..n:", *payload["middle"])
        print("betti vector b_0..b_2n:", *payload["betti"])
        print("hodge level:", payload["level"])
        print("euler characteristic:", payload["euler"])
    return 0


def _cmd_scan_level1(args) -> int:
    report = run(
        {
            "schema_version": 1,
            "name": f"scan-n{args.n_max}-d{args.d_max}-k{args.k_max}",
            "kind": "level1_scan",
            "n_max": args.n_max,
            "d_max": args.d_max,
            "k_max": args.k_max,
        }
    )
    _emit(report, args.format)
    return 0


def _cmd_extendability(args) -> int:
    try:
        with open(args.poly_file, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError as exc:
        raise CliError(f"cannot read polynomial file {args.poly_file!r}: {exc}") from exc
    report = run(
        {
            "schema_version": 1,
            "name": f"extendability-{args.poly_file}",
            "kind": "extendability",
            "arity": args.arity,
            "polynomial": text,
        }
    )
    _emit(report, args.format)
    return 0


def _selftest_checks():
    segre = run(bundled_scenario("segre"))
    yield (
        "segre golden",
        segre["verdict"]["verdict"] == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
        and segre["pipeline"]["defect"]["defect"] == 5
        and segre["pipeline"]["defect"]["b_above_middle"] == 6
        and segre["pipeline"]["singularities"]["complete"] is True
        and len(segre["pipeline"]["singularities"]["points"]) == 10,
        "10 nodes, delta=5, b_4=6, NO_IRREDUCIBLE_FIBER_COMPACTIFICATION",
    )
    quadric = run(bundled_scenario("degenerate_quadric"))
    yield (
        "degenerate quadric golden",
        quadric["verdict"]["verdict"] == "NO_FLAT_COMPACTIFICATION"
        and quadric["pipeline"]["quadric"]["rank"] == 2
        and quadric["pipeline"]["betti_vector"][6] == 2,
        "rank 2, b_6=2, NO_FLAT_COMPACTIFICATION",
    )
    smooth = run(bundled_scenario("smooth_cubic3fold"))
    yield (
        "smooth cubic threefold golden",
        smooth["verdict"]["verdict"] == "NO_OBSTRUCTION_FOUND"
        and smooth["pipeline"]["betti_vector"] == [1, 0, 1, 10, 1, 0, 1],
        "betti (1,0,1,10,1,0,1), NO_OBSTRUCTION_FOUND",
    )
    agreement = all(
        hodge_diamond(Multidegree(n, (d,))).primitive_middle()
        == griffiths_middle_hodge(d, n)
        for d in range(2, 5)
        for n in range(1, 5)
    )
    yield (
        "hodge oracle cross-check",
        agreement,
        "HRR route agrees with the residue count (d<=4, n<=4)",
    )
    yield (
        "hodge anchors",
        hodge_diamond(Multidegree(3, (2, 3))).betti(3) == 40
        and euler_characteristic(Multidegree(3, (3,))) == -6,
        "b_3(V_3(2,3)) = 40",
    )


def _cmd_selftest(args) -> int:
    failures = 0
    for name, ok, detail in _selftest_checks():
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="flatobs",
        description=(
            "Exact obstruction checks for flat regular compactifications of "
            "hyperplane- and quadric-section families."
        ),
    )
    parser.add_argument("--version", action="version", version=f"flatobs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a scenario JSON through the pipeline")
    analyze.add_argument("scenario", help="path to a scenario JSON file")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument(
        "--dump-matrix",
        metavar="PATH",
        default=None,
        help="write the node evaluation matrix as exact rational CSV",
    )
    analyze.set_defaults(func=_cmd_analyze)

    hodge = sub.add_parser("hodge", help="hodge diamond / betti vector / level")
    hodge.add_argument("--n", type=int, required=True, help="dimension of the intersection")
    hodge.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,3")
    hodge.add_argument("--format", choices=("text", "json"), default="text")
    hodge.set_defaults(func=_cmd_hodge)

    scan = sub.add_parser("scan-level1", help="enumerate level-1 families in a box")
    scan.add_argument("--n-max", type=int, default=9)
    scan.add_argument("--d-max", type=int, default=6)
    scan.add_argument("--k-max", type=int, default=4)
    scan.add_argument("--format", choices=("text", "json"), default="text")
    scan.set_defaults(func=_cmd_scan_level1)

    extend = sub.add_parser("extendability", help="isolated-singularity extendability test")
    extend.add_argument("poly_file", help="file containing one homogeneous polynomial")
    extend.add_argument("--arity", type=int, required=True)
    extend.add_argument("--format", choices=("text", "json"), default="text")
    extend.set_defaults(func=_cmd_extendability)

    selftest = sub.add_parser("selftest", help="run the bundled goldens and oracle cross-checks")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
