import builtins
import inspect
import json
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import flatobs
from flatobs import cli, hodgeci
from flatobs.cli import (
    CliError,
    SchemaError,
    bundled_scenario,
    load_scenario,
    main,
    render_text,
    run,
    validate_scenario,
)

from corpus import load_bench_module

GOLDENS = ("segre", "degenerate_quadric", "smooth_cubic3fold")
GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- schema validation ---------------------------------------------------

def test_bundled_scenarios_validate():
    for name in GOLDENS:
        data = bundled_scenario(name)
        assert validate_scenario(data) is data


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError, match="unknown scenario kind"):
        validate_scenario({"schema_version": 1, "name": "x", "kind": "mystery"})


def test_missing_hypotheses_rejected():
    data = bundled_scenario("smooth_cubic3fold")
    del data["hypotheses"]
    with pytest.raises(SchemaError, match="hypotheses"):
        validate_scenario(data)


def test_hypotheses_must_be_boolean():
    data = bundled_scenario("smooth_cubic3fold")
    data["hypotheses"]["abelian_scheme"] = "yes"
    with pytest.raises(SchemaError, match="boolean"):
        validate_scenario(data)


def test_bad_schema_version():
    with pytest.raises(SchemaError, match="schema_version"):
        validate_scenario({"schema_version": 2, "name": "x", "kind": "smooth_ci"})


def test_candidate_point_length_checked():
    data = bundled_scenario("segre")
    data["candidate_singular_points"] = [["1", "2"]]
    with pytest.raises(SchemaError, match="coordinates"):
        validate_scenario(data)


@pytest.mark.parametrize("arity, degrees", [(3, [3]), (6, [3]), (5, [2, 3]), (7, [2, 3])])
def test_quadric_section_arity_must_match_family(arity, degrees, capsys, tmp_path):
    # V_3(d_1, ..., d_k) lives in P^{3+k}, so its quadric sections need
    # arity 4 + k; the bundled V_3(2,3) scenario has arity 6
    data = bundled_scenario("degenerate_quadric")
    data["arity"] = arity
    data["smooth_family"]["degrees"] = degrees
    with pytest.raises(SchemaError, match="does not match smooth_family"):
        validate_scenario(data)
    code, out, err = run_cli(capsys, "analyze", write_scenario(tmp_path, data))
    assert (code, out) == (1, "")
    assert err.startswith("error [cli.schema]")


@pytest.mark.parametrize("coordinate", ["1/0", "abc"])
def test_candidate_coordinate_must_be_rational(coordinate, capsys, tmp_path):
    data = bundled_scenario("segre")
    data["candidate_singular_points"][0][1] = coordinate
    with pytest.raises(SchemaError, match="not a rational string"):
        validate_scenario(data)
    code, _, err = run_cli(capsys, "analyze", write_scenario(tmp_path, data))
    assert code == 1
    assert err.startswith("error [cli.schema]")


# -- golden scenarios -----------------------------------------------------

def test_segre_golden_report():
    report = run(bundled_scenario("segre"))
    pipeline = report["pipeline"]
    assert pipeline["singularities"]["locus_dimension"] == 0
    assert pipeline["singularities"]["complete"] is True
    assert len(pipeline["singularities"]["points"]) == 10
    assert all(
        p["classification"] == "node" for p in pipeline["singularities"]["points"]
    )
    assert pipeline["defect"] == {
        "t": 1,
        "node_count": 10,
        "imposed_rank": 5,
        "defect": 5,
        "b_above_middle": 6,
    }
    assert pipeline["betti_vector"] == [1, 0, 1, None, 6, 0, 1]
    assert pipeline["fiber_dimension"] == 5
    assert pipeline["ih_profile"]["dims"] == [None, 5, 0, 0]
    assert pipeline["corob"]["flat_excluded"] is False
    assert pipeline["corob"]["irreducible_excluded"] is True
    assert report["verdict"]["verdict"] == "NO_IRREDUCIBLE_FIBER_COMPACTIFICATION"
    assert report["verdict"]["witnesses"] == [{"k": 1, "b_plus": 6, "b_minus": 1}]


def test_degenerate_quadric_golden_report():
    report = run(bundled_scenario("degenerate_quadric"))
    pipeline = report["pipeline"]
    assert pipeline["quadric"]["rank"] == 2
    assert pipeline["quadric"]["components_of_section"] == 2
    assert pipeline["betti_vector"][6] == 2
    assert pipeline["fiber_dimension"] == 20
    assert pipeline["corob"]["flat_excluded"] is True
    assert report["verdict"]["verdict"] == "NO_FLAT_COMPACTIFICATION"
    assert {"k": 3, "b_plus": 2, "b_minus": 1} in report["verdict"]["witnesses"]


def test_smooth_golden_report():
    report = run(bundled_scenario("smooth_cubic3fold"))
    assert report["pipeline"]["betti_vector"] == [1, 0, 1, 10, 1, 0, 1]
    assert report["verdict"]["verdict"] == "NO_OBSTRUCTION_FOUND"
    assert report["verdict"]["witnesses"] == []
    assert "does not assert" in report["verdict"]["disclaimer"]


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_reports_match_pinned_output(name):
    # tests/golden holds whole reports, as JSON and as text
    report = run(bundled_scenario(name))
    pinned = GOLDEN_DIR / name
    assert json.dumps(report, indent=2) + "\n" == pinned.with_suffix(".json").read_text("utf-8")
    assert render_text(report) == pinned.with_suffix(".txt").read_text("utf-8")


@pytest.mark.parametrize("name", GOLDENS)
def test_one_hodge_diamond_per_op(name, monkeypatch):
    calls = []
    original = hodgeci.hodge_diamond

    def counting(md):
        calls.append(md)
        return original(md)

    monkeypatch.setattr(cli, "hodge_diamond", counting)
    monkeypatch.setattr(hodgeci, "hodge_diamond", counting)
    run(bundled_scenario(name))
    assert len(calls) == 1


@pytest.mark.parametrize("name", GOLDENS)
def test_run_reads_no_clock_and_opens_no_file(name, monkeypatch):
    data = bundled_scenario(name)

    def refuse(*args, **kwargs):
        raise AssertionError("run read the clock or opened a file")

    for owner, attr in ((builtins, "open"), (time, "perf_counter"), (time, "time"),
                        (time, "monotonic"), (time, "process_time")):
        monkeypatch.setattr(owner, attr, refuse)
    run(data)
    monkeypatch.undo()
    assert list(inspect.signature(run).parameters) == ["data"]


def test_reports_are_deterministic():
    one = run(bundled_scenario("segre"))
    two = run(bundled_scenario("segre"))
    assert json.dumps(one) == json.dumps(two)


# -- pipeline edge cases ------------------------------------------------------

def test_smooth_section_takes_smooth_path(tmp_path):
    data = {
        "schema_version": 1,
        "name": "fermat-section",
        "kind": "hypersurface_section",
        "ambient_arity": 6,
        "variety": "x0^3+x1^3+x2^3+x3^3+x4^3+x5^3",
        "hyperplane": "x5",
        "eliminate": 5,
        "candidate_singular_points": [],
        "hypotheses": {"H_nonconstant": True, "abelian_scheme": True},
    }
    report = run(data)
    assert report["pipeline"]["singularities"]["locus_dimension"] == -1
    assert report["pipeline"]["betti_vector"] == [1, 0, 1, 10, 1, 0, 1]
    assert report["verdict"]["verdict"] == "NO_OBSTRUCTION_FOUND"


def test_non_isolated_section_annotated_without_verdict():
    data = {
        "schema_version": 1,
        "name": "cone-section",
        "kind": "hypersurface_section",
        "ambient_arity": 6,
        "variety": "x0^3+x1^3+x2^3",
        "hyperplane": "x5",
        "eliminate": 5,
        "candidate_singular_points": [],
        "hypotheses": {"H_nonconstant": True, "abelian_scheme": True},
    }
    report = run(data)
    assert report["pipeline"]["extendable"] is False
    assert report["verdict"] is None
    assert any("verdict unavailable" in note for note in report["annotations"])


def incomplete_segre():
    data = bundled_scenario("segre")
    data["candidate_singular_points"] = data["candidate_singular_points"][:9]
    return data


def test_incomplete_certificate_blocks_defect():
    report = run(incomplete_segre())
    assert report["pipeline"]["singularities"]["complete"] is False
    assert "defect" not in report["pipeline"]
    assert report["verdict"] is None


def test_candidate_off_hyperplane_rejected():
    data = bundled_scenario("segre")
    data["candidate_singular_points"] = [["1", "1", "1", "1", "1", "1"]]
    with pytest.raises(CliError, match="hyperplane"):
        run(data)


def test_false_hypothesis_refuses_verdict_with_annotation():
    data = bundled_scenario("smooth_cubic3fold")
    data["hypotheses"]["abelian_scheme"] = False
    report = run(data)
    assert report["verdict"] is None
    assert any("verdict refused" in note for note in report["annotations"])


def test_irreducible_quadric_has_no_verdict():
    data = bundled_scenario("degenerate_quadric")
    data["quadric"] = "x0^2+x1^2+x2^2+x3^2+x4^2+x5^2"
    report = run(data)
    assert report["pipeline"]["quadric"]["components_of_section"] == "irreducible"
    assert report["verdict"] is None


def test_rank_two_quadric_needs_assertion():
    data = bundled_scenario("degenerate_quadric")
    data["section_smooth_flags"]["components_smooth_and_distinct"] = False
    report = run(data)
    assert report["verdict"] is None
    assert any("assertion is missing" in note for note in report["annotations"])


# -- command line surface --------------------------------------------------------

def test_analyze_json_output_round_trips(tmp_path, capsys):
    path = write_scenario(tmp_path, bundled_scenario("degenerate_quadric"))
    code, out, err = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"]["verdict"] == "NO_FLAT_COMPACTIFICATION"


def test_analyze_text_output(tmp_path, capsys):
    path = write_scenario(tmp_path, bundled_scenario("segre"))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "verdict: NO_IRREDUCIBLE_FIBER_COMPACTIFICATION" in out
    assert "delta=5" in out


SEGRE_MATRIX_CSV = (
    "1,-1,-1,-1,1\n"
    "1,-1,-1,1,-1\n"
    "1,-1,-1,1,1\n"
    "1,-1,1,-1,-1\n"
    "1,-1,1,-1,1\n"
    "1,-1,1,1,-1\n"
    "1,1,-1,-1,-1\n"
    "1,1,-1,-1,1\n"
    "1,1,-1,1,-1\n"
    "1,1,1,-1,-1\n"
)


def test_analyze_dump_matrix(tmp_path, capsys):
    # the 10 Segre nodes evaluated on the 5 linear forms (t = 1), exact bytes
    path = write_scenario(tmp_path, bundled_scenario("segre"))
    dump = tmp_path / "matrix.csv"
    code, out, _ = run_cli(capsys, "analyze", path, "--dump-matrix", str(dump))
    assert code == 0
    assert dump.read_bytes() == SEGRE_MATRIX_CSV.encode("utf-8")
    golden = (GOLDEN_DIR / "segre.txt").read_text("utf-8")
    assert out == golden + f"note: evaluation matrix written to {dump}\n"


def test_analyze_dump_matrix_unwritable_path_is_a_coded_error(tmp_path, capsys):
    path = write_scenario(tmp_path, bundled_scenario("segre"))
    code, out, err = run_cli(capsys, "analyze", path, "--dump-matrix", str(tmp_path / "no" / "m.csv"))
    assert code == 1
    assert out == ""
    assert err.startswith("error [cli.invalid]: cannot write matrix file")


def test_analyze_dump_matrix_json_note(tmp_path, capsys):
    path = write_scenario(tmp_path, bundled_scenario("segre"))
    dump = tmp_path / "matrix.csv"
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json", "--dump-matrix", str(dump))
    assert code == 0
    report = json.loads(out)
    assert report["annotations"][-1] == f"evaluation matrix written to {dump}"
    assert report["annotations"][:-1] == run(bundled_scenario("segre"))["annotations"]


@pytest.mark.parametrize(
    "data, pinned",
    [(bundled_scenario("smooth_cubic3fold"), "smooth_cubic3fold.txt"), (incomplete_segre(), None)],
    ids=["smooth-golden", "incomplete-certificate"],
)
def test_analyze_dump_matrix_needs_a_defect(tmp_path, capsys, data, pinned):
    dump = tmp_path / "matrix.csv"
    code, out, _ = run_cli(capsys, "analyze", write_scenario(tmp_path, data), "--dump-matrix", str(dump))
    assert code == 0
    assert not dump.exists()
    assert "evaluation matrix" not in out
    if pinned:
        assert out == (GOLDEN_DIR / pinned).read_text("utf-8")


def test_hodge_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--n", "3", "--degrees", "2,3")
    assert code == 0
    assert "1 0 1 40 1 0 1" in out
    assert "hodge level: 1" in out


def test_hodge_subcommand_json(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--n", "3", "--degrees", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["betti"] == [1, 0, 1, 10, 1, 0, 1]
    assert payload["level"] == 1


def test_scan_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "scan-level1", "--n-max", "3", "--d-max", "3", "--k-max", "1"
    )
    assert code == 0
    assert "V_3(3)" in out
    assert "box-relative" in out


def test_extendability_subcommand(tmp_path, capsys):
    poly = tmp_path / "segre_cubic.poly"
    from flatobs.polyring import parse_poly, restrict_to_hyperplane

    f = restrict_to_hyperplane(
        parse_poly("x0^3+x1^3+x2^3+x3^3+x4^3+x5^3", 6),
        parse_poly("x0+x1+x2+x3+x4+x5", 6),
        5,
    )
    poly.write_text(str(f) + "\n")
    code, out, _ = run_cli(capsys, "extendability", str(poly), "--arity", "5")
    assert code == 0
    assert "extendable: yes (isolated singularities)" in out

    cone = tmp_path / "cone.poly"
    cone.write_text("x0^3+x1^3+x2^3\n")
    code, out, _ = run_cli(capsys, "extendability", str(cone), "--arity", "5")
    assert code == 0
    assert "extendable: no" in out


def test_selftest_subcommand(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("selftest ")]
    assert len(lines) == 5
    assert all("PASS" in line for line in lines)


def test_exit_code_one_on_computation_error(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "schema_version": 1,
            "name": "bad-poly",
            "kind": "extendability",
            "arity": 2,
            "polynomial": "x0 $ x1",
        },
    )
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert "error [polyring.parse]" in err


def test_exit_code_one_on_smooth_candidate(tmp_path, capsys):
    # the ten nodes of the Segre cubic plus the smooth point (1 : -1 : 0 : 0 : 0)
    data = bundled_scenario("segre")
    data["candidate_singular_points"].append(["1", "-1", "0", "0", "0", "0"])
    code, out, err = run_cli(capsys, "analyze", write_scenario(tmp_path, data))
    assert code == 1
    assert out == ""
    assert "error [singular.invalid]" in err
    assert "smooth point" in err


def test_exit_code_one_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent.json")
    assert code == 1
    assert "error [cli.invalid]" in err


def test_exit_code_one_on_schema_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {"schema_version": 1, "name": "x", "kind": "mystery"})
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert "error [cli.schema]" in err


@pytest.mark.parametrize(
    "variety, hyperplane, arity, code",
    [
        ("x0^16", "+".join(f"x{i}" for i in range(8)), 8, "cli.too_large"),  # C(22, 16) = 74 613 terms
        ("x0", "x0+x1", 100_000, "cli.too_large"),  # C(99 999, 1) terms
        # 2 001 terms, under the cap, but a section of dimension 0 has no verdict
        ("x0^2000", "x0+x1+x2", 3, "cli.schema"),
    ],
    ids=["degree-16", "arity-100000", "arity-3"],
)
def test_oversized_restriction_refused_before_expansion(
    variety, hyperplane, arity, code, tmp_path, capsys
):
    data = {
        "schema_version": 1,
        "name": "too-large",
        "kind": "hypersurface_section",
        "ambient_arity": arity,
        "variety": variety,
        "hyperplane": hyperplane,
        "eliminate": 0,
        "hypotheses": {"H_nonconstant": True, "abelian_scheme": True},
    }
    path = write_scenario(tmp_path, data)
    start = time.perf_counter()
    exit_code, out, err = run_cli(capsys, "analyze", path)
    assert time.perf_counter() - start < 1.0
    assert exit_code == 1
    assert out == ""
    assert err.startswith(f"error [{code}]")


def _scan_scenario(n_max, d_max, k_max):
    return {"schema_version": 1, "name": "scan", "kind": "level1_scan",
            "n_max": n_max, "d_max": d_max, "k_max": k_max}


def _smooth_ci_scenario(n, degrees):
    return {"schema_version": 1, "name": "ci", "kind": "smooth_ci",
            "dimension": n, "degrees": list(degrees),
            "hypotheses": {"H_nonconstant": True, "abelian_scheme": True}}


@pytest.mark.parametrize(
    "data",
    [
        _smooth_ci_scenario(10**6, (3,)),
        _smooth_ci_scenario(cli.DIMENSION_CAP + 1, (2,)),
        {"schema_version": 1, "name": "q", "kind": "quadric_section", "arity": 10**6 + 2,
         "quadric": "x0*x1", "smooth_family": {"dimension": 10**6, "degrees": [2]},
         "section_smooth_flags": {"components_smooth_and_distinct": True},
         "hypotheses": {"H_nonconstant": True, "abelian_scheme": True}},
        _scan_scenario(10**9, 3, 1),
        _scan_scenario(cli.SCAN_N_CAP + 2, 2, 1),
        _scan_scenario(9, 10**18, 3),
        _scan_scenario(9, 2, 10**18),
        _scan_scenario(9, 10**18, 10**18),
        _scan_scenario(11, 6, 4),  # 5 * 125 = 625 multidegrees, each bound under its cap
    ],
    ids=["ci-dimension-1e6", "ci-dimension-over-cap", "quadric-family-dimension-1e6",
         "scan-n-max-1e9", "scan-n-max-over-cap", "scan-d-max-1e18", "scan-k-max-1e18",
         "scan-both-1e18", "scan-box-625"],
)
def test_hodge_side_caps_refused_before_any_diamond(data, tmp_path, capsys):
    path = write_scenario(tmp_path, data)
    start = time.perf_counter()
    exit_code, out, err = run_cli(capsys, "analyze", path)
    assert time.perf_counter() - start < 1.0
    assert exit_code == 1
    assert out == ""
    assert err.startswith("error [cli.too_large]")


@pytest.mark.parametrize(
    "argv",
    [("hodge", "--n", str(10**9), "--degrees", "3"),
     ("scan-level1", "--n-max", str(10**9)),
     ("scan-level1", "--d-max", str(10**9))],
    ids=["hodge", "scan-n-max", "scan-d-max"],
)
def test_hodge_side_caps_hold_on_subcommands(argv, capsys):
    start = time.perf_counter()
    exit_code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert exit_code == 1
    assert out == ""
    assert err.startswith("error [cli.too_large]")


def test_scan_box_cap_counts_every_multidegree():
    # the closed-form count against the enumeration scan_level1 runs
    for n_max in range(3, cli.SCAN_N_CAP + 1):
        for d_max in range(2, 9):
            for k_max in range(1, 7):
                size = sum(
                    1
                    for _ in range(3, n_max + 1, 2)
                    for k in range(1, k_max + 1)
                    for _ in combinations_with_replacement(range(2, d_max + 1), k)
                )
                try:
                    validate_scenario(_scan_scenario(n_max, d_max, k_max))
                    refused = False
                except cli.TooLargeError:
                    refused = True
                assert refused == (size > cli.SCAN_BOX_CAP), (n_max, d_max, k_max, size)


def test_caps_admit_every_bench_op_and_cli_default():
    workloads = load_bench_module("workloads")
    boxes = [box for _, tier in workloads.SCAN_TIERS for box in tier]
    boxes.append((9, 6, 4))  # the scan-level1 defaults
    for box in boxes:
        validate_scenario(_scan_scenario(*box))
    for n in {*workloads.CI_DIMENSIONS, *workloads.QUADRIC_DIMENSIONS}:
        degrees = (workloads.DEGREE_MAX,) * workloads.K_MAX
        validate_scenario(_smooth_ci_scenario(n, degrees))


@pytest.mark.parametrize("data", [_scan_scenario(2, 10**18, 3), _scan_scenario(9, 1, 10**18),
                                  _scan_scenario(9, 10**18, 0), _scan_scenario(9, -5, -5)],
                         ids=["n-max-2", "d-max-1", "k-max-0", "negative"])
def test_empty_scan_boxes_stay_hodge_errors(data):
    with pytest.raises(hodgeci.HodgeError):
        run(data)


def test_hodge_rejects_degree_one(capsys):
    code, _, err = run_cli(capsys, "hodge", "--n", "3", "--degrees", "1,2")
    assert code == 1
    assert "error [hodgeci.invalid]" in err


def test_exit_code_two_on_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frobnicate"])
    assert exc.value.code == 2


def test_load_scenario_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(SchemaError):
        load_scenario(str(path))


# -- bench trace bindings and answers ------------------------------------------

def test_tracer_bindings_resolve():
    # perfbench/run.py --trace 1 patches these names; a refactor that drops
    # one would otherwise surface only in the slow bench self-check
    tracer = load_bench_module("tracer")
    for module, attr, _ in tracer.BINDINGS:
        owner, key = tracer.binding_owner(flatobs, module, attr)
        assert key in owner.__dict__, f"{module}.{attr}"


@pytest.mark.parametrize("workload, size", [("extendability", 20), ("sections", 11)])
def test_bench_round_answers_check(workload, size):
    # one seeded round through the op path of perfbench/run.py; the checks in
    # perfbench/workloads.py import nothing from flatobs, so they catch a
    # kernel regression that flatobs's own answers would not
    workloads = load_bench_module("workloads")
    ops = next(workloads.rounds_for(workload, 1))
    assert len(ops) == size
    for op in ops:
        report = run(validate_scenario(op.scenario))
        json.dumps(report, indent=2)
        assert workloads.check(op, report) is None, op.cls


def _plain_json(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain_json(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain_json(v) for v in value)
    return value is None or type(value) in (str, int, bool)


def test_reports_are_plain_json_values():
    # every report is built from dicts, lists, str, int, bool and None only, so
    # it equals its own JSON round trip (a tuple would come back as a list)
    workloads = load_bench_module("workloads")
    scenarios = [bundled_scenario(name) for name in GOLDENS]
    for workload in ("sections", "extendability", "hodge"):
        scenarios += [op.scenario for op in next(workloads.rounds_for(workload, 3))]
    assert len(scenarios) == 70
    for data in scenarios:
        report = run(validate_scenario(data))
        assert _plain_json(report), data["name"]
        assert json.loads(json.dumps(report)) == report, data["name"]
