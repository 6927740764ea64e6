"""Outside-in layer tracer for flatobs.

The pipeline calls most layer functions through names imported into another
module (`cli` imports `analyze_singularities`, `singular` imports
`buchberger`, ...), so wrapping only the defining module would miss those
calls.  `Tracer` therefore replaces every binding the pipeline calls
through, records one span per call (name, start, end, parent span, op id) in
memory, and puts every original back when it exits.  Nothing inside
`flatobs` is modified on disk or needs to know about the tracer.

The two `MultiPoly` methods run thousands of times per op inside other
layers' spans.  They are counted, not spanned, so their time stays in the
caller's self time: for `analyze_singularities` that is the node Hessian.
"""

from __future__ import annotations

import json
import time
from functools import wraps
from types import ModuleType

# (module under flatobs, attribute, span name).  An attribute "A.b" is the
# method b of class A in that module; those are counted without a span.
BINDINGS = (
    ("cli", "validate_scenario", "cli.validate_scenario"),
    ("cli", "run", "cli.run"),
    ("cli", "analyze_singularities", "singular.analyze_singularities"),
    ("cli", "extendability", "singular.extendability"),
    ("cli", "parse_poly", "polyring.parse_poly"),
    ("cli", "restrict_to_hyperplane", "polyring.restrict_to_hyperplane"),
    ("cli", "defect", "bettisng.defect"),
    ("cli", "quadric_analysis", "bettisng.quadric_analysis"),
    ("cli", "hodge_diamond", "hodgeci.hodge_diamond"),
    ("cli", "betti_vector_smooth", "hodgeci.betti_vector_smooth"),
    ("cli", "scan_level1", "hodgeci.scan_level1"),
    ("cli", "verdict_report", "obstruct.verdict_report"),
    ("cli", "ih_from_betti", "obstruct.ih_from_betti"),
    ("cli", "corob_check", "obstruct.corob_check"),
    ("singular", "buchberger", "idealcalc.buchberger"),
    ("singular", "projective_dimension", "idealcalc.projective_dimension"),
    ("singular", "standard_monomials", "idealcalc.standard_monomials"),
    ("singular", "exact_rank", "linalg.exact_rank"),
    ("singular", "dehomogenize", "polyring.dehomogenize"),
    ("bettisng", "exact_rank", "linalg.exact_rank"),
    ("hodgeci", "hodge_diamond", "hodgeci.hodge_diamond"),
    ("obstruct", "ih_from_betti", "obstruct.ih_from_betti"),
    ("polyring", "MultiPoly.partial_derivative", "polyring.MultiPoly.partial_derivative"),
    ("polyring", "MultiPoly.evaluate", "polyring.MultiPoly.evaluate"),
)

# Per-layer metrics a traced run reports, with units.  `calls`, `busy_s` and
# `self_s` come from spans; the rest are exact counts taken at the boundary.
LAYER_METRICS = (
    ("idealcalc.buchberger.calls", "count"),
    ("idealcalc.buchberger.busy_s", "s"),
    ("idealcalc.buchberger.basis_size", "count"),
    ("idealcalc.buchberger.max_coeff_bits", "bits"),
    ("idealcalc.projective_dimension.calls", "count"),
    ("idealcalc.projective_dimension.busy_s", "s"),
    ("idealcalc.standard_monomials.calls", "count"),
    ("idealcalc.standard_monomials.busy_s", "s"),
    ("idealcalc.standard_monomials.quotient_dim", "count"),
    ("singular.analyze_singularities.calls", "count"),
    ("singular.analyze_singularities.busy_s", "s"),
    ("singular.analyze_singularities.self_s", "s"),
    ("singular.extendability.calls", "count"),
    ("singular.extendability.busy_s", "s"),
    ("singular.extendability.self_s", "s"),
    ("singular.chart_bases", "count"),
    ("polyring.parse_poly.calls", "count"),
    ("polyring.parse_poly.busy_s", "s"),
    ("polyring.restrict_to_hyperplane.busy_s", "s"),
    ("polyring.dehomogenize.calls", "count"),
    ("polyring.MultiPoly.partial_derivative.calls", "count"),
    ("polyring.MultiPoly.evaluate.calls", "count"),
    ("linalg.exact_rank.calls", "count"),
    ("linalg.exact_rank.busy_s", "s"),
    ("linalg.exact_rank.entries", "count"),
    ("linalg.exact_rank.rank_sum", "count"),
    ("hodgeci.hodge_diamond.calls", "count"),
    ("hodgeci.hodge_diamond.busy_s", "s"),
    ("hodgeci.hodge_diamond.distinct_inputs", "count"),
    ("hodgeci.scan_level1.calls", "count"),
    ("hodgeci.scan_level1.busy_s", "s"),
    ("hodgeci.scan_level1.self_s", "s"),
    ("bettisng.defect.calls", "count"),
    ("bettisng.defect.busy_s", "s"),
    ("bettisng.defect.self_s", "s"),
    ("bettisng.quadric_analysis.calls", "count"),
    ("bettisng.quadric_analysis.busy_s", "s"),
    ("obstruct.verdict_report.calls", "count"),
    ("obstruct.verdict_report.busy_s", "s"),
    ("obstruct.ih_from_betti.calls", "count"),
    ("obstruct.corob_check.calls", "count"),
    ("cli.run.calls", "count"),
    ("cli.run.busy_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.validate_scenario.calls", "count"),
    ("cli.validate_scenario.busy_s", "s"),
)

# Counts that must repeat exactly across traced runs of the same ops.
EXACT_SUFFIXES = (".calls", ".basis_size", ".max_coeff_bits", ".quotient_dim",
                  ".entries", ".rank_sum", ".distinct_inputs", ".chart_bases")


def binding_owner(package, module: str, attr: str):
    """The object holding one BINDINGS entry, and the attribute name in it."""
    owner = getattr(package, module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Context manager that traces every binding in BINDINGS while active.

    `op` is the id stamped on spans; the caller sets it before each op.
    A span is a list [name, start, end, parent index or -1, op id].
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._saved: list = []
        self.bases: list = []  # buchberger results; sized after the run
        self.quotient_dim = 0
        self.rank_entries = 0
        self.rank_sum = 0
        self.diamond_inputs: set = set()
        self.method_calls: dict = {}

    def _count(self, name, args, result):
        if name == "idealcalc.buchberger":
            self.bases.append(result)
        elif name == "idealcalc.standard_monomials":
            self.quotient_dim += len(result)
        elif name == "linalg.exact_rank":
            rows = list(args[0])
            self.rank_entries += len(rows) * (len(rows[0]) if rows else 0)
            self.rank_sum += result
        elif name == "hodgeci.hodge_diamond":
            self.diamond_inputs.add(args[0])

    def _wrap(self, name: str, fn, spanned: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counts = self.method_calls

        if not spanned:
            @wraps(fn)
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def __enter__(self):
        """Install the wrappers; a Tracer may be entered again after it exits."""
        originals = []
        for module, attr, name in BINDINGS:
            owner, key = binding_owner(self.package, module, attr)
            originals.append((owner, key, name, owner.__dict__[key]))
        for owner, key, name, fn in originals:
            setattr(owner, key, self._wrap(name, fn, spanned=isinstance(owner, ModuleType)))
            self._saved.append((owner, key, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)
        return False

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        calls: dict = {}
        busy: dict = {}
        selfs: dict = {}
        child_time: dict = {}
        child_bases: dict = {}
        for name, start, end, parent, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
                if name == "idealcalc.buchberger":
                    child_bases[parent] = child_bases.get(parent, 0) + 1
        chart_bases = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == "singular.analyze_singularities":
                chart_bases += child_bases.get(i, 0) - 1  # the first basis is the locus
            if _has_ancestor_named(spans, parent, name):
                continue  # time already inside an outer call of the same name
            busy[name] = busy.get(name, 0.0) + (end - start)
            selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time.get(i, 0.0)
        out = {}
        for metric, _ in LAYER_METRICS:
            head, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(head, 0) + self.method_calls.get(head, 0)
            elif stat == "busy_s":
                out[metric] = busy.get(head, 0.0)
            elif stat == "self_s":
                out[metric] = selfs.get(head, 0.0)
        out["idealcalc.buchberger.basis_size"] = sum(len(gb) for gb in self.bases)
        out["idealcalc.buchberger.max_coeff_bits"] = max(
            (_coeff_bits(gb) for gb in self.bases), default=0
        )
        out["idealcalc.standard_monomials.quotient_dim"] = self.quotient_dim
        out["singular.chart_bases"] = chart_bases
        out["linalg.exact_rank.entries"] = self.rank_entries
        out["linalg.exact_rank.rank_sum"] = self.rank_sum
        out["hodgeci.hodge_diamond.distinct_inputs"] = len(self.diamond_inputs)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _has_ancestor_named(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _coeff_bits(gb) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for g in gb for c in g.terms.values()),
        default=0,
    )


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES)
