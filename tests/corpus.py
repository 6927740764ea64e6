"""Shared fixtures: the small-ideal and hypersurface corpora, the nodal cubic
threefold data, and the benchmark's modules."""

import importlib.util
import sys
from itertools import combinations
from pathlib import Path

from flatobs.polyring import parse_poly, restrict_to_hyperplane
from flatobs.singular import ProjectivePoint


def P(text, arity):
    return parse_poly(text, arity)


def ideal_corpus():
    """Fixed corpus of small ideals exercised by the Groebner property suite."""
    return [
        ("vars", [P("x0", 2), P("x1", 2)]),
        ("binomial", [P("x0^2-x1", 2), P("x1^2", 2)]),
        ("monomial", [P("x0^2", 2), P("x0*x1", 2)]),
        ("fermat-jac-3", [P("x0^2", 3), P("x1^2", 3), P("x2^2", 3)]),
        ("circle-line", [P("x0^2+x1^2-1", 2), P("x0-x1", 2)]),
        ("twisted-cubic", [P("x0^2-x1", 2), P("x0^3-x1", 2)]),
        ("katsura-2", [P("x0+2x1-1", 2), P("x0^2+2x1^2-x0", 2)]),
        ("cyclic-2", [P("x0+x1", 2), P("x0*x1-1", 2)]),
        ("cyclic-3", [P("x0+x1+x2", 3), P("x0*x1+x1*x2+x2*x0", 3), P("x0*x1*x2-1", 3)]),
        ("intersect-conics", [P("x0^2-x1^2", 2), P("x0^2+x1^2-2", 2)]),
        ("mixed-cubic", [P("x0^3-x1^2", 2), P("x0*x1-1", 2)]),
        ("three-planes", [P("x0+x1+x2", 3), P("x0-x2", 3), P("x1+2x2", 3)]),
        ("artinian-3", [P("x0^2-1", 3), P("x1^2-x0", 3), P("x2^2-x1", 3)]),
        ("nilpotent", [P("x0^3", 2), P("x0*x1^2", 2), P("x1^3", 2)]),
        ("rational-coeffs", [P("1/2*x0^2-x1", 2), P("2/3*x1^2-x0", 2)]),
        ("dense-quadric", [P("x0^2+x0*x1+x1^2", 2), P("x0*x1-3", 2)]),
        ("shifted", [P("x0^2+1", 2), P("x1-x0", 2)]),
        ("redundant", [P("x0", 2), P("x0^2", 2), P("x0*x1", 2)]),
        ("triangular", [P("x0^4-1", 2), P("x1^3-x0", 2)]),
        ("symmetric", [P("x0+x1+x2-1", 3), P("x0*x1+x1*x2+x0*x2", 3)]),
        ("two-points", [P("x0^2-x0", 2), P("x1^2-x1", 2)]),
        ("weighted", [P("x0^2-2x1^2", 2), P("x0*x1+x1^2-1", 2)]),
    ]


def hypersurface_corpus():
    """Fixed corpus of hypersurfaces with every kind of singular locus."""
    return [
        ("segre", segre_cubic()),
        ("fermat-cubic-threefold", P("x0^3+x1^3+x2^3+x3^3+x4^3", 5)),
        ("line", P("x0+2x1", 2)),
        ("smooth-conic", P("x0^2+x1^2-x2^2", 3)),
        ("quadric-cone", P("x0^2+x1^2-x2^2", 4)),
        ("triangle", P("x0*x1*x2", 3)),
        ("cusp", P("x0^2*x2+x1^3", 3)),
        ("nodal-cubic-curve", P("x1^2*x2-x0^3-x0^2*x2", 3)),
        ("cone-over-cubic-curve", P("x0^3+x1^3+x2^3", 5)),
        ("double-plane", P("x0^2", 3)),
    ]


def segre_cubic():
    """The nodal cubic threefold: sum of six cubes restricted to the sum-zero hyperplane."""
    f = P("x0^3+x1^3+x2^3+x3^3+x4^3+x5^3", 6)
    h = P("x0+x1+x2+x3+x4+x5", 6)
    return restrict_to_hyperplane(f, h, 5)


def segre_nodes():
    """Its 10 nodes: +-1 sign patterns with three -1 entries, modulo global sign."""
    points = []
    for negatives in combinations(range(1, 6), 3):
        coords6 = [-1 if i in negatives else 1 for i in range(6)]
        points.append(ProjectivePoint(coords6[:5]))
    return points


def load_bench_module(name):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"flatobs_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module
