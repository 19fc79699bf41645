"""The map's geometry is its integer grid: no library path here does
``Fraction`` arithmetic or ordering.

The test builds its inputs first (the bundled map documents as parsed JSON,
the band-8 synthesis spec of the CLI transcript, and the points), then
patches ``Fraction`` so that every arithmetic operator, ``-x``, ``abs(x)``
and every ordering raises, and runs each map through validation, the
matrices, gap cells, inverse branches, classification, windows, operators
and equivalence.  Building, hashing and equality of ``Fraction`` values stay
allowed: points are returned as Fractions.  ``classify_corpus`` stays
outside, since it sorts the points it returns."""

import json
from fractions import Fraction

from escapemaps import (
    CORPUS_NAMES,
    STRICT,
    Escaped,
    SynthesisSpec,
    build_orbit_tree,
    check_relations,
    classify_point,
    compare_points,
    corpus_path,
    faithfulness_certificate,
    image_decomposition_check,
    incidence_cells,
    map_document_from_jsonable,
    realize,
    synthesize,
    transition_data,
)

F = Fraction

FORBIDDEN = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)

BAND8 = tuple(tuple(int(abs(i - j) <= 1) for j in range(8)) for i in range(8))

# Per map: two escape points (None without a gap), a regular point with the
# horizon of its window, and an admissible vertex set (None without one);
# the points and sets of the CLI transcript.
POINTS = {
    "four_interval": (F(1, 2), F(9, 20), F(5, 27), 4, (2, 3, 4)),
    "four_interval_reaching": (F(13, 20), F(1, 2), F(5, 27), 1, (2, 3)),
    "full_two_interval": (None, None, F(1, 3), 0, None),
    "band8": (F(1, 2), F(190, 429), F(2, 11), 0, (1, 2, 3, 6, 7, 8)),
}


def _forbidden(name):
    def method(*args):
        raise AssertionError(f"Fraction.{name} called")

    return method


def _midpoint(lo, hi):
    """(lo + hi) / 2, built from the numerators and denominators."""
    (p, q), (s, t) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return F(p * t + s * q, 2 * q * t)


def exercise(m, points):
    """Every guarded call on one map, with the results the test compares."""
    e, e2, r, horizon, vertices = points
    out = {
        "validation": m.validate(),
        "images": m.images,
        "data": transition_data(m),
        "cells": [incidence_cells(m, k) for k, _, _ in m.gaps],
        "intervals": [m.interval_image(i) for i in range(1, m.n + 1)],
        # Each image end and a point inside, each inside the closed image of
        # its own branch and of those whose images contain it.
        "inverses": [
            [m.branch_inverse(i, y) for i in range(1, m.n + 1)]
            for lo, hi in m.images
            for y in (lo, hi, _midpoint(lo, hi))
        ],
        "regular": classify_point(m, r),
    }
    regular = build_orbit_tree(m, r, 3, horizon=horizon)
    out["regular_points"] = regular.points
    out["regular_relations"] = check_relations(realize(regular), range(1, m.n + 1))
    if e is not None:
        out["escape"] = classify_point(m, e)
        tree = build_orbit_tree(m, e, 4)
        rep = realize(tree)
        out["points"] = tree.points
        out["relations"] = check_relations(rep, vertices)
        out["decomposition"] = image_decomposition_check(rep)
        out["certificate"] = faithfulness_certificate(rep, vertices)
        out["comparison"] = compare_points(m, e, e2, depth=4)
    out["regular_comparison"] = compare_points(m, r, r, depth=3)
    return out


def test_no_fraction_arithmetic_on_the_map_paths(monkeypatch):
    documents = {name: json.loads(corpus_path(name).read_text()) for name in CORPUS_NAMES}
    spec = SynthesisSpec(BAND8, tuple((row[3] & row[4],) for row in BAND8), (4,), STRICT)
    results = {}
    with monkeypatch.context() as patch:
        for name in FORBIDDEN:
            patch.setattr(Fraction, name, _forbidden(name))
        maps = {name: map_document_from_jsonable(doc).map for name, doc in documents.items()}
        maps["band8"] = synthesize(spec).map
        for name, m in maps.items():
            results[name] = exercise(m, POINTS[name])

    # The patch is off again: the results are the ones the points pin.
    for name, out in results.items():
        assert out["validation"].all_ok, name
        assert out["intervals"] == list(out["images"])
        assert out["regular_relations"].all_passed, name
        if "escape" in out:
            assert isinstance(out["escape"], Escaped)
            assert out["relations"].all_passed and out["decomposition"].passed, name
            assert out["certificate"].all_verified, name
    four = results["four_interval"]
    assert four["escape"].final_point == F(1, 2) and four["data"].gap_positions == (2,)
    assert four["images"] == ((F(1, 5), F(9, 10)), (F(9, 10), F(1)), (F(0), F(1, 4)),
                              (F(7, 10), F(9, 10)))
    assert four["cells"] == [((F(1, 4), F(7, 10), (1, 0, 0, 0)),)]
    assert four["comparison"].verdict.__class__.__name__ == "Equivalent"
