#!/usr/bin/env python3
"""End-to-end tour of the library on the bundled corpus.

For each bundled map document: validate it, print the transition/escape
matrices with any claim-comparison notes, classify a few sample points,
materialize a backward window, check the operator relations, build a
faithfulness certificate, and compare two escaping points.  DOT renderings
of the transition graph and the sample window are written to ``--outdir``.

Usage:
    python3 scripts/run_example_pipeline.py --outdir pipeline_out
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from escapemaps import (
    CORPUS_NAMES,
    build_graph,
    build_orbit_tree,
    check_relations,
    classify_point,
    compare_points,
    dot_export,
    expected_matrix_notes,
    faithfulness_certificate,
    format_rational,
    jsonable,
    load_document,
    point_class_to_jsonable,
    realize,
    transition_data,
    tree_to_dot,
)

F = Fraction


@dataclass(frozen=True)
class PipelineConfig:
    outdir: Path
    window_depth: int = 4
    sample_points: tuple[Fraction, ...] = (F(1, 2), F(1, 10), F(5, 27), F(1, 70))
    vertex_set: tuple[int, ...] = (2, 3, 4)
    compare_pair: tuple[Fraction, Fraction] = (F(1, 2), F(9, 20))


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 66 - len(text)))


def run_map(name: str, config: PipelineConfig) -> None:
    banner(f"map: {name}")
    doc = load_document(name)
    m = doc.map

    report = m.validate()
    print(f"validation: all_ok={report.all_ok} p5_ok={report.p5_ok} "
          f"expansion_bound={format_rational(report.expansion_bound)} "
          f"aperiodicity_exponent={report.aperiodicity_exponent}")

    data = transition_data(m)
    print(f"symbols: {' '.join(data.symbols)}")
    print("markov rows:", data.markov)
    print("escape columns:", data.escape, "at gap positions", data.gap_positions)
    if doc.expected_escape_matrix is not None:
        notes = expected_matrix_notes(m, data, doc.expected_escape_matrix)
        if notes:
            for note in notes:
                print("claim note:", note)
        else:
            print("claim note: computed escape matrix matches the claimed one")

    dot_path = config.outdir / f"{name}_graph.dot"
    dot_path.write_text(dot_export(build_graph(data.markov)))
    print("transition graph written to", dot_path)


def run_four_interval_deep_dive(config: PipelineConfig) -> None:
    doc = load_document("four_interval")
    m = doc.map

    banner("point classification (four_interval)")
    for x in config.sample_points:
        data = point_class_to_jsonable(classify_point(m, x))
        print(f"x={format_rational(x)}: {json.dumps(data, sort_keys=True)}")

    banner(f"backward window of 1/2 at depth {config.window_depth}")
    tree = build_orbit_tree(m, F(1, 2), depth=config.window_depth)
    print(f"nodes={tree.node_count} root={format_rational(tree.root_point)}")
    window_path = config.outdir / "four_interval_window.dot"
    window_path.write_text(tree_to_dot(tree))
    print("window written to", window_path)

    banner("operator relations and certificate")
    rep = realize(tree)
    relations = check_relations(rep, config.vertex_set)
    print(f"relations for V={list(config.vertex_set)}: all_passed={relations.all_passed}")
    cert = faithfulness_certificate(rep, config.vertex_set)
    print(f"certificate: faithful={cert.faithful} all_verified={cert.all_verified} "
          f"complement_misses={list(cert.complement_misses)}")

    banner("comparing two escaping points")
    x, y = config.compare_pair
    result = compare_points(m, x, y)
    print(f"x={format_rational(x)} y={format_rational(y)}:",
          json.dumps(result.verdict, default=jsonable, sort_keys=True))
    if result.intertwiner is not None:
        summary = jsonable(result.intertwiner)
        summary.pop("pairs", None)
        print("intertwiner:", json.dumps(summary, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("pipeline_out"),
                        help="directory for DOT output (created if missing)")
    parser.add_argument("--depth", type=int, default=4,
                        help="backward window depth for the deep dive")
    args = parser.parse_args(argv)

    config = PipelineConfig(outdir=args.outdir, window_depth=args.depth)
    config.outdir.mkdir(parents=True, exist_ok=True)

    for name in CORPUS_NAMES:
        run_map(name, config)
    run_four_interval_deep_dive(config)
    banner("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
