"""Command-line front end.

One subcommand per pipeline stage:

  validate   check the four validity properties plus the coverage diagnostic
  matrices   transition matrix, escape block, interleaved escape matrix
  graph      DOT export of the transition graph plus primitivity data
  point      forward classification of a rational point
  tree       backward orbit window of a point
  rep        realized operators on a window, optionally with relation checks
  certify    admissibility and faithfulness certificate for a vertex set
  equiv      equivalence verdict for two points
  synth      construct a map realizing prescribed matrices

All reports are canonical JSON (sorted keys, two-space indent) on stdout;
diagnostics go to stderr.  Exit codes: 0 success / all checks pass, 1 check
failure or infeasible spec, 2 malformed input.  Points, slopes, and
breakpoints are rational strings ("p/q") end to end; floats never enter.

Each handler imports the layers it calls when it runs, so a process loads
only what its subcommand needs: ``validate`` never imports ``orbits``, only
``synth`` imports ``synthesis``, and a usage error loads no layer at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (DEFAULT_MAX_ITER, DEFAULT_TREE_DEPTH, DepthExceedsTreeError,
                     EscapeMapsError, InfeasibleSpecError, MapFormatError, MapStructureError,
                     RationalParseError)
from .rationals import ASCII_SPACE, _too_long, jsonable, parse_integer, parse_rational

DEFAULT_CERTIFY_DEPTH = 4


def _emit(payload: object) -> None:
    """Print a report: records, tuples and Fractions are encoded by
    ``jsonable`` as the encoder meets them."""
    try:
        text = json.dumps(payload, default=jsonable, indent=2, sort_keys=True)
    except ValueError as exc:  # Python's limit on digits in an int string
        raise EscapeMapsError(f"cannot print a report that has {_too_long()}") from exc
    print(text)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MapFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise MapFormatError(f"{path} is nested too deeply to parse") from None


def _load_document(path: str, valid: bool = False):
    """Load a map; for orbit analysis (``valid``) a map failing P1-P4 is a
    check failure (exit 1) that lists its issues."""
    from .maps import map_document_from_jsonable

    doc = map_document_from_jsonable(_load_json(path))
    if valid:
        doc.map.require_valid()
    return doc


def _budget(text: str) -> int:
    """argparse type for --depth, --max-iter and --horizon: a count of steps,
    so negative values are usage errors (exit 2)."""
    try:
        value = parse_integer(text, "budget")
    except RationalParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _parse_vertices(text: str, n: int) -> tuple[int, ...]:
    from .operators import _validated_vertices

    pieces = [piece.strip(ASCII_SPACE) for piece in text.split(",")]
    if pieces == [""]:
        return ()
    return _validated_vertices([parse_integer(p, "vertex list entry") for p in pieces], n)


# -- handlers ------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_document(args.map)
    report = doc.map.validate()
    _emit(report)
    return 0 if report.all_ok else 1


def _cmd_matrices(args: argparse.Namespace) -> int:
    from .transitions import expected_matrix_notes, transition_data

    doc = _load_document(args.map)
    data = transition_data(doc.map)
    out: dict = {
        "symbols": data.symbols,
        "markov": data.markov,
        "escape_block": data.escape,
        "gap_positions": data.gap_positions,
        "escape_matrix": data.entries,
    }
    if args.block:
        out["block_form"] = {
            "permutation": data.block_permutation,
            "permutation_matrix": data.permutation_matrix,
            "markov": data.markov,
            "escape_block": data.escape,
        }
    if doc.expected_escape_matrix is not None:
        notes = expected_matrix_notes(doc.map, data, doc.expected_escape_matrix)
        out["claim_notes"] = notes
        out["claim_matches"] = not notes
    _emit(out)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .transitions import dot_export, wielandt_bound

    doc = _load_document(args.map)
    markov = doc.map.transition_matrix
    try:
        Path(args.dot).write_text(dot_export(markov))
    except OSError as exc:
        _fail(f"cannot write {args.dot}: {exc}")
        return 1
    report = doc.map.validate()
    _emit(
        {
            "vertices": doc.map.n,
            "edges": [(i + 1, j + 1) for i, row in enumerate(markov)
                      for j, unit in enumerate(row) if unit],
            "primitive": report.p4_ok,
            "aperiodicity_exponent": report.aperiodicity_exponent,
            "wielandt_bound": wielandt_bound(doc.map.n),
            "dot_file": args.dot,
        }
    )
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    from .orbits import Escaped, classify_point, point_class_to_jsonable
    from .transitions import gap_symbol, markov_symbol

    doc = _load_document(args.map, valid=True)
    x = parse_rational(args.x)
    pc = classify_point(doc.map, x, args.max_iter, labels := [])
    out = {"point": x, **point_class_to_jsonable(pc)}
    if isinstance(pc, Escaped):  # so no step of its orbit met a partition point
        out["itinerary"] = [*map(markov_symbol, labels), gap_symbol(pc.gap_index)]
    _emit(out)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from .orbits import build_orbit_tree, tree_to_dot, tree_to_jsonable

    doc = _load_document(args.map, valid=True)
    x = parse_rational(args.x)
    tree = build_orbit_tree(doc.map, x, args.depth, max_iter=args.max_iter, horizon=args.horizon)
    if args.dot:
        print(tree_to_dot(tree), end="")
    else:
        _emit(tree_to_jsonable(tree))
    return 0


def _cmd_rep(args: argparse.Namespace) -> int:
    from .operators import (check_relations, image_decomposition_check,
                            projection_sum_is_identity, realize)
    from .orbits import build_orbit_tree

    doc = _load_document(args.map, valid=True)
    x = parse_rational(args.x)
    vertices = _parse_vertices(args.vertices, doc.map.n)
    tree = build_orbit_tree(doc.map, x, args.depth, max_iter=args.max_iter, horizon=args.horizon)
    rep = realize(tree)
    out: dict = {
        "base_point": tree.base_point,
        "root": tree.root_point,
        "depth": tree.max_depth,
        "basis_size": rep.dim,
        "basis": tree.points,
        "interior_size": rep.interior_mask.bit_count(),
        "edges": rep.edges(),
        "incidence": rep.incidence,
        "vertex_set": vertices,
    }
    exit_code = 0
    if args.check:
        relations = check_relations(rep, vertices)
        identities = image_decomposition_check(rep)
        out["relations"] = relations
        out["projection_identities"] = identities
        out["projection_sum_is_identity"] = projection_sum_is_identity(rep)
        if not (relations.all_passed and identities.passed):
            exit_code = 1
    _emit(out)
    return exit_code


def _cmd_certify(args: argparse.Namespace) -> int:
    from .operators import faithfulness_certificate, realize
    from .orbits import build_orbit_tree

    doc = _load_document(args.map, valid=True)
    x = parse_rational(args.x)
    vertices = _parse_vertices(args.vertices, doc.map.n)
    tree = build_orbit_tree(doc.map, x, args.depth, max_iter=args.max_iter)
    certificate = faithfulness_certificate(realize(tree), vertices)
    _emit(certificate)
    return 0 if certificate.all_verified else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .equivalence import compare_points
    from .orbits import point_class_to_jsonable

    doc = _load_document(args.map, valid=True)
    x = parse_rational(args.x)
    y = parse_rational(args.y)
    result = compare_points(doc.map, x, y, max_iter=args.max_iter, depth=args.depth)
    out = {
        "x": point_class_to_jsonable(result.class_x),
        "y": point_class_to_jsonable(result.class_y),
        "verdict": result.verdict,
    }
    if result.intertwiner is not None:
        out["intertwiner"] = result.intertwiner
    _emit(out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .maps import MapDocument, map_document_to_jsonable
    from .synthesis import spec_from_jsonable, synthesize

    spec = spec_from_jsonable(_load_json(args.transition), _load_json(args.escape), args.mode)
    try:
        result = synthesize(spec)
    except InfeasibleSpecError as exc:
        _emit(exc.report)
        _fail("synthesis spec is infeasible")
        return 1
    doc = MapDocument(result.map)
    payload = json.dumps(map_document_to_jsonable(doc), indent=2, sort_keys=True)
    try:
        Path(args.output).write_text(payload + "\n")
    except OSError as exc:
        _fail(f"cannot write {args.output}: {exc}")
        return 1
    _emit(
        {
            "output": args.output,
            "mode": spec.mode,
            "gap_positions": result.positions,
            "allocation": result.allocation,
            "validation": result.validation,
        }
    )
    return 0


# -- parser --------------------------------------------------------------


# The options of the map subcommands that analyse points, each declared once;
# a subcommand lists the ones it takes.
_POINT_OPTIONS = {
    "--x": dict(required=True, help="rational point p/q"),
    "--y": dict(required=True, help="rational point p/q"),
    "--V": dict(dest="vertices", default="", help="comma-separated vertex set, e.g. 2,3"),
    "--depth": dict(type=_budget, default=DEFAULT_TREE_DEPTH),
    "--max-iter": dict(type=_budget, default=DEFAULT_MAX_ITER),
    "--horizon": dict(type=_budget, default=0,
                      help="forward steps before rooting a non-escaping window"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escapemaps",
        description="Exact toolkit for interval maps with escape gaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_command(name: str, help_text: str, handler, *options: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("map", help="map JSON file")
        for option in options:
            p.add_argument(option, **_POINT_OPTIONS[option])
        p.set_defaults(handler=handler)
        return p

    add_map_command("validate", "check the validity properties", _cmd_validate)
    p = add_map_command("matrices", "transition and escape matrices", _cmd_matrices)
    p.add_argument("--block", action="store_true", help="include the block form")
    p = add_map_command("graph", "export the transition graph", _cmd_graph)
    p.add_argument("--dot", required=True, metavar="FILE", help="DOT output file")
    add_map_command("point", "classify the forward orbit of a point", _cmd_point,
                    "--x", "--max-iter")
    p = add_map_command("tree", "backward orbit window of a point", _cmd_tree,
                        "--x", "--depth", "--max-iter", "--horizon")
    p.add_argument("--dot", action="store_true", help="DOT output (JSON by default)")
    p = add_map_command("rep", "realize the operators on a window", _cmd_rep,
                        "--x", "--V", "--depth", "--max-iter", "--horizon")
    p.add_argument("--check", action="store_true", help="run the relation checks")
    p = add_map_command("certify", "faithfulness certificate for a vertex set", _cmd_certify,
                        "--x", "--V", "--depth", "--max-iter")
    p.set_defaults(depth=DEFAULT_CERTIFY_DEPTH)
    add_map_command("equiv", "equivalence verdict for two points", _cmd_equiv,
                    "--x", "--y", "--depth", "--max-iter")

    p = sub.add_parser("synth", help="construct a map realizing given matrices")
    p.add_argument("--A", dest="transition", required=True,
                   help="transition matrix JSON file")
    p.add_argument("--B", dest="escape", required=True,
                   help="escape block JSON file")
    p.add_argument("--mode", choices=["strict", "partial"], default=None)
    p.add_argument("-o", "--output", required=True, help="map JSON output file")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # meet a closed pipe here rather than at exit
        return code
    except BrokenPipeError:
        # The reader left early (`escapemaps ... | head -1`).  Point stdout at
        # devnull so the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RationalParseError, MapFormatError, MapStructureError, DepthExceedsTreeError) as exc:
        _fail(str(exc))
        return 2
    except EscapeMapsError as exc:
        _fail(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
