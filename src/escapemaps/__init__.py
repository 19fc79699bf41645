"""Exact toolkit for piecewise-affine interval maps with escape gaps.

Everything is computed in exact rational arithmetic: validity checks,
transition/escape matrices and their block form, forward orbit
classification, backward orbit windows, the partial-isometry operators those
windows carry with their relation checks and faithfulness certificates,
equivalence classification of windows, and synthesis of maps realizing
prescribed matrices.

``import escapemaps`` loads none of these layers.  The first use of any
name in ``__all__`` imports every layer module and binds all of the names
here at once (PEP 562), so later lookups are plain attribute reads.  A
command-line process therefore imports only the layers its subcommand
calls (see ``escapemaps.commands``).
"""

__version__ = "0.1.0"

# Layer module -> the names the package exports from it.
_EXPORTS = {
    "corpus": (
        "CORPUS_NAMES", "FOUR_INTERVAL_MARKOV", "corpus_path",
        "four_interval_document", "four_interval_map",
        "four_interval_reaching_document", "four_interval_reaching_map",
        "full_two_interval_document", "full_two_interval_map", "load_document",
    ),
    "equivalence": (
        "ComparisonResult", "Distinct", "Equivalent", "EscapeVsRegular",
        "Intertwiner", "NoLabelRespectingIso", "bisim_equivalent",
        "classify_corpus", "compare_points",
    ),
    "errors": (
        "DepthExceedsTreeError", "EscapeMapsError", "InconsistentInputsError",
        "InfeasibleSpecError", "MapFormatError", "MapStructureError",
        "NotAdmissibleError", "NotAnEscapePointError", "NotInDomainError",
        "OrbitMeetsBoundaryError", "OutsideAmbientError", "RationalParseError",
        "WidthSnapError", "WindowTooShallowError",
    ),
    "maps": (
        "ESCAPE_INTERIOR", "MARKOV_INTERIOR", "OUTSIDE", "PARTITION_POINT",
        "AffineBranch", "ExpectedEscapeMatrix", "MapDocument", "MarkovMap",
        "ValidationReport", "map_document_from_jsonable",
        "map_document_to_jsonable", "merge_closed_intervals",
    ),
    "operators": (
        "Certificate", "RelationReport", "Representation", "admissible",
        "check_relations", "faithfulness_certificate", "gap_projection",
        "image_decomposition_check", "projection_sum_is_identity",
        "quotient_nonfaithfulness_demo", "realize",
    ),
    "orbits": (
        "BoundaryOrbit", "Escaped", "Itinerary", "OrbitTree",
        "UndeterminedRegular", "build_orbit_tree", "classify_point",
        "escape_incidence", "incidence_cells",
        "itinerary", "point_class_to_jsonable", "tree_to_dot",
        "tree_to_jsonable",
    ),
    "rationals": (
        "format_rational", "jsonable", "parse_rational",
    ),
    "synthesis": (
        "PARTIAL", "STRICT", "FeasibilityReport", "SynthesisResult",
        "SynthesisSpec", "WidthAllocation", "feasibility_check",
        "perron_widths", "spec_from_jsonable", "synthesize",
    ),
    "transitions": (
        "TransitionData", "as_binary_matrix", "build_graph", "dot_export",
        "expected_matrix_notes", "is_primitive", "markov_matrix",
        "transition_data", "wielandt_bound",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def _load() -> None:
    """Import every layer module and bind all exported names in the package
    namespace at once, so that ``__getattr__`` loads at most once."""
    namespace = globals()
    for module, names in _EXPORTS.items():
        # The import statement's machinery, unlike importlib.import_module,
        # shows these imports in ``python -X importtime``.
        layer = __import__(f"{__name__}.{module}", fromlist=names)
        for name in names:
            namespace[name] = getattr(layer, name)


def __getattr__(name: str):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
