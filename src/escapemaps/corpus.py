"""Bundled example maps.

Three maps ship as package data:

  * ``four_interval`` — four intervals on [0, 1] with one open gap
    ]1/4, 7/10[; its file carries a claimed escape matrix whose (4, 2^)
    entry disagrees with exact recomputation (the last branch's image
    [7/10, 9/10] never meets the gap), so loading it and comparing
    demonstrates the discrepancy reporting;
  * ``four_interval_reaching`` — the same map with a steeper last branch
    (3x - 21/10, image [3/5, 9/10]) that does reach the gap; it realizes the
    claimed matrix exactly, at the price of covering the gap only partially;
  * ``full_two_interval`` — the doubling map cut at 1/2: no gaps, all-ones
    transition matrix, every relation family collapses to the full
    symmetric case.
"""

from __future__ import annotations

import json
from pathlib import Path

from .maps import MapDocument, MarkovMap, map_document_from_jsonable
from .transitions import Matrix

CORPUS_NAMES = ("four_interval", "four_interval_reaching", "full_two_interval")
_MAPS_DIR = Path(__file__).parent / "maps"

FOUR_INTERVAL_MARKOV: Matrix = (
    (0, 1, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, 0),
    (0, 0, 1, 0),
)

def load_document(name: str) -> MapDocument:
    """Load a bundled map by corpus name."""
    return map_document_from_jsonable(json.loads(corpus_path(name).read_text()))


def four_interval_map() -> MarkovMap:
    return load_document("four_interval").map


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled map file (for handing to the CLI)."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus map {name!r}; choose from {CORPUS_NAMES}")
    return _MAPS_DIR / f"{name}.json"
