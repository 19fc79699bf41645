from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    STRICT,
    EscapeMapsError,
    Escaped,
    InconsistentInputsError,
    MapStructureError,
    NotAdmissibleError,
    NotAnEscapePointError,
    OrbitMeetsBoundaryError,
    SynthesisSpec,
    WindowTooShallowError,
    admissible,
    build_orbit_tree,
    check_relations,
    classify_point,
    faithfulness_certificate,
    four_interval_map,
    four_interval_reaching_map,
    full_two_interval_map,
    gap_projection,
    image_decomposition_check,
    incidence_cells,
    jsonable,
    markov_matrix,
    projection_sum_is_identity,
    realize,
    synthesize,
)

from escapemaps.operators import _indices, _mask

from conftest import periodic_point, pull_back, replaced, synthesized_spec
from oracles import (
    adjoint,
    bisect_image_decomposition_check,
    child_lists,
    compose,
    escape_point_with_incidence,
    partition_points,
    set_check_relations,
    set_faithfulness_certificate,
    set_gap_projection,
    set_image_decomposition_check,
    set_projection_sum_is_identity,
    set_realize,
)

F = Fraction


# -- the dict products that the relation verdicts are checked against ----


def test_compose_and_adjoint_oracles():
    s = {0: 2, 1: 3}
    t = {2: 0, 3: 3}
    assert compose(t, s) == {0: 0, 1: 3}
    assert compose(s, t) == {2: 2}
    assert adjoint(s) == {2: 0, 3: 1}
    assert compose(s, {}) == compose({}, s) == {}
    with pytest.raises(AssertionError):
        adjoint({0: 1, 2: 1})


def test_masks_round_trip_and_an_empty_list_builds_no_literal():
    assert _mask([0, 2, 5], 7) == 0b100101
    assert _indices(_mask([0, 2, 5], 7)) == [0, 2, 5]
    # Size 0 has no literal to read, so only a mask that skips it returns.
    assert _mask([], 0) == 0
    assert _mask([], 7) == 0 and _indices(0) == []


@st.composite
def partial_injections(draw, dim):
    size = draw(st.integers(0, dim))
    sources = draw(st.permutations(range(dim)))[:size]
    targets = draw(st.permutations(range(dim)))[:size]
    return dict(zip(sources, targets))


@settings(max_examples=100)
@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        partial_injections(d), partial_injections(d), partial_injections(d)
    )
))
def test_partial_injection_laws(maps):
    s, t, u = maps
    # Associativity, adjoint anti-homomorphism, and the projection identities
    # s s* s = s / s* s s* = s*.
    assert compose(compose(s, t), u) == compose(s, compose(t, u))
    assert adjoint(compose(s, t)) == compose(adjoint(t), adjoint(s))
    assert compose(compose(s, adjoint(s)), s) == s
    assert compose(compose(adjoint(s), s), adjoint(s)) == adjoint(s)
    # s*s and ss* are the projections onto the keys and the values of s.
    assert compose(adjoint(s), s) == {a: a for a in s}
    assert compose(s, adjoint(s)) == {b: b for b in s.values()}


# -- realized operators on a small escape window -------------------------


@pytest.fixture()
def half_rep(four_map):
    return realize(build_orbit_tree(four_map, F(1, 2), 3))


@pytest.fixture()
def half_rep4(four_map):
    # Depth 4 is the first depth whose window carries nodes of every
    # interval, which the certificate's nonvanishing checks need.
    return realize(build_orbit_tree(four_map, F(1, 2), 4))


def test_realize_refuses_a_parent_with_two_children_of_one_label(four_map, partial_map):
    # Node 2 (269/350, labelled 3) has the leaves 3 (branch 1) and 4 (branch
    # 4); giving leaf 3 its sibling's label leaves edge (4, 3) two targets and
    # one source.
    tree = build_orbit_tree(four_map, F(1, 2), 3)
    assert tree.parents[3:] == (2, 2) and tree.labels[2:] == (3, 1, 4)
    twins = replaced(tree, labels=tree.labels[:3] + (4, 4))
    with pytest.raises(InconsistentInputsError, match="node 2 has two children labelled 4"):
        realize(twins)
    # Labelled 2, the leaves belong to no edge, since A[2][3] = 0: the rule
    # speaks about parents and labels, not about edges.
    assert (2, 3) not in realize(tree).edge_masks
    twins = replaced(tree, labels=tree.labels[:3] + (2, 2))
    with pytest.raises(InconsistentInputsError, match="node 2 has two children labelled 2"):
        realize(twins)
    # The escape root's children belong to no edge either.
    x = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    tree = build_orbit_tree(partial_map, x, 1)
    assert tree.labels == (None, 1, 4) and tree.parents == (None, 0, 0)
    with pytest.raises(EscapeMapsError, match="node 0 has two children labelled 1"):
        realize(replaced(tree, labels=(None, 1, 1)))


def test_realized_operator_entries(half_rep):
    rep = half_rep
    assert rep.dim == 5 and rep.n == 4
    assert rep.interior_mask == _bits({0, 1, 2})
    # Basis: 0:1/2, 1:3/35, 2:269/350, 3:199/1225, 4:327/350, each node the
    # preimage of its parent under its label.  So the transfer of branch 1
    # takes 0 to 1 and 2 to 3, that of branch 3 takes 1 to 2, and that of
    # branch 2 is zero.
    assert rep.tree.parents == (None, 0, 1, 2, 2)
    assert rep.vertex_masks == (_bits({1, 3}), 0, _bits({2}), _bits({4}))
    assert rep.edges() == ((1, 2), (1, 3), (2, 4), (3, 1), (3, 2), (4, 3))
    # Each edge isometry as the masks of its sources and its targets.
    assert rep.edge_masks[3, 1] == (_bits({1}), _bits({2}))
    assert rep.edge_masks[1, 3] == (_bits({2}), _bits({3}))
    assert rep.edge_masks[4, 3] == (_bits({2}), _bits({4}))
    assert rep.edge_masks[1, 2] == (0, 0)
    assert (1, 1) not in rep.edge_masks
    assert rep.image_masks[0] == _bits({0, 2})
    assert rep.image_masks[2] == _bits({1, 3})
    assert rep.incidence == (1, 0, 0, 0)


def test_operator_accessors_check_the_vertex(half_rep):
    # Index 0 must not wrap around to vertex 4, nor 5 end in an IndexError.
    for i in (0, 5, -1):
        with pytest.raises(MapStructureError, match=rf"^vertex {i} out of range 1\.\.4$"):
            gap_projection(half_rep, i)


def test_relations_pass_on_escape_window(half_rep):
    report = check_relations(half_rep, [2, 3, 4])
    assert report.all_passed
    kinds = {(c.kind, c.edge, c.vertex) for c in report.checks}
    assert ("edge-isometry", (3, 1), None) in kinds
    assert ("edge-range", (3, 1), None) in kinds
    assert ("vertex-sum", None, 3) in kinds


def test_vertex_sum_fails_at_the_escape_vertex(half_rep):
    report = check_relations(half_rep, [1])
    failing = [c for c in report.checks if not c.passed]
    assert len(failing) == 1
    check = failing[0]
    assert (check.kind, check.vertex) == ("vertex-sum", 1)
    assert check.witnesses == ("3/35",)
    assert not report.all_passed


def test_gap_projection_supports(half_rep):
    assert gap_projection(half_rep, 1) == frozenset({1})
    for i in (2, 3, 4):
        assert not gap_projection(half_rep, i)
    with pytest.raises(MapStructureError):
        gap_projection(half_rep, 5)


def test_relation_report_is_truncation_stable(four_map):
    reports = []
    for depth in (2, 3, 4, 5):
        rep = realize(build_orbit_tree(four_map, F(1, 2), depth))
        reports.append(jsonable(check_relations(rep, [2, 3, 4])))
    assert all(r == reports[0] for r in reports[1:])


def test_projection_sum_identity(four_map):
    escape_rep = realize(build_orbit_tree(four_map, F(1, 2), 3))
    assert not projection_sum_is_identity(escape_rep)  # root is in no interval
    regular_rep = realize(build_orbit_tree(four_map, F(5, 27), 4, horizon=4))
    assert projection_sum_is_identity(regular_rep)


def test_image_decomposition_check(four_map):
    rep = realize(build_orbit_tree(four_map, F(1, 2), 4))
    report = image_decomposition_check(rep)
    assert report.passed and report.failures == ()


def test_image_decomposition_check_catches_a_wrong_projection(four_map):
    # realize reads image projections off the labels; the check must notice
    # when one of them disagrees with the closed images.
    rep = realize(build_orbit_tree(four_map, F(1, 2), 4))
    wrong = list(rep.image_masks)
    wrong[2] = rep.vertex_masks[2]
    broken = replaced(rep, image_masks=tuple(wrong))
    report = image_decomposition_check(broken)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("image projection 3 mismatch at: ")
    assert report.failures == ("image projection 3 mismatch at: 3/35, 199/1225, 269/350",)


@pytest.mark.parametrize("node", ["interior", "leaf"])
def test_image_decomposition_check_names_a_corrupted_window_point(four_map, node):
    # Each window edge y <- z labelled i is checked once: z must be the exact
    # preimage f_i^{-1}(y).  Nudge one cached point, keeping it inside the
    # same interval and the same closed images, and the edge into it fails.
    tree = build_orbit_tree(four_map, F(1, 2), 4)
    rep = realize(tree)
    assert image_decomposition_check(rep).passed
    idx = 1 if node == "interior" else tree.node_count - 1
    assert bool(rep.interior_mask >> idx & 1) == (node == "interior")
    points = list(tree.points)
    points[idx] += F(1, 10**9)
    assert four_map.locate(points[idx]) == replaced(
        four_map.locate(tree.points[idx]), point=points[idx]
    )
    assert [lo <= points[idx] <= hi for lo, hi in four_map.images] == [
        lo <= tree.points[idx] <= hi for lo, hi in four_map.images
    ]
    report = image_decomposition_check(_with_points(rep, points))
    assert not report.passed
    assert f"branch {tree.labels[idx]} round trip fails at {points[idx]}" in report.failures


def test_image_decomposition_check_round_trips_an_open_regular_root(four_map):
    # At depth 1 the period-2 cycle of the root 229/270 does not close, so no
    # window edge ends at the root and its round trip is checked on its own:
    # under a wrong label the root's image leaves that branch's image.
    tree = build_orbit_tree(four_map, F(5, 27), 1, horizon=1)
    assert tree.root_point == F(229, 270) and tree.parents[0] is None
    rep = realize(tree)
    assert image_decomposition_check(rep).passed
    relabelled = replaced(tree, labels=(1,) + tree.labels[1:])
    report = image_decomposition_check(replaced(rep, tree=relabelled))
    assert report.failures == ("branch 1 round trip fails at 229/270",)


def test_image_decomposition_check_needs_the_parent_in_the_branch_image(four_map):
    # Relabel the leaf 199/1225 (branch 1, parent in I_3) to branch 2 and let
    # its point follow: the leaf becomes the affine preimage 47/350 of its
    # parent under branch 2, so the forward identity holds, but I_3 is not
    # in the image of I_2 (A[2][3] = 0) and the edge fails.
    tree = build_orbit_tree(four_map, F(1, 2), 3)
    assert (tree.labels[3], tree.labels[tree.parents[3]]) == (1, 3)
    assert 3 not in tree.interior_indices()
    relabelled = replaced(tree, labels=tree.labels[:3] + (2,) + tree.labels[4:])
    leaf, parent = relabelled.points[3], relabelled.points[tree.parents[3]]
    assert four_map.branches[1].value_at(leaf) == parent and leaf == F(47, 350)
    rep = replaced(realize(tree), tree=relabelled)
    assert image_decomposition_check(rep).failures == ("branch 2 round trip fails at 47/350",)


# -- the window check against the bisection oracle -----------------------


def _drawn_window(data, maps, synthesized=True):
    """A window on one of ``maps`` or, when ``synthesized``, on a
    synthesized map (n = 5..8), rooted at a pulled-back escape cell midpoint
    or at a periodic point, or None when the draw gives no window."""
    names = sorted(maps) + ["synthesized"] * synthesized
    name = data.draw(st.sampled_from(names), label="map")
    if name == "synthesized":
        mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
        spec = synthesized_spec(data, mode)
        if spec is None:
            return None
        m = synthesize(spec).map
    else:
        m = maps[name]
    depth = data.draw(st.integers(1, 4), label="depth")
    cells = [cell for k, _, _ in m.gaps for cell in incidence_cells(m, k)]
    horizon = 0
    if cells and data.draw(st.booleans(), label="escape root"):
        lo, hi, _ = data.draw(st.sampled_from(cells), label="cell")
        x = pull_back(m, (lo + hi) / 2, data, data.draw(st.integers(0, 2), label="steps"))
    else:
        x = periodic_point(m, data)
        horizon = data.draw(st.integers(0, 2), label="horizon")
    if x is None:
        return None
    try:
        return build_orbit_tree(m, x, depth, horizon=horizon)
    except OrbitMeetsBoundaryError:
        return None


def _bits(indices):
    """The bit mask of a set of basis indices, one bit at a time."""
    return sum(1 << idx for idx in set(indices))


def _with_points(rep, points, labels=None):
    """A copy of the representation whose window has the given points (and
    labels), as a corrupted cache would: the check reads the pairs, the
    failure texts the points."""
    tree = replaced(rep.tree, labels=labels or rep.tree.labels)
    tree.__dict__["points"] = tuple(points)
    tree.__dict__["pairs"] = tuple(x.as_integer_ratio() for x in points)
    return replaced(rep, tree=tree)


def _round_trip(i, x):
    return f"branch {i} round trip fails at {x}"


@settings(max_examples=300)
@given(st.data())
def test_image_decomposition_check_matches_the_bisection_oracle(
    four_map, reaching_map, full2_map, reversing_map, data
):
    maps = {
        "four": four_map,
        "reaching": reaching_map,
        "full2": full2_map,
        "reversing": reversing_map,
    }
    _assert_check_matches_the_bisection_oracle(_drawn_window(data, maps), data)


@settings(max_examples=100)
@given(st.data())
def test_image_decomposition_check_matches_the_bisection_oracle_on_banded_maps(
    banded_maps, data
):
    # At n = 16 and 32 most labels are missing from each level, and points
    # reach tens of bits.
    _assert_check_matches_the_bisection_oracle(
        _drawn_window(data, banded_maps, synthesized=False), data
    )


def _assert_check_matches_the_bisection_oracle(tree, data):
    """Corrupt the window's representation in a drawn way and compare
    ``image_decomposition_check`` with the bisection oracle."""
    if tree is None:
        return
    m, rep = tree.map, realize(tree)
    points, labels = tree.points, tree.labels
    kind = data.draw(
        st.sampled_from(["none", "nudge-inside", "nudge-outside", "relabel", "projection"]),
        label="corruption",
    )
    node = data.draw(st.integers(0, tree.node_count - 1), label="node")
    # Round-trip failures the oracle misses: children of a node moved out of
    # the closed image of their branch (the oracle skips edges out of a
    # parent that is no member of that image), and a relabelled leaf.
    extra = set()
    broken = rep
    if kind.startswith("nudge"):
        loc = m.locate(points[node])
        lo, hi = m.intervals[loc.index - 1] if labels[node] else m.gap_bounds(loc.index)
        if kind == "nudge-inside":
            k = data.draw(st.integers(2, 10**6), label="nudge")
            x = points[node] + (hi - points[node]) / k
        else:
            cuts = partition_points(m)
            outside = [*cuts, cuts[0] - 1, cuts[-1] + 1]
            outside += [(a + b) / 2 for a, b in zip(cuts, cuts[1:]) if (a, b) != (lo, hi)]
            x = data.draw(st.sampled_from(outside), label="moved to")
        broken = _with_points(rep, points[:node] + (x,) + points[node + 1 :])
        for child in child_lists(tree)[node]:
            i = labels[child]
            image_lo, image_hi = m.images[i - 1]
            if not image_lo <= x <= image_hi:
                # A fixed point is its own child, and moves with its parent.
                extra.add(_round_trip(i, x if child == node else points[child]))
    elif kind == "relabel":
        label = data.draw(
            st.sampled_from([i for i in range(1, m.n + 1) if i != labels[node]]),
            label="label",
        )
        broken = _with_points(
            rep, points, labels[:node] + (label,) + labels[node + 1 :]
        )
        if tree.parents[node] is not None:
            extra.add(_round_trip(label, points[node]))
    elif kind == "projection":
        i = data.draw(st.integers(0, m.n - 1), label="image")
        nodes = data.draw(st.sets(st.integers(0, rep.dim - 1)), label="replacement")
        wrong = rep.image_masks[:i] + (_bits(nodes),) + rep.image_masks[i + 1 :]
        broken = replaced(rep, image_masks=wrong)

    old = bisect_image_decomposition_check(broken)
    new = image_decomposition_check(broken)
    event(f"{kind}, {'extra failures' if extra - set(old.failures) else 'same failures'}")

    def split(report):
        mismatches = [t for t in report.failures if t.startswith("image projection")]
        return mismatches, set(report.failures) - set(mismatches)

    (old_mismatches, old_trips), (new_mismatches, new_trips) = split(old), split(new)
    assert new_mismatches == old_mismatches
    assert new_trips == old_trips | extra
    if extra <= old_trips:
        assert new.failures == old.failures
    relabelled_leaf = kind == "relabel" and not rep.interior_mask >> node & 1
    if not relabelled_leaf:
        # An extra failure never decides the verdict: the moved parent is
        # also an image projection mismatch, and the oracle's direct round
        # trip catches an interior relabel.
        assert new.passed == old.passed
    # Every moved point and every relabel is caught.
    expect_pass = kind == "none" or (
        kind == "projection" and broken.image_masks[i] & rep.interior_mask
        == rep.image_masks[i] & rep.interior_mask
    )
    assert new.passed == expect_pass


def test_round_trip_failure_text_keeps_to_the_digit_limit(four_map):
    # The failure text formats the point through format_rational, so a point
    # past Python's limit for int strings gives the library's typed error.
    tree = build_orbit_tree(four_map, F(1, 2), 4)
    rep = realize(tree)
    points = list(tree.points)
    points[-1] += F(1, 10**5000)
    with pytest.raises(EscapeMapsError, match="Python's limit for int strings"):
        image_decomposition_check(_with_points(rep, points))


def test_round_trips_compare_values_not_stored_pairs(four_map):
    # Each edge z -> y is checked as (a*p + b*q)*t == d*q*s: parents stored
    # as unreduced pairs of the same value pass, and a nudged parent fails
    # its own round trip and those of its children.
    tree = build_orbit_tree(four_map, F(1, 2), 4)
    rep, kids = realize(tree), child_lists(tree)
    parent = next(idx for idx in range(1, tree.node_count) if len(kids[idx]) > 1)
    pairs = list(tree.pairs)
    for idx, k in ((0, 7), (parent, 3)):
        pairs[idx] = (k * pairs[idx][0], k * pairs[idx][1])
    unreduced = replaced(tree)
    unreduced.__dict__["pairs"] = tuple(pairs)
    assert image_decomposition_check(replaced(rep, tree=unreduced)) == (
        image_decomposition_check(rep)
    )
    assert image_decomposition_check(rep).passed

    points = list(tree.points)
    hi = four_map.intervals[tree.labels[parent] - 1][1]
    points[parent] += (hi - points[parent]) / 10**6
    report = image_decomposition_check(_with_points(rep, points))
    assert report.failures == tuple(
        _round_trip(tree.labels[idx], points[idx]) for idx in [parent, *kids[parent]]
    )


def test_edge_masks_keep_every_transition_edge_at_n_32(banded_maps):
    # The window holds nodes in a few of the 32 intervals; every other
    # column's edges keep their empty isometry.
    m = banded_maps["band32w2"]
    units = {
        (i, j)
        for i, row in enumerate(m.transition_matrix, start=1)
        for j, unit in enumerate(row, start=1)
        if unit
    }
    for lo, hi, _ in incidence_cells(m, m.gaps[0][0]):
        tree = build_orbit_tree(m, (lo + hi) / 2, 3)
        rep = realize(tree)
        assert rep.edge_masks.keys() == units
        empty = [edge for edge in units if not rep.vertex_masks[edge[1] - 1]]
        assert len(empty) > len(units) // 2
        assert all(rep.edge_masks[edge] == (0, 0) for edge in empty)
        _assert_masks_hold_the_sets(rep, set_realize(tree))
        assert image_decomposition_check(rep).passed
    # realize copies the map's template and leaves it as it was.
    assert m.transition_edges == dict.fromkeys(units, (0, 0))


def test_regular_window_relations(four_map):
    rep = realize(build_orbit_tree(four_map, F(5, 27), 5, horizon=4))
    assert rep.incidence is None
    report = check_relations(rep, [1, 2, 3, 4])
    assert report.all_passed
    assert image_decomposition_check(rep).passed


# -- the formula construction as an oracle for realize ------------------


def formula_operators(tree):
    """Reference transfers, edge isometries and image projections built from
    the formula: the preimage f_i^{-1}(y) by branch_inverse over the closed
    images, then a lookup of that point in the window; q_i over the nodes in
    the closed image of I_i."""
    m = tree.map
    point_index = {p: idx for idx, p in enumerate(tree.points)}
    interior = tree.interior_indices()

    def pull_back(i, nodes):
        return {idx: point_index[m.branch_inverse(i, tree.points[idx])] for idx in nodes}

    transfers = []
    for i in range(1, m.n + 1):
        lo, hi = m.interval_image(i)
        transfers.append(
            pull_back(i, [idx for idx in interior if lo <= tree.points[idx] <= hi])
        )
    markov = markov_matrix(m)
    edges = {
        (i, j): pull_back(i, [idx for idx in interior if tree.labels[idx] == j])
        for i in range(1, m.n + 1)
        for j in range(1, m.n + 1)
        if markov[i - 1][j - 1]
    }
    images = [
        frozenset(idx for idx, y in enumerate(tree.points) if lo <= y <= hi)
        for lo, hi in m.images
    ]
    return transfers, edges, images


def _band8_escape_window():
    # Synthesized n = 8 band |i - j| <= 1 with its straddle gap at position 4;
    # strict coverage makes the straddle column the gap points' incidence.
    n = 8
    markov = tuple(tuple(int(abs(i - j) <= 1) for j in range(n)) for i in range(n))
    column = tuple(row[3] & row[4] for row in markov)
    spec = SynthesisSpec(
        markov, tuple((u,) for u in column), gap_positions=(4,), mode=STRICT
    )
    m = synthesize(spec).map
    return build_orbit_tree(m, escape_point_with_incidence(m, column), 4)


ORACLE_WINDOWS = {
    "four-escape": lambda: build_orbit_tree(four_interval_map(), F(1, 2), 5),
    "reaching-escape": lambda: build_orbit_tree(
        four_interval_reaching_map(), F(13, 20), 5
    ),
    # The full two-interval map has no gap, so its window is a regular one;
    # 1/3 has period 2 and the cycle closes through the root.
    "full2-periodic-root": lambda: build_orbit_tree(
        full_two_interval_map(), F(1, 3), 4
    ),
    "four-regular-horizon": lambda: build_orbit_tree(
        four_interval_map(), F(5, 27), 5, horizon=4
    ),
    "band8-escape": _band8_escape_window,
}


def _with_interior_parent(rep):
    """The mask of the nodes whose parent is interior: the children that the
    transfers reach."""
    inner = rep.interior_mask
    return _bits(idx for idx, p in enumerate(rep.tree.parents) if p is not None and inner >> p & 1)


def _assert_parent_to_child(tree, isometry):
    """Each source of the dict isometry is the parent of its target, which
    is how the masks pair them."""
    assert all(tree.parents[child] == parent for parent, child in isometry.items())


def _assert_realize_matches_the_formula(tree):
    """The masks hold the formula's operators, and the transfers it lists;
    returns those transfers."""
    rep = realize(tree)
    transfers, edges, images = formula_operators(tree)
    assert rep.image_masks == tuple(map(_bits, images))
    # The transfer of branch i takes the interior part of q_i to the nodes
    # labelled i whose parent is interior.
    reached = _with_interior_parent(rep)
    for i, expected in enumerate(transfers, start=1):
        assert _bits(expected) == rep.image_masks[i - 1] & rep.interior_mask
        assert _bits(expected.values()) == rep.vertex_masks[i - 1] & reached
        _assert_parent_to_child(tree, expected)
    assert rep.edges() == tuple(sorted(edges))
    markov = markov_matrix(tree.map)
    assert rep.edges() == tuple(
        (i + 1, j + 1) for i, row in enumerate(markov) for j, unit in enumerate(row) if unit
    )
    for edge, expected in edges.items():
        assert rep.edge_masks[edge] == (_bits(expected), _bits(expected.values()))
        _assert_parent_to_child(tree, expected)
    return transfers


@pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
def test_realize_matches_the_formula_construction(name):
    tree = ORACLE_WINDOWS[name]()
    if not isinstance(tree.base_class, Escaped):
        assert tree.parents[0] is not None  # the root closes its cycle
    transfers = _assert_realize_matches_the_formula(tree)
    assert any(transfers)


@settings(max_examples=100)
@given(st.data())
def test_realize_matches_the_formula_on_synthesized_windows(data):
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    spec = synthesized_spec(data, mode)
    if spec is None:
        return
    m = synthesize(spec).map
    depth = data.draw(st.integers(1, 4), label="depth")
    ((gap, _, _),) = m.gaps
    roots = []
    for lo, hi, _ in incidence_cells(m, gap):
        e = (lo + hi) / 2
        steps = data.draw(st.integers(0, 2), label="steps")
        roots.append((pull_back(m, e, data, steps), 0))
    x = periodic_point(m, data)
    if x is not None:
        roots.append((x, data.draw(st.integers(0, 3), label="horizon")))
    for x, horizon in roots:
        try:
            tree = build_orbit_tree(m, x, depth + (horizon > 0), horizon=horizon)
        except OrbitMeetsBoundaryError:
            continue
        _assert_realize_matches_the_formula(tree)


def test_transfers_apply_each_parent_to_its_child():
    # The transfer of branch i takes each interior parent to its child
    # labelled i: the vertex masks split the children of interior parents by
    # label, and within one label no two children share a parent.
    tree = _band8_escape_window()
    rep = realize(tree)
    reached = _with_interior_parent(rep)
    interior_edges = 0
    for i, mask in enumerate(rep.vertex_masks, start=1):
        children = _indices(mask & reached)
        assert {tree.labels[child] for child in children} <= {i}
        assert len({tree.parents[child] for child in children}) == len(children)  # injective
        interior_edges += len(children)
    assert interior_edges == reached.bit_count() == sum(
        p is not None and p < len(tree.interior_indices()) for p in tree.parents[1:]
    ) > 0


# -- relation verdicts against literal operator products -----------------


def _diagonal(mask):
    """The projection onto the basis indices of ``mask``, as a dict."""
    return {idx: idx for idx in _indices(mask)}


def _product_verdicts(rep, isometries):
    """The relation verdicts of ``check_relations(rep, 1..n)`` decided from
    dict products of the given edge isometries: s*s = p_j on the interior,
    p_i ss* = ss*, and p_v equal to the sum of ss* over edges leaving v on
    the checkable domain."""
    interior, domain = _diagonal(rep.interior_mask), _diagonal(rep.domain_mask)
    verdicts = []
    sums = {v: {} for v in range(1, rep.n + 1)}
    for i, j in rep.edges():
        s = isometries[(i, j)]
        p_i = _diagonal(rep.vertex_masks[i - 1])
        p_j = _diagonal(rep.vertex_masks[j - 1])
        ss_star = compose(s, adjoint(s))
        isometry = compose(adjoint(s), s) == compose(interior, p_j)
        verdicts.append(("edge-isometry", (i, j), None, isometry))
        verdicts.append(("edge-range", (i, j), None, compose(p_i, ss_star) == ss_star))
        assert not sums[i].keys() & ss_star.keys()
        sums[i].update(ss_star)
    for v in range(1, rep.n + 1):
        p_v = _diagonal(rep.vertex_masks[v - 1])
        vertex_sum = compose(domain, p_v) == compose(domain, sums[v])
        verdicts.append(("vertex-sum", None, v, vertex_sum))
    return verdicts


def _corrupted(rep, isometries):
    """A copy whose masks have one edge isometry missing an entry and
    another sending a node outside the range of its vertex projection, with
    the given edge isometries, corrupted alike, as dicts (a dict read off
    the masks would key the moved target by its own parent)."""
    edges = {edge: dict(s) for edge, s in isometries.items()}
    masks = dict(rep.edge_masks)
    nonempty = [edge for edge in rep.edges() if edges[edge]]
    first, last = edges[nonempty[0]], edges[nonempty[-1]]
    source = min(first)
    sources, targets = masks[nonempty[0]]
    masks[nonempty[0]] = (sources & ~(1 << source), targets & ~(1 << first.pop(source)))
    i = nonempty[-1][0]
    source = min(last)
    moved = next(
        idx for idx in range(rep.dim)
        if not rep.vertex_masks[i - 1] >> idx & 1 and idx not in last.values()
    )
    sources, targets = masks[nonempty[-1]]
    masks[nonempty[-1]] = (sources, targets & ~(1 << last[source]) | 1 << moved)
    last[source] = moved
    return replaced(rep, edge_masks=masks), edges


@pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
def test_relation_verdicts_match_literal_products(name):
    tree = ORACLE_WINDOWS[name]()
    rep, dicts = realize(tree), set_realize(tree).edge_isometries
    for candidate, isometries in ((rep, dicts), _corrupted(rep, dicts)):
        report = check_relations(candidate, range(1, candidate.n + 1))
        got = [(c.kind, c.edge, c.vertex, c.passed) for c in report.checks]
        assert got == _product_verdicts(candidate, isometries)
    # The corrupted copy fails both kinds of edge verdict.
    failed = {c.kind for c in report.checks if not c.passed}
    assert failed >= {"edge-isometry", "edge-range"}


# -- the bit masks against the set operators -----------------------------


def _outcome(f, *args):
    """The value of f(*args), or the type and text of the library error it
    raises."""
    try:
        return f(*args)
    except EscapeMapsError as exc:
        return type(exc), str(exc)


def _assert_masks_match_the_sets(rep, old, vertices):
    """Every verdict of the mask representation ``rep`` agrees with the set
    representation ``old`` of the same window: the relation checks with
    their witnesses and JSON form, the image decomposition texts, the
    projection sum, the edge ranges, the gap projections and the
    certificate for ``vertices``."""
    report = check_relations(rep, vertices)
    expected = set_check_relations(old, vertices)
    assert report.all_passed == all(check.passed for check in expected)
    assert report.checks == expected
    assert jsonable(report) == {"checks": jsonable(expected), "all_passed": report.all_passed}
    assert image_decomposition_check(rep) == set_image_decomposition_check(old)
    assert projection_sum_is_identity(rep) == set_projection_sum_is_identity(old)
    assert rep.range_masks == tuple(map(_bits, old.edge_ranges))
    for i in range(1, rep.n + 1):
        assert gap_projection(rep, i) == set_gap_projection(old, i)
    assert _outcome(faithfulness_certificate, rep, vertices) == _outcome(
        set_faithfulness_certificate, old, vertices
    )


def _assert_masks_hold_the_sets(rep, old):
    """Every mask of ``rep`` holds the matching set operator of ``old``."""
    assert rep.vertex_masks == tuple(map(_bits, old.vertex_projections))
    assert rep.image_masks == tuple(map(_bits, old.image_projections))
    assert rep.edge_masks == {
        edge: (_bits(s), _bits(s.values())) for edge, s in old.edge_isometries.items()
    }
    assert (rep.interior_mask, rep.domain_mask) == (_bits(old.interior), _bits(old.check_domain))
    assert rep.range_masks == tuple(map(_bits, old.edge_ranges))
    assert rep.edges() == old.edges()


@settings(max_examples=200)
@given(st.data())
def test_masks_match_the_set_operators(
    four_map, reaching_map, full2_map, reversing_map, data
):
    maps = {
        "four": four_map,
        "reaching": reaching_map,
        "full2": full2_map,
        "reversing": reversing_map,
    }
    tree = _drawn_window(data, maps)
    if tree is None:
        return
    rep, old = realize(tree), set_realize(tree)
    _assert_masks_hold_the_sets(rep, old)
    kind = data.draw(
        st.sampled_from(["none", "drop-entry", "move-target", "flip-image-bit", "relabel-leaf"]),
        label="corruption",
    )
    nonempty = [edge for edge in rep.edges() if old.edge_isometries[edge]]
    leaves = [
        idx for idx in range(rep.dim) if not rep.interior_mask >> idx & 1 and tree.labels[idx]
    ]
    if kind in ("drop-entry", "move-target") and nonempty:
        edge = data.draw(st.sampled_from(nonempty), label="edge")
        s = dict(old.edge_isometries[edge])
        source = data.draw(st.sampled_from(sorted(s)), label="source")
        sources, targets = rep.edge_masks[edge]
        if kind == "drop-entry":
            sources &= ~(1 << source)
            targets &= ~(1 << s.pop(source))
        else:
            outside = [
                idx for idx in range(rep.dim)
                if idx not in old.vertex_projection(edge[0]) and idx not in s.values()
            ]
            moved = data.draw(st.sampled_from(outside), label="moved to")
            targets = targets & ~(1 << s[source]) | 1 << moved
            s[source] = moved
        rep = replaced(rep, edge_masks={**rep.edge_masks, edge: (sources, targets)})
        old = replaced(old, edge_isometries={**old.edge_isometries, edge: s})
    elif kind == "flip-image-bit":
        i = data.draw(st.integers(0, rep.n - 1), label="image")
        bit = data.draw(st.integers(0, rep.dim - 1), label="bit")
        images = list(rep.image_masks)
        images[i] ^= 1 << bit
        rep = replaced(rep, image_masks=tuple(images))
        sets = list(old.image_projections)
        sets[i] ^= {bit}
        old = replaced(old, image_projections=tuple(sets))
    elif kind == "relabel-leaf" and leaves:
        # A parent has at most one child per label, which makes each edge
        # an isometry; the dicts cannot hold two children of one label.
        leaf = data.draw(st.sampled_from(leaves), label="leaf")
        siblings = {tree.labels[idx] for idx in child_lists(tree)[tree.parents[leaf]]}
        free = [i for i in range(1, rep.n + 1) if i not in siblings]
        label = data.draw(st.sampled_from(free or [tree.labels[leaf]]), label="label")
        labels = tree.labels[:leaf] + (label,) + tree.labels[leaf + 1 :]
        relabelled = _with_points(rep, tree.points, labels).tree
        rep, old = realize(relabelled), set_realize(relabelled)
        _assert_masks_hold_the_sets(rep, old)
    vertices = data.draw(st.sets(st.integers(1, rep.n)), label="vertices")
    event(f"{kind}, {'escape' if rep.incidence is not None else 'regular'} window")
    _assert_masks_match_the_sets(rep, old, vertices)


def test_masks_span_many_words_on_a_deep_window(four_map):
    # 7,527 nodes: each vertex mask spans over 90 64-bit words, and every
    # label has a run of nodes that crosses a byte boundary.
    tree = build_orbit_tree(four_map, F(1, 2), 22)
    assert tree.node_count == 7527
    labels = tree.labels
    for i in range(1, 5):
        assert any(labels[idx - 1] == labels[idx] == i for idx in range(8, tree.node_count, 8))
    rep, old = realize(tree), set_realize(tree)
    assert min(mask.bit_length() for mask in rep.vertex_masks) > 90 * 64
    _assert_masks_hold_the_sets(rep, old)
    for i in range(1, 5):
        assert gap_projection(rep, i) == set_gap_projection(old, i)
    for vertices in ((2, 3), (2, 3, 4), (1, 2, 3, 4)):
        _assert_masks_match_the_sets(rep, old, vertices)


# -- admissibility and certificates --------------------------------------


def test_admissible(four_map):
    pc = classify_point(four_map, F(1, 2))
    assert admissible(pc, [2, 3, 4])
    assert admissible(pc, [])
    assert not admissible(pc, [1, 2])
    with pytest.raises(NotAnEscapePointError):
        admissible(classify_point(four_map, F(5, 27)), [1])
    with pytest.raises(MapStructureError):
        admissible(pc, [0])


def test_certificate_on_the_fully_admissible_set(half_rep4):
    cert = faithfulness_certificate(half_rep4, [2, 3, 4])
    assert cert.vertices == (2, 3, 4)
    assert cert.incidence == (1, 0, 0, 0)
    assert cert.faithful and cert.complement_misses == ()
    assert cert.all_verified
    data = jsonable(cert)
    assert data["admissible"] is True and data["faithful"] is True


def test_certificate_flags_missed_complement(half_rep4):
    cert = faithfulness_certificate(half_rep4, [2, 3])
    assert not cert.faithful
    assert cert.complement_misses == (4,)
    # The gap defect at vertex 4 vanishes, so one nonvanishing check fails.
    assert not cert.all_verified
    failed = [c for c in cert.nonvanishing if not c.ok]
    assert {(c.kind, c.vertex) for c in failed} == {("gap-projection", 4)}


def test_certificate_requires_admissibility_and_depth(four_map, half_rep):
    with pytest.raises(NotAdmissibleError) as err:
        faithfulness_certificate(half_rep, [1, 2])
    assert "incidence is 1 at [1]" in str(err.value)
    shallow = realize(build_orbit_tree(four_map, F(1, 2), 1))
    with pytest.raises(WindowTooShallowError):
        faithfulness_certificate(shallow, [2, 3, 4])
    regular = realize(build_orbit_tree(four_map, F(5, 27), 3, horizon=2))
    with pytest.raises(NotAnEscapePointError):
        faithfulness_certificate(regular, [2, 3])


def test_certificates_on_the_synthesized_partial_map(partial_map):

    e = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    rep = realize(build_orbit_tree(partial_map, e, 4))
    both = faithfulness_certificate(rep, [2, 3])
    assert both.faithful and both.all_verified
    only2 = faithfulness_certificate(rep, [2])
    assert not only2.faithful and only2.complement_misses == (3,)
    only3 = faithfulness_certificate(rep, [3])
    assert not only3.faithful and only3.complement_misses == (2,)
