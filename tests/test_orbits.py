from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    PARTIAL,
    STRICT,
    AffineBranch,
    BoundaryOrbit,
    DepthExceedsTreeError,
    EscapeMapsError,
    Escaped,
    MapStructureError,
    MarkovMap,
    OrbitMeetsBoundaryError,
    OutsideAmbientError,
    UndeterminedRegular,
    build_orbit_tree,
    classify_point,
    incidence_cells,
    itinerary,
    point_class_to_jsonable,
    synthesize,
    transition_data,
    tree_to_dot,
    tree_to_jsonable,
)
from escapemaps.maps import IntegerGrid
from escapemaps.orbits import DEFAULT_MAX_ITER, window_node_count

from conftest import periodic_point, pull_back, synthesized_spec
from oracles import (
    child_lists,
    children_by_label,
    escape_point_with_incidence,
    partition_points,
)

F = Fraction


# -- forward classification ----------------------------------------------


def test_immediate_escape(four_map):
    pc = classify_point(four_map, F(1, 2))
    assert pc == Escaped(0, F(1, 2), 2, (1, 0, 0, 0))


def test_one_step_escape(four_map):
    pc = classify_point(four_map, F(1, 10))
    assert pc == Escaped(1, F(11, 20), 2, (1, 0, 0, 0))


def test_escape_through_the_reaching_branch(reaching_map):
    pc = classify_point(reaching_map, F(13, 20))
    assert pc == Escaped(0, F(13, 20), 2, (1, 0, 0, 1))


def test_periodic_point_is_undetermined_regular(four_map):
    pc = classify_point(four_map, F(5, 27))
    assert pc == UndeterminedRegular(2, 2)
    assert classify_point(four_map, F(5, 27), max_iter=1) == UndeterminedRegular(
        1, None
    )


def test_boundary_orbits(four_map):
    assert classify_point(four_map, F(0)) == BoundaryOrbit(0, F(0))
    # 1/70 maps onto the partition point 1/4 in one step.
    assert classify_point(four_map, F(1, 70)) == BoundaryOrbit(1, F(1, 4))


def test_classification_locates_each_orbit_point_once(four_map, monkeypatch):
    # Each orbit point is placed by one grid lookup on its reduced integer
    # pair; the escape point's incidence needs no second lookup.
    located = []
    cell = IntegerGrid.cell
    monkeypatch.setattr(
        IntegerGrid, "cell", lambda g, p, q: located.append((p, q)) or cell(g, p, q)
    )
    assert classify_point(four_map, F(1, 10)) == Escaped(1, F(11, 20), 2, (1, 0, 0, 0))
    assert located == [(1, 10), (11, 20)]


def test_classify_outside_raises(four_map):
    with pytest.raises(OutsideAmbientError):
        classify_point(four_map, F(2))


# -- incidence -----------------------------------------------------------


def test_escape_incidence(four_map, reaching_map):
    assert classify_point(four_map, F(1, 2)).incidence == (1, 0, 0, 0)
    assert classify_point(reaching_map, F(13, 20)).incidence == (1, 0, 0, 1)
    assert classify_point(reaching_map, F(1, 2)).incidence == (1, 0, 0, 0)


def test_incidence_cells(four_map, reaching_map):
    assert incidence_cells(four_map, 2) == ((F(1, 4), F(7, 10), (1, 0, 0, 0)),)
    assert incidence_cells(reaching_map, 2) == (
        (F(1, 4), F(3, 5), (1, 0, 0, 0)),
        (F(3, 5), F(7, 10), (1, 0, 0, 1)),
    )
    with pytest.raises(MapStructureError):
        incidence_cells(four_map, 1)


@settings(max_examples=60)
@given(st.data())
def test_gap_incidence_matches_the_full_image_scan(
    four_map, reaching_map, reversing_map, data
):
    # The grid answers closed-image incidence with one bisection of a table
    # cut at the image endpoints; the scan compares the point with every
    # closed image.  classify_point reads the table at gap points; the window
    # check reads it at Markov-interior points, partition points, image
    # endpoints and, in a corrupted window, points outside the ambient
    # interval.
    maps = [four_map, reaching_map, reversing_map]
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    if (spec := synthesized_spec(data, mode)) is not None:
        maps.append(synthesize(spec).map)
    fractions = st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=6)

    def scan(m, x):
        return tuple(int(lo <= x <= hi) for lo, hi in m.images)

    for m in maps:
        (lo, hi), ends = m.ambient, sorted({end for image in m.images for end in image})
        eps = (hi - lo) / 10**9
        points = [
            *partition_points(m),
            *(end + sign * eps for end in ends for sign in (-1, 0, 1)),
            *((a + b) / 2 for a, b in m.intervals),
            lo - 1, lo - eps, hi + eps, hi + 1,
            *(lo - 1 + (hi - lo + 2) * t for t in data.draw(fractions, label="anywhere")),
        ]
        for x in points:
            mask = m.grid.incidence(*x.as_integer_ratio())
            assert tuple(mask >> i & 1 for i in range(m.n)) == scan(m, x), x
        for k, glo, ghi in m.gaps:
            cuts = [end for end in ends if glo < end < ghi]
            points = [
                *cuts,
                *((lo + hi) / 2 for lo, hi, _ in incidence_cells(m, k)),
                glo + (ghi - glo) / 10**9,
                ghi - (ghi - glo) / 10**9,
                *(glo + (ghi - glo) * t for t in data.draw(fractions, label="gap") if 0 < t < 1),
            ]
            for e in points:
                assert classify_point(m, e).incidence == scan(m, e)


def test_escape_point_with_incidence(four_map, reaching_map):
    assert escape_point_with_incidence(four_map, (1, 0, 0, 0)) == F(19, 40)
    assert escape_point_with_incidence(reaching_map, (1, 0, 0, 1)) == F(13, 20)
    assert escape_point_with_incidence(four_map, (1, 0, 0, 1)) is None


# -- backward windows ----------------------------------------------------


def test_escape_window_shape(four_map):
    tree = build_orbit_tree(four_map, F(1, 2), 3)
    assert tree.points == (
        F(1, 2),
        F(3, 35),
        F(269, 350),
        F(199, 1225),
        F(327, 350),
    )
    assert tree.depths == (0, 1, 2, 3, 3)
    assert tree.parents == (None, 0, 1, 2, 2)
    assert tree.labels == (None, 1, 3, 1, 4)
    assert isinstance(tree.base_class, Escaped)
    assert tree.node_count == 5
    assert tree.interior_indices() == (0, 1, 2)
    assert child_lists(tree)[2] == [3, 4]
    assert children_by_label(tree)[2] == {1: 3, 4: 4}
    assert tree.points.index(F(269, 350)) == 2


def test_regular_window_with_horizon_closes_its_cycle(four_map):
    tree = build_orbit_tree(four_map, F(5, 27), 5, horizon=4)
    assert tree.root_point == F(5, 27)
    assert tree.points == (
        F(5, 27),
        F(229, 270),
        F(263, 270),
        F(32, 135),
        F(2, 189),
        F(1201, 1350),
        F(133, 675),
        F(1339, 1890),
        F(1343, 1350),
    )
    assert tree.depths == (0, 1, 2, 3, 4, 4, 5, 5, 5)
    assert tree.parents == (1, 0, 1, 2, 3, 3, 5, 4, 5)
    assert tree.labels == (1, 3, 4, 2, 1, 3, 1, 3, 4)
    assert not isinstance(tree.base_class, Escaped)
    # The forward cycle 5/27 <-> 229/270 appears as mutual parent pointers.
    assert tree.parents[0] == 1 and tree.parents[1] == 0


def test_horizon_moves_the_root_around_the_cycle(four_map):
    tree = build_orbit_tree(four_map, F(5, 27), 2, horizon=1)
    assert tree.root_point == F(229, 270)
    assert tree.base_point == F(5, 27)


def test_horizon_validation(four_map):
    with pytest.raises(DepthExceedsTreeError):
        build_orbit_tree(four_map, F(5, 27), 2, horizon=-1)
    with pytest.raises(DepthExceedsTreeError):
        build_orbit_tree(four_map, F(5, 27), 2, max_iter=1, horizon=3)
    with pytest.raises(DepthExceedsTreeError):
        build_orbit_tree(four_map, F(1, 2), -1)


def test_boundary_orbits_carry_no_window(four_map, reaching_map):
    with pytest.raises(OrbitMeetsBoundaryError):
        build_orbit_tree(four_map, F(0), 2)
    # On the reaching variant the escape point 3/5 has the partition point
    # 9/10 among its preimages.
    with pytest.raises(OrbitMeetsBoundaryError):
        build_orbit_tree(reaching_map, F(3, 5), 1)


def _window_oracle(m, root, depth):
    """Backward levels via branch-domain membership instead of image checks:
    first-seen depth per point."""
    seen = {root: 0}
    frontier = [root]
    for d in range(1, depth + 1):
        nxt = []
        for y in frontier:
            for b in m.branches:
                x = (y - b.intercept) / b.slope
                if b.left <= x <= b.right and x not in seen:
                    seen[x] = d
                    nxt.append(x)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "x, depth, horizon",
    [
        (F(1, 2), 4, 0),
        (F(9, 20), 4, 0),
        (F(1, 10), 3, 0),
        (F(5, 27), 5, 4),
        (F(5, 27), 4, 1),
    ],
)
def test_window_levels_match_domain_membership_oracle(four_map, x, depth, horizon):
    tree = build_orbit_tree(four_map, x, depth, horizon=horizon)
    got = dict(zip(tree.points, tree.depths))
    assert got == _window_oracle(four_map, tree.root_point, depth)


def test_window_edges_invert_the_map(four_map):
    tree = build_orbit_tree(four_map, F(9, 20), 5)
    for idx, parent in enumerate(tree.parents):
        if parent is None:
            continue
        label = tree.labels[idx]
        branch = four_map.branches[label - 1]
        assert branch.left <= tree.points[idx] <= branch.right
        assert branch.value_at(tree.points[idx]) == tree.points[parent]


# -- the geometric builder as an oracle for the symbolic one -------------


def _geometric_window(m, x, depth, max_iter=DEFAULT_MAX_ITER, horizon=0):
    """The window found point by point: each node is tested against all n
    closed branch images, inverted with branch_inverse, and every level is
    sorted by value.  A point seen again closes the root's cycle.  Returns
    (root, points, depths, parents, labels), or raises
    OrbitMeetsBoundaryError when the orbit or a preimage is a partition
    point."""
    pc = classify_point(m, x, max_iter)
    if isinstance(pc, BoundaryOrbit):
        raise OrbitMeetsBoundaryError(str(pc))
    if isinstance(pc, Escaped):
        root, root_label = pc.final_point, None
    else:
        root = x
        for _ in range(horizon):
            root = m.branches[m.locate(root).index - 1].value_at(root)
        root_label = m.locate(root).index
    boundary = set(partition_points(m))
    points, depths, parents, labels = [root], [0], [None], [root_label]
    index = {root: 0}
    frontier = [0]
    for level in range(1, depth + 1):
        found = []
        for parent in frontier:
            y = points[parent]
            for i, (lo, hi) in enumerate(m.images, start=1):
                if not lo <= y <= hi:
                    continue
                z = m.branch_inverse(i, y)
                if z in boundary:
                    raise OrbitMeetsBoundaryError(f"preimage {z} of {y}")
                if z in index:
                    assert index[z] == 0 and parents[0] is None
                    parents[0] = parent
                    continue
                found.append((z, parent, i))
        found.sort()
        frontier = []
        for z, parent, i in found:
            index[z] = len(points)
            frontier.append(len(points))
            points.append(z)
            depths.append(level)
            parents.append(parent)
            labels.append(i)
    return root, tuple(points), tuple(depths), tuple(parents), tuple(labels)


def _assert_matches_geometric_window(m, x, depth, max_iter=DEFAULT_MAX_ITER, horizon=0):
    """Compare build_orbit_tree with the oracle, the boundary verdict
    included; returns the window, or None when both refuse it."""
    try:
        expected = _geometric_window(m, x, depth, max_iter, horizon)
    except OrbitMeetsBoundaryError:
        with pytest.raises(OrbitMeetsBoundaryError):
            build_orbit_tree(m, x, depth, max_iter, horizon)
        return None
    tree = build_orbit_tree(m, x, depth, max_iter, horizon)
    got = (tree.root_point, tree.points, tree.depths, tree.parents, tree.labels)
    assert got == expected
    return tree


def test_reversing_map_is_valid_and_reverses_its_second_level(reversing_map):
    m = reversing_map
    assert m.validate().all_ok
    tree = build_orbit_tree(m, F(1, 2), 2)
    # Branch 2 turns the order of its parents 1/6 < 5/6 around.
    assert tree.points == (F(1, 2), F(1, 6), F(5, 6), F(1, 18), F(5, 18), F(13, 18), F(17, 18))
    assert tree.labels == (None, 1, 2, 1, 1, 2, 2)
    assert tree.parents == (None, 0, 0, 1, 2, 2, 1)


@pytest.mark.parametrize(
    "which, x",
    [
        ("four", F(1, 2)),
        ("four", F(9, 20)),
        ("four", F(1, 10)),
        ("four", F(1, 3)),
        ("reaching", F(13, 20)),
        ("reaching", F(1, 2)),
        ("reaching", F(31, 50)),
        ("reaching", F(3, 5)),
        ("reversing", F(1, 2)),
        ("reversing", F(1, 6)),
        ("reversing", F(17, 18)),
    ],
)
def test_escape_windows_match_the_geometric_builder(
    which, x, four_map, reaching_map, reversing_map
):
    m = {"four": four_map, "reaching": reaching_map, "reversing": reversing_map}[which]
    assert isinstance(classify_point(m, x), Escaped)
    for depth in range(5):
        _assert_matches_geometric_window(m, x, depth)


@pytest.mark.parametrize(
    "which, x",
    [
        ("four", F(5, 27)),  # period 2
        ("four", F(2, 189)),  # reaches the cycle of 5/27 after three steps
        ("full2", F(1, 3)),  # period 2
        ("full2", F(1, 5)),  # period 4
        ("full2", F(1, 6)),  # lands on the fixed point 2/3 after two steps
        ("reversing", F(3, 4)),  # fixed point of the reversing branch
        ("reversing", F(3, 10)),  # period 2, through both branches
        ("reversing", F(1, 10)),  # reaches the cycle of 3/10 after one step
    ],
)
def test_regular_windows_match_the_geometric_builder(
    which, x, four_map, full2_map, reversing_map
):
    m = {"four": four_map, "full2": full2_map, "reversing": reversing_map}[which]
    pc = classify_point(m, x)
    assert isinstance(pc, UndeterminedRegular) and pc.period is not None
    closed = 0
    for horizon in range(5):
        for depth in range(pc.period + 3):
            tree = _assert_matches_geometric_window(m, x, depth, horizon=horizon)
            closed += tree.parents[0] is not None
    # Some of these windows close the root's cycle and some do not.
    assert 0 < closed < 5 * (pc.period + 3)


def test_a_cycle_beyond_the_iteration_budget_still_closes(four_map):
    # With max_iter = 1 no cycle is detected, yet the root 229/270 has period
    # 2 and the window of depth 3 reaches it again.
    assert classify_point(four_map, F(5, 27), max_iter=1) == UndeterminedRegular(1, None)
    tree = _assert_matches_geometric_window(four_map, F(5, 27), 3, max_iter=1, horizon=1)
    assert tree.parents[0] is not None


@settings(max_examples=60)
@given(st.data())
def test_synthesized_windows_match_the_geometric_builder(data):
    mode = data.draw(st.sampled_from([STRICT, PARTIAL]), label="mode")
    spec = synthesized_spec(data, mode)
    if spec is None:
        return
    m = synthesize(spec).map
    depth = data.draw(st.integers(0, 3), label="depth")
    ((gap, glo, _),) = m.gaps
    for lo, hi, incidence in incidence_cells(m, gap):
        # A cut inside the gap is an image endpoint: its preimage under that
        # branch is a partition point.
        for e in [(lo + hi) / 2] + [lo] * (lo != glo):
            x = pull_back(m, e, data, data.draw(st.integers(0, 3), label="steps"))
            _assert_matches_geometric_window(m, x, depth)
        # Window sizes follow from A and the row of the cell interior.
        e = (lo + hi) / 2
        for d in range(7):
            size = build_orbit_tree(m, e, d).node_count
            assert window_node_count(m, incidence, d) == size
    x = periodic_point(m, data)
    if x is not None:
        x = pull_back(m, x, data, data.draw(st.integers(0, 2), label="steps"))
        horizon = data.draw(st.integers(0, 4), label="horizon")
        _assert_matches_geometric_window(m, x, depth + 2, horizon=horizon)


@settings(max_examples=60)
@given(st.data())
def test_banded_windows_match_the_geometric_builder(banded_maps, data):
    # No level holds every label, so a level's order comes from the labels
    # it reaches alone.
    m = banded_maps[data.draw(st.sampled_from(sorted(banded_maps)), label="map")]
    depth = data.draw(st.integers(1, 4), label="depth")
    cells = [cell for k, _, _ in m.gaps for cell in incidence_cells(m, k)]
    lo, hi, _ = data.draw(st.sampled_from(cells), label="cell")
    x = pull_back(m, (lo + hi) / 2, data, data.draw(st.integers(0, 3), label="steps"))
    tree = _assert_matches_geometric_window(m, x, depth)
    deepest = {label for d, label in zip(tree.depths, tree.labels) if d == depth}
    assert 0 < len(deepest) < m.n
    x = periodic_point(m, data)
    if x is not None:
        horizon = data.draw(st.integers(0, 3), label="horizon")
        _assert_matches_geometric_window(m, x, min(depth, 3), horizon=horizon)


def test_windows_need_a_valid_map():
    doubling = MarkovMap((AffineBranch(2, 0, 0, 1),))  # the image [0, 2] breaks P1
    assert not doubling.validate().all_ok
    with pytest.raises(EscapeMapsError, match="P1: branch images cover"):
        build_orbit_tree(doubling, F(1, 3), 2)


# -- itineraries ---------------------------------------------------------


def test_escape_itinerary(four_map):
    itin = itinerary(four_map, F(1, 10))
    assert itin.symbols == ("1", "2^")
    assert itin.boundary_steps == ()
    assert itin.terminal_gap == 2


def test_periodic_itinerary(four_map):
    itin = itinerary(four_map, F(5, 27), max_iter=6)
    assert itin.symbols == ("1", "3", "1", "3", "1", "3")
    assert itin.terminal_gap is None


def test_boundary_itinerary_absorbs_left(four_map):
    itin = itinerary(four_map, F(1, 5), max_iter=3)
    assert itin.symbols == ("1", "3", "2")
    assert itin.boundary_steps == (0, 1, 2)
    assert itin.terminal_gap is None


def test_itinerary_refuses_a_negative_budget(four_map):
    # An escaping, a periodic and a boundary point alike: a negative budget
    # is an error, not an empty coding.
    for x in (F(5, 27), F(1, 10), F(1, 5)):
        with pytest.raises(DepthExceedsTreeError, match="max_iter must be nonnegative"):
            itinerary(four_map, x, max_iter=-1)
    assert itinerary(four_map, F(1, 10), max_iter=0).symbols == ()


# -- serialization -------------------------------------------------------


def test_point_class_jsonable(four_map):
    assert point_class_to_jsonable(classify_point(four_map, F(1, 2))) == {
        "class": "escaped",
        "escape_time": 0,
        "final_point": "1/2",
        "escape_symbol": "2^",
        "incidence": [1, 0, 0, 0],
    }
    assert point_class_to_jsonable(classify_point(four_map, F(0))) == {
        "class": "boundary-orbit",
        "hit_step": 0,
        "hit_point": "0",
    }
    assert point_class_to_jsonable(classify_point(four_map, F(5, 27))) == {
        "class": "undetermined-regular",
        "checked_depth": 2,
        "period": 2,
    }


def test_tree_jsonable_and_dot(four_map):
    tree = build_orbit_tree(four_map, F(1, 2), 2)
    data = tree_to_jsonable(tree)
    assert data["base_point"] == "1/2"
    assert data["root"] == "1/2"
    assert data["max_depth"] == 2
    assert data["node_count"] == 3
    assert data["nodes"][1] == {
        "id": 1,
        "point": "3/35",
        "depth": 1,
        "branch": 1,
        "parent": 0,
    }
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph window {")
    assert 'n1 [label="3/35"];' in dot
    assert 'n1 -> n0 [label="1"];' in dot


# -- property: classification agrees with naive iteration ----------------


@settings(max_examples=80)
@given(
    st.fractions(
        min_value=0, max_value=1, max_denominator=300
    )
)
def test_classification_matches_naive_iteration(four_map, q):
    budget = 200
    try:
        pc = classify_point(four_map, q, max_iter=budget)
    except OutsideAmbientError:
        pytest.fail("points of [0, 1] never leave the ambient interval")
    # Replay the orbit with value_at on the located branch and confirm the
    # reported outcome; the incidence is read off the closed images.
    y = q
    for step in range(budget + 1):
        loc = four_map.locate(y)
        if loc.kind == "partition-point":
            assert pc == BoundaryOrbit(step, y)
            return
        if loc.kind == "escape-interior":
            assert isinstance(pc, Escaped)
            assert (pc.escape_time, pc.final_point, pc.gap_index) == (step, y, loc.index)
            assert pc.incidence == tuple(int(lo <= y <= hi) for lo, hi in four_map.images)
            return
        if step == budget:
            break
        y = four_map.branches[loc.index - 1].value_at(y)
    assert isinstance(pc, UndeterminedRegular)
