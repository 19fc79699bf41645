import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escapemaps import (
    STRICT,
    BasisMismatchError,
    MapStructureError,
    NotAdmissibleError,
    NotAnEscapePointError,
    PartialBasisMap,
    SynthesisSpec,
    WindowTooShallowError,
    admissible,
    build_graph,
    build_orbit_tree,
    check_relations,
    classify_point,
    escape_point_with_incidence,
    faithfulness_certificate,
    four_interval_map,
    four_interval_reaching_map,
    full_two_interval_map,
    gap_projection,
    image_decomposition_check,
    markov_matrix,
    projection_sum_is_identity,
    quotient_nonfaithfulness_demo,
    realize,
    synthesize,
    truncate_tree,
)

F = Fraction


# -- partial injections of basis vectors ---------------------------------


def test_partial_basis_map_validation():
    with pytest.raises(MapStructureError):
        PartialBasisMap(3, ((0, 1), (0, 2)))  # repeated source
    with pytest.raises(MapStructureError):
        PartialBasisMap(3, ((0, 1), (2, 1)))  # not injective
    with pytest.raises(MapStructureError):
        PartialBasisMap(2, ((0, 2),))  # out of range


def test_partial_basis_map_algebra():
    s = PartialBasisMap(4, ((0, 2), (1, 3)))
    t = PartialBasisMap(4, ((2, 0), (3, 3)))
    assert s.apply(0) == 2 and s.apply(2) is None
    assert s.domain() == frozenset({0, 1})
    assert s.codomain() == frozenset({2, 3})
    assert t.compose(s).entries == ((0, 0), (1, 3))
    assert s.adjoint().entries == ((2, 0), (3, 1))
    assert s.restrict([1]).entries == ((1, 3),)
    assert PartialBasisMap.empty(3).is_empty
    d = PartialBasisMap.diagonal(3, [2, 0])
    assert d.is_diagonal and d.support() == frozenset({0, 2})
    with pytest.raises(BasisMismatchError):
        s.compose(PartialBasisMap(3, ()))


@st.composite
def partial_injections(draw, dim):
    size = draw(st.integers(0, dim))
    sources = draw(st.permutations(range(dim)))[:size]
    targets = draw(st.permutations(range(dim)))[:size]
    return PartialBasisMap(dim, tuple(zip(sources, targets)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        partial_injections(d), partial_injections(d), partial_injections(d)
    )
))
def test_partial_injection_laws(maps):
    s, t, u = maps
    # Associativity, adjoint anti-homomorphism, and the projection identities
    # s s* s = s / s* s s* = s*.
    assert s.compose(t).compose(u).entries == s.compose(t.compose(u)).entries
    assert s.compose(t).adjoint().entries == t.adjoint().compose(s.adjoint()).entries
    sts = s.compose(s.adjoint()).compose(s)
    assert sts.entries == s.entries
    star = s.adjoint().compose(s).compose(s.adjoint())
    assert star.entries == s.adjoint().entries
    assert s.adjoint().compose(s).is_diagonal
    assert s.adjoint().compose(s).support() == s.domain()
    assert s.compose(s.adjoint()).support() == s.codomain()


# -- realized operators on a small escape window -------------------------


@pytest.fixture()
def half_rep(four_map):
    return realize(build_orbit_tree(four_map, F(1, 2), 3))


@pytest.fixture()
def half_rep4(four_map):
    # Depth 4 is the first depth whose window carries nodes of every
    # interval, which the certificate's nonvanishing checks need.
    return realize(build_orbit_tree(four_map, F(1, 2), 4))


def test_realized_operator_entries(half_rep):
    rep = half_rep
    assert rep.dim == 5 and rep.n == 4
    assert rep.interior == frozenset({0, 1, 2})
    # Basis: 0:1/2, 1:3/35, 2:269/350, 3:199/1225, 4:327/350.
    assert rep.transfer(1).entries == ((0, 1), (2, 3))
    assert rep.transfer(3).entries == ((1, 2),)
    assert rep.transfer(2).entries == ()
    assert rep.edges() == ((1, 2), (1, 3), (2, 4), (3, 1), (3, 2), (4, 3))
    assert rep.edge_isometry(3, 1).entries == ((1, 2),)
    assert rep.edge_isometry(1, 3).entries == ((2, 3),)
    assert rep.edge_isometry(4, 3).entries == ((2, 4),)
    assert rep.edge_isometry(1, 2).entries == ()
    with pytest.raises(MapStructureError):
        rep.edge_isometry(1, 1)
    assert rep.vertex_projection(1).support() == frozenset({1, 3})
    assert rep.vertex_projection(3).support() == frozenset({2})
    assert rep.vertex_projection(4).support() == frozenset({4})
    assert rep.vertex_projection(2).support() == frozenset()
    assert rep.image_projection(1).support() == frozenset({0, 2})
    assert rep.image_projection(3).support() == frozenset({1, 3})
    assert rep.incidence == (1, 0, 0, 0)


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
    assert gap_projection(half_rep, 1).support() == frozenset({1})
    for i in (2, 3, 4):
        assert gap_projection(half_rep, i).is_empty
    with pytest.raises(MapStructureError):
        gap_projection(half_rep, 5)


def test_relation_report_is_truncation_stable(four_map):
    reports = []
    for depth in (2, 3, 4, 5):
        rep = realize(build_orbit_tree(four_map, F(1, 2), depth))
        reports.append(check_relations(rep, [2, 3, 4]).to_jsonable())
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
    wrong = list(rep.image_projections)
    wrong[2] = rep.vertex_projection(3)
    broken = dataclasses.replace(rep, image_projections=tuple(wrong))
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
    assert (idx in rep.interior) == (node == "interior")
    points = list(tree.points)
    points[idx] += F(1, 10**9)
    assert four_map.locate(points[idx]) == dataclasses.replace(
        four_map.locate(tree.points[idx]), point=points[idx]
    )
    assert [lo <= points[idx] <= hi for lo, hi in four_map.images] == [
        lo <= tree.points[idx] <= hi for lo, hi in four_map.images
    ]
    tree.__dict__["points"] = tuple(points)
    report = image_decomposition_check(rep)
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
    relabelled = dataclasses.replace(tree, labels=(1,) + tree.labels[1:])
    report = image_decomposition_check(dataclasses.replace(rep, tree=relabelled))
    assert report.failures == ("branch 1 round trip fails at 229/270",)


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
    dim = tree.node_count
    point_index = {p: idx for idx, p in enumerate(tree.points)}
    interior = tree.interior_indices()

    def pull_back(i, nodes):
        return PartialBasisMap(
            dim,
            tuple(
                (idx, point_index[m.branch_inverse(i, tree.points[idx])])
                for idx in nodes
            ),
        )

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
        PartialBasisMap.diagonal(
            dim, (idx for idx, y in enumerate(tree.points) if lo <= y <= hi)
        )
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


@pytest.mark.parametrize("name", sorted(ORACLE_WINDOWS))
def test_realize_matches_the_formula_construction(name):
    tree = ORACLE_WINDOWS[name]()
    if not tree.is_escape_window:
        assert tree.parents[0] is not None  # the root closes its cycle
    rep = realize(tree)
    transfers, edges, images = formula_operators(tree)
    assert rep.image_projections == tuple(images)
    assert any(not t.is_empty for t in transfers)
    for i, expected in enumerate(transfers, start=1):
        assert rep.transfer(i) == expected
    assert rep.edges() == tuple(sorted(edges))
    assert rep.edges() == build_graph(markov_matrix(tree.map)).edges
    for (i, j), expected in edges.items():
        assert rep.edge_isometry(i, j) == expected


def test_transfers_apply_each_parent_to_its_child():
    tree = _band8_escape_window()
    rep = realize(tree)
    interior_edges = 0
    for i, t in enumerate(rep.transfers, start=1):
        for parent, child in t.entries:
            assert t.apply(parent) == child
            assert (tree.parents[child], tree.labels[child]) == (parent, i)
        assert all(t.apply(idx) is None for idx in range(rep.dim) if idx not in t.domain())
        interior_edges += len(t.entries)
    assert interior_edges == sum(p in rep.interior for p in tree.parents[1:]) > 0


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
    data = cert.to_jsonable()
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
    from escapemaps import escape_point_with_incidence

    e = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    rep = realize(build_orbit_tree(partial_map, e, 4))
    both = faithfulness_certificate(rep, [2, 3])
    assert both.faithful and both.all_verified
    only2 = faithfulness_certificate(rep, [2])
    assert not only2.faithful and only2.complement_misses == (3,)
    only3 = faithfulness_certificate(rep, [3])
    assert not only3.faithful and only3.complement_misses == (2,)


def test_quotient_nonfaithfulness_demo(half_rep4):
    witness = quotient_nonfaithfulness_demo(half_rep4, [2, 3], [2, 3, 4])
    assert witness.vertex == 4
    assert witness.gap_vanishes
    with pytest.raises(MapStructureError):
        quotient_nonfaithfulness_demo(half_rep4, [2, 3], [2, 3])
    with pytest.raises(NotAdmissibleError):
        quotient_nonfaithfulness_demo(half_rep4, [2], [1, 2])
