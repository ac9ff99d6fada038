"""GraphAction on list images against GraphAction on dict images.

A generator's image map is a list indexed by point id when the ids are
0..n-1, and a dict otherwise; the orbit bookkeeping is one array per kind
(a dict for sparse ids). Both storage forms of one action must give the
same orbits, stabilizers, harmonicity verdict, quotient and JSON, and the
same ActionError after the same corruption. They are compared on every
figure cover spec flipped and unflipped, the 200 criterion-4 covers and
every psl2(7)/psl2(13) maximal cover.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_dicts
from hcov.errors import ActionError
from hcov.harmonic import GraphAction, flipped_edges, is_harmonic_action, quotient
from hcov.maximal import build_maximal
from hcov.multigraph import Multigraph
from hcov.permgroup import cyclic, load_default_catalog, symmetric
from test_galois import criterion_4_covers
from test_graph_oracles import figure_covers, maximal_covers


def _dense(points) -> bool:
    return sorted(points) == list(range(len(points)))


def as_lists(image_maps, points) -> list:
    """Copies of image maps as lists indexed by point id when the points are
    0..n-1, else as dicts."""
    maps = as_dicts(image_maps)
    if not _dense(points):
        return maps
    return [[m[y] for y in range(len(points))] for m in maps]


def both_forms(a):
    """The action rebuilt from dict images and from list images."""
    graph = a.graph
    from_dicts = GraphAction(a.group, graph, as_dicts(a.vertex_images), as_dicts(a.edge_images))
    from_lists = GraphAction(
        a.group, graph, as_lists(a.vertex_images, graph.vertices),
        as_lists(a.edge_images, graph.edges),
    )
    return from_dicts, from_lists


def summary(a) -> dict:
    """Everything the stored orbits decide, in comparable form."""
    out = {"json": a.to_json()}
    for kind, points, orbit_of, orbits in (
        ("vertex", a.graph.vertices, a.vertex_orbit, a._vertex_orbits),
        ("edge", a.graph.edges, a.edge_orbit, a._edge_orbits),
    ):
        out[kind] = {
            "orbits": [(o.phi, o.size, o.points(), o.stabilizer()) for o in orbits],
            "of": [(x, orbit_of(x).point, orbit_of(x).least[x]) for x in sorted(points)],
        }
    report = is_harmonic_action(a)
    out["harmonic"] = (report.harmonic, report.witness_dart, report.witness_element)
    if report:
        out["flipped"] = flipped_edges(a)
    q = quotient(a)
    out["quotient"] = (
        q.quotient, q.projection.vertex_map, q.projection.edge_map, q.removed_loops,
    )
    return out


def check_same(a):
    from_dicts, from_lists = both_forms(a)
    assert summary(from_dicts) == summary(from_lists) == summary(a)


def check_list_storage(a):
    """The action's own maps are lists wherever its ids are 0..n-1."""
    for maps, points in ((a.vertex_images, a.graph.vertices), (a.edge_images, a.graph.edges)):
        assert all(type(m) is (list if _dense(points) else dict) for m in maps)


def test_figure_covers_store_the_same_action_in_both_forms():
    covers = figure_covers()
    assert len(covers) == 8
    for cover in covers:
        check_same(cover.action)
        if not cover.flipped:
            check_list_storage(cover.action)


def test_criterion_4_covers_store_the_same_action_in_both_forms(catalog):
    covers = list(criterion_4_covers(catalog))
    assert len(covers) == 200
    for cover in covers:
        check_list_storage(cover.action)
        check_same(cover.action)


def test_psl2_maximal_covers_store_the_same_action_in_both_forms():
    covers = maximal_covers()
    assert {c.group.order() for c in covers} == {168, 1092}
    for cover in covers:
        check_list_storage(cover.action)
        check_same(cover.action)


def test_list_images_are_kept_not_copied():
    tau, sigma = (1, 0, 2), (1, 2, 0)
    a = build_maximal(symmetric(3), tau, sigma).action
    vmaps, emaps = as_lists(a.vertex_images, a.graph.vertices), as_lists(
        a.edge_images, a.graph.edges
    )
    b = GraphAction(a.group, a.graph, vmaps, emaps)
    assert all(m is n for m, n in zip(b.vertex_images, vmaps))
    assert all(m is n for m, n in zip(b.edge_images, emaps))


def test_json_round_trip_gives_back_list_images():
    for cover in maximal_covers()[:1] + figure_covers():
        a = cover.action
        again = GraphAction.from_json(a.to_json(), load_default_catalog())
        assert again.vertex_images == a.vertex_images
        assert again.edge_images == a.edge_images
        check_list_storage(again)


@pytest.mark.parametrize(
    "vertex_images",  # on the vertices 0 and 1
    [
        [[1, 0, 0]],  # the right image set, with a third entry
        [[1, 0, 1]],
    ],
)
def test_a_list_over_other_ids_is_not_a_bijection(vertex_images):
    graph = Multigraph([0, 1], [(0, (0, 1))])
    with pytest.raises(ActionError, match="^generator 0: vertex map is not a bijection$"):
        GraphAction(cyclic(2), graph, vertex_images, [[0]])


def test_a_list_over_ids_not_from_zero_is_not_a_bijection():
    # values that are the vertex ids 1 and 2, at the list positions 0 and 1
    graph = Multigraph([1, 2], [(0, (1, 2))])
    for vertex_images in ([[2, 1]], [{0: 2, 1: 1}]):
        with pytest.raises(ActionError, match="^generator 0: vertex map is not a bijection$"):
            GraphAction(cyclic(2), graph, vertex_images, [[0]])


# -- one corrupted image: the same error from both forms ------------------------------


@cache
def corruption_bases():
    catalog = load_default_catalog()
    return [c.action for c in figure_covers() if not c.flipped] + [
        c.action for c in maximal_covers()[:2]
    ] + [
        c.action for c, _ in zip(criterion_4_covers(catalog), range(20))
        if c.graph.edges and c.group.generators
    ]


def verdict(group, graph, vmaps, emaps):
    try:
        GraphAction(group, graph, vmaps, emaps)
    except ActionError as err:
        return str(err)
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["vertex", "edge"]),
       how=st.sampled_from(["swap", "parallel swap", "copy", "shift"]))
def test_one_corrupted_image_raises_the_same_error_in_both_forms(data, kind, how):
    a = data.draw(st.sampled_from(corruption_bases()))
    graph = a.graph
    points = sorted(graph.vertices if kind == "vertex" else graph.edges)
    maps = {
        "dicts": [as_dicts(a.vertex_images), as_dicts(a.edge_images)],
        "lists": [as_lists(a.vertex_images, graph.vertices),
                  as_lists(a.edge_images, graph.edges)],
    }
    k = data.draw(st.integers(0, len(a.group.generators) - 1))
    y, z = (data.draw(st.sampled_from(points)) for _ in range(2))
    if how == "parallel swap":  # two edges with the same ends: the endpoint check passes
        kind, how = "edge", "swap"
        ends = a.graph.edges
        y = data.draw(st.sampled_from(sorted(ends)))
        z = data.draw(st.sampled_from([e for e in sorted(ends) if {*ends[e]} == {*ends[y]}]))
    for vmaps, emaps in maps.values():
        m = (vmaps if kind == "vertex" else emaps)[k]
        if how == "swap":
            m[y], m[z] = m[z], m[y]
        elif how == "copy":
            m[y] = m[z]
        else:  # every image moved one point along: a bijection, often not an action
            images = [m[x] for x in points]
            for x, img in zip(points, images[1:] + images[:1]):
                m[x] = img
    expected = verdict(a.group, graph, *maps["dicts"])
    assert verdict(a.group, graph, *maps["lists"]) == expected
