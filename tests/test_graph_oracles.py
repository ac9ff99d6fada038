"""Slow oracles for the graph checks that read Multigraph's flat ends
directly, and for the ramification profile read from the fiber arrays a
cover keeps.

Each oracle is the earlier per-edge method-call form of a check:
connected components by an other_end walk, GraphMorphism validation with a
set of target ends per edge, the generator endpoint check through
Multigraph.ends, and the profile read off conftest.fiber_subgraph. They are
compared with the code on the criterion-4 covers, every figure spec
flipped and unflipped, and the psl2(7) and psl2(13) maximal covers. A
hypothesis test corrupts one image or one endpoint and asks both sides for
the same error.
"""

from functools import cache
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_dict, as_dicts, fiber_subgraph, load_figure
from hcov.errors import ActionError, MorphismError
from hcov.galois import cover_from_spec, ramification_profile
from hcov.harmonic import GraphAction, quotient
from hcov.maximal import build_maximal
from hcov.multigraph import GraphMorphism, Multigraph
from hcov.permgroup import load_default_catalog, psl2, search_23_pairs
from test_galois import criterion_4_covers

# -- the oracles ----------------------------------------------------------------------


def components_oracle(g: Multigraph) -> list:
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for eid in g.incident_edges(v):
                w = g.other_end(eid, v)
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def morphism_oracle(source, target, vertex_map, edge_map):
    """The MorphismError message of the morphism, or None if it is one."""
    for v in source.vertices:
        if v not in vertex_map:
            return f"vertex {v} has no image"
        if not target.has_vertex(vertex_map[v]):
            return f"vertex {v} maps outside the target"
    for e, (y1, y2) in source.edges.items():
        if e not in edge_map:
            return f"edge {e} has no image"
        img = edge_map[e]
        f1, f2 = vertex_map[y1], vertex_map[y2]
        if img is None:
            if f1 != f2:
                return f"edge {e} marked vertical but endpoints map to {f1} != {f2}"
        else:
            if img not in target.edges:
                return f"edge {e} maps to unknown edge {img}"
            if f1 == f2:
                return f"edge {e} maps to an edge but endpoints collapse to {f1}"
            if set(target.ends(img)) != {f1, f2}:
                return f"edge {e}: image edge {img} does not join {f1} and {f2}"
    return None


def generator_maps_oracle(graph, vertex_images, edge_images):
    """The ActionError message of GraphAction's generator-map checks, or None."""
    vset = set(graph.vertices)
    edges = graph.edges
    eset = set(edges)
    for i, (vm, em) in enumerate(zip(vertex_images, edge_images)):
        if set(vm) != vset or set(vm.values()) != vset:
            return f"generator {i}: vertex map is not a bijection"
        if set(em) != eset or set(em.values()) != eset:
            return f"generator {i}: edge map is not a bijection"
        image_ends = map(graph.ends, map(em.__getitem__, edges))
        for e, (u, v), (a, b) in zip(edges, edges.values(), image_ends):
            iu, iv = vm[u], vm[v]
            if (iu != a or iv != b) and (iu != b or iv != a):
                return (
                    f"generator {i}: edge {e} maps to {em[e]} but endpoints map to ({iu}, {iv})"
                )
    return None


def profile_oracle(cover) -> dict:
    """Base vertex -> (m, f, n, v, w), with f, n and v read off the fiber
    subgraphs that fiber_subgraph builds from the projection."""
    out = {}
    for x in cover.base.vertices:
        sub = fiber_subgraph(cover, x)
        fiber = sub.vertices
        comps = components_oracle(sub)
        (f,) = {len(comp) for comp in comps}
        (v,) = {sub.degree(y) for y in fiber}
        m = cover.action.vertex_orbit(fiber[0]).stabilizer_order()
        out[x] = (m, f, len(comps), v, v // m)
    return out


# -- the code under test, as verdicts comparable with the oracles ----------------------


def morphism_verdict(source, target, vertex_map, edge_map):
    try:
        GraphMorphism(source, target, vertex_map, edge_map)
    except MorphismError as err:
        return str(err)
    return None


def generator_maps_verdict(graph, vertex_images, edge_images):
    # the generator-map checks alone: the orbit validation that follows
    # them in the constructor is not what the oracle replaces
    a = GraphAction.__new__(GraphAction)
    a.graph, a.vertex_images, a.edge_images = graph, vertex_images, edge_images
    try:
        a._validate_generator_maps()
    except ActionError as err:
        return str(err)
    return None


# -- the covers compared ---------------------------------------------------------------

FIGURE_SPECS = sorted(
    p.name for p in files("hcov").joinpath("data/figures").iterdir()
    if p.name.endswith(".json") and "multisets" in load_figure(p.name)
)


@cache
def figure_covers():
    catalog = load_default_catalog()
    return [
        cover_from_spec(dict(load_figure(name), flipped=flipped), catalog)
        for name in FIGURE_SPECS
        for flipped in (False, True)
    ]


@cache
def maximal_covers():
    return [
        build_maximal(G, tau, sigma).cover
        for G in (psl2(7), psl2(13))
        for tau, sigma in search_23_pairs(G).pairs
    ]


def check_against_oracles(cover):
    graph = cover.graph
    assert graph.connected_components() == components_oracle(graph)
    a = cover.action
    assert generator_maps_oracle(graph, as_dicts(a.vertex_images), as_dicts(a.edge_images)) is None
    q = quotient(a)
    assert components_oracle(q.quotient) == q.quotient.connected_components()
    for m in (cover.projection, q.projection):
        vertex_map, edge_map = as_dict(m.vertex_map), as_dict(m.edge_map)
        assert morphism_oracle(m.source, m.target, vertex_map, edge_map) is None
    profile = ramification_profile(cover).per_vertex
    assert {x: (p.m, p.f, p.n, p.v, p.w) for x, p in profile.items()} == profile_oracle(cover)


def test_figure_covers_match_the_oracles():
    assert len(FIGURE_SPECS) == 4
    for cover in figure_covers():
        check_against_oracles(cover)


def test_criterion_4_covers_match_the_oracles(catalog):
    covers = list(criterion_4_covers(catalog))
    assert len(covers) == 200
    for cover in covers:
        check_against_oracles(cover)


def test_psl2_maximal_covers_match_the_oracles():
    covers = maximal_covers()
    assert {c.group.order() for c in covers} == {168, 1092}
    for cover in covers:
        check_against_oracles(cover)


# -- one corrupted image or endpoint: the same error on both sides ---------------------


@cache
def corruption_bases():
    catalog = load_default_catalog()
    return figure_covers() + maximal_covers()[:1] + [
        c for c, _ in zip(criterion_4_covers(catalog), range(20))
        if c.graph.edges and c.group.generators
    ]


def _edge_with_new_end(graph, data):
    """graph with one end of one drawn edge moved to another drawn vertex."""
    ends = dict(graph.edges)
    e = data.draw(st.sampled_from(sorted(ends)))
    u, v = ends[e]
    w = data.draw(st.sampled_from([y for y in graph.vertices if y != u]))
    ends[e] = (u, w)
    return Multigraph(graph.vertices, ends)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["edge image", "vertex image", "endpoint"]))
def test_one_corruption_raises_the_same_error(data, kind):
    cover = data.draw(st.sampled_from(corruption_bases()))
    a, m = cover.action, cover.projection
    graph = a.graph
    vmaps, emaps = as_dicts(a.vertex_images), as_dicts(a.edge_images)
    vertex_map, edge_map = as_dict(m.vertex_map), as_dict(m.edge_map)
    k = data.draw(st.integers(0, len(emaps) - 1))
    if kind == "edge image":
        e, f = (data.draw(st.sampled_from(sorted(graph.edges))) for _ in range(2))
        if data.draw(st.booleans()):  # a swap keeps the map a bijection
            emaps[k][e], emaps[k][f] = emaps[k][f], emaps[k][e]
        else:
            emaps[k][e] = emaps[k][f]
        edge_map[e] = data.draw(st.sampled_from([None, *sorted(m.target.edges)]))
    elif kind == "vertex image":
        v = data.draw(st.sampled_from(graph.vertices))
        w = data.draw(st.sampled_from(graph.vertices))
        vmaps[k][v], vmaps[k][w] = vmaps[k][w], vmaps[k][v]
        vertex_map[v] = data.draw(st.sampled_from(m.target.vertices))
    else:
        graph = _edge_with_new_end(graph, data)
    expected = generator_maps_oracle(graph, vmaps, emaps)
    assert generator_maps_verdict(graph, vmaps, emaps) == expected
    expected = morphism_oracle(graph, m.target, vertex_map, edge_map)
    assert morphism_verdict(graph, m.target, vertex_map, edge_map) == expected
    # the components walk agrees on the corrupted graph too
    assert graph.connected_components() == components_oracle(graph)


PATH = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])


@pytest.mark.parametrize(
    "vertex_map, edge_map",
    [
        ({0: 0, 1: 1}, {0: 0, 1: 1}),
        ({0: 0, 1: 1, 2: 3}, {0: 0, 1: 1}),
        ({0: 0, 1: 1, 2: 2}, {0: 0}),
        ({0: 0, 1: 1, 2: 2}, {0: None, 1: 1}),
        ({0: 0, 1: 1, 2: 2}, {0: 5, 1: 1}),
        ({0: 0, 1: 0, 2: 1}, {0: 0, 1: 0}),
        ({0: 0, 1: 1, 2: 2}, {0: 1, 1: 1}),
    ],
)
def test_each_morphism_message_matches_the_oracle(vertex_map, edge_map):
    # one message of each kind, on an edited identity of a path
    assert morphism_oracle(PATH, PATH, {0: 0, 1: 1, 2: 2}, {0: 0, 1: 1}) is None
    expected = morphism_oracle(PATH, PATH, vertex_map, edge_map)
    assert expected is not None
    assert morphism_verdict(PATH, PATH, vertex_map, edge_map) == expected
