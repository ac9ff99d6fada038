import json
import random

import pytest

from conftest import compose, identity_morphism, morphism_degree
from hcov.errors import GraphError, MorphismError
from hcov.multigraph import (
    Dart,
    GraphMorphism,
    Multigraph,
    are_isomorphic,
    find_isomorphism,
    is_harmonic,
)


def theta():
    return Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])


def point():
    return Multigraph([0], [])


def fig4_graph():
    """Two triangles, three parallel pairs, six horizontal edges."""
    vertices = list(range(12))
    edges = []
    eid = 0
    for base in (0, 3):  # triangles on 0,1,2 and 3,4,5
        for i in range(3):
            edges.append((eid, (base + i, base + (i + 1) % 3)))
            eid += 1
    for i in range(3):  # parallel pairs on (6,9),(7,10),(8,11)
        edges.append((eid, (6 + i, 9 + i)))
        eid += 1
        edges.append((eid, (6 + i, 9 + i)))
        eid += 1
    for i in range(6):  # horizontal matching
        edges.append((eid, (i, 6 + i)))
        eid += 1
    return Multigraph(vertices, edges)


def test_construction_rejects_loops_and_duplicates():
    with pytest.raises(GraphError, match="loop"):
        Multigraph([0], [(0, (0, 0))])
    with pytest.raises(GraphError, match="duplicate"):
        Multigraph([0, 0], [])
    with pytest.raises(GraphError, match="duplicate"):
        Multigraph([0, 1], [(0, (0, 1)), (0, (0, 1))])
    with pytest.raises(GraphError, match="unknown endpoint"):
        Multigraph([0, 1], [(0, (0, 2))])


def test_genus_examples():
    assert theta().genus() == 2
    assert point().genus() == 0
    assert fig4_graph().genus() == 7


def test_genus_rejects_disconnected():
    g = Multigraph([0, 1], [])
    with pytest.raises(GraphError):
        g.genus()


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 8)
        edges = []
        for eid in range(rng.randrange(1, 12)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.append((eid, (u, v)))
        g = Multigraph(range(n), edges)
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


def test_components():
    assert theta().connected_components() == [[1, 2]]
    two = Multigraph([0, 1, 2, 3, 4, 5], [(0, (0, 1)), (1, (1, 2)), (2, (3, 4)), (3, (4, 5))])
    assert two.connected_components() == [[0, 1, 2], [3, 4, 5]]
    assert Multigraph([], []).connected_components() == []


def test_components_are_fresh_lists_and_edges_read_only():
    # components are computed once per graph; callers get their own copies
    two = Multigraph([0, 1, 2, 3], [(0, (0, 1)), (1, (2, 3))])
    two.connected_components()[0].append(9)
    assert two.connected_components() == [[0, 1], [2, 3]]
    g = theta()
    with pytest.raises(TypeError):
        g.edges[4] = (1, 2)
    assert g.edges == dict([(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])


def test_darts():
    g = theta()
    darts = g.darts()
    assert len(darts) == 2 * len(g.edges)
    for d in darts:
        r = g.reverse(d)
        assert r != d
        assert g.reverse(r) == d
    assert g.reverse(Dart(1, 1)) == Dart(1, 2)


def test_dart_ids():
    # dart 2*rank(edge) + end, in sorted edge order; the reverse is d ^ 1
    g = Multigraph([4, 1, 2], [(9, (2, 1)), (3, (4, 1)), (5, (1, 2)), (7, (4, 2))])
    darts = g.darts()
    assert darts == [Dart(3, 4), Dart(3, 1), Dart(5, 1), Dart(5, 2),
                     Dart(7, 4), Dart(7, 2), Dart(9, 2), Dart(9, 1)]
    assert g.dart_bases() == [d.base for d in darts]
    assert g.vertex_darts() == {4: [0, 4], 1: [1, 2, 7], 2: [3, 5, 6]}
    assert all(g.reverse(d) == darts[i ^ 1] for i, d in enumerate(darts))


# -- local surgery for the subdivision-invariance checks ----------------------


def subdivide_edge(g: Multigraph, eid: int) -> Multigraph:
    """Replace edge eid by a path of two edges through a fresh vertex."""
    u, v = g.ends(eid)
    new_v = max(g.vertices) + 1 if g.vertices else 0
    new_e = max(g.edges) + 1 if g.edges else 0
    edges = [(e, ends) for e, ends in g.edges.items() if e != eid]
    edges.append((new_e, (u, new_v)))
    edges.append((new_e + 1, (new_v, v)))
    return Multigraph((*g.vertices, new_v), edges)


def smooth_vertex(g: Multigraph, v: int) -> Multigraph:
    """Remove a degree-2 vertex, merging its two edges into one.

    The two neighbours must be distinct (otherwise the merge would
    create a loop).
    """
    inc = g.incident_edges(v)
    if len(inc) != 2:
        raise GraphError(f"vertex {v} has degree {len(inc)}, not 2")
    e1, e2 = inc
    if e1 == e2:
        raise GraphError("cannot smooth a vertex on a parallel pair to itself")
    a = g.other_end(e1, v)
    b = g.other_end(e2, v)
    if a == b:
        raise GraphError("smoothing would create a loop")
    new_e = max(g.edges) + 1
    edges = [(e, ends) for e, ends in g.edges.items() if e not in (e1, e2)]
    edges.append((new_e, (a, b)))
    return Multigraph(tuple(w for w in g.vertices if w != v), edges)


def test_subdivide_then_smooth_preserves_genus():
    rng = random.Random(11)
    g = fig4_graph()
    for _ in range(10):
        e = rng.choice(list(g.edges))
        sub = subdivide_edge(g, e)
        assert sub.genus() == g.genus()
        new_v = max(sub.vertices)
        back = smooth_vertex(sub, new_v)
        assert back.genus() == g.genus()
        assert len(back.vertices) == len(g.vertices)


def test_smooth_vertex_guards():
    path = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])
    smoothed = smooth_vertex(path, 1)
    assert len(smoothed.edges) == 1
    with pytest.raises(GraphError):
        smooth_vertex(theta(), 1)  # degree 3
    pair = Multigraph([0, 1], [(0, (0, 1)), (1, (0, 1))])
    with pytest.raises(GraphError, match="loop"):
        smooth_vertex(pair, 0)


def test_json_round_trip_and_loop_rejection():
    g = fig4_graph()
    data = json.loads(json.dumps(g.to_json()))
    assert Multigraph.from_json(data) == g
    bad = {"vertices": [0, 1], "edges": [{"id": 7, "ends": [1, 1]}]}
    with pytest.raises(GraphError, match="7"):
        Multigraph.from_json(bad)


def test_dot_output():
    dot = theta().to_dot()
    assert dot.count("--") == 3
    assert "v1" in dot and "v2" in dot


# -- morphisms ---------------------------------------------------------------


def fig1_phi1():
    source = Multigraph(
        [1, 2, 3, 4],
        [(1, (1, 2)), (2, (2, 3)), (3, (2, 4)), (4, (4, 3)), (5, (1, 4)), (6, (1, 4))],
    )
    target = Multigraph([5, 6, 7], [(10, (5, 6)), (11, (6, 7))])
    return GraphMorphism(
        source,
        target,
        {1: 5, 2: 6, 3: 7, 4: 6},
        {1: 10, 2: 11, 3: None, 4: 11, 5: 10, 6: 10},
    )


def fig1_phi2():
    source = Multigraph(
        [8, 9, 10, 11],
        [
            (1, (8, 9)),
            (2, (9, 10)),
            (3, (9, 11)),
            (4, (8, 11)),
            (5, (8, 11)),
            (6, (10, 11)),
            (7, (10, 11)),
        ],
    )
    target = Multigraph([12, 13, 14], [(10, (12, 13)), (11, (13, 14))])
    return GraphMorphism(
        source,
        target,
        {8: 12, 9: 13, 10: 14, 11: 13},
        {1: 10, 2: 11, 3: None, 4: 10, 5: 10, 6: 11, 7: 11},
    )


def test_morphism_validation():
    g = theta()
    with pytest.raises(MorphismError):
        GraphMorphism(g, point(), {1: 0, 2: 0}, {1: None, 2: None})  # edge 3 missing
    with pytest.raises(MorphismError):
        # edge mapped to an edge although endpoints collapse
        GraphMorphism(g, g, {1: 1, 2: 1}, {1: 1, 2: 2, 3: 3})
    with pytest.raises(MorphismError):
        # vertical marker but endpoints do not collapse
        GraphMorphism(g, g, {1: 1, 2: 2}, {1: None, 2: 2, 3: 3})


def test_harmonicity_figure1():
    rep1 = is_harmonic(fig1_phi1())
    assert not rep1
    y, hi, lo, chi, clo = rep1.witness
    assert y == 4
    assert {hi, lo} == {10, 11}
    assert (chi, clo) == (2, 1)
    rep2 = is_harmonic(fig1_phi2())
    assert rep2
    assert rep2.witness is None


def test_identity_is_harmonic():
    for g in (theta(), fig4_graph()):
        assert is_harmonic(identity_morphism(g))
        assert morphism_degree(identity_morphism(g)) == 1


def test_morphism_degree():
    # faithful reconstruction of the second projection has three preimages
    # per base edge (the parallel pairs count)
    assert morphism_degree(fig1_phi2()) == 3
    g = theta()
    to_point = GraphMorphism(g, point(), {1: 0, 2: 0}, {1: None, 2: None, 3: None})
    assert morphism_degree(to_point) == 2  # |V(source)| over the point graph


def test_morphism_degree_rejects_non_harmonic():
    with pytest.raises(MorphismError):
        morphism_degree(fig1_phi1())


def test_compose_degree_multiplies():
    # subdivision-free two-step tower: theta -> theta (identity) -> point
    g = theta()
    ident = identity_morphism(g)
    to_point = GraphMorphism(g, point(), {1: 0, 2: 0}, {1: None, 2: None, 3: None})
    comp = compose(to_point, ident)
    assert morphism_degree(comp) == morphism_degree(to_point) * morphism_degree(ident)


def test_morphism_json_round_trip():
    m = fig1_phi2()
    again = GraphMorphism.from_json(json.loads(json.dumps(m.to_json())))
    assert again.vertex_map == m.vertex_map
    assert again.edge_map == m.edge_map


def test_isomorphism_checker():
    g = theta()
    relabeled = Multigraph([7, 9], [(4, (9, 7)), (5, (7, 9)), (6, (7, 9))])
    iso = find_isomorphism(g, relabeled)
    assert iso is not None
    assert set(iso) == {1, 2}
    path = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])
    assert not are_isomorphic(g, path)
    assert are_isomorphic(fig4_graph(), fig4_graph())
