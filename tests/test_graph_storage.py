"""Multigraph and GraphMorphism on flat storage against the dict forms they
replaced.

DictMultigraph is the earlier Multigraph: a (u, v) tuple per edge in a dict
and a tuple of incident edge ids per vertex. DictMorphism is the earlier
GraphMorphism, which copied both maps into dicts. Both are kept here as
oracles. Every reader of the flat storage is compared with them on
hypothesis multigraphs (ids 0..n-1, a shuffled 0..n-1, ids with gaps,
negative ids and ids of 2**31 or more, edges given in any order), on
corrupted inputs (the same GraphError or MorphismError) and on every figure
cover, criterion-4 cover and psl2(7)/psl2(13) maximal cover in the suites,
with their quotients, projections and fibers.

GraphMorphism checks the source's edges in ascending id order; the dict
form checked them in the order given. The morphism comparisons therefore
give DictMultigraph its edges ascending, as every graph the package builds
lists them.
"""

from array import array
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_dict, fiber_subgraph, identity_morphism
from hcov.errors import GraphError, MorphismError
from hcov.harmonic import quotient
from hcov.maximal import build_maximal
from hcov.multigraph import Dart, GraphMorphism, Multigraph
from hcov.permgroup import symmetric
from test_galois import criterion_4_covers
from test_graph_oracles import figure_covers, maximal_covers

# -- the oracles: the dict-of-tuples storage -------------------------------------------


class DictMultigraph:
    """The earlier Multigraph storage, with the readers compared below."""

    def __init__(self, vertices, edges):
        vs = list(vertices)
        if len(vs) != len(set(vs)):
            raise GraphError("duplicate vertex ids")
        self.vertices = tuple(vs)
        vset = set(vs)
        if hasattr(edges, "items"):
            edges = edges.items()
        emap = {}
        for eid, ends in edges:
            u, v = ends
            if eid in emap:
                raise GraphError(f"duplicate edge id {eid}")
            if u == v:
                raise GraphError(f"edge {eid} is a loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge {eid} has unknown endpoint in ({u}, {v})")
            emap[eid] = (u, v)
        self.edges = emap
        inc = {v: [] for v in vs}
        for eid in sorted(emap):
            u, v = emap[eid]
            inc[u].append(eid)
            inc[v].append(eid)
        self.incidence = {v: tuple(es) for v, es in inc.items()}

    def other_end(self, eid, v):
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def darts(self):
        return [Dart(e, x) for e in sorted(self.edges) for x in self.edges[e]]

    def vertex_darts(self):
        out = {v: [] for v in self.vertices}
        for d, dart in enumerate(self.darts()):
            out[dart.base].append(d)
        return out

    def components(self):
        seen = set()
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                for eid in self.incidence[v]:
                    w = self.other_end(eid, v)
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(sorted(comp))
        comps.sort(key=lambda c: c[0])
        return comps

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "ends": list(self.edges[e])} for e in sorted(self.edges)],
        }

    def to_dot(self):
        lines = ["graph G {"]
        lines += [f'  v{v} [label="{v}"];' for v in self.vertices]
        for e in sorted(self.edges):
            u, v = self.edges[e]
            lines.append(f'  v{u} -- v{v} [label="e{e}"];')
        lines.append("}")
        return "\n".join(lines)


class DictMorphism:
    """The earlier GraphMorphism: both maps copied into dicts, the source's
    edges checked in the order its dict holds them."""

    def __init__(self, source: DictMultigraph, target: DictMultigraph, vertex_map, edge_map):
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        for v in source.vertices:
            if v not in self.vertex_map:
                raise MorphismError(f"vertex {v} has no image")
            if self.vertex_map[v] not in target.incidence:
                raise MorphismError(f"vertex {v} maps outside the target")
        for e, (y1, y2) in source.edges.items():
            if e not in self.edge_map:
                raise MorphismError(f"edge {e} has no image")
            img = self.edge_map[e]
            f1, f2 = self.vertex_map[y1], self.vertex_map[y2]
            if img is None:
                if f1 != f2:
                    raise MorphismError(
                        f"edge {e} marked vertical but endpoints map to {f1} != {f2}"
                    )
                continue
            ends = target.edges.get(img)
            if ends is None:
                raise MorphismError(f"edge {e} maps to unknown edge {img}")
            if f1 == f2:
                raise MorphismError(f"edge {e} maps to an edge but endpoints collapse to {f1}")
            if ends != (f1, f2) and ends != (f2, f1):
                raise MorphismError(f"edge {e}: image edge {img} does not join {f1} and {f2}")


# -- comparisons ------------------------------------------------------------------------


def outcome(make):
    """(the object, None), or (None, the message of its GraphError or
    MorphismError)."""
    try:
        return make(), None
    except (GraphError, MorphismError) as err:
        return None, (type(err).__name__, str(err))


def check_same_graph(g: Multigraph, old: DictMultigraph):
    assert list(g.vertices) == list(old.vertices)
    assert list(g.edges) == sorted(old.edges)  # ascending
    assert dict(g.edges) == old.edges and g.edges == old.edges
    assert len(g.edges) == len(old.edges)
    for e, (u, v) in old.edges.items():
        assert e in g.edges
        assert g.ends(e) == (u, v)
        assert g.other_end(e, u) == v and g.other_end(e, v) == u
    probes = [min(old.vertices, default=0) - 1, max(old.vertices, default=0) + 1, None]
    for v in [*old.vertices, *probes]:
        assert g.has_vertex(v) == (v in old.incidence)
    for x in [min(old.edges, default=0) - 1, max(old.edges, default=0) + 1, None]:
        assert (x in g.edges) == (x in old.edges)
    assert g.degrees() == [len(old.incidence[v]) for v in old.vertices]
    for v in old.vertices:
        assert g.degree(v) == len(old.incidence[v])
        assert g.incident_edges(v) == old.incidence[v]
    assert g.darts() == old.darts()
    assert list(g.dart_bases()) == [d.base for d in old.darts()]
    assert g.vertex_darts() == old.vertex_darts()
    assert g.connected_components() == old.components()
    assert g.is_connected() == (len(old.components()) == 1)
    if g.is_connected():
        assert g.genus() == len(old.edges) - len(old.vertices) + 1
    assert g.to_json() == old.to_json()
    assert g.to_dot() == old.to_dot()
    assert Multigraph.from_json(g.to_json()) == g
    assert Multigraph(g.vertices, reversed(list(old.edges.items()))) == g


def old_form(g: Multigraph) -> DictMultigraph:
    return DictMultigraph(g.vertices, list(g.edges.items()))


def check_same_morphism(m: GraphMorphism):
    """The kept maps read as the dict copies did, and the dict form accepts
    them too."""
    old = DictMorphism(old_form(m.source), old_form(m.target), as_dict(m.vertex_map),
                       as_dict(m.edge_map))
    assert {v: m.vertex_map[v] for v in m.source.vertices} == old.vertex_map
    assert {e: m.edge_map[e] for e in m.source.edges} == old.edge_map


def check_cover(cover):
    check_same_graph(cover.graph, old_form(cover.graph))
    check_same_graph(cover.base, old_form(cover.base))
    check_same_morphism(cover.projection)
    q = quotient(cover.action)
    check_same_graph(q.quotient, old_form(q.quotient))
    check_same_morphism(q.projection)
    for x in cover.base.vertices:
        fiber = fiber_subgraph(cover, x)
        check_same_graph(fiber, old_form(fiber))


# -- every cover and maximal graph in the suites -------------------------------------


def test_figure_covers_match_the_dict_storage():
    covers = figure_covers()
    assert len(covers) == 8
    for cover in covers:
        check_cover(cover)


def test_criterion_4_covers_match_the_dict_storage(catalog):
    covers = list(criterion_4_covers(catalog))
    assert len(covers) == 200
    for cover in covers:
        check_cover(cover)


def test_psl2_maximal_covers_match_the_dict_storage():
    covers = maximal_covers()
    assert {c.group.order() for c in covers} == {168, 1092}
    for cover in covers:
        check_cover(cover)


@cache
def s3_maximal():
    return build_maximal(symmetric(3), (1, 0, 2), (1, 2, 0))


def test_maximal_cover_keeps_no_tuple_per_edge_or_vertex():
    for cover in [s3_maximal().cover, *maximal_covers()]:
        g = cover.graph
        n, m = len(g.vertices), len(g.edges)
        assert g._vertices == range(n) and g._edge_ids == range(m)
        assert g._vpos is None and g._erank is None
        for flat, size in ((g._ends, 2 * m), (g._darts, 2 * m), (g._offsets, n + 1)):
            assert type(flat) is array and flat.typecode == "i" and len(flat) == size
        assert g._components == (range(n),)
        m_vertex, m_edge = cover.projection.vertex_map, cover.projection.edge_map
        assert m_vertex == [0] * n and m_edge == [None] * m
        assert cover.fiber_edges[0] is g.dart_bases()


def test_morphism_maps_are_kept_not_copied():
    a = s3_maximal().action
    g, base = a.graph, Multigraph([0], [])
    vm, em = [0] * len(g.vertices), [None] * len(g.edges)
    m = GraphMorphism(g, base, vm, em)
    assert m.vertex_map is vm and m.edge_map is em
    vm, em = dict.fromkeys(g.vertices, 0), dict.fromkeys(g.edges)
    m = GraphMorphism(g, base, vm, em)
    assert m.vertex_map is vm and m.edge_map is em
    q = quotient(a)
    assert q.projection.vertex_map is a._vertex_orbit_no


# -- hypothesis multigraphs -------------------------------------------------------------

ID_KINDS = ["dense", "shuffled", "gaps", "negative", "huge"]


def draw_ids(draw, kind, n):
    if kind == "dense":
        return list(range(n))
    if kind == "shuffled":
        return draw(st.permutations(range(n)))
    low = {"gaps": 0, "negative": -40, "huge": 2**31}[kind]
    return draw(st.lists(st.integers(low, low + 50), min_size=n, max_size=n, unique=True))


@st.composite
def graph_inputs(draw, max_vertices=7, max_edges=10):
    """(vertices, [(edge id, (u, v))]) of a loopless multigraph, the edges
    in any order."""
    n = draw(st.integers(0, max_vertices))
    vertices = draw_ids(draw, draw(st.sampled_from(ID_KINDS)), n)
    m = draw(st.integers(0, max_edges)) if n >= 2 else 0
    ids = draw_ids(draw, draw(st.sampled_from(ID_KINDS)), m)
    pair = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True) if m else None
    edges = [(e, tuple(draw(pair))) for e in ids]
    return vertices, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(graph_inputs())
def test_hypothesis_multigraphs_match_the_dict_storage(inputs):
    vertices, edges = inputs
    g = Multigraph(vertices, edges)
    old = DictMultigraph(vertices, edges)
    check_same_graph(g, old)
    assert Multigraph(vertices, dict(edges)) == g
    if sorted(e for e, _ in edges) == list(range(len(edges))):
        flat = [x for _, uv in sorted(edges) for x in uv]
        assert Multigraph(vertices, ends=flat) == g
    check_same_morphism(identity_morphism(g))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), inputs=graph_inputs())
def test_corrupted_graph_input_raises_the_same_error(data, inputs):
    vertices, edges = inputs
    extra = max(vertices, default=0) + 1
    vertices = data.draw(st.sampled_from([vertices, [*vertices, *vertices[:1]]]))
    points = st.sampled_from([*vertices, extra, -1]) if vertices else st.just(extra)
    if edges:
        r = data.draw(st.integers(0, len(edges) - 1))
        e, (u, v) = edges[r]
        e = data.draw(st.sampled_from([e, edges[0][0]]))
        u, v = data.draw(st.sampled_from([(u, v), (u, u), (u, data.draw(points))]))
        edges = [*edges[:r], (e, (u, v)), *edges[r + 1:]]
    got, expected = outcome(lambda: Multigraph(vertices, edges)), outcome(
        lambda: DictMultigraph(vertices, edges))
    assert got[1] == expected[1]
    if sorted(e for e, _ in edges) == list(range(len(edges))):
        flat = [x for _, uv in sorted(edges) for x in uv]
        expected = outcome(lambda: DictMultigraph(vertices, sorted(edges)))
        assert outcome(lambda: Multigraph(vertices, ends=flat))[1] == expected[1]


CORRUPTIONS = ["none", "vertex missing", "vertex outside", "edge missing", "edge vertical",
               "edge unknown", "edge elsewhere"]


@st.composite
def morphism_inputs(draw):
    """A source graph, a target graph and the maps of a morphism between
    them, with at most one image then removed or changed."""
    source_vertices, source_edges = draw(graph_inputs())
    source_edges = sorted(source_edges)
    target_vertices = draw_ids(draw, draw(st.sampled_from(ID_KINDS)), draw(st.integers(2, 4)))
    vertex_map = {v: draw(st.sampled_from(target_vertices)) for v in source_vertices}
    # one or two target edges over each pair of images that a source edge joins
    pairs = sorted({tuple(sorted((vertex_map[u], vertex_map[v]))) for _, (u, v) in source_edges}
                   - {(x, x) for x in target_vertices})
    over = [pair for pair in pairs for _ in range(draw(st.integers(1, 2)))]
    ids = draw_ids(draw, draw(st.sampled_from(ID_KINDS)), len(over))
    target_edges = [(e, draw(st.permutations(pair))) for e, pair in zip(ids, over)]
    joining = {}
    for te, (a, b) in target_edges:
        joining.setdefault(frozenset((a, b)), []).append(te)
    edge_map = {}
    for e, (u, v) in source_edges:
        f1, f2 = vertex_map[u], vertex_map[v]
        edge_map[e] = None if f1 == f2 else draw(st.sampled_from(joining[frozenset((f1, f2))]))
    kind = draw(st.sampled_from(CORRUPTIONS))
    outside = max(target_vertices) + 1
    if kind.startswith("vertex") and vertex_map:
        v = draw(st.sampled_from(sorted(vertex_map)))
        if kind == "vertex missing":
            del vertex_map[v]
        else:
            vertex_map[v] = outside
    elif kind.startswith("edge") and edge_map:
        # an edge whose ends map apart, where there is one
        apart = sorted(e for e, img in edge_map.items() if img is not None)
        e = draw(st.sampled_from(apart or sorted(edge_map)))
        if kind == "edge missing":
            del edge_map[e]
        elif kind == "edge vertical":
            edge_map[e] = None
        elif kind == "edge unknown":
            edge_map[e] = max(ids, default=0) + 1
        else:  # an edge over another pair, if any
            ends = {vertex_map[y] for y in dict(source_edges)[e]}
            others = [te for te, pair in target_edges if set(pair) != ends]
            if others:
                edge_map[e] = draw(st.sampled_from(others))
    return (source_vertices, source_edges), (target_vertices, target_edges), vertex_map, edge_map


def as_list(m: dict, ids):
    """The dict map as a list indexed by id, when its keys are 0..n-1 and
    the ids are too."""
    if sorted(m) == list(range(len(m))) and sorted(ids) == list(range(len(ids))):
        return [m[x] for x in range(len(m))]
    return None


@settings(max_examples=400, deadline=None)
@given(morphism_inputs())
def test_hypothesis_morphisms_raise_the_same_error(inputs):
    (sv, se), (tv, te), vertex_map, edge_map = inputs
    source, target = Multigraph(sv, se), Multigraph(tv, te)
    old_source, old_target = DictMultigraph(sv, se), DictMultigraph(tv, te)
    expected = outcome(lambda: DictMorphism(old_source, old_target, vertex_map, edge_map))[1]
    forms = [(vertex_map, edge_map)]
    vm_list, em_list = as_list(vertex_map, sv), as_list(edge_map, [e for e, _ in se])
    forms += [(vm, em) for vm in (vertex_map, vm_list) for em in (edge_map, em_list)
              if vm is not None and em is not None and (vm, em) != (vertex_map, edge_map)]
    for vm, em in forms:
        got, error = outcome(lambda: GraphMorphism(source, target, vm, em))
        assert error == expected
        if got is not None:
            assert got.vertex_map is vm and got.edge_map is em
            check_same_morphism(got)


@pytest.mark.parametrize(
    "maps",
    [
        ([0, 0], [None] * 3),  # vertex 2 has no image
        ([0, 0, 0], [None] * 2),  # edge 2 has no image
        ([0, 0, 5], [None] * 3),  # vertex 2 maps outside
        ([0, 1, 0], [None] * 3),  # edge 0 marked vertical
        ([0, 1, 2], [0, 1, 7]),  # edge 2 maps to an unknown edge
        ([0, 0, 0], [0, None, None]),  # edge 0 collapses
        ([0, 1, 2], [0, 1, 0]),  # edge 2's image does not join its images
    ],
)
def test_list_maps_name_the_first_bad_id(maps):
    source = Multigraph(range(3), ends=[0, 1, 1, 2, 2, 0])
    target = Multigraph(range(3), ends=[0, 1, 1, 2])
    old = DictMultigraph(range(3), {0: (0, 1), 1: (1, 2), 2: (2, 0)})
    dict_maps = [dict(enumerate(m)) for m in maps]
    expected = outcome(lambda: DictMorphism(old, old_form(target), *dict_maps))
    assert expected[1] is not None
    assert outcome(lambda: GraphMorphism(source, target, *maps))[1] == expected[1]


def test_odd_flat_ends_are_a_graph_error():
    with pytest.raises(GraphError, match="odd length 3"):
        Multigraph(range(2), ends=[0, 1, 0])
