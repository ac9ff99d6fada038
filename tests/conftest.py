import json
import random
from importlib.resources import files

import pytest

from hcov.errors import GroupError, MorphismError
from hcov.galois import cayley
from hcov.harmonic import GraphAction, quotient
from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul
from hcov.multigraph import Dart, GraphMorphism, Multigraph, is_harmonic, map_items
from hcov.oriented import OrientedGraph
from hcov.permgroup import (
    Cosets,
    PermutationGroup,
    StabilizerChain,
    Subgroup,
    _generates_order,
    _OrderProbe,
    _OrderReached,
    cycle_string,
    left_cosets,
    load_default_catalog,
    psl2,
    schreier_orbit,
    search_23_pairs,
)


def load_figure(name: str) -> dict:
    return json.loads(files("hcov").joinpath(f"data/figures/{name}").read_text())


def as_dict(m) -> dict:
    """A copy of a map kept as given (a GraphAction image map or a
    GraphMorphism map) as a dict: a sequence is indexed by id."""
    return dict(map_items(m))


def as_dicts(image_maps) -> list:
    """Copies of a GraphAction's image maps as dicts."""
    return [as_dict(m) for m in image_maps]


def fiber_vertices(cover, x) -> list:
    """The vertices over the base vertex x, read off the projection."""
    over = cover.projection.vertex_map
    return [y for y in cover.graph.vertices if over[y] == x]


def fiber_subgraph(cover, x) -> Multigraph:
    """The fiber over x with its vertical edges, read off the projection:
    the oracle for the union_find that the ramification profile runs."""
    ends, over = cover.graph.edges, cover.projection.vertex_map
    vertical = sorted(
        e for e, img in map_items(cover.projection.edge_map)
        if img is None and over[ends[e][0]] == x
    )
    return Multigraph(fiber_vertices(cover, x), [(e, ends[e]) for e in vertical])


def cayley_fiber(G, S) -> tuple:
    """(cosets, ends) of the Cayley graph of G on S: the cosets of the
    trivial subgroup, on whose ids galois.cayley gives the edge ends."""
    return Cosets(G.element_index(), ()), cayley(G, S)


def fiber_graph(cosets, ends) -> Multigraph:
    """The graph of a fiber on its coset ids, from the flat edge ends that
    galois.collapse gives."""
    return Multigraph(range(len(cosets)), enumerate(zip(ends[0::2], ends[1::2])))


def fiber_images(cosets, ends) -> tuple[list, list]:
    """A fiber's vertex and edge image maps, one dict per generator of its
    group, read off the element index's left multiplications."""
    of, n, left = cosets.of, len(cosets.of), cosets.index.left
    vertex_images = [{c: of[lk[r]] for c, r in enumerate(cosets.reps)} for lk in left]
    edge_images = [{e: e - e % n + lk[e % n] for e in range(len(ends) // 2)} for lk in left]
    return vertex_images, edge_images


class UnfaithfulAction(GraphAction):
    """A GraphAction validated as an action but not for faithfulness: a
    collapsed fiber need not be faithful."""

    def _kernel_element(self, vertices, edges, start):
        return None


def fiber_action(cosets, ends, faithful: bool) -> GraphAction:
    """The per-fiber validation that build_cover leaves to the total action:
    a GraphAction on the fiber's own graph and image maps. A Cayley fiber is
    faithful; a collapsed one need not be."""
    kind = GraphAction if faithful else UnfaithfulAction
    return kind(cosets.index.group, fiber_graph(cosets, ends), *fiber_images(cosets, ends))


def morphism_from_json(data) -> GraphMorphism:
    """The GraphMorphism of a GraphMorphism.to_json payload, as the
    fig1_phi*.json figures hold it."""
    vertex_map = {int(k): v for k, v in data["vertex_map"].items()}
    edge_map = {int(k): v for k, v in data["edge_map"].items()}
    return GraphMorphism(Multigraph.from_json(data["source"]),
                         Multigraph.from_json(data["target"]), vertex_map, edge_map)


def other_end(g: Multigraph, e, v):
    """The end of the edge e other than the vertex v, which must be one of
    its ends."""
    a, b = g.ends(e)
    assert v in (a, b), f"vertex {v} is not an end of edge {e}"
    return b if v == a else a


def reverse_dart(g: Multigraph, d: Dart) -> Dart:
    """The dart of d's edge at its other end."""
    return Dart(d.edge, other_end(g, d.edge, d.base))


def nx_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Whether networkx finds the two graphs isomorphic as multigraphs,
    parallel edges counted: an oracle that this package did not write. The
    calling test is skipped where networkx is not installed."""
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.MultiGraph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges.values())
        return h

    return nx.is_isomorphic(as_nx(g1), as_nx(g2))


def identity_morphism(g: Multigraph) -> GraphMorphism:
    """The identity of g, its maps in the form GraphMorphism keeps."""
    vm = g.vertices if g._vpos is None else {v: v for v in g.vertices}
    em = g._edge_ids if g._erank is None else {e: e for e in g._edge_ids}
    return GraphMorphism(g, g, vm, em)


def perm_pow(p, k):
    """k-th power of p by repeated squaring, k may be negative."""
    if k < 0:
        p, k = perm_inv(p), -k
    out = perm_id(len(p))
    while k:
        if k & 1:
            out = perm_mul(out, p)
        p = perm_mul(p, p)
        k >>= 1
    return out


def generates(G: PermutationGroup, elems) -> bool:
    """True iff the given members generate the whole group: the
    membership-checking oracle of the generation tests, GroupError naming a
    non-member."""
    elems = [tuple(p) for p in elems]
    for p in elems:
        if not G.contains(p):
            raise GroupError(f"{cycle_string(p)} is not a member of {G.name}")
    return _generates_order(G.degree, elems, G.order())


class RebuiltChain(StabilizerChain):
    """The stabilizer chain whose levels close by rebuilding: each added
    generator walks the level's whole orbit again and sifts every Schreier
    generator of it. The oracle of the incremental closure."""

    def _close_level(self, level):
        lv = self.levels[level]
        lv.transversal, schreier = schreier_orbit(
            lv.point, lv.gens, lv.gens, perm_id(self.degree)
        )
        if self._stop_at is not None and self.order() >= self._stop_at:
            raise _OrderReached
        lv.inverse = {c: perm_inv(u) for c, u in lv.transversal.items()}
        for s in schreier:
            if self._sift(s, level + 1) is not None:
                self._install(level + 1, s)


class _RebuiltProbe(RebuiltChain, _OrderProbe):
    pass


def rebuilt_generates_order(degree, gens, order) -> bool:
    """_generates_order on a RebuiltChain."""
    try:
        return _RebuiltProbe(degree, gens, order).order() == order
    except _OrderReached:
        return True


def all_subgroups(G: PermutationGroup, max_order: int = 48) -> list[Subgroup]:
    """Every subgroup of G, as Subgroup objects; exhaustive, |G| <= max_order."""
    if G.order() > max_order:
        raise GroupError(f"subgroup enumeration capped at order {max_order}")
    elements = G.elements()
    subgroups = {}  # frozenset of elements -> generating tuple
    ident = G.identity
    subgroups[frozenset([ident])] = ()
    for p in elements:
        if p == ident:
            continue
        cyc = frozenset(mulclose([p]))
        subgroups.setdefault(cyc, (p,))
    frontier = list(subgroups.items())
    while frontier:
        new = []
        for els, gens in frontier:
            for p in elements:
                if p in els or p == ident:
                    continue
                bigger = frozenset(mulclose(list(gens) + [p]))
                if bigger not in subgroups:
                    subgroups[bigger] = gens + (p,)
                    new.append((bigger, gens + (p,)))
        frontier = new
    out = [G.subgroup(gens) for els, gens in subgroups.items()]
    out.sort(key=lambda H: (H.order(), H.elements()))
    return out


def harmonic_by_subgroup_quotients(a: GraphAction, max_order: int = 48):
    """Literal harmonicity: every subgroup quotient morphism is harmonic.

    Exhaustive over all subgroups; the independent cross-check for the
    dart-freeness criterion. Returns (verdict, failing subgroup or None).
    """
    for H in all_subgroups(a.group, max_order):
        q = quotient(a, H)
        if not q.quotient.vertices:
            continue
        if not q.quotient.is_connected():
            continue
        if not is_harmonic(q.projection):
            return False, H
    return True, None


def map_darts(og: OrientedGraph) -> list:
    """The Dart of every dart id of a map."""
    return list(map(Dart, og.edge, og.base))


def dart_element(mc) -> dict:
    """Dart -> element tuple of a maximal cover: dart i is element i."""
    index = mc.group.element_index()
    return {d: index.element(i) for i, d in enumerate(map_darts(mc.map))}


def element_dart(mc) -> dict:
    """Element tuple -> dart of a maximal cover."""
    return {g: d for d, g in dart_element(mc).items()}


def coset_orientation(mc) -> OrientedGraph:
    """The canonical orientation on the positions of graph.darts(), the
    oracle of the maximal cover's map: the cosets of <sigma> and <tau>
    relabel element i to the dart at its coset i<sigma> of edge i<tau>, and
    right multiplication by sigma is carried over to those positions."""
    G = mc.group
    vof = left_cosets(G, G.subgroup([mc.sigma])).of
    ecos = left_cosets(G, G.subgroup([mc.tau]))
    # edge c has rank c and ends (r<sigma>, r*tau<sigma>) for its least
    # member r: element i of edge c is dart 2c at r<sigma>, else 2c + 1
    first = [vof[r] for r in ecos.reps]
    dart = [2 * c + (v != first[c]) for c, v in zip(ecos.of, vof)]
    rot = [-1] * len(dart)
    for i, j in enumerate(G.element_index().right(mc.sigma)):
        rot[dart[i]] = dart[j]
    return OrientedGraph(mc.graph, rot)


def sweep_pairs(catalog):
    """Every class-representative (2,3)-pair of every catalog group of order
    at most 60, and of PSL(2,7) and PSL(2,13)."""
    groups = [G for G in catalog.groups if G.order() <= 60] + [psl2(7), psl2(13)]
    return [(G, tau, sigma) for G in groups for tau, sigma in search_23_pairs(G).pairs]


def random_rotation(graph: Multigraph, rng: random.Random) -> OrientedGraph:
    """Uniformly random rotation system on a 3-regular graph."""
    rot = [-1] * (2 * len(graph.edges))
    for own in graph.vertex_darts().values():
        rng.shuffle(own)
        for a, b in zip(own, own[1:] + own[:1]):
            rot[a] = b
    return OrientedGraph(graph, rot)


def compose(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """Composite morphism outer∘inner (inner applied first)."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise MorphismError("morphisms are not composable")
    vmap = {v: outer.vertex_map[img] for v, img in map_items(inner.vertex_map)}
    emap = {}
    for e, img in map_items(inner.edge_map):
        emap[e] = None if img is None else outer.edge_map[img]
    return GraphMorphism(inner.source, outer.target, vmap, emap)


def morphism_degree(m: GraphMorphism) -> int:
    """Degree of a harmonic morphism.

    For a target with more than one vertex this is the preimage count of any
    target edge (checked to be independent of the edge); for the point graph
    it is the number of source vertices.
    """
    if not m.target.is_connected():
        raise MorphismError("degree requires a connected target")
    if not is_harmonic(m):
        raise MorphismError("degree is defined for harmonic morphisms only")
    if len(m.target.vertices) == 1:
        return len(m.source.vertices)
    counts = {te: 0 for te in m.target.edges}
    for e, img in map_items(m.edge_map):
        if img is not None:
            counts[img] += 1
    values = sorted(set(counts.values()))
    if len(values) != 1:
        raise MorphismError(
            f"preimage counts differ across target edges ({values}); input is not harmonic"
        )
    return values[0]


@pytest.fixture(scope="session")
def catalog():
    return load_default_catalog()
