import json
import random
from importlib.resources import files

import pytest

from hcov.errors import GroupError, MorphismError
from hcov.harmonic import GraphAction, quotient
from hcov.kernel import mulclose
from hcov.multigraph import GraphMorphism, Multigraph, is_harmonic, map_items
from hcov.oriented import OrientedGraph
from hcov.permgroup import PermutationGroup, Subgroup, load_default_catalog


def load_figure(name: str) -> dict:
    return json.loads(files("hcov").joinpath(f"data/figures/{name}").read_text())


def as_dict(m) -> dict:
    """A copy of a map kept as given (a GraphAction image map or a
    GraphMorphism map) as a dict: a sequence is indexed by id."""
    return dict(map_items(m))


def as_dicts(image_maps) -> list:
    """Copies of a GraphAction's image maps as dicts."""
    return [as_dict(m) for m in image_maps]


def fiber_subgraph(cover, x) -> Multigraph:
    """The fiber over x with its vertical edges, read off the projection:
    the oracle for the fiber_edges that the ramification profile reads."""
    ends, over = cover.graph.edges, cover.projection.vertex_map
    vertical = sorted(
        e for e, img in map_items(cover.projection.edge_map)
        if img is None and over[ends[e][0]] == x
    )
    return Multigraph(cover.fiber_index[x], [(e, ends[e]) for e in vertical])


def fiber_graph(fiber) -> Multigraph:
    """The graph of a fiber (a galois.LabeledAction) on its coset ids."""
    ends = fiber.ends
    return Multigraph(range(len(fiber.reps)), zip(fiber.edges, zip(ends[0::2], ends[1::2])))


def fiber_images(fiber) -> tuple[list, list]:
    """A fiber's vertex and edge image maps, one dict per generator of its
    group, read off the element index's left multiplications."""
    of, n, left = fiber.vertex_of, len(fiber.vertex_of), fiber.group.element_index().left
    vertex_images = [{c: of[lk[r]] for c, r in enumerate(fiber.reps)} for lk in left]
    edge_images = [{e: e - e % n + lk[e % n] for e in fiber.edges} for lk in left]
    return vertex_images, edge_images


def fiber_action(fiber, faithful: bool) -> GraphAction:
    """The per-fiber validation that build_cover leaves to the total action:
    a GraphAction on the fiber's own graph and image maps. A Cayley fiber is
    faithful; a collapsed one need not be."""
    return GraphAction(
        fiber.group, fiber_graph(fiber), *fiber_images(fiber), require_faithful=faithful
    )


def identity_morphism(g: Multigraph) -> GraphMorphism:
    """The identity of g, its maps in the form GraphMorphism keeps."""
    vm = g.vertices if g._vpos is None else {v: v for v in g.vertices}
    em = g._edge_ids if g._erank is None else {e: e for e in g._edge_ids}
    return GraphMorphism(g, g, vm, em)


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


def dart_element(mc) -> dict:
    """Dart -> element tuple of a maximal cover, read from its dart ids."""
    darts, index = mc.graph.darts(), mc.group.element_index()
    return {darts[d]: index.element(i) for i, d in enumerate(mc.dart_ids())}


def element_dart(mc) -> dict:
    """Element tuple -> dart of a maximal cover."""
    return {g: d for d, g in dart_element(mc).items()}


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
