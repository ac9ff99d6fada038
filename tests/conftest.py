import json
import random
from importlib.resources import files

import pytest

from hcov.errors import MorphismError
from hcov.harmonic import GraphAction
from hcov.multigraph import GraphMorphism, Multigraph, is_harmonic, map_items
from hcov.oriented import OrientedGraph
from hcov.permgroup import load_default_catalog


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
    vertical = [e for e in cover.projection.vertical_edges if over[ends[e][0]] == x]
    return Multigraph(cover.fiber_index[x], [(e, ends[e]) for e in vertical])


def fiber_action(fiber, faithful: bool) -> GraphAction:
    """The per-fiber validation that build_cover leaves to the total action:
    a GraphAction on the fiber's own graph and image maps. A Cayley fiber is
    faithful; a collapsed one need not be."""
    return GraphAction(
        fiber.group, fiber.graph, fiber.vertex_images, fiber.edge_images,
        require_faithful=faithful,
    )


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
