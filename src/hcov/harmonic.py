"""Group actions on multigraphs: faithfulness, quotients, the dart-freeness
harmonicity criterion, flipped edges, and flip/unflip model conversion.

An action is specified by the images of the group's generators only; the
action of an arbitrary element is derived by factoring it into a generator
word through the stabilizer chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hcov.errors import ActionError, MorphismError
from hcov.kernel import mulclose, perm_inv, perm_mul, perm_order
from hcov.multigraph import Dart, GraphMorphism, Multigraph
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    Subgroup,
    group_from_spec,
    schreier_orbit,
)


def _apply_word(word, maps, inv_maps, x):
    """Apply a generator word (rightmost factor first) to a point."""
    for i, inv in reversed(word):
        x = inv_maps[i][x] if inv else maps[i][x]
    return x


def _maps(orbit, g, x, y) -> bool:
    """True iff g maps x to y, orbit being the (chain of Stab_G(p),
    transversal) pair of x's orbit: with x = u_x p and y = u_y p, iff y lies
    in the orbit and u_y^-1 g u_x lies in Stab_G(p)."""
    stab, transversal = orbit
    u_y = transversal.get(y)
    return u_y is not None and stab.contains(
        perm_mul(perm_inv(u_y), perm_mul(g, transversal[x]))
    )


def _orbits(orbit_of) -> list:
    """The distinct (chain, transversal) pairs of a point -> orbit map, by
    least point; a transversal's first key is its orbit's least point."""
    return [orbit for x, orbit in orbit_of.items() if next(iter(orbit[1])) == x]


def _action_field(data, *path):
    """The value at a path of keys in an action's JSON."""
    for key in path:
        if not isinstance(data, dict) or key not in data:
            raise ActionError(f"action JSON: missing field {'.'.join(path)!r}")
        data = data[key]
    return data


def _image_map(data, *path):
    """A generator's image map in an action's JSON, as a dict of ints."""
    images = _action_field(data, *path)
    name = ".".join(path)
    if not isinstance(images, dict):
        raise ActionError(f"action JSON: {name!r} must be an object, got {images!r}")
    out = {}
    for key, img in images.items():
        try:
            point = int(key)
        except ValueError:
            raise ActionError(f"action JSON: {name!r} has a non-integer key {key!r}") from None
        if not isinstance(img, int):
            raise ActionError(f"action JSON: '{name}.{key}' must be an integer, got {img!r}")
        out[point] = img
    return out


class GraphAction:
    """A group acting by automorphisms on a multigraph.

    vertex_images/edge_images hold one dict per group generator. The
    constructor verifies, exactly and at any group order, that the generator
    images define a genuine action and that it is faithful on every
    connected component. Every group computation runs at G's own degree.

    Well-definedness is tested one orbit O of vertices or edges at a time.
    The free group F on the generators acts on O through the maps; with p
    the least point of O, they factor through G on O iff ker(F -> G) lies in
    F_p, that is iff [G : image of F_p] = [F : F_p] = |O|. The image H of F_p
    is generated by the images of its Schreier generators, so the test is
    |H| * |O| = |G|, and once it passes H = Stab_G(p).

    Validation keeps what it computed: vertex_orbit_of and edge_orbit_of
    map every point x to the (chain of Stab_G(p), transversal) pair of its
    orbit, p the orbit's least point and the transversal's first key, u_x
    the transversal element with u_x p = x. Harmonicity, flipped edges,
    flip_all and the quotient by G read them, and whether g maps x to
    y = u_y p is one test (_maps): y lies in x's orbit and u_y^-1 g u_x lies
    in Stab_G(p).

    A kernel element lies in every stabilizer, so only the smallest one is
    enumerated, each member h tested on every point x (h maps x to x). On a
    component (Def 2.3) the kernel is its pointwise stabilizer, and
    components in one orbit are conjugate: one per orbit is tested.
    """

    def __init__(
        self,
        group: PermutationGroup,
        graph: Multigraph,
        vertex_images,
        edge_images,
        require_faithful: bool = True,
    ):
        self.group = group
        self.graph = graph
        self.require_faithful = require_faithful
        self.vertex_images = [dict(m) for m in vertex_images]
        self.edge_images = [dict(m) for m in edge_images]
        if len(self.vertex_images) != len(group.generators) or len(
            self.edge_images
        ) != len(group.generators):
            raise ActionError("need exactly one vertex/edge image map per generator")
        self.inverse_vertex_images = []
        self.inverse_edge_images = []
        self._element_cache = {}
        self._harmonic_report = None
        self._validate_generator_maps()
        self._validate_action()

    # -- construction-time checks ----------------------------------------

    def _validate_generator_maps(self):
        vset = set(self.graph.vertices)
        eset = set(self.graph.edges)
        for i, (vm, em) in enumerate(zip(self.vertex_images, self.edge_images)):
            if set(vm) != vset or set(vm.values()) != vset:
                raise ActionError(f"generator {i}: vertex map is not a bijection")
            if set(em) != eset or set(em.values()) != eset:
                raise ActionError(f"generator {i}: edge map is not a bijection")
            for e, (u, v) in self.graph.edges.items():
                iu, iv = vm[u], vm[v]
                if set(self.graph.ends(em[e])) != {iu, iv}:
                    raise ActionError(
                        f"generator {i}: edge {e} maps to {em[e]} but endpoints map to"
                        f" ({iu}, {iv})"
                    )
            self.inverse_vertex_images.append({b: a for a, b in vm.items()})
            self.inverse_edge_images.append({b: a for a, b in em.items()})

    def _validate_action(self):
        G = self.group
        order = G.order()
        where = []  # per kind: point -> (stabilizer chain, transversal) of its orbit
        for kind, maps, points in (
            ("vertex", self.vertex_images, self.graph.vertices),
            ("edge", self.edge_images, self.graph.edges),
        ):
            found = {}
            for p in sorted(points):
                if p in found:
                    continue
                transversal, schreier = schreier_orbit(p, maps, G.generators, G.identity)
                stab = StabilizerChain(G.degree, schreier)
                if stab.order() * len(transversal) != order:
                    raise ActionError(
                        f"generator images do not define an action: the orbit of {kind} {p}"
                        f" has {len(transversal)} points, but the image of its stabilizer"
                        f" has index {order // stab.order()} in the group"
                    )
                found.update(dict.fromkeys(transversal, (stab, transversal)))
            where.append(found)
        self.vertex_orbit_of, self.edge_orbit_of = where
        if not self.require_faithful:
            return
        points = [(orbit, x) for found in where for x, orbit in found.items()]
        if self._kernel_element(points) is not None:
            raise ActionError("action is not faithful: a non-identity element acts trivially")
        comps = self.graph.connected_components()
        if len(comps) < 2:
            return
        # Def 2.3: the kernel on a component is its pointwise stabilizer;
        # components in one orbit are conjugate, so test one per orbit
        cidx = {v: ci for ci, comp in enumerate(comps) for v in comp}
        comp_edges = [[] for _ in comps]
        for e, (u, _) in self.graph.edges.items():
            comp_edges[cidx[u]].append(e)
        done = set()
        for ci, comp in enumerate(comps):
            if ci in done:
                continue
            done.update(cidx[v] for v in self.vertex_orbit_of[comp[0]][1])
            points = [(self.vertex_orbit_of[v], v) for v in comp]
            points += [(self.edge_orbit_of[e], e) for e in comp_edges[ci]]
            if self._kernel_element(points) is not None:
                raise ActionError(
                    f"action is not faithful on the component of vertex {comp[0]}:"
                    " a non-identity element fixes it pointwise"
                )

    def _kernel_element(self, points):
        """A non-identity member fixing every point of `points`, or None.

        points lists (orbit, x), orbit being the (H, transversal) pair of x's
        orbit. Such a member lies in the stabilizer u H u^-1 (u the
        transversal element of x) of the point x with the largest orbit,
        and it fixes y iff it maps y to y."""
        gens = self.group.generators  # no points: every member fixes them
        if points:
            (stab, transversal), x = max(points, key=lambda pt: len(pt[0][1]))
            u, u_inv = transversal[x], perm_inv(transversal[x])
            # the first level's generators generate the whole of H
            gens = [perm_mul(u, perm_mul(g, u_inv)) for lv in stab.levels[:1] for g, _ in lv.gens]
        for h in mulclose(gens):
            if h != self.group.identity and all(_maps(orbit, h, y, y) for orbit, y in points):
                return h
        return None

    # -- applying elements -------------------------------------------------

    def generator_count(self) -> int:
        return len(self.group.generators)

    def element_action(self, g) -> tuple[dict, dict]:
        """(vertex map, edge map) of an arbitrary group member."""
        g = tuple(g)
        if g not in self._element_cache:
            word = self.group.element_word(g)
            vm = {v: _apply_word(word, self.vertex_images, self.inverse_vertex_images, v)
                  for v in self.graph.vertices}
            em = {e: _apply_word(word, self.edge_images, self.inverse_edge_images, e)
                  for e in self.graph.edges}
            self._element_cache[g] = (vm, em)
        return self._element_cache[g]

    def act_dart(self, g, d: Dart) -> Dart:
        vm, em = self.element_action(g)
        return Dart(em[d.edge], vm[d.base])

    # -- orbits ------------------------------------------------------------

    def edge_orbits(self) -> list:
        """The (stabilizer chain, transversal) pair of each edge orbit,
        ordered by least edge."""
        return _orbits(self.edge_orbit_of)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["group"] = {
            "name": self.group.name,
            "degree": self.group.degree,
            "generators": [list(g) for g in self.group.generators],
        }
        data["vertex_images"] = {
            str(i): {str(v): img for v, img in sorted(m.items())}
            for i, m in enumerate(self.vertex_images)
        }
        data["edge_images"] = {
            str(i): {str(e): img for e, img in sorted(m.items())}
            for i, m in enumerate(self.edge_images)
        }
        return data

    @classmethod
    def from_json(cls, data, catalog=None) -> "GraphAction":
        graph = Multigraph.from_json(data)
        group = group_from_spec(_action_field(data, "group"), catalog)
        k = len(group.generators)
        vmaps = []
        emaps = []
        for i in range(k):
            vmaps.append(_image_map(data, "vertex_images", str(i)))
            emaps.append(_image_map(data, "edge_images", str(i)))
        return cls(group, graph, vmaps, emaps)

    def __repr__(self):
        return f"GraphAction({self.group.name} on {self.graph!r})"


# -- quotients ----------------------------------------------------------------


@dataclass
class QuotientResult:
    """Quotient graph, the projection morphism, and the removed loop-orbits."""

    quotient: Multigraph
    projection: GraphMorphism
    removed_loops: list = field(default_factory=list)


def _orbits_under(points, maps, H: PermutationGroup) -> list[list]:
    """Orbits of the points under the maps of H's generators, each sorted,
    ordered by least point."""
    seen = set()
    orbits = []
    for p in sorted(points):
        if p not in seen:
            transversal, _ = schreier_orbit(p, maps, H.generators, H.identity)
            seen.update(transversal)
            orbits.append(sorted(transversal))
    return orbits


def quotient(a: GraphAction, H: Subgroup | None = None) -> QuotientResult:
    """Quotient of the action by a subgroup (default: the whole group).

    Vertices and edges of the quotient are the H-orbits; edge orbits whose
    endpoints fall into one vertex orbit are removed and recorded.
    """
    if H is None or H is a.group:
        vorbits = [sorted(t) for _, t in _orbits(a.vertex_orbit_of)]
        eorbits = [sorted(t) for _, t in _orbits(a.edge_orbit_of)]
    else:
        for h in H.generators:
            if not a.group.contains(h):
                raise ActionError(f"subgroup generator is not a member of {a.group.name}")
        actions = [a.element_action(h) for h in H.generators]
        vorbits = _orbits_under(a.graph.vertices, [vm for vm, _ in actions], H)
        eorbits = _orbits_under(a.graph.edges, [em for _, em in actions], H)
    vclass = {v: qi for qi, orbit in enumerate(vorbits) for v in orbit}
    removed = []
    emap_proj = {}
    qedges = []
    qi = 0
    for orbit in eorbits:
        u, v = a.graph.ends(orbit[0])
        if vclass[u] == vclass[v]:
            removed.append({"edges": list(orbit), "vertex": vclass[u]})
            for e in orbit:
                emap_proj[e] = None
        else:
            qedges.append((qi, (vclass[u], vclass[v])))
            for e in orbit:
                emap_proj[e] = qi
            qi += 1
    qgraph = Multigraph(range(len(vorbits)), qedges)
    projection = GraphMorphism(a.graph, qgraph, vclass, emap_proj)
    return QuotientResult(qgraph, projection, removed)


def induced_quotient_morphism(a: GraphAction, H: Subgroup, K: Subgroup) -> GraphMorphism:
    """The morphism H\\Y -> K\\Y induced by H <= K."""
    for h in H.generators:
        if not K.contains(h):
            raise MorphismError("H is not contained in K")
    qH = quotient(a, H)
    qK = quotient(a, K)
    vrep = {}
    for v in a.graph.vertices:
        vrep.setdefault(qH.projection.vertex_map[v], v)
    erep = {}
    for e in a.graph.edges:
        img = qH.projection.edge_map[e]
        if img is not None:
            erep.setdefault(img, e)
    vmap = {hv: qK.projection.vertex_map[vrep[hv]] for hv in qH.quotient.vertices}
    emap = {he: qK.projection.edge_map[erep[he]] for he in qH.quotient.edges}
    return GraphMorphism(qH.quotient, qK.quotient, vmap, emap)


# -- harmonicity ----------------------------------------------------------------


@dataclass
class ActionHarmonicityReport:
    """Dart-freeness verdict; on failure, a stabilized dart and the element."""

    harmonic: bool
    witness_dart: Dart | None = None
    witness_element: tuple | None = None

    def __bool__(self):
        return self.harmonic


def is_harmonic_action(a: GraphAction) -> ActionHarmonicityReport:
    """True iff no non-identity element fixes a dart (stabilizers of directed
    edges are trivial).

    Per edge orbit with a non-trivial stabilizer H of its least edge e = {u0,
    v0}: a generator of H fixing u0 fixes a dart; one swapping u0 and v0
    with order above 2 has a square fixing both; if all are such involutions
    and |H| > 2, the product of two of them fixes both ends."""
    if a._harmonic_report is not None:
        return a._harmonic_report
    report = ActionHarmonicityReport(True)
    for stab, transversal in a.edge_orbits():
        if stab.order() == 1:
            continue
        rep = next(iter(transversal))
        u0 = a.graph.ends(rep)[0]
        # the first level's generators generate the whole stabilizer
        gens = [g for g, _ in stab.levels[0].gens]
        witness = None
        for g in gens:
            if _maps(a.vertex_orbit_of[u0], g, u0, u0):
                witness = g
                break
            if perm_order(g) != 2:
                witness = perm_mul(g, g)
                break
        if witness is None and stab.order() > 2:
            first, second = sorted(gens)[:2]
            witness = perm_mul(first, second)
        if witness is not None:
            report = ActionHarmonicityReport(False, Dart(rep, u0), witness)
            break
    a._harmonic_report = report
    return report


def harmonic_by_subgroup_quotients(a: GraphAction, max_order: int = 48):
    """Literal harmonicity: every subgroup quotient morphism is harmonic.

    Exhaustive over all subgroups; the independent cross-check for the
    dart-freeness criterion. Returns (verdict, failing subgroup or None).
    """
    from hcov.multigraph import is_harmonic as morphism_is_harmonic
    from hcov.permgroup import all_subgroups

    for H in all_subgroups(a.group, max_order):
        q = quotient(a, H)
        if not q.quotient.vertices:
            continue
        if not q.quotient.is_connected():
            continue
        if not morphism_is_harmonic(q.projection):
            return False, H
    return True, None


# -- flipped edges and model conversion ------------------------------------------


def flipped_edges(a: GraphAction) -> set:
    """Edges whose undirected stabilizer has order 2 (harmonic actions only)."""
    if not is_harmonic_action(a):
        raise ActionError("flipped_edges requires a harmonic action")
    out = set()
    for stab, transversal in a.edge_orbits():
        if stab.order() == 2:
            out.update(transversal)
    return out


def unflip(a: GraphAction) -> GraphAction:
    """Replace each flipped edge by a parallel pair interchanged by its
    stabilizing involution; the result is harmonic with no flipped edges."""
    if not is_harmonic_action(a):
        raise ActionError("unflip requires a harmonic action")
    flipped = flipped_edges(a)
    if not flipped:
        return a
    graph = a.graph
    next_id = max(graph.edges) + 1
    children = {}  # flipped edge -> {base_vertex: child id}
    edges = []
    for e in sorted(graph.edges):
        u, v = graph.ends(e)
        if e in flipped:
            children[e] = {u: next_id, v: next_id + 1}
            edges.append((next_id, (u, v)))
            edges.append((next_id + 1, (u, v)))
            next_id += 2
        else:
            edges.append((e, (u, v)))
    new_graph = Multigraph(graph.vertices, edges)
    new_edge_images = []
    for i in range(a.generator_count()):
        vm = a.vertex_images[i]
        em = a.edge_images[i]
        new_em = {}
        for e in graph.edges:
            if e in flipped:
                img = em[e]
                for base, child in children[e].items():
                    new_em[child] = children[img][vm[base]]
            else:
                new_em[e] = em[e]
        new_edge_images.append(new_em)
    out = GraphAction(a.group, new_graph, a.vertex_images, new_edge_images)
    if not is_harmonic_action(out):
        raise ActionError("unflip produced a non-harmonic action")
    if flipped_edges(out):
        raise ActionError("unflip left flipped edges behind")
    if graph.is_connected() and new_graph.genus() != graph.genus() + len(flipped):
        raise ActionError("unflip did not add one to the genus per flipped edge")
    return out


def flip_all(a: GraphAction, skip_orbits=()) -> GraphAction:
    """Collapse every orbit of flippable parallel pairs to flipped edges.

    A pair {e, e'} is flippable when some involution maps e to the parallel
    edge e' while swapping the shared endpoints; collapsing is all-or-nothing
    per orbit. Orbits whose representative edge id is listed in skip_orbits
    are left alone (extension beyond the unique-unflipped-model statement).
    Inverse of unflip on its image.
    """
    if not is_harmonic_action(a):
        raise ActionError("flip_all requires a harmonic action")
    if flipped_edges(a):
        raise ActionError("flip_all expects an unflipped action")
    graph = a.graph
    G = a.group
    pair_maps = [_OnPairs(em) for em in a.edge_images]
    pair_of = {}
    for _, transversal in a.edge_orbits():
        rep = next(iter(transversal))
        if rep in skip_orbits:
            continue
        u0, v0 = graph.ends(rep)
        partners = [
            e for e in sorted(transversal)
            if e != rep and set(graph.ends(e)) == {u0, v0} and perm_order(transversal[e]) == 2
            and _maps(a.vertex_orbit_of[u0], transversal[e], u0, v0)
        ]
        if not partners:
            continue
        # edge stabilizers are trivial here, so the orbit of the pair pairs
        # each edge u rep with u partner
        pairs, _ = schreier_orbit((rep, partners[0]), pair_maps, G.generators, G.identity)
        pairing = {e: f for e, f in pairs}
        for e, f in pairing.items():
            if pairing.get(f) != e or f == e:
                raise ActionError("flip pairing is not a perfect matching")
        pair_of.update(pairing)
    if not pair_of:
        return a
    edges = []
    merged = {}  # old edge -> new edge id
    for e in sorted(graph.edges):
        if e in merged:
            continue
        if e in pair_of:
            f = pair_of[e]
            keep = min(e, f)
            merged[e] = keep
            merged[f] = keep
            edges.append((keep, graph.ends(keep)))
        else:
            merged[e] = e
            edges.append((e, graph.ends(e)))
    new_graph = Multigraph(graph.vertices, edges)
    new_edge_images = []
    for i in range(a.generator_count()):
        em = a.edge_images[i]
        new_em = {}
        for new_e in new_graph.edges:
            new_em[new_e] = merged[em[new_e]]
        new_edge_images.append(new_em)
    out = GraphAction(a.group, new_graph, a.vertex_images, new_edge_images)
    if not is_harmonic_action(out):
        raise ActionError("flip_all produced a non-harmonic action")
    return out


class _OnPairs:
    """An edge map applied to both entries of a pair of edges."""

    __slots__ = ("edge_map",)

    def __init__(self, edge_map):
        self.edge_map = edge_map

    def __getitem__(self, pair):
        e, f = pair
        return self.edge_map[e], self.edge_map[f]
