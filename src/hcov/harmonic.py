"""Group actions on multigraphs: faithfulness, quotients, the dart-freeness
harmonicity criterion, flipped edges, and flip/unflip model conversion.

An action is specified by the images of the group's generators only; the
action of an arbitrary element is derived by factoring it into a generator
word through the stabilizer chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hcov.errors import ActionError, MorphismError
from hcov.kernel import perm_inv, perm_mul, perm_order
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


class GraphAction:
    """A group acting by automorphisms on a multigraph.

    vertex_images/edge_images hold one dict per group generator. The
    constructor verifies, exactly and at any group order, that the generator
    images define a genuine action and that it is faithful on every
    connected component. Both checks work in the extended permutation group
    on group block + vertices + edges. Well-definedness compares its order
    with |G| on a chain whose base lies in the group block. Faithfulness
    looks for a kernel element inside one vertex or edge stabilizer only,
    lifted to the extended degree, on a chain whose base prefers the
    action block.
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
        self._orbit_cache = {}
        self._harmonic_report = None
        self._validate_generator_maps()
        self._build_extended()
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

    def _build_extended(self):
        n = self.group.degree
        self._vpos = {v: n + i for i, v in enumerate(sorted(self.graph.vertices))}
        self._epos = {
            e: n + len(self._vpos) + i for i, e in enumerate(sorted(self.graph.edges))
        }
        self._ext_degree = n + len(self._vpos) + len(self._epos)
        vs = sorted(self._vpos, key=self._vpos.get)
        es = sorted(self._epos, key=self._epos.get)
        self._ext_gens = []
        self._act_gens = []
        for g, vm, em in zip(self.group.generators, self.vertex_images, self.edge_images):
            act = tuple(self._vpos[vm[v]] - n for v in vs) + tuple(
                self._epos[em[e]] - n for e in es
            )
            ext = g + tuple(x + n for x in act)
            self._ext_gens.append(ext)
            self._act_gens.append(act)

    def _validate_action(self):
        # well-definedness: |<ext>| = |G| makes the generator images a genuine
        # homomorphism; the default base takes points from the group block
        # first, so the transversals have group-sized orbits
        order = self.group.order()
        n = self.group.degree
        chain = StabilizerChain(self._ext_degree, self._ext_gens)
        ext_order = chain.order()
        if ext_order != order:
            raise ActionError(
                "generator images do not define an action: extended group has order"
                f" {ext_order}, group has order {order}"
            )
        if not self.require_faithful:
            return
        # faithfulness: the kernel lies in every point stabilizer, so one
        # suffices; in its chain with base points preferred in the action
        # block, a base point inside the group block exposes a nontrivial
        # kernel (an element acting trivially)
        lifted = [self._lift(chain, g) for g in self._point_stabilizer_generators()]
        stab_chain = StabilizerChain(self._ext_degree, lifted, prefer_points_from=n)
        if any(lv.point < n for lv in stab_chain.levels):
            raise ActionError("action is not faithful: a non-identity element acts trivially")
        comps = self.graph.connected_components()
        if len(comps) > 1:
            self._check_componentwise_faithful(comps)

    def _point_stabilizer_generators(self):
        """Generators of the stabilizer of the least vertex or of the least
        edge, whichever has the larger orbit (so the smaller stabilizer);
        those of the whole group when the graph is empty."""
        starts = [s for s, block in ((0, self._vpos), (len(self._vpos), self._epos)) if block]
        if not starts:
            return self.group.generators
        orbits = [
            schreier_orbit(s, self._act_gens, self.group.generators, self.group.identity)
            for s in starts
        ]
        _, schreier = max(orbits, key=lambda orbit: len(orbit[0]))
        chain = StabilizerChain(self.group.degree, schreier)
        # the first level's generators generate the whole stabilizer
        return [g for g, _ in chain.levels[0].gens] if chain.levels else []

    def _lift(self, chain, g):
        """The extended element whose group part is the member g, as a product
        of the well-definedness chain's transversal elements (all of that
        chain's base points lie in the group block)."""
        n = self.group.degree
        ext = tuple(range(self._ext_degree))
        for lv in chain.levels:
            u = lv.transversal[g[lv.point]][0]
            g = perm_mul(perm_inv(u[:n]), g)
            ext = perm_mul(ext, u)
        return ext

    def _check_componentwise_faithful(self, comps):
        """Def-2.3 faithfulness: the setwise stabilizer of every connected
        component must act faithfully on that component."""
        cidx = {v: ci for ci, comp in enumerate(comps) for v in comp}
        comp_maps = [
            [cidx[vm[comp[0]]] for comp in comps] for vm in self.vertex_images
        ]
        comp_coords = [[self._vpos[v] for v in comp] for comp in comps]
        for e, (u, _) in self.graph.edges.items():
            comp_coords[cidx[u]].append(self._epos[e])
        ident = tuple(range(self._ext_degree))
        order = self.group.order()
        seen = set()
        for ci, comp in enumerate(comps):
            if ci in seen:
                continue
            # orbit of the component, with extended transversal elements
            transversal, schreier = schreier_orbit(ci, comp_maps, self._ext_gens, ident)
            seen.update(transversal)
            stab_order = order // len(transversal)
            coords = sorted(comp_coords[ci])
            pos_of = {c: i for i, c in enumerate(coords)}
            restricted = [tuple(pos_of[s[c]] for c in coords) for s in schreier]
            image_order = StabilizerChain(len(coords), restricted).order()
            if image_order != stab_order:
                raise ActionError(
                    f"action is not faithful on the component of vertex {comp[0]}:"
                    f" stabilizer order {stab_order}, image order {image_order}"
                )

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

    def word_vertex(self, word, v):
        return _apply_word(word, self.vertex_images, self.inverse_vertex_images, v)

    def word_edge(self, word, e):
        return _apply_word(word, self.edge_images, self.inverse_edge_images, e)

    # -- orbits ------------------------------------------------------------

    def edge_orbits(self):
        """Orbits of edges under the full group, with the data needed for
        stabilizer computations.

        Each _EdgeOrbit carries a transversal mapping every member edge to
        the (group element, word) sending the representative to it, plus the
        Schreier generators of the representative's stabilizer.
        """
        if "edges" not in self._orbit_cache:
            gens = self.group.generators
            remaining = set(self.graph.edges)
            orbits = []
            ident = self.group.identity
            while remaining:
                rep = min(remaining)
                transversal = {rep: (ident, ())}
                schreier = []
                frontier = [rep]
                while frontier:
                    e = frontier.pop(0)
                    u_perm, u_word = transversal[e]
                    for i, g in enumerate(gens):
                        img = self.edge_images[i][e]
                        w_perm = perm_mul(g, u_perm)
                        w_word = ((i, False),) + u_word
                        if img not in transversal:
                            transversal[img] = (w_perm, w_word)
                            frontier.append(img)
                        else:
                            t_perm, t_word = transversal[img]
                            s_perm = perm_mul(perm_inv(t_perm), w_perm)
                            if s_perm != ident:
                                s_word = tuple(
                                    (j, not inv) for j, inv in reversed(t_word)
                                ) + w_word
                                schreier.append((s_perm, s_word))
                remaining -= set(transversal)
                orbits.append(_EdgeOrbit(rep, transversal, schreier))
            self._orbit_cache["edges"] = orbits
        return self._orbit_cache["edges"]

    def vertex_orbits_under(self, elements_actions) -> list[list]:
        """Vertex orbits under the given list of (vertex map, edge map)."""
        remaining = set(self.graph.vertices)
        orbits = []
        while remaining:
            rep = min(remaining)
            orbit = {rep}
            frontier = [rep]
            while frontier:
                v = frontier.pop()
                for vm, _ in elements_actions:
                    w = vm[v]
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
            remaining -= orbit
            orbits.append(sorted(orbit))
        orbits.sort(key=lambda o: o[0])
        return orbits

    def edge_orbits_under(self, elements_actions) -> list[list]:
        remaining = set(self.graph.edges)
        orbits = []
        while remaining:
            rep = min(remaining)
            orbit = {rep}
            frontier = [rep]
            while frontier:
                e = frontier.pop()
                for _, em in elements_actions:
                    f = em[e]
                    if f not in orbit:
                        orbit.add(f)
                        frontier.append(f)
            remaining -= orbit
            orbits.append(sorted(orbit))
        orbits.sort(key=lambda o: o[0])
        return orbits

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
        group = group_from_spec(data["group"], catalog)
        k = len(group.generators)
        vmaps = []
        emaps = []
        for i in range(k):
            vmaps.append({int(v): img for v, img in data["vertex_images"][str(i)].items()})
            emaps.append({int(e): img for e, img in data["edge_images"][str(i)].items()})
        return cls(group, graph, vmaps, emaps)

    def __repr__(self):
        return f"GraphAction({self.group.name} on {self.graph!r})"


@dataclass
class _EdgeOrbit:
    rep: int
    transversal: dict  # edge -> (perm, word)
    schreier: list  # [(perm, word)] generating the stabilizer of rep

    @property
    def members(self):
        return sorted(self.transversal)


# -- quotients ----------------------------------------------------------------


@dataclass
class QuotientResult:
    """Quotient graph, the projection morphism, and the removed loop-orbits."""

    quotient: Multigraph
    projection: GraphMorphism
    removed_loops: list = field(default_factory=list)


def _subgroup_actions(a: GraphAction, H: PermutationGroup):
    """Element actions of H's generators inside the action a."""
    out = []
    for h in H.generators:
        if not a.group.contains(h):
            raise ActionError(f"subgroup generator is not a member of {a.group.name}")
        out.append(a.element_action(h))
    return out


def quotient(a: GraphAction, H: Subgroup | None = None) -> QuotientResult:
    """Quotient of the action by a subgroup (default: the whole group).

    Vertices and edges of the quotient are the H-orbits; edge orbits whose
    endpoints fall into one vertex orbit are removed and recorded.
    """
    H = H if H is not None else a.group
    actions = _subgroup_actions(a, H) if H is not a.group else [
        (vm, em) for vm, em in zip(a.vertex_images, a.edge_images)
    ]
    vorbits = a.vertex_orbits_under(actions)
    eorbits = a.edge_orbits_under(actions)
    vclass = {}
    for qi, orbit in enumerate(vorbits):
        for v in orbit:
            vclass[v] = qi
    removed = []
    vmap_proj = dict(vclass)
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
    projection = GraphMorphism(a.graph, qgraph, vmap_proj, emap_proj)
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
    edges are trivial)."""
    if a._harmonic_report is not None:
        return a._harmonic_report
    report = ActionHarmonicityReport(True)
    order = a.group.order()
    for orbit in a.edge_orbits():
        stab_order = order // len(orbit.transversal)
        if stab_order == 1:
            continue
        u0, v0 = a.graph.ends(orbit.rep)
        swappers = []
        for s_perm, s_word in orbit.schreier:
            if a.word_vertex(s_word, u0) == u0:
                report = ActionHarmonicityReport(False, Dart(orbit.rep, u0), s_perm)
                break
            sq = perm_mul(s_perm, s_perm)
            if perm_order(s_perm) != 2:
                report = ActionHarmonicityReport(False, Dart(orbit.rep, u0), sq)
                break
            swappers.append(s_perm)
        if not report.harmonic:
            break
        if stab_order > 2:
            distinct = sorted(set(swappers))
            bad = perm_mul(distinct[0], distinct[1])
            report = ActionHarmonicityReport(False, Dart(orbit.rep, u0), bad)
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
    order = a.group.order()
    out = set()
    for orbit in a.edge_orbits():
        if order // len(orbit.transversal) == 2:
            out.update(orbit.transversal)
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
    pair_of = {}
    for orbit in a.edge_orbits():
        if orbit.rep in skip_orbits:
            continue
        u0, v0 = graph.ends(orbit.rep)
        partner_rep = None
        for e in orbit.members:
            if e == orbit.rep or set(graph.ends(e)) != {u0, v0}:
                continue
            t_perm, t_word = orbit.transversal[e]
            if perm_order(t_perm) != 2:
                continue
            if a.word_vertex(t_word, u0) != v0:
                continue
            partner_rep = e
            break
        if partner_rep is None:
            continue
        pairing = {}
        for e, (_, u_word) in orbit.transversal.items():
            pairing[e] = a.word_edge(u_word, partner_rep)
        for e, f in pairing.items():
            if pairing.get(f) != e or f == e:
                raise ActionError("flip pairing is not a perfect matching")
        for e, f in pairing.items():
            pair_of[e] = f
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
