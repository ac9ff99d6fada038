"""Concrete harmonic Galois theory over trees: Cayley fibers, inertia
collapse, cover assembly, ramification profiles, the multiplicative identity
deg = m*f*n, the Riemann-Hurwitz count, and branch-locus classification.

All rational arithmetic is exact (fractions.Fraction); no floats.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from hcov.errors import CoverError, GroupError
from hcov.harmonic import GraphAction, flip_all, is_harmonic_action, quotient
from hcov.kernel import perm_id, perm_inv, perm_mul
from hcov.multigraph import GraphMorphism, Multigraph
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    Subgroup,
    cycle_string,
    generates,
    is_permutation,
    schreier_orbit,
)

logger = logging.getLogger("hcov")


# -- symmetric multisets ------------------------------------------------------


class SymmetricMultiset:
    """Multiset of non-identity group elements, closed under inversion with
    matching multiplicities."""

    def __init__(self, entries):
        """entries: iterable of permutations, or of (permutation, multiplicity)."""
        counts = {}
        for item in entries:
            if item and isinstance(item[0], (tuple, list)):
                p, mult = tuple(item[0]), item[1]
                if type(mult) is not int:
                    raise GroupError(
                        f"multiset entry {list(p)}: multiplicity {mult!r} is not an integer"
                    )
            else:
                p, mult = tuple(item), 1
            if not is_permutation(p):
                raise GroupError(f"multiset entry {list(p)} is not a permutation")
            if mult < 0:
                raise GroupError("multiplicities must be non-negative")
            if mult:
                counts[p] = counts.get(p, 0) + mult
        for p, mult in counts.items():
            if p == perm_id(len(p)):
                raise GroupError("the identity is not allowed in a symmetric multiset")
            if counts.get(perm_inv(p), 0) != mult:
                raise GroupError(
                    f"multiset is not symmetric: {cycle_string(p)} has multiplicity"
                    f" {mult}, its inverse {counts.get(perm_inv(p), 0)}"
                )
        self.counts = dict(sorted(counts.items()))

    def __bool__(self):
        return bool(self.counts)

    def __eq__(self, other):
        return isinstance(other, SymmetricMultiset) and self.counts == other.counts

    def size(self) -> int:
        return sum(self.counts.values())

    def support(self) -> list[tuple]:
        return list(self.counts)

    def units(self):
        """Decompose into edge-generating units.

        Returns (pair_units, involution_units): pair units are (rho, j) with
        rho the lex-smaller of an inverse pair {rho, rho^-1}, one per
        multiplicity step j; involution units are (tau, j).
        """
        pairs = []
        invs = []
        for p, mult in self.counts.items():
            q = perm_inv(p)
            if p == q:
                invs.extend((p, j) for j in range(mult))
            elif p < q:
                pairs.extend((p, j) for j in range(mult))
        return pairs, invs

    def without(self, subgroup: PermutationGroup) -> "SymmetricMultiset":
        """Copy with every entry lying in the subgroup removed."""
        return SymmetricMultiset(
            [(p, m) for p, m in self.counts.items() if not subgroup.contains(p)]
        )

    def to_json(self):
        return [[list(p), m] for p, m in self.counts.items()]

    @classmethod
    def from_json(cls, data) -> "SymmetricMultiset":
        return cls([(tuple(p), m) for p, m in data])

    def __repr__(self):
        inner = ", ".join(
            f"{cycle_string(p)}x{m}" if m > 1 else cycle_string(p)
            for p, m in self.counts.items()
        )
        return "{" + inner + "}"


@dataclass
class InertiaStructure:
    """Subgroup assignment per base vertex; missing vertices mean trivial."""

    assignment: dict

    def subgroup_at(self, G: PermutationGroup, x) -> Subgroup:
        H = self.assignment.get(x)
        if H is None:
            return G.trivial_subgroup()
        for g in H.generators:
            if not G.contains(g):
                raise GroupError(f"inertia at {x} is not a subgroup of {G.name}")
        return H


# -- Cayley graphs and the collapse functor -----------------------------------


@dataclass
class LabeledAction:
    """A GraphAction whose vertices carry group-element (or coset) labels."""

    action: GraphAction
    vertex_labels: dict  # vertex id -> permutation tuple
    edge_labels: dict  # edge id -> descriptive tuple
    removed_loops: list = field(default_factory=list)
    vertex_of: dict = field(default_factory=dict)  # group element -> vertex of its coset

    @property
    def graph(self) -> Multigraph:
        return self.action.graph


def cayley(G: PermutationGroup, S: SymmetricMultiset) -> LabeledAction:
    """Cayley graph of G on a symmetric multiset, with the left-multiplication
    action.

    One vertex per group element. Each inverse pair {rho, rho^-1} with
    rho != rho^-1 contributes one edge {g, g*rho} per element and
    multiplicity step (the rho- and rho^-1-edges are identified); each
    involution contributes unidentified edges, so parallel doubles appear.
    """
    elements = G.elements()
    vid = {g: i for i, g in enumerate(elements)}
    pairs, invs = S.units()
    edges = []
    edge_labels = {}
    eid = 0
    for rho, j in pairs + invs:
        for g in elements:
            edges.append((eid, (vid[g], vid[perm_mul(g, rho)])))
            edge_labels[eid] = (rho, j, g)
            eid += 1
    graph = Multigraph(range(len(elements)), edges)
    label_eid = {lab: e for e, lab in edge_labels.items()}
    vertex_images = []
    edge_images = []
    for gen in G.generators:
        vertex_images.append({vid[g]: vid[perm_mul(gen, g)] for g in elements})
        edge_images.append(
            {
                e: label_eid[(rho, j, perm_mul(gen, g))]
                for e, (rho, j, g) in edge_labels.items()
            }
        )
    action = GraphAction(G, graph, vertex_images, edge_images)
    return LabeledAction(action, {i: g for g, i in vid.items()}, edge_labels, vertex_of=vid)


def collapse(G: PermutationGroup, I: Subgroup, labeled: LabeledAction) -> LabeledAction:
    """Push the vertex set G onto the left cosets G/I, removing loop edges.

    The input graph's vertices must be labeled bijectively by the elements
    of G; edge ids survive unchanged, which keeps the collapse auditable.
    """
    elements = G.elements()
    labels = labeled.vertex_labels
    if sorted(labels.values()) != list(elements):
        raise CoverError("collapse input vertices are not labeled bijectively by G")
    i_elements = I.elements()
    rep = {}
    for g in elements:
        if g not in rep:
            r = min(perm_mul(g, h) for h in i_elements)
            for h in i_elements:
                rep[perm_mul(g, h)] = r
    reps = sorted(set(rep.values()))
    new_vid = {r: i for i, r in enumerate(reps)}
    old_graph = labeled.graph
    vertex_of = {g: new_vid[r] for g, r in rep.items()}
    new_v = {v: vertex_of[labels[v]] for v in old_graph.vertices}
    edges = []
    removed = []
    for e in sorted(old_graph.edges):
        u, v = old_graph.ends(e)
        if new_v[u] == new_v[v]:
            removed.append({"edge": e, "coset": new_v[u]})
        else:
            edges.append((e, (new_v[u], new_v[v])))
    graph = Multigraph(range(len(reps)), edges)
    kept = set(graph.edges)
    vertex_images = []
    edge_images = []
    for k, gen in enumerate(G.generators):
        vm = {new_vid[r]: vertex_of[perm_mul(gen, r)] for r in reps}
        em = {e: labeled.action.edge_images[k][e] for e in kept}
        vertex_images.append(vm)
        edge_images.append(em)
    # a collapsed fiber on its own need not be faithful (isolated coset
    # vertices carry their inertia); only the assembled total action is
    action = GraphAction(G, graph, vertex_images, edge_images, require_faithful=False)
    labels_out = {i: r for r, i in new_vid.items()}
    edge_labels = {e: labeled.edge_labels[e] for e in kept}
    return LabeledAction(action, labels_out, edge_labels, removed, vertex_of)


# -- covers --------------------------------------------------------------------


class HarmonicCover:
    """A harmonic G-cover of a tree, assembled fiber by fiber.

    Carries the total action, the projection onto the base, per-fiber vertex
    indices, and coset labels for every vertex.
    """

    def __init__(
        self,
        base: Multigraph,
        group: PermutationGroup,
        inertia: InertiaStructure,
        multisets: dict,
        action: GraphAction,
        projection: GraphMorphism,
        fiber_index: dict,
        vertex_labels: dict,
        edge_labels: dict,
        flipped: bool,
        warnings: list,
    ):
        self.base = base
        self.group = group
        self.inertia = inertia
        self.multisets = multisets
        self.action = action
        self.projection = projection
        self.fiber_index = fiber_index
        self.vertex_labels = vertex_labels
        self.edge_labels = edge_labels
        self.flipped = flipped
        self.warnings = list(warnings)

    @property
    def graph(self) -> Multigraph:
        return self.action.graph

    def is_connected(self) -> bool:
        return self.graph.is_connected()

    @property
    def degree_group(self) -> int:
        """|G|; the degree used in every identity."""
        return self.group.order()

    @property
    def degree_def22(self) -> int:
        """Literal morphism degree: per-edge preimage count, or |V(total)|
        over the point graph."""
        if len(self.base.vertices) == 1:
            return len(self.graph.vertices)
        counts = {}
        for e, img in self.projection.edge_map.items():
            if img is not None:
                counts[img] = counts.get(img, 0) + 1
        values = set(counts.values())
        if len(values) != 1:
            raise CoverError("per-edge preimage counts differ across base edges")
        return values.pop()

    def vertical_edges_over(self, x) -> list[int]:
        fiber = set(self.fiber_index[x])
        return sorted(
            e
            for e, img in self.projection.edge_map.items()
            if img is None and self.graph.ends(e)[0] in fiber
        )

    def fiber_subgraph(self, x) -> Multigraph:
        edges = [(e, self.graph.ends(e)) for e in self.vertical_edges_over(x)]
        return Multigraph(self.fiber_index[x], edges)

    def __repr__(self):
        flip = "flipped" if self.flipped else "unflipped"
        return (
            f"HarmonicCover({self.group.name}, base {len(self.base.vertices)}v,"
            f" total {self.graph!r}, {flip})"
        )


def build_cover(
    G: PermutationGroup,
    base: Multigraph,
    inertia=None,
    multisets=None,
    flipped: bool = False,
) -> HarmonicCover:
    """Assemble the harmonic G-cover of a tree from per-vertex inertia
    subgroups and symmetric multisets.

    The fiber over x is collapse(G, I_x, cayley(G, S_x)); one horizontal edge
    per group element joins g*I_x to g*I_x' over each base edge {x, x'}.
    Entries of S_x lying in I_x are dropped with a warning (they would only
    produce loops). Harmonicity and the per-edge degree are verified before
    returning; a disconnected result is reported, not an error.
    """
    if not base.is_connected():
        raise CoverError("base must be connected")
    if base.genus() != 0:
        raise CoverError("base must be a tree (genus 0)")
    if isinstance(inertia, dict) or inertia is None:
        inertia = InertiaStructure(inertia or {})
    multisets = dict(multisets or {})
    warnings = []
    empty = SymmetricMultiset([])
    fibers = {}
    for x in base.vertices:
        I_x = inertia.subgroup_at(G, x)
        S_x = multisets.get(x, empty)
        trimmed = S_x.without(I_x)
        if trimmed.size() != S_x.size():
            msg = f"dropped multiset entries lying in the inertia group at vertex {x}"
            warnings.append(msg)
            logger.warning(msg)
        fibers[x] = collapse(G, I_x, cayley(G, trimmed))
        multisets[x] = trimmed

    vid = {}
    vertex_labels = {}
    fiber_index = {}
    counter = 0
    for x in base.vertices:
        fib = fibers[x]
        ids = []
        for local_v in fib.graph.vertices:
            vid[(x, local_v)] = counter
            vertex_labels[counter] = (x, fib.vertex_labels[local_v])
            ids.append(counter)
            counter += 1
        fiber_index[x] = tuple(ids)

    edges = []
    edge_labels = {}
    proj_edge = {}
    eid = 0
    for x in base.vertices:
        fib = fibers[x]
        for e in sorted(fib.graph.edges):
            u, v = fib.graph.ends(e)
            edges.append((eid, (vid[(x, u)], vid[(x, v)])))
            edge_labels[eid] = ("v", x) + fib.edge_labels[e]
            proj_edge[eid] = None
            eid += 1
    elements = G.elements()
    for b in sorted(base.edges):
        x, y = base.ends(b)
        x_of, y_of = fibers[x].vertex_of, fibers[y].vertex_of
        for g in elements:
            edges.append((eid, (vid[(x, x_of[g])], vid[(y, y_of[g])])))
            edge_labels[eid] = ("h", b, g)
            proj_edge[eid] = b
            eid += 1

    total = Multigraph(range(counter), edges)
    label_eid = {lab: e for e, lab in edge_labels.items()}
    vertex_images = []
    edge_images = []
    for k, gen in enumerate(G.generators):
        vm = {}
        for x in base.vertices:
            x_of = fibers[x].vertex_of
            for gid in fiber_index[x]:
                _, rep = vertex_labels[gid]
                vm[gid] = vid[(x, x_of[perm_mul(gen, rep)])]
        em = {}
        for e, lab in edge_labels.items():
            if lab[0] == "v":
                x, rho, j, g = lab[1], lab[2], lab[3], lab[4]
                em[e] = label_eid[("v", x, rho, j, perm_mul(gen, g))]
            else:
                b, g = lab[1], lab[2]
                em[e] = label_eid[("h", b, perm_mul(gen, g))]
        vertex_images.append(vm)
        edge_images.append(em)
    action = GraphAction(G, total, vertex_images, edge_images)

    projection = GraphMorphism(
        total,
        base,
        {gid: x for gid, (x, _) in vertex_labels.items()},
        proj_edge,
    )

    if flipped:
        flipped_action = flip_all(action)
        keep = set(flipped_action.graph.edges)
        edge_labels = {e: lab for e, lab in edge_labels.items() if e in keep}
        projection = GraphMorphism(
            flipped_action.graph,
            base,
            projection.vertex_map,
            {e: proj_edge[e] for e in keep},
        )
        action = flipped_action

    cover = HarmonicCover(
        base,
        G,
        inertia,
        multisets,
        action,
        projection,
        fiber_index,
        vertex_labels,
        edge_labels,
        flipped,
        warnings,
    )
    _verify_cover(cover)
    return cover


def _verify_cover(cover: HarmonicCover):
    """Structural checks run after every construction; failures are bugs."""
    if not is_harmonic_action(cover.action):
        raise CoverError("constructed cover action is not harmonic")
    order = cover.group.order()
    counts = {b: 0 for b in cover.base.edges}
    for e, img in cover.projection.edge_map.items():
        if img is not None:
            counts[img] += 1
    for b, c in counts.items():
        if c != order:
            raise CoverError(f"base edge {b} has {c} preimages, expected {order}")
    q = quotient(cover.action)
    if len(q.quotient.vertices) != len(cover.base.vertices) or len(
        q.quotient.edges
    ) != len(cover.base.edges):
        raise CoverError("quotient by the full group does not match the base")
    # the orbit classes must realize the base incidence through the projection
    orbit_to_base = {}
    for v in cover.graph.vertices:
        ov = q.projection.vertex_map[v]
        bx = cover.projection.vertex_map[v]
        if orbit_to_base.setdefault(ov, bx) != bx:
            raise CoverError("a vertex orbit projects to two base vertices")
    for e in cover.graph.edges:
        oe = q.projection.edge_map[e]
        be = cover.projection.edge_map[e]
        if (oe is None) != (be is None):
            raise CoverError("vertical edges disagree between quotient and projection")
        if oe is not None:
            u, v = q.quotient.ends(oe)
            if {orbit_to_base[u], orbit_to_base[v]} != set(cover.base.ends(be)):
                raise CoverError("quotient incidence does not match the base")
    gens = []
    for x in cover.base.vertices:
        gens.extend(cover.inertia.subgroup_at(cover.group, x).generators)
        gens.extend(cover.multisets[x].support())
    expected_connected = generates(cover.group, gens) if gens else cover.group.order() == 1
    if cover.is_connected() != expected_connected:
        raise CoverError("connectivity does not match the generation criterion")
    if not expected_connected:
        logger.info("cover is disconnected: inertia and multisets do not generate")


# -- ramification ----------------------------------------------------------------


@dataclass
class VertexProfile:
    """Ramification numbers over one base vertex."""

    base_vertex: int
    m: int  # horizontal ramification index (vertex stabilizer order)
    f: int  # inertia degree (vertices per fiber component)
    n: int  # fiber component count
    v: int  # vertical multiplicity (degree inside the fiber)
    w: int  # v / m

    def as_dict(self):
        return {"m": self.m, "f": self.f, "n": self.n, "v": self.v, "w": self.w}


@dataclass
class RamificationProfile:
    cover: HarmonicCover
    per_vertex: dict  # base vertex -> VertexProfile

    def ramification_number(self) -> Fraction:
        R = Fraction(0)
        for prof in self.per_vertex.values():
            R += 2 * (1 - Fraction(1, prof.m)) + prof.w
        return R


def _vertex_stabilizer_order(action: GraphAction, v) -> tuple[int, set]:
    """(|Stab(v)|, orbit of v) via Schreier generators of the vertex orbit."""
    transversal, schreier = schreier_orbit(
        v, action.vertex_images, action.group.generators, action.group.identity
    )
    stab = StabilizerChain(action.group.degree, schreier).order()
    if stab * len(transversal) != action.group.order():
        raise CoverError("orbit-stabilizer bookkeeping failed")
    return stab, set(transversal)


def ramification_profile(c: HarmonicCover) -> RamificationProfile:
    """Per-base-vertex (m, f, n, v, w); the identity m*f*n = |G| is asserted
    at every vertex, with m from an independent stabilizer computation."""
    order = c.group.order()
    out = {}
    for x in c.base.vertices:
        fiber = c.fiber_index[x]
        sub = c.fiber_subgraph(x)
        comps = sub.connected_components()
        n = len(comps)
        sizes = {len(comp) for comp in comps}
        if len(sizes) != 1:
            raise CoverError(f"fiber over {x} has components of different sizes")
        f = sizes.pop()
        degrees = {sub.degree(v) for v in fiber}
        if len(degrees) != 1:
            raise CoverError(f"fiber over {x} has vertices of different vertical degree")
        v_count = degrees.pop()
        m, orbit = _vertex_stabilizer_order(c.action, min(fiber))
        if orbit != set(fiber):
            raise CoverError(f"vertex orbit over {x} does not equal the fiber")
        m2, _ = _vertex_stabilizer_order(c.action, max(fiber))
        if m2 != m:
            raise CoverError(f"stabilizer order differs across the fiber over {x}")
        if m * f * n != order:
            raise CoverError(
                f"identity violated over {x}: m*f*n = {m}*{f}*{n} != {order}"
            )
        if v_count % m != 0:
            raise CoverError(f"vertical multiplicity {v_count} not divisible by m={m}")
        out[x] = VertexProfile(x, m, f, n, v_count, v_count // m)
    return RamificationProfile(c, out)


def decomposition_group(c: HarmonicCover, y) -> Subgroup:
    """Setwise stabilizer of the fiber component containing the vertex y."""
    x = c.projection.vertex_map[y]
    sub = c.fiber_subgraph(x)
    comps = sub.connected_components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    comp_maps = [
        [comp_of[vm[comp[0]]] for comp in comps] for vm in c.action.vertex_images
    ]
    transversal, schreier = schreier_orbit(
        comp_of[y], comp_maps, c.group.generators, c.group.identity
    )
    delta = c.group.subgroup(sorted(schreier), name=f"Delta({y})")
    if delta.order() * len(transversal) != c.group.order():
        raise CoverError("decomposition group order check failed")
    m, _ = _vertex_stabilizer_order(c.action, y)
    if delta.order() % m != 0:
        raise CoverError("decomposition group does not contain the inertia group")
    return delta


# -- Riemann-Hurwitz and maximality ---------------------------------------------


@dataclass
class RiemannHurwitzReport:
    R: Fraction
    lhs: int  # 2g(Y) - 2
    rhs: Fraction  # |G| (2g(X) - 2 +/- R)
    holds: bool
    sign: str  # "+R" (working convention) or "-R" (strict transcription)


def riemann_hurwitz_check(c: HarmonicCover, strict_sign: bool = False) -> RiemannHurwitzReport:
    """Check 2g(Y)-2 = |G| (2g(X)-2+R) with R the ramification number.

    strict_sign=True evaluates the "-R" sign variant instead; it is kept as
    a documented negative control and fails on the shipped examples.
    """
    if not c.is_connected():
        raise CoverError("Riemann-Hurwitz requires a connected total graph")
    profile = ramification_profile(c)
    R = profile.ramification_number()
    lhs = 2 * c.graph.genus() - 2
    gx = c.base.genus()
    sign = -1 if strict_sign else 1
    rhs = c.group.order() * (2 * gx - 2 + sign * R)
    return RiemannHurwitzReport(R, lhs, rhs, Fraction(lhs) == rhs, "-R" if strict_sign else "+R")


@dataclass
class BranchLocus:
    branch_vertices: dict  # base vertex -> (m, w)
    case: str  # "i" | "ii" | "iii" | "other"
    is_maximal: bool
    R: Fraction


def classify_branch_locus(c: HarmonicCover) -> BranchLocus:
    """Branch vertices with their (m, w) data, the three-way maximal-locus
    classification, and the maximality verdict (tree base and R = 7/3),
    cross-checked against |G| = 6(g-1)."""
    return _classify(c, ramification_profile(c))


def _classify(c: HarmonicCover, profile: RamificationProfile) -> BranchLocus:
    branch = {
        x: (p.m, p.w)
        for x, p in profile.per_vertex.items()
        if p.m > 1 or p.v > 0
    }
    shape = sorted(branch.values())
    if shape == [(3, 1)]:
        case = "i"
    elif shape == [(2, 0), (3, 0)]:
        case = "ii"
    elif shape == [(1, 1), (3, 0)]:
        case = "iii"
    else:
        case = "other"
    R = profile.ramification_number()
    maximal = c.is_connected() and R == Fraction(7, 3)
    if c.is_connected():
        by_order = c.group.order() == 6 * (c.graph.genus() - 1)
        if by_order != maximal:
            raise CoverError(
                "maximality criteria disagree: R-test says"
                f" {maximal}, |G|=6(g-1) says {by_order}"
            )
    return BranchLocus(branch, case, maximal, R)


# -- cover spec JSON ---------------------------------------------------------------


def cover_from_spec(data, catalog=None) -> HarmonicCover:
    """Build a cover from its JSON spec:
    {"group":..., "base":{"tree":graph}, "inertia":{x:[perm...]},
     "multisets":{x:[[perm,mult]...]}, "flipped":bool}.

    A missing field or a malformed vertex-keyed entry raises CoverError
    naming its path."""
    G = group_from_spec_lazy(_spec_field(data, "group"), catalog)
    base = Multigraph.from_json(_spec_field(data, "base.tree"))
    inertia = {}
    for x, gens in _vertex_keyed(data, "inertia"):
        inertia[x] = G.subgroup([tuple(g) for g in gens])
    multisets = {}
    for x, entries in _vertex_keyed(data, "multisets"):
        multisets[x] = SymmetricMultiset.from_json(entries)
    return build_cover(G, base, inertia, multisets, bool(data.get("flipped", False)))


def _spec_field(data, path):
    """The value at a dotted path of a cover spec."""
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            raise CoverError(f"cover spec: missing field {path!r}")
        data = data[key]
    return data


def _vertex_keyed(data, name):
    """(base vertex, value) pairs of the optional object field `name`; a
    value that is not a list, or a key that is not an integer, is an error."""
    field = data.get(name, {})
    if not isinstance(field, dict):
        raise CoverError(f"cover spec: {name!r} must be an object keyed by base vertex")
    for key, value in field.items():
        try:
            x = int(key)
        except ValueError:
            raise CoverError(f"cover spec: {name}.{key} is not an integer base vertex") from None
        if not isinstance(value, list):
            raise CoverError(f"cover spec: {name}.{key} must be a list")
        yield x, value


def group_from_spec_lazy(spec, catalog=None):
    from hcov.permgroup import group_from_spec, load_default_catalog

    if catalog is None and isinstance(spec, str):
        catalog = load_default_catalog()
    return group_from_spec(spec, catalog)


def profile_to_json(c: HarmonicCover) -> dict:
    profile = ramification_profile(c)
    locus = _classify(c, profile)
    return {
        "per_vertex": {str(x): p.as_dict() for x, p in profile.per_vertex.items()},
        "R": str(profile.ramification_number()),
        "maximal": locus.is_maximal,
        "case": locus.case,
    }
