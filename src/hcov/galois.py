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
# perm_mul is unused here, but perfbench/selftest.py checks that its tracer wraps it
from hcov.kernel import perm_id, perm_inv, perm_mul  # noqa: F401
from hcov.multigraph import GraphMorphism, Multigraph
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    Subgroup,
    cycle_string,
    generates,
    is_permutation,
    left_cosets,
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
    """A GraphAction on a Cayley graph or a collapse of one.

    Group elements are named by their index in G.element_index(). Each
    vertex is labeled by the least element of its coset, and vertex_of[i]
    is the vertex of element i's coset.
    """

    action: GraphAction
    vertex_labels: dict  # vertex id -> element index
    removed_loops: list = field(default_factory=list)
    vertex_of: list = field(default_factory=list)  # element index -> vertex id

    @property
    def graph(self) -> Multigraph:
        return self.action.graph


def cayley(G: PermutationGroup, S: SymmetricMultiset) -> LabeledAction:
    """Cayley graph of G on a symmetric multiset, with the left-multiplication
    action.

    One vertex per group element, numbered by its index. Each inverse pair
    {rho, rho^-1} with rho != rho^-1 contributes one edge {g, g*rho} per
    element and multiplicity step (the rho- and rho^-1-edges are
    identified); each involution contributes unidentified edges, so
    parallel doubles appear. The u-th such unit's edge at element i is
    u*|G| + i, and generator k maps it to u*|G| + left[k][i].
    """
    index = G.element_index()
    n = len(index)
    pairs, invs = S.units()
    units = pairs + invs
    edges = []
    for u, (rho, _) in enumerate(units):
        edges += [(u * n + i, (i, y)) for i, y in enumerate(index.right(rho))]
    graph = Multigraph(range(n), edges)
    vertex_images = [dict(enumerate(lk)) for lk in index.left]
    edge_images = [
        {u * n + i: u * n + y for u in range(len(units)) for i, y in enumerate(lk)}
        for lk in index.left
    ]
    action = GraphAction(G, graph, vertex_images, edge_images)
    return LabeledAction(action, {i: i for i in range(n)}, vertex_of=list(range(n)))


def collapse(G: PermutationGroup, I: Subgroup, labeled: LabeledAction) -> LabeledAction:
    """Push the vertex set G onto the left cosets G/I, removing loop edges.

    The input graph's vertices must be labeled bijectively by the elements
    of G; edge ids survive unchanged, which keeps the collapse auditable.
    """
    labels = labeled.vertex_labels
    if sorted(labels.values()) != list(range(G.order())):
        raise CoverError("collapse input vertices are not labeled bijectively by G")
    cosets = left_cosets(G, I)
    old_graph = labeled.graph
    new_v = {v: cosets.of[labels[v]] for v in old_graph.vertices}
    edges = []
    removed = []
    for e in sorted(old_graph.edges):
        u, v = old_graph.ends(e)
        if new_v[u] == new_v[v]:
            removed.append({"edge": e, "coset": new_v[u]})
        else:
            edges.append((e, (new_v[u], new_v[v])))
    graph = Multigraph(range(len(cosets)), edges)
    kept = set(graph.edges)
    vertex_images = []
    edge_images = []
    for k, lk in enumerate(G.element_index().left):
        vertex_images.append({c: cosets.of[lk[r]] for c, r in enumerate(cosets.reps)})
        edge_images.append({e: labeled.action.edge_images[k][e] for e in kept})
    # a collapsed fiber on its own need not be faithful (isolated coset
    # vertices carry their inertia); only the assembled total action is
    action = GraphAction(G, graph, vertex_images, edge_images, require_faithful=False)
    return LabeledAction(action, dict(enumerate(cosets.reps)), removed, cosets.of)


# -- covers --------------------------------------------------------------------


class HarmonicCover:
    """A harmonic G-cover of a tree, assembled fiber by fiber.

    Carries the total action, the projection onto the base and per-fiber
    vertex indices.
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
        for p in S_x.support():
            if not G.contains(p):
                raise GroupError(f"multiset entry {cycle_string(p)} is not a member of {G.name}")
        trimmed = S_x.without(I_x)
        if trimmed.size() != S_x.size():
            msg = f"dropped multiset entries lying in the inertia group at vertex {x}"
            warnings.append(msg)
            logger.warning(msg)
        fibers[x] = collapse(G, I_x, cayley(G, trimmed))
        multisets[x] = trimmed

    offset = {}
    fiber_index = {}
    counter = 0
    for x in base.vertices:
        offset[x] = counter
        counter += len(fibers[x].graph.vertices)
        fiber_index[x] = tuple(range(offset[x], counter))

    # vertical edges keep their fiber's order and images; the horizontal
    # edge of element i over a base edge is that edge's first id plus i
    index = G.element_index()
    edges = []
    proj_edge = {}
    vertex_images = [{} for _ in index.left]
    edge_images = [{} for _ in index.left]
    for x in base.vertices:
        fib = fibers[x]
        eid = {e: len(edges) + j for j, e in enumerate(sorted(fib.graph.edges))}
        for vm, fvm in zip(vertex_images, fib.action.vertex_images):
            vm.update((offset[x] + v, offset[x] + img) for v, img in fvm.items())
        for e, ge in eid.items():
            u, v = fib.graph.ends(e)
            edges.append((ge, (offset[x] + u, offset[x] + v)))
            proj_edge[ge] = None
            for em, fem in zip(edge_images, fib.action.edge_images):
                em[ge] = eid[fem[e]]
    for b in sorted(base.edges):
        x, y = base.ends(b)
        x_of, y_of = fibers[x].vertex_of, fibers[y].vertex_of
        first = len(edges)
        for i in range(len(index)):
            edges.append((first + i, (offset[x] + x_of[i], offset[y] + y_of[i])))
            proj_edge[first + i] = b
        for em, lk in zip(edge_images, index.left):
            em.update((first + i, first + y) for i, y in enumerate(lk))

    total = Multigraph(range(counter), edges)
    action = GraphAction(G, total, vertex_images, edge_images)

    projection = GraphMorphism(
        total,
        base,
        {v: x for x in base.vertices for v in fiber_index[x]},
        proj_edge,
    )

    if flipped:
        action = flip_all(action)
        projection = GraphMorphism(
            action.graph,
            base,
            projection.vertex_map,
            {e: proj_edge[e] for e in action.graph.edges},
        )

    cover = HarmonicCover(
        base,
        G,
        inertia,
        multisets,
        action,
        projection,
        fiber_index,
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
        _check_entries(gens, f"inertia.{x}", lambda g: isinstance(g, list), "a permutation")
        inertia[x] = G.subgroup([tuple(g) for g in gens])
    multisets = {}
    for x, entries in _vertex_keyed(data, "multisets"):
        _check_entries(
            entries,
            f"multisets.{x}",
            lambda e: isinstance(e, list) and len(e) == 2 and isinstance(e[0], list),
            "a [permutation, multiplicity] pair",
        )
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


def _check_entries(entries, path, ok, what):
    for i, entry in enumerate(entries):
        if not ok(entry):
            raise CoverError(f"cover spec: {path}.{i} must be {what}, got {entry!r}")


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
