"""Concrete harmonic Galois theory over trees: Cayley fibers collapsed onto
inertia cosets, cover assembly, ramification profiles, the multiplicative
identity deg = m*f*n, the Riemann-Hurwitz count, and branch-locus
classification.

All rational arithmetic is exact (fractions.Fraction); no floats.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from hcov.errors import CoverError, GroupError
from hcov.harmonic import GraphAction, flip_all, is_harmonic_action, quotient
# perm_mul is unused here, but perfbench/selftest.py checks that its tracer wraps it
from hcov.kernel import perm_id, perm_inv, perm_mul  # noqa: F401
from hcov.multigraph import GraphMorphism, Multigraph, map_images
from hcov.permgroup import (
    PermutationGroup,
    Subgroup,
    cycle_string,
    generates,
    group_from_spec,
    is_permutation,
    left_cosets,
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
            p, mult = self._entry(item)
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

    @staticmethod
    def _entry(item) -> tuple:
        """(permutation, multiplicity) of one entry; GroupError if malformed."""
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
        return p, mult

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
        """Copy with every entry lying in the subgroup removed, not checked
        again: a subgroup is closed under inverses, so the rest is symmetric."""
        out = SymmetricMultiset.__new__(SymmetricMultiset)
        out.counts = {p: m for p, m in self.counts.items() if not subgroup.contains(p)}
        return out

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
    """Subgroup assignment per base vertex; missing vertices mean trivial.

    subgroup_at tests a vertex's subgroup for membership in G once: the
    (G, subgroup) pair that passed is remembered per vertex."""

    assignment: dict
    _checked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def subgroup_at(self, G: PermutationGroup, x) -> Subgroup:
        H = self.assignment.get(x)
        if H is None:
            return G.trivial_subgroup()
        if self._checked.get(x) != (G, H):
            for g in H.generators:
                if not G.contains(g):
                    raise GroupError(f"inertia at {x} is not a subgroup of {G.name}")
            self._checked[x] = (G, H)
        return H


# -- Cayley fibers and their collapse -----------------------------------------


@dataclass
class LabeledAction:
    """A Cayley fiber collapsed onto the left cosets G/I, as flat arrays
    over G.element_index(): vertex c is the coset of its least member
    reps[c], vertex_of[i] the vertex of element i, and edge edges[j]
    (ascending) joins ends[2j] and ends[2j + 1]. Generator k maps edge
    u*|G| + i to u*|G| + left[k][i]. With I trivial it is the Cayley graph.

    build_cover reads only these arrays, and validates none of them: the
    total GraphAction's validation covers each fiber's vertices and
    vertical edges. The fiber's own graph and image maps, and its
    per-fiber validation, survive as test oracles in tests/conftest.py
    (fiber_graph, fiber_images, fiber_action).
    """

    group: PermutationGroup
    vertex_of: list  # element index -> vertex id
    reps: list  # vertex id -> element index
    edges: list  # surviving edge ids, ascending
    ends: list  # the ends of the surviving edges, flat: two per edge
    removed_loops: list = field(default_factory=list)


def collapse(G: PermutationGroup, I: Subgroup, S: SymmetricMultiset) -> LabeledAction:
    """The Cayley graph of G on a symmetric multiset, collapsed onto the left
    cosets G/I, with the left-multiplication action (not validated here;
    see LabeledAction).

    Each inverse pair {rho, rho^-1} with rho != rho^-1 contributes one edge
    {g, g*rho} per element and multiplicity step (the rho- and rho^-1-edges
    are identified); each involution contributes unidentified edges, so
    parallel doubles appear. The u-th such unit's edge at element i is
    u*|G| + i. Its ends are the cosets of g and g*rho; an edge inside one
    coset is not built but recorded in removed_loops, so the surviving edge
    ids stay auditable.
    """
    index = G.element_index()
    n = len(index)
    cosets = left_cosets(G, I)
    of = cosets.of
    pairs, invs = S.units()
    edges, ends, removed = [], [], []
    for u, (rho, j) in enumerate(pairs + invs):
        if j == 0:  # a multiplicity step j > 0 repeats step 0's ends
            rho_ends = list(enumerate(zip(of, map(of.__getitem__, index.right(rho)))))
        for i, (a, b) in rho_ends:
            if a == b:
                removed.append({"edge": u * n + i, "coset": a})
            else:
                edges.append(u * n + i)
                ends += (a, b)
    return LabeledAction(G, of, cosets.reps, edges, ends, removed)


def cayley(G: PermutationGroup, S: SymmetricMultiset) -> LabeledAction:
    """Cayley graph of G on a symmetric multiset: its collapse by the trivial
    subgroup, whose cosets are the elements, numbered by their index."""
    return collapse(G, G.trivial_subgroup(), S)


# -- covers --------------------------------------------------------------------


class HarmonicCover:
    """A harmonic G-cover of a tree, assembled fiber by fiber.

    Carries the total action, the projection onto the base and, per fiber,
    its vertex ids and the ends of its vertical edges as one flat list, two
    per edge (the profile's input).
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
        fiber_edges: dict,
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
        self.fiber_edges = fiber_edges
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
        counts = Counter(map_images(self.projection.edge_map))
        counts.pop(None, None)
        values = set(counts.values())
        if len(values) != 1:
            raise CoverError("per-edge preimage counts differ across base edges")
        return values.pop()

    @cached_property
    def _per_vertex(self) -> dict:
        """Base vertex -> VertexProfile, computed on first use (see
        ramification_profile)."""
        return _vertex_profiles(self)

    @cached_property
    def _ramification_number(self) -> Fraction:
        """R = sum over base vertices of 2(1 - 1/m) + w, summed once."""
        return sum(
            (2 * (1 - Fraction(1, p.m)) + p.w for p in self._per_vertex.values()), Fraction(0)
        )

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

    The fiber over x is collapse(G, I_x, S_x): the Cayley graph Cay(G, S_x)
    collapsed onto G/I_x, built once. One horizontal edge per group element
    joins g*I_x to g*I_x' over each base edge {x, x'}. Entries of S_x lying
    in I_x are dropped with a warning (they would only produce loops). The
    fibers' image maps are validated once, by the total GraphAction: one per
    cover, and a second from flip_all when flipped. Every statistic of the
    cover reads the orbits that validation stored. Harmonicity and the
    per-edge degree are verified before returning; a disconnected result is
    reported, not an error. An inertia or multiset key that is not a base
    vertex is a CoverError, worded as in cover_from_spec.
    """
    if not base.is_connected():
        raise CoverError("base must be connected")
    if base.genus() != 0:
        raise CoverError("base must be a tree (genus 0)")
    if isinstance(inertia, dict) or inertia is None:
        inertia = InertiaStructure(inertia or {})
    multisets = dict(multisets or {})
    for name, keys in (("inertia", inertia.assignment), ("multisets", multisets)):
        for x in keys:
            _check_base_vertex(base, x, f"{name}.{x}")
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
        fibers[x] = collapse(G, I_x, trimmed)
        multisets[x] = trimmed

    # vertices and vertical edges fiber by fiber, then one horizontal edge
    # per element over each base edge; each generator's image list follows
    index = G.element_index()
    n, left = len(index), index.left
    fiber_index, vertical = {}, {}
    vertex_base, ends = [], []  # by vertex id; two per edge id
    vertex_images, edge_images = [[] for _ in left], [[] for _ in left]
    for x in base.vertices:
        fib, o, first = fibers[x], len(vertex_base), len(ends) // 2
        vertex_base += [x] * len(fib.reps)
        fiber_index[x] = range(o, len(vertex_base))
        for vm, lk in zip(vertex_images, left):
            vm += [o + fib.vertex_of[lk[r]] for r in fib.reps]
        # the fiber's edge u*n + i keeps its rank in fib.edges
        rank = dict(zip(fib.edges, range(first, first + len(fib.edges))))
        split = [divmod(e, n) for e in fib.edges]
        for em, lk in zip(edge_images, left):
            em += [rank[u * n + lk[i]] for u, i in split]
        ends += [o + a for a in fib.ends]
        vertical[x] = range(first, len(ends) // 2)
    proj_edge = [None] * (len(ends) // 2)
    for b in sorted(base.edges):
        x, y = base.ends(b)
        ox, oy, first = fiber_index[x][0], fiber_index[y][0], len(ends) // 2
        ends += [None] * (2 * n)
        ends[2 * first::2] = [ox + u for u in fibers[x].vertex_of]
        ends[2 * first + 1::2] = [oy + v for v in fibers[y].vertex_of]
        proj_edge += [b] * n
        for em, lk in zip(edge_images, left):
            em += [first + j for j in lk]

    total = Multigraph(range(len(vertex_base)), ends=ends)
    del ends  # the graph keeps its own copy
    # the ends of each fiber's vertical edges, flat, as the graph holds them
    flat = total.dart_bases()
    fiber_edges = {x: flat[2 * ids.start:2 * ids.stop] for x, ids in vertical.items()}
    action = GraphAction(G, total, vertex_images, edge_images)
    projection = GraphMorphism(total, base, vertex_base, proj_edge)
    if flipped:
        action = flip_all(action)
        projection = GraphMorphism(
            action.graph, base, vertex_base, {e: proj_edge[e] for e in action.graph.edges}
        )
        # those that survive flip_all
        kept = action.graph.edges
        fiber_edges = {
            x: [y for e in ids if e in kept for y in kept[e]] for x, ids in vertical.items()
        }

    cover = HarmonicCover(base, G, inertia, multisets, action, projection, fiber_index,
                          fiber_edges, flipped, warnings)
    _verify_cover(cover)
    return cover


def _verify_cover(cover: HarmonicCover):
    """Structural checks run after every construction; failures are bugs."""
    if not is_harmonic_action(cover.action):
        raise CoverError("constructed cover action is not harmonic")
    order = cover.group.order()
    counts = Counter(map_images(cover.projection.edge_map))
    for b in cover.base.edges:
        if counts[b] != order:
            raise CoverError(f"base edge {b} has {counts[b]} preimages, expected {order}")
    q = quotient(cover.action)
    if len(q.quotient.vertices) != len(cover.base.vertices) or len(
        q.quotient.edges
    ) != len(cover.base.edges):
        raise CoverError("quotient by the full group does not match the base")
    # the orbit classes must realize the base incidence through the projection;
    # each distinct (orbit, base) pair of a vertex or an edge is checked once
    vertices, edges = cover.graph.vertices, cover.graph.edges
    pairs = set(zip(map(q.projection.vertex_map.__getitem__, vertices),
                    map(cover.projection.vertex_map.__getitem__, vertices)))
    orbit_to_base = dict(pairs)
    if len(orbit_to_base) != len(pairs):
        raise CoverError("a vertex orbit projects to two base vertices")
    for oe, be in set(zip(map(q.projection.edge_map.__getitem__, edges),
                          map(cover.projection.edge_map.__getitem__, edges))):
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
        """R, summed once per cover from the same per-vertex data."""
        return self.cover._ramification_number


def ramification_profile(c: HarmonicCover) -> RamificationProfile:
    """Per-base-vertex (m, f, n, v, w); the identity m*f*n = |G| is asserted
    at every vertex.

    m and the vertex orbit come from the validation of the cover's action:
    its stored Orbit, whose map phi from G's element index was found
    equivariant there; m is the size of phi's fiber over the orbit's least
    point. The fresh stabilizer computation from both ends of each fiber is
    a test oracle in tests/test_galois.py.

    The per-vertex data and its checks are computed once per cover, on the
    first call, and stored on it; riemann_hurwitz_check,
    classify_branch_locus and profile_to_json read the same data. The cover
    keeps only that dict, not the profile, which refers back to it."""
    return RamificationProfile(c, c._per_vertex)


def _vertex_profiles(c: HarmonicCover) -> dict:
    """n, f and v from each fiber's vertical edge ends, c.fiber_edges[x]
    (flat, two per edge)."""
    order = c.group.order()
    out = {}
    for x in c.base.vertices:
        fiber, edges = c.fiber_index[x], c.fiber_edges[x]
        comp = {y: {y} for y in fiber}  # y's component, merged edge by edge
        for u, v in zip(edges[0::2], edges[1::2]):
            cu, cv = comp[u], comp[v]
            if cu is not cv:
                if len(cu) < len(cv):
                    cu, cv = cv, cu
                cu |= cv
                comp.update(dict.fromkeys(cv, cu))
        sizes = {id(cu): len(cu) for cu in comp.values()}  # one entry per component
        n = len(sizes)
        if len(set(sizes.values())) != 1:
            raise CoverError(f"fiber over {x} has components of different sizes")
        f = len(comp[fiber[0]])
        degree = Counter(edges)
        degrees = set(map(degree.__getitem__, fiber))
        if len(degrees) != 1:
            raise CoverError(f"fiber over {x} has vertices of different vertical degree")
        v_count = degrees.pop()
        orbit = c.action.vertex_orbit(fiber[0])
        if set(orbit.phi) != set(fiber):
            raise CoverError(f"vertex orbit over {x} does not equal the fiber")
        m = orbit.stabilizer_order()
        if m * f * n != order:
            raise CoverError(
                f"identity violated over {x}: m*f*n = {m}*{f}*{n} != {order}"
            )
        if v_count % m != 0:
            raise CoverError(f"vertical multiplicity {v_count} not divisible by m={m}")
        out[x] = VertexProfile(x, m, f, n, v_count, v_count // m)
    return out


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

    A missing field, a malformed vertex-keyed entry (an inertia generator
    that is no member of the group, a malformed multiset entry), a key that
    is not a base vertex or a non-boolean flipped raises CoverError naming
    its path."""
    G = group_from_spec(_spec_field(data, "group"), catalog)
    base = Multigraph.from_json(_spec_field(data, "base.tree"))
    inertia = {}
    for x, gens in _vertex_keyed(data, "inertia", base):
        _check_entries(gens, f"inertia.{x}", lambda g: isinstance(g, list), "a permutation",
                       lambda g: G.subgroup([tuple(g)]))
        inertia[x] = G.subgroup([tuple(g) for g in gens])
    multisets = {}
    for x, entries in _vertex_keyed(data, "multisets", base):
        _check_entries(
            entries,
            f"multisets.{x}",
            lambda e: isinstance(e, list) and len(e) == 2 and isinstance(e[0], list),
            "a [permutation, multiplicity] pair",
            SymmetricMultiset._entry,
        )
        multisets[x] = SymmetricMultiset.from_json(entries)
    flipped = data.get("flipped", False)
    if not isinstance(flipped, bool):
        raise CoverError(f"cover spec: flipped must be true or false, got {flipped!r}")
    return build_cover(G, base, inertia, multisets, flipped)


def _spec_field(data, path):
    """The value at a dotted path of a cover spec."""
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            raise CoverError(f"cover spec: missing field {path!r}")
        data = data[key]
    return data


def _vertex_keyed(data, name, base):
    """(base vertex, value) pairs of the optional object field `name`; a
    value that is not a list, or a key that is not an integer vertex of
    base, is an error."""
    field = data.get(name, {})
    if not isinstance(field, dict):
        raise CoverError(f"cover spec: {name!r} must be an object keyed by base vertex")
    for key, value in field.items():
        try:
            x = int(key)
        except ValueError:
            raise CoverError(f"cover spec: {name}.{key} is not an integer base vertex") from None
        _check_base_vertex(base, x, f"{name}.{key}")
        if not isinstance(value, list):
            raise CoverError(f"cover spec: {name}.{key} must be a list")
        yield x, value


def _check_base_vertex(base, x, path):
    """CoverError naming path, the inertia or multisets entry keyed by x,
    unless x is a vertex of base."""
    if not base.has_vertex(x):
        raise CoverError(f"cover spec: {path} is not a base vertex")


def _check_entries(entries, path, ok, what, check):
    """Each entry must pass ok, then check; a GroupError from check is
    reported as a CoverError naming the entry's path."""
    for i, entry in enumerate(entries):
        if not ok(entry):
            raise CoverError(f"cover spec: {path}.{i} must be {what}, got {entry!r}")
        try:
            check(entry)
        except GroupError as exc:
            raise CoverError(f"cover spec: {path}.{i}: {exc}") from None


def profile_to_json(c: HarmonicCover) -> dict:
    profile = ramification_profile(c)
    locus = _classify(c, profile)
    return {
        "per_vertex": {str(x): p.as_dict() for x, p in profile.per_vertex.items()},
        "R": str(profile.ramification_number()),
        "maximal": locus.is_maximal,
        "case": locus.case,
    }
