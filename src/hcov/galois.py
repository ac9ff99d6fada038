"""Concrete harmonic Galois theory over trees: Cayley fibers collapsed onto
inertia cosets, cover assembly, ramification profiles, the multiplicative
identity deg = m*f*n, the Riemann-Hurwitz count, and branch-locus
classification.

All rational arithmetic is exact (fractions.Fraction); no floats.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from hcov.errors import CoverError, GroupError, read_field, read_nested
from hcov.harmonic import GraphAction, flip_all, is_harmonic_action
# perm_mul is unused here, but perfbench/selftest.py checks that its tracer wraps it
from hcov.kernel import perm_id, perm_inv, perm_mul  # noqa: F401
from hcov.multigraph import GraphMorphism, Multigraph, images_of, map_images, union_find
from hcov.permgroup import Cosets, PermutationGroup, cycle_string, group_from_spec, is_permutation

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

    def without(self, cosets: Cosets) -> "SymmetricMultiset":
        """Copy without the entries lying in H, given the left cosets G/H:
        an entry's index (_check_member, a membership test in G) lies in
        coset 0 iff it does. H is closed under inverses: the rest is symmetric."""
        G, of = cosets.index.group, cosets.of
        out = SymmetricMultiset.__new__(SymmetricMultiset)
        out.counts = {p: m for p, m in self.counts.items() if of[_check_member(G, p)] != 0}
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


# -- Cayley fibers and their collapse -----------------------------------------


def collapse(cosets: Cosets, S: SymmetricMultiset) -> list:
    """The Cayley graph of G on a symmetric multiset, collapsed onto the left
    cosets G/I given on G's element index: the ends of its edges, flat, two
    per edge, on the cosets' ids. Vertex c is the coset of its least member
    cosets.reps[c], and element i lies in coset cosets.of[i]. With I
    trivial it is the Cayley graph.

    Each inverse pair {rho, rho^-1} with rho != rho^-1 contributes one edge
    {g, g*rho} per element and multiplicity step (the rho- and rho^-1-edges
    are identified); each involution contributes unidentified edges, so
    parallel doubles appear. The u-th such unit's edge at element i is
    u*|G| + i, with ends the cosets of g and g*rho, and generator k maps it
    to u*|G| + left[k][i]. S must have no entry in I (see
    SymmetricMultiset.without): such an entry would give only loops, as
    g*rho lies in g*I iff rho lies in I, and is a CoverError.

    Nothing is validated here: the total GraphAction of build_cover
    validates every fiber's vertices and vertical edges. The fiber's own
    graph and image maps, and its per-fiber validation, are test oracles in
    tests/conftest.py (fiber_graph, fiber_images, fiber_action).
    """
    index = cosets.index
    of = cosets.of
    pairs, invs = S.units()
    ends = []
    unit = [0] * (2 * len(index))  # the ends of a unit's edges, flat
    unit[0::2] = of
    for rho, j in pairs + invs:
        if j == 0:  # a multiplicity step j > 0 repeats step 0's ends
            unit[1::2] = map(of.__getitem__, index.right(rho))
            if unit[1] == 0:  # x_0 * rho = rho lies in coset 0, I
                raise CoverError(
                    f"multiset entry {cycle_string(rho)} lies in the inertia group"
                )
        ends += unit
    return ends


def cayley(G: PermutationGroup, S: SymmetricMultiset) -> list:
    """Cayley graph of G on a symmetric multiset, as the flat ends of its
    edges: its collapse by the trivial subgroup, whose cosets are the
    elements, numbered by their index."""
    return collapse(Cosets(G.element_index(), ()), S)


# -- covers --------------------------------------------------------------------


@dataclass(eq=False)
class HarmonicCover:
    """A harmonic G-cover of a tree: the total action and its projection
    onto the base. The fiber over a base vertex x is the projection's
    preimage of x: the vertices over x, joined by the vertical edges (those
    whose image is None) between them. Nothing else records it.
    """

    base: Multigraph
    group: PermutationGroup
    inertia: dict  # base vertex -> subgroup; a missing vertex means trivial
    multisets: dict
    action: GraphAction
    projection: GraphMorphism
    flipped: bool
    warnings: list

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
    def _profile(self) -> "RamificationProfile":
        """The ramification profile, computed on first use (see
        ramification_profile); R is summed once, as one Fraction over |G|."""
        per_vertex, order = _vertex_profiles(self), self.group.order()
        terms = (2 * (order - order // p.m) + p.w * order for p in per_vertex.values())
        return RamificationProfile(per_vertex, Fraction(sum(terms), order))

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

    The fiber over x is collapse(G/I_x, S_x): the Cayley graph Cay(G, S_x)
    collapsed onto the cosets G/I_x on G's element index, built once. One
    horizontal edge per group element joins g*I_x to g*I_x' over each base
    edge {x, x'}. inertia maps a base vertex to its subgroup I_x, trivial
    where missing; each generator is tested for membership once, when
    G/I_x is built on G's index. Entries of S_x lying in I_x are dropped
    with a warning (they would only produce loops), so a generator maps a
    fiber's edges unit by unit, by block offsets. The fibers' image maps
    are validated once, by the total GraphAction: one per cover, and a
    second from flip_all when flipped. The projection, built in the same
    pass, is the one record of which vertices and edges lie over which
    base vertex. Every check and statistic of the cover reads what the
    validation stored and the projection. A disconnected result is
    reported, not an error. An inertia or multiset key that is not a base
    vertex is a CoverError, worded as in cover_from_spec.
    """
    if not base.is_connected():
        raise CoverError("base must be connected")
    if base.genus() != 0:
        raise CoverError("base must be a tree (genus 0)")
    inertia, multisets = dict(inertia or {}), dict(multisets or {})
    for name, keys in (("inertia", inertia), ("multisets", multisets)):
        for x in keys:
            _check_base_vertex(base, x, f"{name}.{x}")
    warnings = []
    empty = SymmetricMultiset([])
    fibers = {}  # base vertex -> (the cosets G/I_x, the fiber's edge ends)
    index = G.element_index()
    for x in base.vertices:
        try:  # Cosets looks each generator up in G's index: KeyError if no member
            cosets = Cosets(index, inertia[x].generators if x in inertia else ())
        except KeyError:
            raise GroupError(f"inertia at {x} is not a subgroup of {G.name}") from None
        S_x = multisets.get(x, empty)
        trimmed = S_x.without(cosets)
        if trimmed.size() != S_x.size():
            msg = f"dropped multiset entries lying in the inertia group at vertex {x}"
            warnings.append(msg)
            logger.warning(msg)
        fibers[x] = cosets, collapse(cosets, trimmed)
        multisets[x] = trimmed

    # vertices and vertical edges fiber by fiber, then one horizontal edge
    # per element over each base edge; each generator's image list follows
    n, left = len(index), index.left
    offset = {}  # base vertex -> the first vertex id over it
    vertex_base, ends = [], []  # by vertex id; two per edge id
    vertex_images, edge_images = [[] for _ in left], [[] for _ in left]
    for x in base.vertices:
        (cosets, fiber_ends), o, first = fibers[x], len(vertex_base), len(ends) // 2
        offset[x] = o
        vertex_base += [x] * len(cosets)
        for vm, lk in zip(vertex_images, left):
            vm += [o + cosets.of[lk[r]] for r in cosets.reps]
        # collapse builds no loop, so the fiber's edges are whole blocks of
        # n, one per unit, ascending
        blocks = range(first, first + len(fiber_ends) // 2, n)
        for em, lk in zip(edge_images, left):
            em += [b + j for b in blocks for j in lk]
        ends += [o + a for a in fiber_ends]
    proj_edge = [None] * (len(ends) // 2)
    for b in sorted(base.edges):
        x, y = base.ends(b)
        first = len(ends) // 2
        ends += [None] * (2 * n)
        ends[2 * first::2] = [offset[x] + u for u in fibers[x][0].of]
        ends[2 * first + 1::2] = [offset[y] + v for v in fibers[y][0].of]
        proj_edge += [b] * n
        for em, lk in zip(edge_images, left):
            em += [first + j for j in lk]

    total = Multigraph(range(len(vertex_base)), ends=ends)
    del ends  # the graph keeps its own copy
    action = GraphAction(G, total, vertex_images, edge_images)
    if flipped:  # the edges that survive flip_all
        action = flip_all(action)
        proj_edge = {e: proj_edge[e] for e in action.graph.edges}
    projection = GraphMorphism(action.graph, base, vertex_base, proj_edge)
    cover = HarmonicCover(base, G, inertia, multisets, action, projection, flipped, warnings)
    _verify_cover(cover, _generates(cover))
    return cover


def _check_member(G: PermutationGroup, p) -> int:
    """The index of the multiset entry p in G's element index; GroupError
    unless it finds the whole tuple p, a member of G."""
    try:
        return G.element_index().index_of(p)
    except KeyError:
        raise GroupError(f"multiset entry {cycle_string(p)} is not a member of {G.name}") from None


def _verify_cover(cover: HarmonicCover, generated: bool):
    """Structural checks run after every construction; failures are bugs.
    The quotient by G, read off the orbits that validation stored (an edge
    orbit is a loop iff its least edge's ends share a vertex orbit), must
    match the base through the projection, whatever the base's genus. The
    cover must be connected iff generated, the builder's verdict on whether
    the inertia generators and multiset entries generate G."""
    action, base, graph, projection = cover.action, cover.base, cover.graph, cover.projection
    if not is_harmonic_action(action):
        raise CoverError("constructed cover action is not harmonic")
    order = cover.group.order()
    counts = Counter(map_images(projection.edge_map))
    for b in base.edges:
        if counts[b] != order:
            raise CoverError(f"base edge {b} has {counts[b]} preimages, expected {order}")
    vertex_no, edge_no = action._vertex_orbit_no, action._edge_orbit_no
    least = [graph.ends(o.point) for o in action._edge_orbits]
    loop = [vertex_no[u] == vertex_no[v] for u, v in least]
    if len(action._vertex_orbits) != len(base.vertices) or loop.count(False) != len(base.edges):
        raise CoverError("quotient by the full group does not match the base")
    # the orbits must realize the base incidence through the projection;
    # each distinct (orbit, base) pair of a vertex or an edge is checked once
    vertices, ids = graph.vertices, graph._edge_ids
    pairs = set(zip(images_of(vertex_no, vertices), images_of(projection.vertex_map, vertices)))
    orbit_to_base = dict(pairs)
    if len(orbit_to_base) != len(pairs):
        raise CoverError("a vertex orbit projects to two base vertices")
    for j, be in set(zip(images_of(edge_no, ids), images_of(projection.edge_map, ids))):
        if loop[j] != (be is None):
            raise CoverError("vertical edges disagree between quotient and projection")
        if be is not None:
            u, v = least[j]
            if {orbit_to_base[vertex_no[u]], orbit_to_base[vertex_no[v]]} != set(base.ends(be)):
                raise CoverError("quotient incidence does not match the base")
    if cover.is_connected() != generated:
        raise CoverError("connectivity does not match the generation criterion")
    if not generated:
        logger.info("cover is disconnected: inertia and multisets do not generate")


def _generates(cover: HarmonicCover) -> bool:
    """True iff the inertia generators and multiset entries, of an inverse
    pair only the unit rho that collapse read, generate G: one coset."""
    gens = [g for H in cover.inertia.values() for g in H.generators]
    for S in cover.multisets.values():
        gens += (p for p in S.support() if p <= perm_inv(p))
    return len(Cosets(cover.group.element_index(), dict.fromkeys(gens))) == 1


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
    per_vertex: dict  # base vertex -> VertexProfile
    R: Fraction  # the ramification number: sum over base vertices of 2(1 - 1/m) + w


def ramification_profile(c: HarmonicCover) -> RamificationProfile:
    """Per-base-vertex (m, f, n, v, w) and R; the identity m*f*n = |G| is
    asserted at every vertex.

    The fiber over x is read off the projection (see HarmonicCover). m and
    the vertex orbit come from the validation of the cover's action: its
    stored Orbit, whose map phi from G's element index was found
    equivariant there; m is the size of phi's fiber over the orbit's least
    point. The fresh stabilizer computation from both ends of each fiber is
    a test oracle in tests/test_galois.py; fiber components are one
    union_find over the vertical edges.

    The profile and its checks are computed once per cover, on the first
    call, and cached on it; riemann_hurwitz_check, classify_branch_locus
    and profile_to_json read the same profile."""
    return c._profile


def _vertex_profiles(c: HarmonicCover) -> dict:
    """Base vertex -> VertexProfile. The vertical edges, those the
    projection maps to None, are joined by one union_find over the total
    graph, whose vertex ids are 0..N-1 as build_cover and build_maximal
    number them; n, f and v over x are read off the vertices the projection
    maps to x."""
    graph, projection, order = c.graph, c.projection, c.group.order()
    ends = graph.dart_bases()
    vertical = []  # the ends of the vertical edges, flat
    for r, img in enumerate(images_of(projection.edge_map, graph._edge_ids)):
        if img is None:
            vertical += ends[2 * r:2 * r + 2]
    root = union_find(len(graph.vertices), vertical)
    size, degree = Counter(root), Counter(vertical)
    fibers = {x: [] for x in c.base.vertices}
    for y, x in enumerate(images_of(projection.vertex_map, graph.vertices)):
        fibers[x].append(y)
    out = {}
    for x, fiber in fibers.items():
        roots = set(map(root.__getitem__, fiber))
        sizes = set(map(size.__getitem__, roots))
        if len(sizes) != 1:
            raise CoverError(f"fiber over {x} has components of different sizes")
        f, n = sizes.pop(), len(roots)
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

    The right side is an integer, as |G| R is. strict_sign=True evaluates
    the "-R" sign variant instead; it is kept as a documented negative
    control and fails on the shipped examples.
    """
    if not c.is_connected():
        raise CoverError("Riemann-Hurwitz requires a connected total graph")
    R = ramification_profile(c).R
    lhs = 2 * c.graph.genus() - 2
    order, sign = c.group.order(), -1 if strict_sign else 1
    rhs = order * (2 * c.base.genus() - 2) + sign * R.numerator * (order // R.denominator)
    return RiemannHurwitzReport(R, lhs, Fraction(rhs), lhs == rhs, "-R" if strict_sign else "+R")


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
    profile = ramification_profile(c)
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
    R = profile.R
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

    A missing field, a group or base tree that cannot be read, a malformed
    vertex-keyed entry (an inertia generator or multiset entry that is no
    member of the group, a malformed multiset entry), a multiset that is
    not symmetric, a key that is not a base vertex or a non-boolean flipped
    raises CoverError naming its path."""
    spec = read_field(CoverError, "cover spec", data, "group")
    G = read_nested(CoverError, "cover spec", "group", group_from_spec, spec, catalog)
    tree = read_field(CoverError, "cover spec", data, "base.tree")
    base = read_nested(CoverError, "cover spec", "base.tree", Multigraph.from_json, tree)
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
            lambda e: _check_member(G, SymmetricMultiset._entry(e)[0]),
        )
        multisets[x] = read_nested(
            CoverError, "cover spec", f"multisets.{x}", SymmetricMultiset.from_json, entries
        )
    flipped = data.get("flipped", False)
    if not isinstance(flipped, bool):
        raise CoverError(f"cover spec: flipped must be true or false, got {flipped!r}")
    return build_cover(G, base, inertia, multisets, flipped)


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
        read_nested(CoverError, "cover spec", f"{path}.{i}", check, entry)


def profile_to_json(c: HarmonicCover) -> dict:
    profile = ramification_profile(c)
    locus = classify_branch_locus(c)
    return {
        "per_vertex": {str(x): p.as_dict() for x, p in profile.per_vertex.items()},
        "R": str(profile.R),
        "maximal": locus.is_maximal,
        "case": locus.case,
    }
