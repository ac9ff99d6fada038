"""Cubic maps: rotation systems on 3-regular multigraphs, left-hand-turn
tracing, the genus of the attached oriented surface, and the canonical
orientation on a maximal cover coming from its inertia generator.

A map is two permutations of its darts (directed edge-ends), as int lists:
the reversal X (X^2 = 1) and the rotation rot (rot^3 = 1). A map read from a
file numbers its darts by position in Multigraph.darts(), so X[d] = d ^ 1; a
maximal cover's map has G's elements as darts. Faces are the cycles of
d -> rot[X[d]]. Dart tuples appear only at the boundary (from_rotation,
rotation, JSON and DOT).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import eq

from hcov.errors import GraphError
from hcov.kernel import perm_mul, perm_order
from hcov.multigraph import Dart, Multigraph
from hcov.permgroup import orbit_numbering


class OrientedGraph:
    """A cubic map: X[d] is the reverse of dart d, rot[d] the dart after d at
    its vertex, and edge[d], base[d] the ids of its edge and base vertex in
    graph. The constructor takes rot on graph.darts() positions and checks
    that every vertex has degree 3 and that rot cycles exactly the vertex's
    own three darts."""

    def __init__(self, graph: Multigraph, rot):
        self.graph, self.rot, self.X = graph, rot, [d ^ 1 for d in range(len(rot))]
        self.edge = [d.edge for d in graph.darts()]
        self.base = base = graph.dart_bases()
        for v, degree in zip(graph.vertices, graph.degrees()):
            if degree != 3:
                raise GraphError(f"vertex {v} has degree {degree}, not 3")
        n = len(base)
        if len(rot) != n:
            raise GraphError(f"rotation has {len(rot)} entries for {n} darts")
        hit = bytearray(n)
        for d, s in enumerate(rot):
            # injective, fixed-point free and inside the vertex: a 3-cycle
            if type(s) is not int or not 0 <= s < n or base[s] != base[d] or s == d or hit[s]:
                raise GraphError(f"rotation at vertex {base[d]} is not a cyclic order of its darts")
            hit[s] = 1

    @classmethod
    def from_rotation(cls, graph: Multigraph, rotation) -> "OrientedGraph":
        """From the Dart form: vertex -> its three darts in cyclic order.
        A vertex of another degree is left to the constructor's check."""
        darts = graph.darts()
        rot = [-1] * len(darts)
        for v, own in graph.vertex_darts().items():
            if len(own) != 3:
                continue
            ids = {darts[d]: d for d in own}
            cyc = [ids.get(Dart(*d)) for d in rotation.get(v, ())]
            if len(cyc) != 3 or set(cyc) != set(own):
                raise GraphError(f"rotation at vertex {v} is not a cyclic order of its darts")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                rot[a] = b
        return cls(graph, rot)

    @classmethod
    def from_darts(cls, X, Y) -> "OrientedGraph":
        """The map with reversal X and rotation Y: vertices are the cycles of
        Y and edges those of X, each numbered by its least dart (kept in
        least), and edge c joins the vertex of its least dart r to that of
        X[r]. GraphError if an edge is a loop."""
        og = cls.__new__(cls)
        og.X, og.rot = X, Y
        og.base, vertex_least = orbit_numbering(range(len(Y)), (Y,))
        og.edge, edge_least = orbit_numbering(range(len(X)), (X,))
        og.least = vertex_least, edge_least
        ends = [0] * (2 * len(edge_least))
        ends[0::2] = map(og.base.__getitem__, edge_least)
        ends[1::2] = map(og.base.__getitem__, map(X.__getitem__, edge_least))
        og.graph = Multigraph(range(len(vertex_least)), ends=ends)
        return og

    @property
    def rotation(self) -> dict:
        """The Dart form: vertex -> its darts in cyclic order from the least."""
        darts, rot = list(map(Dart, self.edge, self.base)), self.rot
        start = {}
        for d in sorted(range(len(darts)), key=darts.__getitem__):
            start.setdefault(darts[d].base, d)
        return {v: (darts[d], darts[rot[d]], darts[rot[rot[d]]]) for v, d in sorted(start.items())}

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["rotation"] = {
            str(v): [[d.edge, self.graph.ends(d.edge).index(d.base)] for d in rot]
            for v, rot in self.rotation.items()
        }
        return data

    @classmethod
    def from_json(cls, data) -> "OrientedGraph":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except ValueError:
                raise GraphError(f"graph JSON: {data!r} is not a JSON document") from None
        graph = Multigraph.from_json(data)
        if "rotation" not in data:
            raise GraphError("oriented graph JSON: missing field 'rotation'")
        if not isinstance(data["rotation"], dict):
            raise GraphError("oriented graph JSON: 'rotation' must be an object keyed by vertex")
        rotation = {}
        for v, darts in data["rotation"].items():
            try:
                vertex = int(v)
            except ValueError:
                raise GraphError(f"oriented graph JSON: 'rotation.{v}' is no vertex id") from None
            if not isinstance(darts, list):
                raise GraphError(f"oriented graph JSON: 'rotation.{v}' must be a list of darts")
            if not graph.has_vertex(vertex):
                raise GraphError(f"oriented graph JSON: 'rotation.{v}' names no vertex of the graph")
            rotation[vertex] = [_dart(graph, d, f"rotation.{v}.{i}") for i, d in enumerate(darts)]
        return cls.from_rotation(graph, rotation)

    def to_dot(self, name="G") -> str:
        """DOT text; the port attributes record each dart's rotation slot."""
        slot = {d: i for rot in self.rotation.values() for i, d in enumerate(rot)}
        lines = [f"graph {name} {{"]
        for v in self.graph.vertices:
            lines.append(f'  v{v} [label="{v}"];')
        for e in sorted(self.graph.edges):
            u, v = self.graph.ends(e)
            tail = slot[Dart(e, u)]
            head = slot[Dart(e, v)]
            lines.append(
                f'  v{u} -- v{v} [label="e{e}", tailport={tail}, headport={head}];'
            )
        lines.append("}")
        return "\n".join(lines)


def _dart(graph: Multigraph, d, path) -> Dart:
    """The dart [edge id, end 0 or 1] of an oriented graph's JSON."""
    if isinstance(d, list) and len(d) == 2 and all(type(x) is int for x in d) and d[1] in (0, 1):
        try:
            return Dart(d[0], graph.ends(d[0])[d[1]])
        except KeyError:
            pass
    raise GraphError(f"oriented graph JSON: '{path}' must be [edge id, end 0 or 1], got {d!r}")


@dataclass
class LhtDecomposition:
    """Minimal left-hand-turn paths, the faces: the cycles of d -> rot[X[d]]
    (traverse d, leave by the rotation successor of the arriving end) on
    dart ids. orbit_number[d] is the index in orbits of the cycle through
    dart d."""

    orbits: tuple  # tuple of tuples of dart ids
    L: int
    orbit_number: list


def lht_decomposition(og: OrientedGraph) -> LhtDecomposition:
    rot, X = og.rot, og.X
    orbit_number = [-1] * len(rot)  # -1: not traced yet
    orbits = []
    for d in range(len(rot)):
        if orbit_number[d] >= 0:
            continue
        orbit_number[d] = c = len(orbits)
        orbit, cur = [d], rot[X[d]]
        while cur != d:
            if orbit_number[cur] >= 0:
                raise GraphError("left-hand-turn step is not a permutation of the darts")
            orbit_number[cur] = c
            orbit.append(cur)
            cur = rot[X[cur]]
        orbits.append(tuple(orbit))
    if sum(len(o) for o in orbits) != 2 * len(og.graph.edges):
        raise GraphError("orbit lengths do not sum to the dart count")
    return LhtDecomposition(tuple(orbits), len(orbits), orbit_number)


@dataclass
class SurfaceGenusReport:
    vertex_count: int
    L: int
    surface_genus: int


def surface_genus(og: OrientedGraph) -> SurfaceGenusReport:
    """Genus of the closed oriented surface built from the rotation system:
    1 + (|V| - 2L)/4."""
    if not og.graph.is_connected():
        raise GraphError("surface genus requires a connected graph")
    L = lht_decomposition(og).L
    nv = len(og.graph.vertices)
    if (nv - 2 * L) % 4 != 0:
        raise GraphError(f"(|V| - 2L) = {nv - 2 * L} is not divisible by 4")
    g = 1 + (nv - 2 * L) // 4
    if g < 0:
        raise GraphError(f"surface genus came out negative ({g}); invalid rotation data")
    return SurfaceGenusReport(nv, L, g)


# -- the canonical orientation on a maximal cover ---------------------------


def canonical_orientation(mc) -> OrientedGraph:
    """The maximal cover's map, once its rotation passes the star check.
    Its rotation is right multiplication by sigma on the darts, G's
    elements: it keeps the vertex g<sigma> and cycles the three darts
    there, g -> g*sigma -> g*sigma^2; this is the conjugate inertia
    generator r*sigma*r^-1 of the vertex acting on the left, for any member
    r of its coset. The star check: every dart lies on a 3-cycle of rot."""
    rot = mc.map.rot
    if any(map(eq, rot, range(len(rot)))) or not all(
        map(eq, map(rot.__getitem__, map(rot.__getitem__, rot)), range(len(rot)))
    ):
        raise GraphError("right multiplication by sigma does not rotate the star")
    return mc.map


@dataclass
class Theorem44Report:
    group: str
    order: int
    k: int  # order of tau*sigma
    L: int  # traced count of minimal left-hand-turn paths
    surface_genus: int
    lhs: int  # |G| (k - 6)
    rhs: int  # 12 k (genus - 1)
    holds: bool
    hurwitz: bool


def theorem_44_check(mc) -> Theorem44Report:
    """Verify |G|(k-6) = 12k(g(S)-1) with L obtained by generic dart
    tracing; the closed form L = |G|/k is asserted against the traced value,
    never used as a shortcut. In the Hurwitz case (k=7), |G| = 84(g(S)-1)
    is asserted as well."""
    k = perm_order(perm_mul(mc.tau, mc.sigma))
    report = surface_genus(canonical_orientation(mc))
    order = mc.group.order()
    if report.L * k != order:
        raise GraphError(
            f"traced L = {report.L} disagrees with the closed form |G|/k = {order}/{k}"
        )
    lhs = order * (k - 6)
    rhs = 12 * k * (report.surface_genus - 1)
    hurwitz = k == 7
    if hurwitz and order != 84 * (report.surface_genus - 1):
        raise GraphError("Hurwitz identity |G| = 84(g-1) fails")
    return Theorem44Report(mc.group.name, order, k, report.L, report.surface_genus,
                           lhs, rhs, lhs == rhs, hurwitz)
