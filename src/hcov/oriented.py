"""Rotation systems on 3-regular multigraphs, left-hand-turn tracing, the
genus of the attached oriented surface, and the canonical orientation on a
maximal cover coming from its inertia generator.

Rotations are defined on darts (directed edge-ends), which keeps parallel
edges unambiguous; on simple graphs this is the usual cyclic ordering of the
edges at a vertex. A dart is its integer position in Multigraph.darts(), so
the reverse of dart d is d ^ 1; Dart tuples appear only at the boundary
(from_rotation, rotation, JSON and DOT).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from hcov.errors import GraphError
from hcov.kernel import perm_mul, perm_order
from hcov.maximal import MaximalCover
from hcov.multigraph import Dart, Multigraph


class OrientedGraph:
    """A 3-regular multigraph with a cyclic dart order at every vertex:
    rot[d] is the id of the dart after dart d at its vertex. The constructor
    checks that every vertex has degree 3 and that rot cycles exactly the
    vertex's own three darts."""

    def __init__(self, graph: Multigraph, rot):
        self.graph, self.rot = graph, rot
        for v, degree in zip(graph.vertices, graph.degrees()):
            if degree != 3:
                raise GraphError(f"vertex {v} has degree {degree}, not 3")
        base = graph.dart_bases()
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

    @property
    def rotation(self) -> dict:
        """The Dart form: vertex -> its darts in cyclic order from the least."""
        darts, rot = self.graph.darts(), self.rot
        return {v: (darts[d], darts[rot[d]], darts[rot[rot[d]]])
                for v, (d, *_) in sorted(self.graph.vertex_darts().items())}

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
    """Minimal left-hand-turn paths: the cycles of d -> rot[d ^ 1] (traverse
    d, leave by the rotation successor of the arriving end) on dart ids.
    orbit_number[d] is the index in orbits of the cycle through dart d."""

    orbits: tuple  # tuple of tuples of dart ids
    L: int
    orbit_number: list

    def orbit_of(self, d: int) -> tuple:
        if type(d) is not int or not 0 <= d < len(self.orbit_number):
            raise GraphError(f"unknown dart {d}")
        return self.orbits[self.orbit_number[d]]


def lht_decomposition(og: OrientedGraph) -> LhtDecomposition:
    rot = og.rot
    orbit_number = [-1] * len(rot)  # -1: not traced yet
    orbits = []
    for d in range(len(rot)):
        if orbit_number[d] >= 0:
            continue
        orbit_number[d] = c = len(orbits)
        orbit, cur = [d], rot[d ^ 1]
        while cur != d:
            if orbit_number[cur] >= 0:
                raise GraphError("left-hand-turn step is not a permutation of the darts")
            orbit_number[cur] = c
            orbit.append(cur)
            cur = rot[cur ^ 1]
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


def canonical_orientation(mc: MaximalCover) -> OrientedGraph:
    """The rotation of the dart-regular map: right multiplication by sigma
    on the darts' elements. It keeps the vertex g<sigma> and cycles the
    three darts there, g -> g*sigma -> g*sigma^2; this is the conjugate
    inertia generator r*sigma*r^-1 of the vertex acting on the left, for
    any member r of its coset."""
    vof = mc.vertex_rep.of
    r_sigma = mc.vertex_rep.rights[0]  # <sigma> has the one generator sigma
    dart = mc.dart_ids()
    rot = [-1] * len(dart)
    for i, j in enumerate(r_sigma):
        if vof[j] != vof[i] or dart[j] == dart[i]:
            raise GraphError("right multiplication by sigma does not rotate the star")
        rot[dart[i]] = dart[j]
    return OrientedGraph(mc.graph, rot)


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


def theorem_44_check(mc: MaximalCover) -> Theorem44Report:
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
