"""Rotation systems on 3-regular multigraphs, left-hand-turn tracing, the
genus of the attached oriented surface, and the canonical orientation on a
maximal cover coming from its inertia generator.

Rotations are defined on darts (directed edge-ends), which keeps parallel
edges unambiguous; on simple graphs this is the usual cyclic ordering of the
edges at a vertex.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from hcov.errors import GraphError
from hcov.kernel import perm_mul, perm_order
from hcov.maximal import MaximalCover
from hcov.multigraph import Dart, Multigraph


class OrientedGraph:
    """A 3-regular multigraph with a cyclic dart order at every vertex."""

    def __init__(self, graph: Multigraph, rotation):
        self.graph = graph
        self.rotation = {v: tuple(ds) for v, ds in rotation.items()}
        self._successor = None
        for v in graph.vertices:
            darts = {Dart(e, v) for e in graph.incident_edges(v)}
            if graph.degree(v) != 3:
                raise GraphError(f"vertex {v} has degree {graph.degree(v)}, not 3")
            rot = self.rotation.get(v)
            if rot is None or len(rot) != 3 or {Dart(*d) for d in rot} != darts:
                raise GraphError(f"rotation at vertex {v} is not a cyclic order of its darts")
            self.rotation[v] = tuple(Dart(*d) for d in rot)

    def rotation_successor(self, d: Dart) -> Dart:
        rot = self.rotation[d.base]
        return rot[(rot.index(d) + 1) % 3]

    def darts(self):
        return self.graph.darts()

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["rotation"] = {
            str(v): [[d.edge, 0 if self.graph.ends(d.edge)[0] == d.base else 1] for d in rot]
            for v, rot in sorted(self.rotation.items())
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
            rotation[vertex] = tuple(
                _dart(graph, d, f"rotation.{v}.{i}") for i, d in enumerate(darts)
            )
        return cls(graph, rotation)

    def to_dot(self, name="G") -> str:
        """DOT text; the port attributes record each dart's rotation slot."""
        slot = {}
        for v, rot in self.rotation.items():
            for i, d in enumerate(rot):
                slot[d] = i
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


def lht_successor(og: OrientedGraph, d: Dart) -> Dart:
    """Left-hand-turn step: traverse d, then leave along the rotation
    successor of the arriving end."""
    arriving = og.graph.reverse(d)
    return og.rotation_successor(arriving)


def successor_permutation(og: OrientedGraph) -> dict:
    succ = {d: lht_successor(og, d) for d in og.darts()}
    if len(set(succ.values())) != len(succ):
        raise GraphError("left-hand-turn step is not a permutation of the darts")
    return succ


@dataclass
class LhtDecomposition:
    """Minimal left-hand-turn paths as the cycles of the successor map."""

    orbits: tuple  # tuple of tuples of darts
    L: int

    def orbit_of(self, d: Dart):
        for orbit in self.orbits:
            if d in orbit:
                return orbit
        raise GraphError(f"unknown dart {d}")


def lht_decomposition(og: OrientedGraph) -> LhtDecomposition:
    succ = successor_permutation(og)
    seen = set()
    orbits = []
    for d in sorted(succ):
        if d in seen:
            continue
        orbit = [d]
        seen.add(d)
        cur = succ[d]
        while cur != d:
            orbit.append(cur)
            seen.add(cur)
            cur = succ[cur]
        orbits.append(tuple(orbit))
    total = sum(len(o) for o in orbits)
    if total != 2 * len(og.graph.edges):
        raise GraphError("orbit lengths do not sum to the dart count")
    return LhtDecomposition(tuple(orbits), len(orbits))


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


def random_rotation(graph: Multigraph, rng: random.Random) -> OrientedGraph:
    """Uniformly random rotation system on a 3-regular graph."""
    rotation = {}
    for v in graph.vertices:
        darts = [Dart(e, v) for e in graph.incident_edges(v)]
        rng.shuffle(darts)
        rotation[v] = tuple(darts)
    return OrientedGraph(graph, rotation)


# -- the canonical orientation on a maximal cover ---------------------------


def canonical_orientation(mc: MaximalCover) -> OrientedGraph:
    """The rotation of the dart-regular map: right multiplication by sigma
    on the darts' elements. It keeps the vertex g<sigma> and cycles the
    three darts there, g -> g*sigma -> g*sigma^2; this is the conjugate
    inertia generator r*sigma*r^-1 of the vertex acting on the left, for
    any member r of its coset."""
    r_sigma = mc.group.element_index().right(mc.sigma)
    rotation = {}
    for v in mc.graph.vertices:
        d0 = min(Dart(e, v) for e in mc.graph.incident_edges(v))
        i = mc.element_of(d0)
        rot = [d0]
        for _ in range(2):
            i = r_sigma[i]
            rot.append(mc.dart_of(i))
        if {d.base for d in rot} != {v} or len(set(rot)) != 3:
            raise GraphError("right multiplication by sigma does not rotate the star")
        rotation[v] = tuple(rot)
    return OrientedGraph(mc.graph, rotation)


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
    return Theorem44Report(
        mc.group.name,
        order,
        k,
        report.L,
        report.surface_genus,
        lhs,
        rhs,
        lhs == rhs,
        hurwitz,
    )
