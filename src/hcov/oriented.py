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
from hcov.kernel import perm_inv, perm_mul, perm_order
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
            data = json.loads(data)
        graph = Multigraph.from_json(data)
        rotation = {}
        for v, darts in data["rotation"].items():
            rotation[int(v)] = tuple(
                Dart(e, graph.ends(e)[end]) for e, end in darts
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
    """Rotation at the vertex with coset representative r given by the
    conjugate inertia generator r*sigma*r^-1 acting on dart labels."""
    sigma = mc.sigma
    rotation = {}
    for v in mc.graph.vertices:
        rep = mc.vertex_rep[v]
        sigma_v = perm_mul(rep, perm_mul(sigma, perm_inv(rep)))
        darts = [Dart(e, v) for e in mc.graph.incident_edges(v)]
        d0 = min(darts)
        h = mc.dart_element[d0]
        rot = [d0]
        for _ in range(2):
            h = perm_mul(sigma_v, h)
            rot.append(mc.element_dart[h])
        if {d.base for d in rot} != {v} or len(set(rot)) != 3:
            raise GraphError("conjugated inertia generator does not rotate the star")
        rotation[v] = tuple(rot)
    og = OrientedGraph(mc.graph, rotation)
    _assert_representative_independence(mc, og)
    return og


def _assert_representative_independence(mc: MaximalCover, og: OrientedGraph):
    """The rotation must not depend on which coset member defines it."""
    sigma = mc.sigma
    for v in list(mc.graph.vertices)[:4]:
        rep = mc.vertex_rep[v]
        for h in (perm_mul(rep, sigma), perm_mul(rep, perm_mul(sigma, sigma))):
            sigma_v = perm_mul(h, perm_mul(sigma, perm_inv(h)))
            d0 = og.rotation[v][0]
            nxt = mc.element_dart[perm_mul(sigma_v, mc.dart_element[d0])]
            if nxt != og.rotation[v][1]:
                raise GraphError("rotation depends on the coset representative")


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
