"""Finite loopless multigraphs, darts, morphisms, genus, connectivity.

Vertices and edges carry opaque integer ids that stay stable through every
derived computation; parallel edges are distinct ids over the same endpoint
pair. Loop edges are rejected everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from hcov.errors import GraphError, MorphismError


class Dart(NamedTuple):
    """A directed edge-end: the edge id plus the endpoint it is based at."""

    edge: int
    base: int


@dataclass(frozen=True)
class VertexStar:
    """A vertex together with the multiset of its incident edge ids."""

    center: int
    incident_edges: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.incident_edges)


def _int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(x, int) for x in value)


class Multigraph:
    """Immutable loopless multigraph with stable vertex/edge ids."""

    def __init__(self, vertices, edges):
        """vertices: iterable of ids; edges: iterable of (id, (u, v)) or a mapping."""
        vs = list(vertices)
        if len(vs) != len(set(vs)):
            raise GraphError("duplicate vertex ids")
        self._vertices = tuple(vs)
        vset = set(vs)
        if hasattr(edges, "items"):
            edges = edges.items()
        emap = {}
        for eid, ends in edges:
            u, v = ends
            if eid in emap:
                raise GraphError(f"duplicate edge id {eid}")
            if u == v:
                raise GraphError(f"edge {eid} is a loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge {eid} has unknown endpoint in ({u}, {v})")
            emap[eid] = (u, v)
        self._edges = emap
        inc = {v: [] for v in vs}
        for eid in sorted(emap):
            u, v = emap[eid]
            inc[u].append(eid)
            inc[v].append(eid)
        self._incidence = {v: tuple(es) for v, es in inc.items()}

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> MappingProxyType:
        """Edge id -> (u, v), as a read-only view."""
        return MappingProxyType(self._edges)

    def ends(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self._edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def has_vertex(self, v) -> bool:
        return v in self._incidence

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def star(self, v: int) -> VertexStar:
        return VertexStar(v, self._incidence[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return self._incidence[v]

    def darts(self) -> list[Dart]:
        """Every dart, listed by dart id: the dart 2*r + end is the end
        ends(e)[end] of the edge e of rank r in sorted edge order, so the
        reverse of dart d is d ^ 1."""
        return [Dart(e, x) for e in sorted(self._edges) for x in self._edges[e]]

    def dart_bases(self) -> list[int]:
        """The base vertex of every dart, indexed by dart id."""
        return [x for e in sorted(self._edges) for x in self._edges[e]]

    def vertex_darts(self) -> dict:
        """Vertex -> the ids of its darts, ascending."""
        out = {v: [] for v in self._vertices}
        for d, v in enumerate(self.dart_bases()):
            out[v].append(d)
        return out

    def reverse(self, d: Dart) -> Dart:
        return Dart(d.edge, self.other_end(d.edge, d.base))

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __repr__(self):
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    # -- connectivity and genus ------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Partition of the vertices under edge-reachability.

        Components are sorted internally and ordered by smallest vertex id.
        The graph is immutable, so they are computed once; every call
        returns fresh lists.
        """
        return [list(comp) for comp in self._components]

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        edges, incidence = self._edges, self._incidence
        seen = set()
        comps = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                for eid in incidence[v]:
                    a, b = edges[eid]
                    w = b if a == v else a
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        comps.sort(key=lambda c: c[0])
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self._components) <= 1 and len(self._vertices) > 0

    def genus(self) -> int:
        """First Betti number |E| - |V| + 1; requires a connected graph."""
        if not self.is_connected():
            raise GraphError("genus is defined for connected graphs only")
        return len(self._edges) - len(self._vertices) + 1

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [
                {"id": eid, "ends": list(self._edges[eid])} for eid in sorted(self._edges)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Multigraph":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except ValueError:
                raise GraphError(f"graph JSON: {data!r} is not a JSON document") from None
        for key in ("vertices", "edges"):
            if not isinstance(data, dict) or key not in data:
                raise GraphError(f"graph JSON: missing field {key!r}")
        if not _int_list(data["vertices"]):
            raise GraphError("graph JSON: 'vertices' must be a list of integers")
        if not isinstance(data["edges"], (list, tuple)):
            raise GraphError("graph JSON: 'edges' must be a list")
        edges = []
        for rec in data["edges"]:
            if not isinstance(rec, dict) or "id" not in rec or "ends" not in rec:
                raise GraphError(f"graph JSON: edge {rec!r} needs the fields 'id' and 'ends'")
            ends = rec["ends"]
            if not isinstance(rec["id"], int) or not _int_list(ends) or len(ends) != 2:
                raise GraphError(
                    f"graph JSON: edge {rec!r} needs an integer 'id' and two integer 'ends'"
                )
            u, v = ends
            if u == v:
                raise GraphError(f"edge {rec['id']} is a loop at vertex {u}")
            edges.append((rec["id"], (u, v)))
        return cls(data["vertices"], edges)

    def to_dot(self, name="G", labels=None) -> str:
        """DOT text: one `--` line per edge, vertex ids preserved as labels."""
        lines = [f"graph {name} {{"]
        for v in self._vertices:
            label = labels.get(v, v) if labels else v
            lines.append(f'  v{v} [label="{label}"];')
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            lines.append(f'  v{u} -- v{v} [label="e{eid}"];')
        lines.append("}")
        return "\n".join(lines)


# -- morphisms -------------------------------------------------------------


class GraphMorphism:
    """A graph morphism, validated at construction.

    edge_map values are target edge ids, or None for a vertical edge
    (both endpoints collapse onto the same target vertex).
    """

    def __init__(self, source: Multigraph, target: Multigraph, vertex_map, edge_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        self._validate()

    def _validate(self):
        vertex_map, edge_map = self.vertex_map, self.edge_map
        target_vertices, target_ends = self.target._incidence, self.target._edges
        for v in self.source.vertices:
            if v not in vertex_map:
                raise MorphismError(f"vertex {v} has no image")
            if vertex_map[v] not in target_vertices:
                raise MorphismError(f"vertex {v} maps outside the target")
        for e, (y1, y2) in self.source._edges.items():
            if e not in edge_map:
                raise MorphismError(f"edge {e} has no image")
            img = edge_map[e]
            f1, f2 = vertex_map[y1], vertex_map[y2]
            if img is None:
                if f1 != f2:
                    raise MorphismError(
                        f"edge {e} marked vertical but endpoints map to {f1} != {f2}"
                    )
                continue
            ends = target_ends.get(img)
            if ends is None:
                raise MorphismError(f"edge {e} maps to unknown edge {img}")
            if f1 == f2:
                raise MorphismError(f"edge {e} maps to an edge but endpoints collapse to {f1}")
            if ends != (f1, f2) and ends != (f2, f1):
                raise MorphismError(f"edge {e}: image edge {img} does not join {f1} and {f2}")

    @classmethod
    def identity(cls, g: Multigraph) -> "GraphMorphism":
        return cls(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})

    @property
    def vertical_edges(self) -> list[int]:
        return sorted(e for e, img in self.edge_map.items() if img is None)

    def degenerate_vertices(self) -> list[int]:
        """Vertices whose whole neighbourhood collapses to a target vertex."""
        out = []
        for y in self.source.vertices:
            inc = self.source.incident_edges(y)
            if inc and all(self.edge_map[e] is None for e in inc):
                out.append(y)
        return out

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "vertex_map": {str(v): img for v, img in sorted(self.vertex_map.items())},
            "edge_map": {str(e): img for e, img in sorted(self.edge_map.items())},
        }

    @classmethod
    def from_json(cls, data) -> "GraphMorphism":
        if isinstance(data, str):
            data = json.loads(data)
        source = Multigraph.from_json(data["source"])
        target = Multigraph.from_json(data["target"])
        vmap = {int(k): v for k, v in data["vertex_map"].items()}
        emap = {int(k): v for k, v in data["edge_map"].items()}
        return cls(source, target, vmap, emap)


@dataclass
class HarmonicityReport:
    """Verdict of the harmonicity test, with a witness on failure.

    witness is (vertex, edge1, edge2, count1, count2) where the two target
    edges see different preimage counts at the vertex.
    """

    harmonic: bool
    witness: tuple | None = None
    degenerate_vertices: tuple[int, ...] = ()

    def __bool__(self):
        return self.harmonic


def is_harmonic(m: GraphMorphism) -> HarmonicityReport:
    """Test Def-style harmonicity: at every source vertex the preimage count
    is independent of the chosen edge at the image vertex."""
    if not m.target.is_connected():
        raise MorphismError("harmonicity requires a connected target")
    for y in m.source.vertices:
        target_edges = m.target.incident_edges(m.vertex_map[y])
        if not target_edges:
            continue
        counts = {te: 0 for te in target_edges}
        for e in m.source.incident_edges(y):
            img = m.edge_map[e]
            if img is not None:
                counts[img] += 1
        values = {counts[te] for te in target_edges}
        if len(values) > 1:
            lo = min(target_edges, key=lambda te: counts[te])
            hi = max(target_edges, key=lambda te: counts[te])
            return HarmonicityReport(False, (y, hi, lo, counts[hi], counts[lo]))
    return HarmonicityReport(True, None, tuple(m.degenerate_vertices()))


# -- isomorphism (small graphs; backtracking with degree refinement) -------


def _parallel_profile(g: Multigraph, v: int) -> tuple:
    by_neighbor = {}
    for e in g.incident_edges(v):
        w = g.other_end(e, v)
        by_neighbor[w] = by_neighbor.get(w, 0) + 1
    return tuple(sorted(by_neighbor.values()))


def find_isomorphism(g1: Multigraph, g2: Multigraph) -> dict | None:
    """Vertex bijection preserving edge multiplicities, or None.

    Backtracking with degree/parallel-class pruning; intended for the small
    graphs produced in this package (tens of vertices).
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    sig1 = {v: (g1.degree(v), _parallel_profile(g1, v)) for v in g1.vertices}
    sig2 = {v: (g2.degree(v), _parallel_profile(g2, v)) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    def mult(g, u, v):
        return sum(1 for e in g.incident_edges(u) if g.other_end(e, u) == v)

    order = sorted(g1.vertices, key=lambda v: (sig1[v], v))
    mapping = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        u = order[i]
        for w in g2.vertices:
            if w in used or sig2[w] != sig1[u]:
                continue
            ok = True
            for prev in mapping:
                if mult(g1, u, prev) != mult(g2, w, mapping[prev]):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[u]
                used.remove(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


def are_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    return find_isomorphism(g1, g2) is not None
