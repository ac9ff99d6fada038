"""Finite loopless multigraphs, darts, morphisms, genus, connectivity.

Vertices and edges carry opaque integer ids that stay stable through every
derived computation; parallel edges are distinct ids over the same endpoint
pair. Loop edges are rejected everywhere.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import eq, sub
from typing import NamedTuple

from hcov.errors import GraphError, MorphismError


class Dart(NamedTuple):
    """A directed edge-end: the edge id plus the endpoint it is based at."""

    edge: int
    base: int


def _int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(type(x) is int for x in value)


def _as_ids(ids) -> tuple:
    """(ids, positions): range(n) and None when the ids are 0..n-1 in order,
    each its own position; else the ids as a tuple and a dict from id to
    position."""
    if not isinstance(ids, range):
        ids = tuple(ids)
    n = len(ids)
    if ids == range(n) or ids == tuple(range(n)):
        return range(n), None
    return tuple(ids), {x: i for i, x in enumerate(ids)}


def map_items(m):
    """(id, image) pairs of a map kept as given: a dict, or a sequence (list,
    array or range) indexed by id."""
    return m.items() if isinstance(m, dict) else enumerate(m)


def map_images(m):
    """The images of a map kept as given, in the order of map_items."""
    return m.values() if isinstance(m, dict) else m


def images_of(m, ids):
    """The images of the ids, in order, under a map kept as given: the
    sequence itself when the ids are 0..n-1."""
    return m if isinstance(ids, range) and not isinstance(m, dict) else map(m.__getitem__, ids)


def _has(m, x) -> bool:
    """True iff the map m (a dict, or a sequence indexed by id) has an image
    for x."""
    if isinstance(m, dict):
        return x in m
    return type(x) is int and 0 <= x < len(m)


def _covers(m, ids) -> bool:
    """True iff the map m has an image for every id."""
    if isinstance(m, dict):
        return all(map(m.__contains__, ids))
    if isinstance(ids, range):
        return len(m) >= len(ids)
    return all(_has(m, x) for x in ids)


class EdgeEnds(Mapping):
    """Edge id -> (u, v), read-only: the pair is built from the flat ends
    when it is read. Iterates the edge ids ascending."""

    __slots__ = ("_ids", "_rank", "_ends")

    def __init__(self, ids, rank, ends):
        self._ids, self._rank, self._ends = ids, rank, ends

    def __getitem__(self, e):
        r = _rank(self._ids, self._rank, e)
        return self._ends[2 * r], self._ends[2 * r + 1]

    def __contains__(self, e):
        return _position(self._ids, self._rank, e) is not None

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)


def _position(ids, positions, x):
    """The position of the id x among ids, positions being None when ids is
    range(n) and else their dict; None when x is not one of the ids."""
    if positions is not None:
        return positions.get(x)
    return x if type(x) is int and 0 <= x < len(ids) else None


def _rank(ids, positions, x) -> int:
    """The position of the id x among ids, or KeyError."""
    r = _position(ids, positions, x)
    if r is None:
        raise KeyError(x)
    return r


def union_find(count, ends) -> list:
    """The root of each point 0..count-1, once the two ends of every edge in
    the flat ends are joined: union-find with path halving."""
    parent = list(range(count))
    for u, v in zip(ends[0::2], ends[1::2]):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
    for k, root in enumerate(parent):
        while parent[root] != root:
            root = parent[root]
        parent[k] = root
    return parent


class Multigraph:
    """Immutable loopless multigraph with stable vertex/edge ids.

    Stored flat, with no tuple per edge or vertex. The vertex ids are kept
    in the given order, as a range when they are 0..n-1; the edge ids
    ascending, as a range when they are 0..m-1. The ends of the edge of
    rank r are ends[2r] and ends[2r + 1], so the dart 2r + end is based at
    ends[2r + end] and the reverse of dart d is d ^ 1. A dict from id to
    position exists only for ids that are not 0..n-1 (and then ends is a
    list; else it is an array of ints). Every check reads these. The
    incidence is built on first use: the darts at the vertex in position k
    are darts[offsets[k]:offsets[k + 1]], ascending.
    """

    def __init__(self, vertices, edges=(), ends=None):
        """vertices: iterable of ids; edges: iterable of (id, (u, v)) or a
        mapping. Or, for edges numbered 0..m-1, ends: their ends as one flat
        sequence u0, v0, u1, v1, ..., with edges left empty."""
        self._vertices, self._vpos = _as_ids(vertices)
        if self._vpos is not None and len(self._vpos) != len(self._vertices):
            raise GraphError("duplicate vertex ids")
        if ends is None:
            ids, ends = self._read_pairs(edges.items() if hasattr(edges, "items") else edges)
        else:
            if len(ends) % 2:
                raise GraphError(f"ends has odd length {len(ends)}: two per edge")
            ids = range(len(ends) // 2)
            if not self._all_edges_valid(ends):
                for e, u, v in zip(ids, ends[0::2], ends[1::2]):
                    self._check_edge(e, u, v)
        self._store(ids, ends)

    def _check_edge(self, eid, u, v):
        if u == v:
            raise GraphError(f"edge {eid} is a loop at vertex {u}")
        if not (self.has_vertex(u) and self.has_vertex(v)):
            raise GraphError(f"edge {eid} has unknown endpoint in ({u}, {v})")

    def _all_edges_valid(self, ends) -> bool:
        """True iff no edge of the flat ends is a loop or has an unknown end."""
        if any(map(eq, ends[0::2], ends[1::2])):
            return False
        if self._vpos is not None:
            return all(map(self._vpos.__contains__, ends))
        return not ends or (min(ends) >= 0 and max(ends) < len(self._vertices))

    def _read_pairs(self, edges) -> tuple:
        """The edge ids ascending and their ends, flat, from (id, (u, v))
        pairs, each pair checked in the given order."""
        ids, flat, seen = [], [], set()
        for eid, uv in edges:
            u, v = uv
            if eid in seen:
                raise GraphError(f"duplicate edge id {eid}")
            self._check_edge(eid, u, v)
            seen.add(eid)
            ids.append(eid)
            flat += (u, v)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        return [ids[r] for r in order], [flat[2 * r + x] for r in order for x in (0, 1)]

    def _store(self, ids, ends):
        self._edge_ids, self._erank = _as_ids(ids)
        self._ends = array("i", ends) if self._vpos is None else list(ends)

    def _base_positions(self):
        """The position of the base vertex of every dart."""
        vpos = self._vpos
        return self._ends if vpos is None else map(vpos.__getitem__, self._ends)

    @cached_property
    def _offsets(self):
        """offsets[k]: how many darts are based before the vertex in
        position k; computed on first use, as are the darts."""
        degree = [0] * (len(self._vertices) + 1)
        for k in self._base_positions():
            degree[k + 1] += 1
        return array("i", accumulate(degree))

    @cached_property
    def _darts(self):
        """The darts grouped by the position of their base vertex, each
        group ascending: a counting sort."""
        nxt = self._offsets.tolist()
        darts = array("i", [0]) * len(self._ends)
        for d, k in enumerate(self._base_positions()):
            i = nxt[k]
            darts[i] = d
            nxt[k] = i + 1
        return darts

    def _pos(self, v) -> int:
        """The position of the vertex v, or KeyError."""
        return _rank(self._vertices, self._vpos, v)

    @property
    def vertices(self):
        """The vertex ids in the given order: a range when they are 0..n-1,
        else a tuple."""
        return self._vertices

    @property
    def edges(self) -> EdgeEnds:
        """Edge id -> (u, v), as a read-only view."""
        return EdgeEnds(self._edge_ids, self._erank, self._ends)

    def ends(self, eid: int) -> tuple[int, int]:
        r = _rank(self._edge_ids, self._erank, eid)
        return self._ends[2 * r], self._ends[2 * r + 1]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.ends(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def has_vertex(self, v) -> bool:
        return _position(self._vertices, self._vpos, v) is not None

    def degree(self, v: int) -> int:
        k = self._pos(v)
        return self._offsets[k + 1] - self._offsets[k]

    def degrees(self) -> list[int]:
        """The degree of every vertex, in the order of vertices."""
        offsets = self._offsets
        return list(map(sub, offsets[1:], offsets[:-1]))

    def incident_edges(self, v: int) -> tuple[int, ...]:
        k, ids = self._pos(v), self._edge_ids
        return tuple(ids[d >> 1] for d in self._darts[self._offsets[k]:self._offsets[k + 1]])

    def darts(self) -> list[Dart]:
        """Every dart, listed by dart id: the dart 2*r + end is the end
        ends(e)[end] of the edge e of rank r in sorted edge order, so the
        reverse of dart d is d ^ 1."""
        ids = self._edge_ids
        return [Dart(ids[d >> 1], x) for d, x in enumerate(self._ends)]

    def dart_bases(self):
        """The base vertex of every dart, indexed by dart id: the flat ends
        themselves, which must not be modified."""
        return self._ends

    def vertex_darts(self) -> dict:
        """Vertex -> the ids of its darts, ascending, as fresh lists."""
        darts, offsets = self._darts, self._offsets
        return {v: darts[offsets[k]:offsets[k + 1]].tolist() for k, v in enumerate(self._vertices)}

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._edge_ids == other._edge_ids
            and self._ends == other._ends
        )

    def __repr__(self):
        return f"Multigraph({len(self._vertices)} vertices, {len(self._edge_ids)} edges)"

    # -- connectivity and genus ------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Partition of the vertices under edge-reachability.

        Components are sorted internally and ordered by smallest vertex id.
        The graph is immutable, so they are computed once; every call
        returns fresh lists.
        """
        return [list(comp) for comp in self._components]

    @cached_property
    def _components(self) -> tuple:
        """Union-find over the flat ends, on vertex positions."""
        vertices, vpos = self._vertices, self._vpos
        far = self._ends if vpos is None else list(map(vpos.__getitem__, self._ends))
        roots = union_find(len(vertices), far)
        if roots and roots.count(roots[0]) == len(roots):  # one root
            return (vertices if vpos is None else tuple(sorted(vertices)),)
        comps = {}
        for v, root in zip(vertices, roots):
            comps.setdefault(root, []).append(v)
        return tuple(sorted(tuple(sorted(comp)) for comp in comps.values()))

    def is_connected(self) -> bool:
        return len(self._components) <= 1 and len(self._vertices) > 0

    def genus(self) -> int:
        """First Betti number |E| - |V| + 1; requires a connected graph."""
        if not self.is_connected():
            raise GraphError("genus is defined for connected graphs only")
        return len(self._edge_ids) - len(self._vertices) + 1

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        ends = self._ends
        return {
            "vertices": list(self._vertices),
            "edges": [
                {"id": e, "ends": [ends[2 * r], ends[2 * r + 1]]}
                for r, e in enumerate(self._edge_ids)
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
            if type(rec["id"]) is not int or not _int_list(ends) or len(ends) != 2:
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
        ends = self._ends
        for r, e in enumerate(self._edge_ids):
            lines.append(f'  v{ends[2 * r]} -- v{ends[2 * r + 1]} [label="e{e}"];')
        lines.append("}")
        return "\n".join(lines)


# -- morphisms -------------------------------------------------------------


def _edge_error(target: Multigraph, img, f1, f2) -> str | None:
    """What is wrong with a source edge whose image is img and whose ends
    map to f1 and f2, after "edge e", or None."""
    if img is None:
        if f1 != f2:
            return f" marked vertical but endpoints map to {f1} != {f2}"
        return None
    if img not in target.edges:
        return f" maps to unknown edge {img}"
    if f1 == f2:
        return f" maps to an edge but endpoints collapse to {f1}"
    a, b = target.ends(img)
    if (a, b) != (f1, f2) and (a, b) != (f2, f1):
        return f": image edge {img} does not join {f1} and {f2}"
    return None


class GraphMorphism:
    """A graph morphism, validated at construction.

    vertex_map and edge_map are kept as given, not copied, so they must not
    change afterwards: a sequence (list, array or range) indexed by id when
    the source's ids are 0..n-1, a dict otherwise. edge_map values are
    target edge ids, or None for a vertical edge (both endpoints collapse
    onto the same target vertex). Read the pairs with map_items.
    """

    def __init__(self, source: Multigraph, target: Multigraph, vertex_map, edge_map):
        self.source = source
        self.target = target
        self.vertex_map = vertex_map
        self.edge_map = edge_map
        self._validate()

    def _validate(self):
        """Every id and each distinct image, or distinct (edge image, end
        images) triple, is checked once; on a failure the loop in source
        order names the first bad vertex or edge."""
        vm, em, source, target = self.vertex_map, self.edge_map, self.source, self.target
        vertices, ids = source.vertices, source._edge_ids
        if not (
            _covers(vm, vertices) and _covers(em, ids)
            and all(map(target.has_vertex, set(map(vm.__getitem__, vertices))))
        ):
            self._raise_first_error()
        f = list(map(vm.__getitem__, source._ends))
        for img, f1, f2 in set(zip(images_of(em, ids), f[0::2], f[1::2])):
            if _edge_error(target, img, f1, f2) is not None:
                self._raise_first_error()

    def _raise_first_error(self):
        vm, em, target, ends = self.vertex_map, self.edge_map, self.target, self.source._ends
        for v in self.source.vertices:
            if not _has(vm, v):
                raise MorphismError(f"vertex {v} has no image")
            if not target.has_vertex(vm[v]):
                raise MorphismError(f"vertex {v} maps outside the target")
        for r, e in enumerate(self.source._edge_ids):
            if not _has(em, e):
                raise MorphismError(f"edge {e} has no image")
            error = _edge_error(target, em[e], vm[ends[2 * r]], vm[ends[2 * r + 1]])
            if error is not None:
                raise MorphismError(f"edge {e}{error}")

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "vertex_map": {str(v): img for v, img in sorted(map_items(self.vertex_map))},
            "edge_map": {str(e): img for e, img in sorted(map_items(self.edge_map))},
        }


@dataclass
class HarmonicityReport:
    """Verdict of the harmonicity test, with a witness on failure.

    witness is (vertex, edge1, edge2, count1, count2) where the two target
    edges see different preimage counts at the vertex.
    """

    harmonic: bool
    witness: tuple | None = None

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
    return HarmonicityReport(True)


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
