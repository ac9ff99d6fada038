"""Group actions on multigraphs: faithfulness, quotients, the dart-freeness
criterion of harmonicity, flipped edges, and flip/unflip model conversion.

An action is specified by the images of the group's generators only. Each
orbit is read through the group's element index (`Orbit`), and the action
of an arbitrary element is read from those orbits.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq
from typing import NamedTuple

from hcov.errors import ActionError, GroupError, read_field, read_nested
from hcov.kernel import perm_inv, perm_order
from hcov.multigraph import Dart, GraphMorphism, Multigraph, map_items
from hcov.permgroup import (
    PermutationGroup, Subgroup, cycle_string, group_from_spec, orbit_numbering,
)


def _size(orbit) -> int:
    return orbit.size


def _mul(left, word, j) -> int:
    """The index of x_i * x_j, word being the element index's word(i)."""
    for k in word:
        j = left[k][j]
    return j


def _image(left, word, orbit, y):
    """The image of the point y of orbit under x_i, word being word(i)."""
    return orbit.phi[_mul(left, word, orbit.least[y])]


def _is_bijection(m, points) -> bool:
    """True iff the image map m is a bijection of the points, a graph's
    vertex or edge ids."""
    n = len(points)
    if isinstance(points, range) and not isinstance(m, dict):
        if len(m) != n:
            return False
        # n distinct integers in 0..n-1
        return not n or (min(m) == 0 and max(m) == n - 1 and len(set(m)) == n)
    points = set(points)
    if isinstance(m, dict):
        return m.keys() == points and set(m.values()) == points
    return set(range(len(m))) == points and set(m) == points


def _per_point(points):
    """-1 for every point, indexed by point id: an array when the ids are
    0..n-1, else a dict."""
    n = len(points)
    if not n or (min(points) == 0 and max(points) == n - 1):
        return array("i", [-1]) * n
    return dict.fromkeys(points, -1)


class Orbit(NamedTuple):
    """One orbit O of the group on vertices or edges, as a map from G's
    element index: phi[i] = x_i(p), p = phi[0] the least point of O, and
    size = |O|.

    least[y] is the least index i with phi[i] = y. It is one array for all
    the orbits of a kind (vertices or edges), indexed by point id (a dict
    for sparse ids), and an Orbit reads it only at its own points. An
    element x_i maps y = x_t(p), t = least[y], to phi[j], j the index of
    x_i * x_t."""

    phi: list
    least: object  # array or dict: point -> least index, shared by the kind
    size: int

    @property
    def point(self):
        return self.phi[0]

    def points(self) -> list:
        """The points of O, ascending: phi is onto O."""
        return sorted(set(self.phi))

    def stabilizer(self) -> list:
        """Stab_G(p) as element indices, the fiber of phi over p; the
        identity 0 comes first."""
        return list(compress(range(len(self.phi)), map(eq, self.phi, repeat(self.phi[0]))))

    def stabilizer_order(self) -> int:
        """|Stab_G(p)| = |G| / |O|: every fiber of phi is a coset of it."""
        return len(self.phi) // self.size


def _image_map(data, name):
    """The image map of a generator at the dotted path name of an action's
    JSON: a list when its keys are 0..n-1, else a dict of ints."""
    images = read_field(ActionError, "action JSON", data, name, dict)
    out = {}
    for key, img in images.items():
        try:
            point = int(key)
        except ValueError:
            raise ActionError(f"action JSON: {name!r} has a non-integer key {key!r}") from None
        if type(img) is not int:
            raise ActionError(f"action JSON: '{name}.{key}' must be an integer, got {img!r}")
        out[point] = img
    if out.keys() == set(range(len(out))):
        return [out[y] for y in range(len(out))]
    return out


class GraphAction:
    """A group acting by automorphisms on a multigraph.

    vertex_images/edge_images hold one image map per group generator,
    kept as given, not copied, so they must not change afterwards: a list
    indexed by point id when the ids are 0..n-1 (as build_cover,
    build_maximal and from_json make them), a dict otherwise (JSON with
    gaps in its ids, the edges that unflip and flip_all keep). Every reader
    indexes m[y]; only the bijection check and to_json look at the
    container. The constructor verifies, exactly and at any group order,
    that the generator images define a genuine action and that it is
    faithful on every connected component. Every computation runs on G's
    element index x_0, ..., x_{|G|-1} (x_0 the identity, left[k] left
    multiplication by the k-th generator g_k).

    Well-definedness is tested one orbit O of vertices or edges at a time,
    p the least point of O. The orbit map phi, phi[i] = x_i(p), is built
    once along the index's walk tree and is onto O. The maps m_k extend
    to an action of G on O iff phi is equivariant, m_k(phi[i]) =
    phi[left[k][i]] for every k and i: then a word in the m_k that is
    trivial in G fixes every phi[i], and conversely phi(g_k x) =
    g_k(phi(x)) in any action.

    Validation keeps each orbit as an Orbit and, per kind, two arrays
    indexed by point id (dicts for sparse ids): the orbit number of every
    point, orbits numbered by least point, and its least index, least[y].
    vertex_orbit(v) and edge_orbit(e) read them. The stabilizer Stab_G(p)
    is the fiber of phi over p, of order |G|/|O|; harmonicity, flipped
    edges, flip_all, the quotient by G and the ramification profile read
    it.

    A kernel element lies in every stabilizer, so only the stabilizer of
    the point x with the largest orbit is enumerated, x_t Stab_G(p) x_t^-1
    with t = least[x]. Each member h is tested point by point on index
    products: h fixes y iff phi[index of h * x_s] = y, s = least[y]. On a
    component (Def 2.3) the kernel is its pointwise stabilizer, and
    components in one orbit are conjugate: one per orbit is tested.
    """

    def __init__(self, group: PermutationGroup, graph: Multigraph, vertex_images, edge_images):
        self.group = group
        self.graph = graph
        self.vertex_images = list(vertex_images)
        self.edge_images = list(edge_images)
        if len(self.vertex_images) != len(group.generators) or len(
            self.edge_images
        ) != len(group.generators):
            raise ActionError("need exactly one vertex/edge image map per generator")
        self._harmonic_report = None
        self._validate_generator_maps()
        self._validate_action()

    # -- construction-time checks ----------------------------------------

    def _validate_generator_maps(self):
        graph = self.graph
        ids, rank, ends = graph._edge_ids, graph._erank, graph._ends
        us, vs = ends[0::2], ends[1::2]
        for i, (vm, em) in enumerate(zip(self.vertex_images, self.edge_images)):
            if not _is_bijection(vm, graph.vertices):
                raise ActionError(f"generator {i}: vertex map is not a bijection")
            if not _is_bijection(em, ids):
                raise ActionError(f"generator {i}: edge map is not a bijection")
            # the rank of each edge's image, whose ends it must join
            if not isinstance(em, dict):  # a list: the edge ids are 0..m-1
                image_rank = em
            elif rank is None:
                image_rank = list(map(em.__getitem__, ids))
            else:
                image_rank = list(map(rank.__getitem__, map(em.__getitem__, ids)))
            checked = zip(ids, map(vm.__getitem__, us), map(vm.__getitem__, vs),
                          map(us.__getitem__, image_rank), map(vs.__getitem__, image_rank))
            for e, iu, iv, a, b in checked:
                if (iu != a or iv != b) and (iu != b or iv != a):
                    raise ActionError(
                        f"generator {i}: edge {e} maps to {em[e]} but endpoints map to"
                        f" ({iu}, {iv})"
                    )

    def _validate_action(self):
        index = self.group.element_index()
        kinds = []  # per kind: (orbit number per point, the orbits by least point)
        for kind, maps, points in (
            ("vertex", self.vertex_images, self.graph.vertices),
            ("edge", self.edge_images, self.graph._edge_ids),
        ):
            number, least, orbits = _per_point(points), _per_point(points), []
            for p in points if isinstance(points, range) else sorted(points):
                if number[p] >= 0:
                    continue
                phi = index.orbit_map(maps, p)
                for k, (m, lk) in enumerate(zip(maps, index.left)):
                    if list(map(m.__getitem__, phi)) != list(map(phi.__getitem__, lk)):
                        raise ActionError(
                            f"generator images do not define an action: on the orbit of"
                            f" {kind} {p}, generator {k} does not act as left"
                            " multiplication in the group"
                        )
                # written from the last index down, so the least one stays
                first = dict(zip(reversed(phi), range(len(phi) - 1, -1, -1)))
                j = len(orbits)
                for y, i in first.items():
                    least[y] = i
                    number[y] = j
                orbits.append(Orbit(phi, least, len(first)))
            kinds.append((number, orbits))
        self._vertex_orbit_no, self._vertex_orbits = kinds[0]
        self._edge_orbit_no, self._edge_orbits = kinds[1]
        # the kernel is normal: any point's stabilizer holds it, and the
        # least point of the largest orbit has the smallest one
        largest = max(self._vertex_orbits + self._edge_orbits, key=_size, default=None)
        start = None if largest is None else (largest, largest.point)
        graph = self.graph
        if self._kernel_element(graph.vertices, graph._edge_ids, start) is not None:
            raise ActionError("action is not faithful: a non-identity element acts trivially")
        comps = graph.connected_components()
        if len(comps) < 2:
            return
        # Def 2.3: the kernel on a component is its pointwise stabilizer;
        # components in one orbit are conjugate, so test one per orbit
        cidx = {v: ci for ci, comp in enumerate(comps) for v in comp}
        comp_edges = [[] for _ in comps]
        for e, u in zip(graph._edge_ids, graph._ends[0::2]):
            comp_edges[cidx[u]].append(e)
        done = set()
        for ci, comp in enumerate(comps):
            if ci in done:
                continue
            done.update(map(cidx.__getitem__, self.vertex_orbit(comp[0]).phi))
            points = [(self.vertex_orbit(v), v) for v in comp]
            points += [(self.edge_orbit(e), e) for e in comp_edges[ci]]
            start = max(points, key=lambda pt: _size(pt[0]))
            if self._kernel_element(comp, comp_edges[ci], start) is not None:
                raise ActionError(
                    f"action is not faithful on the component of vertex {comp[0]}:"
                    " a non-identity element fixes it pointwise"
                )

    def _kernel_element(self, vertices, edges, start):
        """The index of a non-identity member fixing every given vertex and
        edge, or None.

        start is (orbit, x) for one of the given points x, None if there are
        none. Such a member lies in the stabilizer x_t Stab_G(p) x_t^-1 of
        x, t = least[x], which is smallest when x's orbit is the largest.
        Each member is tested point by point, stopping at the first point it
        moves."""
        index = self.group.element_index()
        left = index.left
        points = [(self.vertex_orbit, vertices), (self.edge_orbit, edges)]
        candidates = range(1, len(index))  # no points: every member fixes them
        if start is not None:
            orbit, x = start
            t = orbit.least[x]
            t_word = index.word(t)
            t_inv = index.index_of(perm_inv(index.element(t)))
            candidates = sorted(
                _mul(left, t_word, _mul(left, index.word(s), t_inv))
                for s in orbit.stabilizer()[1:]
            )
        for h in candidates:
            word = index.word(h)
            if all(
                _image(left, word, orbit_of(y), y) == y for orbit_of, ys in points for y in ys
            ):
                return h
        return None

    # -- applying elements -------------------------------------------------

    def generator_count(self) -> int:
        return len(self.group.generators)

    def element_action(self, g) -> tuple[dict, dict]:
        """(vertex map, edge map) of an arbitrary group member, as dicts read
        from the validated orbits; GroupError if g is not a member."""
        index = self.group.element_index()
        try:
            word = index.word(index.index_of(g))
        except KeyError:
            raise GroupError(f"{cycle_string(g)} is not a member of {self.group.name}") from None
        left = index.left
        vm = {v: _image(left, word, self.vertex_orbit(v), v) for v in self.graph.vertices}
        em = {e: _image(left, word, self.edge_orbit(e), e) for e in self.graph.edges}
        return vm, em

    # -- orbits ------------------------------------------------------------

    def vertex_orbit(self, v) -> Orbit:
        """The Orbit of the vertex v."""
        return self._vertex_orbits[self._vertex_orbit_no[v]]

    def edge_orbit(self, e) -> Orbit:
        """The Orbit of the edge e."""
        return self._edge_orbits[self._edge_orbit_no[e]]

    def edge_orbits(self) -> list:
        """The Orbit of each edge orbit, ordered by least edge."""
        return list(self._edge_orbits)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["group"] = {
            "name": self.group.name,
            "degree": self.group.degree,
            "generators": [list(g) for g in self.group.generators],
        }
        data["vertex_images"] = {
            str(i): {str(v): img for v, img in sorted(map_items(m))}
            for i, m in enumerate(self.vertex_images)
        }
        data["edge_images"] = {
            str(i): {str(e): img for e, img in sorted(map_items(m))}
            for i, m in enumerate(self.edge_images)
        }
        return data

    @classmethod
    def from_json(cls, data, catalog=None) -> "GraphAction":
        graph = Multigraph.from_json(data)
        spec = read_field(ActionError, "action JSON", data, "group")
        group = read_nested(ActionError, "action JSON", "group", group_from_spec, spec, catalog)
        k = len(group.generators)
        vmaps = []
        emaps = []
        for i in range(k):
            vmaps.append(_image_map(data, f"vertex_images.{i}"))
            emaps.append(_image_map(data, f"edge_images.{i}"))
        return cls(group, graph, vmaps, emaps)

    def __repr__(self):
        return f"GraphAction({self.group.name} on {self.graph!r})"


# -- quotients ----------------------------------------------------------------


@dataclass
class QuotientResult:
    """Quotient graph, the projection morphism, and the removed loop-orbits."""

    quotient: Multigraph
    projection: GraphMorphism
    removed_loops: list = field(default_factory=list)


def quotient(a: GraphAction, H: Subgroup | None = None) -> QuotientResult:
    """Quotient of the action by a subgroup (default: the whole group).

    Vertices and edges of the quotient are the H-orbits, numbered by least
    point; for H = G they are the validated orbits. Edge orbits whose
    endpoints fall into one vertex orbit are removed and recorded.
    """
    graph = a.graph
    vertices, ids = graph.vertices, graph._edge_ids
    if H is None or H is a.group:
        vclass, eclass = a._vertex_orbit_no, a._edge_orbit_no
        vcount, ereps = len(a._vertex_orbits), [o.point for o in a._edge_orbits]
    else:
        for h in H.generators:
            if not a.group.contains(h):
                raise ActionError(f"subgroup generator is not a member of {a.group.name}")
        actions = [a.element_action(h) for h in H.generators]
        vclass, vreps = orbit_numbering(vertices, [vm for vm, _ in actions])
        eclass, ereps = orbit_numbering(ids, [em for _, em in actions])
        vcount = len(vreps)
    qedge, qends, loops = [], [], {}  # per edge orbit: its quotient edge, None if a loop
    for j, e in enumerate(ereps):
        u, v = map(vclass.__getitem__, graph.ends(e))
        if u == v:
            qedge.append(None)
            loops[j] = {"edges": [], "vertex": u}
        else:
            qedge.append(len(qends) // 2)
            qends += (u, v)
    for e in ids if loops else ():
        if qedge[eclass[e]] is None:
            loops[eclass[e]]["edges"].append(e)
    qgraph = Multigraph(range(vcount), ends=qends)
    # the class maps are indexed like the graph's ids, as the projection's maps
    if isinstance(eclass, dict):
        edge_map = {e: qedge[c] for e, c in eclass.items()}
    else:
        edge_map = list(map(qedge.__getitem__, eclass))
    projection = GraphMorphism(graph, qgraph, vclass, edge_map)
    return QuotientResult(qgraph, projection, list(loops.values()))


# -- harmonicity ----------------------------------------------------------------


@dataclass
class ActionHarmonicityReport:
    """Dart-freeness verdict; on failure, a stabilized dart and the element."""

    harmonic: bool
    witness_dart: Dart | None = None
    witness_element: tuple | None = None

    def __bool__(self):
        return self.harmonic


def is_harmonic_action(a: GraphAction) -> ActionHarmonicityReport:
    """True iff no non-identity element fixes a dart (stabilizers of directed
    edges are trivial).

    Per edge orbit, with e = {u0, v0} its least edge: every member of
    Stab(e) fixes or swaps u0 and v0, so the stabilizer of every dart over
    the orbit is conjugate to that of the dart (e, u0), Stab(e) & Stab(u0).
    Its least non-identity index, if any, is the witness."""
    if a._harmonic_report is not None:
        return a._harmonic_report
    report = ActionHarmonicityReport(True)
    index = a.group.element_index()
    for orbit in a.edge_orbits():
        if orbit.size == len(index):
            continue
        rep = orbit.point
        u0 = a.graph.ends(rep)[0]
        u0_orbit = a.vertex_orbit(u0)
        witness = next(
            (h for h in orbit.stabilizer()[1:]
             if _image(index.left, index.word(h), u0_orbit, u0) == u0),
            None,
        )
        if witness is not None:
            report = ActionHarmonicityReport(False, Dart(rep, u0), index.element(witness))
            break
    a._harmonic_report = report
    return report


# -- flipped edges and model conversion ------------------------------------------


def flipped_edges(a: GraphAction) -> set:
    """Edges whose undirected stabilizer has order 2 (harmonic actions only)."""
    if not is_harmonic_action(a):
        raise ActionError("flipped_edges requires a harmonic action")
    out = set()
    for orbit in a.edge_orbits():
        if orbit.stabilizer_order() == 2:
            out.update(orbit.phi)
    return out


def unflip(a: GraphAction) -> GraphAction:
    """Replace each flipped edge by a parallel pair interchanged by its
    stabilizing involution; the result is harmonic with no flipped edges."""
    if not is_harmonic_action(a):
        raise ActionError("unflip requires a harmonic action")
    flipped = flipped_edges(a)
    if not flipped:
        return a
    graph = a.graph
    next_id = max(graph.edges) + 1
    children = {}  # flipped edge -> {base_vertex: child id}
    edges = []
    for e in sorted(graph.edges):
        u, v = graph.ends(e)
        if e in flipped:
            children[e] = {u: next_id, v: next_id + 1}
            edges.append((next_id, (u, v)))
            edges.append((next_id + 1, (u, v)))
            next_id += 2
        else:
            edges.append((e, (u, v)))
    new_graph = Multigraph(graph.vertices, edges)
    new_edge_images = []
    for i in range(a.generator_count()):
        vm = a.vertex_images[i]
        em = a.edge_images[i]
        new_em = {}
        for e in graph.edges:
            if e in flipped:
                img = em[e]
                for base, child in children[e].items():
                    new_em[child] = children[img][vm[base]]
            else:
                new_em[e] = em[e]
        new_edge_images.append(new_em)
    out = GraphAction(a.group, new_graph, a.vertex_images, new_edge_images)
    if not is_harmonic_action(out):
        raise ActionError("unflip produced a non-harmonic action")
    if flipped_edges(out):
        raise ActionError("unflip left flipped edges behind")
    if graph.is_connected() and new_graph.genus() != graph.genus() + len(flipped):
        raise ActionError("unflip did not add one to the genus per flipped edge")
    return out


def flip_all(a: GraphAction) -> GraphAction:
    """Collapse every orbit of flippable parallel pairs to flipped edges.

    A pair {e, e'} is flippable when some involution maps e to the parallel
    edge e' while swapping the shared endpoints; collapsing is all-or-nothing
    per orbit. Inverse of unflip on its image.
    """
    if not is_harmonic_action(a):
        raise ActionError("flip_all requires a harmonic action")
    if flipped_edges(a):
        raise ActionError("flip_all expects an unflipped action")
    graph = a.graph
    index = a.group.element_index()
    pair_maps = [_OnPairs(em) for em in a.edge_images]
    pair_of = {}
    for orbit in a.edge_orbits():
        rep = orbit.point
        u0, v0 = graph.ends(rep)
        u0_orbit = a.vertex_orbit(u0)
        # edge stabilizers are trivial here: least[e] is the one element
        # mapping rep to e
        partners = [
            e for e in orbit.points()
            if e != rep and set(graph.ends(e)) == {u0, v0}
            and perm_order(index.element(orbit.least[e])) == 2
            and _image(index.left, index.word(orbit.least[e]), u0_orbit, u0) == v0
        ]
        if not partners:
            continue
        # so the orbit of the pair pairs each edge x_i rep with x_i partner
        pairing = dict(index.orbit_map(pair_maps, (rep, partners[0])))
        for e, f in pairing.items():
            if pairing.get(f) != e or f == e:
                raise ActionError("flip pairing is not a perfect matching")
        pair_of.update(pairing)
    if not pair_of:
        return a
    edges = []
    merged = {}  # old edge -> new edge id
    for e in sorted(graph.edges):
        if e in merged:
            continue
        if e in pair_of:
            f = pair_of[e]
            keep = min(e, f)
            merged[e] = keep
            merged[f] = keep
            edges.append((keep, graph.ends(keep)))
        else:
            merged[e] = e
            edges.append((e, graph.ends(e)))
    new_graph = Multigraph(graph.vertices, edges)
    new_edge_images = []
    for i in range(a.generator_count()):
        em = a.edge_images[i]
        new_em = {}
        for new_e in new_graph.edges:
            new_em[new_e] = merged[em[new_e]]
        new_edge_images.append(new_em)
    out = GraphAction(a.group, new_graph, a.vertex_images, new_edge_images)
    if not is_harmonic_action(out):
        raise ActionError("flip_all produced a non-harmonic action")
    return out


class _OnPairs:
    """An edge map applied to both entries of a pair of edges."""

    __slots__ = ("edge_map",)

    def __init__(self, edge_map):
        self.edge_map = edge_map

    def __getitem__(self, pair):
        e, f = pair
        return self.edge_map[e], self.edge_map[f]
