"""The element index against the tuple construction it replaced.

hcov numbers G's elements by lexicographic rank (PermutationGroup.
element_index) and builds cosets, Cayley fibers, covers and the canonical
orientation from integer arrays. The functions below build the same objects
from element tuples: a scan over the sorted elements for coset
representatives, dicts from every element to its coset representative and
from edge labels to edge ids, and the rotation from the conjugate
r*sigma*r^-1 of each vertex's representative, checked to be independent of
the representative. Both must give identical ids, ends, image maps, labels
and rotations. The index itself is checked against the walk it replaced,
which built an image tuple per element and step.
"""

import random

import pytest

from conftest import as_dicts, dart_element, element_dart, fiber_action, load_figure
from hcov.galois import SymmetricMultiset, build_cover, cayley, collapse, cover_from_spec
from hcov.harmonic import GraphAction, flip_all
from hcov.kernel import perm_inv, perm_mul
from hcov.maximal import build_maximal
from hcov.multigraph import Dart, Multigraph
from hcov.oriented import canonical_orientation
from hcov.permgroup import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    left_cosets,
    perm_from_cycles,
    psl2,
    search_23_pairs,
    symmetric,
)

S3 = symmetric(3)
TAU = perm_from_cycles([(0, 1)], 3)
SIGMA = perm_from_cycles([(0, 1, 2)], 3)
SIGMA2 = perm_from_cycles([(0, 2, 1)], 3)


# -- the tuple construction ----------------------------------------------------


def scan_cosets(G, H):
    """Least members of the left cosets gH, by a scan over sorted G."""
    assigned = set()
    reps = []
    for g in G.elements():
        if g not in assigned:
            reps.append(g)
            assigned.update(perm_mul(g, h) for h in H.elements())
    return reps


def rep_of(reps, H):
    """Every element -> the representative of its coset."""
    return {perm_mul(r, h): r for r in reps for h in H.elements()}


def tuple_maximal(G, tau, sigma):
    """(graph, vertex images, edge images, vertex reps, edge reps, dart ->
    element) of the maximal cover, from vrep_of/erep_of dicts."""
    sigma_sub, tau_sub = G.subgroup([sigma]), G.subgroup([tau])
    vreps, ereps = scan_cosets(G, sigma_sub), scan_cosets(G, tau_sub)
    vid = {r: i for i, r in enumerate(vreps)}
    eid = {r: i for i, r in enumerate(ereps)}
    vrep_of, erep_of = rep_of(vreps, sigma_sub), rep_of(ereps, tau_sub)
    edges = []
    dart_element = {}
    for r in ereps:
        u, v = vid[vrep_of[r]], vid[vrep_of[perm_mul(r, tau)]]
        edges.append((eid[r], (u, v)))
        dart_element[Dart(eid[r], u)] = r
        dart_element[Dart(eid[r], v)] = perm_mul(r, tau)
    vimg = [{vid[r]: vid[vrep_of[perm_mul(s, r)]] for r in vreps} for s in G.generators]
    eimg = [{eid[r]: eid[erep_of[perm_mul(s, r)]] for r in ereps} for s in G.generators]
    graph = Multigraph(range(len(vreps)), edges)
    return graph, vimg, eimg, vreps, ereps, dart_element


def conjugation_rotation(graph, sigma, vreps, dart_element):
    """The rotation at vertex v from sigma_v = r sigma r^-1, r its coset
    representative, acting on the left; every other member of the coset
    must give the same rotation."""
    element_dart = {g: d for d, g in dart_element.items()}
    rotation = {}
    for v in graph.vertices:
        d0 = min(Dart(e, v) for e in graph.incident_edges(v))
        rotations = set()
        for r in (vreps[v], perm_mul(vreps[v], sigma), perm_mul(vreps[v], perm_mul(sigma, sigma))):
            sigma_v = perm_mul(r, perm_mul(sigma, perm_inv(r)))
            h = dart_element[d0]
            rot = [d0]
            for _ in range(2):
                h = perm_mul(sigma_v, h)
                rot.append(element_dart[h])
            rotations.add(tuple(rot))
        assert len(rotations) == 1, "rotation depends on the coset representative"
        rotation[v] = rotations.pop()
    return rotation


def tuple_cayley(G, S):
    """(graph, vertex images, edge images, edge labels (rho, j, g))."""
    elements = G.elements()
    vid = {g: i for i, g in enumerate(elements)}
    pairs, invs = S.units()
    edges = []
    labels = {}
    for rho, j in pairs + invs:
        for g in elements:
            labels[len(edges)] = (rho, j, g)
            edges.append((len(edges), (vid[g], vid[perm_mul(g, rho)])))
    label_eid = {lab: e for e, lab in labels.items()}
    vimg = [{vid[g]: vid[perm_mul(s, g)] for g in elements} for s in G.generators]
    eimg = [
        {e: label_eid[(rho, j, perm_mul(s, g))] for e, (rho, j, g) in labels.items()}
        for s in G.generators
    ]
    return Multigraph(range(len(elements)), edges), vimg, eimg, labels


def tuple_collapse(G, I, fiber):
    """Collapse of a tuple Cayley fiber onto G/I by min(g*h) representatives:
    (graph, vertex images, edge images, edge labels, reps, element -> vertex)."""
    graph, _, eimg, labels = fiber
    elements = G.elements()
    rep = {}
    for g in elements:
        if g not in rep:
            r = min(perm_mul(g, h) for h in I.elements())
            rep.update((perm_mul(g, h), r) for h in I.elements())
    reps = sorted(set(rep.values()))
    new_vid = {r: i for i, r in enumerate(reps)}
    vertex_of = {g: new_vid[r] for g, r in rep.items()}
    edges = []
    for e in sorted(graph.edges):
        u, v = (vertex_of[elements[w]] for w in graph.ends(e))
        if u != v:
            edges.append((e, (u, v)))
    kept = [e for e, _ in edges]
    vimg = [{new_vid[r]: vertex_of[perm_mul(s, r)] for r in reps} for s in G.generators]
    eimg = [{e: em[e] for e in kept} for em in eimg]
    out = Multigraph(range(len(reps)), edges)
    return out, vimg, eimg, {e: labels[e] for e in kept}, reps, vertex_of


def tuple_cover(G, base, inertia, multisets, flipped):
    """The total action of build_cover, assembled from tuple fibers with
    label -> edge id dicts."""
    fibers = {
        x: tuple_collapse(G, inertia[x], tuple_cayley(G, multisets[x])) for x in base.vertices
    }
    vid = {}
    vlabels = {}
    for x in base.vertices:
        for v in fibers[x][0].vertices:
            vid[(x, v)] = len(vid)
            vlabels[vid[(x, v)]] = (x, fibers[x][4][v])
    edges = []
    elabels = {}
    for x in base.vertices:
        graph, _, _, labels, _, _ = fibers[x]
        for e in sorted(graph.edges):
            u, v = graph.ends(e)
            elabels[len(edges)] = ("v", x) + labels[e]
            edges.append((len(edges), (vid[(x, u)], vid[(x, v)])))
    for b in sorted(base.edges):
        x, y = base.ends(b)
        for g in G.elements():
            ends = (vid[(x, fibers[x][5][g])], vid[(y, fibers[y][5][g])])
            elabels[len(edges)] = ("h", b, g)
            edges.append((len(edges), ends))
    label_eid = {lab: e for e, lab in elabels.items()}
    vimg = [
        {w: vid[(x, fibers[x][5][perm_mul(s, r)])] for w, (x, r) in vlabels.items()}
        for s in G.generators
    ]
    eimg = [
        {e: label_eid[lab[:-1] + (perm_mul(s, lab[-1]),)] for e, lab in elabels.items()}
        for s in G.generators
    ]
    action = GraphAction(G, Multigraph(range(len(vid)), edges), vimg, eimg)
    return flip_all(action) if flipped else action


# -- comparisons -------------------------------------------------------------------


def assert_same_action(action, graph, vimg, eimg):
    assert action.graph == graph
    assert as_dicts(action.vertex_images) == vimg
    assert as_dicts(action.edge_images) == eimg


def check_maximal(G, tau, sigma):
    mc = build_maximal(G, tau, sigma)
    graph, vimg, eimg, vreps, ereps, darts = tuple_maximal(G, tau, sigma)
    assert_same_action(mc.action, graph, vimg, eimg)
    assert list(mc.vertex_rep) == vreps
    assert list(mc.edge_rep) == ereps
    assert dart_element(mc) == darts
    assert element_dart(mc) == {g: d for d, g in darts.items()}
    rotation = conjugation_rotation(graph, sigma, vreps, darts)
    assert canonical_orientation(mc).rotation == rotation


def sweep_pairs(catalog):
    """Every class-representative (2,3)-pair of every catalog group of order
    at most 60, and of PSL(2,7) and PSL(2,13)."""
    groups = [G for G in catalog.groups if G.order() <= 60] + [psl2(7), psl2(13)]
    return [(G, tau, sigma) for G in groups for tau, sigma in search_23_pairs(G).pairs]


def test_maximal_covers_match_the_tuple_construction(catalog):
    pairs = sweep_pairs(catalog)
    assert len(pairs) == 140
    for G, tau, sigma in pairs:
        check_maximal(G, tau, sigma)


def check_cover(cover, flipped):
    G, base = cover.group, cover.base
    inertia = {x: cover.inertia.subgroup_at(G, x) for x in base.vertices}
    for x in base.vertices:
        fiber = tuple_cayley(G, cover.multisets[x])
        lab = cayley(G, cover.multisets[x])
        assert_same_action(fiber_action(lab, faithful=True), *fiber[:3])
        graph, vimg, eimg, _, reps, vertex_of = tuple_collapse(G, inertia[x], fiber)
        out = collapse(G, inertia[x], cover.multisets[x])
        assert_same_action(fiber_action(out, faithful=False), graph, vimg, eimg)
        index = G.element_index()
        assert [index.element(i) for i in out.reps] == reps
        assert {index.element(i): v for i, v in enumerate(out.vertex_of)} == vertex_of
    total = tuple_cover(G, base, inertia, cover.multisets, flipped)
    assert_same_action(cover.action, total.graph, total.vertex_images, total.edge_images)


TWO = Multigraph([1, 2], [(0, (1, 2))])


@pytest.mark.parametrize("name", ["fig4.json", "fig5.json", "fig6.json", "theta_s3.json"])
def test_figure_covers_match_the_tuple_construction(name, catalog):
    spec = load_figure(name)
    check_cover(cover_from_spec(spec, catalog), spec.get("flipped", False))


@pytest.mark.parametrize(
    "inertia, multisets",
    [
        ({}, {1: [SIGMA, SIGMA2]}),
        ({}, {1: [SIGMA, SIGMA2, TAU], 2: [TAU]}),
        ({1: [SIGMA], 2: [TAU]}, {}),
        ({1: [TAU], 2: [TAU]}, {}),
    ],
)
def test_s3_covers_match_the_tuple_construction(inertia, multisets):
    cover = build_cover(
        S3,
        TWO,
        {x: S3.subgroup(gens) for x, gens in inertia.items()},
        {x: SymmetricMultiset(entries) for x, entries in multisets.items()},
    )
    check_cover(cover, False)


def test_catalog_covers_match_the_tuple_construction(catalog):
    # a non-normal cyclic inertia group at one end, an inverse pair at the other
    rng = random.Random(7)
    for G in [G for G in catalog.groups if G.order() <= 24]:
        elements = G.elements()
        for _ in range(2):
            a, b = rng.choice(elements[1:]), rng.choice(elements[1:])
            S = SymmetricMultiset([b, perm_inv(b)] if b != perm_inv(b) else [b])
            flipped = rng.random() < 0.5
            check_cover(build_cover(G, TWO, {1: G.subgroup([a])}, {2: S}, flipped=flipped), flipped)


# -- the index itself -----------------------------------------------------------------


def tuple_walk_index(G):
    """(keys, left, walk, parent, via) of G's element index, from a
    breadth-first walk over image tuples of the points up to the largest
    base point, sorted as tuples; each key is read from its tuple digit by
    digit."""
    gens = G.generators
    start = tuple(range(max((lv.point for lv in G.chain().levels), default=-1) + 1))
    found = {start: 0}
    images = [start]  # in walk order
    parent, via = [0], [-1]
    left = [[] for _ in gens]
    for b, x in enumerate(images):
        for k, s in enumerate(gens):
            y = tuple(s[i] for i in x)
            c = found.get(y)
            if c is None:
                c = found[y] = len(images)
                images.append(y)
                parent.append(b)
                via.append(k)
            left[k].append(c)
    walk = sorted(range(len(images)), key=images.__getitem__)
    rank = [0] * len(walk)
    for i, b in enumerate(walk):
        rank[b] = i
    keys = []
    for b in walk:
        key = 0
        for x in images[b]:
            key = key * G.degree + x
        keys.append(key)
    return (
        keys,
        [[rank[lk[b]] for b in walk] for lk in left],
        rank,
        [rank[parent[b]] for b in walk],
        [via[b] for b in walk],
    )


def index_oracle_groups(catalog):
    return [
        *catalog.groups,
        *(symmetric(n) for n in range(1, 9)),
        *(alternating(n) for n in range(1, 9)),
        *(psl2(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        direct_product(symmetric(4), psl2(7)),
        cyclic(1),
    ]


def test_index_matches_the_tuple_walk(catalog):
    # covers list-only digit tables (PSL(2,p), S_n, A_n) and the lazily
    # filled ones of many-digit groups (most catalog groups, S4xPSL(2,7)),
    # and key tables on both sides of the direct table's limit
    groups = index_oracle_groups(catalog)
    direct = []
    for G in groups:
        m = max((lv.point for lv in G.chain().levels), default=-1) + 1
        direct.append(G.degree**m <= 4 * max(G.order(), G.degree))
    assert direct[-12:-2] == [True] * 10  # PSL(2,p): a list indexed by key
    assert not direct[-2] and not all(direct[:-12])  # S4xPSL(2,7), S8, ...: a dict
    for G in groups:
        index = G.element_index()
        got = (index.keys, index.left, index._walk, index._parent, index._via)
        assert got == tuple_walk_index(G), G.name


@pytest.mark.parametrize(
    "G", [cyclic(1), cyclic(7), dihedral(5), symmetric(4), alternating(5), psl2(7)],
    ids=lambda G: G.name,
)
def test_index_numbers_elements_lexicographically(G):
    index = G.element_index()
    elements = G.elements()
    assert [index.element(i) for i in range(len(index))] == list(elements)
    assert [index.index_of(g) for g in elements] == list(range(len(elements)))
    for k, s in enumerate(G.generators):
        assert [elements[i] for i in index.left[k]] == [perm_mul(s, g) for g in elements]
    for h in elements[:: max(1, len(elements) // 7)]:
        assert [elements[i] for i in index.right(h)] == [perm_mul(g, h) for g in elements]


def test_right_maps_are_made_once_per_member():
    G = psl2(13)
    index = G.element_index()
    tau, sigma = search_23_pairs(G).pairs[0]
    r = index.right(sigma)
    assert index.right(list(sigma)) is r
    mc = build_maximal(G, tau, sigma)
    assert mc.vertex_rep.rights == [r]
    assert mc.vertex_rep.rights[0] is r and mc.edge_rep.rights[0] is index.right(tau)
    outside = perm_from_cycles([(0, 1)], G.degree)
    for _ in range(2):
        with pytest.raises(KeyError):
            index.right(outside)


def test_index_of_rejects_non_members():
    index = alternating(4).element_index()
    with pytest.raises(KeyError):
        index.index_of(perm_from_cycles([(0, 1)], 4))
    with pytest.raises(KeyError):
        index.index_of((0, 1, 2))


def test_left_cosets_match_the_scan():
    for G in (S3, alternating(4), dihedral(6), psl2(7)):
        for h in G.elements()[:: max(1, G.order() // 9)]:
            H = G.subgroup([h])
            cosets = left_cosets(G, H)
            assert list(cosets) == scan_cosets(G, H)
            reps = rep_of(scan_cosets(G, H), H)
            index = G.element_index()
            assert [cosets[c] for c in cosets.of] == [reps[g] for g in G.elements()]
            assert [index.element(i) for i in cosets.reps] == list(cosets)
