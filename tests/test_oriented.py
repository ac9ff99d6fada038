import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    coset_orientation,
    dart_element,
    element_dart,
    map_darts,
    random_rotation,
    reverse_dart,
    sweep_pairs,
)
from hcov.errors import GraphError
from hcov.kernel import perm_id, perm_mul, perm_pow
from hcov.maximal import build_maximal
from hcov.multigraph import Dart, Multigraph
from hcov.oriented import (
    OrientedGraph,
    canonical_orientation,
    lht_decomposition,
    surface_genus,
    theorem_44_check,
)
from hcov.permgroup import (
    alternating,
    cyclic,
    perm_from_cycles,
    psl2,
    search_23_pairs,
    symmetric,
)

S3 = symmetric(3)
TAU = perm_from_cycles([(0, 1)], 3)
SIGMA = perm_from_cycles([(0, 1, 2)], 3)


# -- the Dart-level tracer: the oracle of the dart-id tracer in src ---------


def lht_successor(rotation, graph, d: Dart) -> Dart:
    """Left-hand-turn step: traverse d, then leave along the rotation
    successor of the arriving end."""
    arriving = reverse_dart(graph, d)
    rot = rotation[arriving.base]
    return rot[(rot.index(arriving) + 1) % 3]


def act_dart(action, g, d: Dart) -> Dart:
    """The image of a Dart under the group member g."""
    vm, em = action.element_action(g)
    return Dart(em[d.edge], vm[d.base])


def successor_permutation(og: OrientedGraph) -> dict:
    rotation = og.rotation
    succ = {d: lht_successor(rotation, og.graph, d) for d in og.graph.darts()}
    if len(set(succ.values())) != len(succ):
        raise GraphError("left-hand-turn step is not a permutation of the darts")
    return succ


def dart_orbits(succ: dict) -> set:
    """The cycles of a Dart successor map, as a set of frozensets."""
    seen, orbits = set(), set()
    for d in sorted(succ):
        if d in seen:
            continue
        orbit = [d]
        cur = succ[d]
        while cur != d:
            orbit.append(cur)
            cur = succ[cur]
        seen.update(orbit)
        orbits.add(frozenset(orbit))
    return orbits


def int_successor(og: OrientedGraph, d: Dart) -> Dart:
    """The dart-id step d -> rot[X[d]], converted at the boundary."""
    darts = map_darts(og)
    return darts[og.rot[og.X[darts.index(d)]]]


def faces(og: OrientedGraph) -> set:
    """The traced faces of a map, as a set of frozensets of Darts."""
    darts = map_darts(og)
    return {frozenset(darts[d] for d in o) for o in lht_decomposition(og).orbits}


def assert_tracers_agree(og: OrientedGraph):
    darts = map_darts(og)
    succ = successor_permutation(og)
    assert {darts[d]: darts[og.rot[og.X[d]]] for d in range(len(darts))} == succ
    dec = lht_decomposition(og)
    orbits = dart_orbits(succ)
    assert dec.L == len(orbits)
    assert faces(og) == orbits
    for d in range(len(darts)):
        assert d in dec.orbits[dec.orbit_number[d]]


def k4_planar():
    """K4 with the rotation system of a planar drawing (one center vertex).

    The independent oracle is Euler's formula for the plane: V - E + F = 2
    gives F = 4 faces, so L must be 4 and the surface genus 0.
    """
    g = Multigraph(
        [0, 1, 2, 3],
        [(0, (0, 1)), (1, (0, 2)), (2, (0, 3)), (3, (1, 2)), (4, (2, 3)), (5, (3, 1))],
    )
    rotation = {
        0: (Dart(0, 0), Dart(1, 0), Dart(2, 0)),
        1: (Dart(3, 1), Dart(0, 1), Dart(5, 1)),
        2: (Dart(4, 2), Dart(1, 2), Dart(3, 2)),
        3: (Dart(5, 3), Dart(2, 3), Dart(4, 3)),
    }
    return OrientedGraph.from_rotation(g, rotation)


def test_rotation_validation():
    path = Multigraph([0, 1], [(0, (0, 1))])
    with pytest.raises(GraphError, match="degree"):
        OrientedGraph.from_rotation(path, {0: (), 1: ()})
    with pytest.raises(GraphError, match="degree"):
        OrientedGraph(path, [1, 0])
    og = k4_planar()
    bad = dict(og.rotation)
    bad[0] = (Dart(0, 0), Dart(1, 0), Dart(3, 1))  # dart based elsewhere
    with pytest.raises(GraphError, match="rotation"):
        OrientedGraph.from_rotation(og.graph, bad)


def bad_rotations(og: OrientedGraph):
    """Broken copies of og's dart-id rotation: each changes the successors
    at dart 0's vertex, and at most one other vertex."""
    a = 0
    b = og.rot[a]
    c = og.rot[b]
    far = next(d for d in range(len(og.rot)) if d not in (a, b, c))
    yield "dart from another vertex", {a: far}
    yield "successors swapped with another vertex", {a: og.rot[far], far: b}
    yield "repeated dart", {a: b, b: b}
    yield "repeated target", {c: b}
    yield "2-cycle", {a: b, b: a, c: c}
    yield "2-cycle, third dart moved away", {a: b, b: a, c: far}
    yield "non-int dart", {a: float(b)}
    yield "dart id out of range", {a: len(og.rot)}
    yield "negative dart id", {a: b - len(og.rot)}  # aliases b as a list index


def test_rotation_negative_controls():
    og = k4_planar()
    for what, change in bad_rotations(og):
        rot = list(og.rot)
        for d, s in change.items():
            rot[d] = s
        try:
            OrientedGraph(og.graph, rot)
        except GraphError as exc:
            assert "is not a cyclic order of its darts" in str(exc), what
        else:
            pytest.fail(f"accepted a rotation with a {what}")
    with pytest.raises(GraphError, match="rotation"):
        OrientedGraph(og.graph, og.rot[:-1])
    x, y, z = og.rotation[0]
    for rot0 in (
        (x, y, Dart(3, 1)),  # a dart of vertex 1
        (x, y, y),  # repeated dart
        (x, y),  # 2-cycle
        (x, y, z, x),
    ):
        with pytest.raises(GraphError, match="rotation at vertex 0"):
            OrientedGraph.from_rotation(og.graph, {**og.rotation, 0: rot0})


def test_successor_is_bijection():
    og = k4_planar()
    succ = successor_permutation(og)
    assert sorted(succ.values()) == sorted(succ.keys())
    n = len(og.rot)
    assert sorted(og.rot[og.X[d]] for d in range(n)) == list(range(n))


def test_tracer_rejects_a_broken_rotation():
    og = k4_planar()
    og.rot = [og.rot[0]] * len(og.rot)  # bypasses the constructor's check
    with pytest.raises(GraphError, match="not a permutation"):
        lht_decomposition(og)


def test_k4_planar_traces_four_faces():
    og = k4_planar()
    dec = lht_decomposition(og)
    assert dec.L == 4
    report = surface_genus(og)
    assert report.surface_genus == 0
    assert report.vertex_count == 4


def test_theta_s3_successor_is_right_multiplication():
    mc = build_maximal(S3, TAU, SIGMA)
    og = canonical_orientation(mc)
    ts = perm_mul(TAU, SIGMA)
    succ = successor_permutation(og)
    to_dart = element_dart(mc)
    for d, h in dart_element(mc).items():
        assert int_successor(og, d) == to_dart[perm_mul(h, ts)]
        assert succ[d] == to_dart[perm_mul(h, ts)]


def test_theta_s3_decomposition():
    mc = build_maximal(S3, TAU, SIGMA)
    dec = lht_decomposition(canonical_orientation(mc))
    assert dec.L == 3
    assert all(len(o) == 2 for o in dec.orbits)
    assert surface_genus(canonical_orientation(mc)).surface_genus == 0


def test_a4_decomposition():
    A4 = alternating(4)
    t = perm_from_cycles([(0, 1), (2, 3)], 4)
    s = perm_from_cycles([(0, 1, 2)], 4)
    mc = build_maximal(A4, t, s)
    og = canonical_orientation(mc)
    dec = lht_decomposition(og)
    assert dec.L == 4
    assert all(len(o) == 3 for o in dec.orbits)
    assert surface_genus(og).surface_genus == 0


def test_psl27_surface_genus_three():
    G = psl2(7)
    tau, sigma = search_23_pairs(G, product_order=7).pairs[0]
    mc = build_maximal(G, tau, sigma)
    og = canonical_orientation(mc)
    dec = lht_decomposition(og)
    assert dec.L == 24
    assert surface_genus(og).surface_genus == 3


def test_orbit_of_identity_dart_is_coset():
    mc = build_maximal(S3, TAU, SIGMA)
    og = canonical_orientation(mc)
    dec = lht_decomposition(og)
    darts = map_darts(og)
    ident = perm_id(3)
    orbit = dec.orbits[dec.orbit_number[darts.index(element_dart(mc)[ident])]]
    to_element = dart_element(mc)
    labels = {to_element[darts[d]] for d in orbit}
    ts = perm_mul(TAU, SIGMA)
    assert labels == {perm_pow(ts, j) for j in range(2)}


def test_s3_rotations_are_mutually_reversed():
    mc = build_maximal(S3, TAU, SIGMA)
    og = canonical_orientation(mc)
    v0, v1 = mc.graph.vertices
    seq0 = [d.edge for d in og.rotation[v0]]
    seq1 = [d.edge for d in og.rotation[v1]]
    reversed1 = list(reversed(seq1))
    rotations = [reversed1[i:] + reversed1[:i] for i in range(3)]
    assert seq0 in rotations


def test_z6_rotations_agree():
    Z6 = cyclic(6)
    g = Z6.generators[0]
    mc = build_maximal(Z6, perm_pow(g, 3), perm_pow(g, 2))
    og = canonical_orientation(mc)
    v0, v1 = mc.graph.vertices
    seq0 = [d.edge for d in og.rotation[v0]]
    seq1 = [d.edge for d in og.rotation[v1]]
    rotations = [seq1[i:] + seq1[:i] for i in range(3)]
    assert seq0 in rotations


def test_equivariance_of_canonical_orientation():
    S4 = symmetric(4)
    t = perm_from_cycles([(0, 1)], 4)
    s = perm_from_cycles([(1, 2, 3)], 4)
    mc = build_maximal(S4, t, s)
    og = canonical_orientation(mc)
    rng = random.Random(2)
    darts = list(dart_element(mc))
    rotation = og.rotation
    for _ in range(25):
        g = rng.choice(mc.group.elements())
        d = rng.choice(darts)
        lhs = act_dart(mc.action, g, int_successor(og, d))
        rhs = int_successor(og, act_dart(mc.action, g, d))
        assert lhs == rhs
        lhs = act_dart(mc.action, g, lht_successor(rotation, og.graph, d))
        assert lhs == lht_successor(rotation, og.graph, act_dart(mc.action, g, d))


def test_orbit_sums_for_random_rotations():
    rng = random.Random(9)
    mc = build_maximal(S3, TAU, SIGMA)
    for _ in range(50):
        og = random_rotation(mc.graph, rng)
        dec = lht_decomposition(og)
        assert sum(len(o) for o in dec.orbits) == 3 * len(og.graph.vertices)
        report = surface_genus(og)
        assert report.surface_genus >= 0


def test_theorem_44_reports():
    mc = build_maximal(S3, TAU, SIGMA)
    rep = theorem_44_check(mc)
    assert (rep.k, rep.L, rep.surface_genus) == (2, 3, 0)
    assert rep.lhs == rep.rhs == -24
    assert rep.holds and not rep.hurwitz

    A4 = alternating(4)
    rep = theorem_44_check(
        build_maximal(
            A4, perm_from_cycles([(0, 1), (2, 3)], 4), perm_from_cycles([(0, 1, 2)], 4)
        )
    )
    assert rep.lhs == rep.rhs == -36
    assert rep.holds


def test_surface_genus_requires_connected():
    g = Multigraph(
        [0, 1, 2, 3],
        [(0, (0, 1)), (1, (0, 1)), (2, (0, 1)), (3, (2, 3)), (4, (2, 3)), (5, (2, 3))],
    )
    og = random_rotation(g, random.Random(0))
    with pytest.raises(GraphError, match="connected"):
        surface_genus(og)


def test_oriented_json_round_trip():
    og = k4_planar()
    data = json.loads(json.dumps(og.to_json()))
    again = OrientedGraph.from_json(data)
    assert again.graph == og.graph
    assert again.rotation == og.rotation
    assert again.rot == og.rot
    assert lht_decomposition(again).L == 4


def test_dot_ports():
    dot = k4_planar().to_dot()
    assert "tailport" in dot and "headport" in dot
    assert dot.count("--") == 6


def test_canonical_orientation_rejects_right_multiplication_by_tau():
    mc = build_maximal(S3, TAU, SIGMA)
    canonical_orientation(mc)
    r_tau = S3.element_index().right(TAU)
    with pytest.raises(GraphError, match="is a loop"):
        OrientedGraph.from_darts(r_tau, r_tau)
    mc.map.rot = r_tau  # the map (right(tau), right(tau)), which from_darts rejects
    with pytest.raises(GraphError, match="does not rotate the star"):
        canonical_orientation(mc)


# -- the dart-id tracer against the Dart-level oracle -----------------------


@pytest.mark.parametrize("p", [7, 13])
def test_tracers_agree_on_psl2_pairs(p):
    G = psl2(p)
    pairs = search_23_pairs(G).pairs
    assert pairs
    for tau, sigma in pairs:
        assert_tracers_agree(canonical_orientation(build_maximal(G, tau, sigma)))


def test_tracers_agree_on_catalog_maximal_covers(catalog):
    covers = 0
    for G in catalog.groups:
        if G.order() <= 24:
            for tau, sigma in search_23_pairs(G).pairs:
                assert_tracers_agree(canonical_orientation(build_maximal(G, tau, sigma)))
                covers += 1
    assert covers > 0


def test_map_form_matches_the_coset_relabelling(catalog):
    pairs = sweep_pairs(catalog)
    assert len(pairs) == 140
    for G, tau, sigma in pairs:
        mc = build_maximal(G, tau, sigma)
        og, old = canonical_orientation(mc), coset_orientation(mc)
        assert og.rotation == old.rotation
        assert faces(og) == faces(old)
        assert surface_genus(og) == surface_genus(old)


def cubic_multigraphs():
    """3-regular graphs with edge ids that are neither contiguous nor in
    edge order, parallel edges, and ends listed larger vertex first."""
    yield Multigraph([5, 2], [(10, (5, 2)), (4, (2, 5)), (7, (5, 2))])  # theta
    yield Multigraph(
        [3, 0, 1, 2],
        [(8, (1, 0)), (3, (0, 2)), (20, (3, 0)), (1, (2, 1)), (15, (2, 3)), (6, (1, 3))],
    )  # K4
    yield Multigraph(
        [0, 1, 2, 3], [(9, (1, 0)), (2, (0, 1)), (30, (3, 2)), (4, (2, 3)), (11, (0, 2)), (5, (3, 1))]
    )  # two doubled edges joined by two more


def test_tracers_agree_on_random_rotations():
    rng = random.Random(5)
    graphs = list(cubic_multigraphs())
    for i in range(50):
        og = random_rotation(graphs[i % len(graphs)], rng)
        assert_tracers_agree(og)
        assert OrientedGraph.from_rotation(og.graph, og.rotation).rot == og.rot


# -- cubic maps that come from no file or group -----------------------------


def cycles_to_perm(points, length, n) -> list:
    """The permutation of 0..n-1 whose cycles are the consecutive runs of
    the given length in points."""
    p = [-1] * n
    for i in range(0, n, length):
        run = points[i:i + length]
        for a, b in zip(run, run[1:] + run[:1]):
            p[a] = b
    return p


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_random_cubic_maps(data, k):
    n = 6 * k
    X = cycles_to_perm(data.draw(st.permutations(range(n))), 2, n)
    Y = cycles_to_perm(data.draw(st.permutations(range(n))), 3, n)
    assume(all(X[d] not in (Y[d], Y[Y[d]]) for d in range(n)))  # no loop
    og = OrientedGraph.from_darts(X, Y)
    graph = og.graph
    assert set(graph.degrees()) == {3}
    assert (len(graph.vertices), len(graph.edges)) == (n // 3, n // 2)
    assert_tracers_agree(og)
    if graph.is_connected():
        F = lht_decomposition(og).L
        g = surface_genus(og).surface_genus
        assert len(graph.vertices) - len(graph.edges) + F == 2 - 2 * g
