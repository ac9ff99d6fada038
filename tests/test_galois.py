import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conftest import fiber_action, fiber_graph, fiber_images, fiber_subgraph, load_figure
from hcov import galois
from hcov.errors import ActionError, CoverError, GroupError
from hcov.galois import (
    InertiaStructure,
    SymmetricMultiset,
    build_cover,
    cayley,
    classify_branch_locus,
    collapse,
    cover_from_spec,
    profile_to_json,
    ramification_profile,
    riemann_hurwitz_check,
)
from hcov.harmonic import GraphAction, flipped_edges, is_harmonic_action, unflip
from hcov.kernel import perm_pow
from hcov.multigraph import Multigraph, are_isomorphic
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    cyclic,
    perm_from_cycles,
    schreier_orbit,
    symmetric,
)
from test_acceptance import random_subgroup, random_symmetric_multiset, random_tree

S3 = symmetric(3)
TAU = perm_from_cycles([(0, 1)], 3)
SIGMA = perm_from_cycles([(0, 1, 2)], 3)
SIGMA2 = perm_from_cycles([(0, 2, 1)], 3)


def single_edge_base():
    return Multigraph([1, 2], [(0, (1, 2))])


def fig_cover(name, catalog):
    return cover_from_spec(load_figure(name), catalog)


# -- symmetric multisets -------------------------------------------------------


def test_multiset_validation():
    with pytest.raises(GroupError, match="identity"):
        SymmetricMultiset([(0, 1, 2)])
    with pytest.raises(GroupError, match="symmetric"):
        SymmetricMultiset([SIGMA])
    with pytest.raises(GroupError, match="symmetric"):
        SymmetricMultiset([(SIGMA, 2), (SIGMA2, 1)])
    S = SymmetricMultiset([SIGMA, SIGMA2, TAU])
    assert S.size() == 3
    pairs, invs = S.units()
    assert pairs == [(SIGMA, 0)]
    assert invs == [(TAU, 0)]


def test_multiset_without():
    S = SymmetricMultiset([SIGMA, SIGMA2, TAU])
    trimmed = S.without(S3.subgroup([SIGMA]))
    assert trimmed.counts == {TAU: 1}


def test_multiset_json_round_trip():
    S = SymmetricMultiset([(SIGMA, 2), (SIGMA2, 2), (TAU, 1)])
    assert SymmetricMultiset.from_json(json.loads(json.dumps(S.to_json()))) == S


# -- Cayley graphs ----------------------------------------------------------------


def test_cayley_sigma_pair():
    lab = cayley(S3, SymmetricMultiset([SIGMA, SIGMA2]))
    g = fiber_graph(lab)
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    comps = g.connected_components()
    assert [len(c) for c in comps] == [3, 3]
    assert all(g.degree(v) == 2 for v in g.vertices)
    action = fiber_action(lab, faithful=True)
    assert is_harmonic_action(action)
    assert flipped_edges(action) == set()


def test_cayley_involution_parallel_pairs():
    lab = cayley(S3, SymmetricMultiset([TAU]))
    g = fiber_graph(lab)
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    comps = g.connected_components()
    assert [len(c) for c in comps] == [2, 2, 2]
    # each component is a parallel pair
    for comp in comps:
        u = comp[0]
        assert g.degree(u) == 2
        assert len({g.other_end(e, u) for e in g.incident_edges(u)}) == 1


def test_cayley_z6_half_turn():
    Z6 = cyclic(6)
    g3 = perm_pow(Z6.generators[0], 3)
    g = fiber_graph(cayley(Z6, SymmetricMultiset([g3])))
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    assert [len(c) for c in g.connected_components()] == [2, 2, 2]


# -- collapse -----------------------------------------------------------------------


def test_collapse_tau_cayley_by_sigma():
    out = collapse(S3, S3.subgroup([SIGMA]), SymmetricMultiset([TAU]))
    assert len(fiber_graph(out).vertices) == 2
    assert len(fiber_graph(out).edges) == 6
    assert not out.removed_loops


def test_collapse_sigma_cayley_by_sigma_kills_all_edges():
    out = collapse(S3, S3.subgroup([SIGMA]), SymmetricMultiset([SIGMA, SIGMA2]))
    assert len(fiber_graph(out).vertices) == 2
    assert len(fiber_graph(out).edges) == 0
    assert len(out.removed_loops) == 6


def test_collapse_by_trivial_subgroup_is_identity():
    # every element is its own vertex, and every Cayley edge {g, g*tau} survives
    out = collapse(S3, S3.trivial_subgroup(), SymmetricMultiset([TAU]))
    index = S3.element_index()
    assert out.reps == list(range(6))
    assert out.vertex_of == list(range(6))
    assert fiber_images(out)[0] == [dict(enumerate(lk)) for lk in index.left]
    assert dict(fiber_graph(out).edges) == dict(enumerate(zip(range(6), index.right(TAU))))
    assert not out.removed_loops


# -- cover assembly -------------------------------------------------------------------


def test_fig4_cover(catalog):
    c = fig_cover("fig4.json", catalog)
    assert len(c.graph.vertices) == 12
    assert len(c.graph.edges) == 18
    assert c.graph.genus() == 7
    assert c.is_connected()
    assert not c.flipped
    assert c.degree_group == 6
    assert c.degree_def22 == 6


def test_fig5_cover(catalog):
    c = fig_cover("fig5.json", catalog)
    assert len(c.graph.vertices) == 12
    assert len(c.graph.edges) == 15
    assert c.graph.genus() == 4
    assert len(flipped_edges(c.action)) == 3


def test_fig6_cover(catalog):
    c = fig_cover("fig6.json", catalog)
    assert len(c.graph.vertices) == 8
    assert len(c.graph.edges) == 9
    assert c.graph.genus() == 2


def test_fig5_unflips_to_fig4(catalog):
    c5 = fig_cover("fig5.json", catalog)
    c4 = fig_cover("fig4.json", catalog)
    out = unflip(c5.action)
    assert len(out.graph.edges) == 18
    assert are_isomorphic(out.graph, c4.graph)


def test_cover_drops_inertia_multiset_overlap(catalog):
    # S1 = {sigma, sigma^-1} lies inside I1 = <sigma>: dropped with a warning
    spec = load_figure("fig6.json")
    spec["multisets"]["1"] = [[list(SIGMA), 1], [list(SIGMA2), 1]]
    c = cover_from_spec(spec, catalog)
    assert c.warnings
    assert len(c.graph.vertices) == 8
    assert len(c.graph.edges) == 9


def test_disconnected_cover_reported_not_error():
    # inertia and multiset generate only <sigma>: 2 disconnected hexagon-ish pieces
    base = single_edge_base()
    c = build_cover(
        S3, base, {}, {1: SymmetricMultiset([SIGMA, SIGMA2])}, flipped=False
    )
    assert not c.is_connected()
    assert len(c.graph.connected_components()) == 2


@pytest.mark.parametrize(
    "inertia, multisets, named",
    [
        ({9: [TAU]}, {1: [TAU], 9: [TAU]}, "cover spec: inertia.9 is not a base vertex"),
        ({}, {1: [TAU], 9: [TAU]}, "cover spec: multisets.9 is not a base vertex"),
    ],
)
def test_build_cover_rejects_keys_off_the_base(inertia, multisets, named):
    # the same check and wording as a cover spec's keys
    inertia = {x: S3.subgroup(gens) for x, gens in inertia.items()}
    multisets = {x: SymmetricMultiset(entries) for x, entries in multisets.items()}
    for given in (inertia, galois.InertiaStructure(inertia)):
        with pytest.raises(CoverError) as err:
            build_cover(S3, single_edge_base(), given, multisets)
        assert str(err.value) == named


def test_build_cover_rejects_non_tree():
    theta = Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])
    with pytest.raises(CoverError, match="tree"):
        build_cover(S3, theta, {}, {1: SymmetricMultiset([TAU])})


# -- ramification profiles ---------------------------------------------------------


def test_fig6_profile(catalog):
    c = fig_cover("fig6.json", catalog)
    prof = ramification_profile(c)
    assert prof.per_vertex[1].as_dict() == {"m": 3, "f": 1, "n": 2, "v": 0, "w": 0}
    assert prof.per_vertex[2].as_dict() == {"m": 1, "f": 2, "n": 3, "v": 1, "w": 1}
    assert prof.ramification_number() == Fraction(7, 3)


def test_fig4_profile(catalog):
    c = fig_cover("fig4.json", catalog)
    prof = ramification_profile(c)
    assert prof.per_vertex[1].as_dict() == {"m": 1, "f": 3, "n": 2, "v": 2, "w": 2}
    assert prof.per_vertex[2].as_dict() == {"m": 1, "f": 2, "n": 3, "v": 2, "w": 2}


def decomposition_group(c, y):
    """Setwise stabilizer of the fiber component containing the vertex y."""
    x = c.projection.vertex_map[y]
    sub = fiber_subgraph(c, x)
    comps = sub.connected_components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    comp_maps = [
        [comp_of[vm[comp[0]]] for comp in comps] for vm in c.action.vertex_images
    ]
    transversal, schreier = schreier_orbit(
        comp_of[y], comp_maps, c.group.generators, c.group.identity
    )
    delta = c.group.subgroup(sorted(schreier), name=f"Delta({y})")
    if delta.order() * len(transversal) != c.group.order():
        raise CoverError("decomposition group order check failed")
    m = c.action.vertex_orbit(y).stabilizer_order()
    if delta.order() % m != 0:
        raise CoverError("decomposition group does not contain the inertia group")
    return delta


def test_decomposition_groups_fig6(catalog):
    c = fig_cover("fig6.json", catalog)
    y1 = c.fiber_index[1][0]
    y2 = c.fiber_index[2][0]
    assert decomposition_group(c, y1).order() == 3
    assert decomposition_group(c, y2).order() == 2


def test_decomposition_group_connected_fiber():
    base = single_edge_base()
    c = build_cover(
        S3,
        base,
        {},
        {1: SymmetricMultiset([SIGMA, SIGMA2, TAU]), 2: SymmetricMultiset([TAU])},
    )
    y = c.fiber_index[1][0]
    assert decomposition_group(c, y).order() == 6  # transitive on one component


# -- Riemann-Hurwitz ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,R,lhs",
    [
        ("fig6.json", Fraction(7, 3), 2),
        ("fig5.json", Fraction(3), 6),
        ("fig4.json", Fraction(4), 12),
    ],
)
def test_riemann_hurwitz(name, R, lhs, catalog):
    c = fig_cover(name, catalog)
    rep = riemann_hurwitz_check(c)
    assert rep.R == R
    assert rep.lhs == lhs
    assert rep.holds
    assert rep.rhs == Fraction(lhs)


def test_riemann_hurwitz_strict_sign_fails(catalog):
    c = fig_cover("fig6.json", catalog)
    rep = riemann_hurwitz_check(c, strict_sign=True)
    assert rep.sign == "-R"
    assert not rep.holds


# -- branch locus ----------------------------------------------------------------------


def test_branch_classification(catalog):
    assert classify_branch_locus(fig_cover("fig6.json", catalog)).case == "iii"
    assert classify_branch_locus(fig_cover("fig6.json", catalog)).is_maximal

    theta = fig_cover("theta_s3.json", catalog)
    locus = classify_branch_locus(theta)
    assert locus.case == "i"
    assert locus.is_maximal

    fig5 = classify_branch_locus(fig_cover("fig5.json", catalog))
    assert fig5.case == "other"
    assert not fig5.is_maximal
    assert fig5.R == Fraction(3)


def test_branch_case_ii(catalog):
    # two branch points with inertia orders 3 and 2, no vertical edges
    base = single_edge_base()
    c = build_cover(
        S3, base, {1: S3.subgroup([SIGMA]), 2: S3.subgroup([TAU])}, {}, flipped=False
    )
    locus = classify_branch_locus(c)
    assert locus.case == "ii"
    assert locus.is_maximal
    assert c.graph.genus() == 2
    assert c.is_connected()


def test_theta_cover_degree_discrepancy(catalog):
    # over the point graph, the literal morphism degree is |V|, while every
    # identity uses |G|
    theta = fig_cover("theta_s3.json", catalog)
    assert theta.degree_def22 == 2
    assert theta.degree_group == 6


def test_profile_json(catalog):
    payload = profile_to_json(fig_cover("fig6.json", catalog))
    assert payload["R"] == "7/3"
    assert payload["maximal"] is True
    assert payload["case"] == "iii"
    assert payload["per_vertex"]["1"]["m"] == 3


def test_intersecting_inertia_on_adjacent_vertices():
    # identical order-2 inertia at both ends: the horizontal edges between a
    # coset pair stay parallel, never identified (identification would give
    # a nontrivial dart stabilizer)
    base = single_edge_base()
    c = build_cover(S3, base, {1: S3.subgroup([TAU]), 2: S3.subgroup([TAU])}, {})
    assert len(c.graph.vertices) == 6
    assert len(c.graph.edges) == 6
    assert len(c.graph.connected_components()) == 3
    prof = ramification_profile(c)
    for p in prof.per_vertex.values():
        assert (p.m, p.f, p.n, p.v) == (2, 1, 3, 0)
    # every coset pair carries two parallel horizontal edges
    for comp in c.graph.connected_components():
        u = comp[0]
        assert c.graph.degree(u) == 2
        assert len({c.graph.other_end(e, u) for e in c.graph.incident_edges(u)}) == 1


# -- one validation per cover, and the per-fiber checks it replaced -------------------

FIGURES = ["fig4.json", "fig5.json", "fig6.json", "theta_s3.json"]


def stabilizer_oracle(action, v):
    """(|Stab(v)|, orbit of v) from a fresh Schreier walk and stabilizer
    chain, independent of what the action's validation stored."""
    G = action.group
    transversal, schreier = schreier_orbit(v, action.vertex_images, G.generators, G.identity)
    stab = StabilizerChain(G.degree, schreier).order()
    assert stab * len(transversal) == G.order()
    return stab, set(transversal)


def check_against_oracles(cover):
    """The profile's m and orbits against the stabilizer oracle from both
    ends of every fiber, and every fiber validated as an action of its own."""
    G = cover.group
    profile = ramification_profile(cover)
    for x, fiber in cover.fiber_index.items():
        for v in (min(fiber), max(fiber)):
            assert stabilizer_oracle(cover.action, v) == (profile.per_vertex[x].m, set(fiber))
        S = cover.multisets[x]
        fiber_action(cayley(G, S), faithful=True)
        fiber_action(collapse(G, cover.inertia.subgroup_at(G, x), S), faithful=False)


def criterion_4_covers(catalog):
    """The 200 random covers of criterion 4 (test_acceptance.py), same seed."""
    rng = random.Random(20260810)
    groups = [G for G in catalog.groups if G.order() <= 24]
    for built in range(200):
        G = groups[built % len(groups)]
        n = rng.randrange(1, 6)
        tree = random_tree(rng, n)
        inertia = {}
        multisets = {}
        for x in tree.vertices:
            H = random_subgroup(rng, G, proper=(n == 1))
            inertia[x] = H
            if n == 1 and H.order() > 1:
                S = random_symmetric_multiset(rng, G, avoid=H)
                while not S:
                    S = random_symmetric_multiset(rng, G, avoid=H)
            else:
                S = random_symmetric_multiset(rng, G)
            multisets[x] = S
        yield build_cover(G, tree, inertia, multisets, flipped=False)


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("name", FIGURES)
def test_figure_profiles_match_the_oracles(name, flipped, catalog):
    check_against_oracles(cover_from_spec(dict(load_figure(name), flipped=flipped), catalog))


def test_criterion_4_profiles_match_the_oracles(catalog):
    covers = list(criterion_4_covers(catalog))
    assert len(covers) == 200
    for cover in covers:
        check_against_oracles(cover)


def test_criterion_4_profiles_are_computed_once_per_cover(catalog, monkeypatch):
    covers = list(criterion_4_covers(catalog))
    computed = []
    compute = galois._vertex_profiles
    monkeypatch.setattr(galois, "_vertex_profiles", lambda c: computed.append(c) or compute(c))
    for cover in covers:
        profile = ramification_profile(cover)
        if cover.is_connected():
            assert riemann_hurwitz_check(cover).R == profile.ramification_number()
        assert classify_branch_locus(cover).R == profile.ramification_number()
        assert profile_to_json(cover)["R"] == str(profile.ramification_number())
        assert ramification_profile(cover).per_vertex is profile.per_vertex
        # R is summed once per cover, to the term-by-term sum
        R = Fraction(0)
        for p in profile.per_vertex.values():
            R += 2 * (1 - Fraction(1, p.m)) + p.w
        assert ramification_profile(cover).ramification_number() is profile.ramification_number()
        assert classify_branch_locus(cover).R is profile.ramification_number()
        assert profile.ramification_number() == R
    assert computed == covers
    for cover in covers:
        assert compute(cover) == ramification_profile(cover).per_vertex


@pytest.mark.parametrize("flipped, expected", [(False, 1), (True, 2)])
@pytest.mark.parametrize("name", FIGURES)
def test_build_cover_validates_one_action(name, flipped, expected, catalog, monkeypatch):
    # the second action of a flipped cover is flip_all's
    built = []
    init = GraphAction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GraphAction, "__init__", counting_init)
    cover = cover_from_spec(dict(load_figure(name), flipped=flipped), catalog)
    assert len(built) == expected
    assert built[-1] is cover.action


def _merge_first_two(reps):
    reps[1] = reps[0]


def _swap_first_two(reps):
    reps[0], reps[1] = reps[1], reps[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_merge_first_two, "generator 0: vertex map is not a bijection"),
        (_swap_first_two, r"generator 0: edge \d+ maps to \d+ but endpoints map to"),
    ],
)
def test_corrupted_fiber_fails_the_total_validation(corrupt, message, monkeypatch):
    # the fibers are not validated on their own: a fiber whose coset
    # representatives are corrupted, so that its vertex images are wrong,
    # must still fail, in the validation of the assembled action
    original = galois.collapse

    def corrupted_collapse(G, I, S):
        fiber = original(G, I, S)
        reps = list(fiber.reps)
        corrupt(reps)
        return dataclasses.replace(fiber, reps=reps)

    monkeypatch.setattr(galois, "collapse", corrupted_collapse)
    with pytest.raises(ActionError, match=message):
        build_cover(S3, single_edge_base(), {}, {1: SymmetricMultiset([TAU])})


# -- inertia membership, tested once per group ------------------------------------------


def test_inertia_membership_is_tested_once_per_group(monkeypatch):
    H, K = S3.subgroup([TAU]), S3.subgroup([SIGMA])
    sifts = []
    contains = PermutationGroup.contains
    monkeypatch.setattr(
        PermutationGroup, "contains", lambda G, p: sifts.append((G, p)) or contains(G, p)
    )
    inertia = InertiaStructure({1: H})
    for _ in range(3):
        assert inertia.subgroup_at(S3, 1) is H
    assert sifts == [(S3, TAU)]
    other = symmetric(3)  # another group object is tested again
    assert inertia.subgroup_at(other, 1) is H
    assert sifts == [(S3, TAU), (other, TAU)]
    # a new subgroup at the vertex is tested again too
    inertia.assignment[1] = K
    assert inertia.subgroup_at(other, 1) is K
    assert sifts[2:] == [(other, SIGMA)]


def test_inertia_outside_the_group_fails_on_every_call():
    C3 = cyclic(3)
    inertia = InertiaStructure({2: S3.subgroup([TAU])})
    for _ in range(2):
        with pytest.raises(GroupError, match=f"^inertia at 2 is not a subgroup of {C3.name}$"):
            inertia.subgroup_at(C3, 2)
    with pytest.raises(GroupError, match="inertia at 2 is not a subgroup"):
        build_cover(C3, single_edge_base(), inertia, {})
