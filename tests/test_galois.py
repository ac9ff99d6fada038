import json
from fractions import Fraction

import pytest

from conftest import load_figure
from hcov.errors import CoverError, GroupError
from hcov.galois import (
    SymmetricMultiset,
    build_cover,
    cayley,
    classify_branch_locus,
    collapse,
    cover_from_spec,
    decomposition_group,
    profile_to_json,
    ramification_profile,
    riemann_hurwitz_check,
)
from hcov.harmonic import flipped_edges, is_harmonic_action, unflip
from hcov.kernel import perm_pow
from hcov.multigraph import Multigraph, are_isomorphic
from hcov.permgroup import cyclic, perm_from_cycles, symmetric

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
    g = lab.graph
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    comps = g.connected_components()
    assert [len(c) for c in comps] == [3, 3]
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert is_harmonic_action(lab.action)
    assert flipped_edges(lab.action) == set()


def test_cayley_involution_parallel_pairs():
    lab = cayley(S3, SymmetricMultiset([TAU]))
    g = lab.graph
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
    lab = cayley(Z6, SymmetricMultiset([g3]))
    assert len(lab.graph.vertices) == 6
    assert len(lab.graph.edges) == 6
    assert [len(c) for c in lab.graph.connected_components()] == [2, 2, 2]


# -- collapse -----------------------------------------------------------------------


def test_collapse_tau_cayley_by_sigma():
    lab = cayley(S3, SymmetricMultiset([TAU]))
    out = collapse(S3, S3.subgroup([SIGMA]), lab)
    assert len(out.graph.vertices) == 2
    assert len(out.graph.edges) == 6
    assert not out.removed_loops


def test_collapse_sigma_cayley_by_sigma_kills_all_edges():
    lab = cayley(S3, SymmetricMultiset([SIGMA, SIGMA2]))
    out = collapse(S3, S3.subgroup([SIGMA]), lab)
    assert len(out.graph.vertices) == 2
    assert len(out.graph.edges) == 0
    assert len(out.removed_loops) == 6


def test_collapse_by_trivial_subgroup_is_identity():
    lab = cayley(S3, SymmetricMultiset([TAU]))
    out = collapse(S3, S3.trivial_subgroup(), lab)
    assert are_isomorphic(out.graph, lab.graph)
    assert sorted(out.vertex_labels.values()) == sorted(lab.vertex_labels.values())


def test_collapse_requires_element_labels():
    lab = cayley(S3, SymmetricMultiset([TAU]))
    broken = type(lab)(lab.action, {v: 0 for v in lab.graph.vertices})
    with pytest.raises(CoverError, match="bijectively"):
        collapse(S3, S3.subgroup([SIGMA]), broken)


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
