import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import generates, load_figure
from hcov import maximal
from hcov.errors import CatalogError, CoverError, GroupError
from hcov.galois import classify_branch_locus, cover_from_spec, riemann_hurwitz_check
from hcov.harmonic import flipped_edges, is_harmonic_action
from hcov.kernel import perm_order, perm_pow
from hcov.maximal import (
    build_maximal,
    build_maximal_rho,
    classification_table,
    classify_genus,
    genus12_check,
    miller_check,
)
from hcov.multigraph import Multigraph, are_isomorphic
from hcov.oriented import OrientedGraph
from hcov.permgroup import (
    alternating,
    cyclic,
    first_pair,
    perm_from_cycles,
    psl2,
    search_23_pairs,
    symmetric,
)

S3 = symmetric(3)
TAU = perm_from_cycles([(0, 1)], 3)
SIGMA = perm_from_cycles([(0, 1, 2)], 3)


def test_build_maximal_s3_is_theta():
    mc = build_maximal(S3, TAU, SIGMA)
    assert len(mc.graph.vertices) == 2
    assert len(mc.graph.edges) == 3
    assert mc.graph.genus() == 2
    assert classify_branch_locus(mc.cover).case == "i"


def test_build_maximal_z6_is_theta():
    Z6 = cyclic(6)
    g = Z6.generators[0]
    mc = build_maximal(Z6, perm_pow(g, 3), perm_pow(g, 2))
    assert len(mc.graph.vertices) == 2
    assert len(mc.graph.edges) == 3
    assert mc.graph.genus() == 2


def test_build_maximal_psl27():
    G = psl2(7)
    tau, sigma = search_23_pairs(G, product_order=7).pairs[0]
    mc = build_maximal(G, tau, sigma)
    assert len(mc.graph.vertices) == 56
    assert len(mc.graph.edges) == 84
    assert mc.graph.genus() == 29
    assert G.order() == 6 * (29 - 1)


def test_build_maximal_preconditions():
    with pytest.raises(GroupError, match="order 2"):
        build_maximal(S3, SIGMA, SIGMA)
    with pytest.raises(GroupError, match="order 3"):
        build_maximal(S3, TAU, TAU)
    # a non-generating pair: Z6 inside Z12
    Z12 = cyclic(12)
    h = Z12.generators[0]
    with pytest.raises(GroupError, match="generate"):
        build_maximal(Z12, perm_pow(h, 6), perm_pow(h, 4))


def test_a_pair_that_does_not_generate_is_refused_before_its_map_is_built(monkeypatch):
    def refuse(cls, X, Y):
        raise AssertionError("built the map of a pair")

    monkeypatch.setattr(OrientedGraph, "from_darts", classmethod(refuse))
    with pytest.raises(AssertionError, match="built the map"):  # the patch bites
        build_maximal(S3, TAU, SIGMA)
    h = cyclic(12).generators[0]
    with pytest.raises(GroupError, match="^tau and sigma do not generate the group$"):
        build_maximal(cyclic(12), perm_pow(h, 6), perm_pow(h, 4))


# -- _verify_maximal on corrupted copies of PSL(2,7)'s maximal cover -------------------


def psl27_maximal():
    G = psl2(7)
    return build_maximal(G, *first_pair(G))


def corrupted(mc, graph=None, edge_orbits=None, order=None):
    """A copy of mc whose graph, edge orbits or group order are replaced,
    unvalidated."""
    out = copy.copy(mc)
    out.cover = copy.copy(mc.cover)
    out.cover.action = SimpleNamespace(
        graph=graph or mc.graph, edge_orbits=edge_orbits or mc.action.edge_orbits
    )
    if order is not None:
        out.group = SimpleNamespace(order=lambda: order)
    return out


def with_an_extra_vertex(mc):
    g = mc.graph
    return corrupted(mc, graph=Multigraph([*g.vertices, len(g.vertices)], g.edges.items()))


def with_an_edge_moved(mc):
    # one end of edge 0 moves to a third vertex: 3 - 1 and 3 + 1 edges there
    g = mc.graph
    edges = list(g.edges.items())
    e, (u, v) = edges[0]
    edges[0] = (e, (u, next(w for w in g.vertices if w not in (u, v))))
    return corrupted(mc, graph=Multigraph(g.vertices, edges))


def with_a_vertex_orbit_for_edges(mc):
    # the vertex orbit's stabilizer, <sigma>, has order 3
    return corrupted(mc, edge_orbits=lambda: [mc.action.vertex_orbit(0)])


def with_order_169(mc):
    # 169 // 3 = 56 vertices and 169 // 2 = 84 edges, but 6(29 - 1) = 168
    return corrupted(mc, order=169)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (with_an_extra_vertex, "coset counts are off"),
        (with_an_edge_moved, "maximal cover is not 3-regular"),
        (with_a_vertex_orbit_for_edges, "not every edge of the maximal cover is flipped"),
        (with_order_169, "|G| = 6(genus-1) fails"),
    ],
)
def test_a_corrupted_maximal_cover_fails_its_verification(corrupt, message):
    mc = psl27_maximal()
    maximal._verify_maximal(corrupted(mc))  # an uncorrupted copy passes
    with pytest.raises(CoverError) as err:
        maximal._verify_maximal(corrupt(mc))
    assert str(err.value) == message


def test_all_witness_pairs_of_table_groups(catalog):
    for order, genus in [(6, 2), (12, 3), (18, 4), (24, 5)]:
        for G in catalog.by_order(order):
            res = search_23_pairs(G)
            for tau, sigma in res.pairs:
                mc = build_maximal(G, tau, sigma)
                assert mc.graph.genus() == G.order() // 6 + 1
                assert len(mc.graph.vertices) == G.order() // 3
                assert len(mc.graph.edges) == G.order() // 2
                assert flipped_edges(mc.action) == set(mc.graph.edges)
                rh = riemann_hurwitz_check(mc.cover)
                assert rh.holds and rh.R == Fraction(7, 3)


def test_reconstruction_equivalence(catalog):
    # the direct coset construction agrees with the Cayley/collapse/flip path
    spec = load_figure("theta_s3.json")
    functor_path = cover_from_spec(spec, catalog)
    direct = build_maximal(S3, TAU, SIGMA)
    assert are_isomorphic(functor_path.graph, direct.graph)
    A4 = alternating(4)
    t = perm_from_cycles([(0, 1), (2, 3)], 4)
    s = perm_from_cycles([(0, 1, 2)], 4)
    from hcov.galois import SymmetricMultiset, build_cover
    from hcov.multigraph import Multigraph

    functor_a4 = build_cover(
        A4,
        Multigraph([0], []),
        {0: A4.subgroup([s])},
        {0: SymmetricMultiset([t])},
        flipped=True,
    )
    assert are_isomorphic(functor_a4.graph, build_maximal(A4, t, s).graph)


def test_pair_recoverable_from_cover():
    # the inertia generator plus any flipping involution regenerate the group
    mc = build_maximal(S3, TAU, SIGMA)
    sigma = mc.cover.inertia[0].generators[0]
    orbit = mc.action.edge_orbits()[0]
    t = mc.group.element_index().element(orbit.stabilizer()[1])
    assert perm_order(t) == 2
    assert perm_order(sigma) == 3
    assert generates(mc.group, [t, sigma])


def test_rho_variant_isomorphic_small(catalog):
    cases = [(S3, TAU, SIGMA)]
    Z6 = cyclic(6)
    g = Z6.generators[0]
    cases.append((Z6, perm_pow(g, 3), perm_pow(g, 2)))
    A4 = alternating(4)
    cases.append(
        (A4, perm_from_cycles([(0, 1), (2, 3)], 4), perm_from_cycles([(0, 1, 2)], 4))
    )
    S3Z3 = catalog.get("S3xZ3")
    tau, sigma = search_23_pairs(S3Z3).pairs[0]
    cases.append((S3Z3, tau, sigma))
    for G, tau, sigma in cases:
        direct = build_maximal(G, tau, sigma)
        rho_cover = build_maximal_rho(G, tau, sigma)
        assert is_harmonic_action(rho_cover.action)
        assert are_isomorphic(rho_cover.graph, direct.graph)


def test_classify_rows(catalog):
    assert classify_genus(3, catalog).maximal_groups == ["A4"]
    assert classify_genus(6, catalog).maximal_groups == []
    assert classify_genus(5, catalog).maximal_groups == ["A4xZ2", "S4"]


def test_classify_requires_complete_catalog(catalog):
    with pytest.raises(CatalogError, match="complete"):
        classify_genus(7, catalog)  # order 36 is not shipped


def test_classification_table(catalog):
    rows = classification_table(2, 6, catalog)
    assert [r.maximal_groups for r in rows] == [
        ["S3", "Z6"],
        ["A4"],
        ["S3xZ3"],
        ["A4xZ2", "S4"],
        [],
    ]


def test_classified_groups_round_trip(catalog):
    # every classified group yields a cover that the branch classifier tags
    # maximal with a single case-(i) branch point
    for genus in (2, 3, 4, 5):
        row = classify_genus(genus, catalog)
        for name in row.maximal_groups:
            G = catalog.get(name)
            tau, sigma = row.witnesses[name]
            locus = classify_branch_locus(build_maximal(G, tau, sigma).cover)
            assert locus.case == "i"
            assert locus.is_maximal


def test_miller_checks():
    assert miller_check("alternating", 5) is True
    assert miller_check("symmetric", 5) is False
    assert miller_check("alternating", 6) is False
    assert miller_check("symmetric", 4) is True
    with pytest.raises(GroupError):
        miller_check("alternating", 9)
    with pytest.raises(GroupError):
        miller_check("dihedral", 5)


def test_miller_checks_full_supported_range():
    # the classical exception list within the supported window: S5, S6, S8
    # and A6, A7, A8 fail; everything else from 3 up succeeds
    expected = {
        ("symmetric", 3): True,
        ("symmetric", 4): True,
        ("symmetric", 5): False,
        ("symmetric", 6): False,
        ("symmetric", 7): True,
        ("symmetric", 8): False,
        ("alternating", 4): True,
        ("alternating", 5): True,
        ("alternating", 6): False,
        ("alternating", 7): False,
        ("alternating", 8): False,
    }
    for (family, n), verdict in expected.items():
        assert miller_check(family, n) is verdict, (family, n)
    # A3 has no involution at all, so no pair of orders exactly (2,3) exists
    assert miller_check("alternating", 3) is False


def test_a5_maximal_cover_and_sphere():
    from hcov.oriented import theorem_44_check

    A5 = alternating(5)
    res = search_23_pairs(A5)
    assert res.pairs
    tau, sigma = res.pairs[0]
    mc = build_maximal(A5, tau, sigma)
    assert len(mc.graph.vertices) == 20
    assert len(mc.graph.edges) == 30
    assert mc.graph.genus() == 11  # 60 = 6 (11 - 1)
    rep = theorem_44_check(mc)
    assert rep.holds
    assert rep.k == 5  # generating pairs of A5 have product order 5
    assert rep.surface_genus == 0


def test_representation_independence_psl2_5_vs_a5():
    # the same abstract group in two permutation representations must give
    # isomorphic covers (vertex set = cosets of <sigma>, so only the
    # abstract structure matters)
    A5 = alternating(5)
    G = psl2(5)
    assert G.order() == A5.order() == 60
    mc_a = build_maximal(A5, *search_23_pairs(A5).pairs[0])
    mc_p = build_maximal(G, *search_23_pairs(G).pairs[0])
    assert are_isomorphic(mc_a.graph, mc_p.graph)
    from hcov.oriented import theorem_44_check

    assert theorem_44_check(mc_a).surface_genus == theorem_44_check(mc_p).surface_genus


def test_psl2_13_is_hurwitz():
    from hcov.oriented import theorem_44_check

    G = psl2(13)
    res = search_23_pairs(G, product_order=7)
    assert res.pairs
    mc = build_maximal(G, *res.pairs[0])
    assert mc.graph.genus() == G.order() // 6 + 1 == 183
    rep = theorem_44_check(mc)
    assert rep.hurwitz
    assert rep.surface_genus == 14
    assert G.order() == 84 * (14 - 1)


def test_genus12(catalog):
    assert genus12_check(catalog) is True
    Z66 = catalog.get("Z66")
    assert not search_23_pairs(Z66).pairs


def test_witness_determinism(catalog):
    a = classify_genus(5, catalog)
    b = classify_genus(5, catalog)
    assert a.witnesses == b.witnesses


def test_conjugate_and_inverse_pairs_give_isomorphic_covers(catalog):
    from hcov.kernel import perm_inv, perm_mul

    for name in ("S3", "A4"):
        G = catalog.get(name)
        tau, sigma = search_23_pairs(G).pairs[0]
        base = build_maximal(G, tau, sigma).graph
        assert are_isomorphic(base, build_maximal(G, tau, perm_inv(sigma)).graph)
        g = G.elements()[3]
        conj_tau = perm_mul(g, perm_mul(tau, perm_inv(g)))
        conj_sigma = perm_mul(g, perm_mul(sigma, perm_inv(g)))
        assert are_isomorphic(base, build_maximal(G, conj_tau, conj_sigma).graph)


def test_edge_stabilizers_bounded_on_catalog_covers(catalog):
    for order in (6, 12, 18, 24):
        for G in catalog.by_order(order):
            res = search_23_pairs(G)
            if not res.pairs:
                continue
            mc = build_maximal(G, *res.pairs[0])
            for orbit in mc.action.edge_orbits():
                assert G.order() // orbit.size in (1, 2)

