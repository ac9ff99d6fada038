"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or look at the -v report).

Every tolerance is exact: genus and coset counts are integer equalities,
ramification numbers are exact rationals, and each stated wall-clock budget
is asserted with time.monotonic().
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    dart_element,
    element_dart,
    generates,
    harmonic_by_subgroup_quotients,
    load_figure,
    map_darts,
    morphism_from_json,
    random_rotation,
)
from hcov.cli import main as hc_main
from hcov.galois import (
    SymmetricMultiset,
    build_cover,
    cover_from_spec,
    ramification_profile,
    riemann_hurwitz_check,
)
from hcov.harmonic import (
    GraphAction,
    flip_all,
    flipped_edges,
    is_harmonic_action,
    quotient,
    unflip,
)
from hcov.kernel import perm_id, perm_mul, perm_order, perm_pow
from hcov.maximal import build_maximal, miller_check
from hcov.multigraph import Multigraph, are_isomorphic, is_harmonic
from hcov.oriented import (
    canonical_orientation,
    lht_decomposition,
    surface_genus,
    theorem_44_check,
)
from hcov.permgroup import psl2, search_23_pairs


@contextmanager
def criterion(n, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n} ({label}): PASS ({elapsed:.2f}s)")


def table_one_witnesses(catalog):
    """(group, tau, sigma) for every representative pair of every group in
    the published genus 2..5 rows."""
    out = []
    for order in (6, 12, 18, 24):
        for G in catalog.by_order(order):
            for tau, sigma in search_23_pairs(G).pairs:
                out.append((G, tau, sigma))
    return out


def test_criterion_1_figure_reconstructions(catalog):
    with criterion(1, "figure reconstructions", budget=1.0):
        phi1 = morphism_from_json(load_figure("fig1_phi1.json"))
        rep1 = is_harmonic(phi1)
        assert not rep1 and rep1.witness[0] == 4

        phi2 = morphism_from_json(load_figure("fig1_phi2.json"))
        assert is_harmonic(phi2)

        fig2 = GraphAction.from_json(load_figure("fig2_action.json"))
        assert not is_harmonic_action(fig2)
        q = quotient(fig2)
        assert len(q.quotient.vertices) == 2 and len(q.quotient.edges) == 2
        assert not is_harmonic(q.projection)

        for name, nv, ne, genus in [
            ("fig4.json", 12, 18, 7),
            ("fig5.json", 12, 15, 4),
            ("fig6.json", 8, 9, 2),
        ]:
            cover = cover_from_spec(load_figure(name), catalog)
            assert len(cover.graph.vertices) == nv
            assert len(cover.graph.edges) == ne
            assert cover.graph.genus() == genus
            assert cover.is_connected()
            assert is_harmonic_action(cover.action)


def test_criterion_2_table_reproduction(capsys):
    start = time.monotonic()
    try:
        code = hc_main(["maximal", "table", "--from", "2", "--to", "6", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [set(r["maximal_groups"]) for r in rows] == [
            {"Z6", "S3"},
            {"A4"},
            {"S3xZ3"},
            {"S4", "A4xZ2"},
            set(),
        ]
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
    except BaseException:
        with capsys.disabled():
            print("criterion 2 (published classification table): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion 2 (published classification table): PASS ({elapsed:.2f}s)")


def test_criterion_3_maximality_identity(catalog):
    with criterion(3, "maximality identity for every witness pair"):
        pairs = table_one_witnesses(catalog)
        assert pairs
        for G, tau, sigma in pairs:
            mc = build_maximal(G, tau, sigma)
            assert mc.graph.genus() == G.order() // 6 + 1  # integer equality
            rh = riemann_hurwitz_check(mc.cover)
            assert rh.holds
            assert rh.R == Fraction(7, 3)  # exact rational


def random_tree(rng, n):
    vertices = list(range(1, n + 1))
    edges = []
    for i in range(1, n):
        parent = rng.choice(vertices[:i])
        edges.append((i - 1, (parent, vertices[i])))
    return Multigraph(vertices, edges)


def random_symmetric_multiset(rng, G, avoid=None):
    entries = {}
    for _ in range(rng.randrange(0, 3)):
        p = rng.choice(G.elements())
        if p == G.identity:
            continue
        if avoid is not None and avoid.contains(p):
            continue
        mult = rng.randrange(1, 3)
        entries[p] = entries.get(p, 0) + mult
        q = tuple(sorted(range(len(p)), key=lambda i: p[i]))
        if q != p:
            entries[q] = entries.get(q, 0) + mult
    return SymmetricMultiset(list(entries.items()))


def random_subgroup(rng, G, proper=False):
    while True:
        gens = [rng.choice(G.elements()) for _ in range(rng.randrange(0, 3))]
        H = G.subgroup([g for g in gens if g != G.identity])
        if proper and H.order() == G.order():
            continue
        return H


def test_criterion_4_fundamental_identity(catalog):
    with criterion(4, "deg = m*f*n over randomized covers"):
        rng = random.Random(20260810)
        groups = [G for G in catalog.groups if G.order() <= 24]
        assert len(groups) == 27
        built = 0
        while built < 200:
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
            cover = build_cover(G, tree, inertia, multisets, flipped=False)
            profile = ramification_profile(cover)
            for prof in profile.per_vertex.values():
                assert prof.m * prof.f * prof.n == G.order()
                assert prof.v == prof.m * prof.w
            gens = list(S.support() for S in multisets.values())
            flat = [p for sup in gens for p in sup]
            for H in inertia.values():
                flat.extend(H.generators)
            expected = generates(G, flat) if flat else G.order() == 1
            assert cover.is_connected() == expected
            if cover.is_connected():
                assert riemann_hurwitz_check(cover).holds
            built += 1
        assert built >= 200


def test_criterion_5_hurwitz_chain():
    with criterion(5, "smallest Hurwitz group chain", budget=10.0):
        G = psl2(7)
        res = search_23_pairs(G, product_order=7)
        assert res.pairs
        tau, sigma = res.pairs[0]
        assert perm_order(perm_mul(tau, sigma)) == 7
        mc = build_maximal(G, tau, sigma)
        assert len(mc.graph.vertices) == 56
        assert len(mc.graph.edges) == 84
        assert mc.graph.genus() == 29
        og = canonical_orientation(mc)
        dec = lht_decomposition(og)
        assert dec.L == 24  # traced, not the closed form
        report = surface_genus(og)
        assert report.surface_genus == 3
        assert G.order() == 84 * (report.surface_genus - 1)


def test_criterion_6_theorem_44_sweep(catalog):
    with criterion(6, "surface identity sweep"):
        groups = [G for G in catalog.groups if G.order() <= 60]
        groups.append(psl2(7))
        groups.append(psl2(13))
        checked = 0
        for G in groups:
            for tau, sigma in search_23_pairs(G).pairs:
                rep = theorem_44_check(build_maximal(G, tau, sigma))
                assert rep.holds
                assert rep.lhs == rep.order * (rep.k - 6)
                assert rep.rhs == 12 * rep.k * (rep.surface_genus - 1)
                checked += 1
        assert checked > 100  # the two psl2 groups alone contribute 112


def test_criterion_7_miller_spot_checks():
    with criterion(7, "alternating/symmetric spot checks", budget=120.0):
        assert miller_check("alternating", 5) is True
        assert miller_check("symmetric", 5) is False
        assert miller_check("alternating", 6) is False


def suite_actions(catalog):
    """Every action the property suites exercise, all with |G| <= 48."""
    S3 = catalog.get("S3")
    Z6 = catalog.get("Z6")
    acts = [
        GraphAction.from_json(load_figure("fig2_action.json")),
        GraphAction.from_json(load_figure("fig3_s3_action.json"), catalog),
        GraphAction.from_json(load_figure("fig3_z6_action.json")),
        cover_from_spec(load_figure("fig4.json"), catalog).action,
        cover_from_spec(load_figure("fig5.json"), catalog).action,
        cover_from_spec(load_figure("fig6.json"), catalog).action,
    ]
    for G in (S3, Z6, catalog.get("A4"), catalog.get("S3xZ3"), catalog.get("S4"),
              catalog.get("A4xZ2")):
        tau, sigma = search_23_pairs(G).pairs[0]
        acts.append(build_maximal(G, tau, sigma).action)
    return acts


def test_criterion_8_property_suites(catalog):
    with criterion(8, "property suites"):
        # dart-freeness criterion is equivalent to the subgroup-quotient
        # definition, exhaustively over all subgroups (|G| <= 48 throughout)
        for action in suite_actions(catalog):
            assert action.group.order() <= 48
            by_def, _ = harmonic_by_subgroup_quotients(action)
            assert by_def == bool(is_harmonic_action(action))
            # size bound: a harmonic action on a connected genus >= 2 graph
            # never beats |G| = 6(g-1)
            if (
                is_harmonic_action(action)
                and action.graph.is_connected()
                and action.graph.genus() >= 2
            ):
                assert action.group.order() <= 6 * (action.graph.genus() - 1)

        # flip/unflip round trip on every maximal cover of the table groups
        for action in suite_actions(catalog)[6:]:
            unflipped = unflip(action)
            back = flip_all(unflipped)
            assert are_isomorphic(back.graph, action.graph)
            assert len(flipped_edges(back)) == len(flipped_edges(action))

        # LHT orbits partition the darts: sum of lengths = 3|V| under fuzzing
        rng = random.Random(8)
        graphs = []
        for G in ("S3", "A4", "S4"):
            grp = catalog.get(G)
            tau, sigma = search_23_pairs(grp).pairs[0]
            graphs.append(build_maximal(grp, tau, sigma).graph)
        G7 = psl2(7)
        tau, sigma = search_23_pairs(G7, product_order=7).pairs[0]
        graphs.append(build_maximal(G7, tau, sigma).graph)
        traced = 0
        while traced < 1000:
            g = graphs[traced % len(graphs)]
            og = random_rotation(g, rng)
            dec = lht_decomposition(og)
            assert sum(len(o) for o in dec.orbits) == 3 * len(g.vertices)
            report = surface_genus(og)
            assert (len(g.vertices) - 2 * dec.L) % 4 == 0
            assert report.surface_genus >= 0
            traced += 1

        # the two harmonicity characterizations also agree on randomized
        # covers (sampled; criterion 4 builds the full population)
        rng = random.Random(99)
        small = [G for G in catalog.groups if G.order() <= 12]
        for i in range(12):
            G = small[i % len(small)]
            tree = random_tree(rng, rng.randrange(1, 4))
            inertia = {x: random_subgroup(rng, G, proper=True) for x in tree.vertices}
            multisets = {}
            for x in tree.vertices:
                S = random_symmetric_multiset(rng, G, avoid=inertia[x])
                if len(tree.vertices) == 1 and inertia[x].order() > 1:
                    while not S:
                        S = random_symmetric_multiset(rng, G, avoid=inertia[x])
                multisets[x] = S
            cover = build_cover(G, tree, inertia, multisets)
            by_def, _ = harmonic_by_subgroup_quotients(cover.action)
            assert by_def == bool(is_harmonic_action(cover.action))

        # coset-orbit structure of the canonical orientation
        for order in (6, 12, 18, 24):
            for G in catalog.by_order(order):
                for tau, sigma in search_23_pairs(G).pairs[:2]:
                    mc = build_maximal(G, tau, sigma)
                    dec = lht_decomposition(canonical_orientation(mc))
                    darts = map_darts(mc.map)
                    ts = perm_mul(tau, sigma)
                    k = perm_order(ts)
                    to_element = dart_element(mc)
                    to_dart = element_dart(mc)
                    for h in (perm_id(G.degree), tau, sigma):
                        orbit = dec.orbits[dec.orbit_number[darts.index(to_dart[h])]]
                        labels = {to_element[darts[d]] for d in orbit}
                        assert labels == {perm_mul(h, perm_pow(ts, j)) for j in range(k)}


def test_criterion_9_negative_control(catalog):
    with criterion(9, "strict sign transcription fails on the shipped example"):
        cover = cover_from_spec(load_figure("fig6.json"), catalog)
        strict = riemann_hurwitz_check(cover, strict_sign=True)
        assert strict.sign == "-R"
        assert not strict.holds
        assert riemann_hurwitz_check(cover).holds
