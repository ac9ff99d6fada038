import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcov.errors import CatalogError, GroupError
from hcov.kernel import mulclose, perm_inv, perm_mul, perm_order, perm_pow
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    all_subgroups,
    alternating,
    cyclic,
    cycle_string,
    cycles_of,
    dihedral,
    direct_product,
    element_order,
    generates,
    group_from_spec,
    group_order,
    left_cosets,
    load_catalog,
    load_default_catalog,
    order_spectrum,
    parse_cycle_string,
    perm_from_cycles,
    psl2,
    search_23_pairs,
    search_pairs,
    symmetric,
)

TAU3 = perm_from_cycles([(0, 1)], 3)
SIGMA3 = perm_from_cycles([(0, 1, 2)], 3)


def test_cycle_notation_round_trip():
    p = perm_from_cycles([(0, 2, 4), (1, 3)], 6)
    assert parse_cycle_string(cycle_string(p), 6) == p
    assert cycle_string((0, 1, 2)) == "()"
    assert parse_cycle_string("(0 1)(2 3 4)", 5) == perm_from_cycles([(0, 1), (2, 3, 4)], 5)
    assert cycles_of(p) == [(0, 2, 4), (1, 3)]


def test_group_order_examples():
    assert group_order(symmetric(3)) == 6
    assert group_order(alternating(4)) == 12
    G = psl2(7)
    # independent oracle: full closure enumeration
    assert len(mulclose(G.generators)) == 168
    assert group_order(G) == 168


def test_chain_order_matches_closure_for_catalog():
    for G in load_default_catalog().groups:
        assert G.order() == len(mulclose(G.generators))


def test_element_order_examples():
    S3 = symmetric(3)
    assert element_order(S3, S3.identity) == 1
    assert element_order(S3, perm_mul(TAU3, SIGMA3)) == 2
    A4 = alternating(4)
    t = perm_from_cycles([(0, 1), (2, 3)], 4)
    s = perm_from_cycles([(0, 1, 2)], 4)
    prod = perm_mul(t, s)
    assert element_order(A4, prod) == 3
    assert len(cycles_of(prod)) == 1 and len(cycles_of(prod)[0]) == 3


def test_element_order_membership_failure():
    A4 = alternating(4)
    with pytest.raises(GroupError):
        element_order(A4, perm_from_cycles([(0, 1)], 4))


def test_left_cosets_examples():
    S3 = symmetric(3)
    H = S3.subgroup([SIGMA3])
    assert len(left_cosets(S3, H)) == 2
    assert len(left_cosets(S3, S3.trivial_subgroup())) == 6
    G = psl2(7)
    sigma = next(p for p in G.elements() if perm_order(p) == 3)
    assert len(left_cosets(G, G.subgroup([sigma]))) == 56


def test_left_cosets_partition():
    for G in (symmetric(3), alternating(4), dihedral(6)):
        for H in all_subgroups(G):
            reps = left_cosets(G, H)
            assert len(reps) * H.order() == G.order()
            seen = set()
            for r in reps:
                coset = {perm_mul(r, h) for h in H.elements()}
                assert r == min(coset)  # canonical representative
                assert len(coset) == H.order()
                assert not (coset & seen)
                seen |= coset
            assert len(seen) == G.order()


def test_left_cosets_requires_containment():
    S3 = symmetric(3)
    S4 = symmetric(4)
    with pytest.raises(GroupError):
        S3.subgroup([perm_from_cycles([(0, 3)], 4)])
    # a "subgroup" of the wrong parent is rejected by the coset routine
    H = S4.subgroup([perm_from_cycles([(0, 3)], 4)])
    with pytest.raises(GroupError):
        left_cosets(PermutationGroup(4, [perm_from_cycles([(0, 1, 2)], 4)]), H)


def test_generates_examples():
    S3 = symmetric(3)
    assert generates(S3, [TAU3, SIGMA3])
    assert not generates(S3, [SIGMA3])
    Z30 = cyclic(30)
    g = Z30.generators[0]
    # the order-2 and order-3 elements together only make the order-6 subgroup
    assert not generates(Z30, [perm_pow(g, 15), perm_pow(g, 10)])
    sub = mulclose([perm_pow(g, 15), perm_pow(g, 10)])
    assert len(sub) == 6


def test_search_23_pairs_examples():
    assert search_23_pairs(symmetric(3))
    assert not search_23_pairs(cyclic(12)).pairs
    res = search_23_pairs(psl2(7), product_order=7)
    assert res.pairs
    for tau, sigma in res.pairs:
        assert perm_order(tau) == 2
        assert perm_order(sigma) == 3
        assert perm_order(perm_mul(tau, sigma)) == 7


def test_search_sigma_inverse_symmetry():
    for G in (symmetric(3), alternating(4), symmetric(4)):
        res = search_23_pairs(G)
        found = set(res.pairs)
        for tau, sigma in res.pairs:
            assert (tau, perm_inv(sigma)) in found


def test_search_all_involutions_flag():
    S3 = symmetric(3)
    reps = search_23_pairs(S3)
    full = search_23_pairs(S3, all_involutions=True)
    assert len(full.pairs) == reps.total == 6
    assert len(reps.pairs) == 2


def test_search_pairs_generalized():
    S4 = symmetric(4)
    res = search_pairs(S4, 2, 4)
    assert res.pairs
    for a, b in res.pairs:
        assert perm_order(a) == 2 and perm_order(b) == 4


def test_constructors():
    assert cyclic(6).order() == 6
    assert cyclic(1).order() == 1
    assert dihedral(1).order() == 2
    assert dihedral(2).order() == 4
    assert dihedral(6).order() == 12
    assert direct_product(alternating(4), cyclic(2)).order() == 24
    assert symmetric(2).order() == 2
    assert alternating(3).order() == 3
    assert alternating(6).order() == 360
    with pytest.raises(GroupError):
        cyclic(0)
    with pytest.raises(GroupError):
        psl2(9)  # not prime
    with pytest.raises(GroupError):
        psl2(2)


def test_psl2_cap_and_override():
    assert psl2(7).order() == 168
    assert psl2(13).order() == 1092
    assert psl2(31).order() == 14880
    with pytest.raises(GroupError):
        psl2(37)
    assert psl2(37, allow_large=True).order() == 25308


def test_all_subgroups_counts():
    assert len(all_subgroups(symmetric(3))) == 6
    assert len(all_subgroups(symmetric(4))) == 30
    assert len(all_subgroups(cyclic(12))) == 6
    with pytest.raises(GroupError):
        all_subgroups(psl2(7))


def test_element_word_factors_members():
    import random

    rng = random.Random(5)
    for G in (symmetric(4), psl2(5)):
        els = G.elements()
        for _ in range(20):
            g = rng.choice(els)
            word = G.element_word(g)
            acc = G.identity
            for i, inv in word:
                gen = G.generators[i]
                acc = perm_mul(acc, perm_inv(gen) if inv else gen)
            assert acc == g


def test_catalog_counts_and_names():
    cat = load_default_catalog()
    assert len(cat.by_order(6)) == 2
    assert len(cat.by_order(12)) == 5
    assert len(cat.by_order(18)) == 5
    assert len(cat.by_order(24)) == 15
    assert len(cat.by_order(30)) == 4
    assert len(cat.by_order(66)) == 4
    assert {"Z6", "S3"} <= set(cat.names())
    spectra = [tuple(sorted(order_spectrum(G).items())) for G in cat.by_order(24)]
    assert len(set(spectra)) == 15


def test_catalog_validation_errors(tmp_path):
    cat_path = tmp_path / "bad.json"
    # wrong count for a published order
    cat_path.write_text(json.dumps([{"order": 6, "groups": []}]))
    with pytest.raises(CatalogError, match="published count"):
        load_catalog(cat_path)
    # duplicate names
    rec = {
        "name": "X",
        "degree": 3,
        "generators": [[1, 0, 2], [1, 2, 0]],
        "order_spectrum": {"1": 1, "2": 3, "3": 2},
    }
    cat_path.write_text(json.dumps([{"order": 6, "groups": [rec, rec]}]))
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(cat_path)
    # spectrum fingerprint mismatch
    bad = dict(rec)
    bad["order_spectrum"] = {"1": 1, "2": 1, "3": 4}
    cat_path.write_text(
        json.dumps([{"order": 6, "groups": [bad, dict(rec, name="Y")]}])
    )
    with pytest.raises(CatalogError, match="spectrum"):
        load_catalog(cat_path)


def test_group_from_spec():
    cat = load_default_catalog()
    assert group_from_spec("S3", cat).order() == 6
    assert group_from_spec("sym:5", cat).order() == 120
    assert group_from_spec("prod:alt:4,cyc:2", cat).order() == 24
    inline = {"degree": 2, "generators": [[1, 0]], "name": "Z2"}
    assert group_from_spec(inline).order() == 2
    with pytest.raises(GroupError):
        group_from_spec("NoSuchGroup", cat)


# -- pair search against the one-chain-per-(a, b) oracle ---------------------


def search_pairs_oracle(G, order_a=2, order_b=3, product_order=None, all_first=False):
    """The pair search without the centralizer reduction: class
    representatives from G.conjugacy_class, and one chain per (a, b).
    Returns (pairs, total, classes_searched)."""
    elements = G.elements()
    bs = [p for p in elements if perm_order(p) == order_b]
    if all_first:
        firsts = [(p, 1) for p in elements if perm_order(p) == order_a]
    else:
        seen = set()
        firsts = []
        for p in elements:
            if p in seen or perm_order(p) != order_a:
                continue
            cls = G.conjugacy_class(p)
            seen.update(cls)
            firsts.append((cls[0], len(cls)))
        firsts.sort()
    pairs = []
    total = 0
    for a, weight in firsts:
        for b in bs:
            if product_order is not None and perm_order(perm_mul(a, b)) != product_order:
                continue
            if StabilizerChain(G.degree, (a, b)).order() == G.order():
                pairs.append((a, b))
                total += weight
    return pairs, total, len(firsts)


def differential_groups():
    extra = [alternating(n) for n in (5, 6, 7)] + [symmetric(n) for n in (5, 6, 7)]
    return list(load_default_catalog().groups) + extra + [psl2(7), psl2(13)]


def test_search_pairs_matches_oracle():
    for G in differential_groups():
        all_first_flags = (False, True) if G.order() <= 60 else (False,)
        for orders in ((2, 3), (2, 4), (3, 3)):
            for product_order in (None, 7):
                for all_first in all_first_flags:
                    res = search_pairs(G, *orders, product_order, all_first)
                    got = (res.pairs, res.total, res.classes_searched)
                    want = search_pairs_oracle(G, *orders, product_order, all_first)
                    assert got == want, (G.name, orders, product_order, all_first)


PROPERTY_GROUPS = {
    G.name: G for G in (symmetric(3), alternating(4), symmetric(4), alternating(5), psl2(7))
}


@lru_cache(maxsize=None)
def _found_pairs(name, all_first):
    return frozenset(search_23_pairs(PROPERTY_GROUPS[name], all_involutions=all_first).pairs)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_GROUPS)),
    pair_index=st.integers(min_value=0),
    element_index=st.integers(min_value=0),
)
def test_conjugate_of_found_pair_is_found(name, pair_index, element_index):
    G = PROPERTY_GROUPS[name]
    found = sorted(_found_pairs(name, True))
    assert found, f"{name} is (2,3)-generated"
    a, b = found[pair_index % len(found)]
    g = G.elements()[element_index % G.order()]
    g_inv = perm_inv(g)

    def conj(x):
        return perm_mul(g, perm_mul(x, g_inv))

    assert (conj(a), conj(b)) in _found_pairs(name, True)
    # with a fixed, conjugating b by the centralizer keeps the pair found
    reps = _found_pairs(name, False)
    a, b = sorted(reps)[pair_index % len(reps)]
    centralizer = [c for c in G.elements() if perm_mul(c, a) == perm_mul(a, c)]
    c = centralizer[element_index % len(centralizer)]
    assert (a, perm_mul(c, perm_mul(b, perm_inv(c)))) in reps
