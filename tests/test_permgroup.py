import json
import random
from collections import Counter
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RebuiltChain, all_subgroups, generates, rebuilt_generates_order
from hcov import permgroup
from hcov.errors import CatalogError, GroupError
from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul, perm_order, perm_pow
from hcov.multigraph import map_items
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    _buckets_of_orders,
    _chain_products,
    _conjugacy_classes,
    _CycleBound,
    _elements_of_orders,
    _generates_order,
    _partners,
    alternating,
    cyclic,
    cycle_string,
    cycles_of,
    dihedral,
    direct_product,
    first_pair,
    group_from_spec,
    is_permutation,
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


@pytest.mark.parametrize(
    "p", [[1, 1], [0, 2], [0.0, 1], [True, 0], [1, 0.0], [-1, 0], [2, 0, 0], (1, 2, "0")]
)
def test_cycles_of_rejects_non_permutations(p):
    with pytest.raises(GroupError, match="is not a permutation"):
        cycles_of(p)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-1, 6), max_size=6),
        st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))),
    )
)
def test_cycles_of_agrees_with_is_permutation(p):
    try:
        cycles = cycles_of(p)
    except GroupError:
        assert not is_permutation(p)
        return
    assert is_permutation(p)
    assert perm_from_cycles(cycles, len(p)) == tuple(p)
    assert all(len(c) > 1 and c[0] == min(c) for c in cycles)


def test_group_order_examples():
    assert symmetric(3).order() == 6
    assert alternating(4).order() == 12
    G = psl2(7)
    # independent oracle: full closure enumeration
    assert len(mulclose(G.generators)) == 168
    assert G.order() == 168


def _chain_elements(chain: StabilizerChain):
    """Every element of the chain's group once, as the product of one
    transversal element per level, made one at a time."""

    def walk(prefix, level):
        if level == len(chain.levels):
            yield prefix
            return
        for u in chain.levels[level].transversal.values():
            yield from walk(perm_mul(prefix, u), level + 1)

    return walk(perm_id(chain.degree), 0)


def chain_oracle_groups():
    """The groups whose chains the closure and the rebuilding chain check."""
    return [
        *load_default_catalog().groups,
        *(make(n) for make in (symmetric, alternating) for n in range(1, 9)),
        *(psl2(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        direct_product(symmetric(4), psl2(7)),
    ]


def test_chain_order_matches_closure_for_catalog():
    # elements() and order_spectrum read the chain's products; the closure
    # is the independent count. Z1 has no generators, so its closure is empty.
    Z1 = cyclic(1)
    assert not mulclose(Z1.generators) and Z1.elements() == (Z1.identity,)
    for G in [*chain_oracle_groups(), Z1]:
        closure = mulclose(G.generators) or {G.identity}
        assert G.order() == len(closure), G.name
        assert sorted(_chain_elements(G.chain())) == sorted(closure), G.name
        assert G.elements() == tuple(sorted(closure)), G.name
        assert order_spectrum(G) == Counter(map(perm_order, closure)), G.name


def test_chain_levels_keep_transversal_inverses():
    for G in [*load_default_catalog().groups, symmetric(7), alternating(8), psl2(13)]:
        for lv in G.chain().levels:
            assert lv.inverse == {pt: perm_inv(u) for pt, u in lv.transversal.items()}, G.name


@pytest.mark.parametrize("make", [lambda: psl2(29), lambda: symmetric(8), lambda: alternating(8)])
def test_chain_inverts_each_transversal_element_at_most_once(monkeypatch, make):
    # levels close incrementally and keep their inverses: over the whole
    # chain, the walks' Schreier generators and lv.inverse share one
    # inversion per transversal element
    G = make()
    G = permgroup.PermutationGroup(G.degree, G.generators, G.name)  # no cached chain
    calls = [0]

    def counting_inv(p):
        calls[0] += 1
        return perm_inv(p)

    monkeypatch.setattr(permgroup, "perm_inv", counting_inv)
    cells = sum(len(lv.transversal) for lv in G.chain().levels)
    assert 0 < calls[0] <= cells, G.name


def test_incremental_chain_agrees_with_rebuilt_chain():
    rng = random.Random(32)
    for G in chain_oracle_groups():
        n, gens = G.degree, G.generators
        chain, rebuilt = StabilizerChain(n, gens), RebuiltChain(n, gens)
        assert chain.order() == rebuilt.order() == G.order(), G.name
        members = [G.identity, *gens]
        for _ in range(20):
            members.append(perm_mul(rng.choice(members), rng.choice(gens or [G.identity])))
        others = [tuple(rng.sample(range(n), n)) for _ in range(40)]
        for p in members + others:
            assert chain.contains(p) == rebuilt.contains(p), (G.name, p)
        assert all(map(chain.contains, members)), G.name
        for _ in range(10):
            pair = (rng.choice(members), rng.choice(members))
            want = rebuilt_generates_order(n, pair, G.order())
            assert _generates_order(n, pair, G.order()) == want, (G.name, pair)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)
    )
)
def test_chain_order_and_membership_match_closure(gens):
    n = len(gens[0])
    chain = StabilizerChain(n, gens)
    try:
        closure = mulclose(gens, limit=5040)
    except ValueError:
        assert chain.order() == RebuiltChain(n, gens).order() > 5040
        return
    assert chain.order() == len(closure)
    assert all(chain.contains(p) for p in closure)
    rng = random.Random(len(closure))
    for p in (tuple(rng.sample(range(n), n)) for _ in range(20)):
        assert chain.contains(p) == (p in closure)


def test_element_order_examples():
    S3 = symmetric(3)
    assert S3.element_order(S3.identity) == 1
    assert S3.element_order(perm_mul(TAU3, SIGMA3)) == 2
    A4 = alternating(4)
    t = perm_from_cycles([(0, 1), (2, 3)], 4)
    s = perm_from_cycles([(0, 1, 2)], 4)
    prod = perm_mul(t, s)
    assert A4.element_order(prod) == 3
    assert len(cycles_of(prod)) == 1 and len(cycles_of(prod)[0]) == 3


def test_element_order_membership_failure():
    A4 = alternating(4)
    with pytest.raises(GroupError):
        A4.element_order(perm_from_cycles([(0, 1)], 4))


def test_left_cosets_examples():
    S3 = symmetric(3)
    H = S3.subgroup([SIGMA3])
    assert len(left_cosets(S3, H)) == 2
    assert len(left_cosets(S3, S3.subgroup([]))) == 6
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


def _early_exit_groups():
    return [
        *load_default_catalog().groups,
        *(symmetric(n) for n in range(3, 9)),
        *(alternating(n) for n in range(4, 9)),
        *(psl2(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    ]


def test_generation_early_exit_matches_the_full_chain():
    # the test that stops once the basic orbits reach |G| gives the verdict
    # of the chain built to the end, on generating and non-generating sets
    rng = random.Random(17)
    verdicts = set()
    for G in _early_exit_groups():
        index, order = G.element_index(), G.order()
        sets = [list(G.generators), G.generators[:1], [G.identity]]
        sets += [
            [index.element(rng.randrange(order)) for _ in range(rng.randrange(1, 4))]
            for _ in range(6)
        ]
        for gens in sets:
            expected = StabilizerChain(G.degree, gens).order() == order
            assert _generates_order(G.degree, gens, order) == expected
            assert generates(G, gens) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


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


def test_catalog_counts_and_names():
    cat = load_default_catalog()
    assert len(cat.by_order(6)) == 2
    assert len(cat.by_order(12)) == 5
    assert len(cat.by_order(18)) == 5
    assert len(cat.by_order(24)) == 15
    assert len(cat.by_order(30)) == 4
    assert len(cat.by_order(66)) == 4
    assert {"Z6", "S3"} <= {G.name for G in cat.groups}
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


@pytest.mark.parametrize("name", ["S3", "Z3:Z8", "(Z3xZ3):Z2"])
def test_a_name_without_a_catalog_reads_the_bundled_one(name, catalog):
    # a colon name is a catalog name, not a constructor expression
    G = group_from_spec(name)
    assert (G.name, G.generators) == (name, catalog.get(name).generators)


def test_an_unknown_constructor_keeps_its_error_without_a_catalog():
    with pytest.raises(GroupError, match="unknown constructor 'foo'"):
        group_from_spec("foo:3")
    with pytest.raises(GroupError, match="unknown group 'NoSuchGroup'"):
        group_from_spec("NoSuchGroup")
    assert group_from_spec("prod:S3,cyc:2").order() == 12


@pytest.mark.parametrize(
    "spec, loads",
    [("prod:S3,Z6", 1), ("prod:S3,prod:Z6,S3", 1), ("prod:S3,cyc:2", 1), ("prod:cyc:2,sym:3", 0)],
)
def test_a_spec_loads_the_bundled_catalog_at_most_once(monkeypatch, spec, loads):
    load = permgroup.load_default_catalog
    seen = []

    def counted():
        seen.append(1)
        return load()

    monkeypatch.setattr(permgroup, "load_default_catalog", counted)
    group_from_spec(spec)
    assert len(seen) == loads


# -- pair search against the one-chain-per-(a, b) oracle ---------------------


def conjugacy_class(G, p) -> tuple:
    """The conjugacy class of a member p of G, sorted: the closure of {p}
    under conjugation by the generators."""
    cls = {p}
    queue = [p]
    conjugators = [(g, perm_inv(g)) for g in G.generators]
    while queue:
        x = queue.pop()
        for g, ginv in conjugators:
            y = perm_mul(g, perm_mul(x, ginv))
            if y not in cls:
                cls.add(y)
                queue.append(y)
    return tuple(sorted(cls))


def search_pairs_oracle(G, order_a=2, order_b=3, product_order=None, all_first=False):
    """The pair search without the centralizer reduction: class
    representatives from conjugacy_class, and one chain per (a, b).
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
            cls = conjugacy_class(G, p)
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


def scan_of_orders(chain, order_a, order_b):
    """(firsts, bs) from one scan of the whole group, sorted at the end: the
    element scan as it was before it read G in buckets."""
    ident = perm_id(chain.degree)
    if not chain.levels:
        return ([ident] if order_a == 1 else []), ([ident] if order_b == 1 else [])
    heads, tail = _chain_products(chain)
    base = chain.levels[0].point
    divides = [False] + [order_a % n == 0 or order_b % n == 0 for n in range(1, chain.degree + 1)]
    longest = max(n for n in range(1, chain.degree + 1) if divides[n])
    top = max(order_a, order_b)
    firsts, bs = [], []
    for head in heads():
        for t in tail:
            x, length = head[t[base]], 1
            while x != base and length < longest:
                x, length = head[t[x]], length + 1
            if x != base or not divides[length]:
                continue
            p = perm_mul(head, t)
            q, k = p, 1
            while q != ident and k < top:
                q, k = perm_mul(q, p), k + 1
            if q != ident:
                continue
            if k == order_a:
                firsts.append(p)
            if k == order_b:
                bs.append(p)
    firsts.sort()
    bs.sort()
    return firsts, bs


class AdmitAll:
    """A stand-in for _CycleBound that rules out no pair."""

    def admits(self, a, i):
        return True


def scan_first_pair(G, product_order=None):
    """first_pair as it was before it read G in buckets: the whole scan,
    then the partners of the least involution, classes pulled on demand.
    No pair is ruled out by cycle counts, so every chain verdict is taken."""
    order = G.order()
    firsts, bs = scan_of_orders(G.chain(), 2, 3)
    if not firsts:
        return None
    classes = _conjugacy_classes(G, firsts)
    first = firsts[0]
    bound = AdmitAll()
    b = next(_partners(G, order, first, bs, lambda: next(classes)[2](), product_order, bound), None)
    if b is not None:
        return first, b
    for a, _, centralizer in classes:
        if a == first:
            continue
        b = next(_partners(G, order, a, bs, centralizer, product_order, bound), None)
        if b is not None:
            return a, b
    return None


def relabelled(G, x, y):
    """G with the points x and y swapped, generators in the same order."""
    swap = list(range(G.degree))
    swap[x], swap[y] = y, x
    swap = tuple(swap)
    return PermutationGroup(
        G.degree, [perm_mul(swap, perm_mul(g, swap)) for g in G.generators], f"{G.name}'"
    )


def one_bucket_groups():
    """Groups whose first base point is not the least point they move:
    A4 as <(1 2 3), (0 1)(2 3)>, and PSL(2,p) with 0 and infinity swapped,
    so that x -> x+1 fixes 0 but x -> -1/x does not."""
    a4 = PermutationGroup(
        4, [perm_from_cycles([(1, 2, 3)], 4), perm_from_cycles([(0, 1), (2, 3)], 4)], "A4'"
    )
    return [a4, *(relabelled(psl2(p), 0, p) for p in (5, 7, 13))]


def test_one_bucket_groups_move_a_point_below_their_first_base_point():
    for G in one_bucket_groups():
        base = G.chain().levels[0].point
        assert base > 0 and any(g[0] != 0 for g in G.generators), G.name
        assert len(list(_buckets_of_orders(G.chain(), 2, 3))) == 1, G.name


def test_buckets_concatenate_to_the_whole_scan():
    lexicographic = [*differential_groups(), psl2(23)]
    for G in [*lexicographic, *one_bucket_groups(), cyclic(1), symmetric(1)]:
        chain = G.chain()
        for order_a, order_b in SCAN_ORDERS:
            buckets = list(_buckets_of_orders(chain, order_a, order_b))
            firsts = [p for f, _ in buckets for p in f]
            bs = [p for _, b in buckets for p in b]
            assert (firsts, bs) == scan_of_orders(chain, order_a, order_b), G.name
            assert _elements_of_orders(chain, order_a, order_b) == (firsts, bs), G.name
    for G in lexicographic:
        # bucket v holds the p with p(b) = v, b the first base point
        chain = G.chain()
        base, orbit = chain.levels[0].point, sorted(chain.levels[0].transversal)
        buckets = list(_buckets_of_orders(chain, 2, 3))
        assert len(buckets) == len(orbit), G.name
        for v, (firsts, bs) in zip(orbit, buckets):
            assert all(p[base] == v for p in firsts + bs), G.name


@pytest.mark.parametrize("product_order", [None, 3, 4, 5, 7])
def test_first_pair_is_the_full_search_first_pair(product_order):
    groups = [
        *load_default_catalog().groups,
        *(symmetric(n) for n in range(3, 9)),
        *(alternating(n) for n in range(4, 9)),
        *(psl2(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        *one_bucket_groups(),
    ]
    for G in groups:
        pairs = search_23_pairs(G, product_order=product_order).pairs
        want = pairs[0] if pairs else None
        assert first_pair(G, product_order) == want, G.name
        assert scan_first_pair(G, product_order) == want, G.name


def _buckets_read(monkeypatch, G, product_order):
    buckets = permgroup._buckets_of_orders
    read = []

    def counted(*args):
        for bucket in buckets(*args):
            read.append(bucket)
            yield bucket

    monkeypatch.setattr(permgroup, "_buckets_of_orders", counted)
    first_pair(G, product_order)
    return len(read)


@pytest.mark.parametrize("p, read", [(29, 3), (127, 2)])
def test_first_pair_reads_only_the_buckets_it_needs(monkeypatch, p, read):
    G = psl2(p, allow_large=True)
    assert _buckets_read(monkeypatch, G, 7) == read
    assert len(G.chain().levels[0].transversal) == p + 1


def test_first_pair_reads_every_bucket_once_after_a_failed_test(monkeypatch):
    # PSL(2,7)'s first chain test fails (one class is pulled, below): the
    # class path reads the buckets left, none again
    assert _buckets_read(monkeypatch, psl2(7), None) == 8


@pytest.mark.parametrize(
    "spec, product_order, pulled",
    [
        ("psl2:13", 7, 0),
        ("psl2:29", None, 0),
        ("psl2:29", 7, 0),
        ("psl2:7", None, 1),
        ("alt:5", None, 1),
        ("alt:8", None, 2),
        ("sym:7", None, 3),
    ],
)
def test_first_pair_pulls_classes_only_when_needed(monkeypatch, spec, product_order, pulled):
    # a first partner that passes its chain test needs no class at all
    classes = permgroup._conjugacy_classes
    seen = []

    def counted(G, members):
        for c in classes(G, members):
            seen.append(c)
            yield c

    monkeypatch.setattr(permgroup, "_conjugacy_classes", counted)
    first_pair(group_from_spec(spec), product_order)
    assert len(seen) == pulled


# -- the cycle-count bounds ----------------------------------------------------


@lru_cache(maxsize=None)
def bound_groups():
    extra = [symmetric(n) for n in range(3, 8)] + [alternating(n) for n in range(4, 8)]
    return (*load_default_catalog().groups, *extra, psl2(7))


@lru_cache(maxsize=None)
def elements_of_orders(group_index, order_a, order_b):
    return _elements_of_orders(bound_groups()[group_index].chain(), order_a, order_b)


@settings(max_examples=400, deadline=None)
@given(
    group_index=st.integers(0, len(bound_groups()) - 1),
    orders=st.sampled_from([(2, 3), (2, 4), (3, 3)]),
    i=st.integers(0, 10**6),
    j=st.integers(0, 10**6),
)
def test_the_cycle_bound_admits_every_generating_pair(group_index, orders, i, j):
    G = bound_groups()[group_index]
    firsts, bs = elements_of_orders(group_index, *orders)
    if not firsts or not bs:
        return
    a, b = firsts[i % len(firsts)], bs[j % len(bs)]
    if StabilizerChain(G.degree, (a, b)).order() == G.order():
        assert _CycleBound(G, [b]).admits(a, 0), (G.name, a, b)


def test_the_cycle_bound_reads_orbits_and_parity():
    n = 8
    S8, A8 = symmetric(n), alternating(n)
    transposition = perm_from_cycles([(0, 1)], n)
    two_transpositions = perm_from_cycles([(0, 1), (2, 3)], n)
    three_transpositions = perm_from_cycles([(0, 1), (2, 3), (4, 5)], n)
    four_transpositions = perm_from_cycles([(0, 1), (2, 3), (4, 5), (6, 7)], n)
    two_3_cycles = perm_from_cycles([(0, 2, 4), (1, 3, 5)], n)
    assert permgroup.cycle_count(two_3_cycles) == 4
    # orbits: c(a) + c(b) - n must be at most 1
    assert not _CycleBound(S8, [two_3_cycles]).admits(transposition, 0)
    assert _CycleBound(S8, [two_3_cycles]).admits(three_transpositions, 0)
    # parity: S8 has odd generators, A8 none
    assert not _CycleBound(S8, [two_3_cycles]).admits(four_transpositions, 0)
    assert _CycleBound(A8, [two_3_cycles]).admits(four_transpositions, 0)
    assert not _CycleBound(A8, [two_3_cycles]).admits(two_transpositions, 0)
    # an intransitive group has more orbits to spare: A4 x A4 has two
    a, b = perm_from_cycles([(0, 1), (2, 3)], n), perm_from_cycles([(0, 1, 2), (4, 5, 6)], n)
    assert _CycleBound(direct_product(alternating(4), alternating(4)), [b]).admits(a, 0)
    assert not _CycleBound(A8, [b]).admits(a, 0)


def _searched(monkeypatch, search):
    """search() run with _generates_order counted and each class's
    centralizer call noted: (the result, calls, the representatives of the
    classes pulled, those whose centralizer was built)."""
    calls, pulled, built = [0], [], []
    generates, classes = permgroup._generates_order, permgroup._conjugacy_classes

    def counted(*args):
        calls[0] += 1
        return generates(*args)

    def noted(G, members):
        for a, transversal, centralizer in classes(G, members):
            pulled.append(a)
            yield a, transversal, lambda a=a, c=centralizer: built.append(a) or c()

    monkeypatch.setattr(permgroup, "_generates_order", counted)
    monkeypatch.setattr(permgroup, "_conjugacy_classes", noted)
    return search(), calls[0], pulled, built


@pytest.mark.parametrize("n, most", [(8, 24), (7, 8)])
def test_first_pair_of_a_symmetric_group_runs_few_chain_tests(monkeypatch, n, most):
    found, calls, pulled, built = _searched(monkeypatch, lambda: first_pair(symmetric(n)))
    assert (found is None) == (n == 8)
    assert calls <= most  # 70 and 38 chain tests with no cycle bound
    # only the class of three transpositions admits partners: c(a) = n - 3,
    # so a b of order 3 needs at most 4 cycles, and a must be odd
    assert [permgroup.cycle_count(a) for a in built] == [n - 3]
    if n == 8:
        # two transpositions and four: S8's two even involution classes
        even = [a for a in pulled if (n - permgroup.cycle_count(a)) % 2 == 0]
        assert len(pulled) == 4 and len(even) == 2


def test_first_pair_of_alternating_8_runs_few_chain_tests(monkeypatch):
    found, calls, _, built = _searched(monkeypatch, lambda: first_pair(alternating(8)))
    assert found is None
    assert calls <= 14  # 42 with no cycle bound
    assert [permgroup.cycle_count(a) for a in built] == [4]


def test_a_psl2_search_keeps_its_chain_tests(monkeypatch):
    # PSL(2,29) on 30 points has no odd element, and an involution (16
    # cycles) and an element of order 3 (10 cycles) have c(a) + c(b) < 30:
    # the bound admits every b, and the search runs what it ran without it
    res, calls, pulled, built = _searched(monkeypatch, lambda: search_23_pairs(psl2(29)))
    assert (len(res.pairs), res.total, res.classes_searched) == (616, 267960, 1)
    assert calls == 30 and len(pulled) == len(built) == 1


# in (2, 6), (6, 6) and (3, 4) a later base point's cycle can decide
SCAN_ORDERS = (
    (1, 1), (1, 3), (2, 3), (2, 4), (3, 3), (2, 7), (4, 6), (5, 5), (2, 6), (6, 6), (3, 4)
)


def test_element_scan_matches_chain_walk():
    product = direct_product(symmetric(4), psl2(7))
    for G in [*differential_groups(), cyclic(1), symmetric(1), psl2(23), product]:
        by_order = {}
        for p in _chain_elements(G.chain()):
            by_order.setdefault(perm_order(p), []).append(p)
        for order_a, order_b in SCAN_ORDERS:
            want = (sorted(by_order.get(order_a, [])), sorted(by_order.get(order_b, [])))
            assert _elements_of_orders(G.chain(), order_a, order_b) == want, (
                G.name, order_a, order_b)


@pytest.mark.parametrize(
    "make, calls",
    [(lambda: symmetric(8), 2539), (lambda: alternating(8), 2014), (lambda: psl2(29), 2131)],
    ids=["S8", "A8", "psl2_29"],
)
def test_element_scan_builds_few_products(monkeypatch, make, calls):
    # an element is built only once its base points' cycles give it order
    # 2 or 3; before, the (2,3) scan made 45,139, 22,830 and 5,319 products
    chain = make().chain()
    count = [0]

    def counting_mul(p, q):
        count[0] += 1
        return perm_mul(p, q)

    monkeypatch.setattr(permgroup, "perm_mul", counting_mul)
    _elements_of_orders(chain, 2, 3)
    assert count[0] == calls


def _cycle_type_count(n, r, k_step=1):
    """Permutations of n points whose nontrivial cycles are k >= 1 r-cycles,
    k a multiple of k_step."""
    return sum(
        factorial(n) // (factorial(k) * r**k * factorial(n - r * k))
        for k in range(k_step, n // r + 1, k_step)
    )


def _psl2_counts(p):
    """(involutions, elements of order 3) of PSL(2,p), p an odd prime > 3."""
    eps, eps3 = (1 if p % 4 == 1 else -1), (1 if p % 3 == 1 else -1)
    return p * (p + eps) // 2, p * (p + eps3)


def test_element_scan_counts_match_closed_forms():
    cases = [
        (symmetric(n), _cycle_type_count(n, 2), _cycle_type_count(n, 3)) for n in (5, 6, 7, 8)
    ]
    cases += [
        (alternating(n), _cycle_type_count(n, 2, k_step=2), _cycle_type_count(n, 3))
        for n in (5, 6, 7, 8)
    ]
    cases += [(psl2(p), *_psl2_counts(p)) for p in (7, 13, 23, 29)]
    assert (cases[3][1:], cases[-1][1:]) == ((763, 1232), (435, 812))
    for G, involutions, threes in cases:
        firsts, bs = _elements_of_orders(G.chain(), 2, 3)
        assert (len(firsts), len(bs)) == (involutions, threes), G.name


def test_index_words_multiply_out():
    # word(i) lists generator numbers first step first: left-multiplying
    # the identity by each in turn gives element(i)
    for G in [*load_default_catalog().groups, symmetric(6), alternating(7), psl2(13)]:
        index = G.element_index()
        for i in range(len(index)):
            p = G.identity
            for k in index.word(i):
                p = perm_mul(G.generators[k], p)
            assert p == index.element(i), (G.name, i)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_psl2_hurwitz_pairs_follow_macbeath(p):
    # Macbeath (1969), prime part: PSL(2,p) is (2,3,7)-generated iff p = 7
    # or p = +-1 (mod 7)
    assert bool(search_23_pairs(psl2(p), product_order=7)) == (p in (7, 13, 29))


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


def test_cycle_numbering_matches_cycles_of():
    rng = random.Random(4)
    for n in (0, 1, 2, 8, 30):
        for _ in range(20):
            p = list(range(n))
            rng.shuffle(p)
            number, least = permgroup.orbit_numbering(range(n), (p,))
            cycles = sorted({tuple(c) for c in permgroup.cycles_of(p)} | {
                (i,) for i in range(n) if p[i] == i
            })
            assert least == [c[0] for c in cycles]
            assert [number[i] for c in cycles for i in c] == [
                k for k, c in enumerate(cycles) for _ in c
            ]
            assert permgroup.cycle_count(p) == len(cycles)


def _closure_orbits(points, maps) -> list[set]:
    """The orbits of the points under the maps, each closed point by point
    from its least point, in the order of their least points."""
    orbits, seen = [], set()
    for p in sorted(points):
        if p in seen:
            continue
        orbit, frontier = {p}, [p]
        while frontier:
            x = frontier.pop()
            for m in maps:
                if m[x] not in orbit:
                    orbit.add(m[x])
                    frontier.append(m[x])
        seen |= orbit
        orbits.append(orbit)
    return orbits


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_numbering_matches_the_closure(data):
    # no map, one map (the cycle walk) and 2-3 maps (the stack walk), on
    # 0..n-1 with list maps and on sparse int ids with dict maps
    n = data.draw(st.integers(0, 24))
    perms = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(0, 3)))]
    sparse = data.draw(st.booleans())
    if sparse:
        ids = sorted(data.draw(st.sets(st.integers(-50, 50), min_size=n, max_size=n)))
        points = data.draw(st.permutations(ids))
        maps = [{ids[i]: ids[q[i]] for i in range(n)} for q in perms]
    else:
        points, maps = range(n), perms
    number, least = permgroup.orbit_numbering(points, maps)
    orbits = _closure_orbits(points, maps)
    assert least == [min(orbit) for orbit in orbits]
    assert isinstance(number, dict if sparse else list)
    assert dict(map_items(number)) == {x: c for c, orbit in enumerate(orbits) for x in orbit}


def test_the_caps_refuse_a_group_before_building_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(permgroup, "DEGREE_CAP", 4)
    for ctor in (symmetric, alternating, cyclic, dihedral):
        assert ctor(4).degree == 4
    S2, Z2, Z3 = symmetric(2), cyclic(2), cyclic(3)
    assert direct_product(S2, Z2).degree == 4  # a product at the cap
    monkeypatch.setattr(permgroup, "PermutationGroup", refuse)
    for ctor in (symmetric, alternating, cyclic, dihedral):
        with pytest.raises(GroupError, match=f"{ctor.__name__}\\(5\\): the degree is capped at 4"):
            ctor(5)
    with pytest.raises(GroupError, match="^S2xZ3 has degree 5; the degree is capped at 4$"):
        direct_product(S2, Z3)
    monkeypatch.undo()
    G, H = symmetric(4), symmetric(4)
    monkeypatch.setattr(permgroup, "INDEX_CAP", 24)
    assert len(G.element_index()) == 24
    monkeypatch.setattr(permgroup, "INDEX_CAP", 23)
    monkeypatch.setattr(permgroup, "_digit_table", refuse)
    with pytest.raises(GroupError, match="S4 has 24 elements; its index is capped at 23"):
        H.element_index()


def test_the_caps_admit_psl2_239_and_degree_100():
    assert psl2(239, allow_large=True).order() == 6_825_840 <= permgroup.INDEX_CAP
    for ctor in (symmetric, alternating, cyclic, dihedral):
        assert ctor(100).degree == 100 <= permgroup.DEGREE_CAP
