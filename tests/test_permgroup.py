import json
import random
from collections import Counter
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_subgroups
from hcov import permgroup
from hcov.errors import CatalogError, GroupError
from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul, perm_order, perm_pow
from hcov.permgroup import (
    PermutationGroup,
    StabilizerChain,
    _buckets_of_orders,
    _chain_products,
    _conjugacy_classes,
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
    generates,
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


def test_chain_order_matches_closure_for_catalog():
    # elements() and order_spectrum read the chain's products; the closure
    # is the independent count. Z1 has no generators, so its closure is empty.
    Z1 = cyclic(1)
    assert not mulclose(Z1.generators) and Z1.elements() == (Z1.identity,)
    groups = [
        *load_default_catalog().groups,
        *(make(n) for make in (symmetric, alternating) for n in range(1, 9)),
        *(psl2(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        direct_product(symmetric(4), psl2(7)),
        Z1,
    ]
    for G in groups:
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
def test_chain_inverts_each_transversal_element_once_per_level_closure(monkeypatch, make):
    # the closure's Schreier generators and lv.inverse share one inversion
    G = make()
    G = permgroup.PermutationGroup(G.degree, G.generators, G.name)  # no cached chain
    calls, cells = [0], [0]

    def counting_inv(p):
        calls[0] += 1
        return perm_inv(p)

    close = permgroup.StabilizerChain._close_level

    def counting_close(chain, level):
        try:
            close(chain, level)
        finally:
            cells[0] += len(chain.levels[level].transversal)

    monkeypatch.setattr(permgroup, "perm_inv", counting_inv)
    monkeypatch.setattr(permgroup.StabilizerChain, "_close_level", counting_close)
    G.chain()
    assert 0 < calls[0] <= cells[0], G.name


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


def scan_first_pair(G, product_order=None):
    """first_pair as it was before it read G in buckets: the whole scan,
    then the partners of the least involution, classes pulled on demand."""
    order = G.order()
    firsts, bs = scan_of_orders(G.chain(), 2, 3)
    if not firsts:
        return None
    classes = _conjugacy_classes(G, firsts)
    first = firsts[0]
    b = next(_partners(G, order, first, bs, lambda: next(classes)[2], product_order), None)
    if b is not None:
        return first, b
    for a, _, centralizer in classes:
        if a == first:
            continue
        b = next(_partners(G, order, a, bs, lambda c=centralizer: c, product_order), None)
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


SCAN_ORDERS = ((1, 1), (1, 3), (2, 3), (2, 4), (3, 3), (2, 7), (4, 6), (5, 5))


def test_element_scan_matches_chain_walk():
    for G in [*differential_groups(), cyclic(1), symmetric(1), psl2(23)]:
        by_order = {}
        for p in _chain_elements(G.chain()):
            by_order.setdefault(perm_order(p), []).append(p)
        for order_a, order_b in SCAN_ORDERS:
            want = (sorted(by_order.get(order_a, [])), sorted(by_order.get(order_b, [])))
            assert _elements_of_orders(G.chain(), order_a, order_b) == want, (
                G.name, order_a, order_b)


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
