"""The cover checks that galois computes from what a cover's action
validation stored, against the computations they replaced, kept here as
oracles: the quotient()-based comparison of the cover with its base, the
generation criterion through the membership-checking `generates`, fiber
components merged as Python sets, and R and the Riemann-Hurwitz right side
summed term by term in Fraction.

Both sides are run on criterion 4's random covers, on every bundled cover
spec (also flipped) and on the maximal covers of PSL(2,7) and PSL(2,13),
and on covers corrupted so that each error path of _verify_cover and
_vertex_profiles is taken, where both must raise the same CoverError.

Cover construction answers its group questions on G's element index:
membership (the index finds the tuple), trimming by the inertia group I
(coset 0 of G/I) and generation (one coset). Their stabilizer-chain forms
are kept here too, G.contains, I.contains and generates/_generates_order,
and compared on criterion 4's inputs, on the bundled specs and on random
collapses.
"""

import copy
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import fiber_vertices, generates, load_figure
from hcov import galois, maximal, permgroup
from hcov.errors import CoverError, GroupError
from hcov.galois import (
    RiemannHurwitzReport,
    SymmetricMultiset,
    VertexProfile,
    build_cover,
    collapse,
    cover_from_spec,
    ramification_profile,
    riemann_hurwitz_check,
)
from hcov.harmonic import is_harmonic_action, quotient
from hcov.maximal import build_maximal, classification_table
from hcov.multigraph import Multigraph, map_images, map_items
from hcov.permgroup import (
    Cosets,
    _generates_order,
    first_pair,
    left_cosets,
    perm_from_cycles,
    psl2,
    symmetric,
)
from test_acceptance import random_subgroup, random_symmetric_multiset
from test_galois import FIGURES, criterion_4_covers, criterion_4_inputs

S3 = symmetric(3)
TAU = perm_from_cycles([(0, 1)], 3)
SIGMA = perm_from_cycles([(0, 1, 2)], 3)
SIGMA2 = perm_from_cycles([(0, 2, 1)], 3)


# -- the oracles ------------------------------------------------------------------


def verify_cover_by_quotient(cover):
    """_verify_cover through the quotient by G, built as a validated
    Multigraph and GraphMorphism, and generates, which tests every
    generator for membership again."""
    if not is_harmonic_action(cover.action):
        raise CoverError("constructed cover action is not harmonic")
    order = cover.group.order()
    counts = Counter(map_images(cover.projection.edge_map))
    for b in cover.base.edges:
        if counts[b] != order:
            raise CoverError(f"base edge {b} has {counts[b]} preimages, expected {order}")
    q = quotient(cover.action)
    if len(q.quotient.vertices) != len(cover.base.vertices) or len(
        q.quotient.edges
    ) != len(cover.base.edges):
        raise CoverError("quotient by the full group does not match the base")
    vertices, edges = cover.graph.vertices, cover.graph.edges
    pairs = set(zip(map(q.projection.vertex_map.__getitem__, vertices),
                    map(cover.projection.vertex_map.__getitem__, vertices)))
    orbit_to_base = dict(pairs)
    if len(orbit_to_base) != len(pairs):
        raise CoverError("a vertex orbit projects to two base vertices")
    for oe, be in set(zip(map(q.projection.edge_map.__getitem__, edges),
                          map(cover.projection.edge_map.__getitem__, edges))):
        if (oe is None) != (be is None):
            raise CoverError("vertical edges disagree between quotient and projection")
        if oe is not None:
            u, v = q.quotient.ends(oe)
            if {orbit_to_base[u], orbit_to_base[v]} != set(cover.base.ends(be)):
                raise CoverError("quotient incidence does not match the base")
    gens = [g for H in cover.inertia.values() for g in H.generators]
    for S in cover.multisets.values():
        gens.extend(S.support())
    expected_connected = generates(cover.group, gens) if gens else cover.group.order() == 1
    if cover.is_connected() != expected_connected:
        raise CoverError("connectivity does not match the generation criterion")


def vertex_profiles_by_sets(c) -> dict:
    """_vertex_profiles with the components of the vertical edges, read off
    the projection edge by edge, merged as Python sets, one per vertex."""
    order = c.group.order()
    ends = c.graph.edges
    edges = [w for e, img in map_items(c.projection.edge_map) if img is None for w in ends[e]]
    comp = {y: {y} for y in c.graph.vertices}  # y's component, merged edge by edge
    for u, v in zip(edges[0::2], edges[1::2]):
        cu, cv = comp[u], comp[v]
        if cu is not cv:
            if len(cu) < len(cv):
                cu, cv = cv, cu
            cu |= cv
            comp.update(dict.fromkeys(cv, cu))
    degree = Counter(edges)
    out = {}
    for x in c.base.vertices:
        fiber = fiber_vertices(c, x)
        sizes = {id(comp[y]): len(comp[y]) for y in fiber}  # one entry per component
        n = len(sizes)
        if len(set(sizes.values())) != 1:
            raise CoverError(f"fiber over {x} has components of different sizes")
        f = len(comp[fiber[0]])
        degrees = set(map(degree.__getitem__, fiber))
        if len(degrees) != 1:
            raise CoverError(f"fiber over {x} has vertices of different vertical degree")
        v_count = degrees.pop()
        orbit = c.action.vertex_orbit(fiber[0])
        if set(orbit.phi) != set(fiber):
            raise CoverError(f"vertex orbit over {x} does not equal the fiber")
        m = orbit.stabilizer_order()
        if m * f * n != order:
            raise CoverError(f"identity violated over {x}: m*f*n = {m}*{f}*{n} != {order}")
        if v_count % m != 0:
            raise CoverError(f"vertical multiplicity {v_count} not divisible by m={m}")
        out[x] = VertexProfile(x, m, f, n, v_count, v_count // m)
    return out


def ramification_number_by_terms(per_vertex) -> Fraction:
    """R summed term by term in Fraction."""
    return sum(
        (2 * (1 - Fraction(1, p.m)) + p.w for p in per_vertex.values()), Fraction(0)
    )


def riemann_hurwitz_by_terms(c, strict_sign=False) -> RiemannHurwitzReport:
    """riemann_hurwitz_check with R and the right side in Fraction."""
    R = ramification_number_by_terms(vertex_profiles_by_sets(c))
    lhs = 2 * c.graph.genus() - 2
    sign = -1 if strict_sign else 1
    rhs = c.group.order() * (2 * c.base.genus() - 2 + sign * R)
    return RiemannHurwitzReport(R, lhs, rhs, Fraction(lhs) == rhs, "-R" if strict_sign else "+R")


def collapse_edge_by_edge(cosets, S) -> list:
    """collapse with every edge's ends compared on their own: a loop is
    skipped, and the edge ids kept must be dense, u*|G| + i for the u-th
    unit's edge at element i."""
    index = cosets.index
    n = len(index)
    of = cosets.of
    pairs, invs = S.units()
    edges, ends = [], []
    for u, (rho, j) in enumerate(pairs + invs):
        for i, (a, b) in enumerate(zip(of, map(of.__getitem__, index.right(rho)))):
            if a != b:
                edges.append(u * n + i)
                ends += (a, b)
    assert edges == list(range(len(edges)))
    return ends


def without_by_chain(S, H) -> SymmetricMultiset:
    """SymmetricMultiset.without, each entry sifted through H's own chain."""
    out = SymmetricMultiset.__new__(SymmetricMultiset)
    out.counts = {p: m for p, m in S.counts.items() if not H.contains(p)}
    return out


def generates_by_chain(G, gens) -> bool:
    """The generation criterion through generates, which sifts every
    generator through G's chain, checked against the known-order probe."""
    if not gens:
        return G.order() == 1
    out = generates(G, gens)
    assert out == _generates_order(G.degree, gens, G.order())
    return out


def is_member_on_index(G, p) -> bool:
    """Whether _check_member, the lookup in G's element index, finds p."""
    try:
        galois._check_member(G, p)
    except GroupError:
        return False
    return True


def assert_fiber_agrees_with_the_chains(G, H, S):
    """Membership of S's entries, of H's generators and of some others, and
    S trimmed by H on the cosets of G/H, against the chains' answers."""
    probes = list(S.support()) + list(H.generators)
    probes += [p + (len(p),) for p in probes]  # one more point: never a member
    n = G.degree
    probes += [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]  # may be members
    for p in probes:
        assert is_member_on_index(G, p) == G.contains(p), p
    assert S.without(Cosets(G.element_index(), H.generators)) == without_by_chain(S, H)


def assert_generation_agrees_with_the_chains(cover, multisets):
    """galois._generates against the chain criterion on every inertia
    generator and every entry of the given (untrimmed) multisets."""
    G = cover.group
    gens = [g for H in cover.inertia.values() for g in H.generators]
    gens += [p for S in multisets.values() for p in S.support()]
    assert galois._generates(cover) == generates_by_chain(G, gens) == cover.is_connected()


# -- agreement ----------------------------------------------------------------------


def assert_agrees_with_the_oracles(cover):
    verify_cover_by_quotient(cover)  # build_cover ran _verify_cover on it
    profiles = galois._vertex_profiles(cover)
    assert profiles == vertex_profiles_by_sets(cover)
    R = ramification_profile(cover).R
    assert type(R) is Fraction and R == ramification_number_by_terms(profiles)
    if cover.is_connected():
        for strict in (False, True):
            report = riemann_hurwitz_check(cover, strict_sign=strict)
            assert type(report.rhs) is Fraction
            assert report == riemann_hurwitz_by_terms(cover, strict)


def test_criterion_4_covers_agree_with_the_oracles(catalog):
    covers = list(criterion_4_covers(catalog))
    assert sum(c.is_connected() for c in covers) > 100
    for cover in covers:
        assert_agrees_with_the_oracles(cover)


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("name", FIGURES)
def test_figure_covers_agree_with_the_oracles(name, flipped, catalog):
    assert_agrees_with_the_oracles(
        cover_from_spec(dict(load_figure(name), flipped=flipped), catalog)
    )


@pytest.mark.parametrize("p", [7, 13])
def test_maximal_covers_agree_with_the_oracles(p):
    G = psl2(p)
    assert_agrees_with_the_oracles(build_maximal(G, *first_pair(G)).cover)


def test_catalog_maximal_covers_agree_with_the_oracles(catalog):
    witnesses = [(catalog.get(name), pair) for row in classification_table(2, 6, catalog)
                 for name, pair in row.witnesses.items()]
    assert len(witnesses) > 4
    for G, pair in witnesses:
        assert_agrees_with_the_oracles(build_maximal(G, *pair).cover)


def test_collapse_agrees_with_the_edge_by_edge_oracle(catalog):
    # both sides get S trimmed by I; collapse refuses S as given whenever
    # an entry lies in I, where the oracle would only find loops
    rng = random.Random(20261020)
    refused = 0
    for G in catalog.groups:
        if G.order() > 24:
            continue
        for _ in range(8):
            I, S = random_subgroup(rng, G, proper=False), random_symmetric_multiset(rng, G)
            cosets = left_cosets(G, I)
            trimmed = S.without(cosets)
            assert collapse(cosets, trimmed) == collapse_edge_by_edge(cosets, trimmed)
            if trimmed != S:
                refused += 1
                with pytest.raises(CoverError, match="lies in the inertia group"):
                    collapse(cosets, S)
            assert_fiber_agrees_with_the_chains(G, I, S)
            # over one edge: the fiber over 2 is G itself, so G acts faithfully
            cover = build_cover(G, Multigraph([1, 2], [(0, (1, 2))]), {1: I}, {1: S})
            assert_generation_agrees_with_the_chains(cover, {1: S})
    assert refused > 10


def test_criterion_4_members_and_trims_agree_with_the_chains(catalog):
    for G, tree, inertia, multisets in criterion_4_inputs(catalog):
        for x in tree.vertices:
            assert_fiber_agrees_with_the_chains(G, inertia[x], multisets[x])


def test_generates_agrees_with_the_known_order_test(catalog):
    connected = 0
    for G, tree, inertia, multisets in criterion_4_inputs(catalog):
        cover = build_cover(G, tree, inertia, multisets)
        assert_generation_agrees_with_the_chains(cover, multisets)
        connected += cover.is_connected()
    assert 100 < connected < 200


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("name", FIGURES)
def test_figure_inputs_agree_with_the_chains(name, flipped, catalog):
    spec = dict(load_figure(name), flipped=flipped)
    cover = cover_from_spec(spec, catalog)
    G = cover.group
    multisets = {x: SymmetricMultiset.from_json(spec.get("multisets", {}).get(str(x), []))
                 for x in cover.base.vertices}
    for x, S in multisets.items():
        assert_fiber_agrees_with_the_chains(G, cover.inertia.get(x, G.subgroup([])), S)
    assert_generation_agrees_with_the_chains(cover, multisets)


# -- one generation proof per cover ---------------------------------------------------


def test_generation_is_proved_once_per_cover(catalog, monkeypatch):
    # build_maximal takes the verdict of the chain that admitted the pair;
    # build_cover walks G's index once, in _generates
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or fn(*args))

    pairs = [(G, first_pair(G)) for G in (S3, psl2(7))]  # the search proves generation too
    for module, name in ((galois, "_generates"), (maximal, "_generates_order"),
                         (permgroup, "_generates_order")):
        counted(module, name)
    for G, pair in pairs:
        calls.clear()
        build_maximal(G, *pair)
        assert calls == {"_generates_order": 1}
    for name in FIGURES:
        for flipped in (False, True):
            calls.clear()
            cover_from_spec(dict(load_figure(name), flipped=flipped), catalog)
            assert calls == {"_generates": 1}


def test_maximal_covers_generate_by_the_walk_of_g(catalog):
    # galois._generates, one orbit of the identity over all of G, stays the
    # oracle of the chain's verdict that build_maximal now passes
    pairs = [(G, first_pair(G)) for G in (psl2(7), psl2(13))]
    pairs += [(catalog.get(name), pair) for row in classification_table(2, 6, catalog)
              for name, pair in row.witnesses.items()]
    assert len(pairs) > 6
    for G, pair in pairs:
        cover = build_maximal(G, *pair).cover
        assert galois._generates(cover) and cover.is_connected()


# -- negative controls ---------------------------------------------------------------


def path_cover(multisets):
    """An S3 cover of the path 1 - 2 - 3 (base edges 0 and 1), no inertia."""
    return build_cover(S3, Multigraph([1, 2, 3], [(0, (1, 2)), (1, (2, 3))]), {}, multisets)


def with_projection(cover, vertex_map=None, edge_map=None):
    """A copy of the cover whose projection has the given maps, unvalidated."""
    out = copy.copy(cover)
    out.projection = SimpleNamespace(
        vertex_map=list(vertex_map or cover.projection.vertex_map),
        edge_map=list(edge_map or cover.projection.edge_map),
    )
    return out


def vertex_on_two_bases(cover):
    vm = list(cover.projection.vertex_map)
    vm[vm.index(1)] = 3
    return with_projection(cover, vertex_map=vm)


def edge_missing_a_preimage(cover):
    em = list(cover.projection.edge_map)
    em[em.index(0)] = None
    return with_projection(cover, edge_map=em)


def vertical_edge_projected(cover):
    # one vertical edge now projects to base edge 0, one edge over it is
    # vertical instead: every base edge keeps |G| preimages
    em = list(cover.projection.edge_map)
    vertical, horizontal = em.index(None), em.index(0)
    em[vertical], em[horizontal] = 0, None
    return with_projection(cover, edge_map=em)


def edges_over_swapped_bases(cover):
    em = list(cover.projection.edge_map)
    over_0, over_1 = em.index(0), em.index(1)
    em[over_0], em[over_1] = 1, 0
    return with_projection(cover, edge_map=em)


def base_with_an_extra_vertex(cover):
    out = copy.copy(cover)
    out.base = Multigraph([1, 2, 3, 4], [(0, (1, 2)), (1, (2, 3))])
    return out


def base_without_edge_1(cover):
    # the edges over base edge 1 are now called vertical: two edge orbits
    # join distinct vertex orbits, over a base with one edge
    em = [None if b == 1 else b for b in cover.projection.edge_map]
    out = with_projection(cover, edge_map=em)
    out.base = Multigraph([1, 2, 3], [(0, (1, 2))])
    return out


def multiset_dropped(cover):
    out = copy.copy(cover)
    out.multisets = {**cover.multisets, 1: SymmetricMultiset([])}
    return out


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (vertex_on_two_bases, "a vertex orbit projects to two base vertices"),
        (edge_missing_a_preimage, "base edge 0 has 5 preimages, expected 6"),
        (vertical_edge_projected, "vertical edges disagree between quotient and projection"),
        (edges_over_swapped_bases, "quotient incidence does not match the base"),
        (base_with_an_extra_vertex, "quotient by the full group does not match the base"),
        (base_without_edge_1, "quotient by the full group does not match the base"),
        (multiset_dropped, "connectivity does not match the generation criterion"),
    ],
)
def test_a_corrupted_cover_fails_both_verifications(corrupt, message):
    # {sigma, sigma^-1} at 1 and tau at 3 generate S3: a connected cover
    # with vertical edges over 1 and 3
    cover = path_cover({1: SymmetricMultiset([SIGMA, SIGMA2]), 3: SymmetricMultiset([TAU])})
    assert cover.is_connected()
    bad = corrupt(cover)
    for verify in (lambda c: galois._verify_cover(c, galois._generates(c)),
                   verify_cover_by_quotient):
        with pytest.raises(CoverError) as err:
            verify(bad)
        assert str(err.value) == message


def test_unequal_fiber_components_fail_both_profiles():
    # over 1 the fiber of S3 on {tau} is three parallel pairs, over 2 six
    # lone vertices; one more edge over 1, from a pair to a vertex over 2,
    # is called vertical, leaving components of sizes 3 and 2 over 1
    cover = path_cover({1: SymmetricMultiset([TAU])})
    assert vertex_profiles_by_sets(cover)[1].as_dict() == {"m": 1, "f": 2, "n": 3, "v": 2, "w": 2}
    em = list(cover.projection.edge_map)
    em[em.index(0)] = None
    bad = with_projection(cover, edge_map=em)
    for profiles in (galois._vertex_profiles, vertex_profiles_by_sets):
        with pytest.raises(CoverError) as err:
            profiles(bad)
        assert str(err.value) == "fiber over 1 has components of different sizes"


@pytest.mark.parametrize("name", FIGURES)
def test_flipped_figure_profiles_read_a_dict_edge_map(name, catalog):
    # flip_all keeps sparse edge ids, so the projection's edge map is a dict
    # over them; merging parallel pairs keeps every fiber component
    cover = cover_from_spec(dict(load_figure(name), flipped=True), catalog)
    assert isinstance(cover.projection.edge_map, dict) and cover.graph._erank is not None
    profiles = galois._vertex_profiles(cover)
    assert profiles == vertex_profiles_by_sets(cover)
    unflipped = ramification_profile(cover_from_spec(load_figure(name), catalog)).per_vertex
    assert profiles.keys() == unflipped.keys()
    for x, p in profiles.items():
        assert (p.m, p.f, p.n) == (unflipped[x].m, unflipped[x].f, unflipped[x].n)
