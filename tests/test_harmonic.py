import json
import random
from contextlib import contextmanager
from importlib.resources import files
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UnfaithfulAction,
    all_subgroups,
    as_dict,
    as_dicts,
    cayley_fiber,
    compose,
    fiber_action,
    harmonic_by_subgroup_quotients,
    load_figure,
    morphism_degree,
)
from hcov.errors import ActionError, GroupError, MorphismError
from hcov.galois import SymmetricMultiset, cover_from_spec
from hcov.harmonic import (
    GraphAction,
    flip_all,
    flipped_edges,
    is_harmonic_action,
    quotient,
    unflip,
)
from hcov.kernel import mulclose, perm_inv, perm_mul, perm_order
from hcov.maximal import build_maximal
from hcov.multigraph import GraphMorphism, Multigraph, is_harmonic, same_up_to_edge_ids
from hcov.permgroup import (
    StabilizerChain,
    cyclic,
    dihedral,
    direct_product,
    left_cosets,
    perm_from_cycles,
    psl2,
    schreier_orbit,
    search_23_pairs,
    symmetric,
)


def fig2_action():
    return GraphAction.from_json(load_figure("fig2_action.json"))


def fig3_s3_action(catalog):
    return GraphAction.from_json(load_figure("fig3_s3_action.json"), catalog)


def fig3_z6_action():
    return GraphAction.from_json(load_figure("fig3_z6_action.json"))


def test_action_validation_rejects_nonsense():
    theta = Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])
    Z2 = cyclic(2)
    with pytest.raises(ActionError, match="bijection"):
        GraphAction(Z2, theta, [{1: 1, 2: 1}], [{1: 1, 2: 2, 3: 3}])
    with pytest.raises(ActionError, match="endpoints"):
        # vertex map swaps but edge map pretends to fix a non-parallel edge
        path = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2))])
        GraphAction(Z2, path, [{0: 2, 1: 1, 2: 0}], [{0: 0, 1: 1}])


def test_action_validation_rejects_unfaithful():
    theta = Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])
    Z2 = cyclic(2)
    with pytest.raises(ActionError, match="faithful"):
        GraphAction(Z2, theta, [{1: 1, 2: 2}], [{1: 1, 2: 2, 3: 3}])


def test_componentwise_faithfulness():
    # two disjoint edges, Z2 x Z2 flipping one each: faithful globally but
    # not on either component
    g = Multigraph([0, 1, 2, 3], [(0, (0, 1)), (1, (2, 3))])
    G = direct_product(cyclic(2), cyclic(2))
    with pytest.raises(ActionError, match="component"):
        GraphAction(
            G,
            g,
            [{0: 1, 1: 0, 2: 2, 3: 3}, {0: 0, 1: 1, 2: 3, 3: 2}],
            [{0: 0, 1: 1}, {0: 0, 1: 1}],
        )


def test_element_action_is_homomorphism(catalog):
    a = fig3_s3_action(catalog)
    rng = random.Random(0)
    els = a.group.elements()
    for _ in range(15):
        g, h = rng.choice(els), rng.choice(els)
        vg, eg = a.element_action(g)
        vh, eh = a.element_action(h)
        vgh, egh = a.element_action(perm_mul(g, h))
        assert vgh == {v: vg[vh[v]] for v in vh}
        assert egh == {e: eg[eh[e]] for e in eh}


def test_element_action_of_a_non_member_raises():
    a = fig3_z6_action()
    outside = perm_from_cycles([(0, 2)], a.group.degree)
    with pytest.raises(GroupError, match=r"\(0 2\) is not a member of Z6"):
        a.element_action(outside)


def test_fig2_not_harmonic_with_witness():
    a = fig2_action()
    rep = is_harmonic_action(a)
    assert not rep
    assert rep.witness_dart.edge == 3  # the fixed edge
    vm, em = a.element_action(rep.witness_element)
    assert em[rep.witness_dart.edge] == rep.witness_dart.edge
    assert vm[rep.witness_dart.base] == rep.witness_dart.base


def test_harmonic_examples(catalog):
    assert is_harmonic_action(fig3_z6_action())
    assert is_harmonic_action(fig3_s3_action(catalog))
    theta = Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])
    trivial = GraphAction(cyclic(1), theta, [], [])
    assert is_harmonic_action(trivial)


def test_dart_criterion_matches_subgroup_definition(catalog):
    for action in (fig2_action(), fig3_z6_action(), fig3_s3_action(catalog)):
        verdict, _ = harmonic_by_subgroup_quotients(action)
        assert verdict == bool(is_harmonic_action(action))


def test_quotient_fig2():
    q = quotient(fig2_action())
    assert len(q.quotient.vertices) == 2
    assert len(q.quotient.edges) == 2
    assert not q.removed_loops
    assert not is_harmonic(q.projection)


def test_quotient_by_trivial_subgroup(catalog):
    a = fig3_s3_action(catalog)
    q = quotient(a, a.group.subgroup([]))
    # the projection is a morphism that is onto and one-to-one: an isomorphism
    vm, em = as_dict(q.projection.vertex_map), as_dict(q.projection.edge_map)
    assert sorted(vm.values()) == sorted(q.quotient.vertices) and len(vm) == len(a.graph.vertices)
    assert sorted(em.values()) == sorted(q.quotient.edges) and len(em) == len(a.graph.edges)


def test_quotient_full_s3_on_theta_is_point(catalog):
    a = fig3_s3_action(catalog)
    q = quotient(a)
    assert len(q.quotient.vertices) == 1
    assert len(q.quotient.edges) == 0
    assert len(q.removed_loops) == 1
    assert sorted(q.removed_loops[0]["edges"]) == [1, 2, 3]


def test_flipped_edges_theta_actions(catalog):
    # every edge of a maximal theta action is flipped: each involution fixes
    # one edge while swapping the vertices
    assert flipped_edges(fig3_s3_action(catalog)) == {1, 2, 3}
    assert flipped_edges(fig3_z6_action()) == {1, 2, 3}


def test_flipped_edges_empty_for_free_action():
    # Z3 rotating a triangle acts freely on darts
    tri = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2)), (2, (2, 0))])
    Z3 = cyclic(3)
    a = GraphAction(Z3, tri, [{0: 1, 1: 2, 2: 0}], [{0: 1, 1: 2, 2: 0}])
    assert flipped_edges(a) == set()


def test_unflip_theta(catalog):
    a = fig3_s3_action(catalog)
    out = unflip(a)
    assert len(out.graph.vertices) == 2
    assert len(out.graph.edges) == 6
    assert out.graph.genus() == 5
    assert flipped_edges(out) == set()
    assert is_harmonic_action(out)


def test_unflip_no_flips_is_identity():
    tri = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2)), (2, (2, 0))])
    a = GraphAction(cyclic(3), tri, [{0: 1, 1: 2, 2: 0}], [{0: 1, 1: 2, 2: 0}])
    assert unflip(a) is a


def test_flip_all_collapses_unflipped_maximal_cover(catalog):
    a = fig3_s3_action(catalog)
    unflipped = unflip(a)
    back = flip_all(unflipped)
    assert len(back.graph.edges) == 3
    assert back.graph.genus() == 2
    assert same_up_to_edge_ids(back.graph, a.graph)


def test_flip_all_round_trip(catalog):
    # unflip refreshes the edge ids and keeps the vertex ids
    for a in (fig3_s3_action(catalog), fig3_z6_action()):
        out = flip_all(unflip(a))
        assert same_up_to_edge_ids(out.graph, a.graph)
        assert len(flipped_edges(out)) == len(flipped_edges(a))


def test_flip_all_hexagon_unchanged():
    # Cay(Z6, {g, g^-1}) is a hexagon with no parallel pairs
    hexagon = Multigraph(range(6), [(i, (i, (i + 1) % 6)) for i in range(6)])
    Z6 = cyclic(6)
    a = GraphAction(
        Z6,
        hexagon,
        [{i: (i + 1) % 6 for i in range(6)}],
        [{i: (i + 1) % 6 for i in range(6)}],
    )
    assert flip_all(a) is a


def test_flip_all_requires_unflipped(catalog):
    with pytest.raises(ActionError, match="unflipped"):
        flip_all(fig3_s3_action(catalog))


def test_edge_stabilizers_at_most_two(catalog):
    for a in (fig3_s3_action(catalog), fig3_z6_action()):
        order = a.group.order()
        for orbit in a.edge_orbits():
            assert order % orbit.size == 0
            assert order // orbit.size in (1, 2)


def induced_quotient_morphism(a: GraphAction, H, K) -> GraphMorphism:
    """The morphism H\\Y -> K\\Y induced by H <= K."""
    for h in H.generators:
        if not K.contains(h):
            raise MorphismError("H is not contained in K")
    qH = quotient(a, H)
    qK = quotient(a, K)
    vrep = {}
    for v in a.graph.vertices:
        vrep.setdefault(qH.projection.vertex_map[v], v)
    erep = {}
    for e in a.graph.edges:
        img = qH.projection.edge_map[e]
        if img is not None:
            erep.setdefault(img, e)
    vmap = {hv: qK.projection.vertex_map[vrep[hv]] for hv in qH.quotient.vertices}
    emap = {he: qK.projection.edge_map[erep[he]] for he in qH.quotient.edges}
    return GraphMorphism(qH.quotient, qK.quotient, vmap, emap)


def test_quotient_tower_degrees_multiply(catalog):
    # random small towers H <= K inside harmonic actions: the degree of the
    # composite quotient morphism is the product of the two degrees
    from hcov.galois import SymmetricMultiset, build_cover
    from hcov.permgroup import alternating

    S3 = fig3_s3_action(catalog).group
    sigma = perm_from_cycles([(0, 1, 2)], 3)
    sigma2 = perm_from_cycles([(0, 2, 1)], 3)
    tau = perm_from_cycles([(0, 1)], 3)
    base = Multigraph([1, 2], [(0, (1, 2))])
    fig4 = build_cover(
        S3, base, {},
        {1: SymmetricMultiset([sigma, sigma2]), 2: SymmetricMultiset([tau])},
    ).action
    A4 = alternating(4)
    a4_cover = build_cover(
        A4,
        base,
        {},
        {
            1: SymmetricMultiset([perm_from_cycles([(0, 1, 2)], 4),
                                  perm_from_cycles([(0, 2, 1)], 4)]),
            2: SymmetricMultiset([perm_from_cycles([(0, 1), (2, 3)], 4)]),
        },
    ).action
    rng = random.Random(6)
    checked = 0
    for a in (unflip(fig3_s3_action(catalog)), fig4, a4_cover):
        subs = all_subgroups(a.group)
        for _ in range(12):
            H = rng.choice(subs)
            K = rng.choice(subs)
            if not all(K.contains(h) for h in H.generators):
                continue
            m1 = quotient(a, H).projection
            m2 = induced_quotient_morphism(a, H, K)
            if len(m2.target.vertices) <= 1 or not m2.target.is_connected():
                continue
            if not (is_harmonic(m1) and is_harmonic(m2)):
                continue
            comp = compose(m2, m1)
            assert morphism_degree(comp) == morphism_degree(m1) * morphism_degree(m2)
            checked += 1
    assert checked >= 5


def test_action_json_resolves_a_name_without_a_catalog(catalog):
    a = GraphAction.from_json(load_figure("fig3_s3_action.json"))
    assert a.group.name == "S3" and a.to_json() == fig3_s3_action(catalog).to_json()


def test_action_json_round_trip(catalog):
    a = fig3_s3_action(catalog)
    data = json.loads(json.dumps(a.to_json()))
    again = GraphAction.from_json(data, catalog)
    assert again.graph == a.graph
    assert again.vertex_images == a.vertex_images
    assert again.edge_images == a.edge_images


# -- differential oracle: validation on one action-block chain -----------------


def _oracle_kind(group, graph, vertex_images, edge_images, faithful=True):
    """Verdict of validating on the whole extended group, computed apart from
    GraphAction: None (valid), "action", "faithful" or "component".

    Well-definedness holds iff the extended group E has order |G|; then E
    is isomorphic to G, and the action is faithful iff E's image on the
    action block, a chain of its own, has order |G| too. Faithfulness on
    components comes from a search over every element of E.
    """
    n = group.degree
    vs, es = sorted(graph.vertices), sorted(graph.edges)
    pos = {("v", v): n + i for i, v in enumerate(vs)}
    pos.update({("e", e): n + len(vs) + i for i, e in enumerate(es)})
    ext_gens = [
        g
        + tuple(pos["v", vm[v]] for v in vs)
        + tuple(pos["e", em[e]] for e in es)
        for g, vm, em in zip(group.generators, vertex_images, edge_images)
    ]
    degree = n + len(vs) + len(es)
    if StabilizerChain(degree, ext_gens).order() != group.order():
        return "action"
    if not faithful:
        return None
    block = [tuple(x - n for x in g[n:]) for g in ext_gens]
    if StabilizerChain(degree - n, block).order() != group.order():
        return "faithful"
    comps = graph.connected_components()
    if len(comps) > 1:
        blocks = [
            [pos["v", v] for v in comp]
            + [pos["e", e] for e in es if graph.ends(e)[0] in comp]
            for comp in comps
        ]
        ident = tuple(range(degree))
        for x in mulclose(ext_gens):
            if x != ident and any(all(x[c] == c for c in b) for b in blocks):
                return "component"
    return None


def _error_kind(err):
    msg = str(err)
    for key, kind in (
        ("not faithful on the component", "component"),
        ("not faithful", "faithful"),
        ("do not define an action", "action"),
    ):
        if key in msg:
            return kind
    raise AssertionError(f"unexpected validation error: {msg}")


@contextmanager
def _differential():
    """Check every GraphAction validated inside the block against the oracle,
    and each valid one against the harmonic oracle; yields the list of
    verdicts seen."""
    verdicts = []
    validate = GraphAction._validate_action

    def checked(self):
        expected = _oracle_kind(
            self.group, self.graph, self.vertex_images, self.edge_images,
            not isinstance(self, UnfaithfulAction),
        )
        try:
            validate(self)
        except ActionError as err:
            verdicts.append(_error_kind(err))
            assert verdicts[-1] == expected
            raise
        verdicts.append(None)
        assert expected is None
        _check_harmonicity(self)

    with mock.patch.object(GraphAction, "_validate_action", checked):
        yield verdicts


def _harmonic_oracle(a):
    """(dart-freeness verdict, flipped edges), computed apart from the
    stored orbits: a breadth-first walk of each edge orbit carries a
    generator word per edge, and every Schreier generator of the least edge's
    stabilizer is applied, as a word, to that edge's first end."""
    gens, ident = a.group.generators, a.group.identity
    inverse_vertex_images = [{b: x for x, b in m.items()} for m in as_dicts(a.vertex_images)]

    def apply_word(word, x):
        for i, inv in reversed(word):
            x = inverse_vertex_images[i][x] if inv else a.vertex_images[i][x]
        return x

    harmonic, flipped = True, set()
    remaining = set(a.graph.edges)
    while remaining:
        rep = min(remaining)
        transversal = {rep: (ident, ())}
        schreier = []
        frontier = [rep]
        while frontier:
            e = frontier.pop(0)
            u_perm, u_word = transversal[e]
            for i, g in enumerate(gens):
                img = a.edge_images[i][e]
                w_perm, w_word = perm_mul(g, u_perm), ((i, False),) + u_word
                if img not in transversal:
                    transversal[img] = (w_perm, w_word)
                    frontier.append(img)
                else:
                    t_perm, t_word = transversal[img]
                    s_perm = perm_mul(perm_inv(t_perm), w_perm)
                    if s_perm != ident:
                        t_inv = tuple((j, not inv) for j, inv in reversed(t_word))
                        schreier.append((s_perm, t_inv + w_word))
        remaining -= set(transversal)
        stab_order = a.group.order() // len(transversal)
        u0 = a.graph.ends(rep)[0]
        if stab_order > 2 or any(
            apply_word(s_word, u0) == u0 or perm_order(s_perm) != 2
            for s_perm, s_word in schreier
        ):
            harmonic = False
        if stab_order == 2:
            flipped.update(transversal)
    return harmonic, flipped


def _check_harmonicity(a):
    """is_harmonic_action and flipped_edges agree with the oracle, and a
    witness element fixes its witness dart."""
    verdict, flipped = _harmonic_oracle(a)
    report = is_harmonic_action(a)
    assert report.harmonic == verdict
    if verdict:
        assert flipped_edges(a) == flipped
    else:
        assert report.witness_element != a.group.identity
        vm, em = a.element_action(report.witness_element)
        dart = report.witness_dart
        assert em[dart.edge] == dart.edge and vm[dart.base] == dart.base


FIGURE_NAMES = sorted(
    p.name for p in files("hcov").joinpath("data/figures").iterdir() if p.name.endswith(".json")
)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_validation_matches_oracle_on_figures(name, catalog):
    data = load_figure(name)
    with _differential() as verdicts:
        if "vertex_images" in data:
            a = GraphAction.from_json(data, catalog)
            if is_harmonic_action(a):
                flip_all(unflip(a))
        elif "multisets" in data:
            cover_from_spec(data, catalog)
    if "source" in data:
        assert not verdicts  # a graph morphism: no action to validate
    else:
        assert verdicts and None in verdicts


def test_validation_matches_oracle_on_maximal_covers(catalog):
    with _differential() as verdicts:
        for G in catalog.groups:
            if G.order() > 60:
                continue
            for tau, sigma in search_23_pairs(G).pairs:
                unflip(build_maximal(G, tau, sigma).action)
    assert len(verdicts) > 40 and set(verdicts) == {None}


THETA = Multigraph([1, 2], [(1, (1, 2)), (2, (1, 2)), (3, (1, 2))])
TWO_THETAS = Multigraph(
    [1, 2, 3, 4],
    [(1, (1, 2)), (2, (1, 2)), (3, (1, 2)), (4, (3, 4)), (5, (3, 4)), (6, (3, 4))],
)
V4 = direct_product(cyclic(2), cyclic(2))
FIVE_PARALLEL = Multigraph([1, 2], [(e, (1, 2)) for e in range(1, 6)])
FOUR_PARALLEL = Multigraph([1, 2], [(e, (1, 2)) for e in range(1, 5)])
DIGON = Multigraph([0, 1], [(0, (0, 1)), (1, (0, 1))])
Z2_CUBED = direct_product(V4, cyclic(2))


@pytest.mark.parametrize(
    "group, graph, vmaps, emaps, kind",
    [
        (cyclic(2), THETA, [{1: 2, 2: 1}], [{1: 1, 2: 2, 3: 3}], None),
        (cyclic(2), THETA, [{1: 1, 2: 2}], [{1: 2, 2: 3, 3: 1}], "action"),
        (cyclic(2), THETA, [{1: 1, 2: 2}], [{1: 1, 2: 2, 3: 3}], "faithful"),
        (
            V4, TWO_THETAS,
            [{1: 2, 2: 1, 3: 3, 4: 4}, {1: 1, 2: 2, 3: 4, 4: 3}],
            [{e: e for e in range(1, 7)}] * 2,
            "component",
        ),
        (cyclic(1), Multigraph([], []), [], [], None),
        (cyclic(2), Multigraph([], []), [{}], [{}], "faithful"),
        (cyclic(2), Multigraph([0, 1], []), [{0: 1, 1: 0}], [{}], None),
        # an action on the vertices and on the edge orbit {1, 2}, but an
        # order-2 generator cycles the edge orbit {3, 4, 5}
        (
            cyclic(2), FIVE_PARALLEL, [{1: 2, 2: 1}],
            [{1: 2, 2: 1, 3: 4, 4: 5, 5: 3}], "action",
        ),
        # the second generator fixes every vertex but swaps edges 3 and 4
        (
            V4, FOUR_PARALLEL, [{1: 2, 2: 1}, {1: 1, 2: 2}],
            [{1: 2, 2: 1, 3: 4, 4: 3}, {1: 1, 2: 2, 3: 4, 4: 3}], None,
        ),
        # each generator fixes every vertex and the other theta pointwise;
        # on a theta the edge stabilizers are the smallest
        (
            V4, TWO_THETAS, [{v: v for v in range(1, 5)}] * 2,
            [{1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}, {1: 1, 2: 2, 3: 3, 4: 5, 5: 4, 6: 6}],
            "component",
        ),
        # the first two generators act alike, so their product is the
        # kernel; it is not among the vertex stabilizer's generators
        (
            Z2_CUBED, DIGON, [{0: 0, 1: 1}, {0: 0, 1: 1}, {0: 1, 1: 0}],
            [{0: 1, 1: 0}, {0: 1, 1: 0}, {0: 0, 1: 1}], "faithful",
        ),
    ],
)
def test_validation_verdict_kinds(group, graph, vmaps, emaps, kind):
    with _differential() as verdicts:
        try:
            GraphAction(group, graph, vmaps, emaps)
        except ActionError:
            pass
    assert verdicts == [kind]


PARALLEL_0_TO_4 = Multigraph([1, 2], [(e, (1, 2)) for e in range(5)])


@pytest.mark.parametrize(
    "group, vmaps, emaps, factors",
    [
        # edge 0's stabilizer is Z4: the generator swaps its ends, its square
        # fixes both
        (cyclic(4), [{1: 2, 2: 1}], [{0: 0, 1: 2, 2: 3, 3: 4, 4: 1}], [0, 0]),
        # edge 0's stabilizer is V4, both generators swap its ends: their
        # product fixes both
        (
            V4, [{1: 2, 2: 1}] * 2,
            [{0: 0, 1: 2, 2: 1, 3: 4, 4: 3}, {0: 0, 1: 3, 2: 4, 3: 1, 4: 2}],
            [0, 1],
        ),
        # edge 0's stabilizer is V4; the first generator swaps its ends, the
        # second fixes them and is the witness
        (
            V4, [{1: 2, 2: 1}, {1: 1, 2: 2}],
            [{0: 0, 1: 2, 2: 1, 3: 4, 4: 3}, {0: 0, 1: 3, 2: 4, 3: 1, 4: 2}],
            [1],
        ),
    ],
)
def test_harmonicity_witness_paths(group, vmaps, emaps, factors):
    a = GraphAction(group, PARALLEL_0_TO_4, vmaps, emaps)
    report = is_harmonic_action(a)
    assert not report and report.witness_dart.edge == 0
    expected = group.identity
    for i in factors:
        expected = perm_mul(expected, group.generators[i])
    assert report.witness_element == expected
    _check_harmonicity(a)


@pytest.fixture(scope="module")
def perturbation_bases(catalog):
    """Small actions with parallel edges, connected and not."""
    tau = perm_from_cycles([(0, 1)], 3)
    sigma = perm_from_cycles([(0, 1, 2)], 3)
    actions = [
        fig2_action(),
        fig3_z6_action(),
        fig3_s3_action(catalog),
        unflip(build_maximal(symmetric(3), tau, sigma).action),
        fiber_action(*cayley_fiber(symmetric(3), SymmetricMultiset([(tau, 2)])), faithful=True),
        fiber_action(*cayley_fiber(cyclic(4), SymmetricMultiset([((2, 3, 0, 1), 2)])),
                     faithful=True),
    ]
    return [(a.group, a.graph, a.vertex_images, a.edge_images) for a in actions] + [
        (cyclic(2), THETA, [{1: 2, 2: 1}], [{1: 1, 2: 2, 3: 3}]),
        (
            V4, TWO_THETAS,
            [{1: 2, 2: 1, 3: 3, 4: 4}, {1: 1, 2: 2, 3: 4, 4: 3}],
            [{e: e for e in range(1, 7)}] * 2,
        ),
        (
            cyclic(2), TWO_THETAS,
            [{1: 3, 2: 4, 3: 1, 4: 2}],
            [{1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}],
        ),
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validation_matches_oracle_on_perturbed_edge_images(data, perturbation_bases):
    # permuting each generator's edge images within classes of parallel edges
    # keeps every endpoint valid but may break the homomorphism or faithfulness
    bases = perturbation_bases
    group, graph, vmaps, emaps = bases[data.draw(st.integers(0, len(bases) - 1))]
    classes = {}
    for e in sorted(graph.edges):
        classes.setdefault(tuple(sorted(graph.ends(e))), []).append(e)
    new_emaps = []
    for em in emaps:
        shuffle = {}
        for cls in classes.values():
            shuffle.update(zip(cls, data.draw(st.permutations(cls))))
        new_emaps.append({e: shuffle[f] for e, f in em.items()})
    with _differential() as verdicts:
        try:
            GraphAction(group, graph, vmaps, new_emaps)
        except ActionError:
            pass
    assert len(verdicts) == 1


# -- oracle: the tuple-transversal validation -----------------------------------


def _maps(orbit, g, x, y) -> bool:
    """True iff g maps x to y, orbit being the (chain of Stab_G(p),
    transversal) pair of x's orbit: with x = u_x p and y = u_y p, iff y lies
    in the orbit and u_y^-1 g u_x lies in Stab_G(p)."""
    stab, transversal = orbit
    u_y = transversal.get(y)
    return u_y is not None and stab.contains(
        perm_mul(perm_inv(u_y), perm_mul(g, transversal[x]))
    )


def _tuple_kernel_element(a, points):
    """A non-identity member fixing every (orbit, x) of points, or None: the
    members of the stabilizer u H u^-1 of the point x with the largest
    orbit, u its transversal permutation, each tested with _maps."""
    gens = a.group.generators  # no points: every member fixes them
    if points:
        (stab, transversal), x = max(points, key=lambda pt: len(pt[0][1]))
        u, u_inv = transversal[x], perm_inv(transversal[x])
        gens = [perm_mul(u, perm_mul(g, u_inv)) for lv in stab.levels[:1] for g in lv.gens]
    for h in mulclose(gens):
        if h != a.group.identity and all(_maps(orbit, h, y, y) for orbit, y in points):
            return h
    return None


def _tuple_validation(a):
    """The action's validation on tuple transversals, apart from its element
    index: per orbit, schreier_orbit from the least point p gives one
    transversal permutation per point and the Schreier generators of a
    StabilizerChain H, and the orbit-stabilizer test is |H| * |O| = |G|.
    Faithfulness (global, then per component orbit) enumerates the smallest
    stabilizer. Returns the per-kind point -> (chain, transversal) maps, or
    raises ActionError with the validation's wording."""
    G = a.group
    where = []
    for kind, maps, points in (
        ("vertex", a.vertex_images, a.graph.vertices),
        ("edge", a.edge_images, a.graph.edges),
    ):
        found = {}
        for p in sorted(points):
            if p in found:
                continue
            transversal, schreier = schreier_orbit(p, maps, G.generators, G.identity)
            stab = StabilizerChain(G.degree, schreier)
            if stab.order() * len(transversal) != G.order():
                raise ActionError(f"generator images do not define an action: {kind} {p}")
            found.update(dict.fromkeys(transversal, (stab, transversal)))
        where.append(found)
    vertex_orbit_of, edge_orbit_of = where
    if isinstance(a, UnfaithfulAction):
        return where
    points = [(orbit, x) for found in where for x, orbit in found.items()]
    if _tuple_kernel_element(a, points) is not None:
        raise ActionError("action is not faithful")
    comps = a.graph.connected_components()
    cidx = {v: ci for ci, comp in enumerate(comps) for v in comp}
    done = set()
    for ci, comp in enumerate(comps if len(comps) > 1 else []):
        if ci in done:
            continue
        done.update(cidx[v] for v in vertex_orbit_of[comp[0]][1])
        points = [(vertex_orbit_of[v], v) for v in comp]
        points += [(edge_orbit_of[e], e) for e in a.graph.edges if cidx[a.graph.ends(e)[0]] == ci]
        if _tuple_kernel_element(a, points) is not None:
            raise ActionError("action is not faithful on the component")
    return where


def _assert_same_orbits(a, where):
    """Every point's Orbit is that of its least point, with the oracle's
    points, and least[x] is the first index that phi maps to x; the
    stabilizer has the oracle's order, and every member of it lies in the
    oracle's chain."""
    index = a.group.element_index()
    for orbit_of, oracle in zip((a.vertex_orbit, a.edge_orbit), where):
        for x in oracle:
            orbit = orbit_of(x)
            assert orbit.least[x] == orbit.phi.index(x) and orbit_of(orbit.point) is orbit
            if x != orbit.point:
                continue
            stab, transversal = oracle[x]
            assert orbit.points() == sorted(transversal) and orbit.size == len(transversal)
            assert orbit.point == min(transversal)
            members = orbit.stabilizer()
            assert len(members) == orbit.stabilizer_order() == stab.order()
            assert all(stab.contains(index.element(i)) for i in members)


@contextmanager
def _tuple_differential():
    """Check every GraphAction validated inside the block against the
    tuple-transversal validation: the same verdict kind and, when valid,
    the same orbits and stabilizers; yields the list of verdicts seen."""
    verdicts = []
    validate = GraphAction._validate_action

    def checked(self):
        try:
            where = _tuple_validation(self)
        except ActionError as err:
            expected = _error_kind(err)
        else:
            expected = None
        try:
            validate(self)
        except ActionError as err:
            verdicts.append(_error_kind(err))
            assert verdicts[-1] == expected
            raise
        verdicts.append(None)
        assert expected is None
        _assert_same_orbits(self, where)

    with mock.patch.object(GraphAction, "_validate_action", checked):
        yield verdicts


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_orbits_match_tuple_oracle_on_figures(name, catalog):
    data = load_figure(name)
    with _tuple_differential() as verdicts:
        if "vertex_images" in data:
            a = GraphAction.from_json(data, catalog)
            if is_harmonic_action(a):
                flip_all(unflip(a))
        elif "multisets" in data:
            for flipped in (False, True):
                cover_from_spec(dict(data, flipped=flipped), catalog)
    if "source" in data:
        assert not verdicts  # a graph morphism: no action to validate
    else:
        assert verdicts and set(verdicts) == {None}


def test_orbits_match_tuple_oracle_on_criterion_4_covers(catalog):
    from test_galois import criterion_4_covers

    with _tuple_differential() as verdicts:
        for _ in zip(range(100), criterion_4_covers(catalog)):
            pass
    assert len(verdicts) == 100 and set(verdicts) == {None}


@pytest.mark.parametrize("p", [7, 13])
def test_orbits_match_tuple_oracle_on_psl2_maximal_covers(p):
    G = psl2(p)
    with _tuple_differential() as verdicts:
        for tau, sigma in search_23_pairs(G).pairs:
            build_maximal(G, tau, sigma)
    assert len(verdicts) == len(search_23_pairs(G).pairs) and set(verdicts) == {None}


# -- negative controls: bijections that respect endpoints but no action ----------

TRIANGLE = Multigraph([0, 1, 2], [(0, (0, 1)), (1, (1, 2)), (2, (2, 0))])


@pytest.mark.parametrize(
    "group, graph, vmaps, emaps, orbit",
    [
        # the generator of Z2 rotates the triangle: its cube, not its square,
        # is the identity on the vertex orbit {0, 1, 2}
        (cyclic(2), TRIANGLE, [{0: 1, 1: 2, 2: 0}], [{0: 1, 1: 2, 2: 0}], "vertex 0"),
        # both generators of V4 act as involutions on the vertices, but the
        # second cycles the four parallel edges: b^2 = 1 fails on edge 1's orbit
        (
            V4, FOUR_PARALLEL, [{1: 2, 2: 1}, {1: 1, 2: 2}],
            [{1: 2, 2: 1, 3: 4, 4: 3}, {1: 3, 3: 2, 2: 4, 4: 1}], "edge 1",
        ),
    ],
)
def test_relation_breaking_maps_are_rejected(group, graph, vmaps, emaps, orbit):
    for context in (_differential, _tuple_differential):
        with context() as verdicts:
            with pytest.raises(ActionError, match=f"do not define an action.*{orbit}\\b"):
                GraphAction(group, graph, vmaps, emaps)
        assert verdicts == ["action"]


def _induced_digons(G, H, K, shift):
    """G acting on one digon per left coset of H: an element of H swaps its
    coset's two parallel edges iff it is not in K. The edge ids of coset c
    are those of coset c + shift, so the least edge lies outside the
    component of vertex 0 (coset H) when shift > 0."""
    index = G.element_index()
    cosets = left_cosets(G, H)
    n = len(cosets)
    reps = [index.element(r) for r in cosets.reps]

    def edge(c, j):
        return 2 * ((c + shift) % n) + j

    vmaps, emaps = [], []
    for g in G.generators:
        vm, em = {}, {}
        for c, r in enumerate(reps):
            gr = perm_mul(g, r)
            d = cosets.of[index.index_of(gr)]
            swap = not K.contains(perm_mul(perm_inv(reps[d]), gr))
            vm.update({2 * c: 2 * d, 2 * c + 1: 2 * d + 1})
            em.update({edge(c, j): edge(d, j ^ swap) for j in (0, 1)})
        vmaps.append(vm)
        emaps.append(em)
    edges = [(edge(c, j), (2 * c, 2 * c + 1)) for c in range(n) for j in (0, 1)]
    graph = Multigraph(range(2 * n), edges)
    return graph, vmaps, emaps


@pytest.mark.parametrize("shift", [0, 1])
def test_component_kernel_from_the_right_stabilizer(shift):
    # D4 = <r, s> on the digons of its two cosets of H = {1, r^2, s, r^2 s}:
    # K = <s> fixes the digon of H pointwise but is not normal, so the kernel
    # on that component lies in the stabilizer of its own edges, not in that
    # of the edge orbit's least edge once it sits on the other digon
    G = dihedral(4)
    r, s = G.generators
    r2 = perm_mul(r, r)
    H, K = G.subgroup([r2, s]), G.subgroup([s])
    assert not all(K.contains(perm_mul(g, perm_mul(s, perm_inv(g)))) for g in G.generators)
    graph, vmaps, emaps = _induced_digons(G, H, K, shift)
    for context in (_differential, _tuple_differential):
        with context() as verdicts:
            with pytest.raises(ActionError, match="not faithful on the component of vertex 0"):
                GraphAction(G, graph, vmaps, emaps)
        assert verdicts == ["component"]
