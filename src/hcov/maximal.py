"""Maximal covers from (2,3)-generating pairs, genus classification against
the small-group catalog, and the alternating/symmetric spot checks.

The canonical maximal cover of a pair (tau, sigma) lives over the point
graph: vertices are the left cosets of <sigma>, edges the left cosets of
<tau>, and the edge g<tau> joins g<sigma> to g*tau<sigma>. Every edge is
flipped and |G| = 6(genus - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq

from hcov.errors import CatalogError, CoverError, GroupError
from hcov.galois import (
    HarmonicCover,
    InertiaStructure,
    SymmetricMultiset,
    _verify_cover,
    build_cover,
)
from hcov.harmonic import GraphAction, is_harmonic_action
from hcov.kernel import perm_inv, perm_mul
from hcov.multigraph import GraphMorphism, Multigraph
from hcov.permgroup import (
    Catalog,
    Cosets,
    PermutationGroup,
    alternating,
    first_pair,
    generates,
    left_cosets,
    search_23_pairs,
    symmetric,
)

class MaximalCover:
    """Coset-labeled maximal cover of the point graph for a (2,3)-pair.

    Its darts are the elements of G (the dart-regular map): the dart of the
    element g is the end at vertex g<sigma> of edge g<tau>, so the edge e
    has the darts of its least member r and of r*tau. vertex_rep and
    edge_rep are the cosets of <sigma> and <tau> (vertex or edge id -> least
    member, as a tuple); their rights[0] are right multiplication by sigma
    and by tau on element indices.
    """

    def __init__(self, group: PermutationGroup, tau, sigma, cover: HarmonicCover,
                 vertex_rep: Cosets, edge_rep: Cosets):
        self.group = group
        self.tau = tau
        self.sigma = sigma
        self.cover = cover
        self.vertex_rep = vertex_rep
        self.edge_rep = edge_rep

    def dart_ids(self) -> list[int]:
        """dart_ids()[i] is the dart id of element i. Edge c has rank c and
        ends (r<sigma>, r*tau<sigma>) for its least member r, so element i
        of edge c is dart 2c at r<sigma> and dart 2c + 1 otherwise."""
        vof, reps = self.vertex_rep.of, self.edge_rep.reps
        first = [vof[r] for r in reps]
        return [2 * c + (v != first[c]) for c, v in zip(self.edge_rep.of, vof)]

    @property
    def graph(self) -> Multigraph:
        return self.cover.graph

    @property
    def action(self) -> GraphAction:
        return self.cover.action

    def genus(self) -> int:
        return self.graph.genus()

    def __repr__(self):
        return (
            f"MaximalCover({self.group.name}, {len(self.graph.vertices)} vertices,"
            f" genus {self.genus()})"
        )


def build_maximal(G: PermutationGroup, tau, sigma) -> MaximalCover:
    """Canonical maximal cover for a generating pair of orders 2 and 3."""
    tau, sigma = tuple(tau), tuple(sigma)
    if G.element_order(tau) != 2:
        raise GroupError("tau must have order 2")
    if G.element_order(sigma) != 3:
        raise GroupError("sigma must have order 3")
    if not generates(G, [tau, sigma]):
        raise GroupError("tau and sigma do not generate the group")
    order = G.order()
    if order < 6:
        raise GroupError("maximal covers need |G| >= 6")

    sigma_sub = G.subgroup([sigma], "<sigma>")
    vcos = left_cosets(G, sigma_sub)
    ecos = left_cosets(G, G.subgroup([tau], "<tau>"))
    graph = _coset_graph(vcos, ecos, ecos.rights[0])
    # generator k maps the coset of r to that of g_k * r
    left = G.element_index().left
    action = GraphAction(
        G,
        graph,
        [list(map(vcos.of.__getitem__, map(lk.__getitem__, vcos.reps))) for lk in left],
        [list(map(ecos.of.__getitem__, map(lk.__getitem__, ecos.reps))) for lk in left],
    )

    base = Multigraph([0], [])
    projection = GraphMorphism(graph, base, [0] * len(graph.vertices), [None] * len(graph.edges))
    cover = HarmonicCover(
        base,
        G,
        InertiaStructure({0: sigma_sub}),
        {0: SymmetricMultiset([tau])},
        action,
        projection,
        {0: graph.vertices},
        {0: graph.dart_bases()},
        True,
        [],
    )
    _verify_cover(cover)

    mc = MaximalCover(G, tau, sigma, cover, vcos, ecos)
    _verify_maximal(mc)
    return mc


def _coset_graph(vcos: Cosets, ecos: Cosets, r_tau) -> Multigraph:
    """The edge r<tau> joins r<sigma> to r*tau<sigma>."""
    reps, of = ecos.reps, vcos.of
    ends = [None] * (2 * len(reps))
    ends[0::2] = map(of.__getitem__, reps)
    ends[1::2] = map(of.__getitem__, map(r_tau.__getitem__, reps))
    if any(map(eq, ends[0::2], ends[1::2])):
        raise CoverError("coset edge became a loop; orders 2 and 3 forbid this")
    return Multigraph(range(len(vcos)), ends=ends)


def _verify_maximal(mc: MaximalCover):
    graph = mc.graph
    order = mc.group.order()
    if len(graph.vertices) != order // 3 or len(graph.edges) != order // 2:
        raise CoverError("coset counts are off")
    if set(graph.degrees()) != {3}:
        raise CoverError("maximal cover is not 3-regular")
    if not graph.is_connected():
        raise CoverError("maximal cover is disconnected")
    # the edge orbits partition the edges, and flipped_edges is the union of
    # those whose stabilizer has order 2: every edge is flipped iff all are
    if not is_harmonic_action(mc.action) or any(
        o.stabilizer_order() != 2 for o in mc.action.edge_orbits()
    ):
        raise CoverError("not every edge of the maximal cover is flipped")
    if order != 6 * (graph.genus() - 1):
        raise CoverError("|G| = 6(genus-1) fails")


def build_maximal_rho(G: PermutationGroup, tau, sigma, rho=None) -> HarmonicCover:
    """Variant cover from S = {rho, rho^-1} with rho in tau<sigma>.

    Built through the generic Cayley/collapse/flip pipeline; empirically
    isomorphic to the S = {tau} cover on small groups (no general claim).
    """
    tau, sigma = tuple(tau), tuple(sigma)
    if rho is None:
        rho = perm_mul(tau, sigma)
    rho = tuple(rho)
    if not G.subgroup([sigma]).contains(perm_mul(perm_inv(tau), rho)):
        raise GroupError("rho must lie in the coset tau<sigma>")
    base = Multigraph([0], [])
    S = SymmetricMultiset([rho]) if rho == perm_inv(rho) else SymmetricMultiset(
        [rho, perm_inv(rho)]
    )
    return build_cover(G, base, {0: G.subgroup([sigma], "<sigma>")}, {0: S}, flipped=True)


# -- classification ------------------------------------------------------------


@dataclass
class ClassificationRow:
    genus: int
    order: int
    maximal_groups: list[str]
    witnesses: dict = field(default_factory=dict)  # name -> (tau, sigma)
    pair_totals: dict = field(default_factory=dict)  # name -> total pair count


def classify_genus(g: int, catalog: Catalog) -> ClassificationRow:
    """Maximal graph groups of genus g: the catalog groups of order 6(g-1)
    admitting a (2,3)-generating pair, with one witness pair each."""
    if g < 2:
        raise GroupError("classification starts at genus 2")
    order = 6 * (g - 1)
    if not catalog.is_complete_for(order):
        raise CatalogError(
            f"catalog is not complete for order {order}; classification would be partial"
        )
    groups = sorted(catalog.by_order(order), key=lambda G: G.name)
    row = ClassificationRow(g, order, [])
    for G in groups:
        res = search_23_pairs(G)
        if res.pairs:
            row.maximal_groups.append(G.name)
            row.witnesses[G.name] = res.pairs[0]
            row.pair_totals[G.name] = res.total
    return row


def classification_table(g_from: int, g_to: int, catalog: Catalog):
    return [classify_genus(g, catalog) for g in range(g_from, g_to + 1)]


def miller_check(family: str, n: int) -> bool:
    """(2,3)-generation test for A_n or S_n, 3 <= n <= 8: exhaustive when
    there is no pair, and stopping at the first pair otherwise."""
    if not 3 <= n <= 8:
        raise GroupError("miller_check supports 3 <= n <= 8")
    if family == "alternating":
        G = alternating(n)
    elif family == "symmetric":
        G = symmetric(n)
    else:
        raise GroupError("family must be 'alternating' or 'symmetric'")
    return first_pair(G) is not None


def genus12_check(catalog: Catalog) -> bool:
    """True iff no maximal graph group of genus 12 exists (order 66)."""
    return not classify_genus(12, catalog).maximal_groups
