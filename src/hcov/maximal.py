"""Maximal covers from (2,3)-generating pairs, genus classification against
the small-group catalog, and the alternating/symmetric spot checks.

The canonical maximal cover of a pair (tau, sigma) lives over the point
graph: vertices are the left cosets of <sigma>, edges the left cosets of
<tau>, and the edge g<tau> joins g<sigma> to g*tau<sigma>. Every edge is
flipped and |G| = 6(genus - 1). It is the cubic map on G's elements with
reversal right(tau) and rotation right(sigma), whose cycles are those cosets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hcov.errors import CatalogError, CoverError, GraphError, GroupError
from hcov.galois import HarmonicCover, SymmetricMultiset, _verify_cover, build_cover
from hcov.harmonic import GraphAction
from hcov.kernel import perm_inv, perm_mul
from hcov.multigraph import GraphMorphism, Multigraph
from hcov.oriented import OrientedGraph
from hcov.permgroup import (
    Catalog,
    PermutationGroup,
    _generates_order,
    alternating,
    first_pair,
    search_23_pairs,
    symmetric,
)

class MaximalCover:
    """Coset-labeled maximal cover of the point graph for a (2,3)-pair.

    map is its cubic map, the dart-regular map: the darts are G's elements
    by their index, X = right(tau) and the rotation is right(sigma). The
    element g is the dart at vertex g<sigma> of edge g<tau>, and vertex and
    edge ids number those cosets by their least members, map.least.
    """

    def __init__(self, group: PermutationGroup, tau, sigma, cover: HarmonicCover,
                 map: OrientedGraph):
        self.group = group
        self.tau = tau
        self.sigma = sigma
        self.cover = cover
        self.map = map

    @property
    def graph(self) -> Multigraph:
        return self.cover.graph

    @property
    def action(self) -> GraphAction:
        return self.cover.action

    def __repr__(self):
        return (
            f"MaximalCover({self.group.name}, {len(self.graph.vertices)} vertices,"
            f" genus {self.graph.genus()})"
        )


def build_maximal(G: PermutationGroup, tau, sigma) -> MaximalCover:
    """Canonical maximal cover for a generating pair of orders 2 and 3.

    That the pair generates G is proved once, by the known-order chain that
    admits it; _verify_cover checks the cover's connectivity against that
    verdict."""
    tau, sigma = tuple(tau), tuple(sigma)
    if G.element_order(tau) != 2:
        raise GroupError("tau must have order 2")
    if G.element_order(sigma) != 3:
        raise GroupError("sigma must have order 3")
    order = G.order()
    generated = _generates_order(G.degree, (tau, sigma), order)
    if not generated:
        raise GroupError("tau and sigma do not generate the group")
    if order < 6:
        raise GroupError("maximal covers need |G| >= 6")

    index = G.element_index()
    try:
        og = OrientedGraph.from_darts(index.right(tau), index.right(sigma))
    except GraphError:  # the one it raises: an edge whose ends share a vertex
        raise CoverError("coset edge became a loop; orders 2 and 3 forbid this") from None
    graph, (vertex_least, edge_least) = og.graph, og.least
    # generator k maps the coset of r to that of g_k * r
    action = GraphAction(
        G,
        graph,
        [list(map(og.base.__getitem__, map(lk.__getitem__, vertex_least))) for lk in index.left],
        [list(map(og.edge.__getitem__, map(lk.__getitem__, edge_least))) for lk in index.left],
    )

    base = Multigraph([0], [])
    projection = GraphMorphism(graph, base, [0] * len(graph.vertices), [None] * len(graph.edges))
    cover = HarmonicCover(
        base,
        G,
        {0: G.subgroup([sigma], "<sigma>")},
        {0: SymmetricMultiset([tau])},
        action,
        projection,
        True,
        [],
    )
    _verify_cover(cover, generated)

    mc = MaximalCover(G, tau, sigma, cover, og)
    _verify_maximal(mc)
    return mc


def _verify_maximal(mc: MaximalCover):
    """The maximal cover's own checks, after _verify_cover has found its
    action harmonic and its graph connected."""
    graph = mc.graph
    order = mc.group.order()
    if len(graph.vertices) != order // 3 or len(graph.edges) != order // 2:
        raise CoverError("coset counts are off")
    if set(graph.degrees()) != {3}:
        raise CoverError("maximal cover is not 3-regular")
    # the edge orbits partition the edges, and flipped_edges is the union of
    # those whose stabilizer has order 2: every edge is flipped iff all are
    if any(o.stabilizer_order() != 2 for o in mc.action.edge_orbits()):
        raise CoverError("not every edge of the maximal cover is flipped")
    if order != 6 * (graph.genus() - 1):
        raise CoverError("|G| = 6(genus-1) fails")


def build_maximal_rho(G: PermutationGroup, tau, sigma) -> HarmonicCover:
    """Variant cover from S = {rho, rho^-1} with rho = tau*sigma, built
    through the generic Cayley/collapse/flip pipeline.

    Its graph is the maximal cover's graph with the edges renamed. Both
    number their vertices, the cosets of <sigma>, by orbit_numbering of
    right(sigma) on G's element index. As rho lies in tau<sigma>, the
    collapse edge at element x_i joins the coset of x_i to that of
    x_i*rho = x_i*tau*sigma, which is the coset of x_i*tau: the ends of
    the maximal cover's edge through the darts i and X[i]. So each such
    edge arises twice, at i and at X[i], and flip_all halves each pair.
    multigraph.same_up_to_edge_ids checks the outcome.
    """
    tau, sigma = tuple(tau), tuple(sigma)
    rho = perm_mul(tau, sigma)
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
