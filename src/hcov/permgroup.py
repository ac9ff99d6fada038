"""Finite permutation groups: orders, membership, cosets, (2,3)-pair search,
standard constructors, and the small-group catalog.

Permutations are tuples of ints, multiplied right-to-left: (p*q)(x) = p(q(x)).
Groups act on the left throughout the package.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from hcov.errors import CatalogError, GroupError
from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul, perm_order

# -- cycle notation ---------------------------------------------------------


def perm_from_cycles(cycles, degree: int) -> tuple:
    """Build a permutation from disjoint cycles, e.g. [(0,1,2),(3,4)]."""
    out = list(range(degree))
    seen = set()
    for cyc in cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            if a in seen:
                raise GroupError(f"point {a} repeated across cycles")
            seen.add(a)
            out[a] = b
    return tuple(out)


def is_permutation(p) -> bool:
    """True iff p lists each of 0..len(p)-1 exactly once."""
    return all(type(x) is int for x in p) and sorted(p) == list(range(len(p)))


def cycles_of(p) -> list[tuple]:
    """Nontrivial cycles of p, each rotated to start at its minimum."""
    if not is_permutation(p):
        raise GroupError(f"{list(p)} is not a permutation")
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_string(p) -> str:
    cycs = cycles_of(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def parse_cycle_string(s: str, degree: int) -> tuple:
    """Parse '(0 1)(2 3 4)' (comma or space separated) into a permutation."""
    s = s.strip().replace("),(", ")(").replace(") (", ")(")
    if s in ("()", ""):
        return perm_id(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise GroupError(f"cannot parse permutation {s!r}")
    cycles = []
    for part in s[1:-1].split(")("):
        try:
            pts = [int(tok) for tok in part.replace(",", " ").split()]
        except ValueError:
            raise GroupError(f"cannot parse permutation {s!r}") from None
        if any(p < 0 or p >= degree for p in pts):
            raise GroupError(f"point out of range in {s!r} (degree {degree})")
        if pts:
            cycles.append(tuple(pts))
    return perm_from_cycles(cycles, degree)


# -- stabilizer chain (deterministic Schreier-Sims) -------------------------

# Words are tuples of (generator_index, inverted); the element is the
# right-to-left product of the listed generators, so word concatenation
# matches perm_mul order.


def _invert_word(word):
    return tuple((i, not inv) for i, inv in reversed(word))


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []  # list of (perm, word)
        self.transversal = {}  # orbit point -> (perm u with u[self.point]=pt, word)


class StabilizerChain:
    """Incremental deterministic Schreier-Sims over tuple permutations.

    Base points are the least moved point by default. prefer_points_from
    biases the choice to coordinates >= that offset while any of them is
    moved, so that the pointwise stabilizer of the points >= the offset is
    nontrivial iff some level's point lies below it. Only the test oracle
    for GraphAction's validation uses it now: on a group acting on a large
    block it puts a block-sized orbit at the top level.
    """

    def __init__(self, degree, generators=(), track_words=False, prefer_points_from=None):
        self.degree = degree
        self.track = track_words
        self.prefer = prefer_points_from
        self.levels: list[_Level] = []
        for i, g in enumerate(generators):
            word = ((i, False),) if track_words else ()
            self.add_generator(tuple(g), word)

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def add_generator(self, g, word=()):
        self._add_at(0, tuple(g), word)

    def _add_at(self, level, g, word):
        """Install g (which fixes all base points above `level`) at `level`."""
        residue, _, _ = self._sift(g, (), level)
        if residue is None:
            return
        if level == len(self.levels):
            moved = [i for i in range(self.degree) if g[i] != i]
            if self.prefer is not None:
                preferred = [i for i in moved if i >= self.prefer]
                point = preferred[0] if preferred else moved[0]
            else:
                point = moved[0]
            self.levels.append(_Level(point))
        lv = self.levels[level]
        lv.gens.append((g, word))
        self._close_level(level)

    def _sift(self, g, word, level):
        """Sift g down from `level`; returns (residue, word, level) or (None,..)."""
        ident = perm_id(self.degree)
        while True:
            if g == ident:
                return None, (), level
            if level == len(self.levels):
                return g, word, level
            lv = self.levels[level]
            b = g[lv.point]
            if b not in lv.transversal:
                return g, word, level
            u, uw = lv.transversal[b]
            g = perm_mul(perm_inv(u), g)
            if self.track:
                word = _invert_word(uw) + word
            level += 1

    def _close_level(self, level):
        lv = self.levels[level]
        ident = perm_id(self.degree)
        # rebuild the orbit/transversal from scratch (cheap at these degrees)
        lv.transversal = {lv.point: (ident, ())}
        frontier = [lv.point]
        while frontier:
            b = frontier.pop(0)
            u, uw = lv.transversal[b]
            for s, sw in lv.gens:
                c = s[b]
                if c not in lv.transversal:
                    nw = (sw + uw) if self.track else ()
                    lv.transversal[c] = (perm_mul(s, u), nw)
                    frontier.append(c)
        # all Schreier generators must sift through the rest of the chain
        inv_cache = {}
        for b in sorted(lv.transversal):
            u, uw = lv.transversal[b]
            for s, sw in lv.gens:
                c = s[b]
                uc_inv = inv_cache.get(c)
                if uc_inv is None:
                    uc_inv = inv_cache[c] = perm_inv(lv.transversal[c][0])
                schreier = perm_mul(uc_inv, perm_mul(s, u))
                if schreier == ident:
                    continue
                ucw = lv.transversal[c][1]
                w = (_invert_word(ucw) + sw + uw) if self.track else ()
                self._add_at(level + 1, schreier, w)

    def contains(self, p) -> bool:
        if len(p) != self.degree:
            return False
        g, _, _ = self._sift(tuple(p), (), 0)
        return g is None

    def factor(self, p):
        """Word over the original generators with product p; GroupError if p
        is not a member. Requires track_words=True."""
        if not self.track:
            raise GroupError("chain was built without word tracking")
        word = []
        g = tuple(p)
        ident = perm_id(self.degree)
        for lv in self.levels:
            if g == ident:
                break
            b = g[lv.point]
            if b not in lv.transversal:
                raise GroupError("element is not a member")
            u, uw = lv.transversal[b]
            word.extend(uw)
            g = perm_mul(perm_inv(u), g)
        if g != ident:
            raise GroupError("element is not a member")
        return tuple(word)


# -- orbits -----------------------------------------------------------------


def schreier_orbit(point, actions, labels, identity):
    """Orbit of `point` by breadth-first search, with a transversal and the
    Schreier generators of its stabilizer.

    Generator i sends a point x to actions[i][x] (a tuple, a dict or any
    indexable object) and carries the permutation labels[i]. Returns
    (transversal, schreier): transversal maps each orbit point x to the label
    product u_x that sends `point` to x, and schreier lists, without repeats
    and in the order found, the non-identity u_y^-1 * labels[i] * u_x with
    y = actions[i][x]. When the labels act as the generators do, these
    generate the stabilizer.
    """
    transversal = {point: identity}
    schreier = {}
    frontier = deque([point])
    while frontier:
        x = frontier.popleft()
        u = transversal[x]
        for act, g in zip(actions, labels):
            y = act[x]
            w = perm_mul(g, u)
            t = transversal.get(y)
            if t is None:
                transversal[y] = w
                frontier.append(y)
            elif t != w:
                schreier[perm_mul(perm_inv(t), w)] = None
    return transversal, list(schreier)


# -- groups -----------------------------------------------------------------


class PermutationGroup:
    """A finite permutation group given by generators on 0..degree-1."""

    def __init__(self, degree: int, generators, name: str = ""):
        self.degree = degree
        gens = []
        for g in generators:
            g = tuple(g)
            if len(g) != degree or not is_permutation(g):
                raise GroupError(f"not a permutation of degree {degree}: {g}")
            if g != perm_id(degree):
                gens.append(g)
        self.generators = tuple(gens)
        self.name = name or f"group<{degree}>"
        self._chain = None
        self._elements = None
        self._index = None

    @property
    def identity(self) -> tuple:
        return perm_id(self.degree)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators, track_words=True)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def elements(self) -> tuple:
        """All elements, lexicographically sorted (full closure; cached)."""
        if self._elements is None:
            els = mulclose(self.generators, limit=2_000_000)
            if not els:
                els = {self.identity}
            self._elements = tuple(sorted(els))
        return self._elements

    def element_index(self) -> "ElementIndex":
        """The elements numbered in lexicographic order (cached)."""
        if self._index is None:
            self._index = ElementIndex(self)
        return self._index

    def contains(self, p) -> bool:
        return self.chain().contains(p)

    def element_order(self, p) -> int:
        p = tuple(p)
        if not self.contains(p):
            raise GroupError(f"{cycle_string(p)} is not a member of {self.name}")
        return perm_order(p)

    def element_word(self, p):
        """Factor a member as a word over the generators (index, inverted)."""
        return self.chain().factor(p)

    def conjugacy_class(self, p) -> tuple:
        """Conjugacy class of a member, sorted."""
        p = tuple(p)
        cls = {p}
        queue = [p]
        conjugators = [(g, perm_inv(g)) for g in self.generators]
        while queue:
            x = queue.pop()
            for g, ginv in conjugators:
                y = perm_mul(g, perm_mul(x, ginv))
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        return tuple(sorted(cls))

    def subgroup(self, generators, name: str = "") -> "Subgroup":
        return Subgroup(self, generators, name)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (), "1")

    def __repr__(self):
        return f"PermutationGroup({self.name}, degree={self.degree}, order={self.order()})"


class Subgroup(PermutationGroup):
    """A subgroup given by generators that are members of the parent."""

    def __init__(self, parent: PermutationGroup, generators, name: str = ""):
        super().__init__(parent.degree, generators, name or "subgroup")
        for g in self.generators:
            if not parent.contains(g):
                raise GroupError(f"{cycle_string(g)} is not a member of {parent.name}")
        self.parent = parent


def group_order(G: PermutationGroup) -> int:
    return G.order()


def element_order(G: PermutationGroup, p) -> int:
    return G.element_order(p)


def generates(G: PermutationGroup, elems) -> bool:
    """True iff the given members generate the whole group."""
    elems = [tuple(p) for p in elems]
    for p in elems:
        if not G.contains(p):
            raise GroupError(f"{cycle_string(p)} is not a member of {G.name}")
    return StabilizerChain(G.degree, elems).order() == G.order()


# -- element index and cosets -------------------------------------------------


class ElementIndex:
    """The elements of a group numbered 0..|G|-1 in lexicographic order.

    An element is stored by its images of the points 0..m-1, m - 1 the
    largest base point of the group's chain: those images fix it, and two
    elements first differ at a base point or before one, so they sort like
    the full tuples. One breadth-first walk from the identity by left
    multiplication with the generators finds every element; the identity is
    element 0. keys[i] reads element i's images as the digits of a number
    in base degree, which sorts the same way.

    left[k][i] is the index of g_k * x_i, for the group's k-th generator
    g_k. right(h)[i], the index of x_i * h, comes from the walk's tree: when
    x = g_k * parent(x), x * h = g_k * (parent(x) * h).
    """

    def __init__(self, G: PermutationGroup):
        self.group = G
        gens = G.generators
        start = tuple(range(max((lv.point for lv in G.chain().levels), default=-1) + 1))
        found = {start: 0}
        images = [start]  # in walk order
        parent, via = [0], [-1]
        left = [[] for _ in gens]
        for b, x in enumerate(images):
            for k, s in enumerate(gens):
                y = tuple(map(s.__getitem__, x))
                c = found.get(y)
                if c is None:
                    c = found[y] = len(images)
                    images.append(y)
                    parent.append(b)
                    via.append(k)
                left[k].append(c)
        walk = sorted(range(len(images)), key=images.__getitem__)
        rank = [0] * len(walk)
        for i, b in enumerate(walk):
            rank[b] = i
        self._m = len(start)
        self.keys = [self._key(images[b]) for b in walk]  # sorted
        self.left = [[rank[lk[b]] for b in walk] for lk in left]
        self._walk = rank  # element indices in walk order
        self._parent = [rank[parent[b]] for b in walk]
        self._via = [via[b] for b in walk]

    def _key(self, images) -> int:
        key = 0
        for x in images:
            key = key * self.group.degree + x
        return key

    def __len__(self):
        return len(self.keys)

    def element(self, i: int) -> tuple:
        """The permutation with index i: the product of one transversal
        element per chain level that its base images pick."""
        key, images = self.keys[i], []
        for _ in range(self._m):
            key, x = divmod(key, self.group.degree)
            images.append(x)
        images.reverse()
        g = self.group.identity
        for lv in self.group.chain().levels:
            u, _ = lv.transversal[g.index(images[lv.point])]
            g = perm_mul(g, u)
        return g

    def index_of(self, g) -> int:
        """The index of the member g; KeyError if g is not a member."""
        g = tuple(g)
        i = bisect_left(self.keys, self._key(g[: self._m]))
        if i == len(self.keys) or self.element(i) != g:
            raise KeyError(g)
        return i

    def right(self, h) -> list:
        """right(h)[i] is the index of x_i * h."""
        out = [0] * len(self.keys)
        out[0] = self.index_of(h)
        left, parent, via = self.left, self._parent, self._via
        for x in self._walk[1:]:
            out[x] = left[via[x]][out[parent[x]]]
        return out


class Cosets(Sequence):
    """The left cosets gH of a subgroup H, on its group's element index.

    A coset is an orbit of the index under right multiplication by H's
    generators. reps[c] is the index of coset c's least member, cosets are
    numbered by increasing reps, and of[i] is the coset of element i. As a
    sequence, cosets yield their least members as tuples.
    """

    def __init__(self, index: ElementIndex, subgroup: PermutationGroup):
        rights = [index.right(h) for h in subgroup.generators]
        self.index = index
        self.of = of = [-1] * len(index)
        self.reps = []
        for i in range(len(of)):
            if of[i] >= 0:
                continue
            c = of[i] = len(self.reps)
            self.reps.append(i)
            stack = [i]
            while stack:
                x = stack.pop()
                for r in rights:
                    y = r[x]
                    if of[y] < 0:
                        of[y] = c
                        stack.append(y)

    def __len__(self):
        return len(self.reps)

    def __getitem__(self, c):
        return self.index.element(self.reps[c])


def left_cosets(G: PermutationGroup, H: Subgroup) -> Cosets:
    """The left cosets G/H, each represented by its lexicographically least
    member; iterating yields those representatives, sorted."""
    if getattr(H, "parent", None) is not G:
        for h in H.generators:
            if not G.contains(h):
                raise GroupError("H is not contained in G")
    return Cosets(G.element_index(), H)


# -- (2,3)-generating pair search --------------------------------------------


@dataclass
class PairSearch:
    """Result of a (2,3)-pair search.

    pairs holds one (tau, sigma) per involution-class representative and
    order-3 element found; total counts all pairs over full involution
    orbits (class size times per-representative hits).

    The search tests generation once per orbit of sigma under conjugation by
    the centralizer C_G(tau), not once per sigma: for c in C_G(tau),
    <tau, c sigma c^-1> = c <tau, sigma> c^-1 and |tau c sigma c^-1| =
    |tau sigma|, so the verdict and the product-order filter are constant on
    each orbit.
    """

    group: str
    pairs: list[tuple]
    total: int
    product_order: int | None = None
    classes_searched: int = 0

    def __bool__(self):
        return bool(self.pairs)


class _Conjugation:
    """x -> g x g^-1 on a sorted list of members closed under conjugation, as
    an indexable action for schreier_orbit. It returns the list's own tuples,
    so an orbit shares them instead of holding copies."""

    __slots__ = ("g", "g_inv", "members")

    def __init__(self, g, members):
        self.g = g
        self.g_inv = perm_inv(g)
        self.members = members

    def __getitem__(self, x):
        y = perm_mul(self.g, perm_mul(x, self.g_inv))
        return self.members[bisect_left(self.members, y)]


def _conjugacy_classes(G: PermutationGroup, members):
    """Yield (a, transversal, centralizer generators) per conjugacy class that
    meets `members`, a sorted list of elements closed under conjugation.

    a is the least member of its class, transversal maps each class member x
    to some t with t a t^-1 = x. The Schreier generators of the conjugation
    orbit generate C_G(a); they are pruned on chains to a set in which no
    generator lies in the group of the others.
    """
    actions = [_Conjugation(g, members) for g in G.generators]
    seen = bytearray(len(members))
    for i, p in enumerate(members):
        if seen[i]:
            continue
        transversal, schreier = schreier_orbit(p, actions, G.generators, G.identity)
        for x in transversal:
            seen[bisect_left(members, x)] = 1
        chain = StabilizerChain(G.degree)
        centralizer = []
        for s in schreier:
            if not chain.contains(s):
                chain.add_generator(s)
                centralizer.append(s)
        # the last one kept lies outside the group of all the others
        for s in centralizer[:-1]:
            rest = [r for r in centralizer if r != s]
            if StabilizerChain(G.degree, rest).order() == chain.order():
                centralizer = rest
        yield p, transversal, centralizer


def _generating_partners(G, order, a, bs, centralizer, product_order) -> bytearray:
    """verdicts[i] = 1 iff <a, bs[i]> = G (and |a bs[i]| = product_order),
    for a sorted list bs closed under conjugation by the centralizer of a.
    One chain is built per orbit of bs under that conjugation.
    """
    conjugators = [(c, perm_inv(c)) for c in centralizer]
    seen = bytearray(len(bs))
    verdicts = bytearray(len(bs))
    for i, b in enumerate(bs):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for j in orbit:
            x = bs[j]
            for c, c_inv in conjugators:
                k = bisect_left(bs, perm_mul(c, perm_mul(x, c_inv)))
                if not seen[k]:
                    seen[k] = 1
                    orbit.append(k)
        if product_order is not None and perm_order(perm_mul(a, b)) != product_order:
            continue
        if StabilizerChain(G.degree, (a, b)).order() == order:
            for k in orbit:
                verdicts[k] = 1
    return verdicts


def _chain_elements(chain: StabilizerChain):
    """Every element of the chain's group once, as the product of one
    transversal element per level. Elements are made one at a time and none
    is kept, so a search that keeps a few of them never holds all of G."""

    def walk(prefix, level):
        if level == len(chain.levels):
            yield prefix
            return
        for u, _ in chain.levels[level].transversal.values():
            yield from walk(perm_mul(prefix, u), level + 1)

    return walk(perm_id(chain.degree), 0)


def search_pairs(
    G: PermutationGroup,
    order_a: int = 2,
    order_b: int = 3,
    product_order: int | None = None,
    all_first: bool = False,
) -> PairSearch:
    """All generating pairs (a, b) with |a| = order_a and |b| = order_b, and
    optionally |a*b| = product_order.

    a ranges over conjugacy-class representatives (conjugate pairs give
    isomorphic covers downstream); pass all_first=True for the full orbit.
    b always ranges over every element of its order.

    Generation is tested once per orbit of b under C_G(a), the centralizer
    of the class representative a (see PairSearch). With all_first, a
    conjugate t a t^-1 takes its verdicts from a's:
    verdict(t a t^-1, b) = verdict(a, t^-1 b t).
    """
    order = G.order()
    firsts = []
    bs = []
    for p in _chain_elements(G.chain()):
        k = perm_order(p)
        if k == order_a:
            firsts.append(p)
        if k == order_b:
            bs.append(p)
    firsts.sort()
    bs.sort()
    pairs = []
    total = 0
    n_classes = 0
    conjugates = {}  # with all_first: member t a t^-1 -> (verdicts of a, t)
    for a, transversal, centralizer in _conjugacy_classes(G, firsts):
        n_classes += 1
        verdicts = _generating_partners(G, order, a, bs, centralizer, product_order)
        if all_first:
            for x, t in transversal.items():
                conjugates[x] = (verdicts, t)
        else:
            hits = [(a, b) for b, ok in zip(bs, verdicts) if ok]
            pairs += hits
            total += len(transversal) * len(hits)
    if not all_first:
        return PairSearch(G.name, pairs, total, product_order, n_classes)
    for x in firsts:
        verdicts, t = conjugates[x]
        t_inv = perm_inv(t)
        # positions of the t b t^-1 with verdict(a, b), so pairs share bs's tuples
        moved = [bisect_left(bs, perm_mul(t, perm_mul(b, t_inv)))
                 for b, ok in zip(bs, verdicts) if ok]
        pairs += [(x, bs[k]) for k in sorted(moved)]
    return PairSearch(G.name, pairs, len(pairs), product_order, len(firsts))


def search_23_pairs(
    G: PermutationGroup,
    product_order: int | None = None,
    all_involutions: bool = False,
) -> PairSearch:
    """All (tau, sigma) with |tau|=2, |sigma|=3, <tau,sigma>=G, and optionally
    |tau*sigma| = product_order; tau up to conjugacy unless all_involutions."""
    return search_pairs(G, 2, 3, product_order, all_involutions)


# -- subgroup enumeration (small groups) -------------------------------------


def all_subgroups(G: PermutationGroup, max_order: int = 48) -> list[Subgroup]:
    """Every subgroup of G, as Subgroup objects; exhaustive, |G| <= max_order."""
    if G.order() > max_order:
        raise GroupError(f"subgroup enumeration capped at order {max_order}")
    elements = G.elements()
    subgroups = {}  # frozenset of elements -> generating tuple
    ident = G.identity
    subgroups[frozenset([ident])] = ()
    for p in elements:
        if p == ident:
            continue
        cyc = frozenset(mulclose([p]))
        subgroups.setdefault(cyc, (p,))
    frontier = list(subgroups.items())
    while frontier:
        new = []
        for els, gens in frontier:
            for p in elements:
                if p in els or p == ident:
                    continue
                bigger = frozenset(mulclose(list(gens) + [p]))
                if bigger not in subgroups:
                    subgroups[bigger] = gens + (p,)
                    new.append((bigger, gens + (p,)))
        frontier = new
    out = [G.subgroup(gens) for els, gens in subgroups.items()]
    out.sort(key=lambda H: (H.order(), H.elements()))
    return out


# -- constructors -------------------------------------------------------------


def cyclic(n: int) -> PermutationGroup:
    """Z/nZ as the n-cycle (0 1 ... n-1); canonical generator g."""
    if n < 1:
        raise GroupError("cyclic(n) needs n >= 1")
    if n == 1:
        return PermutationGroup(1, [], "Z1")
    g = tuple(list(range(1, n)) + [0])
    return PermutationGroup(n, [g], f"Z{n}")


def dihedral(n: int) -> PermutationGroup:
    """Symmetries of the regular n-gon (order 2n), named by group order."""
    if n < 1:
        raise GroupError("dihedral(n) needs n >= 1")
    if n == 1:
        return PermutationGroup(2, [(1, 0)], "D2")
    if n == 2:
        return PermutationGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], "D4")
    rot = tuple(list(range(1, n)) + [0])
    refl = tuple((n - i) % n for i in range(n))
    return PermutationGroup(n, [rot, refl], f"D{2 * n}")


def symmetric(n: int) -> PermutationGroup:
    """S_n on 0..n-1 with generators (0 1) and (0 1 ... n-1)."""
    if n < 1:
        raise GroupError("symmetric(n) needs n >= 1")
    if n == 1:
        return PermutationGroup(1, [], "S1")
    gens = [perm_from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermutationGroup(n, gens, f"S{n}")


def alternating(n: int) -> PermutationGroup:
    """A_n with generators (0 1 2) and an n- or (n-1)-cycle."""
    if n < 1:
        raise GroupError("alternating(n) needs n >= 1")
    if n <= 2:
        return PermutationGroup(max(n, 1), [], f"A{n}")
    gens = [perm_from_cycles([(0, 1, 2)], n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(perm_from_cycles([tuple(range(1, n))], n))
    return PermutationGroup(n, gens, f"A{n}")


def direct_product(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """G x H acting on the disjoint union of the two point sets."""
    n, m = G.degree, H.degree
    gens = [g + tuple(range(n, n + m)) for g in G.generators]
    gens += [tuple(range(n)) + tuple(x + n for x in h) for h in H.generators]
    return PermutationGroup(n + m, gens, f"{G.name}x{H.name}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def psl2(p: int, allow_large: bool = False) -> PermutationGroup:
    """PSL_2(F_p) in its natural action on the projective line.

    Points 0..p-1 are the field; index p is the point at infinity.
    Generators: x -> x+1 and x -> -1/x. Capped at p <= 31 unless
    allow_large is set.
    """
    if not _is_prime(p) or p == 2:
        raise GroupError("psl2(p) needs an odd prime p")
    if p > 31 and not allow_large:
        raise GroupError(
            "psl2 capped at p <= 31; pass allow_large=True (CLI: --allow-large-psl2)"
            " to override"
        )
    INF = p
    t = tuple([(i + 1) % p for i in range(p)] + [INF])
    s = [0] * (p + 1)
    s[0] = INF
    s[INF] = 0
    for i in range(1, p):
        s[i] = (-pow(i, p - 2, p)) % p
    return PermutationGroup(p + 1, [t, tuple(s)], f"PSL(2,{p})")


# -- catalog ------------------------------------------------------------------

# Published counts of isomorphism types per order; completeness of catalog
# sections is asserted against this table, never recomputed.
KNOWN_GROUP_COUNTS = {6: 2, 12: 5, 18: 5, 24: 15, 30: 4, 66: 4}


def order_spectrum(G: PermutationGroup) -> dict[int, int]:
    """Map element order -> count, by full enumeration."""
    spec = {}
    for p in G.elements():
        k = perm_order(p)
        spec[k] = spec.get(k, 0) + 1
    return spec


@dataclass
class Catalog:
    """Named small groups bucketed by order, with completeness flags."""

    groups: list[PermutationGroup] = field(default_factory=list)
    complete_orders: set = field(default_factory=set)

    def by_order(self, n: int) -> list[PermutationGroup]:
        return [G for G in self.groups if G.order() == n]

    def names(self) -> list[str]:
        return [G.name for G in self.groups]

    def get(self, name: str) -> PermutationGroup | None:
        for G in self.groups:
            if G.name == name:
                return G
        return None

    def is_complete_for(self, order: int) -> bool:
        return order in self.complete_orders


def load_catalog(path) -> Catalog:
    """Load and validate a catalog file.

    Validation: section counts match the published isomorphism-type counts,
    names are unique, and every group's order and order spectrum match the
    shipped fingerprints.
    """
    with open(path) as fh:
        data = json.load(fh)
    catalog = Catalog()
    seen_names = set()
    for section in data:
        order = section["order"]
        groups = section["groups"]
        if order in KNOWN_GROUP_COUNTS:
            if len(groups) != KNOWN_GROUP_COUNTS[order]:
                raise CatalogError(
                    f"order {order}: catalog has {len(groups)} groups, "
                    f"published count is {KNOWN_GROUP_COUNTS[order]}"
                )
            catalog.complete_orders.add(order)
        elif section.get("complete"):
            catalog.complete_orders.add(order)
        for rec in groups:
            name = rec["name"]
            if name in seen_names:
                raise CatalogError(f"duplicate group name {name!r}")
            seen_names.add(name)
            G = PermutationGroup(rec["degree"], [tuple(g) for g in rec["generators"]], name)
            if G.order() != order:
                raise CatalogError(
                    f"{name}: generators produce order {G.order()}, section says {order}"
                )
            shipped = {int(k): v for k, v in rec["order_spectrum"].items()}
            if order_spectrum(G) != shipped:
                raise CatalogError(f"{name}: order spectrum does not match fingerprint")
            catalog.groups.append(G)
    return catalog


def default_catalog_path():
    from importlib.resources import files

    return str(files("hcov").joinpath("data/catalog.json"))


def load_default_catalog() -> Catalog:
    return load_catalog(default_catalog_path())


# -- group resolution (names, constructor expressions, inline specs) ---------


def group_from_spec(
    spec, catalog: Catalog | None = None, allow_large_psl2: bool = False
) -> PermutationGroup:
    """Resolve a group from a catalog name, a constructor expression
    (sym:N, alt:N, cyc:N, dih:N, psl2:P, prod:A,B), or an inline JSON dict
    {"degree":..., "generators":[...], "name":...}."""
    if isinstance(spec, dict):
        for key in ("degree", "generators"):
            if key not in spec:
                raise GroupError(f"group spec: missing field {key!r}")
        degree, gens, name = spec["degree"], spec["generators"], spec.get("name", "")
        if type(degree) is not int or degree < 0:
            raise GroupError(f"group spec: 'degree' must be a non-negative integer, got {degree!r}")
        if not isinstance(gens, list):
            raise GroupError(f"group spec: 'generators' must be a list, got {gens!r}")
        for i, g in enumerate(gens):
            if not isinstance(g, list):
                raise GroupError(f"group spec: 'generators.{i}' must be a list, got {g!r}")
        if not isinstance(name, str):
            raise GroupError(f"group spec: 'name' must be a string, got {name!r}")
        return PermutationGroup(degree, [tuple(g) for g in gens], name)
    if not isinstance(spec, str):
        raise GroupError(f"cannot resolve group from {spec!r}")
    if catalog is not None:
        G = catalog.get(spec)
        if G is not None:
            return G
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        kind = kind.lower()
        if kind == "prod":
            left, _, right = arg.partition(",")
            return direct_product(
                group_from_spec(left.strip(), catalog, allow_large_psl2),
                group_from_spec(right.strip(), catalog, allow_large_psl2),
            )
        ctor = {
            "sym": symmetric,
            "alt": alternating,
            "cyc": cyclic,
            "dih": dihedral,
            "psl2": lambda p: psl2(p, allow_large=allow_large_psl2),
        }.get(kind)
        if ctor is None:
            raise GroupError(f"unknown constructor {kind!r}")
        try:
            n = int(arg)
        except ValueError:
            raise GroupError(f"{spec!r}: {kind} needs an integer, got {arg!r}") from None
        return ctor(n)
    raise GroupError(f"unknown group {spec!r} (not in catalog, not a constructor)")
