"""Finite permutation groups: orders, membership, cosets, (2,3)-pair search,
standard constructors, and the small-group catalog.

Permutations are tuples of ints, multiplied right-to-left: (p*q)(x) = p(q(x)).
Groups act on the left throughout the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice
from math import lcm

from hcov.errors import CatalogError, GroupError, read_json
# mulclose is unused here, but perfbench/selftest.py checks that this copy is kernel's
from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul, perm_order  # noqa: F401

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
    """Nontrivial cycles of p, each rotated to start at its minimum.
    GroupError unless p lists each of 0..len(p)-1 exactly once: every walk
    meets only unseen ints in range and closes at its own start."""
    n = len(p)
    seen = bytearray(n)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = 1
        j = p[i]
        if j != i:
            cyc = [i]
            while j != i:
                if type(j) is not int or not 0 <= j < n or seen[j]:
                    raise GroupError(f"{list(p)} is not a permutation")
                seen[j] = 1
                cyc.append(j)
                j = p[j]
            out.append(tuple(cyc))
        if type(j) is not int:  # the entry that closed the cycle, equal to i
            raise GroupError(f"{list(p)} is not a permutation")
    return out


def orbit_numbering(points, maps) -> tuple[list | dict, list]:
    """(number, least) for the orbits of the points under the group that
    the maps generate, each map a permutation of the points that sends x to
    m[x] (a list, a dict or any indexable object): number[x] is the orbit
    of x, orbits numbered in the order of their least points, and least[c]
    is the least point of orbit c. number is a list when points is
    range(n), else a dict. With no map every point is an orbit of its own.

    One map's orbits are its cycles, each walked once; several maps' are
    closed by a stack walk."""
    if points == range(len(points)):
        number = [-1] * len(points)
    else:
        points = sorted(points)
        number = dict.fromkeys(points, -1)
    least = []
    if len(maps) == 1:
        (m,) = maps
        for i in points:
            if number[i] < 0:
                number[i] = c = len(least)
                least.append(i)
                j = m[i]
                while j != i:
                    number[j], j = c, m[j]
        return number, least
    for i in points:
        if number[i] < 0:
            number[i] = c = len(least)
            least.append(i)
            stack = [i]
            while stack:
                x = stack.pop()
                for m in maps:
                    y = m[x]
                    if number[y] < 0:
                        number[y] = c
                        stack.append(y)
    return number, least


def cycle_count(p) -> int:
    """The number of cycles of the permutation p, fixed points included."""
    return len(orbit_numbering(range(len(p)), (p,))[1])


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


# -- orbits -----------------------------------------------------------------


def schreier_orbit(point, actions, labels, identity, inverses=None, transversal=None):
    """Orbit of `point` by breadth-first search, with a transversal and the
    Schreier generators of its stabilizer.

    Generator i sends a point x to actions[i][x] (a tuple, a dict or any
    indexable object) and carries the permutation labels[i]. Returns
    (transversal, schreier): transversal maps each orbit point x to the label
    product u_x that sends `point` to x, and schreier lists, without repeats
    and in the order found, the non-identity u_y^-1 * labels[i] * u_x with
    y = actions[i][x]. When the labels act as the generators do, these
    generate the stabilizer.

    Each u_y is inverted at most once, into the dict inverses (orbit point
    y -> u_y^-1) when one is passed, so that a caller needing more of the
    inverses computes only the rest.

    Seeded: a non-empty `transversal`, as an earlier call returned it for
    every generator but the last, is extended in place, its old entries
    kept, and `inverses` may already hold some of theirs. The walk then
    applies the last generator to the old points and every generator to
    the new ones, and schreier lists only the Schreier generators of those
    edges.
    """
    if inverses is None:
        inverses = {}
    schreier = {}
    every = tuple(zip(actions, labels))
    if transversal:
        frontier = deque((x, every[-1:]) for x in transversal)
    else:
        transversal = {point: identity}
        frontier = deque([(point, every)])
    while frontier:
        x, edges = frontier.popleft()
        u = transversal[x]
        for act, g in edges:
            y = act[x]
            w = perm_mul(g, u)
            t = transversal.get(y)
            if t is None:
                transversal[y] = w
                frontier.append((y, every))
            elif t != w:
                t_inv = inverses.get(y)
                if t_inv is None:
                    t_inv = inverses[y] = perm_inv(t)
                schreier[perm_mul(t_inv, w)] = None
    return transversal, list(schreier)


# -- stabilizer chain (deterministic Schreier-Sims) -------------------------


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverse")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}  # orbit point pt -> u with u[self.point] = pt
        # orbit point pt -> u^-1, for the same u; a probe's holds those it used
        self.inverse = {}


class _OrderReached(Exception):
    pass


class StabilizerChain:
    """Incremental deterministic Schreier-Sims over tuple permutations. A
    level's base point is the least point its first generator moves.

    Each generator added to a level extends that level's orbit and
    transversal in place (_close_level): no transversal element is ever
    replaced, and only the Schreier generators of the new orbit edges are
    sifted through the levels below."""

    _stop_at = None  # see _OrderProbe

    def __init__(self, degree, generators=()):
        self.degree = degree
        self.levels: list[_Level] = []
        for g in generators:
            self.add_generator(g)

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def add_generator(self, g):
        g = tuple(g)
        if self._sift(g, 0) is not None:
            self._install(0, g)

    def _install(self, level, g):
        """Install g, which fixes all base points above `level` and does not
        sift through the chain from there, at `level`."""
        if level == len(self.levels):
            self.levels.append(_Level(next(i for i in range(self.degree) if g[i] != i)))
        self.levels[level].gens.append(g)
        self._close_level(level)

    def _sift(self, g, level):
        """The residue of g sifted down from `level`, or None if g sifts
        through to the identity."""
        ident = perm_id(self.degree)
        while True:
            if g == ident:
                return None
            if level == len(self.levels):
                return g
            lv = self.levels[level]
            b = g[lv.point]
            u_inv = lv.inverse.get(b)
            if u_inv is None:
                # only an _OrderProbe's levels lack the inverses of orbit points
                u = lv.transversal.get(b)
                if u is None:
                    return g
                u_inv = lv.inverse[b] = perm_inv(u)
            g = perm_mul(u_inv, g)
            level += 1

    def _close_level(self, level):
        """Extend the level's orbit by its newest generator, and sift the
        Schreier generators of the new orbit edges only: those of the older
        edges sifted through a smaller chain before, and still do, since no
        transversal element is ever replaced."""
        lv = self.levels[level]
        old = len(lv.transversal)
        # the walk writes the inverses it needs into lv.inverse, so each u
        # is inverted once over the whole chain
        lv.transversal, schreier = schreier_orbit(
            lv.point, lv.gens, lv.gens, perm_id(self.degree), lv.inverse, lv.transversal
        )
        if self._stop_at is not None:
            # a probe is dropped once built: it inverts only what _sift reads
            if self.order() >= self._stop_at:
                raise _OrderReached
        else:
            # an inverse that is already a transversal element, as for an
            # involution or the powers of a single generator, shares its tuple
            for c, u in islice(lv.transversal.items(), old, None):
                v = lv.inverse.get(c) or perm_inv(u)
                w = lv.transversal.get(v[lv.point])
                lv.inverse[c] = w if w == v else v
        # all Schreier generators must sift through the rest of the chain
        for s in schreier:
            if self._sift(s, level + 1) is not None:
                self._install(level + 1, s)

    def contains(self, p) -> bool:
        if len(p) != self.degree:
            return False
        return self._sift(tuple(p), 0) is None


# -- groups -----------------------------------------------------------------

# The most elements PermutationGroup.elements() lists.
ELEMENTS_CAP = 2_000_000
# The most elements an ElementIndex numbers: PSL(2,239) has 6,825,840, at
# about 320 bytes each.
INDEX_CAP = 7_000_000


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
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def elements(self) -> tuple:
        """All elements, lexicographically sorted: the chain's head * t
        products (see _chain_products), cached. GroupError past
        ELEMENTS_CAP elements, before any is built."""
        if self._elements is None:
            order = self.order()
            if order > ELEMENTS_CAP:
                raise GroupError(
                    f"{self.name} has {order} elements; listing them is capped at {ELEMENTS_CAP}"
                )
            heads, tail = _chain_products(self.chain())
            self._elements = tuple(sorted(perm_mul(h, t) for h in heads() for t in tail))
        return self._elements

    def element_index(self) -> "ElementIndex":
        """The elements numbered in lexicographic order (cached); GroupError
        past INDEX_CAP elements, before they are walked."""
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

    def subgroup(self, generators, name: str = "") -> "Subgroup":
        return Subgroup(self, generators, name)

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


def _generates_order(degree, gens, order) -> bool:
    """True iff gens, members of a group of the given order, generate it.
    Each basic orbit of a chain under construction is at most the true
    index at its level, so the build stops once their lengths multiply to
    the order."""
    try:
        return _OrderProbe(degree, gens, order).order() == order
    except _OrderReached:
        return True


class _OrderProbe(StabilizerChain):
    """A chain whose construction raises _OrderReached at stop_at."""

    def __init__(self, degree, generators, stop_at):
        self._stop_at = stop_at
        super().__init__(degree, generators)


# -- element index and cosets -------------------------------------------------


def _digit_table(g, digits, unit, rows):
    """Row v holds the key that g's images of v's base-degree digits make:
    for v = sum of d_j * degree**j over j < digits, table[v] = sum of
    g[d_j] * degree**j * unit. A list when it has at most `rows` rows, else
    a _LazyDigitTable."""
    n = len(g)
    if n**digits > rows:
        return _LazyDigitTable(g, digits, unit)
    table = [0]
    for j in reversed(range(digits)):
        w = unit * n**j
        images = [x * w for x in g]
        table = [t + y for t in table for y in images]
    return table


class _LazyDigitTable(dict):
    """A _digit_table too large to list, each row computed when first read."""

    __slots__ = ("g", "digits", "unit")

    def __init__(self, g, digits, unit):
        self.g, self.digits, self.unit = g, digits, unit

    def __missing__(self, v):
        n, w, key, rest = len(self.g), self.unit, 0, v
        for _ in range(self.digits):
            rest, d = divmod(rest, n)
            key += self.g[d] * w
            w *= n
        self[v] = key
        return key


class _Unseen(dict):
    """A dict that reads -1 for a missing key, without storing it."""

    __slots__ = ()

    def __missing__(self, key):
        return -1


class ElementIndex:
    """The elements of a group numbered 0..|G|-1 in lexicographic order.

    An element is stored by its images of the points 0..m-1, m - 1 the
    largest base point of the group's chain: those images fix it, and two
    elements first differ at a base point or before one, so they sort like
    the full tuples. One breadth-first walk from the identity by left
    multiplication with the generators finds every element; the identity is
    element 0. keys[i] reads element i's images as the digits of a number
    in base degree, which sorts the same way.

    The walk computes keys, never image tuples. It splits a key into its
    last s digits and the m - s before them, s the most digits whose
    _digit_table has at most max(|G|, degree) rows; the key of g_k * x is
    then one row of each of g_k's two tables added up.

    The walk notes each key found in a table from key to walk position.
    When the key range, degree**m, is at most 4 * max(|G|, degree), that
    table is a list indexed by key, and reading its found entries in key
    order numbers the elements. Otherwise it is a dict, and one sort of the
    keys found numbers them. For PSL(2,p) the range is about 2.2 |G|, so
    the list applies.

    left[k][i] is the index of g_k * x_i, for the group's k-th generator
    g_k. Maps out of the group come from the walk's tree: when x = g_k *
    parent(x), x * h = g_k * (parent(x) * h) gives right(h)[i], the index of
    x_i * h, and x(p) = g_k(parent(x)(p)) gives orbit_map, i -> x_i(p).
    right(h) is kept per member h: Cosets and collapse ask for the same
    few members again and again.
    """

    def __init__(self, G: PermutationGroup):
        order = G.order()
        if order > INDEX_CAP:
            raise GroupError(f"{G.name} has {order} elements; its index is capped at {INDEX_CAP}")
        self.group = G
        n = G.degree
        self._m = m = max((lv.point for lv in G.chain().levels), default=-1) + 1
        rows = max(order, n)
        s = 0
        while s < m and n ** (s + 1) <= rows:
            s += 1
        unit = n**s
        lefts = [[] for _ in G.generators]
        steps = [
            (k, _digit_table(g, m - s, unit, rows), _digit_table(g, s, 1, rows), lk.append)
            for k, (g, lk) in enumerate(zip(G.generators, lefts))
        ]
        # key -> walk position, -1 for a key not found (yet)
        direct = n**m <= 4 * rows
        found = [-1] * n**m if direct else _Unseen()
        start = self._key(range(m))
        keys = [start]  # in walk order
        found[start] = 0
        parent, via = [0], [-1]
        for b, x in enumerate(keys):
            high, low = divmod(x, unit)
            for k, high_rows, low_rows, add in steps:
                y = high_rows[high] + low_rows[low]
                c = found[y]
                if c < 0:
                    c = found[y] = len(keys)
                    keys.append(y)
                    parent.append(b)
                    via.append(k)
                add(c)
        if direct:
            walk = [b for b in found if b >= 0]
        else:
            walk = sorted(range(len(keys)), key=keys.__getitem__)
        del found
        rank = [0] * len(walk)
        for i, b in enumerate(walk):
            rank[b] = i
        self.keys = [keys[b] for b in walk]  # sorted
        self.left = [[rank[lk[b]] for b in walk] for lk in lefts]
        self._walk = rank  # element indices in walk order
        self._parent = [rank[parent[b]] for b in walk]
        self._via = [via[b] for b in walk]
        self._rights = {}  # member -> right(member)

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
            g = perm_mul(g, lv.transversal[g.index(images[lv.point])])
        return g

    def index_of(self, g) -> int:
        """The index of the member g; KeyError if g is not a member."""
        g = tuple(g)
        i = bisect_left(self.keys, self._key(g[: self._m]))
        if i == len(self.keys) or self.element(i) != g:
            raise KeyError(g)
        return i

    def orbit_map(self, maps, point) -> list:
        """out[i] is the image of point under x_i, when generator k sends a
        point y to maps[k][y] (a list, a dict or any indexable object).

        One pass over the walk's tree: out[0] = point and, as x = g_k *
        parent(x), out[x] = maps[k][out[parent(x)]]."""
        out = [point] * len(self.keys)
        parent, via = self._parent, self._via
        for x in self._walk[1:]:
            out[x] = maps[via[x]][out[parent[x]]]
        return out

    def word(self, i: int) -> list:
        """The generator numbers on the walk's tree path from the identity
        to element i, first step first: x_i = g_{w[-1]} * ... * g_{w[0]},
        so left-multiplying x_j by g_{w[0]}, then g_{w[1]}, ... gives x_i * x_j."""
        w = []
        while i:
            w.append(self._via[i])
            i = self._parent[i]
        w.reverse()
        return w

    def right(self, h) -> list:
        """right(h)[i] is the index of x_i * h: the orbit map of h's index,
        G acting on its index by left multiplication. Each list is made once
        per member h and shared by every caller, so it must not be changed;
        KeyError if h is not a member."""
        h = tuple(h)
        out = self._rights.get(h)
        if out is None:
            out = self._rights[h] = self.orbit_map(self.left, self.index_of(h))
        return out


class Cosets(Sequence):
    """The left cosets gH of the subgroup H that the given members
    generate, on their group's element index.

    A coset is an orbit of the index under right multiplication by the
    generators, their right maps numbered by orbit_numbering: reps[c] is the
    index of coset c's least member, cosets are numbered by increasing reps,
    and of[i] is the coset of element i: coset 0 is H, and there is one iff
    H is the group. As a sequence, cosets yield their least members as
    tuples.
    """

    def __init__(self, index: ElementIndex, generators):
        self.index = index
        self.of, self.reps = orbit_numbering(range(len(index)), list(map(index.right, generators)))

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
    return Cosets(G.element_index(), H.generators)


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
    each orbit. Before a chain test, two bounds on cycle counts
    (_CycleBound) rule out most sigma that cannot generate with tau, with no
    chain and no centralizer. One lazy loop, _partners, lists the partners
    of a class representative; the full search reads all of them and
    first_pair only the first. A class's centralizer is computed only when
    one of its chain tests fails or a second partner is asked for.

    The candidates for tau and sigma come from one scan of G through its
    chain (_elements_of_orders), which reads each element's order from its
    base points' cycles and builds only the elements of the two orders.
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
    """Yield (a, transversal, centralizer) per conjugacy class that meets
    `members`, a sorted list of elements closed under conjugation.

    a is the least member of its class, transversal maps each class member x
    to some t with t a t^-1 = x. centralizer() computes generators of C_G(a)
    when called (_centralizer_generators), so a class whose representative
    admits no partner never builds them.
    """
    actions = [_Conjugation(g, members) for g in G.generators]
    seen = bytearray(len(members))
    for i, p in enumerate(members):
        if seen[i]:
            continue
        transversal, schreier = schreier_orbit(p, actions, G.generators, G.identity)
        for x in transversal:
            seen[bisect_left(members, x)] = 1
        yield p, transversal, partial(_centralizer_generators, G.degree, schreier)


def _centralizer_generators(degree, schreier):
    """The Schreier generators of a conjugation orbit, which generate the
    centralizer of its point, pruned on chains to a set in which no
    generator lies in the group of the others."""
    chain = StabilizerChain(degree)
    kept = []
    for s in schreier:
        if not chain.contains(s):
            chain.add_generator(s)
            kept.append(s)
    # the last one kept lies outside the group of all the others
    for s in kept[:-1]:
        rest = [r for r in kept if r != s]
        if _generates_order(degree, rest, chain.order()):
            kept = rest
    return kept


class _CycleBound:
    """Two necessary conditions for <a, b> = G on the cycle counts c(p),
    fixed points included, of a and of b = bs[i]; n is the degree.

    - Orbits: the cycles of a and b join at most 2n - c(a) - c(b) pairs of
      points, so <a, b> has at least c(a) + c(b) - n orbits, and that must
      be at most the number of orbits of G. For a transitive G this is
      genus >= 0 in Riemann-Hurwitz for the triple (a, b, (ab)^-1), read
      with c((ab)^-1) >= 1.
    - Parity: when G has an odd generator, a or b is odd; p is odd when
      n - c(p) is.

    Both read cycle types only, so each is constant on the orbit of b under
    conjugation by C_G(a). Each b's count is taken when admits first asks
    for it and kept for the life of the bound, one search call; bs may grow
    in the meantime.
    """

    def __init__(self, G: PermutationGroup, bs):
        n = self.degree = G.degree
        self.bs = bs
        self.orbits = len(orbit_numbering(range(n), G.generators)[1])
        self.odd = any((n - cycle_count(g)) % 2 for g in G.generators)
        self.counts = {}  # i -> c(bs[i])
        self.a = None

    def admits(self, a, i) -> bool:
        """False when a condition rules out <a, bs[i]> = G."""
        n = self.degree
        if a is not self.a:
            self.a, count = a, cycle_count(a)
            self.most = n + self.orbits - count  # the most cycles b may have
            self.odd_b = self.odd and (n - count) % 2 == 0  # b must be odd
        count = self.counts.get(i)
        if count is None:
            count = self.counts[i] = cycle_count(self.bs[i])
        return count <= self.most and not (self.odd_b and (n - count) % 2 == 0)


def _partners(G, order, a, bs, centralizer, product_order, bound):
    """Yield, in sorted order, each b in the sorted list bs with <a, b> = G
    (and |a b| = product_order); bs is closed under conjugation by the
    centralizer of a, and bound is a _CycleBound on bs.

    A chain test's verdict holds on the orbit of b under that conjugation,
    so each orbit is tested once and marked. A b that fails the
    product-order filter or the bound is skipped without a chain test and
    without marking its orbit: every b in that orbit fails it too. A b that
    passes is yielded before its orbit is marked, so the centralizer's
    generators, from calling centralizer() once, are read only after the
    caller asks for a second partner or a chain test fails.
    """
    conjugators = None
    verdicts = bytearray(len(bs))  # 1: fails, 2: generates; set per orbit
    for i, b in enumerate(bs):
        if verdicts[i] == 2:
            yield b
        if (
            verdicts[i]
            or (product_order is not None and perm_order(perm_mul(a, b)) != product_order)
            or not bound.admits(a, i)
        ):
            continue
        verdict = 2 if _generates_order(G.degree, (a, b), order) else 1
        if verdict == 2:
            yield b
        if conjugators is None:
            conjugators = [(c, perm_inv(c)) for c in centralizer()]
        verdicts[i] = verdict
        orbit = [b]
        for x in orbit:
            for c, c_inv in conjugators:
                k = bisect_left(bs, perm_mul(c, perm_mul(x, c_inv)))
                if not verdicts[k]:
                    verdicts[k] = verdict
                    orbit.append(bs[k])


def _chain_products(chain: StabilizerChain, first: int = 0):
    """(heads, tail): every element of the group of the chain's levels from
    `first` on is head * t for exactly one head that heads() walks and one t
    in tail, one transversal element per level. tail is the trailing levels
    multiplied out once (as many as keep it at most sqrt|G| long, |G| the
    whole chain's order, and at least the last one past `first`); heads(u)
    walks u times the products of the levels between. With no such level
    both give only the identity (or u)."""
    ident = perm_id(chain.degree)
    levels = chain.levels
    order = chain.order()
    tail, depth = [ident], len(levels)
    while depth > first:
        depth -= 1
        tail = [perm_mul(u, t) for u in levels[depth].transversal.values() for t in tail]
        if depth == first or (len(tail) * len(levels[depth - 1].transversal)) ** 2 > order:
            break

    def heads(prefix=ident, level=first):
        if level == depth:
            yield prefix
            return
        for u in levels[level].transversal.values():
            yield from heads(perm_mul(prefix, u), level + 1)

    return heads, tail


def _buckets_of_orders(chain: StabilizerChain, order_a: int, order_b: int):
    """Yield (firsts, bs) per bucket: the sorted elements of order order_a
    and of order order_b among the bucket's. Concatenated, the buckets give
    the sorted elements of each order of the chain's group.

    When the group fixes every point below the first base point b, bucket v
    holds the elements p with p(b) = v, for v ascending: level 0's
    transversal element for v times _chain_products(chain, 1). Elements of
    different buckets first differ at b, so the buckets follow
    lexicographic order. Otherwise the whole group is one bucket.

    No element is built to find its order. Only the identity fixes every
    base point, so the order of p = head * t is the lcm of the lengths of
    the base points' cycles under p. The scan walks them in turn, as
    head[t[x]], keeping that lcm as it goes, and drops p at the first
    cycle past the longest length dividing order_a or order_b, or whose
    length makes the lcm divide neither. It builds p only when the lcm,
    every base point walked, is order_a or order_b. Only the elements kept
    are ever held, not all of G.
    """
    ident = perm_id(chain.degree)
    levels = chain.levels
    if not levels:
        yield ([ident] if order_a == 1 else []), ([ident] if order_b == 1 else [])
        return
    base = levels[0].point
    rest = [lv.point for lv in levels[1:]]
    longest = max(n for n in range(1, chain.degree + 1) if order_a % n == 0 or order_b % n == 0)
    # the group fixes the points below base iff every level's generators do
    if all(g[x] == x for lv in levels for g in lv.gens for x in range(base)):
        heads, tail = _chain_products(chain, 1)
        transversal = levels[0].transversal
        prefixes = [transversal[v] for v in sorted(transversal)]
    else:
        heads, tail = _chain_products(chain)
        prefixes = [ident]
    for prefix in prefixes:
        firsts, bs = [], []
        for head in heads(prefix):
            for t in tail:
                # most elements fail at the first base point: walk it inline
                x, order = head[t[base]], 1
                while x != base and order < longest:
                    x, order = head[t[x]], order + 1
                if x != base or order_a % order and order_b % order:
                    continue
                for b in rest:
                    x, length = head[t[b]], 1
                    while x != b and length < longest:
                        x, length = head[t[x]], length + 1
                    if x != b:
                        break
                    if order % length:
                        order = lcm(order, length)
                        if order_a % order and order_b % order:
                            break
                else:
                    if order == order_a or order == order_b:
                        p = perm_mul(head, t)
                        if order == order_a:
                            firsts.append(p)
                        if order == order_b:
                            bs.append(p)
        firsts.sort()
        bs.sort()
        yield firsts, bs


def _elements_of_orders(chain: StabilizerChain, order_a: int, order_b: int):
    """(firsts, bs): the sorted elements of order order_a and of order
    order_b of the chain's group, every bucket of _buckets_of_orders read."""
    firsts, bs = [], []
    for more_firsts, more_bs in _buckets_of_orders(chain, order_a, order_b):
        firsts += more_firsts
        bs += more_bs
    return firsts, bs


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
    of the class representative a (see PairSearch), and only for a b that
    the _CycleBound admits; the bound keeps each b's cycle count for every
    class of this one call. With all_first, a
    conjugate t a t^-1 takes its verdicts from a's:
    verdict(t a t^-1, b) = verdict(a, t^-1 b t).

    The elements of orders order_a and order_b come from one scan of G as
    head * t, t from a table of the chain's trailing levels: the order of
    head * t is the lcm of its base points' cycle lengths, and an element
    is built only when that is order_a or order_b (_buckets_of_orders).
    """
    order = G.order()
    firsts, bs = _elements_of_orders(G.chain(), order_a, order_b)
    bound = _CycleBound(G, bs)
    pairs = []
    total = 0
    n_classes = 0
    conjugates = {}  # with all_first: member t a t^-1 -> (partners of a, t)
    for a, transversal, centralizer in _conjugacy_classes(G, firsts):
        n_classes += 1
        partners = list(_partners(G, order, a, bs, centralizer, product_order, bound))
        if all_first:
            for x, t in transversal.items():
                conjugates[x] = (partners, t)
        else:
            pairs += [(a, b) for b in partners]
            total += len(transversal) * len(partners)
    if not all_first:
        return PairSearch(G.name, pairs, total, product_order, n_classes)
    for x in firsts:
        partners, t = conjugates[x]
        t_inv = perm_inv(t)
        # positions of the t b t^-1 for the partners b of a, so pairs share bs's tuples
        moved = [bisect_left(bs, perm_mul(t, perm_mul(b, t_inv))) for b in partners]
        pairs += [(x, bs[k]) for k in sorted(moved)]
    return PairSearch(G.name, pairs, len(pairs), product_order, len(firsts))


def first_pair(G: PermutationGroup, product_order: int | None = None):
    """search_23_pairs(G, product_order).pairs[0], or None when that search
    finds no pair, without the rest of the search.

    The least involution a is the first class's representative, and its
    partner is the first that _partners yields: the least b of order 3 that
    passes the search's tests. The buckets of _buckets_of_orders are read
    only until they hold a and a b that passes every test, in order; a b
    that the product order or the _CycleBound rules out is skipped without
    a chain test. The first failed chain test, or an a with no partner once
    every bucket is read, hands over to the class path, on the rest of the
    buckets: the classes are computed only then, and their representatives
    tried in order, each class's centralizer only if a chain test needs it.
    """
    order = G.order()
    firsts, bs = [], []
    bound = _CycleBound(G, bs)
    tested, lazy = 0, True  # bs[:tested] were tried with firsts[0]
    for more_firsts, more_bs in _buckets_of_orders(G.chain(), 2, 3):
        firsts += more_firsts
        bs += more_bs
        while lazy and firsts and tested < len(bs):
            a, b = firsts[0], bs[tested]
            tested += 1
            if (
                product_order is None or perm_order(perm_mul(a, b)) == product_order
            ) and bound.admits(a, tested - 1):
                if _generates_order(G.degree, (a, b), order):
                    return a, b
                lazy = False
    for a, _, centralizer in _conjugacy_classes(G, firsts):
        b = next(_partners(G, order, a, bs, centralizer, product_order, bound), None)
        if b is not None:
            return a, b
    return None


def search_23_pairs(
    G: PermutationGroup,
    product_order: int | None = None,
    all_involutions: bool = False,
) -> PairSearch:
    """All (tau, sigma) with |tau|=2, |sigma|=3, <tau,sigma>=G, and optionally
    |tau*sigma| = product_order; tau up to conjugacy unless all_involutions."""
    return search_pairs(G, 2, 3, product_order, all_involutions)


# -- constructors -------------------------------------------------------------

# The largest degree that symmetric, alternating, cyclic and dihedral take:
# S_256's chain holds about 33,000 transversal tuples of 256 points.
DEGREE_CAP = 256


def _check_degree(ctor: str, n: int):
    """GroupError unless 1 <= n <= DEGREE_CAP, before anything of degree n is built."""
    if n < 1:
        raise GroupError(f"{ctor}(n) needs n >= 1")
    if n > DEGREE_CAP:
        raise GroupError(f"{ctor}({n}): the degree is capped at {DEGREE_CAP}")


def cyclic(n: int) -> PermutationGroup:
    """Z/nZ as the n-cycle (0 1 ... n-1); canonical generator g."""
    _check_degree("cyclic", n)
    if n == 1:
        return PermutationGroup(1, [], "Z1")
    g = tuple(list(range(1, n)) + [0])
    return PermutationGroup(n, [g], f"Z{n}")


def dihedral(n: int) -> PermutationGroup:
    """Symmetries of the regular n-gon (order 2n), named by group order."""
    _check_degree("dihedral", n)
    if n == 1:
        return PermutationGroup(2, [(1, 0)], "D2")
    if n == 2:
        return PermutationGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)], "D4")
    rot = tuple(list(range(1, n)) + [0])
    refl = tuple((n - i) % n for i in range(n))
    return PermutationGroup(n, [rot, refl], f"D{2 * n}")


def symmetric(n: int) -> PermutationGroup:
    """S_n on 0..n-1 with generators (0 1) and (0 1 ... n-1)."""
    _check_degree("symmetric", n)
    if n == 1:
        return PermutationGroup(1, [], "S1")
    gens = [perm_from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermutationGroup(n, gens, f"S{n}")


def alternating(n: int) -> PermutationGroup:
    """A_n with generators (0 1 2) and an n- or (n-1)-cycle."""
    _check_degree("alternating", n)
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
    """G x H acting on the disjoint union of the two point sets; GroupError
    if its degree is over DEGREE_CAP, before the product is built."""
    n, m = G.degree, H.degree
    if n + m > DEGREE_CAP:
        raise GroupError(
            f"{G.name}x{H.name} has degree {n + m}; the degree is capped at {DEGREE_CAP}"
        )
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
    """Map element order -> count, over the chain's head * t products (see
    _chain_products); the elements are neither sorted nor kept."""
    heads, tail = _chain_products(G.chain())
    return dict(Counter(perm_order(perm_mul(h, t)) for h in heads() for t in tail))


@dataclass
class Catalog:
    """Named small groups bucketed by order, with completeness flags."""

    groups: list[PermutationGroup] = field(default_factory=list)
    complete_orders: set = field(default_factory=set)

    def by_order(self, n: int) -> list[PermutationGroup]:
        return [G for G in self.groups if G.order() == n]

    def get(self, name: str) -> PermutationGroup | None:
        for G in self.groups:
            if G.name == name:
                return G
        return None

    def is_complete_for(self, order: int) -> bool:
        return order in self.complete_orders


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _catalog_field(record, at, key, kind):
    """record[key], which must be of type kind; CatalogError naming the
    field's path otherwise."""
    path = f"{at}.{key}"
    if not isinstance(record, dict) or key not in record:
        raise CatalogError(f"catalog: missing field {path!r}")
    value = record[key]
    if type(value) is not kind:
        raise CatalogError(f"catalog: {path!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def load_catalog(path) -> Catalog:
    """Load and validate a catalog file.

    Every field is checked as it is read: a list of sections, each with an
    integer order and a list of groups, each group with a name, a degree,
    generators of that degree and an order spectrum. A bad field raises
    CatalogError naming its path, such as '2.groups.1.generators.0'.
    Then section counts must match the published isomorphism-type counts,
    names must be unique, and every group's order and order spectrum must
    match the shipped fingerprints.
    """
    data = read_json(path)
    if not isinstance(data, list):
        raise CatalogError(
            f"catalog: the top level must be a list of sections, got {type(data).__name__}"
        )
    catalog = Catalog()
    seen_names = set()
    for i, section in enumerate(data):
        order = _catalog_field(section, f"{i}", "order", int)
        groups = _catalog_field(section, f"{i}", "groups", list)
        if order in KNOWN_GROUP_COUNTS:
            if len(groups) != KNOWN_GROUP_COUNTS[order]:
                raise CatalogError(
                    f"order {order}: catalog has {len(groups)} groups, "
                    f"published count is {KNOWN_GROUP_COUNTS[order]}"
                )
            catalog.complete_orders.add(order)
        elif section.get("complete"):
            catalog.complete_orders.add(order)
        for j, rec in enumerate(groups):
            at = f"{i}.groups.{j}"
            name = _catalog_field(rec, at, "name", str)
            degree = _catalog_field(rec, at, "degree", int)
            gens = _catalog_field(rec, at, "generators", list)
            for k, g in enumerate(gens):
                if not (isinstance(g, list) and len(g) == degree and is_permutation(g)):
                    raise CatalogError(
                        f"catalog: '{at}.generators.{k}' must be a permutation of degree"
                        f" {degree}, got {g!r}"
                    )
            spectrum = _catalog_field(rec, at, "order_spectrum", dict)
            shipped = {}
            for key, count in spectrum.items():
                if not key.isdecimal() or type(count) is not int:
                    raise CatalogError(
                        f"catalog: '{at}.order_spectrum.{key}' must map an element order"
                        f" to an integer count, got {count!r}"
                    )
                shipped[int(key)] = count
            if name in seen_names:
                raise CatalogError(f"duplicate group name {name!r}")
            seen_names.add(name)
            G = PermutationGroup(degree, [tuple(g) for g in gens], name)
            if G.order() != order:
                raise CatalogError(
                    f"{name}: generators produce order {G.order()}, section says {order}"
                )
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
    spec, catalog: Catalog | Callable | None = None, allow_large_psl2: bool = False
) -> PermutationGroup:
    """Resolve a group from a catalog name, a constructor expression
    (sym:N, alt:N, cyc:N, dih:N, psl2:P, prod:A,B), or an inline JSON dict
    {"degree":..., "generators":[...], "name":...}. A name is looked up in
    catalog: a Catalog, a function that returns one, or None for the
    bundled catalog. A function is called at most once per call, and only
    when a name that no constructor reads, such as S3, needs it."""
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
    if isinstance(catalog, Catalog):
        return _group_from_string(spec, lambda: catalog, allow_large_psl2)
    return _group_from_string(spec, cache(catalog or load_default_catalog), allow_large_psl2)


def _group_from_string(spec: str, load, allow_large_psl2: bool):
    """group_from_spec of a string. load() returns the catalog, read only
    for a name, such as S3 or Z3:Z8, that no constructor reads."""
    kind, colon, arg = spec.partition(":")
    kind = kind.lower()
    ctor = {
        "sym": symmetric,
        "alt": alternating,
        "cyc": cyclic,
        "dih": dihedral,
        "psl2": lambda p: psl2(p, allow_large=allow_large_psl2),
    }.get(kind)
    if not (colon and (ctor or kind == "prod")):
        G = load().get(spec)
        if G is not None:
            return G
    if not colon:
        raise GroupError(f"unknown group {spec!r} (not in catalog, not a constructor)")
    if kind == "prod":
        left, _, right = arg.partition(",")
        if not left.strip() or not right.strip():
            raise GroupError(f"unknown group {spec!r}: prod needs two factors A,B")
        return direct_product(
            _group_from_string(left.strip(), load, allow_large_psl2),
            _group_from_string(right.strip(), load, allow_large_psl2),
        )
    if ctor is None:
        raise GroupError(f"unknown constructor {kind!r}")
    try:
        n = int(arg)
    except ValueError:
        raise GroupError(f"{spec!r}: {kind} needs an integer, got {arg!r}") from None
    return ctor(n)
