"""Permutation kernel, pure Python.

Permutations are tuples of ints: p maps i to p[i]. Products act right to
left, (p*q)(i) = p(q(i)), so perm_mul(p, q) applies q first.
"""

from math import gcd
from operator import itemgetter


def perm_id(n):
    """Identity permutation on 0..n-1."""
    return tuple(range(n))


def perm_mul(p, q):
    """Product p*q acting right-to-left: (p*q)(i) = p(q(i))."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    # itemgetter with one index returns a bare item, and with none it raises
    return tuple(p[i] for i in q)


def perm_inv(p):
    """Inverse permutation."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_pow(p, k):
    """k-th power of p, k may be negative."""
    n = len(p)
    if k < 0:
        p = perm_inv(p)
        k = -k
    out = perm_id(n)
    while k:
        if k & 1:
            out = perm_mul(out, p)
        p = perm_mul(p, p)
        k >>= 1
    return out


def perm_order(p):
    """Least k >= 1 with p^k = identity (lcm of cycle lengths)."""
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


def mulclose(gens, limit=None):
    """Closure of gens under multiplication; returns a set of tuples.

    Raises ValueError when the closure exceeds `limit` elements.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        return set()
    els = set(gens)
    els.add(perm_id(len(gens[0])))
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = perm_mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if limit is not None and len(els) > limit:
                        raise ValueError(f"closure exceeds limit {limit}")
        frontier = new
    return els
