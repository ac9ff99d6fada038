"""The permutation kernel against plain reference versions."""

import random

import pytest

from conftest import perm_pow
from hcov import kernel


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def ref_mul(p, q):
    return tuple(p[i] for i in q)


def ref_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def ref_pow(p, k):
    step = ref_inv(p) if k < 0 else p
    out = tuple(range(len(p)))
    for _ in range(abs(k)):
        out = ref_mul(out, step)
    return out


def ref_order(p):
    identity = tuple(range(len(p)))
    q, k = p, 1
    while q != identity:
        q, k = ref_mul(q, p), k + 1
    return k


def ref_closure(gens):
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    queue = [identity]
    while queue:
        x = queue.pop()
        for g in gens:
            y = ref_mul(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def test_identity_and_mul():
    assert kernel.perm_id(4) == (0, 1, 2, 3)
    p = (1, 0, 2)
    q = (1, 2, 0)
    # right-to-left: (p*q)(x) = p(q(x))
    assert kernel.perm_mul(p, q) == (0, 2, 1)


def test_inverse_and_power():
    p = (1, 2, 3, 0)
    assert kernel.perm_mul(p, kernel.perm_inv(p)) == kernel.perm_id(4)
    assert perm_pow(p, 4) == kernel.perm_id(4)
    assert perm_pow(p, -1) == kernel.perm_inv(p)
    assert perm_pow(p, 5) == p


def test_order():
    assert kernel.perm_order((0, 1, 2)) == 1
    assert kernel.perm_order((1, 0, 3, 4, 2)) == 6


def test_mulclose_s3():
    els = kernel.mulclose([(1, 0, 2), (1, 2, 0)])
    assert len(els) == 6


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 44])
def test_kernel_matches_reference(n):
    # degrees 0 and 1 take perm_mul's generator path, the rest itemgetter's
    rng = random.Random(7 + n)
    for _ in range(50):
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        product = kernel.perm_mul(p, q)
        assert type(product) is tuple and product == ref_mul(p, q)
        assert kernel.perm_inv(p) == ref_inv(p)
        assert kernel.perm_order(p) == ref_order(p)
        k = rng.randrange(-6, 7)
        assert perm_pow(p, k) == ref_pow(p, k)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (5, 2), (6, 2), (7, 3)])
def test_mulclose_matches_reference(n, count):
    rng = random.Random(100 * n + count)
    for _ in range(5):
        gens = [random_perm(rng, n) for _ in range(count)]
        assert kernel.mulclose(gens) == ref_closure(gens)
