"""Alias of hcov.kernel, kept because the benchmark harness still imports hcov._pure."""

from hcov.kernel import mulclose, perm_id, perm_inv, perm_mul, perm_order, perm_pow  # noqa: F401
