"""The trace VM's lane-wise ``a * b mod 2**61 - 1`` against exact integers.

:func:`repro.machine.trace._mulmod` splits each product into 32-bit halves
so it can stay in wrapping uint64 arithmetic; python's unbounded integers
are the reference it must match value for value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import trace

M = (1 << 61) - 1


@pytest.fixture(scope="module", autouse=True)
def _lanes_ready():
    assert trace._load_numpy()


def _exact(a, b) -> np.ndarray:
    return np.array([(int(x) * int(y)) % M for x, y in zip(a, b)], dtype=np.uint64)


def test_modulus_is_the_vm_modulus():
    from repro.graph.dfg import MODULUS

    assert trace._M == M == MODULUS


def test_random_lanes_match_exact():
    rng = np.random.default_rng(11)
    a = rng.integers(0, M, size=200, dtype=np.uint64)
    b = rng.integers(0, M, size=200, dtype=np.uint64)
    assert np.array_equal(trace._mulmod(a, b), _exact(a, b))


def test_scalar_broadcast_matches_exact():
    """Scalar-vector broadcasting, as the trace compiler uses it."""
    rng = np.random.default_rng(11)
    b = rng.integers(0, M, size=16, dtype=np.uint64)
    s = np.uint64(M - 1)
    out = trace._mulmod(s, b)
    assert np.array_equal(out, _exact([s] * len(b), b))


def test_edge_values_match_exact():
    edge = np.array([0, 1, M - 1, M // 2, 2**32, 2**32 - 1], dtype=np.uint64)
    rev = edge[::-1].copy()
    assert np.array_equal(trace._mulmod(edge, rev), _exact(edge, rev))
    # Every pair, squares included: the cross terms of the split multiply
    # peak at the extremes.
    a = np.repeat(edge, len(edge))
    b = np.tile(edge, len(edge))
    assert np.array_equal(trace._mulmod(a, b), _exact(a, b))
