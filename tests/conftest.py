"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.graph import DFG, OpKind
from repro.graph.generators import random_dfg
from repro.runner import resilience
from repro.workloads import (
    benchmark_graphs,
    figure1,
    figure2_example,
    figure4_loop,
    figure8,
    get_workload,
)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden report files under tests/data/golden/ "
        "from current output instead of comparing against them",
    )


@pytest.fixture
def regen_golden(request) -> bool:
    return request.config.getoption("--regen-golden")


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """A test that activates a fault plan must not leak it into the next
    test — the global is process state, like the observability singleton."""
    yield
    resilience.deactivate()


# ----------------------------------------------------------------------
# Hand-built fixture graphs
# ----------------------------------------------------------------------


@pytest.fixture
def fig1() -> DFG:
    return figure1()


@pytest.fixture
def fig2() -> DFG:
    return figure2_example()


@pytest.fixture
def fig4() -> DFG:
    return figure4_loop()


@pytest.fixture
def fig8() -> DFG:
    return figure8()


@pytest.fixture(params=["iir", "diffeq", "allpole", "elliptic", "lattice", "volterra"])
def bench_graph(request) -> DFG:
    """Parametrized over all six paper benchmarks."""
    return get_workload(request.param)


@pytest.fixture
def two_node_cycle() -> DFG:
    """Minimal cyclic graph: A -> B (d=0), B -> A (d=2)."""
    g = DFG("two")
    g.add_node("A", op=OpKind.ADD, imm=1)
    g.add_node("B", op=OpKind.MUL, imm=2)
    g.add_edge("A", "B", 0)
    g.add_edge("B", "A", 2)
    return g


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def dfgs(
    draw,
    max_nodes: int = 7,
    max_extra_edges: int = 6,
    max_delay: int = 3,
    max_time: int = 1,
) -> DFG:
    """Random legal cyclic DFGs (seed-driven, shrinkable via the seed)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    rng = random.Random(seed)
    return random_dfg(
        rng,
        num_nodes=num_nodes,
        extra_edges=extra,
        max_delay=max_delay,
        max_time=max_time,
    )


@st.composite
def timed_dfgs(draw, max_nodes: int = 6, max_time: int = 5) -> DFG:
    """Random DFGs with non-unit node times."""
    return draw(dfgs(max_nodes=max_nodes, max_time=max_time))


def random_legal_retiming(g, rng: random.Random, max_pushes: int = 8):
    """A random legal normalized retiming built from delay pushes.

    Used by property tests to exercise code generation away from the
    optimizer's witnesses (which have special structure).
    """
    from repro.retiming import Retiming
    from repro.schedule import can_push, push_nodes

    r = Retiming.zero(g)
    for _ in range(rng.randrange(max_pushes + 1)):
        candidates = [n for n in g.node_names() if can_push(r.apply(), {n})]
        if not candidates:
            break
        r = push_nodes(r, {rng.choice(candidates)})
    return r.normalized()
