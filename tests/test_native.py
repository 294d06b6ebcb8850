"""Tests for the optional C kernels and the live env-switch plumbing.

The native backend (:mod:`repro.native`) is off by default and must be
*provably optional*: every test here asserts either bit-identity against
the numpy reference or a clean ``None`` fallback.  The second half pins
the ``REPRO_*_THRESHOLD`` re-read behavior — environment changes made
*after* import must be honored (they once were read only at import time,
which made setting them afterwards silently dead).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import native


@pytest.fixture()
def native_state():
    """Snapshot/restore the module-level library cache around each test."""
    saved = (native._LIB, native._FAILED, native._np)
    yield native
    native._LIB, native._FAILED, native._np = saved


def _native_ready(monkeypatch) -> bool:
    monkeypatch.setenv("REPRO_NATIVE_KERNELS", "1")
    return native.native_available()


class TestSwitch:
    def test_disabled_by_default(self, monkeypatch, native_state):
        monkeypatch.delenv("REPRO_NATIVE_KERNELS", raising=False)
        assert not native.native_enabled()
        assert native.minplus_pass(
            np.zeros(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)
        ) is None
        assert native.mulmod61(
            np.ones(3, dtype=np.uint64), np.ones(3, dtype=np.uint64)
        ) is None

    def test_broken_compiler_falls_back(self, monkeypatch, tmp_path, native_state):
        """No compiler (or a failing one) must never raise — the wrappers
        return ``None`` and the numpy paths carry on."""
        monkeypatch.setenv("REPRO_NATIVE_KERNELS", "1")
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        native._LIB, native._FAILED = None, False
        assert native.minplus_pass(
            np.zeros(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
        ) is None
        assert native._FAILED  # the failure is remembered, not retried
        assert not native.native_available()

    def test_fallbacks_are_counted_with_a_reason(
        self, monkeypatch, tmp_path, native_state
    ):
        from repro import observability

        a = np.ones(3, dtype=np.uint64)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        native._LIB, native._FAILED = None, False
        observability.OBS.reset()
        observability.enable()
        try:
            monkeypatch.delenv("REPRO_NATIVE_KERNELS", raising=False)
            assert native.mulmod61(a, a) is None  # off: not a fallback
            monkeypatch.setenv("REPRO_NATIVE_KERNELS", "1")
            assert native.mulmod61(a, a) is None
            assert native.mulmod61(a, a) is None
            monkeypatch.setattr(native, "_numpy", lambda: None)
            assert native.mulmod61(a, a) is None
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
            observability.OBS.reset()
        assert counters == {
            "native.fallback.build_failed": 2,
            "native.fallback.no_numpy": 1,
        }


class TestBitIdentity:
    def test_minplus_pass_matches_numpy(self, monkeypatch, native_state):
        if not _native_ready(monkeypatch):
            pytest.skip("no working C compiler in this environment")
        INF = np.int64(2**61)
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            before = -rng.integers(0, 2**40, size=n).astype(np.int64)
            C = rng.integers(-(2**40), 2**40, size=(n, n)).astype(np.int64)
            # INF rows/entries must participate in the min exactly like the
            # numpy broadcast does (INF + negative weight beats INF).
            C[rng.random((n, n)) < 0.4] = INF
            ref = np.minimum(before, (before[:, None] + C).min(axis=0))
            out = native.minplus_pass(before, C)
            assert out is not None
            assert np.array_equal(out, ref)

    def test_mulmod61_matches_exact(self, monkeypatch, native_state):
        if not _native_ready(monkeypatch):
            pytest.skip("no working C compiler in this environment")
        M = (1 << 61) - 1
        rng = np.random.default_rng(11)
        a = rng.integers(0, M, size=200, dtype=np.uint64)
        b = rng.integers(0, M, size=200, dtype=np.uint64)
        ref = np.array(
            [(int(x) * int(y)) % M for x, y in zip(a, b)], dtype=np.uint64
        )
        out = native.mulmod61(a, b)
        assert out is not None and np.array_equal(out, ref)
        # Scalar-vector broadcasting, mirroring the trace backend's use.
        s = np.uint64(M - 1)
        out = native.mulmod61(s, b[:16])
        ref = np.array([(int(s) * int(y)) % M for y in b[:16]], dtype=np.uint64)
        assert np.array_equal(out, ref)
        edge = np.array([0, 1, M - 1, M // 2, 2**32, 2**32 - 1], dtype=np.uint64)
        out = native.mulmod61(edge, edge[::-1].copy())
        ref = np.array(
            [(int(x) * int(y)) % M for x, y in zip(edge, edge[::-1])],
            dtype=np.uint64,
        )
        assert np.array_equal(out, ref)


class TestEndToEnd:
    def test_minimize_cycle_period_identical(self, monkeypatch, native_state):
        """The full period search is bit-identical with the C pass live."""
        if not _native_ready(monkeypatch):
            pytest.skip("no working C compiler in this environment")
        from repro.graph.generators import random_unit_time_dfg
        from repro.retiming import incremental as inc_mod
        from repro.retiming.optimal import minimize_cycle_period

        g = random_unit_time_dfg(
            random.Random(3), num_nodes=40, extra_edges=40, max_delay=4
        )
        saved = inc_mod._NUMPY_THRESHOLD
        try:
            inc_mod._NUMPY_THRESHOLD = 0  # force the dense numpy backend
            monkeypatch.setenv("REPRO_NATIVE_KERNELS", "0")
            p_ref, r_ref = minimize_cycle_period(g, method="incremental")
            monkeypatch.setenv("REPRO_NATIVE_KERNELS", "1")
            p_nat, r_nat = minimize_cycle_period(g, method="incremental")
        finally:
            inc_mod._NUMPY_THRESHOLD = saved
        assert p_nat == p_ref
        assert r_nat.as_dict() == r_ref.as_dict()

    def test_trace_backend_identical(self, monkeypatch, native_state):
        """A traced VM run is bit-identical with the C mulmod live."""
        if not _native_ready(monkeypatch):
            pytest.skip("no working C compiler in this environment")
        from repro.core import csr_pipelined_loop
        from repro.machine import run_program
        from repro.retiming.optimal import minimize_cycle_period
        from repro.workloads import WORKLOADS

        g = WORKLOADS["elliptic"]()
        _, r = minimize_cycle_period(g)
        p = csr_pipelined_loop(g, r)
        n = 400 + (p.meta.get("min_n", 1) or 1)
        monkeypatch.setenv("REPRO_NATIVE_KERNELS", "0")
        ref = run_program(p, n)
        monkeypatch.setenv("REPRO_NATIVE_KERNELS", "1")
        out = run_program(p, n)
        assert out.arrays == ref.arrays
        assert (out.executed, out.disabled) == (ref.executed, ref.disabled)


class TestThresholdEnvReRead:
    """``REPRO_*_NUMPY_THRESHOLD`` changes after import must take effect.

    Regression tests for the snapshot-compare pattern: each module keeps
    the env string it last parsed and re-parses on change, so both
    post-import ``setenv`` *and* direct ``_NUMPY_THRESHOLD`` monkeypatching
    (used throughout the test-suite) keep working.
    """

    @pytest.mark.parametrize(
        "mod_path, env",
        [
            ("repro.graph.wd", "REPRO_WD_NUMPY_THRESHOLD"),
            ("repro.graph.kernel", "REPRO_KERNEL_NUMPY_THRESHOLD"),
            ("repro.retiming.incremental", "REPRO_INC_NUMPY_THRESHOLD"),
        ],
    )
    def test_post_import_setenv_honored(self, monkeypatch, mod_path, env):
        import importlib

        mod = importlib.import_module(mod_path)
        default = mod._current_threshold()
        monkeypatch.setenv(env, "3")
        assert mod._current_threshold() == 3
        monkeypatch.setenv(env, "not-a-number")  # unparsable -> default
        assert mod._current_threshold() == default
        monkeypatch.delenv(env)
        assert mod._current_threshold() == default
        # With the env untouched, direct monkeypatching still wins.
        monkeypatch.setattr(mod, "_NUMPY_THRESHOLD", 12345)
        assert mod._current_threshold() == 12345

    def test_solver_backend_follows_env(self, monkeypatch):
        """End to end: the env var set *after* import selects the
        incremental solver's relaxation backend."""
        from repro.graph.generators import random_unit_time_dfg
        from repro.graph.wd import wd_matrices
        from repro.retiming.incremental import IncrementalFeasibility

        g = random_unit_time_dfg(
            random.Random(1), num_nodes=12, extra_edges=12, max_delay=3
        )
        W, D = wd_matrices(g)
        monkeypatch.setenv("REPRO_INC_NUMPY_THRESHOLD", "0")
        assert IncrementalFeasibility(g, W, D)._use_numpy
        monkeypatch.setenv("REPRO_INC_NUMPY_THRESHOLD", "1000000")
        assert not IncrementalFeasibility(g, W, D)._use_numpy
