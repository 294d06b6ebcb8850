"""Golden pins for every program the nine loop generators emit.

One sha256 per case over the program listing plus its ``meta`` (``meta``
is ``compare=False`` on :class:`LoopProgram`, so it needs its own place in
the hash: the VM and the C emitter read its trip-count contract).  The
cases are every workload x every generator x ``f = 1..4`` x every residue
or leftover x both CSR decrement modes — 49 per workload.

When an intentional change moves a program, regenerate with::

    PYTHONPATH=src python -m pytest tests/codegen/test_programs_golden.py --regen-golden

and review the diff of ``tests/data/golden/programs.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.codegen import (
    format_program,
    original_loop,
    pipelined_loop,
    retimed_unfolded_loop,
    unfold_retimed_loop,
    unfolded_loop,
)
from repro.core import (
    PER_COPY,
    PER_ITERATION,
    csr_pipelined_loop,
    csr_retimed_unfolded_loop,
    csr_unfold_retimed_loop,
    csr_unfolded_loop,
)
from repro.graph import DFGError
from repro.retiming import Retiming, minimize_cycle_period
from repro.unfolding import retime_unfold, unfold, unfold_retime
from repro.workloads import WORKLOADS, get_workload

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden" / "programs.json"
FACTORS = (1, 2, 3, 4)


def digest(program) -> str:
    text = format_program(program) + "\n" + json.dumps(program.meta, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cases(name: str):
    """``(case id, program)`` for every generator call on workload ``name``."""
    g = get_workload(name)
    _, r = minimize_cycle_period(g)
    yield "original", original_loop(g)
    yield "pipelined", pipelined_loop(g, r)
    yield "csr_pipelined", csr_pipelined_loop(g, r)
    for f in FACTORS:
        r_ru = retime_unfold(g, f).retiming
        r_ur = unfold_retime(g, f).retiming
        yield f"csr_unfolded/f={f}", csr_unfolded_loop(g, f)
        for mode in (PER_COPY, PER_ITERATION):
            yield (
                f"csr_retimed_unfolded/f={f}/{mode}",
                csr_retimed_unfolded_loop(g, r_ru, f, mode),
            )
        yield f"csr_unfold_retimed/f={f}", csr_unfold_retimed_loop(g, r_ur, f)
        for k in range(f):
            yield f"unfolded/f={f}/residue={k}", unfolded_loop(g, f, k)
            yield (
                f"retimed_unfolded/f={f}/leftover={k}",
                retimed_unfolded_loop(g, r_ru, f, k),
            )
            yield f"unfold_retimed/f={f}/residue={k}", unfold_retimed_loop(g, r_ur, f, k)


def all_digests() -> dict[str, str]:
    return {
        f"{name}/{case}": digest(program)
        for name in sorted(WORKLOADS)
        for case, program in cases(name)
    }


def test_every_program_matches_its_golden(regen_golden):
    current = all_digests()
    assert len(current) == 49 * len(WORKLOADS)
    if regen_golden:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return
    assert GOLDEN.exists(), "missing programs.json; generate it with pytest --regen-golden"
    golden = json.loads(GOLDEN.read_text())
    assert current.keys() == golden.keys()
    moved = sorted(k for k in golden if current[k] != golden[k])
    assert not moved, f"{len(moved)} programs diverged from their golden, e.g. {moved[:5]}"


class TestErrors:
    """The generators' input checks, with their messages and their order."""

    def test_bad_factor_comes_first(self, fig2):
        r = Retiming(fig2)
        for call in (
            lambda: unfolded_loop(fig2, 0, 5),
            lambda: retimed_unfolded_loop(fig2, r, 0, 5),
            lambda: unfold_retimed_loop(fig2, r, 0, 5),
            lambda: csr_unfolded_loop(fig2, 0),
            lambda: csr_retimed_unfolded_loop(fig2, r, 0),
            lambda: csr_unfold_retimed_loop(fig2, r, 0),
        ):
            with pytest.raises(DFGError, match=r"^unfolding factor must be >= 1, got 0$"):
                call()

    def test_bad_residue_or_leftover_comes_before_the_copy_set(self, fig2):
        r = Retiming(fig2)
        with pytest.raises(DFGError, match=r"^residue must be in \[0, 2\), got 2$"):
            unfolded_loop(fig2, 2, 2)
        with pytest.raises(DFGError, match=r"^leftover must be in \[0, 2\), got -1$"):
            retimed_unfolded_loop(fig2, r, 2, -1)
        with pytest.raises(DFGError, match=r"^residue must be in \[0, 2\), got 3$"):
            unfold_retimed_loop(fig2, r, 2, 3)

    def test_wrong_copy_set(self, fig2):
        r = Retiming(fig2)
        for call in (
            lambda: unfold_retimed_loop(fig2, r, 2),
            lambda: csr_unfold_retimed_loop(fig2, r, 2),
        ):
            with pytest.raises(DFGError, match=r"^retiming is not over the unfolded copies of g$"):
                call()

    def test_copy_set_is_checked_before_legality(self, fig2):
        illegal = Retiming(fig2, {v: (7 if v == "A" else 0) for v in fig2.node_names()})
        with pytest.raises(DFGError, match="unfolded copies"):
            unfold_retimed_loop(fig2, illegal, 2)
        gf = unfold(fig2, 2)
        illegal_gf = Retiming(gf, {c: (7 if c.startswith("A") else 0) for c in gf.node_names()})
        for call in (
            lambda: unfold_retimed_loop(fig2, illegal_gf, 2),
            lambda: csr_unfold_retimed_loop(fig2, illegal_gf, 2),
        ):
            with pytest.raises(DFGError) as exc:
                call()
            assert "unfolded copies" not in str(exc.value)
