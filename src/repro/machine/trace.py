"""Execution traces and the trace-compiling masked-vector backend.

Two things live here:

* :class:`TraceEvent` / :class:`ExecutionTrace` — the per-instruction
  execution record the reference interpreter produces on request, used by
  tests to assert execution-order properties (the substance of the paper's
  Theorems 4.1/4.2/4.6).

* The **trace compiler** — :func:`body_hook` (sequential VM) and
  :func:`packed_body_trace` (VLIW VM).  Both VMs spend essentially all
  their time re-running the same compiled loop body once per iteration.
  The trace compiler analyzes that body *once* and, when it can prove the
  whole trip vectorizable, replaces the per-iteration loop with a handful
  of numpy array operations over the full trip count:

  - every guard ``-n < p + offset <= 0`` is an affine progression in the
    iteration number (registers only move by a constant net decrement per
    iteration), so each guarded instruction's active iterations form one
    exact closed-form **window** ``[klo, khi]`` — disabled instances are
    never materialized, they are the complement of the window;
  - window boundaries cut the trip into **segments** inside which every
    instruction is either fully active or fully inactive; per segment the
    loop-carried dependence graph is condensed (Tarjan SCC) and acyclic
    components evaluate as single vectorized expressions over iteration
    vectors, while cyclic components (`x[i]` feeding `x[i-1]` …) are
    solved as affine recurrences ``s_{k+1} = T s_k + c_k`` over the
    component's state basis with a blocked matrix scan — exact modular
    integer arithmetic throughout (``2**61 - 1``, the VM modulus, with a
    split-multiply ``mulmod`` on uint64 lanes);
  - anything the analysis cannot prove — multiple writers of one array,
    non-affine recurrences (state × state products), malformed arities,
    write collisions or range violations, registers read before setup —
    makes the hook return ``None`` **before touching any machine state**,
    and the caller falls back to the dispatch interpreter, which remains
    the semantics reference (bit-identical results, errors and counters).

  ``REPRO_VM_TRACE=0`` disables the backend entirely (every hook returns
  ``None``), which is also the differential-testing lever.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass, field
from math import isqrt

from ..graph.dfg import MODULUS, OpKind
from ..observability import count
from .dispatch import _DEC, _ERR, _LOOP, _SETUP, _TRIP

__all__ = ["TraceEvent", "ExecutionTrace", "body_hook", "packed_body_trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One executed compute: node name, instance written, region of origin.

    ``region`` is ``"pre"``, ``"body"`` or ``"post"``; ``i`` is the loop
    variable value for body events and ``None`` elsewhere.
    """

    node: str
    instance: int
    region: str
    i: int | None


@dataclass
class ExecutionTrace:
    """Ordered record of one program execution."""

    events: list[TraceEvent] = field(default_factory=list)
    disabled: int = 0  # guarded computes whose predicate was off

    def record(self, node: str, instance: int, region: str, i: int | None) -> None:
        """Append one executed compute."""
        self.events.append(TraceEvent(node=node, instance=instance, region=region, i=i))

    def order_of(self) -> dict[tuple[str, int], int]:
        """Map ``(node, instance) -> position`` in execution order."""
        return {(e.node, e.instance): k for k, e in enumerate(self.events)}

    def instances_of(self, node: str) -> list[int]:
        """Instances of ``node`` in execution order."""
        return [e.instance for e in self.events if e.node == node]

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------------
# Trace-compiling vector backend
# --------------------------------------------------------------------------

_M = (1 << 61) - 1  # must equal the VM modulus for the mulmod kernel

#: Trips longer than this fall back to the interpreter rather than
#: materializing per-iteration vectors (memory guard).
_MAX_TRACE_TRIP = 5_000_000

#: Cyclic components with a state basis larger than this fall back (the
#: blocked scan is O(d^2) numpy calls per step; real pipelined filter
#: bodies have d of 1-5).
_MAX_STATE_DIM = 16

#: numpy, bound by :func:`_load_numpy` on the first traceable body, so
#: programs that never trace (and every CLI start-up) skip the import.
_np = None


def _load_numpy() -> bool:
    """Import numpy and build the uint64 lane constants; ``False`` if
    numpy is missing (every hook then declines and the interpreter runs).

    ``_np`` is published last: a concurrent caller that sees it bound
    also sees every constant.
    """
    global _np, _UM, _U_MASK32, _U_MASK29, _U32, _U29, _U61, _U3
    if _np is not None:
        return True
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a baked-in dependency
        return False
    _UM = np.uint64(_M)
    _U_MASK32 = np.uint64(0xFFFFFFFF)
    _U_MASK29 = np.uint64((1 << 29) - 1)
    _U32 = np.uint64(32)
    _U29 = np.uint64(29)
    _U61 = np.uint64(61)
    _U3 = np.uint64(3)
    _np = np
    return True


def _trace_enabled() -> bool:
    return os.environ.get("REPRO_VM_TRACE", "").lower() not in ("0", "false", "off")


class _Fallback(Exception):
    """Internal: abort vector evaluation and fall back to dispatch."""


class _NonAffine(Exception):
    """Internal: a cyclic component's recurrence is not affine in its state."""


class _C:
    """One analyzable body compute (static facts only; no run state)."""

    __slots__ = (
        "ordinal",  # index into the computes list
        "pos",  # visibility group: word index (VLIW) / instr index (seq)
        "guard_reg",
        "guard_off",
        "base_dec",  # net decrements of guard_reg by *prior* groups
        "array",
        "doff",  # dest offset (dest index = i + doff)
        "op",
        "imm",
        "srcs",  # tuple of (array, base_code, offset)
    )


def _analyze(groups: list[list[tuple]]):
    """Static analysis of a compiled loop body, or ``None`` if untraceable.

    ``groups`` are the body's visibility groups: one singleton group per
    instruction for the sequential VM, one group per packed word for the
    VLIW VM.  Within a VLIW word all reads see pre-word state and register
    commits land last-write-wins — both captured by the group structure
    (``pos`` ordering for value visibility, last-wins for per-group
    decrement nets).

    Returns ``(computes, writer, dec_total)`` where ``writer`` maps array
    name to its unique body compute and ``dec_total`` maps register name
    to its net decrement per iteration.
    """
    computes: list[_C] = []
    writer: dict[str, _C] = {}
    acc: dict[str, int] = {}  # cumulative decrement nets of prior groups
    for pos, group in enumerate(groups):
        group_net: dict[str, int] = {}
        for op in group:
            kind = op[0]
            if kind == _SETUP:
                return None  # register setup mid-loop: interpreter territory
            if kind == _DEC:
                # Within a group, commits override: the last amount wins
                # (exactly the VLIW staged-commit behavior; trivially right
                # for the sequential VM's singleton groups).
                group_net[op[1]] = op[2]
                continue
            # _COMPUTE
            if op[4] != _LOOP:
                return None  # constant/N-based dest: time-dependent aliasing
            instr = op[8]
            opk = instr.op
            arity = len(op[7])
            if opk is OpKind.MAC:
                if arity < 2:
                    return None  # raises at execution; let dispatch raise it
            elif opk is OpKind.COPY:
                if arity != 1:
                    return None
            elif opk is OpKind.SOURCE:
                if arity != 0:
                    return None
            elif opk not in (OpKind.ADD, OpKind.SUB, OpKind.MUL):
                return None
            arr = op[3]
            if arr in writer:
                return None  # multiple body writers of one array
            c = _C()
            c.ordinal = len(computes)
            c.pos = pos
            c.guard_reg = op[1]
            c.guard_off = op[2]
            c.base_dec = acc.get(op[1], 0) if op[1] is not None else 0
            c.array = arr
            c.doff = op[5]
            c.op = opk
            c.imm = instr.imm
            c.srcs = op[7]
            computes.append(c)
            writer[arr] = c
        for reg, amount in group_net.items():
            acc[reg] = acc.get(reg, 0) + amount
    for c in computes:
        for sarr, sbase, _soff in c.srcs:
            if sbase == _ERR:
                return None  # raises at execution
            if sbase != _LOOP and sarr in writer:
                return None  # fixed cell of a moving array: time-dependent
    if any(amount < 0 for amount in acc.values()):
        return None  # incrementing register: guard windows not an interval
    return computes, writer, acc


class _Rt:
    """Per-run evaluation context (never aliases machine state mutably)."""

    __slots__ = (
        "writer",
        "windows",  # ordinal -> (klo, khi); empty windows are (0, -1)
        "out_vec",  # array -> uint64[T] of produced values (window cells)
        "arrays",  # the VM's array state *before* the loop (read-only here)
        "start_i",
        "n",
        "initial",
        "default_init",  # the default_initial function, or None if custom
    )


def _prestate_scalar(rt: _Rt, arr: str, cell: int) -> int:
    """Value a body read of ``arr[cell]`` sees when no body write reaches it."""
    store = rt.arrays.get(arr)
    if store is not None and cell in store:
        return store[cell] % _M
    if rt.default_init is not None:
        # default_initial(arr, c) == default_initial(arr, 0) + 7*c exactly.
        return (rt.default_init(arr, 0) + 7 * cell) % _M
    try:
        return rt.initial(arr, cell) % _M
    except Exception:
        # A raising/odd initial function: let the interpreter surface it.
        raise _Fallback from None


def _prestate_vec(rt: _Rt, arr: str, c0: int, c1: int):
    """Pre-loop values of ``arr[c0:c1]`` as a reduced uint64 vector."""
    length = c1 - c0
    if rt.default_init is not None:
        d0 = rt.default_init(arr, 0)
        vals = (
            (_np.arange(c0, c1, dtype=_np.int64) * 7 + d0) % _M
        ).astype(_np.uint64)
    else:
        try:
            vals = _np.fromiter(
                (rt.initial(arr, cell) % _M for cell in range(c0, c1)),
                dtype=_np.uint64,
                count=length,
            )
        except _Fallback:
            raise
        except Exception:
            raise _Fallback from None
    store = rt.arrays.get(arr)
    if store:
        for cell, value in store.items():
            if c0 <= cell < c1:
                vals[cell - c0] = value % _M
    return vals


def _gather(rt: _Rt, reader: _C, sarr: str, soff: int, a: int, b: int):
    """Values ``sarr[i + soff]`` sees over iterations ``[a, b)``.

    Splices the body writer's produced vector (where its write is visible
    and within its window) with pre-loop state everywhere else.  Only ever
    reads ``out_vec`` positions strictly before ``a`` unless dependence
    ordering already filled the current segment (guaranteed by the SCC
    topological order).
    """
    length = b - a
    u = rt.writer.get(sarr)
    if u is not None:
        m = u.doff - soff  # dependence distance: reader at k reads write k-m
        klo, khi = rt.windows[u.ordinal]
        visible = m > 0 or (m == 0 and u.pos < reader.pos)
        if visible and khi >= klo:
            lo = max(a - m, klo)
            hi = min(b - 1 - m, khi)
            if lo <= hi:
                res = _np.empty(length, dtype=_np.uint64)
                res[lo + m - a : hi + m - a + 1] = rt.out_vec[sarr][lo : hi + 1]
                if lo + m - a > 0:
                    res[: lo + m - a] = _prestate_vec(
                        rt, sarr, rt.start_i + soff + a, rt.start_i + soff + lo + m
                    )
                if hi + m - a + 1 < length:
                    res[hi + m - a + 1 :] = _prestate_vec(
                        rt,
                        sarr,
                        rt.start_i + soff + hi + m + 1,
                        rt.start_i + soff + b,
                    )
                return res
    return _prestate_vec(rt, sarr, rt.start_i + soff + a, rt.start_i + soff + b)


def _mulmod(a, b):
    """Elementwise ``a * b mod 2**61 - 1`` on uint64 lanes (``a, b < 2**61``).

    32-bit split multiply: with ``a = a1*2**32 + a0``, the cross terms are
    folded through ``2**61 = 1 (mod M)``; every intermediate stays below
    ``2**63``, so plain wrapping uint64 arithmetic is exact.
    """
    a0 = a & _U_MASK32
    a1 = a >> _U32
    b0 = b & _U_MASK32
    b1 = b >> _U32
    mid = a1 * b0 + a0 * b1  # < 2**62
    mid = (mid >> _U29) + ((mid & _U_MASK29) << _U32)  # mid * 2**32 mod M
    low = a0 * b0
    low = (low >> _U61) + (low & _UM)
    t = ((a1 * b1) << _U3) + mid + low  # a1*b1*2**64 == a1*b1*8 (mod M)
    t = (t & _UM) + (t >> _U61)
    t = (t & _UM) + (t >> _U61)
    return _np.where(t >= _UM, t - _UM, t)


def _v_add(x, y):
    """``(x + y) mod M`` for python-int / uint64-vector operands."""
    if isinstance(x, int) and isinstance(y, int):
        return (x + y) % _M
    return (x + y) % _UM


def _v_mul(x, y):
    """``(x * y) mod M`` for python-int / uint64-vector operands."""
    if isinstance(x, int):
        if isinstance(y, int):
            return (x * y) % _M
        return _mulmod(_np.uint64(x), y)
    if isinstance(y, int):
        return _mulmod(x, _np.uint64(y))
    return _mulmod(x, y)


def _v_sub(x, y):
    """``(x - y) mod M``; ``y`` is already reduced into ``[0, M)``."""
    if isinstance(y, int):
        return _v_add(x, (_M - y) % _M)
    return _v_add(x, _UM - y)


def _apply_op_vec(c: _C, vals: list, length: int, j_vec=None):
    """Vectorized :func:`evaluate_op` over one segment.

    All inputs are pre-reduced into ``[0, M)``; every op is a polynomial
    followed by a final ``% M``, so pre-reduction cannot change results.
    """
    op = c.op
    imm = c.imm
    if op is OpKind.ADD:
        acc = imm % _M
        for v in vals:
            acc = _v_add(acc, v)
    elif op is OpKind.SUB:
        if not vals:
            acc = imm % _M
        else:
            acc = vals[0]
            for v in vals[1:]:
                acc = _v_sub(acc, v)
            acc = _v_add(acc, imm % _M)
    elif op is OpKind.MUL:
        acc = imm % _M
        for v in vals:
            acc = _v_mul(acc, v)
    elif op is OpKind.MAC:
        acc = _v_mul(vals[0], vals[1])
        for v in vals[2:]:
            acc = _v_add(acc, v)
        acc = _v_add(acc, imm % _M)
    elif op is OpKind.COPY:
        acc = _v_add(vals[0], imm % _M)
    else:  # SOURCE (arity 0, checked in _analyze): imm + 13 * instance
        acc = (_np.uint64(imm % _M) + _np.uint64(13) * j_vec) % _UM
    if isinstance(acc, int):
        return _np.full(length, acc, dtype=_np.uint64)
    return acc


def _eval_singleton(rt: _Rt, c: _C, a: int, b: int) -> None:
    """Evaluate one acyclic compute over segment ``[a, b)`` into out_vec."""
    length = b - a
    j_vec = None
    if c.op is OpKind.SOURCE:
        j_vec = _np.arange(
            rt.start_i + c.doff + a, rt.start_i + c.doff + b, dtype=_np.uint64
        )
    vals = []
    for sarr, sbase, soff in c.srcs:
        if sbase == _LOOP:
            vals.append(_gather(rt, c, sarr, soff, a, b))
        else:  # _CONST or _TRIP on a non-body-written array (checked)
            cell = rt.n + soff if sbase == _TRIP else soff
            vals.append(_prestate_scalar(rt, sarr, cell))
    rt.out_vec[c.array][a:b] = _apply_op_vec(c, vals, length, j_vec)


# ---- affine forms over a cyclic component's state basis -------------------


class _Form:
    """An affine form ``sum(coeffs[i] * state_i) + vec + const  (mod M)``.

    ``vec`` carries per-iteration (position-dependent) contributions,
    ``const`` iteration-invariant scalars, ``coeffs`` the linear part over
    the component's lagged-value state basis.
    """

    __slots__ = ("coeffs", "vec", "const")

    def __init__(self, coeffs=None, vec=None, const=0):
        self.coeffs = coeffs if coeffs is not None else {}
        self.vec = vec
        self.const = const % _M


def _f_add(f1: _Form, f2: _Form) -> _Form:
    coeffs = dict(f1.coeffs)
    for k, v in f2.coeffs.items():
        nv = (coeffs.get(k, 0) + v) % _M
        if nv:
            coeffs[k] = nv
        else:
            coeffs.pop(k, None)
    if f1.vec is None:
        vec = f2.vec
    elif f2.vec is None:
        vec = f1.vec
    else:
        vec = (f1.vec + f2.vec) % _UM
    return _Form(coeffs, vec, f1.const + f2.const)


def _f_scale(f: _Form, s: int) -> _Form:
    s %= _M
    if s == 0:
        return _Form()
    coeffs = {}
    for k, v in f.coeffs.items():
        nv = (v * s) % _M
        if nv:
            coeffs[k] = nv
    vec = None if f.vec is None else _mulmod(_np.uint64(s), f.vec)
    return _Form(coeffs, vec, f.const * s)


def _f_materialize(f: _Form):
    """The value vector of a coefficient-free form (``vec + const``)."""
    if f.const == 0:
        return f.vec
    return (f.vec + _np.uint64(f.const)) % _UM


def _f_mul(f1: _Form, f2: _Form) -> _Form:
    if not f1.coeffs and f1.vec is None:
        return _f_scale(f2, f1.const)
    if not f2.coeffs and f2.vec is None:
        return _f_scale(f1, f2.const)
    if not f1.coeffs and not f2.coeffs:
        return _Form(vec=_mulmod(_f_materialize(f1), _f_materialize(f2)))
    raise _NonAffine  # state * state or state * vec: recurrence not affine


def _form_op(c: _C, forms: list[_Form]) -> _Form:
    imm = c.imm
    op = c.op
    if op is OpKind.ADD:
        acc = _Form(const=imm)
        for f in forms:
            acc = _f_add(acc, f)
        return acc
    if op is OpKind.SUB:
        if not forms:
            return _Form(const=imm)
        acc = forms[0]
        for f in forms[1:]:
            acc = _f_add(acc, _f_scale(f, _M - 1))
        return _f_add(acc, _Form(const=imm))
    if op is OpKind.MUL:
        acc = _Form(const=imm)
        for f in forms:
            acc = _f_mul(acc, f)
        return acc
    if op is OpKind.MAC:
        acc = _f_mul(forms[0], forms[1])
        for f in forms[2:]:
            acc = _f_add(acc, f)
        return _f_add(acc, _Form(const=imm))
    if op is OpKind.COPY:
        return _f_add(forms[0], _Form(const=imm))
    raise _NonAffine  # SOURCE has no inputs, hence never sits on a cycle


def _eval_form(f: _Form, states, length: int):
    acc = None
    for bi, cf in f.coeffs.items():
        term = states[bi] if cf == 1 else _mulmod(_np.uint64(cf), states[bi])
        acc = term.copy() if acc is None else (acc + term) % _UM
    if f.vec is not None:
        acc = f.vec if acc is None else (acc + f.vec) % _UM
    if f.const:
        if acc is None:
            return _np.full(length, f.const, dtype=_np.uint64)
        acc = (acc + _np.uint64(f.const)) % _UM
    if acc is None:
        return _np.zeros(length, dtype=_np.uint64)
    return acc


def _matvec(Tm: list[list[int]], X):
    """``Tm @ X mod M`` with an integer matrix and uint64 vector rows."""
    rows = []
    zero_shape = X.shape[1:]
    for row in Tm:
        acc = None
        for j, cf in enumerate(row):
            if cf == 0:
                continue
            term = X[j] if cf == 1 else _mulmod(_np.uint64(cf), X[j])
            acc = term if acc is None else (acc + term) % _UM
        rows.append(_np.zeros(zero_shape, dtype=_np.uint64) if acc is None else acc)
    return _np.stack(rows)


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    d = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(d)) % _M for j in range(d)]
        for i in range(d)
    ]


def _mat_pow(Tm: list[list[int]], p: int) -> list[list[int]]:
    d = len(Tm)
    result = [[int(i == j) for j in range(d)] for i in range(d)]
    base = [row[:] for row in Tm]
    while p:
        if p & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        p >>= 1
    return result


def _affine_scan(Tm: list[list[int]], Cvec, s0: list[int], length: int):
    """States ``s_0 .. s_{length-1}`` of ``s_{k+1} = Tm s_k + Cvec[:, k]``.

    Blocked square-root decomposition: within-block prefixes ``P_j`` are
    computed batched across all blocks (``P_{j+1} = T P_j + c_j``), block
    start states run sequentially in exact python ints via ``T**B``, and
    the expansion ``s_{blk*B+j} = T^j start_blk + P_j`` is batched again —
    O(sqrt(L)) python-level steps instead of O(L).
    """
    d = len(Tm)
    B = max(1, isqrt(length))
    nb = -(-length // B)
    total = nb * B
    C = _np.zeros((d, total), dtype=_np.uint64)
    C[:, :length] = Cvec
    C = C.reshape(d, nb, B)
    P = _np.zeros((d, nb, B), dtype=_np.uint64)
    cur = _np.zeros((d, nb), dtype=_np.uint64)
    for j in range(1, B):
        cur = (_matvec(Tm, cur) + C[:, :, j - 1]) % _UM
        P[:, :, j] = cur
    full = (_matvec(Tm, cur) + C[:, :, B - 1]) % _UM  # P_B per block
    TB = _mat_pow(Tm, B)
    s = [int(x) % _M for x in s0]
    start_cols = [list(s)]
    for blk in range(nb - 1):
        s = [
            (sum(TB[i][k] * s[k] for k in range(d)) + int(full[i, blk])) % _M
            for i in range(d)
        ]
        start_cols.append(list(s))
    starts = _np.array(start_cols, dtype=_np.uint64).T  # (d, nb)
    S = _np.zeros((d, nb, B), dtype=_np.uint64)
    S[:, :, 0] = starts
    cur = starts
    for j in range(1, B):
        cur = _matvec(Tm, cur)  # T^j * starts
        S[:, :, j] = (cur + P[:, :, j]) % _UM
    return S.reshape(d, total)[:, :length]


def _eval_scc(rt: _Rt, comp: list[_C], comp_ords: set[int], a: int, b: int) -> bool:
    """Evaluate a cyclic component over segment ``[a, b)``; False → fallback."""
    length = b - a
    comp = sorted(comp, key=lambda c: c.ordinal)
    # State basis: lagged produced values (arr, j) = value written j
    # iterations ago, for every in-component carried read distance.
    lags: dict[str, int] = {}
    for t in comp:
        for sarr, sbase, soff in t.srcs:
            if sbase != _LOOP:
                continue
            u = rt.writer.get(sarr)
            if u is None or u.ordinal not in comp_ords:
                continue
            m = u.doff - soff
            if 1 <= m < length and m > lags.get(sarr, 0):
                lags[sarr] = m
    d = sum(lags.values())
    if d == 0 or d > _MAX_STATE_DIM:
        return False
    basis: list[tuple[str, int]] = []
    bidx: dict[tuple[str, int], int] = {}
    for arr in sorted(lags):
        for j in range(1, lags[arr] + 1):
            bidx[(arr, j)] = len(basis)
            basis.append((arr, j))
    # Express every member's produced value as an affine form over the
    # state at its own iteration (ordinal order makes m == 0 intra-
    # component reads resolvable by substitution).
    forms: dict[int, _Form] = {}
    try:
        for t in comp:
            fs: list[_Form] = []
            for sarr, sbase, soff in t.srcs:
                if sbase == _LOOP:
                    u = rt.writer.get(sarr)
                    if u is not None and u.ordinal in comp_ords:
                        m = u.doff - soff
                        if m == 0 and u.pos < t.pos:
                            fs.append(forms[u.ordinal])
                            continue
                        if (sarr, m) in bidx:
                            fs.append(_Form(coeffs={bidx[(sarr, m)]: 1}))
                            continue
                    fs.append(_Form(vec=_gather(rt, t, sarr, soff, a, b)))
                else:
                    cell = rt.n + soff if sbase == _TRIP else soff
                    fs.append(_Form(const=_prestate_scalar(rt, sarr, cell)))
            forms[t.ordinal] = _form_op(t, fs)
    except _NonAffine:
        return False
    # Transition: row (arr, 1) is the writer's form; row (arr, j>1) shifts.
    Tm = [[0] * d for _ in range(d)]
    Cvec = _np.zeros((d, length), dtype=_np.uint64)
    for arr, j in basis:
        row = bidx[(arr, j)]
        if j == 1:
            f = forms[rt.writer[arr].ordinal]
            for bi, cf in f.coeffs.items():
                Tm[row][bi] = cf
            if f.vec is not None:
                Cvec[row, :] = f.vec
            if f.const:
                Cvec[row, :] = (Cvec[row, :] + _np.uint64(f.const)) % _UM
        else:
            Tm[row][bidx[(arr, j - 1)]] = 1
    # Initial state: lagged values before the segment (earlier segments'
    # produced values, or pre-loop state outside the writer's window).
    s0: list[int] = []
    for arr, j in basis:
        k0 = a - j
        u = rt.writer[arr]
        klo, khi = rt.windows[u.ordinal]
        if klo <= k0 <= khi:
            s0.append(int(rt.out_vec[arr][k0]))
        else:
            s0.append(_prestate_scalar(rt, arr, rt.start_i + u.doff + k0))
    states = _affine_scan(Tm, Cvec, s0, length)
    for t in comp:
        rt.out_vec[t.array][a:b] = _eval_form(forms[t.ordinal], states, length)
    return True


def _tarjan(adj: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan SCC; components come out in reverse topological
    order of the condensation (consumers before their producers)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    next_index = 0
    for root in adj:
        if root in index:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                onstack.add(v)
            recurse = False
            edges = adj[v]
            while ei < len(edges):
                w = edges[ei]
                ei += 1
                if w not in index:
                    work[-1][1] = ei
                    work.append([w, 0])
                    recurse = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return sccs


def _run_trace(info, start_i, T, n, arrays, reg_values, initial):
    """Vector-execute the whole trip; ``None`` (with machine state fully
    untouched) means the caller must run the interpreter loop instead."""
    computes, writer, dec_total = info
    if T > _MAX_TRACE_TRIP:
        return None
    for reg in dec_total:
        if reg not in reg_values:
            return None  # decrement before setup: dispatch raises properly
    # Exact activation windows from the guards' affine progressions.
    executed = 0
    disabled = 0
    windows: list[tuple[int, int]] = []
    for c in computes:
        if c.guard_reg is None:
            klo, khi = 0, T - 1
        else:
            if c.guard_reg not in reg_values:
                return None  # read before setup: dispatch raises properly
            A = reg_values[c.guard_reg] + c.guard_off - c.base_dec
            per = dec_total.get(c.guard_reg, 0)
            if per == 0:
                klo, khi = (0, T - 1) if -n < A <= 0 else (0, -1)
            else:  # per > 0: active iff klo <= k <= khi (exact ceil/floor)
                klo = max(0, -((-A) // per))
                khi = min(T - 1, (A + n - 1) // per)
                if khi < klo:
                    klo, khi = 0, -1
        windows.append((klo, khi))
        if khi >= klo:
            executed += khi - klo + 1
        if c.guard_reg is not None:
            disabled += T - max(0, khi - klo + 1)
    # Write legality: in-range, and no collision with pre-written cells
    # (dispatch would raise mid-loop — fall back and let it).
    for c in computes:
        klo, khi = windows[c.ordinal]
        if khi < klo:
            continue
        lo_cell = start_i + c.doff + klo
        hi_cell = start_i + c.doff + khi
        if lo_cell < 1 or hi_cell > n:
            return None
        pre_store = arrays.get(c.array)
        if pre_store:
            for cell in pre_store:
                if lo_cell <= cell <= hi_cell:
                    return None
    # Segments: between consecutive window boundaries every instruction is
    # fully active or fully inactive.
    bounds = {0, T}
    for klo, khi in windows:
        if khi >= klo:
            bounds.add(klo)
            bounds.add(khi + 1)
    cuts = sorted(bounds)

    rt = _Rt()
    rt.writer = writer
    rt.windows = windows
    rt.arrays = arrays
    rt.start_i = start_i
    rt.n = n
    rt.initial = initial
    from .vm import default_initial  # lazy: vm imports this module at top

    rt.default_init = default_initial if initial is default_initial else None
    rt.out_vec = {
        arr: _np.zeros(T, dtype=_np.uint64)
        for arr, c in writer.items()
        if windows[c.ordinal][1] >= windows[c.ordinal][0]
    }

    steps = 0
    try:
        for a, b in zip(cuts, cuts[1:]):
            active = [
                c
                for c in computes
                if windows[c.ordinal][0] <= a and windows[c.ordinal][1] >= b - 1
            ]
            if not active:
                continue
            steps += len(active)
            act_ords = {c.ordinal for c in active}
            by_ord = {c.ordinal: c for c in active}
            length = b - a
            adj: dict[int, list[int]] = {c.ordinal: [] for c in active}
            for t in active:
                for sarr, sbase, soff in t.srcs:
                    if sbase != _LOOP:
                        continue
                    u = writer.get(sarr)
                    if u is None or u.ordinal not in act_ords:
                        continue
                    m = u.doff - soff
                    if (m == 0 and u.pos < t.pos) or 1 <= m < length:
                        adj[u.ordinal].append(t.ordinal)
            for comp_ords in reversed(_tarjan(adj)):
                if len(comp_ords) == 1 and comp_ords[0] not in adj[comp_ords[0]]:
                    _eval_singleton(rt, by_ord[comp_ords[0]], a, b)
                else:
                    comp = [by_ord[o] for o in comp_ords]
                    if not _eval_scc(rt, comp, set(comp_ords), a, b):
                        return None
    except _Fallback:
        return None

    # Commit: the only machine-state mutation in this module.
    for arr, c in writer.items():
        klo, khi = windows[c.ordinal]
        if khi < klo:
            continue
        base_cell = start_i + c.doff
        store = arrays.setdefault(arr, {})
        store.update(
            zip(
                range(base_cell + klo, base_cell + khi + 1),
                rt.out_vec[arr][klo : khi + 1].tolist(),
            )
        )
    for reg, per in dec_total.items():
        reg_values[reg] -= per * T
    if steps:
        count("vm.trace.steps", steps)
    return executed, disabled


# ---- entry points ---------------------------------------------------------

_HOOK_CACHE: dict[int, tuple] = {}
_HOOK_LOCK = threading.Lock()


def _body_info(compiled):
    """Cached static analysis of a compiled program's body (id-keyed with a
    weakref guard, like the dispatch compilation cache)."""
    key = id(compiled)
    entry = _HOOK_CACHE.get(key)
    if entry is not None and entry[0]() is compiled:
        return entry[1]
    info = _analyze([[op] for op in compiled.body])
    with _HOOK_LOCK:
        entry = _HOOK_CACHE.get(key)
        if entry is not None and entry[0]() is compiled:
            return entry[1]
        # The entry dies with its program (a weakref callback, as in
        # the dispatch compilation cache).
        guard = weakref.ref(compiled, lambda _ref, k=key: _HOOK_CACHE.pop(k, None))
        _HOOK_CACHE[key] = (guard, info)
    return info


def body_hook(compiled, loop, n: int, initial):
    """A loop-body hook for :func:`~repro.machine.dispatch.execute_compiled`,
    or ``None`` if the body is statically untraceable.

    The returned callable takes the live ``(arrays, reg_values)`` after the
    pre region and either executes the entire loop vectorized — returning
    ``(executed, disabled)`` — or returns ``None`` without having touched
    either structure, in which case the interpreter loop must run.
    """
    if MODULUS != _M or not _trace_enabled() or loop.step != 1:
        return None
    info = _body_info(compiled)
    if info is None or not _load_numpy():
        return None
    T = loop.trip_count(n)
    start_i = loop.start.resolve(None, n)

    def hook(arrays, reg_values):
        if T == 0:
            return 0, 0
        return _run_trace(info, start_i, T, n, arrays, reg_values, initial)

    return hook


def packed_body_trace(body_words, loop, n: int, reg_values, arrays, initial):
    """Vector-execute a VLIW body (list of compiled words), or ``None``.

    Same contract as the sequential hook: a non-``None`` return means the
    whole loop ran (word-commit semantics preserved through the group
    structure) and gives ``(executed, disabled)``; ``None`` means machine
    state is untouched and the word-by-word interpreter must run.
    """
    if MODULUS != _M or not _trace_enabled() or loop.step != 1:
        return None
    info = _analyze(body_words)
    if info is None or not _load_numpy():
        return None
    T = loop.trip_count(n)
    if T == 0:
        return 0, 0
    return _run_trace(
        info, loop.start.resolve(None, n), T, n, arrays, reg_values, initial
    )
