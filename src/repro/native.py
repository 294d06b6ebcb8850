"""Optional C builds of the two hottest numeric inner kernels.

Both vectorized engines bottom out in one tight numpy expression each:

* the warm-started feasibility solver's min-plus pass
  ``min(before, (before[:, None] + C).min(axis=0))`` — which materializes
  an O(V²) temporary per pass;
* the trace VM backend's lane-wise ``a * b mod 2**61 - 1``
  (:func:`repro.machine.trace._mulmod`) — five multiplies and a dozen
  shifts per lane because uint64 lanes have no 128-bit product.

Setting ``REPRO_NATIVE_KERNELS=1`` compiles both as a tiny shared library
with the system C compiler on first use (cached by source hash in a temp
directory) and routes the two call sites through it.  The C kernels are
**bit-identical by construction**: the min-plus pass performs exactly the
same exact-integer min reduction (no reassociation hazard — min is
associative and no intermediate can overflow, by the same ``(|V| + 2) *
max|w| < 2**60`` bound the numpy path enforces), and the modular product
is value-exact via ``__int128``.  The switch is off by default, and *any*
failure — no compiler, sandboxed filesystem, load error — permanently
falls back to the numpy paths for the process, so the pure-python/numpy
behavior is always available and always the reference.  Each fallback
while the switch is on is counted with its reason:
``native.fallback.build_failed`` (no library) or
``native.fallback.no_numpy``.  numpy itself is imported only once the
switch is on, so importing this module stays cheap.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

from .observability import count

__all__ = ["native_enabled", "native_available", "minplus_pass", "mulmod61"]

_SOURCE = r"""
#include <stdint.h>

void minplus_pass(const int64_t *before, const int64_t *cmat,
                  int64_t *out, int64_t n) {
    for (int64_t j = 0; j < n; ++j) out[j] = before[j];
    for (int64_t i = 0; i < n; ++i) {
        int64_t di = before[i];
        const int64_t *row = cmat + i * n;
        for (int64_t j = 0; j < n; ++j) {
            int64_t cand = di + row[j];
            if (cand < out[j]) out[j] = cand;
        }
    }
}

void mulmod61(const uint64_t *a, const uint64_t *b, uint64_t *out,
              int64_t n) {
    const uint64_t M = (((uint64_t)1) << 61) - 1;
    for (int64_t i = 0; i < n; ++i) {
        unsigned __int128 t =
            (unsigned __int128)a[i] * (unsigned __int128)b[i];
        uint64_t r = (uint64_t)(t & M) + (uint64_t)(t >> 61);
        r = (r & M) + (r >> 61);
        out[i] = r >= M ? r - M : r;
    }
}
"""

_ENV = "REPRO_NATIVE_KERNELS"
_LOCK = threading.Lock()
_LIB: ctypes.CDLL | None = None
_FAILED = False
_np = None  # numpy, imported by _numpy() once the switch is on


def native_enabled() -> bool:
    """Whether the ``REPRO_NATIVE_KERNELS`` switch is on (re-read live)."""
    return os.environ.get(_ENV, "").lower() in ("1", "true", "on")


def _compiler() -> str:
    return os.environ.get("CC") or "cc"


def _build() -> ctypes.CDLL | None:
    """Compile (or reuse) the kernel library; ``None`` on any failure."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    )
    so_path = cache / f"kernels-{digest}.so"
    try:
        if not so_path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            src_path = cache / f"kernels-{digest}.c"
            src_path.write_text(_SOURCE)
            with tempfile.NamedTemporaryFile(
                dir=cache, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            result = subprocess.run(
                [
                    _compiler(),
                    "-O2",
                    "-shared",
                    "-fPIC",
                    "-o",
                    str(tmp_path),
                    str(src_path),
                ],
                capture_output=True,
                timeout=60,
            )
            if result.returncode != 0:
                tmp_path.unlink(missing_ok=True)
                return None
            os.replace(tmp_path, so_path)  # atomic publish
        lib = ctypes.CDLL(str(so_path))
    except Exception:
        return None
    i64p = ctypes.POINTER(ctypes.c_int64)
    u64p = ctypes.POINTER(ctypes.c_uint64)
    lib.minplus_pass.argtypes = [i64p, i64p, i64p, ctypes.c_int64]
    lib.minplus_pass.restype = None
    lib.mulmod61.argtypes = [u64p, u64p, u64p, ctypes.c_int64]
    lib.mulmod61.restype = None
    return lib


def _lib() -> ctypes.CDLL | None:
    global _LIB, _FAILED
    if _LIB is not None:
        return _LIB
    if _FAILED:
        return None
    with _LOCK:
        if _LIB is None and not _FAILED:
            _LIB = _build()
            if _LIB is None:
                _FAILED = True  # don't retry a broken toolchain per call
    return _LIB


def _numpy():
    """numpy, imported on first use; ``None`` if it is not installed."""
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a baked-in dependency
            return None
        _np = numpy
    return _np


def native_available() -> bool:
    """Whether the switch is on *and* the library compiled and loaded."""
    return native_enabled() and _numpy() is not None and _lib() is not None


def _kernels() -> ctypes.CDLL | None:
    """The loaded library when the switch is on, else ``None``; a
    fallback with the switch on is counted with its reason."""
    if not native_enabled():
        return None
    if _numpy() is None:
        count("native.fallback.no_numpy")
        return None
    lib = _lib()
    if lib is None:
        count("native.fallback.build_failed")
    return lib


def minplus_pass(before, C):
    """One dense Bellman–Ford pass
    ``min(before, (before[:, None] + C).min(axis=0))``, or ``None`` when
    the native path is unavailable (caller runs the numpy expression)."""
    lib = _kernels()
    if lib is None:
        return None
    n = before.shape[0]
    before = _np.ascontiguousarray(before, dtype=_np.int64)
    C = _np.ascontiguousarray(C, dtype=_np.int64)
    out = _np.empty(n, dtype=_np.int64)
    i64p = ctypes.POINTER(ctypes.c_int64)
    lib.minplus_pass(
        before.ctypes.data_as(i64p),
        C.ctypes.data_as(i64p),
        out.ctypes.data_as(i64p),
        n,
    )
    return out


def mulmod61(a, b):
    """Lane-wise ``a * b mod 2**61 - 1`` on uint64 arrays, or ``None``
    when the native path is unavailable (caller runs the split multiply).

    Broadcasts like the numpy path, so scalar-vector products work."""
    lib = _kernels()
    if lib is None:
        return None
    a, b = _np.broadcast_arrays(a, b)
    shape = a.shape
    a = _np.ascontiguousarray(a, dtype=_np.uint64).ravel()
    b = _np.ascontiguousarray(b, dtype=_np.uint64).ravel()
    out = _np.empty(a.size, dtype=_np.uint64)
    u64p = ctypes.POINTER(ctypes.c_uint64)
    lib.mulmod61(
        a.ctypes.data_as(u64p),
        b.ctypes.data_as(u64p),
        out.ctypes.data_as(u64p),
        a.size,
    )
    return out.reshape(shape)
