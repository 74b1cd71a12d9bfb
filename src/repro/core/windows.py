"""O(n) sliding-window kernels for the bounded temporal operators.

Every bounded operator (``always``/``eventually`` forwards,
``historically``/``once`` backwards) reduces to a sliding minimum or
maximum of verdict codes over a fixed row window.  The obvious
vectorization — a strided window view reduced along its window axis —
is O(n·w): at the paper's 20 s hold windows (w = 1000 rows at the 20 ms
monitor period) every operator performs ~1000 redundant comparisons per
row.  This module provides the amortized-O(1)-per-row alternative that
the online-monitoring literature calls for (Deshmukh et al., "Robust
Online Monitoring of Signal Temporal Logic"): the van Herk / Gil–Werman
block prefix/suffix scheme, in pure NumPy.

The scheme partitions the padded input into blocks of the window width,
takes a cumulative min/max from the left (``prefix``) and from the right
(``suffix``) inside each block, and combines one element of each per
output row — three passes over the data regardless of window width.

Every kernel operates along the **last axis** (leading axes pass
through untouched).  The block kernel's padded/prefix/suffix
intermediates come from a thread-local scratch pool (reused across
calls of the same shape) so a campaign's worth of window aggregates
does not churn three fresh allocations per operator; outputs are always
freshly allocated and never alias the pool.

Rows whose window extends past the end (future operators) or before
the start (past operators) of the trace aggregate against UNKNOWN
padding, which yields the correct three-valued verdict for truncated
evidence.  The original O(n·w) strided kernel lives on in the test
helpers as the oracle for differential tests and the benchmark
ablation, which route the aggregates through it by patching
:func:`sliding_extreme`; outputs are byte-identical (checked by the
fuzz suite).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro.core.types import UNKNOWN_CODE
from repro.errors import EvaluationError

def bounds_to_rows(lo: float, hi: float, period: float) -> Tuple[int, int]:
    """Convert a ``[lo, hi]`` second bound to inclusive row offsets.

    The single source of truth for bound→grid conversion, shared by the
    forward and backward aggregates (and by anything else that needs to
    know which rows a temporal bound touches).  Raises
    :class:`~repro.errors.EvaluationError` when the bound straddles no
    grid sample (a window tighter than the monitor period).
    """
    lo_idx = int(math.ceil(lo / period - 1e-9))
    hi_idx = int(math.floor(hi / period + 1e-9))
    if hi_idx < lo_idx:
        raise EvaluationError(
            "temporal bound [%g, %g] s contains no sample at a period of "
            "%g s" % (lo, hi, period)
        )
    return lo_idx, hi_idx


# ----------------------------------------------------------------------
# Thread-local scratch pool
# ----------------------------------------------------------------------

#: Upper bound on pooled buffers per thread; campaigns use a handful of
#: distinct (shape, width) combinations, so this is generous.
_SCRATCH_CAPACITY = 64

_scratch = threading.local()


def _scratch_buffer(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized pooled buffer for ``(tag, shape, dtype)``.

    Buffers are reused across calls on the same thread (LRU-evicted at
    :data:`_SCRATCH_CAPACITY` entries).  Callers must fully overwrite
    the buffer before reading it and must not let it escape: every
    public kernel returns a freshly allocated array.
    """
    pool = getattr(_scratch, "pool", None)
    if pool is None:
        pool = _scratch.pool = OrderedDict()
    key = (tag, shape, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        pool[key] = buf
        if len(pool) > _SCRATCH_CAPACITY:
            pool.popitem(last=False)
    else:
        pool.move_to_end(key)
    return buf


# ----------------------------------------------------------------------
# Core sliding extreme
# ----------------------------------------------------------------------


def _identity(dtype: np.dtype, minimum: bool):
    """The neutral element for min/max at ``dtype`` (pads never win)."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return info.max if minimum else info.min
    return np.inf if minimum else -np.inf


def sliding_extreme(
    values: np.ndarray, width: int, minimum: bool
) -> np.ndarray:
    """O(n) sliding min/max along the last axis.

    ``out[..., i] = extreme(values[..., i : i + width])`` with output
    length ``values.shape[-1] - width + 1`` (must be >= 0); leading axes
    are preserved.  This is the van Herk/Gil–Werman block scan:
    cumulative extremes from the left and right of each ``width``-sized
    block; every window spans at most two blocks, so one suffix element
    and one prefix element cover it.
    """
    if width < 1:
        raise ValueError("window width must be >= 1, got %d" % width)
    values = np.asarray(values)
    n = values.shape[-1]
    lead = values.shape[:-1]
    out_len = n - width + 1
    if out_len < 0:
        raise ValueError(
            "window of %d rows does not fit an array of %d" % (width, n)
        )
    if out_len == 0:
        return np.empty(lead + (0,), dtype=values.dtype)
    if width == 1:
        return np.array(values, dtype=values.dtype, copy=True)
    ufunc = np.minimum if minimum else np.maximum
    pad = (-n) % width
    if pad:
        padded = _scratch_buffer("padded", lead + (n + pad,), values.dtype)
        padded[..., :n] = values
        padded[..., n:] = _identity(values.dtype, minimum)
    else:
        padded = values
    blocks = padded.reshape(lead + (-1, width))
    prefix = _scratch_buffer("prefix", blocks.shape, values.dtype)
    ufunc.accumulate(blocks, axis=-1, out=prefix)
    # Suffix scan: copy the fully reversed blocks into scratch, scan
    # left-to-right in place, then read the flat result reversed — the
    # same per-block right-to-left cumulative as the textbook scheme,
    # without the copy a reversed-view reshape would silently make.
    suffix = _scratch_buffer("suffix", blocks.shape, values.dtype)
    suffix[...] = blocks[..., ::-1, ::-1]
    ufunc.accumulate(suffix, axis=-1, out=suffix)
    flat = lead + (-1,)
    prefix_flat = prefix.reshape(flat)
    suffix_flat = suffix.reshape(flat)[..., ::-1]
    # The combine allocates the output fresh: results never alias the
    # pool, so memoized verdict arrays stay stable across later calls.
    return ufunc(
        suffix_flat[..., :out_len],
        prefix_flat[..., width - 1 : width - 1 + out_len],
    )


# ----------------------------------------------------------------------
# Padded temporal aggregates
# ----------------------------------------------------------------------


def future_aggregate(
    codes: np.ndarray,
    lo_idx: int,
    hi_idx: int,
    minimum: bool,
    pad_value: int = UNKNOWN_CODE,
) -> np.ndarray:
    """Sliding min/max of ``codes`` over rows ``[i+lo_idx, i+hi_idx]``.

    Rows whose window extends past the end of the array aggregate
    against ``pad_value`` padding (UNKNOWN by default — the truncated
    -evidence semantics of the bounded future operators).  Operates
    along the last axis; leading axes pass through.
    """
    codes = np.asarray(codes)
    n = codes.shape[-1]
    if n == 0:
        return np.empty(codes.shape, dtype=codes.dtype)
    width = hi_idx - lo_idx + 1
    pad = np.full(codes.shape[:-1] + (hi_idx,), pad_value, dtype=codes.dtype)
    padded = np.concatenate([codes, pad], axis=-1)
    extremes = sliding_extreme(padded, width, minimum)
    return extremes[..., lo_idx : lo_idx + n].astype(codes.dtype)


def past_aggregate(
    codes: np.ndarray,
    lo_idx: int,
    hi_idx: int,
    minimum: bool,
    pad_value: int = UNKNOWN_CODE,
) -> np.ndarray:
    """Sliding min/max of ``codes`` over rows ``[i-hi_idx, i-lo_idx]``.

    Mirrors :func:`future_aggregate` backwards: rows whose window
    precedes the start of the array aggregate against ``pad_value``.
    """
    codes = np.asarray(codes)
    n = codes.shape[-1]
    if n == 0:
        return np.empty(codes.shape, dtype=codes.dtype)
    width = hi_idx - lo_idx + 1
    pad = np.full(codes.shape[:-1] + (hi_idx,), pad_value, dtype=codes.dtype)
    padded = np.concatenate([pad, codes], axis=-1)
    extremes = sliding_extreme(padded, width, minimum)
    return extremes[..., :n].astype(codes.dtype)


def dilate_backwards(triggered: np.ndarray, width: int) -> np.ndarray:
    """True wherever ``triggered`` was nonzero within the last ``width`` rows.

    The warm-up mask primitive (§V-C2): a trigger row suppresses checking
    for itself and the ``width`` rows after it.  Equivalent to a past
    ``once[0, width]`` with zero padding before the trace start.
    """
    if width <= 0:
        return triggered > 0
    return past_aggregate(triggered, 0, width, minimum=False, pad_value=0) > 0
