"""Scratch memory for chunked stack evaluation.

A table, an extremum scan or a ``ScanContext`` query evaluates the stack
and the shift kernel chunk after chunk.  Arrays allocated and freed in
every chunk make a fresh process fault the same pages in again for each
chunk, because the allocator hands freed memory back to the system.  So
the one chunk loop, ``spinhall.sweep._chunks``, gives a loop of more than
one chunk one ``Workspace``, and the kernels take their results and
intermediates from it.  ``Workspace()``, with no block, serves a single
chunk and the oracle: numpy allocates each array, as for an expression.

The kernels keep the arithmetic of the numpy expressions they replaced, bit
for bit.  So a binary ufunc never writes over one of its array operands
(in place, numpy may return the other operand's NaN, and rounds a
one-element complex product without the fused multiply-add of its array
loop); only a constant operand may share a ufunc with its output.
"""

from __future__ import annotations

from contextlib import nullcontext
from math import prod

import numpy as np

__all__ = ["Workspace"]

_ALIGN = 16  # bytes: every array taken starts on a complex128 boundary
_ITEMSIZE = {float: 8, complex: 16, bool: 1}


class Workspace:
    """One block of memory handed out as contiguous arrays, in stack order.

    ``Workspace(points)`` holds BYTES_PER_POINT bytes for each of up to
    ``points`` points of the chain evaluated in one chunk (table fill,
    ``_amplitudes`` and the shift kernel hold at most 232 at once).
    ``take`` hands out the next free array; arrays taken inside ``with
    work.scratch():`` are handed out again after it.  No view of the block
    is returned past the call that owns the workspace.
    """

    BYTES_PER_POINT = 240
    __slots__ = ("_block", "_size", "_top")

    def __init__(self, points: int = 0):
        self._block = self._top = self._size = 0
        if points:
            self._block = np.empty(points * self.BYTES_PER_POINT + _ALIGN, np.uint8)
            self._size = len(self._block)
            self._top = -self._block.ctypes.data % _ALIGN

    def take(self, shape: tuple, dtype=float):
        """An uninitialised C-contiguous array of the block to pass as a
        ufunc's ``out``; ``dtype`` is float, complex or bool.  Past the
        block it is None, so that numpy allocates the result as an
        expression would (and faster, for a small array).  So a caller uses
        what the ufunc returns."""
        if not self._size:
            return None
        start = self._top
        stop = start + prod(shape) * _ITEMSIZE[dtype]
        if stop > self._size:
            return None
        self._top = stop + -stop % _ALIGN
        return np.ndarray(shape, dtype, self._block, start)

    def like(self, *operands, dtype=float):
        """``take`` for the broadcast shape of the operands, found only when
        the block is used."""
        return self.take(np.broadcast(*operands).shape, dtype) if self._size else None

    def scratch(self):
        """A context: on exit, every array taken inside is handed out again."""
        return _Rewind(self) if self._size else _NOTHING_TO_REWIND


class _Rewind:
    """The context of ``Workspace.scratch``: it resets the free top on exit."""

    __slots__ = ("work", "top")

    def __init__(self, work: Workspace):
        self.work, self.top = work, work._top

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        self.work._top = self.top


_NOTHING_TO_REWIND = nullcontext()

