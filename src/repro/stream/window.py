"""Windowing: re-slicing arrival chunks into model-update batches.

The windower is the boundary that makes streaming results reproducible:
however the source batches its rows, the sequence of emitted windows is a
pure function of the row order and the :class:`WindowSpec`.  Each window is
materialized by stacking the buffered pieces (the same
:func:`~repro.jobs.kernels.stack_blocks` the batch pipeline uses), so a
window assembled from many small arrivals holds bit-identical values to one
assembled from a single large arrival -- which is what lets the equivalence
suite demand bitwise-equal models across arrival chunkings.

Two shapes are supported:

- **tumbling** (``step`` omitted or equal to ``size``): consecutive,
  disjoint windows; a final partial window can be flushed at end-of-stream.
- **sliding** (``step < size``): overlapping windows advancing by ``step``
  rows; each row contributes to ``size / step`` updates, weighting recent
  rows more heavily.  A partial tail is dropped (its rows were already
  partially represented by the preceding overlapping windows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.jobs.kernels import stack_blocks
from repro.linalg.blocks import Matrix
from repro.linalg.stats import check_finite


@dataclass(frozen=True)
class WindowSpec:
    """How many rows per model update, and how far the window advances.

    Attributes:
        size: rows per window (the mini-batch size of the sEM update).
        step: rows the window advances between updates; ``None`` means
            tumbling (``step == size``).  Must satisfy ``1 <= step <= size``.
    """

    size: int
    step: int | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ShapeError(f"window size must be >= 1, got {self.size}")
        if self.step is not None and not 1 <= self.step <= self.size:
            raise ShapeError(
                f"window step must be in [1, {self.size}], got {self.step}"
            )

    @property
    def stride(self) -> int:
        return self.size if self.step is None else self.step

    @property
    def tumbling(self) -> bool:
        return self.stride == self.size


@dataclass(frozen=True)
class Window:
    """One materialized window of rows.

    Attributes:
        index: 0-based window sequence number.
        start_row: absolute row index of the window's first row.
        rows: the ``(n, D)`` window content, dense or CSR.
        complete: False only for a flushed partial tail (tumbling streams).
    """

    index: int
    start_row: int
    rows: Matrix
    complete: bool

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def end_row(self) -> int:
        return self.start_row + self.n_rows


class Windower:
    """Buffers arrival chunks and emits windows per a :class:`WindowSpec`.

    ``start_row`` / ``start_index`` seed the absolute position when resuming
    a checkpointed stream: a windower restarted at the last checkpoint's
    consumed-row boundary emits exactly the windows the uninterrupted
    stream would have emitted next.
    """

    def __init__(
        self,
        spec: WindowSpec,
        n_cols: int,
        *,
        start_row: int = 0,
        start_index: int = 0,
    ):
        self.spec = spec
        self.n_cols = n_cols
        self._pieces: list[Matrix] = []
        self._buffered = 0
        self._next_index = start_index
        self._consumed = start_row

    @property
    def buffered_rows(self) -> int:
        """Rows read from the source but not yet emitted in a window --
        the backpressure queue depth."""
        return self._buffered

    @property
    def consumed_rows(self) -> int:
        """Absolute row index of the buffer head: every row before it has
        been consumed by an emitted window.  This is the replay point a
        checkpoint records."""
        return self._consumed

    @property
    def next_index(self) -> int:
        return self._next_index

    def push(self, chunk: Matrix) -> list[Window]:
        """Buffer *chunk*; return every window it completes (often none).

        Raises:
            ShapeError: if the chunk's column count is not ``n_cols``.
            DataError: at the chunk's first NaN or inf, naming its row in
                the whole stream.
        """
        if chunk.shape[1] != self.n_cols:
            raise ShapeError(
                f"chunk has {chunk.shape[1]} columns, expected {self.n_cols}"
            )
        check_finite(chunk, row_offset=self._consumed + self._buffered)
        if chunk.shape[0]:
            self._pieces.append(chunk)
            self._buffered += chunk.shape[0]
        emitted = []
        while self._buffered >= self.spec.size:
            emitted.append(self._emit(self.spec.size, complete=True))
        return emitted

    def flush(self) -> Window | None:
        """End-of-stream: emit the buffered partial tail, if the spec keeps
        it (tumbling only; sliding tails are dropped)."""
        if self._buffered == 0 or not self.spec.tumbling:
            self._pieces.clear()
            self._buffered = 0
            return None
        return self._emit(self._buffered, complete=False)

    def _emit(self, n_rows: int, complete: bool) -> Window:
        window = Window(
            index=self._next_index,
            start_row=self._consumed,
            rows=self._assemble(n_rows),
            complete=complete,
        )
        advance = min(self.spec.stride, n_rows) if complete else n_rows
        self._drop(advance)
        self._consumed += advance
        self._next_index += 1
        return window

    def _assemble(self, n_rows: int) -> Matrix:
        parts = []
        need = n_rows
        for piece in self._pieces:
            take = min(need, piece.shape[0])
            parts.append(piece[:take] if take < piece.shape[0] else piece)
            need -= take
            if need == 0:
                break
        return stack_blocks(parts)

    def _drop(self, n_rows: int) -> None:
        while n_rows > 0:
            head = self._pieces[0]
            if head.shape[0] <= n_rows:
                n_rows -= head.shape[0]
                self._buffered -= head.shape[0]
                self._pieces.pop(0)
            else:
                self._pieces[0] = head[n_rows:]
                self._buffered -= n_rows
                n_rows = 0


def reference_windows(
    matrix: Matrix, spec: WindowSpec, *, flush: bool = True
) -> list[Window]:
    """The window sequence of a finite stream, computed directly.

    This is the sequential oracle the equivalence suite compares against: a
    plain slicing of the materialized matrix, no buffering involved.
    """
    windows = []
    n_rows = matrix.shape[0]
    index = 0
    start = 0
    while start + spec.size <= n_rows:
        windows.append(
            Window(
                index=index,
                start_row=start,
                rows=matrix[start : start + spec.size],
                complete=True,
            )
        )
        index += 1
        start += spec.stride
    if flush and spec.tumbling and start < n_rows:
        windows.append(
            Window(index=index, start_row=start, rows=matrix[start:], complete=False)
        )
    return windows


def window_values_equal(a: Matrix, b: Matrix) -> bool:
    """Bitwise equality of two windows' row values (dense or CSR)."""
    if a.shape != b.shape:
        return False
    if sp.issparse(a) != sp.issparse(b):
        return False
    if sp.issparse(a):
        return bool((a != b).nnz == 0)
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))
