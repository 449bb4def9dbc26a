"""Matrix placement on top of a memory model.

RedMulE consumes matrices stored row-major as packed little-endian elements
(16-bit for FP16/BF16, 8-bit for the FP8 formats); the stride between rows is
programmable in the real register file (so tiles of a larger matrix can be
processed in place).  :class:`MatrixHandle` captures that addressing
information -- including the element format -- and knows how to move numpy
matrices in and out of any memory object that exposes ``load_image`` /
``dump_image`` (TCDM, L2, plain :class:`~repro.mem.memory.Memory`).

:class:`MemoryAllocator` is a minimal bump allocator used by tests, examples
and the cluster runtime to lay out operands without hand-computing addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fp.formats import get_format
from repro.fp.vector import pack_matrix, unpack_matrix

#: Bytes per element of the default (FP16) format.
ELEMENT_BYTES = 2


@dataclass(frozen=True)
class MatrixHandle:
    """Descriptor of a matrix resident in a simulated memory.

    Attributes
    ----------
    base:
        Byte address of element (0, 0).
    rows, cols:
        Logical matrix shape.
    row_stride:
        Bytes between the first elements of consecutive rows.  Defaults to a
        dense row-major layout (``cols * element_bytes`` bytes).
    name:
        Optional label used in traces and error messages.
    fmt:
        Element format name (:mod:`repro.fp.formats`); selects both the
        element width and the encoding used by :meth:`store` / :meth:`load`.
    """

    base: int
    rows: int
    cols: int
    row_stride: Optional[int] = None
    name: str = "matrix"
    fmt: str = "fp16"
    element_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"{self.name}: matrix dimensions must be positive")
        if self.base < 0:
            raise ValueError(f"{self.name}: negative base address")
        fmt_bytes = get_format(self.fmt).storage_bytes
        if self.element_bytes is None:
            object.__setattr__(self, "element_bytes", fmt_bytes)
        elif self.element_bytes != fmt_bytes:
            raise ValueError(
                f"{self.name}: element_bytes {self.element_bytes} disagrees "
                f"with format {self.fmt!r} ({fmt_bytes} bytes)"
            )
        stride = self.row_stride
        if stride is None:
            object.__setattr__(self, "row_stride",
                               self.cols * self.element_bytes)
        elif stride < self.cols * self.element_bytes:
            raise ValueError(
                f"{self.name}: row stride {stride} smaller than a row "
                f"({self.cols * self.element_bytes} bytes)"
            )

    # ------------------------------------------------------------------
    @property
    def footprint(self) -> int:
        """Total bytes spanned by the matrix (including stride padding)."""
        return (self.rows - 1) * self.row_stride + self.cols * self.element_bytes

    @property
    def is_dense(self) -> bool:
        """True when rows are contiguous (stride equals the row size)."""
        return self.row_stride == self.cols * self.element_bytes

    def address_of(self, row: int, col: int) -> int:
        """Byte address of element ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"{self.name}: element ({row}, {col}) outside "
                f"{self.rows}x{self.cols}"
            )
        return self.base + row * self.row_stride + col * self.element_bytes

    def row_address(self, row: int) -> int:
        """Byte address of the first element of ``row``."""
        return self.address_of(row, 0)

    def end_address(self) -> int:
        """First byte address after the matrix."""
        return self.base + self.footprint

    # -- data movement ----------------------------------------------------
    def store(self, memory, matrix: np.ndarray) -> None:
        """Write a numpy matrix into the memory under this handle."""
        array = np.asarray(matrix)
        if array.shape != (self.rows, self.cols):
            raise ValueError(
                f"{self.name}: shape mismatch, handle is {self.rows}x{self.cols}, "
                f"matrix is {array.shape}"
            )
        if self.is_dense:
            memory.load_image(self.base, pack_matrix(array, self.fmt))
            return
        for row in range(self.rows):
            memory.load_image(
                self.row_address(row),
                pack_matrix(array[row : row + 1, :], self.fmt),
            )

    def load(self, memory) -> np.ndarray:
        """Read the matrix back from memory as a float64 array of format
        values (the dtype of :func:`repro.fp.vector.quantize`)."""
        if self.is_dense:
            data = memory.dump_image(
                self.base, self.rows * self.cols * self.element_bytes
            )
            return unpack_matrix(data, self.rows, self.cols, self.fmt)
        rows = []
        for row in range(self.rows):
            data = memory.dump_image(self.row_address(row),
                                     self.cols * self.element_bytes)
            rows.append(unpack_matrix(data, 1, self.cols, self.fmt))
        return np.vstack(rows)

    def tile(self, row0: int, col0: int, rows: int, cols: int,
             name: Optional[str] = None) -> "MatrixHandle":
        """Return a handle describing a sub-tile of this matrix (same memory)."""
        if row0 < 0 or col0 < 0 or row0 + rows > self.rows or col0 + cols > self.cols:
            raise ValueError(
                f"{self.name}: tile ({row0}:{row0 + rows}, {col0}:{col0 + cols}) "
                f"outside {self.rows}x{self.cols}"
            )
        return MatrixHandle(
            base=self.address_of(row0, col0),
            rows=rows,
            cols=cols,
            row_stride=self.row_stride,
            name=name or f"{self.name}[{row0}:{row0 + rows},{col0}:{col0 + cols}]",
            fmt=self.fmt,
        )


class MemoryAllocator:
    """Bump allocator that places matrices in a memory region.

    The allocator never frees; it mirrors how bare-metal PULP applications
    lay out static buffers.  Alignment defaults to 32 bytes so wide (256-bit)
    accesses from the shallow branch start on a clean boundary.
    """

    def __init__(self, base: int, size: int, alignment: int = 32) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        self.base = base
        self.size = size
        self.alignment = alignment
        self._cursor = base

    def _align(self, addr: int) -> int:
        mask = self.alignment - 1
        return (addr + mask) & ~mask

    @property
    def used(self) -> int:
        """Bytes consumed so far (including alignment padding)."""
        return self._cursor - self.base

    @property
    def remaining(self) -> int:
        """Bytes still available."""
        return self.base + self.size - self._cursor

    def alloc_bytes(self, nbytes: int) -> int:
        """Reserve ``nbytes`` bytes and return their base address."""
        addr = self._align(self._cursor)
        if addr + nbytes > self.base + self.size:
            raise MemoryError(
                f"allocator exhausted: need {nbytes} bytes, "
                f"{self.base + self.size - addr} available"
            )
        self._cursor = addr + nbytes
        return addr

    def alloc_matrix(self, rows: int, cols: int, name: str = "matrix",
                     fmt: str = "fp16") -> MatrixHandle:
        """Reserve space for a dense ``rows x cols`` matrix of ``fmt`` elements."""
        element_bytes = get_format(fmt).storage_bytes
        addr = self.alloc_bytes(rows * cols * element_bytes)
        return MatrixHandle(base=addr, rows=rows, cols=cols, name=name, fmt=fmt)

    def mark(self) -> int:
        """Return an opaque marker of the current allocation state."""
        return self._cursor

    def release_to(self, marker: int) -> None:
        """Release every allocation made after :meth:`mark` returned ``marker``."""
        if marker < self.base or marker > self.base + self.size:
            raise ValueError("marker does not belong to this allocator")
        self._cursor = marker

    def reset(self) -> None:
        """Release everything (start allocating from the base again)."""
        self._cursor = self.base
