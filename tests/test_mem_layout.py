"""Tests for matrix layout handles and the bump allocator."""

import numpy as np
import pytest

from repro.fp.vector import random_matrix
from repro.mem.layout import MatrixHandle, MemoryAllocator
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm

FORMATS = ("fp16", "bf16", "fp8-e4m3", "fp8-e5m2")


class TestMatrixHandle:
    def test_dense_stride_defaults(self):
        handle = MatrixHandle(base=0x100, rows=4, cols=6)
        assert handle.row_stride == 12
        assert handle.is_dense
        assert handle.footprint == 4 * 6 * 2

    def test_addressing(self):
        handle = MatrixHandle(base=0x100, rows=4, cols=6)
        assert handle.address_of(0, 0) == 0x100
        assert handle.address_of(0, 3) == 0x106
        assert handle.address_of(2, 0) == 0x100 + 2 * 12
        assert handle.row_address(3) == 0x100 + 3 * 12
        assert handle.end_address() == 0x100 + 48

    def test_strided_layout(self):
        handle = MatrixHandle(base=0, rows=3, cols=2, row_stride=32)
        assert not handle.is_dense
        assert handle.address_of(1, 1) == 34
        assert handle.footprint == 2 * 32 + 4

    def test_bounds(self):
        handle = MatrixHandle(base=0, rows=2, cols=2)
        with pytest.raises(IndexError):
            handle.address_of(2, 0)
        with pytest.raises(IndexError):
            handle.address_of(0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixHandle(base=0, rows=0, cols=4)
        with pytest.raises(ValueError):
            MatrixHandle(base=-2, rows=1, cols=1)
        with pytest.raises(ValueError):
            MatrixHandle(base=0, rows=2, cols=4, row_stride=6)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_store_load_roundtrip_dense(self, fmt):
        memory = Memory(4096)
        handle = MatrixHandle(base=64, rows=5, cols=7, fmt=fmt)
        matrix = random_matrix(5, 7, fmt, seed=1)
        handle.store(memory, matrix)
        loaded = handle.load(memory)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, matrix)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_store_load_roundtrip_strided(self, fmt):
        memory = Memory(4096)
        handle = MatrixHandle(base=0, rows=4, cols=3, row_stride=64, fmt=fmt)
        matrix = random_matrix(4, 3, fmt, seed=2)
        handle.store(memory, matrix)
        loaded = handle.load(memory)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, matrix)

    def test_store_on_tcdm(self):
        tcdm = Tcdm()
        handle = MatrixHandle(base=tcdm.base + 128, rows=3, cols=3)
        matrix = random_matrix(3, 3, seed=3)
        handle.store(tcdm, matrix)
        assert np.array_equal(handle.load(tcdm), matrix)

    def test_store_rejects_wrong_shape(self):
        memory = Memory(1024)
        handle = MatrixHandle(base=0, rows=2, cols=2)
        with pytest.raises(ValueError):
            handle.store(memory, np.zeros((3, 2)))

    def test_tile_view_shares_memory(self):
        memory = Memory(4096)
        handle = MatrixHandle(base=0, rows=8, cols=8)
        matrix = random_matrix(8, 8, seed=4)
        handle.store(memory, matrix)
        tile = handle.tile(2, 4, 3, 4)
        assert tile.row_stride == handle.row_stride
        assert np.array_equal(tile.load(memory), matrix[2:5, 4:8])

    def test_tile_bounds(self):
        handle = MatrixHandle(base=0, rows=4, cols=4)
        with pytest.raises(ValueError):
            handle.tile(2, 2, 4, 4)


class TestMemoryAllocator:
    def test_alignment(self):
        allocator = MemoryAllocator(base=0x1000, size=1024, alignment=32)
        first = allocator.alloc_bytes(10)
        second = allocator.alloc_bytes(10)
        assert first == 0x1000
        assert second == 0x1020  # aligned up past the 10-byte allocation

    def test_exhaustion(self):
        allocator = MemoryAllocator(base=0, size=64)
        allocator.alloc_bytes(48)
        with pytest.raises(MemoryError):
            allocator.alloc_bytes(32)

    def test_matrix_allocation(self):
        allocator = MemoryAllocator(base=0x1000_0000, size=4096)
        handle = allocator.alloc_matrix(8, 16, "X")
        assert handle.rows == 8 and handle.cols == 16
        assert handle.base % 32 == 0

    def test_used_and_remaining(self):
        allocator = MemoryAllocator(base=0, size=256)
        allocator.alloc_bytes(100)
        assert allocator.used == 100
        assert allocator.remaining == 156

    def test_mark_and_release(self):
        allocator = MemoryAllocator(base=0, size=256)
        allocator.alloc_bytes(32)
        marker = allocator.mark()
        allocator.alloc_bytes(64)
        allocator.release_to(marker)
        assert allocator.used == 32
        with pytest.raises(ValueError):
            allocator.release_to(1024)

    def test_reset(self):
        allocator = MemoryAllocator(base=0, size=128)
        allocator.alloc_bytes(64)
        allocator.reset()
        assert allocator.used == 0

    def test_rejects_bad_alignment(self):
        with pytest.raises(ValueError):
            MemoryAllocator(base=0, size=64, alignment=3)
