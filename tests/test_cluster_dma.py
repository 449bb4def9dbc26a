"""Tests for the DMA engine and the event unit."""

import numpy as np
import pytest

from repro.cluster.dma import DmaEngine, DmaTransfer
from repro.cluster.sync import EventUnit
from repro.fp.formats import FP16
from repro.fp.vector import pack_matrix, random_matrix, unpack_matrix
from repro.mem.l2 import L2Memory
from repro.mem.tcdm import Tcdm


@pytest.fixture
def dma():
    return DmaEngine(L2Memory(), Tcdm())


class TestDmaEngine:
    def test_flat_transfer_l2_to_tcdm(self, dma):
        payload = bytes(range(64))
        dma.l2.load_image(dma.l2.base + 0x100, payload)
        cycles = dma.execute(DmaTransfer(src=dma.l2.base + 0x100,
                                         dst=dma.tcdm.base + 0x40,
                                         row_bytes=64))
        assert dma.tcdm.dump_image(dma.tcdm.base + 0x40, 64) == payload
        assert cycles == dma.l2.burst_cycles(64)

    def test_flat_transfer_tcdm_to_l2(self, dma):
        payload = b"\x42" * 32
        dma.tcdm.load_image(dma.tcdm.base, payload)
        dma.execute(DmaTransfer(src=dma.tcdm.base, dst=dma.l2.base, row_bytes=32))
        assert dma.l2.dump_image(dma.l2.base, 32) == payload

    def test_2d_strided_transfer(self, dma):
        matrix = random_matrix(4, 8, seed=0)
        dma.l2.load_image(dma.l2.base, pack_matrix(matrix, FP16))
        # Gather the 4 rows (16 bytes each) into a strided TCDM layout.
        dma.execute(DmaTransfer(src=dma.l2.base, dst=dma.tcdm.base,
                                row_bytes=16, rows=4,
                                src_stride=16, dst_stride=64))
        for row in range(4):
            raw = dma.tcdm.dump_image(dma.tcdm.base + row * 64, 16)
            assert np.array_equal(unpack_matrix(raw, 1, 8, FP16),
                                  matrix[row:row + 1])

    def test_cycles_scale_with_rows(self, dma):
        flat = dma.transfer_cycles(DmaTransfer(src=0, dst=0, row_bytes=256))
        rows = dma.transfer_cycles(DmaTransfer(src=0, dst=0, row_bytes=64, rows=4))
        assert rows > flat  # per-row burst setup makes 2-D transfers slower

    def test_statistics(self, dma):
        dma.l2.load_image(dma.l2.base, bytes(16))
        dma.execute(DmaTransfer(src=dma.l2.base, dst=dma.tcdm.base, row_bytes=16))
        assert dma.transfers == 1
        assert dma.bytes_moved == 16
        assert dma.busy_cycles > 0
        dma.reset_stats()
        assert dma.bytes_moved == 0

    def test_rejects_empty_transfer(self, dma):
        with pytest.raises(ValueError):
            dma.execute(DmaTransfer(src=0, dst=0, row_bytes=0))


class TestEventUnit:
    def test_raise_and_wait(self):
        unit = EventUnit()
        unit.raise_event("redmule_done")
        assert unit.has_pending("redmule_done")
        cycles = unit.wait_event("redmule_done")
        assert cycles == unit.wakeup_cycles
        assert not unit.has_pending("redmule_done")

    def test_barrier_cost(self):
        unit = EventUnit(barrier_cycles=40)
        assert unit.barrier() == 40

    def test_event_statistics(self):
        unit = EventUnit()
        unit.raise_event("dma_done")
        unit.raise_event("dma_done")
        assert unit.raised["dma_done"] == 2
