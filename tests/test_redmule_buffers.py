"""Tests for the X block buffer, W line buffer and Z store queue."""

import pytest

from repro.redmule.buffers import (
    WLineBuffer,
    XBlockBuffer,
    ZStoreBuffer,
    ZStoreRequest,
)
from repro.redmule.config import RedMulEConfig


@pytest.fixture
def config():
    return RedMulEConfig.reference()


class TestXBlockBuffer:
    def test_block_becomes_ready_when_all_rows_loaded(self, config):
        buffer = XBlockBuffer(config)
        assert not buffer.block_ready(0)
        for row in range(config.length):
            buffer.load_line(0, row, [row] * config.block_k)
        assert buffer.block_ready(0)
        assert buffer.lines(0)[3] == [3] * config.block_k

    def test_missing_lines(self, config):
        buffer = XBlockBuffer(config)
        buffer.load_line(0, 2, [0] * 16)
        missing = buffer.missing_lines(0)
        assert 2 not in missing and len(missing) == config.length - 1
        assert buffer.missing_lines(5) == list(range(config.length))

    def test_capacity_limit(self, config):
        buffer = XBlockBuffer(config, capacity_blocks=2)
        buffer.load_line(0, 0, [0] * 16)
        buffer.load_line(1, 0, [0] * 16)
        assert not buffer.can_accept(2)
        with pytest.raises(RuntimeError):
            buffer.load_line(2, 0, [0] * 16)

    def test_a_reserved_block_takes_a_slot_before_its_lines_arrive(
            self, config):
        buffer = XBlockBuffer(config, capacity_blocks=2)
        buffer.reserve(1)
        buffer.reserve(2)
        assert buffer.resident_blocks() == [1, 2]
        assert buffer.missing_lines(2) == list(range(config.length))
        assert not buffer.can_accept(3)
        with pytest.raises(RuntimeError, match="overflow"):
            buffer.reserve(3)
        buffer.load_line(2, 0, [0] * 16)
        assert buffer.missing_lines(2) == list(range(1, config.length))

    def test_eviction_frees_capacity(self, config):
        buffer = XBlockBuffer(config, capacity_blocks=2)
        buffer.load_line(0, 0, [0] * 16)
        buffer.load_line(1, 0, [0] * 16)
        buffer.evict_before(1)
        assert buffer.resident_blocks() == [1]
        assert buffer.can_accept(2)

    def test_double_load_rejected(self, config):
        buffer = XBlockBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        with pytest.raises(RuntimeError):
            buffer.load_line(0, 0, [1] * 16)

    def test_lines_of_incomplete_block_rejected(self, config):
        buffer = XBlockBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        with pytest.raises(RuntimeError):
            buffer.lines(0)

    def test_reset(self, config):
        buffer = XBlockBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        buffer.reset()
        assert buffer.resident_blocks() == []

    def test_rejects_zero_capacity(self, config):
        with pytest.raises(ValueError):
            XBlockBuffer(config, capacity_blocks=0)


class TestWLineBuffer:
    def test_load_and_lookup(self, config):
        buffer = WLineBuffer(config)
        buffer.load_line(2, 5, list(range(16)))
        assert buffer.has_line(2, 5)
        assert not buffer.has_line(2, 6)
        assert buffer.line(2, 5)[3] == 3

    def test_double_load_rejected(self, config):
        buffer = WLineBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        with pytest.raises(RuntimeError):
            buffer.load_line(0, 0, [0] * 16)

    def test_eviction(self, config):
        buffer = WLineBuffer(config)
        buffer.load_line(1, 0, [0] * 16)
        buffer.load_line(1, 1, [0] * 16)
        buffer.evict(1, 0)
        assert not buffer.has_line(1, 0) and buffer.has_line(1, 1)
        buffer.evict(1, 0)  # idempotent

    def test_evict_chunks_before(self, config):
        buffer = WLineBuffer(config)
        for chunk in range(4):
            buffer.load_line(0, chunk, [0] * 16)
        buffer.load_line(1, 0, [0] * 16)
        buffer.evict_chunks_before(0, 2)
        assert not buffer.has_line(0, 0) and not buffer.has_line(0, 1)
        assert buffer.has_line(0, 2) and buffer.has_line(1, 0)

    def test_resident_count(self, config):
        buffer = WLineBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        buffer.load_line(1, 0, [0] * 16)
        buffer.load_line(1, 1, [0] * 16)
        assert buffer.resident_count() == 3
        assert buffer.resident_count(1) == 2

    def test_reset(self, config):
        buffer = WLineBuffer(config)
        buffer.load_line(0, 0, [0] * 16)
        buffer.reset()
        assert buffer.resident_count() == 0


class TestZStoreBuffer:
    def _request(self, addr=0x100):
        return ZStoreRequest(addr=addr, bits=[0] * 16, valid_elements=16)

    def test_fifo_order(self, config):
        buffer = ZStoreBuffer(config)
        assert buffer.push(self._request(0x100))
        assert buffer.push(self._request(0x200))
        assert buffer.pop().addr == 0x100
        assert buffer.pop().addr == 0x200
        assert buffer.pop() is None

    def test_capacity(self, config):
        buffer = ZStoreBuffer(config)
        for i in range(config.z_queue_depth):
            assert buffer.push(self._request(i * 32))
        assert buffer.full
        assert not buffer.push(self._request(0x999))

    def test_peek(self, config):
        buffer = ZStoreBuffer(config)
        assert buffer.peek() is None
        buffer.push(self._request(0x40))
        assert buffer.peek().addr == 0x40
        assert buffer.occupancy == 1

    def test_statistics(self, config):
        buffer = ZStoreBuffer(config)
        buffer.push(self._request())
        buffer.push(self._request())
        buffer.pop()
        assert buffer.pushes == 2 and buffer.drains == 1
        assert buffer.max_occupancy == 2

    def test_refused_push_is_not_counted(self, config):
        buffer = ZStoreBuffer(config)
        for i in range(config.z_queue_depth):
            buffer.push(self._request(i * 32))
        assert not buffer.push(self._request(0x999))
        assert buffer.pushes == config.z_queue_depth
        assert buffer.occupancy == config.z_queue_depth
        assert 0x999 not in [entry.addr for entry in buffer.snapshot()]

    def test_pop_of_an_empty_queue_drains_nothing(self, config):
        buffer = ZStoreBuffer(config)
        assert buffer.empty
        assert buffer.pop() is None
        assert buffer.drains == 0
        buffer.push(self._request())
        assert not buffer.empty
        buffer.pop()
        assert buffer.empty and buffer.drains == 1

    def test_snapshot_keeps_and_restore_replaces_the_queue(self, config):
        buffer = ZStoreBuffer(config)
        buffer.push(self._request(0x100))
        buffer.push(self._request(0x200))
        assert [entry.addr for entry in buffer.snapshot()] == [0x100, 0x200]
        assert buffer.occupancy == 2  # the snapshot consumed nothing
        buffer.restore([self._request(0x300)])
        assert buffer.occupancy == 1
        assert buffer.pop().addr == 0x300
        assert buffer.pop() is None
