"""Tests for the streamer (wide-port scheduling and data marshalling)."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.interco.hci import Hci, HciConfig
from repro.interco.log_interco import CoreRequest
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.streamer import StreamRequest, Streamer, pad_line


@pytest.fixture
def setup():
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig())
    streamer = Streamer(RedMulEConfig.reference(), hci)
    return tcdm, hci, streamer


class TestPacking:
    def test_line_roundtrip_through_memory(self):
        bits = [FP16.float_to_bits(v) for v in (1.0, -2.0, 0.5, 1024.0)]
        tcdm = Tcdm()
        tcdm.write_u16_line(tcdm.base, bits)
        assert tcdm.dump_image(tcdm.base, 8) == np.asarray(bits, "<u2").tobytes()
        assert list(tcdm.read_u16_line(tcdm.base, 4)) == bits

    def test_pad_line_pads_with_zeros(self):
        padded = pad_line(np.asarray([0x3C00], dtype=np.uint16), 4)
        assert list(padded) == [0x3C00, 0, 0, 0]
        full = np.asarray([1, 2], dtype=np.uint16)
        assert pad_line(full, 2) is full


class TestStreamerQueues:
    def test_priority_w_over_x_over_z(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("z", tcdm.base + 0x80, 4, write=True,
                                       payload_bits=[1, 2, 3, 4]))
        streamer.enqueue(StreamRequest("x", tcdm.base + 0x40, 4))
        streamer.enqueue(StreamRequest("w", tcdm.base, 4))
        kinds = []
        while streamer.busy:
            done = streamer.cycle()
            if done is not None:
                kinds.append(done.kind)
        assert kinds == ["w", "x", "z"]

    def test_load_returns_padded_bits(self, setup):
        tcdm, _, streamer = setup
        tcdm.write_u16(tcdm.base, 0x3C00)
        tcdm.write_u16(tcdm.base + 2, 0xC000)
        streamer.enqueue(StreamRequest("w", tcdm.base, 2, meta=("w", 0, 0)))
        done = streamer.cycle()
        assert done is not None
        assert list(done.data_bits[:2]) == [0x3C00, 0xC000]
        assert len(done.data_bits) == 16  # padded to the line width
        assert done.meta == ("w", 0, 0)

    def test_store_writes_memory(self, setup):
        tcdm, _, streamer = setup
        payload = [0x1111, 0x2222, 0x3333]
        streamer.enqueue(StreamRequest("z", tcdm.base + 0x100, 3, write=True,
                                       payload_bits=payload))
        done = streamer.cycle()
        assert done.write
        assert tcdm.read_u16(tcdm.base + 0x100) == 0x1111
        assert tcdm.read_u16(tcdm.base + 0x104) == 0x3333

    def test_idle_cycles_counted(self, setup):
        _, _, streamer = setup
        assert streamer.cycle() is None
        assert streamer.stats.idle_cycles == 1
        assert streamer.stats.port_utilisation == 0.0

    def test_statistics(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("w", tcdm.base, 16))
        streamer.enqueue(StreamRequest("x", tcdm.base + 64, 16))
        streamer.enqueue(StreamRequest("z", tcdm.base + 128, 16, write=True,
                                       payload_bits=[0] * 16))
        while streamer.busy:
            streamer.cycle()
        stats = streamer.stats
        assert stats.w_loads == 1 and stats.x_loads == 1 and stats.z_stores == 1
        assert stats.accesses == 3
        assert 0.0 < stats.port_utilisation <= 1.0

    def test_y_preload_sits_between_w_and_x(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("x", tcdm.base + 0x40, 4))
        streamer.enqueue(StreamRequest("y", tcdm.base + 0x80, 4))
        streamer.enqueue(StreamRequest("w", tcdm.base, 4))
        kinds = []
        while streamer.busy:
            done = streamer.cycle()
            if done is not None:
                kinds.append(done.kind)
        assert kinds == ["w", "y", "x"]
        assert streamer.stats.y_loads == 1

    def test_requests_of_one_kind_complete_oldest_first(self, setup):
        tcdm, _, streamer = setup
        for row in range(3):
            streamer.enqueue(StreamRequest("x", tcdm.base + 0x40 * row, 4,
                                           meta=("x", 0, row)))
        done = [streamer.cycle() for _ in range(3)]
        assert [request.meta for request in done] == \
            [("x", 0, 0), ("x", 0, 1), ("x", 0, 2)]
        assert not streamer.busy

    def test_pending_counts_per_kind(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("w", tcdm.base, 4))
        streamer.enqueue(StreamRequest("x", tcdm.base + 0x40, 4))
        streamer.enqueue(StreamRequest("x", tcdm.base + 0x80, 4))
        assert streamer.pending() == 3
        assert streamer.pending("w") == 1 and streamer.pending("x") == 2
        assert streamer.pending("y") == 0 and streamer.pending("z") == 0
        streamer.cycle()
        assert streamer.pending("w") == 0 and streamer.pending() == 2

    def test_snapshot_keeps_and_restore_replaces_a_queue(self, setup):
        tcdm, _, streamer = setup
        first = StreamRequest("x", tcdm.base, 4, meta=("x", 0, 0))
        second = StreamRequest("x", tcdm.base + 0x40, 4, meta=("x", 0, 1))
        streamer.enqueue(first)
        streamer.enqueue(second)
        assert streamer.snapshot_queue("x") == [first, second]
        assert streamer.pending("x") == 2  # the snapshot consumed nothing
        streamer.restore_queue("x", [second])
        assert streamer.snapshot_queue("x") == [second]
        assert streamer.cycle() is second

    def test_flush_drops_every_queued_request(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("w", tcdm.base, 4))
        streamer.enqueue(StreamRequest("y", tcdm.base + 0x40, 4))
        streamer.enqueue(StreamRequest("z", tcdm.base + 0x80, 4, write=True,
                                       payload_bits=[7, 7, 7, 7]))
        streamer.flush()
        assert not streamer.busy
        assert streamer.cycle() is None
        assert tcdm.read_u16(tcdm.base + 0x80) == 0  # the store never ran

    def test_reset_stats_leaves_the_queues(self, setup):
        tcdm, _, streamer = setup
        streamer.enqueue(StreamRequest("w", tcdm.base, 4))
        streamer.enqueue(StreamRequest("x", tcdm.base + 0x40, 4))
        streamer.cycle()
        streamer.reset_stats()
        assert streamer.stats.accesses == 0 and streamer.stats.cycles == 0
        assert streamer.pending() == 1
        assert streamer.cycle().kind == "x"
        assert streamer.stats.x_loads == 1 and streamer.stats.w_loads == 0

    def test_rejects_bad_requests(self, setup):
        _, _, streamer = setup
        with pytest.raises(ValueError):
            streamer.enqueue(StreamRequest("bogus", 0, 4))
        with pytest.raises(ValueError):
            streamer.enqueue(StreamRequest("z", 0, 4, write=True))

    def test_port_requirement_checked(self):
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig(n_wide_ports=4))
        with pytest.raises(ValueError):
            Streamer(RedMulEConfig.reference(), hci)


class TestStallsUnderContention:
    def test_wide_request_retries_after_stall(self):
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig(max_wide_streak=1))
        streamer = Streamer(RedMulEConfig.reference(), hci)
        tcdm.write_u16(tcdm.base, 0xAAAA)
        streamer.enqueue(StreamRequest("w", tcdm.base, 16))
        # First force a contended cycle win for the wide port, then another
        # contended cycle where the rotation gives the banks to the cores.
        hci.rotator._wide_streak = 1  # pretend the wide port just had a streak
        hci.submit_log_requests([CoreRequest(initiator=0, addr=tcdm.base)])
        assert streamer.cycle() is None          # stalled by the rotation
        assert streamer.stats.stall_cycles == 1
        done = streamer.cycle()                  # retried and granted
        assert done is not None and done.data_bits[0] == 0xAAAA
