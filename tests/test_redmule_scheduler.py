"""Tests for the tiling scheduler."""

import numpy as np
import pytest

from repro.interco.hci import Hci, HciConfig
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.datapath import Datapath
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import TileSchedule


def make_schedule(m, n, k, config=None):
    config = config or RedMulEConfig.reference()
    job = MatmulJob(x_addr=0, w_addr=0x1000, z_addr=0x2000, m=m, n=n, k=k)
    return TileSchedule(job, config)


class TestTileGrid:
    def test_exact_fit(self):
        schedule = make_schedule(16, 32, 32)
        assert schedule.tiles_m == 2
        assert schedule.tiles_k == 2
        assert schedule.n_tiles == 4
        assert schedule.n_chunks == 8
        assert len(schedule.tiles()) == 4

    def test_edge_tiles_are_clipped(self):
        schedule = make_schedule(13, 10, 20)
        assert schedule.tiles_m == 2 and schedule.tiles_k == 2
        tiles = schedule.tiles()
        assert tiles[0].rows == 8 and tiles[0].cols == 16
        assert tiles[1].rows == 8 and tiles[1].cols == 4
        assert tiles[2].rows == 5 and tiles[2].cols == 16
        assert tiles[3].rows == 5 and tiles[3].cols == 4

    def test_tile_origins(self):
        schedule = make_schedule(16, 8, 32)
        tiles = schedule.tiles()
        assert (tiles[0].m0, tiles[0].k0) == (0, 0)
        assert (tiles[1].m0, tiles[1].k0) == (0, 16)
        assert (tiles[2].m0, tiles[2].k0) == (8, 0)

    def test_single_tiny_tile(self):
        schedule = make_schedule(1, 1, 1)
        assert schedule.n_tiles == 1
        tile = schedule.tile(0)
        assert tile.rows == 1 and tile.cols == 1

    def test_tile_index_bounds(self):
        schedule = make_schedule(8, 8, 16)
        with pytest.raises(IndexError):
            schedule.tile(1)
        with pytest.raises(IndexError):
            schedule.tile(-1)

    def test_n_blocks_covers_padded_inner_dimension(self):
        # N=20 -> 5 chunks of 4 -> 20 padded elements -> 2 blocks of 16.
        schedule = make_schedule(8, 20, 16)
        assert schedule.n_chunks == 5
        assert schedule.n_blocks == 2


class TestAccounting:
    def test_tile_macs(self):
        schedule = make_schedule(13, 10, 20)
        tiles = schedule.tiles()
        total = sum(schedule.tile_macs(tile) for tile in tiles)
        assert total == 13 * 10 * 20

    def test_issued_macs_includes_padding(self):
        schedule = make_schedule(8, 16, 16)
        # One tile, 4 chunks, no padding: issued == useful.
        assert schedule.issued_macs() == 8 * 16 * 16

    def test_issued_macs_padding_overhead(self):
        schedule = make_schedule(1, 1, 1)
        # The array still issues a full tile: L * block_k * H lanes.
        config = RedMulEConfig.reference()
        assert schedule.issued_macs() == config.length * config.block_k * config.height
        assert schedule.issued_macs() > schedule.job.total_macs

    @pytest.mark.parametrize("fmt,lanes", [("fp16", 1), ("fp8-e4m3", 2)])
    @pytest.mark.parametrize("shape", [(8, 16, 16), (13, 10, 20),
                                       (9, 5, 40)])
    def test_issued_macs_counts_every_datapath_issue(self, monkeypatch,
                                                     shape, fmt, lanes):
        """Each column issue the event-stepped engine makes fills ``L``
        rows of ``lanes`` packed lanes; the schedule's closed form and the
        result's ``issued_macs`` both equal that count."""
        issues = []
        issue = Datapath.issue
        monkeypatch.setattr(Datapath, "issue", lambda self, *tag: (
            issues.append(tag), issue(self, *tag)))
        config = RedMulEConfig(format=fmt)
        tcdm = Tcdm(TcdmConfig())
        engine = RedMulE(config, Hci(tcdm, HciConfig()),
                         backend="exact-simd")
        m, n, k = shape
        eb = config.element_bytes
        job = MatmulJob(x_addr=tcdm.base, w_addr=tcdm.base + 0x1000,
                        z_addr=tcdm.base + 0x2000, m=m, n=n, k=k,
                        element_bytes=eb)
        result = engine.run_job(job)
        schedule = TileSchedule(job, config)
        assert schedule.issued_macs() == len(issues) * config.length * lanes
        assert result.issued_macs == schedule.issued_macs()

    def test_active_mask_gates_the_inner_padding(self):
        schedule = make_schedule(8, 10, 16)
        assert schedule.active_mask.tolist() == [True] * 10 + [False] * 2
        assert np.all(make_schedule(8, 16, 16).active_mask)

    def test_different_geometry(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        schedule = make_schedule(9, 5, 9, config)
        assert schedule.tiles_m == 3          # ceil(9 / 4)
        assert schedule.tiles_k == 3          # ceil(9 / 4)  (block_k = 4)
        assert schedule.n_chunks == 3         # ceil(5 / 2)
