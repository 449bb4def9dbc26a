"""Tiling scheduler: how a matmul job maps onto the FMA array.

RedMulE processes ``Z = X . W`` as a grid of *tiles*: each tile covers ``L``
consecutive rows of Z (one per FMA row) and ``block_k = H*(P+1)`` consecutive
columns of Z (the elements a row keeps in flight), and accumulates over the
whole inner dimension ``N`` in chunks of ``H``.  Edge tiles at the bottom /
right of Z are narrower; the scheduler captures their true extent so the
engine can skip memory traffic for padding lanes while still issuing the full
array (padding lanes compute on zeros, exactly like the real hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob


@dataclass(frozen=True)
class Tile:
    """One L x elements_per_line output tile of the job."""

    #: Linear tile index (row-major over the tile grid).
    index: int
    #: First Z row covered by the tile.
    m0: int
    #: First Z column covered by the tile.
    k0: int
    #: Number of architecturally valid rows (<= L).
    rows: int
    #: Number of architecturally valid columns (<= elements_per_line).
    cols: int


class TileSchedule:
    """Iterates the tile grid of a job for a given RedMulE configuration."""

    def __init__(self, job: MatmulJob, config: RedMulEConfig) -> None:
        self.job = job
        self.config = config

    # -- grid geometry -------------------------------------------------------
    @property
    def tiles_m(self) -> int:
        """Number of tile rows (ceil(M / L))."""
        return -(-self.job.m // self.config.length)

    @property
    def tiles_k(self) -> int:
        """Number of tile columns (ceil(K / elements_per_line))."""
        return -(-self.job.k // self.config.elements_per_line)

    @property
    def n_tiles(self) -> int:
        """Total number of tiles."""
        return self.tiles_m * self.tiles_k

    @property
    def n_chunks(self) -> int:
        """Inner-dimension chunks per tile (ceil(N / H))."""
        return -(-self.job.n // self.config.height)

    @property
    def n_blocks(self) -> int:
        """X blocks per tile: line-sized groups of the inner dimension."""
        return -(-self.n_chunks * self.config.height
                 // self.config.elements_per_line)

    @property
    def active_mask(self) -> np.ndarray:
        """Per inner step, True where the chain consumes a real operand.

        Steps are numbered in issue order (chunk-major, then column), which
        is the inner index; the ``n_chunks * H - N`` steps past ``N`` are the
        operand-gated padding lanes of the last chunk, which pass the
        accumulator through.  Every tile of the job shares this mask.
        """
        return np.arange(self.n_chunks * self.config.height) < self.job.n

    # -- iteration --------------------------------------------------------------
    def tile(self, index: int) -> Tile:
        """Return the tile with linear ``index`` (row-major: K inner, M outer)."""
        if not (0 <= index < self.n_tiles):
            raise IndexError(f"tile index {index} out of range 0..{self.n_tiles - 1}")
        tile_m, tile_k = divmod(index, self.tiles_k)
        m0 = tile_m * self.config.length
        k0 = tile_k * self.config.elements_per_line
        return Tile(
            index=index,
            m0=m0,
            k0=k0,
            rows=min(self.config.length, self.job.m - m0),
            cols=min(self.config.elements_per_line, self.job.k - k0),
        )

    def __iter__(self) -> Iterator[Tile]:
        for index in range(self.n_tiles):
            yield self.tile(index)

    def __len__(self) -> int:
        return self.n_tiles

    def tiles(self) -> List[Tile]:
        """All tiles as a list."""
        return list(self)

    def tile_signature(self, tile: Tile):
        """The geometry that determines a tile's cycle schedule.

        Two tiles with equal signatures run the exact same control schedule
        (given equal entry state): the inner dimension fixes the chunk
        count and gating pattern, ``accumulate`` adds the Y pre-load
        traffic, and ``rows``/``cols`` set the X/Z line extents.  Position
        (``m0``/``k0``) only changes addresses, which never affect timing on
        an uncontended port.  This is the per-tile part of the trace key
        used by :mod:`repro.redmule.trace`.
        """
        return (self.job.n, bool(self.job.accumulate), tile.rows, tile.cols)

    # -- accounting ----------------------------------------------------------------
    def tile_macs(self, tile: Tile) -> int:
        """Useful MACs of one tile (``rows * cols * N``)."""
        return tile.rows * tile.cols * self.job.n

    def issued_macs(self) -> int:
        """MAC slots issued by the array for the whole job, padding included.

        The array always issues ``L * elements_per_line`` lanes per chunk
        per tile, so padding lanes (rows beyond M, columns beyond K, inner
        padding beyond N) are issued but architecturally useless.  The ratio
        of ``job.total_macs`` to this number is the array's spatial
        utilisation.
        """
        per_tile = self.config.length * self.config.elements_per_line * (
            self.n_chunks * self.config.height
        )
        return per_tile * self.n_tiles
