"""Closed-form RedMulE performance model.

The cycle-accurate engine is the ground truth but is too slow (in Python) for
wide design-space sweeps and for workloads with hundreds of millions of MACs.
This model reproduces the engine's cycle count analytically by following the
same execution structure:

* the job is split into ``ceil(M/L) * ceil(K/elements_per_line)`` tiles
  (``elements_per_line = block_k`` for 16-bit formats and ``2 * block_k``
  for the packed FP8 formats);
* each tile issues for ``(H-1)*(P+1) + ceil(N/H)*block_k`` cycles, then takes
  ``P+1`` extra cycles to drain the last column;
* before the first issue of a tile the streamer must load the first X block
  (one line per valid row) and the initial W lines through the single wide
  port (one access per cycle), which stalls the array;
* a non-accumulating tile pays one extra boundary cycle when its first Z row
  is handed to the store path (an accumulating tile hides it behind the Y
  pre-load of the next tile);
* after the last tile the remaining Z lines trickle out at one line per
  cycle.

A tile's cost depends on its position only through its valid row count,
and that count takes two values: the ``(tiles_m - 1) * tiles_k`` tiles
above the last tile row are full (``L`` rows), and the ``tiles_k`` tiles of
the last tile row hold ``r = M - (tiles_m - 1) * L`` rows (``r = L`` when
``L`` divides ``M``).  Tiles run row-major, so the last tile is one of the
``r``-row class.  The model therefore sums the per-tile expression over
the two classes in closed form instead of walking the tile grid, and
:meth:`RedMulEPerfModel.is_exact` checks the only three (previous,
current) row-class pairs the row-major order produces.  Both cost O(1) per
job, whatever its shape.

On the *uncontended* domain -- where the wide port has enough spare slots per
``block_k``-cycle chunk window to serve the mid-tile W and X refills (see
:meth:`RedMulEPerfModel.is_exact`) -- the estimate is **bit-exact**: it equals
the engine's measured cycle count on every shape, which the property tests in
``tests/test_dse_properties.py`` assert over randomized (M, N, K) x (H, L, P)
samples.  Outside that domain the port saturates, the engine stalls mid-tile
and the closed form becomes a lower bound; the DSE cross-validation pass
quantifies the gap.

The optional ``memory_latency`` parameter extends the model beyond the
paper's single-cycle TCDM: each tile's pre-load pays the extra access latency
once (subsequent accesses pipeline behind it).  It defaults to 0, which is
the configuration the exactness guarantee applies to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import TileSchedule


@dataclass(frozen=True)
class PerfEstimate:
    """Cycle-level performance estimate for one matmul job."""

    job: MatmulJob
    config: RedMulEConfig
    #: Estimated total cycles (trigger to last store).
    cycles: int
    #: Cycles an ideal array (H*L MACs every cycle, no overhead) would need.
    ideal_cycles: int
    #: Cycles lost to per-tile preload, drain and final store flush.
    overhead_cycles: int
    #: Number of tiles.
    n_tiles: int

    @property
    def total_macs(self) -> int:
        """Useful MACs of the job."""
        return self.job.total_macs

    @property
    def macs_per_cycle(self) -> float:
        """Useful MAC throughput."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Fraction of the array's peak throughput actually achieved."""
        return self.macs_per_cycle / self.config.ideal_macs_per_cycle

    @property
    def fraction_of_ideal(self) -> float:
        """Ideal cycles divided by estimated cycles (the paper's Fig. 4a metric)."""
        if self.cycles == 0:
            return 0.0
        return self.ideal_cycles / self.cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a given clock frequency."""
        return self.cycles / frequency_hz

    def throughput_gmacs(self, frequency_hz: float) -> float:
        """Throughput in GMAC/s at a given clock frequency."""
        return self.macs_per_cycle * frequency_hz / 1e9

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS (2 ops per MAC) at a given clock frequency."""
        return 2.0 * self.throughput_gmacs(frequency_hz)


@dataclass(frozen=True)
class ProgramEstimate:
    """Analytic timing of a whole lowered workload-graph program.

    ``serial_cycles`` is the single-cluster back-to-back execution time (the
    quantity :meth:`repro.farm.SimulationFarm.time_program` measures through
    its records) and ``critical_path_cycles`` the dependency-aware makespan
    floor: no pool of clusters, however large, can finish the program faster
    than its longest chain of dependent jobs.
    """

    graph_name: str
    config: RedMulEConfig
    #: Number of accelerator jobs in the lowered stream.
    n_jobs: int
    #: Useful MACs over the whole program.
    total_macs: int
    #: Single-cluster serial cycles (sum over jobs + offload cost).
    serial_cycles: float
    #: Longest dependent-job chain (infinite-cluster makespan floor).
    critical_path_cycles: float
    #: Per-node cycle totals, keyed by lowered-node name.
    node_cycles: Dict[str, float]

    @property
    def parallelism(self) -> float:
        """Average exploitable parallelism (serial / critical path)."""
        if self.critical_path_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.critical_path_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Serial-execution throughput of the program."""
        if self.serial_cycles <= 0:
            return 0.0
        return self.total_macs / self.serial_cycles

    @property
    def utilisation(self) -> float:
        """Serial throughput relative to the array's peak."""
        return self.macs_per_cycle / self.config.ideal_macs_per_cycle

    def runtime_s(self, frequency_hz: float) -> float:
        """Serial wall-clock runtime at a given clock frequency."""
        return self.serial_cycles / frequency_hz

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Serial throughput in GFLOPS at a given clock frequency."""
        return 2.0 * self.macs_per_cycle * frequency_hz / 1e9


class RedMulEPerfModel:
    """Analytical cycle model of a RedMulE instance (uncontended TCDM).

    ``memory_latency`` models a TCDM whose first access of every tile
    pre-load takes that many extra cycles (DSE memory-hierarchy axis); the
    default 0 reproduces the engine's single-cycle memory bit-exactly on the
    :meth:`is_exact` domain.
    """

    def __init__(self, config: Optional[RedMulEConfig] = None,
                 memory_latency: int = 0) -> None:
        if memory_latency < 0:
            raise ValueError("memory_latency must be >= 0")
        self.config = config if config is not None else RedMulEConfig.reference()
        self.memory_latency = memory_latency

    # ------------------------------------------------------------------
    def _fixed_tile_cycles(self, job: MatmulJob,
                           schedule: TileSchedule) -> int:
        """Cycles of one tile that do not depend on its row count.

        The pre-load of the initial W lines (the first issue happens on the
        cycle the last pre-load access lands, hence the ``- 1``), the issue
        window, the last column's ``P+1``-cycle drain and, without
        accumulation, the boundary cycle.  The callers add the per-row
        pre-load lines (one X line, plus one Y line when accumulating) and
        the memory latency.
        """
        cfg = self.config
        # The initial W lines are those whose first broadcast falls within
        # the streamer's prefetch horizon of ``w_prefetch_lines * block_k``
        # cycles and whose inner index lies inside the real matrix (padding
        # rows are not fetched).  Line ``j`` (chunk ``j // H``, column
        # ``j % H``) is first broadcast ``j * (P+1)`` cycles into the tile
        # and ``block_k = H * (P+1)``, so the horizon admits lines
        # ``0 .. w_prefetch_lines * H``.
        initial_w_lines = min(job.n, cfg.w_prefetch_lines * cfg.height + 1)
        issue_cycles = ((cfg.height - 1) * cfg.latency
                        + schedule.n_chunks * cfg.block_k)
        boundary = 0 if job.accumulate else 1
        return (initial_w_lines - 1 + issue_cycles + cfg.latency
                + boundary)

    def is_exact(self, job: MatmulJob) -> bool:
        """True when the closed form provably equals the engine on ``job``.

        Two port-capacity conditions define the domain:

        * **mid-tile refills** -- per ``block_k``-cycle chunk window the
          port must deliver up to ``min(H, N)`` W lines plus -- whenever a
          tile needs more than one X block -- one X line per valid row;
          when that demand exceeds the ``block_k`` slots of the window the
          engine stalls mid-tile and the estimate becomes a lower bound;
        * **Z-backlog hiding** -- the Z lines a tile queues at its end drain
          through the *next* tile's spare port slots (stores have lowest
          priority).  A tile whose duration minus its own access count is
          smaller than the previous tile's row count cannot absorb that
          backlog, the leftover lines lengthen the final drain, and the
          estimate undercounts (a corner first caught by the
          multi-precision property tests: tiny tiles after full-height
          ones).

        The spare slots depend on the tile only through its row count, so
        the backlog check covers the three (previous, current) pairs of
        the two row classes (see the module docstring) that row-major
        order produces: full -> full when at least two full tiles exist,
        full -> last when there is more than one tile row, and
        last -> last when there is more than one tile column.
        """
        cfg = self.config
        schedule = TileSchedule(job, cfg)
        n_blocks = schedule.n_blocks
        w_demand = min(cfg.height, job.n)
        x_demand = min(job.m, cfg.length) if n_blocks > 1 else 0
        if w_demand + x_demand > cfg.block_k:
            return False

        # Z-backlog condition.  A tile of ``rows`` valid rows lasts its
        # fixed cycles plus one X and (accumulating) one Y pre-load line per
        # row; it performs N W accesses, ``n_blocks`` X accesses per row and
        # its Y lines itself.  The Y lines cancel, leaving
        # ``spare - rows * (n_blocks - 1)`` spare port slots.
        spare = self._fixed_tile_cycles(job, schedule) - job.n
        tiles_m, tiles_k = schedule.tiles_m, schedule.tiles_k
        full = cfg.length
        last = job.m - (tiles_m - 1) * full
        pairs = (
            (full, full, (tiles_m - 1) * tiles_k >= 2),
            (full, last, tiles_m >= 2),
            (last, last, tiles_k >= 2),
        )
        return all(spare - rows * (n_blocks - 1) >= previous_rows
                   for previous_rows, rows, occurs in pairs if occurs)

    def _closed_form(self, job: MatmulJob) -> Tuple[int, int, int]:
        """``(cycles, ideal_cycles, n_tiles)`` of ``job``: the closed form.

        Every tile costs its fixed cycles, the memory latency and its
        per-row pre-load lines.  Over the two row classes the rows of one
        tile column add up to ``M``, so the row terms total ``tiles_k * M``
        lines per pre-load line kind.  The final drain adds the last tile's
        ``r`` Z lines.  :meth:`estimate` wraps the three numbers in a
        :class:`PerfEstimate`; the farm's model records and
        :meth:`estimate_program` read them directly.
        """
        cfg = self.config
        schedule = TileSchedule(job, cfg)
        per_tile = (self._fixed_tile_cycles(job, schedule)
                    + self.memory_latency)
        row_lines = 2 if job.accumulate else 1
        tiles_m, tiles_k = schedule.tiles_m, schedule.tiles_k
        last_rows = job.m - (tiles_m - 1) * cfg.length
        n_tiles = tiles_m * tiles_k
        total = (n_tiles * per_tile + row_lines * tiles_k * job.m
                 + last_rows)
        ideal = -(-job.total_macs // cfg.ideal_macs_per_cycle)
        return total, ideal, n_tiles

    def estimate(self, job: MatmulJob) -> PerfEstimate:
        """Estimate the cycle count of ``job`` on this configuration."""
        total, ideal, n_tiles = self._closed_form(job)
        return PerfEstimate(
            job=job,
            config=self.config,
            cycles=total,
            ideal_cycles=ideal,
            overhead_cycles=total - ideal,
            n_tiles=n_tiles,
        )

    # -- convenience -------------------------------------------------------
    def estimate_gemm(self, m: int, n: int, k: int) -> PerfEstimate:
        """Estimate a dense GEMM of the given shape (addresses are dummies)."""
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k)
        return self.estimate(job)

    # -- whole programs ----------------------------------------------------
    def estimate_program(self, program,
                         offload_cycles_per_job: float = 0.0) -> ProgramEstimate:
        """Estimate a lowered workload-graph program analytically.

        ``program`` is a :class:`~repro.graph.lower.LoweredProgram` (duck
        typed: anything with ``graph_name``, ``nodes`` carrying ``jobs``,
        and ``job_deps()`` works).  Every job is estimated with the closed
        form; the serial total reproduces
        :meth:`repro.farm.SimulationFarm.time_program` and the critical path
        is the longest dependent chain through the flat job stream.
        """
        if not 0 <= offload_cycles_per_job < math.inf:
            raise ValueError("offload_cycles_per_job must be finite and >= 0")
        job_costs: List[float] = []
        node_cycles: Dict[str, float] = {}
        total_macs = 0
        for node in program.nodes:
            for job in node.jobs:
                cycles = self._closed_form(job)[0] + offload_cycles_per_job
                job_costs.append(cycles)
                node_cycles[node.name] = node_cycles.get(node.name, 0.0) + cycles
                total_macs += job.total_macs
        critical = critical_path_cycles(program.job_deps(), job_costs)
        return ProgramEstimate(
            graph_name=program.graph_name,
            config=self.config,
            n_jobs=len(job_costs),
            total_macs=total_macs,
            serial_cycles=float(sum(job_costs)),
            critical_path_cycles=critical,
            node_cycles=node_cycles,
        )


def critical_path_cycles(deps: List[Tuple[int, ...]],
                         costs: List[float]) -> float:
    """Longest weighted chain through a flat dependency-annotated job stream.

    ``deps[i]`` holds the prerequisite indices of job ``i`` (all smaller than
    ``i``, which the lowering pass guarantees), ``costs[i]`` its cycles.
    Public shared helper: :meth:`repro.graph.lower.LoweredProgram.
    critical_path_cycles` delegates here with its own ``job_deps()``.

    Most jobs of a lowered stream have no prerequisite or exactly one, so
    those two cases skip the ``max``; every case performs the float
    operations of ``max(finish[p] for p in prereqs, default=0.0) + cost``
    in the same order, so the result is bit-identical to that form.
    """
    if len(deps) != len(costs):
        raise ValueError(
            f"dependency annotation covers {len(deps)} jobs but "
            f"{len(costs)} costs were given"
        )
    finish: List[float] = []
    append = finish.append
    for prereqs, cost in zip(deps, costs):
        if not prereqs:
            append(0.0 + cost)
        elif len(prereqs) == 1:
            append(finish[prereqs[0]] + cost)
        else:
            append(max([finish[p] for p in prereqs]) + cost)
    return max(finish, default=0.0)
