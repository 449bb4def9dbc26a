"""Ablation -- TCDM contention between RedMulE and the cluster cores.

The paper's headline numbers are measured with the cores idle while RedMulE
runs.  This ablation uses the cycle-accurate engine and injects concurrent
core traffic on the logarithmic branch to measure how much the accelerator
slows down, and how the HCI's starvation-free rotation bounds the effect.
"""

from benchmarks.conftest import print_series, record_info
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.interco.log_interco import CoreRequest
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob


def _run_with_traffic(n_noisy_cores: int, max_wide_streak: int) -> dict:
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig(max_wide_streak=max_wide_streak))
    engine = RedMulE(RedMulEConfig.reference(), hci)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)

    x = random_matrix(16, 64, scale=0.25, seed=0)
    w = random_matrix(64, 32, scale=0.25, seed=1)
    hx = allocator.alloc_matrix(16, 64, "X")
    hw = allocator.alloc_matrix(64, 32, "W")
    hz = allocator.alloc_matrix(16, 32, "Z")
    hx.store(tcdm, x)
    hw.store(tcdm, w)

    if n_noisy_cores:
        original = hci.wide_line_cycle

        def noisy_wide_cycle(*args, **kwargs):
            hci.submit_log_requests(
                [CoreRequest(initiator=i, addr=tcdm.base + 4 * (i % 9))
                 for i in range(n_noisy_cores)]
            )
            return original(*args, **kwargs)

        hci.wide_line_cycle = noisy_wide_cycle

    result = engine.run_job(MatmulJob.from_handles(hx, hw, hz))
    return {
        "noisy_cores": n_noisy_cores,
        "max_wide_streak": max_wide_streak,
        "cycles": result.cycles,
        "stalls": result.streamer.stall_cycles,
        "macs_per_cycle": result.macs_per_cycle,
    }


def test_ablation_core_contention(benchmark):
    def sweep():
        return [_run_with_traffic(n, max_wide_streak=4) for n in (0, 2, 4, 8)]

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_series(
        "Ablation - accelerator slowdown under concurrent core traffic",
        ["noisy cores", "cycles", "wide-port stalls", "MAC/cycle"],
        [(r["noisy_cores"], r["cycles"], r["stalls"], r["macs_per_cycle"])
         for r in records],
    )

    quiet, *_, worst = records
    record_info(benchmark, {
        "quiet_cycles": quiet["cycles"],
        "worst_cycles": worst["cycles"],
        "slowdown": worst["cycles"] / quiet["cycles"],
    })

    assert worst["cycles"] >= quiet["cycles"]
    # The starvation-free rotation bounds the slowdown: the wide port gets at
    # least max_wide_streak of every (max_wide_streak + 1) contended cycles.
    assert worst["cycles"] / quiet["cycles"] < 1.4


def test_ablation_rotation_depth(benchmark):
    """A shorter wide-port streak protects the cores but slows the accelerator."""
    def sweep():
        return [_run_with_traffic(8, max_wide_streak=streak)
                for streak in (1, 2, 4, 8)]

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_series(
        "Ablation - HCI rotation depth under full core contention",
        ["max wide streak", "cycles", "wide-port stalls"],
        [(r["max_wide_streak"], r["cycles"], r["stalls"]) for r in records],
    )

    cycles = [r["cycles"] for r in records]
    record_info(benchmark, {"cycles_by_streak": cycles})
    # More consecutive cycles granted to the accelerator -> fewer total cycles.
    assert cycles == sorted(cycles, reverse=True)
