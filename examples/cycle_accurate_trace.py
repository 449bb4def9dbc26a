#!/usr/bin/env python3
"""Cycle-accurate, bit-exact execution with full system introspection.

This example drives the lowest-level API directly -- the same objects the
test-suite uses -- instead of the convenience wrappers:

1. build the memory system (banked TCDM + HCI) and a bit-exact RedMulE engine;
2. place the operands and program the accelerator through its memory-mapped
   register file, exactly like bare-metal PULP code would;
3. run the job cycle by cycle and dump the micro-architectural statistics:
   stall breakdown, wide-port schedule, per-bank TCDM pressure;
4. verify the result against the bit-exact golden model (it must match to the
   last bit, because both use the same IEEE binary16 FMA).

Run with:  python examples/cycle_accurate_trace.py
"""

import numpy as np

from repro.fp.formats import FP16
from repro.fp.simd_formats import bits_to_f64_many, f64_to_bits_many
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.controller import (
    REG_K_SIZE,
    REG_M_SIZE,
    REG_N_SIZE,
    REG_W_ADDR,
    REG_X_ADDR,
    REG_Z_ADDR,
)
from repro.redmule.engine import RedMulE
from repro.redmule.functional import matmul_hw_order_exact_fmt


def main() -> None:
    config = RedMulEConfig.reference()
    tcdm = Tcdm(TcdmConfig())
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    engine = RedMulE(config, hci, backend="exact")
    print(f"Instance: {config.describe()}")
    print()

    # -- operand placement ----------------------------------------------------
    m, n, k = 8, 24, 16
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    x = random_matrix(m, n, scale=0.5, seed=7)
    w = random_matrix(n, k, scale=0.5, seed=8)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    hx.store(tcdm, x)
    hw.store(tcdm, w)

    # -- register-level programming (what the offloading core does) ----------
    controller = engine.controller
    controller.acquire()
    controller.regfile.write(REG_X_ADDR, hx.base)
    controller.regfile.write(REG_W_ADDR, hw.base)
    controller.regfile.write(REG_Z_ADDR, hz.base)
    controller.regfile.write(REG_M_SIZE, m)
    controller.regfile.write(REG_N_SIZE, n)
    controller.regfile.write(REG_K_SIZE, k)
    job = controller.trigger()
    print(f"Programmed job: {job.describe()}")

    # -- cycle-accurate execution ----------------------------------------------
    result = engine.run_job(job)
    controller.finish()
    controller.clear()

    print(f"Completed in {result.cycles} cycles "
          f"({result.macs_per_cycle:.2f} MAC/cycle, "
          f"{100 * result.utilisation:.1f}% of peak)")
    print(f"  datapath stalls        : {result.stall_cycles}")
    print(f"  issued FMA operations  : {result.issued_macs} "
          f"(padding included; {result.total_macs} useful)")
    streamer = result.streamer
    print(f"  wide-port schedule     : {streamer.w_loads} W loads, "
          f"{streamer.x_loads} X loads, {streamer.z_stores} Z stores, "
          f"{streamer.idle_cycles} idle cycles "
          f"({100 * streamer.port_utilisation:.1f}% port utilisation)")
    mean_share, peak_share = tcdm.bank_utilisation()
    print(f"  TCDM pressure          : {tcdm.total_accesses} bank accesses, "
          f"peak bank share {100 * peak_share:.1f}%")
    print()

    # -- bit-exact verification ---------------------------------------------------
    z = hz.load(tcdm)
    golden = bits_to_f64_many(matmul_hw_order_exact_fmt(
        f64_to_bits_many(x, FP16), f64_to_bits_many(w, FP16), FP16), FP16)
    if np.array_equal(z, golden):
        print("Result is BIT-EXACT against the IEEE binary16 golden model.")
    else:  # pragma: no cover - would indicate a model bug
        print("MISMATCH against the golden model!")
    print()
    print("First output row (FP16 values):")
    print("  " + " ".join(f"{value:+.4f}" for value in z[0, :8]) + " ...")


if __name__ == "__main__":
    main()
