"""Continuous-batching benchmark: batched vs. unbatched decode serving.

A saturation burst of identical LLM decode sessions (prefill 8, 16
generated tokens each) is served on a single cluster twice: once with
``batch_cap=1`` (every session steps alone, the serial baseline) and once
with ``batch_cap=8`` (sessions coalesce their weight-stationary halves
into batched steps, joining and leaving at step boundaries).  Two
properties are asserted:

* **batching wins** -- the batched makespan is at least 2x shorter.  The
  projections and MLP dominate a skinny decode step and the RedMulE array
  pads ``k <= 16`` to its 16-wide line anyway, so running them once at
  ``k = 8`` costs roughly what ``k = 1`` does -- near-8x on the shared
  half, diluted by the per-member attention that cannot coalesce;
* **step memoisation** -- warm steps resolve from the per-(spec,
  precision) step-cost lists (full steps and attention halves by KV
  position, shared halves by batch width): after the first session's
  positions are priced, the farm sees no new work from the remaining
  traffic.

Wall-clock speed is tracked by ``pytest-benchmark`` on the batched run.
"""

from benchmarks.conftest import print_series, record_info
from repro.farm import SimulationFarm
from repro.graph.llm import build_decode_spec
from repro.serve import ContinuousServer, DecodeSessionSpec, decode_burst

#: Burst size: two full batches' worth of sessions at the default cap.
SESSIONS = 16
BATCH_CAP = 8
PREFILL = 8
DECODE_STEPS = 16


def test_decode_batching_speedup(benchmark):
    farm = SimulationFarm(backend="model")
    session = DecodeSessionSpec(spec=build_decode_spec("llm-decode-tiny"),
                                prefill=PREFILL, decode_steps=DECODE_STEPS)
    requests = decode_burst([session], SESSIONS)

    unbatched = ContinuousServer(n_clusters=1, farm=farm,
                                 batch_cap=1).simulate(requests)

    def batched_run():
        return ContinuousServer(n_clusters=1, farm=farm,
                                batch_cap=BATCH_CAP).simulate(requests)

    batched_run()  # warm the shared farm cache before timing
    batched = benchmark(batched_run)

    speedup = unbatched.makespan_cycles / batched.makespan_cycles
    print_series(
        "continuous batching: decode burst on one cluster",
        ["batch cap", "makespan cycles", "steps", "batched steps",
         "mean occupancy"],
        [
            [1, unbatched.makespan_cycles, unbatched.decode_steps,
             unbatched.decode_batched_steps, unbatched.decode_mean_occupancy],
            [BATCH_CAP, batched.makespan_cycles, batched.decode_steps,
             batched.decode_batched_steps, batched.decode_mean_occupancy],
        ],
    )

    assert unbatched.decode_sessions == SESSIONS
    assert batched.decode_sessions == SESSIONS
    # The unbatched server never coalesces; the batched one fills its cap.
    assert unbatched.decode_max_occupancy == 1
    assert batched.decode_max_occupancy == BATCH_CAP
    assert batched.decode_batched_steps > 0

    # The gate: continuous batching must at least halve the makespan.
    assert speedup >= 2.0, (
        f"batched decode only {speedup:.2f}x faster than unbatched")

    record_info(benchmark, {
        "sessions": SESSIONS,
        "batch_cap": BATCH_CAP,
        "speedup": speedup,
        "batched_fraction": batched.decode_batched_fraction,
        "mean_occupancy": batched.decode_mean_occupancy,
        "unbatched_makespan": unbatched.makespan_cycles,
        "batched_makespan": batched.makespan_cycles,
    }, name="decode_batching")
