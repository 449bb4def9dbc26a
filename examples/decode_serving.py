#!/usr/bin/env python3
"""LLM decode workloads and continuous batching on the serving loop.

1. build per-token decode step graphs for a tiny transformer block and
   watch the attention GEMMs grow with the KV position (while the FP8
   KV-cache variant narrows their element width via per-node precision
   overrides);
2. serve one decode session on one cluster and check the conservation
   law: the session's makespan equals the serial sum of its per-step
   farm timings;
3. serve a burst of concurrent sessions with and without continuous
   batching (``batch_cap``) and print the full report -- the
   weight-stationary halves coalesce, the per-session attention cannot.

Run with:  python examples/decode_serving.py
"""

from repro import SimulationFarm
from repro.graph import build_decode_spec, decode_step_graph, precision_summary
from repro.serve import ContinuousServer, DecodeSessionSpec, decode_burst


def main() -> None:
    # -- 1. decode step graphs: K grows with the KV position -----------------
    spec = build_decode_spec("llm-decode-tiny")
    kv8 = build_decode_spec("llm-decode-tiny-kv8")
    print(f"{spec.name}: {spec.describe()}")
    for position in (0, 8, 32):
        graph = decode_step_graph(spec, position)
        scores = next(node for node in graph.gemm_nodes()
                      if node.name == "dec-scores0")
        print(f"  position {position:>2}: {len(graph)} nodes, "
              f"scores GEMM k={scores.shape.k} (attends over "
              f"{position + 1} cached tokens)")
    mix = precision_summary(decode_step_graph(kv8, 8), fallback="fp16")
    print(f"  {kv8.name} node precisions at position 8: {mix} "
          "(KV-cache reads FP8, everything else FP16)")
    print()

    # -- 2. one session, one cluster: the conservation law -------------------
    farm = SimulationFarm(backend="model")
    session = DecodeSessionSpec(spec=spec, prefill=8, decode_steps=12)
    report = ContinuousServer(n_clusters=1, farm=farm).simulate(
        decode_burst([session], 1), scenario="decode-1x1")
    serial = 0
    for position in session.positions:
        program = decode_step_graph(spec, position).lower(config=farm.config)
        serial += int(round(farm.time_program(program).cycles))
    print(f"one {session.decode_steps}-token session on one cluster:")
    print(f"  makespan          : {report.makespan_cycles} cycles")
    print(f"  sum of step costs : {serial} cycles "
          f"({'equal' if serial == report.makespan_cycles else 'MISMATCH'} "
          "-- the decode conservation law)")
    print()

    # -- 3. continuous batching: coalesce the weight-stationary half ---------
    burst = decode_burst([session], 16)
    unbatched = ContinuousServer(n_clusters=1, farm=farm,
                                 batch_cap=1).simulate(burst)
    batched = ContinuousServer(n_clusters=1, farm=farm,
                               batch_cap=8).simulate(burst)
    speedup = unbatched.makespan_cycles / batched.makespan_cycles
    print("16 concurrent sessions on one cluster:")
    print(f"  batch_cap=1: {unbatched.makespan_cycles} cycles "
          f"({unbatched.decode_steps} steps, all solo)")
    print(f"  batch_cap=8: {batched.makespan_cycles} cycles "
          f"({batched.decode_steps} steps, "
          f"{batched.decode_batched_steps} batched, mean occupancy "
          f"{batched.decode_mean_occupancy:.1f}) -- {speedup:.2f}x faster")
    print()
    print(batched.render())


if __name__ == "__main__":
    main()
