#!/usr/bin/env python3
"""Quickstart for the workload-graph compiler and the serving simulator.

1. build a workload graph from the model zoo and inspect it (topology,
   critical path, lowered job stream);
2. serve a burst of requests on one simulated cluster, then on four --
   node dispatch overlaps independent graph nodes and requests, and the
   shape-keyed timing cache makes repeats nearly free;
3. run a two-tenant Poisson scenario and print the full serving report
   (p50/p95/p99 latency, throughput, pool utilisation).

Run with:  python examples/serving_quickstart.py
"""

from repro import SimulationFarm
from repro.graph import build_model
from repro.serve import (
    ContinuousServer,
    ModelSpec,
    RequestGenerator,
    TenantSpec,
)


def main() -> None:
    # -- 1. a workload graph from the zoo ------------------------------------
    graph = build_model("autoencoder-b16")
    critical = graph.critical_path()
    program = graph.lower()
    print(f"{graph.name}: {len(graph)} nodes, "
          f"{len(graph.gemm_nodes())} GEMMs, {graph.total_macs} MACs")
    print(f"  critical path : {len(critical)} nodes, "
          f"{critical.cost:.0f} MACs "
          f"({100 * critical.cost / graph.total_macs:.0f}% of total -- "
          f"an MLP training step is mostly serial)")
    print(f"  lowered       : {program.n_jobs} accelerator jobs")
    print("  first GEMMs   :")
    for node in program.gemm_nodes()[:3]:
        print(f"    {node.note}")
    print()

    # -- 2. burst serving: 1 cluster vs 4 ------------------------------------
    farm = SimulationFarm(backend="model")
    tenant = TenantSpec(
        name="edge-fleet",
        models=(
            ModelSpec("autoencoder-b1", build_model("autoencoder-b1"),
                      weight=3.0),
            ModelSpec("autoencoder-b16", build_model("autoencoder-b16")),
        ),
        rps=400.0,
    )
    generator = RequestGenerator([tenant], seed=0)
    burst = generator.burst(per_tenant=12)
    single = ContinuousServer(n_clusters=1, farm=farm,
                              node_dispatch=True).simulate(burst)
    quad = ContinuousServer(n_clusters=4, farm=farm,
                            node_dispatch=True).simulate(burst)
    speedup = single.makespan_cycles / quad.makespan_cycles
    print(f"burst of {len(burst)} training-step requests:")
    print(f"  1 cluster : {single.makespan_cycles} cycles makespan")
    print(f"  4 clusters: {quad.makespan_cycles} cycles makespan "
          f"({speedup:.2f}x, mean utilisation "
          f"{100 * quad.utilisation:.0f}%)")
    print(f"  timing cache during the 4-cluster run: "
          f"{100 * quad.cache_hit_rate:.0f}% hits "
          f"(every shape was memoised by the 1-cluster run)")
    print()

    # -- 3. a Poisson two-tenant scenario ------------------------------------
    tenants = (
        tenant,
        TenantSpec(
            name="nlp-lab",
            models=(ModelSpec("transformer-tiny",
                              build_model("transformer-tiny")),),
            rps=200.0,
        ),
    )
    stream = RequestGenerator(tenants, seed=1).stream(duration_s=0.05)
    report = ContinuousServer(n_clusters=4, farm=farm,
                              node_dispatch=True).simulate(
        stream, scenario="two-tenants")
    print(report.render())


if __name__ == "__main__":
    main()
