"""Node-dispatch serving benchmark: throughput vs. cluster-pool size.

A saturation burst of mixed-model requests (the three-tenant ``serve-mix``
composition, scaled down) is served on growing cluster pools sharing one
simulation farm.  Two properties are asserted:

* **scaling** -- simulated throughput (requests per simulated cycle) grows
  at least 3x from 1 to 4 clusters: the burst holds plenty of independent
  requests, so dependency-aware node dispatch should keep all four
  clusters busy (losses come only from critical-path tails);
* **caching** -- after a warm-up run has memoised every distinct GEMM
  shape, the measured runs serve >90 % of their timing lookups from the
  shape-keyed cache, which is what makes serving simulation cheap enough
  to sweep.

Wall-clock speed is tracked by ``pytest-benchmark`` on the 4-cluster run.
"""

from benchmarks.conftest import print_series, record_info
from repro.farm import SimulationFarm
from repro.graph import build_model
from repro.serve import ContinuousServer, ModelSpec, RequestGenerator, TenantSpec

#: Pool sizes of the scaling series.
POOL_SIZES = (1, 2, 4)

#: Burst size per tenant (3 tenants -> 3x this many requests).  Deep enough
#: that the tail imbalance of the last few big requests stays small next to
#: the saturated middle of the run.
PER_TENANT = 16


def _tenants():
    return (
        TenantSpec(
            name="anomaly-detection",
            models=(
                ModelSpec("autoencoder-b1", build_model("autoencoder-b1"),
                          weight=2.0),
                ModelSpec("mlp-tiny", build_model("mlp-tiny")),
            ),
            rps=100.0,
        ),
        TenantSpec(
            name="vision-nlp",
            models=(
                ModelSpec("transformer-tiny", build_model("transformer-tiny")),
                ModelSpec("conv-tiny", build_model("conv-tiny")),
            ),
            rps=60.0,
        ),
        TenantSpec(
            name="time-series",
            models=(
                ModelSpec("lstm-tiny", build_model("lstm-tiny")),
                ModelSpec("gru-tiny", build_model("gru-tiny")),
            ),
            rps=40.0,
        ),
    )


def _serve(pool, farm, requests):
    return ContinuousServer(n_clusters=pool, farm=farm,
                            node_dispatch=True).simulate(requests)


def test_serve_throughput_scales_with_clusters(benchmark):
    farm = SimulationFarm(backend="model")
    requests = RequestGenerator(_tenants(), seed=0).burst(PER_TENANT)

    # Warm-up: memoise every distinct shape of the request mix.
    _serve(1, farm, requests)

    reports = {}
    for pool in POOL_SIZES:
        if pool == max(POOL_SIZES):
            report = benchmark(lambda pool=pool: _serve(pool, farm, requests))
        else:
            report = _serve(pool, farm, requests)
        reports[pool] = report

    print_series(
        "serving throughput vs. cluster-pool size (saturation burst)",
        ["clusters", "makespan cycles", "req/Mcycle", "speedup",
         "mean util %", "cache hit %"],
        [
            [
                pool,
                reports[pool].makespan_cycles,
                reports[pool].completed * 1e6 / reports[pool].makespan_cycles,
                reports[1].makespan_cycles / reports[pool].makespan_cycles,
                100 * reports[pool].utilisation,
                100 * reports[pool].cache_hit_rate,
            ]
            for pool in POOL_SIZES
        ],
    )

    # Every pool size serves the full burst.
    for report in reports.values():
        assert report.completed == len(requests)

    # >= 3x simulated throughput going 1 -> 4 clusters on the mixed burst.
    speedup = (reports[1].makespan_cycles
               / reports[max(POOL_SIZES)].makespan_cycles)
    assert speedup >= 3.0, f"1->4 cluster speedup only {speedup:.2f}x"

    # After warm-up every measured run must hit the cache >90 % of the time.
    for pool, report in reports.items():
        assert report.cache_hit_rate > 0.90, (
            f"{pool}-cluster run hit rate {report.cache_hit_rate:.2%}"
        )

    record_info(benchmark, {
        "requests": len(requests),
        "speedup_1_to_4": speedup,
        "hit_rate": reports[max(POOL_SIZES)].cache_hit_rate,
        "mean_utilisation_4c": reports[max(POOL_SIZES)].utilisation,
    })
