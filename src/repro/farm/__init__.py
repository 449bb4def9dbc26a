"""Batched simulation farm: job batching, timing memoisation.

The farm is the serving layer on top of the cycle-accurate
:class:`~repro.redmule.engine.RedMulE` engine and the analytical
:class:`~repro.redmule.perf_model.RedMulEPerfModel`: it accepts batches of
:class:`~repro.redmule.job.MatmulJob` descriptors, deduplicates and memoises
them by shape (timing is data-independent), times each distinct miss in the
calling process and auto-selects the backend per request.  The experiment
drivers regenerate every figure of the paper through this API.
"""

from repro.farm.cache import (
    BACKEND_ENGINE,
    BACKEND_MODEL,
    CacheStats,
    TimingCache,
    TimingKey,
    TimingRecord,
    config_key,
)
from repro.farm.farm import (
    DEFAULT_ENGINE_MACS_THRESHOLD,
    FarmResult,
    FarmStats,
    SimulationFarm,
    default_farm,
    farm_for_config,
    reset_default_farms,
)
from repro.farm.workers import (
    config_from_key,
    estimate_model_timing,
    run_functional_job,
    simulate_engine_timing,
    simulate_key,
)

__all__ = [
    "BACKEND_ENGINE",
    "BACKEND_MODEL",
    "CacheStats",
    "DEFAULT_ENGINE_MACS_THRESHOLD",
    "FarmResult",
    "FarmStats",
    "SimulationFarm",
    "TimingCache",
    "TimingKey",
    "TimingRecord",
    "config_from_key",
    "config_key",
    "default_farm",
    "estimate_model_timing",
    "farm_for_config",
    "reset_default_farms",
    "run_functional_job",
    "simulate_engine_timing",
    "simulate_key",
]
