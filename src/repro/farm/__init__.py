"""Batched simulation farm: job batching, timing memoisation, parallelism.

The farm is the serving layer on top of the cycle-accurate
:class:`~repro.redmule.engine.RedMulE` engine and the analytical
:class:`~repro.redmule.perf_model.RedMulEPerfModel`: it accepts batches of
:class:`~repro.redmule.job.MatmulJob` descriptors, deduplicates and memoises
them by shape (timing is data-independent), fans cache misses out over a
process pool, auto-selects the backend per request, and can cross-validate
the two backends against each other.  The experiment drivers regenerate
every figure of the paper through this API.
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
    DEFAULT_VALIDATION_TOLERANCE,
    BackendValidationReport,
    FarmResult,
    FarmStats,
    FarmValidationError,
    PoolUnavailableError,
    SimulationFarm,
    ValidationReport,
    default_farm,
    farm_for_config,
    reset_default_farms,
    set_default_format,
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
    "BackendValidationReport",
    "CacheStats",
    "DEFAULT_ENGINE_MACS_THRESHOLD",
    "DEFAULT_VALIDATION_TOLERANCE",
    "FarmResult",
    "FarmStats",
    "FarmValidationError",
    "PoolUnavailableError",
    "SimulationFarm",
    "TimingCache",
    "TimingKey",
    "TimingRecord",
    "ValidationReport",
    "config_from_key",
    "config_key",
    "default_farm",
    "estimate_model_timing",
    "farm_for_config",
    "reset_default_farms",
    "run_functional_job",
    "set_default_format",
    "simulate_engine_timing",
    "simulate_key",
]
