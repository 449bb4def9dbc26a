"""Shape-keyed timing cache for the simulation farm.

The cycle-accurate engine and the analytical model are both *data-independent*:
for a fixed architectural configuration, the cycle count of a matmul job
depends only on the problem shape ``(M, N, K)`` and on whether the job
accumulates into Z -- never on the arithmetic backend, the operand values or
their placement (the streamer performs one wide access per line per cycle
regardless of the address, see :mod:`repro.redmule.streamer`).  Timing results
are therefore exactly reusable across a sweep, which is what makes the
repeated-shape experiments (Fig. 3c/3d, Fig. 4a, the autoencoder batching
study) cheap to regenerate: the farm simulates each distinct shape once and
serves every repeat from this cache.

The cache is keyed by ``(config key, m, n, k, accumulate, backend)`` and
stores :class:`TimingRecord` values -- :class:`~repro.redmule.engine.
RedMulEResult`-shaped records stripped of the job-specific fields (addresses,
streamer port statistics) that do not survive memoisation.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob

#: Format tag of the persisted cache files (see :meth:`TimingCache.save`).
#: v2: the analytical model became bit-exact on its uncontended domain
#: (per-tile boundary cycle + drain correction), so v1 model records carry
#: stale cycle counts and must not be reloaded.
#: v3: configuration keys grew the element-format axis (multi-precision
#: support changes line geometry and cycle counts), so v2 keys -- which
#: implicitly meant FP16 -- can no longer be told apart from other
#: precisions and must not be reloaded.
#: v4: an optional ``traces`` side-table carries recorded engine schedule
#: traces (:mod:`repro.redmule.trace`) keyed by config tag.
#: v5: keys lost their ``exact`` field -- every arithmetic backend is
#: bit-exact and timing never depended on it -- so v4 keys no longer decode.
#: v6: a trace is its tile key and 12 counter deltas; v5 traces carried
#: per-cycle event arrays and the datapath issue counters.
#: v7: the file holds timing entries only (no ``traces`` table); schedule
#: traces stay in the process that recorded them.
#: Only the current version loads; callers treat a rejected file as empty.
CACHE_FILE_VERSION = 7

#: Backend tags used in cache keys and records.
BACKEND_ENGINE = "engine"
BACKEND_MODEL = "model"


def config_key(config: RedMulEConfig) -> Tuple[int, int, int, int, int, str]:
    """Hashable, picklable key identifying an architectural configuration.

    The element format is part of the key: it changes elements-per-line and
    therefore tile geometry and cycle counts.
    """
    return (
        config.height,
        config.length,
        config.pipeline_regs,
        config.w_prefetch_lines,
        config.z_queue_depth,
        config.format,
    )


class TimingKey(NamedTuple):
    """Cache key: everything the timing of a job can depend on.

    ``backend`` separates engine-measured records from model estimates so a
    validation run never serves one in place of the other.  A named tuple,
    so building, hashing and comparing a key run in C: the farm builds one
    per job of every batch.  It equals the plain tuple of its fields.
    """

    config: Tuple[int, int, int, int, int, str]
    m: int
    n: int
    k: int
    accumulate: bool
    backend: str

    @classmethod
    def for_job(cls, config: RedMulEConfig, job: MatmulJob,
                backend: str) -> "TimingKey":
        """Build the key of ``job`` on ``config`` under ``backend``."""
        return cls(
            config=config_key(config),
            m=job.m,
            n=job.n,
            k=job.k,
            accumulate=job.accumulate,
            backend=backend,
        )


@dataclass(frozen=True)
class TimingRecord:
    """Memoised timing of one job shape (``RedMulEResult``-shaped).

    The fields mirror :class:`~repro.redmule.engine.RedMulEResult` minus the
    job descriptor and the streamer statistics; model-backed records fill the
    engine-only counters (stalls, issued MACs) with the model's equivalents
    where they exist and zero where they do not.
    """

    #: Total cycles from trigger to the last Z store leaving the streamer.
    cycles: int
    #: Cycles the datapath was frozen waiting for operands (engine backend).
    stall_cycles: int
    #: Cycles the datapath issued at least one operation (engine backend).
    active_cycles: int
    #: Useful multiply-accumulates (M*N*K).
    total_macs: int
    #: FMA slots actually issued, padding included (engine backend).
    issued_macs: int
    #: Number of tiles processed.
    n_tiles: int
    #: Peak throughput of the simulated instance (H * L MAC/cycle).
    peak_macs_per_cycle: int
    #: Cycles an ideal array (peak MACs every cycle) would need.
    ideal_cycles: int
    #: Which backend produced the record ("engine" or "model").
    backend: str

    # -- derived metrics (same definitions as RedMulEResult/PerfEstimate) ----
    @property
    def macs_per_cycle(self) -> float:
        """Useful MACs per cycle (the paper's throughput metric)."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Useful MACs per cycle divided by the array's peak."""
        if self.cycles == 0 or self.peak_macs_per_cycle == 0:
            return 0.0
        return self.macs_per_cycle / self.peak_macs_per_cycle

    @property
    def fraction_of_ideal(self) -> float:
        """Ideal cycles divided by measured cycles (Fig. 4a metric)."""
        if self.cycles == 0:
            return 0.0
        return self.ideal_cycles / self.cycles

    @property
    def overhead_cycles(self) -> int:
        """Cycles beyond the ideal-machine lower bound."""
        return self.cycles - self.ideal_cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a given clock frequency."""
        return self.cycles / frequency_hz

    def throughput_gmacs(self, frequency_hz: float) -> float:
        """Throughput in GMAC/s at a given clock frequency."""
        return self.macs_per_cycle * frequency_hz / 1e9

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS (2 ops per MAC) at a given clock frequency."""
        return 2.0 * self.throughput_gmacs(frequency_hz)


@dataclass
class CacheStats:
    """Hit/miss accounting of a :class:`TimingCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict:
        """JSON-ready copy: raw counters plus the derived rates."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        """Zero the accounting (cache entries are untouched)."""
        self.hits = 0
        self.misses = 0


def _check_entry(key: TimingKey, record: TimingRecord) -> None:
    """Raise ``ValueError`` unless a decoded cache entry is well-typed.

    A file entry must not reach the cache with a field a caller would trip
    over later (a ``null`` cycle count is served as a hit and only fails in
    the first derived metric): every count is a non-negative ``int`` (not a
    ``bool``), ``accumulate`` is a ``bool``, the config key is five counts
    and a format name, and both backend tags name a known backend.
    """
    config = key.config
    if len(config) != 6 or not isinstance(config[5], str):
        raise ValueError(
            f"config must be five counts and a format name, got {config!r}"
        )
    counts = [("config", value) for value in config[:5]]
    counts += [(name, getattr(key, name)) for name in ("m", "n", "k")]
    counts += [(field.name, getattr(record, field.name))
               for field in fields(record) if field.name != "backend"]
    for name, value in counts:
        if type(value) is not int or value < 0:
            raise ValueError(
                f"{name} must be a non-negative integer, got {value!r}"
            )
    if type(key.accumulate) is not bool:
        raise ValueError(f"accumulate must be a bool, got {key.accumulate!r}")
    for backend in (key.backend, record.backend):
        if backend not in (BACKEND_ENGINE, BACKEND_MODEL):
            raise ValueError(f"unknown backend {backend!r}")


class TimingCache:
    """Shape-keyed memoisation of timing records with hit/miss statistics."""

    def __init__(self) -> None:
        self._entries: Dict[TimingKey, TimingRecord] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TimingKey) -> bool:
        return key in self._entries

    def lookup(self, key: TimingKey) -> Optional[TimingRecord]:
        """Return the cached record for ``key`` (and count a hit or miss)."""
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def peek(self, key: TimingKey) -> Optional[TimingRecord]:
        """Return the cached record without touching the statistics."""
        return self._entries.get(key)

    def store(self, key: TimingKey, record: TimingRecord) -> None:
        """Insert (or refresh) a record."""
        self._entries[key] = record

    # -- persistence --------------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> int:
        """Persist every entry to a JSON file; returns the entry count.

        The file carries a format version so stale caches from incompatible
        revisions are rejected instead of silently misread.  Timing records
        are deterministic per (config, shape, backend), so sharing a cache
        file across processes and benchmark invocations is safe.  Missing
        parent directories are created (``mkdir -p`` semantics): cache paths
        routinely point into per-run artifact directories that do not exist
        yet, and losing a batch of simulations to ``FileNotFoundError`` at
        save time would be the most expensive possible way to learn that.
        """
        parent = os.path.dirname(os.path.abspath(os.fspath(path)))
        os.makedirs(parent, exist_ok=True)
        entries = [
            {"key": key._asdict(), "record": asdict(record)}
            for key, record in self._entries.items()
        ]
        payload = {"version": CACHE_FILE_VERSION, "entries": entries}
        # Write a sibling temp file and rename it over the target, so an
        # interrupted save leaves the previous file whole instead of
        # truncated (CI persists this file across runs).
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        return len(entries)

    def load(self, path: Union[str, os.PathLike]) -> int:
        """Merge the entries of a JSON file written by :meth:`save`.

        Returns the number of entries loaded.  Existing entries are kept and
        file entries win on key collisions.  Loading counts neither hits nor
        misses.

        Every entry is decoded and type-checked (:func:`_check_entry`) before
        any is stored, so a file that is not a current-version cache, or that
        holds a malformed entry, raises ``ValueError`` (naming the entry) and
        leaves the cache untouched.
        """
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CACHE_FILE_VERSION:
            raise ValueError(
                f"unsupported timing-cache file version {version!r} "
                f"(expected {CACHE_FILE_VERSION})"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ValueError("malformed timing-cache file layout")
        decoded = []
        for index, entry in enumerate(entries):
            try:
                raw_key = dict(entry["key"])
                raw_key["config"] = tuple(raw_key["config"])
                key = TimingKey(**raw_key)
                record = TimingRecord(**entry["record"])
                _check_entry(key, record)
                decoded.append((key, record))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"malformed timing-cache entry {index}: {error!r}"
                ) from error
        self._entries.update(decoded)
        return len(decoded)

    def describe(self) -> str:
        """One-line summary used by the runner's ``--farm-stats`` flag."""
        return (
            f"timing cache: {len(self)} entries, {self.stats.hits} hits / "
            f"{self.stats.misses} misses ({100 * self.stats.hit_rate:.1f}% "
            "hit rate)"
        )
