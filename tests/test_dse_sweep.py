"""Tests of the analytic design-space sweep driver and its exports."""

import csv
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    AXIS_DEFAULTS,
    AXIS_ORDER,
    CONFIG_AXES,
    DesignPoint,
    DesignSpace,
    DsePoint,
    EXPORT_COLUMNS,
    cross_validate,
    sweep,
)
from repro.dse.sweep import _resolve_workload
from repro.farm import (
    BACKEND_MODEL,
    SimulationFarm,
    TimingCache,
)
from repro.graph.lower import KIND_GEMM, LoweredNode, LoweredProgram
from repro.graph.lower import lower as lower_graph
from repro.graph.zoo import build_model, mlp_training_graph
from repro.power.area import AreaModel, ClusterAreaModel
from repro.power.energy import EnergyModel
from repro.power.technology import TECH_22NM
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel, critical_path_cycles
from repro.workloads.gemm import GemmShape


def small_graph():
    return mlp_training_graph((10, 6, 4), batch=2)


def small_space():
    return DesignSpace.grid(height=(2, 4), length=(4, 8),
                            pipeline_regs=(2, 3))


# -- critical-path reference -------------------------------------------------
def reference_critical_path(deps, costs):
    """The generator form :func:`critical_path_cycles` replaced (the oracle
    its case split must reproduce bit for bit)."""
    if len(deps) != len(costs):
        raise ValueError("length mismatch")
    finish = []
    for prereqs, cost in zip(deps, costs):
        start = max((finish[p] for p in prereqs), default=0.0)
        finish.append(start + cost)
    return max(finish, default=0.0)


#: Job costs: non-negative, integral and fractional, zero included.
_COSTS = (st.just(0) | st.just(0.0) | st.integers(0, 10 ** 6)
          | st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))


@st.composite
def _job_streams(draw):
    """A flat job stream: 0-4 prerequisites per job, each an earlier job,
    repeats allowed, and one cost per job."""
    n_jobs = draw(st.integers(0, 40))
    deps = [tuple(draw(st.lists(st.integers(0, index - 1), max_size=4)))
            if index else () for index in range(n_jobs)]
    costs = draw(st.lists(_COSTS, min_size=n_jobs, max_size=n_jobs))
    return deps, costs


class TestCriticalPath:
    """The empty stream and a length mismatch are checked through
    ``LoweredProgram.critical_path_cycles`` in ``test_perf_program.py``."""

    @settings(max_examples=300, deadline=None)
    @given(stream=_job_streams())
    def test_equals_the_generator_form(self, stream):
        deps, costs = stream
        result = critical_path_cycles(deps, costs)
        expected = reference_critical_path(deps, costs)
        assert result == expected
        assert type(result) is type(expected)


# -- per-point reference -----------------------------------------------------
# sweep() runs configuration-level work once per configuration, latency-level
# metrics once per (configuration, memory latency) and the cluster area once
# per (configuration, bank count).  The reference is the loop it replaced:
# one freshly built config per grid point, a memo of the configuration-level
# work keyed on the config, and every other metric re-derived per point.
def reference_points(space):
    swept_z_queue = "z_queue_depth" in space.axes
    value_lists = [space.axis_values(name) for name in AXIS_ORDER]
    for values in itertools.product(*value_lists):
        resolved = dict(zip(AXIS_ORDER, values))
        if not swept_z_queue:
            resolved["z_queue_depth"] = max(
                AXIS_DEFAULTS["z_queue_depth"], resolved["length"]
            )
        config = RedMulEConfig(
            format=resolved["precision"],
            **{name: resolved[name] for name in CONFIG_AXES},
        )
        yield DesignPoint(
            config=config,
            tcdm_banks=resolved["tcdm_banks"],
            memory_latency=resolved["memory_latency"],
        )


def reference_sweep(space, workload, tile=False, tcdm_budget_bytes=None,
                    offload_cycles_per_job=0.0):
    """(records, cache hits, cache misses) of the per-point loop.

    It lowers through the free :func:`repro.graph.lower.lower`, never
    through the graph's memo that :func:`sweep` uses.
    """
    graph = _resolve_workload(workload)
    technology = TECH_22NM
    point_op = technology.reference_point
    cache = TimingCache()
    lower_kwargs = {"tile": tile}
    if tcdm_budget_bytes is not None:
        lower_kwargs["tcdm_budget_bytes"] = tcdm_budget_bytes
    records = []
    per_config = {}
    for point in reference_points(space):
        config = point.config
        cached = per_config.get(config)
        if cached is None:
            program = lower_graph(graph, config=config, **lower_kwargs)
            farm = SimulationFarm(config=config, backend=BACKEND_MODEL,
                                  cache=cache)
            results = farm.run(program.jobs)
            model = RedMulEPerfModel(config)
            cached = (
                program,
                program.job_deps(),
                [(result.cycles, result.record.n_tiles)
                 for result in results],
                all(model.is_exact(job) for job in program.jobs),
                AreaModel(config, technology).total(),
            )
            per_config[config] = cached
        program, deps, base_timing, model_exact, area = cached
        costs = [
            cycles + point.memory_latency * n_tiles + offload_cycles_per_job
            for cycles, n_tiles in base_timing
        ]
        serial = float(sum(costs))
        makespan = reference_critical_path(deps, costs)
        total_macs = program.total_macs
        macs_per_cycle = total_macs / serial if serial > 0 else 0.0
        utilisation = macs_per_cycle / config.ideal_macs_per_cycle
        cluster_area = ClusterAreaModel(
            config, technology, tcdm_banks=point.tcdm_banks
        ).total()
        energy_model = EnergyModel(config, technology)
        power_w = energy_model.cluster_power_accel_w(point_op, utilisation)
        runtime_s = serial / point_op.frequency_hz
        energy_j = power_w * runtime_s
        gflops = 2.0 * macs_per_cycle * point_op.frequency_hz / 1e9
        records.append(DsePoint(
            height=config.height,
            length=config.length,
            pipeline_regs=config.pipeline_regs,
            w_prefetch_lines=config.w_prefetch_lines,
            z_queue_depth=config.z_queue_depth,
            precision=config.format,
            tcdm_banks=point.tcdm_banks,
            memory_latency=point.memory_latency,
            n_fma=config.n_fma,
            n_mem_ports=config.n_mem_ports,
            n_jobs=program.n_jobs,
            total_macs=total_macs,
            serial_cycles=serial,
            makespan_cycles=makespan,
            macs_per_cycle=macs_per_cycle,
            utilisation=utilisation,
            parallelism=serial / makespan if makespan > 0 else 1.0,
            area_mm2=area,
            cluster_area_mm2=cluster_area,
            gflops=gflops,
            gflops_per_w=gflops / power_w if power_w > 0 else 0.0,
            energy_uj=energy_j * 1e6,
            energy_per_mac_pj=(energy_j / total_macs * 1e12
                               if total_macs else 0.0),
            model_exact=model_exact,
            point=point,
        ))
    return records, cache.stats.hits, cache.stats.misses


#: The perfbench ``dse-sweep`` grid: 32 configurations x 20 environment
#: points.
DSE_SWEEP_AXES = {
    "height": (4, 8),
    "length": (4, 8),
    "pipeline_regs": (2, 3),
    "w_prefetch_lines": (1, 2),
    "memory_latency": (0, 1, 2, 4, 8),
    "tcdm_banks": (8, 16, 32, 64),
    "precision": ("fp16", "fp8-e4m3"),
}

#: The ``runner dse-memory`` grid: 18 configurations x 12 environment points.
DSE_MEMORY_AXES = {
    "height": (2, 4, 8),
    "length": (4, 8, 16),
    "pipeline_regs": (2, 3),
    "tcdm_banks": (8, 16, 32),
    "memory_latency": (0, 4, 16, 64),
}

ENVIRONMENT = {"tcdm_banks": (8, 32), "memory_latency": (0, 4, 16)}

ORACLE_CASES = {
    "dse-sweep-grid": (DSE_SWEEP_AXES, "transformer-tiny", {}),
    "offload": ({"height": (2, 4), "length": (4, 8), **ENVIRONMENT},
                "mlp-tiny", {"offload_cycles_per_job": 50.0}),
    "tiled": ({"height": (2, 4), "pipeline_regs": (2, 3), **ENVIRONMENT},
              "autoencoder-b1",
              {"tile": True, "tcdm_budget_bytes": 16 * 1024}),
    "shapes": ({"height": (2, 4), "length": (4, 16), **ENVIRONMENT},
               [GemmShape(8, 8, 8, "a"), GemmShape(4, 16, 4, "b"),
                GemmShape(24, 40, 12, "c")], {}),
    "z-queue-x-precision": ({"length": (4, 16), "z_queue_depth": (8, 16),
                             "precision": ("fp16", "bf16", "fp8-e5m2"),
                             **ENVIRONMENT}, "mlp-tiny", {}),
    "one-point": ({"height": (4,)}, "mlp-tiny", {}),
}


class TestPerPointReference:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_records_equal_the_per_point_loop(self, case):
        axes, workload, kwargs = ORACLE_CASES[case]
        space = DesignSpace(axes)
        result = sweep(space, workload, **kwargs)
        expected, hits, misses = reference_sweep(space, workload, **kwargs)
        assert len(result) == len(expected) == len(space)
        # The reference builds its records through the frozen dataclasses'
        # __init__, sweep() fills their __dict__: whole objects, provenance
        # point included, must not tell the difference.
        for record, reference in zip(result.points, expected):
            assert record == reference
            assert hash(record) == hash(reference)
            assert repr(record) == repr(reference)
            assert hash(record.point) == hash(reference.point)
        assert (result.cache_hits, result.cache_misses) == (hits, misses)

    def test_records_stay_frozen_dataclasses(self):
        record = sweep(DesignSpace.grid(height=(4,)), "mlp-tiny").points[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.serial_cycles = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.point.tcdm_banks = 1
        changed = dataclasses.replace(record, serial_cycles=1.0)
        assert changed.serial_cycles == 1.0 and changed.point == record.point
        moved = dataclasses.replace(record.point, memory_latency=3)
        assert moved.memory_latency == 3
        assert pickle.loads(pickle.dumps(record)) == record
        assert pickle.loads(pickle.dumps(record.point)) == record.point
        # The instance dict lists the fields in declaration order, as
        # __init__ leaves it.
        assert list(vars(record)) == [field.name for field in
                                      dataclasses.fields(DsePoint)]
        # The shortcut skips __post_init__, so neither class may have one.
        assert not hasattr(DsePoint, "__post_init__")
        assert not hasattr(DesignPoint, "__post_init__")

    def test_dse_memory_grid_is_pinned(self):
        # Absolute values too: the reference shares the lowering pass, the
        # farm and the area/energy models with sweep().
        result = sweep(DesignSpace(DSE_MEMORY_AXES), "autoencoder-b1")
        text = json.dumps([point.as_row() for point in result.points],
                          sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "db602c6940dd18de9d81cc9615dac51c2a81f7135b7d38e5a907766caff8735d"
        )
        assert (len(result), result.cache_hits, result.cache_misses) == \
            (216, 342, 180)


#: The perfbench ``dse-sweep`` graphs: sha256 of the sorted-key JSON of
#: every ``as_row()`` of one DSE_SWEEP_AXES sweep, and (points, cache hits,
#: cache misses).
PERFBENCH_GRID_PINS = {
    "mlp-tiny": (
        "fa8562d4ae1e48f8f152c0a0b01fbb7b823f1ef8abd7f568828f4080de40478e",
        (640, 0, 256)),
    "autoencoder-b16": (
        "b10478496bbf46ada0d53f8506caadc1089578bce8f7757767e60b915dbb97a6",
        (640, 608, 320)),
    "transformer-tiny": (
        "061474e24a9831d2446b44f03ee7bb0ac5153e3ccc7e897b73ed3c66e6539623",
        (640, 192, 128)),
}

#: Distinct lowering keys of one DSE_SWEEP_AXES sweep: 8 (length, block_k)
#: pairs x 2 precisions.
DSE_SWEEP_LOWERING_KEYS = 16


class TestPerfbenchGrid:
    @pytest.mark.parametrize("name", list(PERFBENCH_GRID_PINS))
    def test_grid_is_pinned(self, name):
        result = sweep(DesignSpace(DSE_SWEEP_AXES), name)
        text = json.dumps([point.as_row() for point in result.points],
                          sort_keys=True, separators=(",", ":"))
        digest, counts = PERFBENCH_GRID_PINS[name]
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (len(result), result.cache_hits, result.cache_misses) == \
            counts

    @pytest.mark.parametrize("name", list(PERFBENCH_GRID_PINS))
    def test_a_fresh_graph_lowers_once_per_lowering_key(self, name,
                                                         monkeypatch):
        module = importlib.import_module("repro.graph.lower")
        calls = []

        def counting_lower(*args, **kwargs):
            calls.append(args)
            return lower_graph(*args, **kwargs)

        monkeypatch.setattr(module, "lower", counting_lower)
        sweep(DesignSpace(DSE_SWEEP_AXES), build_model(name))
        assert len(calls) <= DSE_SWEEP_LOWERING_KEYS


#: Graphs whose memoised lowerings are checked against fresh ones: the
#: perfbench and dse-memory graphs, the precision-variant zoo models and a
#: mixed-precision decode step.
MEMO_ORACLE_MODELS = (
    "mlp-tiny", "autoencoder-b1", "autoencoder-b16", "transformer-tiny",
    "autoencoder-b1-fp8", "autoencoder-b16-fp8", "mlp-tiny-bf16",
    "transformer-tiny-fp8", "llm-decode-tiny-kv8-step8",
)

MEMO_ORACLE_MODES = {
    "whole-gemm": {},
    "tiled-16k": {"tile": True, "tcdm_budget_bytes": 16 * 1024},
}


class TestLoweringMemo:
    @pytest.mark.parametrize("name", MEMO_ORACLE_MODELS)
    def test_memoised_lowering_equals_fresh_lowering(self, name):
        graph = build_model(name)
        configs = [config for axes in (DSE_SWEEP_AXES, DSE_MEMORY_AXES)
                   for config in DesignSpace(axes).configs()]
        for kwargs in MEMO_ORACLE_MODES.values():
            for config in configs:
                memoised = graph.lower(config=config, **kwargs)
                fresh = lower_graph(graph, config=config, **kwargs)
                assert memoised.nodes == fresh.nodes, (name, kwargs, config)
                assert memoised == fresh

    def test_configurations_of_one_key_share_a_program(self):
        graph = build_model("transformer-tiny")
        programs = {id(graph.lower(config=config))
                    for config in DesignSpace(DSE_SWEEP_AXES).configs()}
        assert len(programs) == DSE_SWEEP_LOWERING_KEYS


class TestSweep:
    def test_one_record_per_point(self):
        space = small_space()
        result = sweep(space, small_graph())
        assert len(result) == len(space)
        heights = {point.height for point in result.points}
        assert heights == {2, 4}

    def test_exactness_tells_accumulating_twins_apart(self):
        """``is_exact`` reads ``accumulate``: at H=1, L=4, P=1 the
        accumulating 4x1x4 job lies outside the exact domain and its
        non-accumulating twin inside, so a program holding both -- the
        accumulating one first -- is not exact."""
        space = DesignSpace.grid(height=(1,), length=(4,), pipeline_regs=(1,))
        (config,) = space.configs()
        twins = tuple(MatmulJob(0, 0, 0, 4, 1, 4, accumulate=accumulate)
                      for accumulate in (True, False))
        model = RedMulEPerfModel(config)
        assert [model.is_exact(job) for job in twins] == [False, True]
        node = LoweredNode(name="g", kind=KIND_GEMM, jobs=twins, deps=(),
                           shape=GemmShape(4, 1, 4, "g"), macs=32,
                           elements=16, note="")
        program = LoweredProgram(graph_name="twins", nodes=(node,),
                                 tiled=True, tcdm_budget_bytes=96 * 1024)
        graph = small_graph()
        graph.lower = lambda **kwargs: program
        result = sweep(space, graph)
        assert [point.model_exact for point in result.points] == [False]

    def test_serial_cycles_match_farm_time_program(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        (point,) = result.points
        config = RedMulEConfig(height=4, length=8, pipeline_regs=3)
        farm = SimulationFarm(config=config, backend=BACKEND_MODEL)
        program = small_graph().lower(config=config)
        assert point.serial_cycles == farm.time_program(program).cycles

    def test_memory_latency_adds_one_latency_per_tile(self):
        space = DesignSpace.grid(memory_latency=(0, 7))
        result = sweep(space, small_graph())
        base, slow = result.points
        config = base.point.config
        program = small_graph().lower(config=config)
        model = RedMulEPerfModel(config)
        tiles = sum(model.estimate(job).n_tiles for job in program.jobs)
        assert slow.serial_cycles == base.serial_cycles + 7 * tiles
        # ... which is exactly the perf model's own memory_latency extension.
        slow_model = RedMulEPerfModel(config, memory_latency=7)
        assert slow.serial_cycles == sum(
            slow_model.estimate(job).cycles for job in program.jobs
        )

    def test_offload_cost_charged_per_job(self):
        graph = small_graph()
        space = DesignSpace.grid(height=(4,))
        plain = sweep(space, graph)
        charged = sweep(space, graph, offload_cycles_per_job=50.0)
        n_jobs = plain.points[0].n_jobs
        assert charged.points[0].serial_cycles == \
            plain.points[0].serial_cycles + 50.0 * n_jobs

    def test_critical_path_bounds_serial(self):
        result = sweep(small_space(), small_graph())
        for point in result.points:
            assert 0 < point.makespan_cycles <= point.serial_cycles
            assert point.parallelism >= 1.0

    def test_area_grows_with_array_size(self):
        result = sweep(DesignSpace.grid(height=(2, 8)), small_graph())
        small, large = result.points
        assert large.n_fma > small.n_fma
        assert large.area_mm2 > small.area_mm2

    def test_tcdm_banks_scale_cluster_area_only(self):
        result = sweep(DesignSpace.grid(tcdm_banks=(8, 32)), small_graph())
        few, many = result.points
        assert many.cluster_area_mm2 > few.cluster_area_mm2
        assert many.area_mm2 == few.area_mm2
        assert many.serial_cycles == few.serial_cycles

    def test_environment_axes_reuse_the_per_config_timing(self):
        # Environment axes (banks, latency) repeat the same configuration;
        # the sweep times each distinct config once and derives the rest,
        # so the farm sees no extra traffic at all for the repeats.
        alone = sweep(DesignSpace.grid(height=(2, 4)), small_graph())
        widened = sweep(
            DesignSpace.grid(height=(2, 4), tcdm_banks=(8, 16),
                             memory_latency=(0, 4)),
            small_graph(),
        )
        assert len(widened) == 4 * len(alone)
        assert widened.cache_misses == alone.cache_misses

    def test_explicit_cache_shared_across_sweeps(self):
        cache = TimingCache()
        space = small_space()
        first = sweep(space, small_graph(), cache=cache)
        second = sweep(space, small_graph(), cache=cache)
        assert first.cache_misses > 0
        # Every shape of the re-run is served from the shared cache.
        assert second.cache_misses == 0
        assert second.cache_hit_rate == 1.0
        assert [p.serial_cycles for p in second.points] == \
            [p.serial_cycles for p in first.points]

    def test_workload_forms_agree(self):
        shapes = [GemmShape(8, 8, 8, "a"), GemmShape(4, 16, 4, "b")]
        by_shapes = sweep(DesignSpace.grid(height=(4,)), shapes)
        (point,) = by_shapes.points
        model = RedMulEPerfModel(point.point.config)
        expected = sum(
            model.estimate(MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                                     m=s.m, n=s.n, k=s.k)).cycles
            for s in shapes
        )
        assert point.serial_cycles == expected
        # Independent GEMMs: the makespan floor is the largest single job.
        assert point.makespan_cycles < point.serial_cycles

    def test_zoo_name_workload(self):
        result = sweep(DesignSpace.grid(height=(4,)), "mlp-tiny")
        assert result.workload_name == "mlp-tiny"

    def test_model_exact_flag_marks_saturated_geometries(self):
        # The (12, 40, 8) hidden-layer job (m=12 rows, n=40 inner) forces
        # mid-tile X refills, so the per-window port demand is H + min(m, L).
        # H=4, L=8, P=2: demand 12 <= block_k = 12 (uncontended);
        # H=6, L=8, P=1: demand 14 > block_k = 12 (saturated wide port).
        graph = mlp_training_graph((40, 12, 4), batch=8)
        exact = sweep(
            DesignSpace.grid(height=(4,), length=(8,), pipeline_regs=(2,)),
            graph,
        )
        saturated = sweep(
            DesignSpace.grid(height=(6,), length=(8,), pipeline_regs=(1,)),
            graph,
        )
        assert exact.points[0].model_exact
        assert exact.trusted_points == exact.points
        assert not saturated.points[0].model_exact
        assert saturated.trusted_points == []

    def test_untiled_sweep_of_a_gemm_no_tiling_fits(self):
        # H=32, P=7 lines hold 256 elements: no tile set of a 256^3 GEMM
        # fits the default 96 KiB budget, and whole-GEMM mode never
        # issues the plan.
        result = sweep(DesignSpace.grid(height=[32], pipeline_regs=[7]),
                       [GemmShape(256, 256, 256)])
        (point,) = result.points
        model = RedMulEPerfModel(point.point.config)
        assert point.n_jobs == 1
        assert point.serial_cycles == \
            model.estimate_gemm(256, 256, 256).cycles == 75048

    def test_untiled_sweep_under_a_small_budget(self):
        result = sweep(DesignSpace.grid(height=[16], pipeline_regs=[7]),
                       [GemmShape(128, 128, 128)],
                       tcdm_budget_bytes=16 * 1024)
        (point,) = result.points
        model = RedMulEPerfModel(point.point.config)
        assert point.n_jobs == 1
        assert point.serial_cycles == \
            model.estimate_gemm(128, 128, 128).cycles

    @pytest.mark.parametrize("offload", [-1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_invalid_offload_rejected(self, offload):
        with pytest.raises(ValueError, match="finite"):
            sweep(small_space(), small_graph(),
                  offload_cycles_per_job=offload)

    def test_render_smoke(self):
        result = sweep(small_space(), small_graph())
        text = result.render()
        assert "pareto frontier" in text
        assert "points/s" in text


class TestExports:
    def test_csv_round_trip_into_missing_directory(self, tmp_path):
        result = sweep(small_space(), small_graph())
        path = tmp_path / "deep" / "nested" / "points.csv"
        assert result.to_csv(path) == len(result)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result)
        assert set(rows[0]) == set(EXPORT_COLUMNS)
        assert float(rows[0]["serial_cycles"]) == \
            result.points[0].serial_cycles

    def test_json_export_carries_frontier_indices(self, tmp_path):
        result = sweep(small_space(), small_graph())
        path = tmp_path / "out" / "points.json"
        result.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["n_points"] == len(result)
        assert len(payload["points"]) == len(result)
        frontier = result.pareto()
        assert len(payload["pareto_indices"]) == len(frontier)
        for index in payload["pareto_indices"]:
            row = payload["points"][index]
            assert any(
                row["serial_cycles"] == point.serial_cycles
                and row["area_mm2"] == point.area_mm2
                for point in frontier
            )


class TestCrossValidation:
    def test_exact_domain_validates_with_zero_error(self):
        result = sweep(small_space(), small_graph())
        report = cross_validate(result, sample=2, trusted_only=True)
        assert report.jobs_checked > 0
        assert report.max_rel_error == 0.0
        assert report.ok
        assert all(sample.exact_expected for sample in report.samples)

    def test_describe_mentions_tolerance(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        report = cross_validate(result, sample=1)
        assert "cross-validation" in report.describe()
        assert "tolerance" in report.describe()

    def test_sample_of_one_over_many_candidates(self):
        # Regression: sample=1 with a multi-point frontier used to divide
        # by zero in the even-spread index computation.
        result = sweep(small_space(), small_graph())
        assert len(result.pareto()) > 1
        report = cross_validate(result, sample=1)
        assert len(report.samples) == 1

    def test_zero_sample_rejected(self):
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        with pytest.raises(ValueError, match="sample"):
            cross_validate(result, sample=0)

    def test_vacuous_validation_is_not_ok(self):
        # Every job above the MAC cap -> nothing is checked -> the gate
        # must refuse to report success.
        result = sweep(DesignSpace.grid(height=(4,)), small_graph())
        report = cross_validate(result, sample=1, max_macs_per_job=0)
        assert report.jobs_checked == 0
        assert not report.ok
        assert "VACUOUS" in report.describe()

    def test_best_trusted_only(self):
        from repro.graph.zoo import mlp_training_graph

        graph = mlp_training_graph((40, 12, 4), batch=8)
        # H=6 P=1 saturates (flattered estimate), H=4 P=2 is exact.
        result = sweep(
            DesignSpace.grid(height=(4, 6), length=(8,),
                             pipeline_regs=(1, 2)),
            graph,
        )
        assert not all(point.model_exact for point in result.points)
        best_any = result.best("serial_cycles")
        best_trusted = result.best("serial_cycles", trusted_only=True)
        assert best_trusted.model_exact
        # The unrestricted winner here is a flattered saturated point.
        assert not best_any.model_exact
