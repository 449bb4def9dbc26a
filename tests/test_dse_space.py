"""Tests of the design-space axis grids."""

import pytest

from repro.dse import (
    AXIS_DEFAULTS,
    AXIS_ORDER,
    DesignAxis,
    DesignSpace,
    DesignSpaceError,
)


class TestDesignAxis:
    def test_valid_axis(self):
        axis = DesignAxis("height", (2, 4, 8))
        assert axis.values == (2, 4, 8)
        assert len(axis) == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(DesignSpaceError, match="unknown design axis"):
            DesignAxis("voltage", (1,))

    def test_empty_values_rejected(self):
        with pytest.raises(DesignSpaceError, match="at least one value"):
            DesignAxis("height", ())

    def test_non_integer_values_rejected(self):
        with pytest.raises(DesignSpaceError, match="integers"):
            DesignAxis("height", (2.5,))
        with pytest.raises(DesignSpaceError, match="integers"):
            DesignAxis("height", (True,))

    @pytest.mark.parametrize("name, values", [
        ("height", (4, 2, 4)),
        ("precision", ("fp16", "fp16")),
        ("memory_latency", (0, 4, 0)),
    ])
    def test_repeated_values_rejected(self, name, values):
        # A repeated value would sweep (and return on a frontier) the
        # same point twice.
        with pytest.raises(DesignSpaceError,
                           match=rf"axis '{name}': value {values[0]!r} "
                                 "given twice"):
            DesignAxis(name, values)
        with pytest.raises(DesignSpaceError, match="given twice"):
            DesignSpace.grid(**{name: values})

    def test_zero_rejected_for_config_axes_allowed_for_latency(self):
        with pytest.raises(DesignSpaceError, match=">= 1"):
            DesignAxis("height", (0,))
        assert DesignAxis("memory_latency", (0, 4)).values == (0, 4)


class TestDesignSpace:
    def test_grid_size_is_product_of_axes(self):
        space = DesignSpace.grid(height=(2, 4), length=(4, 8, 16),
                                 memory_latency=(0, 2))
        assert len(space) == 12
        assert len(list(space.points())) == 12

    def test_points_resolve_defaults_for_unswept_axes(self):
        space = DesignSpace.grid(height=(2,))
        (point,) = space.points()
        assert point.config.height == 2
        assert point.config.length == AXIS_DEFAULTS["length"]
        assert point.tcdm_banks == AXIS_DEFAULTS["tcdm_banks"]
        assert point.memory_latency == 0

    def test_duplicate_axis_rejected(self):
        with pytest.raises(DesignSpaceError, match="given twice"):
            DesignSpace([DesignAxis("height", (2,)), DesignAxis("height", (4,))])

    def test_empty_space_rejected(self):
        with pytest.raises(DesignSpaceError, match="at least one axis"):
            DesignSpace({})

    def test_mapping_constructor(self):
        space = DesignSpace({"height": [2, 4]})
        assert [p.config.height for p in space.points()] == [2, 4]

    def test_iteration_order_is_canonical_and_deterministic(self):
        space = DesignSpace.grid(length=(4, 8), height=(2, 4))
        order = [(p.config.height, p.config.length) for p in space.points()]
        # height is earlier in AXIS_ORDER, so it is the outer loop
        # regardless of keyword order.
        assert order == [(2, 4), (2, 8), (4, 4), (4, 8)]
        assert AXIS_ORDER.index("height") < AXIS_ORDER.index("length")

    def test_configs_yield_each_configuration_once_in_canonical_order(self):
        space = DesignSpace.grid(
            length=(4, 16), height=(2, 4), precision=("fp16", "fp8-e4m3"),
            tcdm_banks=(8, 16), memory_latency=(0, 4, 8),
        )
        configs = list(space.configs())
        assert [(c.height, c.length, c.format) for c in configs] == [
            (h, length, fmt)
            for h in (2, 4) for length in (4, 16)
            for fmt in ("fp16", "fp8-e4m3")
        ]
        assert len(set(configs)) == len(configs) == 8
        # configs() carries the Z-queue auto-deepening too.
        assert [c.z_queue_depth for c in configs][:4] == [8, 8, 16, 16]

    def test_environment_points_share_their_config_object(self):
        space = DesignSpace.grid(height=(2, 4), tcdm_banks=(8, 16),
                                 memory_latency=(0, 4, 8))
        points = list(space.points())
        configs = list(space.configs())
        n_env = 2 * 3
        assert len(points) == n_env * len(configs)
        for index, point in enumerate(points):
            assert point.config == configs[index // n_env]
            assert point.config is points[index - index % n_env].config
        # Banks outside latency: the latency axis iterates innermost.
        assert [(p.tcdm_banks, p.memory_latency) for p in points[:n_env]] \
            == [(8, 0), (8, 4), (8, 8), (16, 0), (16, 4), (16, 8)]

    def test_z_queue_auto_deepens_with_length(self):
        space = DesignSpace.grid(length=(4, 32))
        shallow, deep = space.points()
        assert shallow.config.z_queue_depth == AXIS_DEFAULTS["z_queue_depth"]
        # The engine's Z queue deadlocks when a tile has more live rows
        # than slots; the space keeps large-L points executable.
        assert deep.config.z_queue_depth == 32

    def test_explicit_z_queue_axis_is_respected_verbatim(self):
        space = DesignSpace.grid(length=(32,), z_queue_depth=(4,))
        (point,) = space.points()
        assert point.config.z_queue_depth == 4

    def test_describe_lists_swept_axes(self):
        space = DesignSpace.grid(height=(2, 4), tcdm_banks=(8, 16))
        text = space.describe()
        assert "4 points" in text
        assert "height" in text and "tcdm_banks" in text
