"""Declarative design spaces: axes over the RedMulE architecture knobs.

A :class:`DesignSpace` is a cartesian grid of named axes.  Five integer axes
map straight onto :class:`~repro.redmule.config.RedMulEConfig` fields
(``height``, ``length``, ``pipeline_regs``, ``w_prefetch_lines``,
``z_queue_depth``); the ``precision`` axis sweeps the element format
(``"fp16"``, ``"bf16"``, ``"fp8-e4m3"``, ``"fp8-e5m2"`` -- the FP8 formats
double elements-per-line and peak throughput at identical ports and array
geometry, which is exactly the trade-off the multi-precision follow-on
explores); two further axes describe the environment around the accelerator:

* ``tcdm_banks`` -- number of shared-memory banks (cluster area / energy
  through :class:`~repro.power.area.ClusterAreaModel`);
* ``memory_latency`` -- extra cycles the first access of every tile pre-load
  pays (the :class:`~repro.redmule.perf_model.RedMulEPerfModel`
  ``memory_latency`` extension).

Unless ``z_queue_depth`` is swept or pinned explicitly, it is auto-deepened
to ``max(reference depth, L)``: the engine's Z store queue deadlocks when a
tile has more live rows than queue slots, so a sweep over large ``L`` with
the reference depth would produce configurations the cycle-accurate
cross-validation could never run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from repro.fp.formats import FORMAT_NAMES
from repro.redmule.config import RedMulEConfig

#: Integer axes forwarded into :class:`RedMulEConfig`, in canonical order.
CONFIG_AXES: Tuple[str, ...] = (
    "height",
    "length",
    "pipeline_regs",
    "w_prefetch_lines",
    "z_queue_depth",
)

#: The element-format axis (forwarded as ``RedMulEConfig.format``).
PRECISION_AXIS = "precision"

#: Environment axes evaluated outside the accelerator configuration.
ENVIRONMENT_AXES: Tuple[str, ...] = ("tcdm_banks", "memory_latency")

#: Every valid axis name, in the order points iterate.
AXIS_ORDER: Tuple[str, ...] = CONFIG_AXES + (PRECISION_AXIS,) + ENVIRONMENT_AXES

#: Default value of each axis when it is not swept.
AXIS_DEFAULTS: Dict[str, object] = {
    "height": 4,
    "length": 8,
    "pipeline_regs": 3,
    "w_prefetch_lines": 1,
    "z_queue_depth": 8,
    "precision": "fp16",
    "tcdm_banks": 16,
    "memory_latency": 0,
}

#: Integer axes whose values must be >= 1 (``memory_latency`` alone may be 0).
_MIN_ONE = frozenset(AXIS_ORDER) - {"memory_latency", PRECISION_AXIS}


class DesignSpaceError(ValueError):
    """An invalid axis definition."""


@dataclass(frozen=True)
class DesignAxis:
    """One named axis: the values a single knob sweeps over."""

    name: str
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in AXIS_ORDER:
            raise DesignSpaceError(
                f"unknown design axis {self.name!r}; valid axes: "
                f"{', '.join(AXIS_ORDER)}"
            )
        if not self.values:
            raise DesignSpaceError(f"axis {self.name!r} needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))
        if self.name == PRECISION_AXIS:
            for value in self.values:
                if value not in FORMAT_NAMES:
                    raise DesignSpaceError(
                        f"axis {self.name!r}: unknown format {value!r}; "
                        f"valid: {', '.join(FORMAT_NAMES)}"
                    )
        else:
            floor = 1 if self.name in _MIN_ONE else 0
            for value in self.values:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise DesignSpaceError(
                        f"axis {self.name!r}: values must be integers, "
                        f"got {value!r}"
                    )
                if value < floor:
                    raise DesignSpaceError(
                        f"axis {self.name!r}: values must be >= {floor}, "
                        f"got {value}"
                    )
        # A repeated value would repeat every grid point it spans (and
        # every frontier member among them).
        seen = set()
        for value in self.values:
            if value in seen:
                raise DesignSpaceError(
                    f"axis {self.name!r}: value {value!r} given twice"
                )
            seen.add(value)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DesignPoint:
    """One fully resolved grid point: a configuration plus its environment."""

    config: RedMulEConfig
    tcdm_banks: int
    memory_latency: int

    def axis_values(self) -> Dict[str, object]:
        """The point as an axis-name -> value mapping (exports, keys)."""
        return {
            "height": self.config.height,
            "length": self.config.length,
            "pipeline_regs": self.config.pipeline_regs,
            "w_prefetch_lines": self.config.w_prefetch_lines,
            "z_queue_depth": self.config.z_queue_depth,
            "precision": self.config.format,
            "tcdm_banks": self.tcdm_banks,
            "memory_latency": self.memory_latency,
        }

    def describe(self) -> str:
        """One-line summary of the point."""
        return (
            f"{self.config.describe()}, {self.tcdm_banks} TCDM banks, "
            f"memory latency {self.memory_latency}"
        )


class DesignSpace:
    """A cartesian grid over architecture and environment axes.

    Axes may be given as :class:`DesignAxis` objects or as a mapping of
    axis name to value sequence; un-swept axes sit at their defaults.
    """

    def __init__(
        self,
        axes: Union[Mapping[str, Sequence[int]], Iterable[DesignAxis]],
    ) -> None:
        if isinstance(axes, Mapping):
            axes = [DesignAxis(name, tuple(values))
                    for name, values in axes.items()]
        self.axes: Dict[str, DesignAxis] = {}
        for axis in axes:
            if not isinstance(axis, DesignAxis):
                raise DesignSpaceError(
                    "expected a DesignAxis or a name -> values mapping, "
                    f"got {axis!r}"
                )
            if axis.name in self.axes:
                raise DesignSpaceError(f"axis {axis.name!r} given twice")
            self.axes[axis.name] = axis
        if not self.axes:
            raise DesignSpaceError("a design space needs at least one axis")

    @classmethod
    def grid(cls, **axes: Sequence) -> "DesignSpace":
        """Keyword-argument convenience: ``DesignSpace.grid(height=(2, 4))``."""
        return cls(axes)

    # -- geometry ------------------------------------------------------------
    def __len__(self) -> int:
        size = 1
        for axis in self.axes.values():
            size *= len(axis)
        return size

    def axis_values(self, name: str) -> Tuple[int, ...]:
        """Values of one axis (the default as a singleton when not swept)."""
        axis = self.axes.get(name)
        if axis is not None:
            return axis.values
        return (AXIS_DEFAULTS[name],)

    def configs(self) -> Iterator[RedMulEConfig]:
        """Iterate the distinct accelerator configurations in canonical order.

        One :class:`RedMulEConfig` per combination of the configuration and
        precision axes, with the Z queue auto-deepened unless it is swept.
        Axis values are distinct, so no configuration repeats.
        """
        swept_z_queue = "z_queue_depth" in self.axes
        names = CONFIG_AXES + (PRECISION_AXIS,)
        for values in itertools.product(
                *(self.axis_values(name) for name in names)):
            resolved = dict(zip(names, values))
            if not swept_z_queue:
                # Deepen the Z queue alongside L so the engine (which
                # deadlocks when a tile has more live rows than queue
                # slots) can execute every point of the sweep.
                resolved["z_queue_depth"] = max(
                    AXIS_DEFAULTS["z_queue_depth"], resolved["length"]
                )
            yield RedMulEConfig(format=resolved.pop(PRECISION_AXIS),
                                **resolved)

    def points(self) -> Iterator[DesignPoint]:
        """Iterate the grid in deterministic (canonical axis) order.

        :meth:`configs` crossed with the environment axes, which iterate
        innermost; the points of one configuration share its config object.
        """
        banks_axis = self.axis_values("tcdm_banks")
        latency_axis = self.axis_values("memory_latency")
        for config in self.configs():
            for tcdm_banks in banks_axis:
                for memory_latency in latency_axis:
                    yield DesignPoint(config, tcdm_banks, memory_latency)

    def describe(self) -> str:
        """One line per swept axis plus the grid size."""
        lines = [f"design space: {len(self)} points over "
                 f"{len(self.axes)} axes"]
        for name in AXIS_ORDER:
            if name in self.axes:
                lines.append(f"  {name}: {list(self.axes[name].values)}")
        return "\n".join(lines)
