"""RedMulE architectural configuration.

The accelerator is parametric in three numbers (Section II-B of the paper):

* ``H`` -- FMA units per row (columns of the array),
* ``L`` -- rows of FMA units,
* ``P`` -- internal pipeline registers per FMA.

Each row computes ``H * (P + 1)`` *slots* of a Z row before storing them,
which fixes the width of the X/W/Z lines the streamer moves per access and
therefore the number of 32-bit TCDM ports.  The paper's reference instance is
``H=4, L=8, P=3``: 32 FMAs, 16-slot lines, 9 memory ports (256 bits of
payload + one extra 32-bit lane for non-word-aligned accesses).

Since the multi-precision generalisation a slot is 16 bits of datapath and
line payload but no longer necessarily one element: ``format`` selects the
element encoding (:mod:`repro.fp.formats`), and the 8-bit FP8 formats pack
``elements_per_slot = 2`` operands into every slot -- each FMA lane then
performs one packed two-way operation per cycle (FPnew-style vectorial
mode), lines carry twice the elements, tiles cover twice the output columns
and peak throughput doubles at identical port width and array geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.fp.formats import BinaryFormat, get_format

#: Bits per datapath slot (one IEEE binary16 element in the paper's baseline).
ELEMENT_BITS = 16
#: Bytes per datapath slot.
ELEMENT_BYTES = ELEMENT_BITS // 8
#: Width of one TCDM port in bits.
PORT_BITS = 32


@dataclass(frozen=True)
class RedMulEConfig:
    """Static (design-time) parameters of a RedMulE instance.

    Attributes
    ----------
    height:
        ``H``, number of FMA columns per row.
    length:
        ``L``, number of FMA rows.
    pipeline_regs:
        ``P``, internal pipeline registers per FMA (latency is ``P + 1``).
        Must be >= 1: the cycle-accurate engine's X prefetch outruns its
        buffer with single-cycle FMAs (the engine-hang domain mapped by the
        design-space work), so ``P = 0`` instances are rejected at
        construction time instead of spinning the simulation.
    w_prefetch_lines:
        How many W lines per column the streamer may prefetch ahead of use
        (1 models the single staging slot in front of each shift register).
    z_queue_depth:
        Maximum pending Z line stores buffered before the datapath stalls.
        Jobs additionally require a depth of at least their live-row count
        (checked at submission time, see ``RedMulE.run_job``).
    format:
        Element format name (``"fp16"``, ``"bf16"``, ``"fp8-e4m3"``,
        ``"fp8-e5m2"``).  Participates in configuration identity: the
        element width changes line geometry, tile geometry and cycle
        counts.
    """

    height: int = 4
    length: int = 8
    pipeline_regs: int = 3
    w_prefetch_lines: int = 1
    z_queue_depth: int = 8
    format: str = "fp16"

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError("H (height) must be >= 1")
        if self.length < 1:
            raise ValueError("L (length) must be >= 1")
        if self.pipeline_regs < 1:
            raise ValueError(
                "P (pipeline_regs) must be >= 1: single-cycle FMAs put the "
                "engine in its mapped hang domain (X prefetch outruns the "
                "block buffer), so P=0 instances are rejected up front"
            )
        if self.w_prefetch_lines < 1:
            raise ValueError("w_prefetch_lines must be >= 1")
        if self.z_queue_depth < 1:
            raise ValueError("z_queue_depth must be >= 1")
        get_format(self.format)  # raises on unknown names

    # -- element format -----------------------------------------------------
    @cached_property
    def binary_format(self) -> BinaryFormat:
        """The element format descriptor."""
        return get_format(self.format)

    @cached_property
    def element_bits(self) -> int:
        """Bits per matrix element (16 for FP16/BF16, 8 for FP8)."""
        return self.binary_format.storage_bits

    @cached_property
    def element_bytes(self) -> int:
        """Bytes per matrix element."""
        return self.binary_format.storage_bytes

    @cached_property
    def elements_per_slot(self) -> int:
        """Elements packed into one 16-bit datapath slot (1 or 2)."""
        return ELEMENT_BITS // self.element_bits

    @cached_property
    def elements_per_line(self) -> int:
        """Elements in one streamer line (``block_k * elements_per_slot``).

        This is the number of Z columns a tile covers and the number of
        operands one wide access moves: the FP8 formats carry twice the
        elements of FP16 in the same line payload.
        """
        return self.block_k * self.elements_per_slot

    # -- derived geometry ---------------------------------------------------
    @cached_property
    def latency(self) -> int:
        """FMA latency in cycles (``P + 1``)."""
        return self.pipeline_regs + 1

    @cached_property
    def n_fma(self) -> int:
        """Total number of FMA units (``H * L``)."""
        return self.height * self.length

    @cached_property
    def block_k(self) -> int:
        """Z slots computed per row before store-back (``H * (P + 1)``).

        This is also the number of 16-bit slots in one X, W or Z line moved
        by the streamer (each slot holding ``elements_per_slot`` elements).
        """
        return self.height * self.latency

    @cached_property
    def line_bits(self) -> int:
        """Payload bits of one streamer line (``block_k * 16``)."""
        return self.block_k * ELEMENT_BITS

    @cached_property
    def line_bytes(self) -> int:
        """Payload bytes of one streamer line."""
        return self.block_k * ELEMENT_BYTES

    @cached_property
    def n_mem_ports(self) -> int:
        """Number of 32-bit TCDM ports of the streamer.

        One port per 32 bits of line payload plus one extra port that absorbs
        non-word-aligned accesses, as described in Section II-B (9 ports for
        the reference design).  Format-independent: narrow formats pack more
        elements into the same ports instead of shrinking the interface.
        """
        payload_ports = -(-self.line_bits // PORT_BITS)
        return payload_ports + 1

    @cached_property
    def ideal_macs_per_cycle(self) -> int:
        """Peak MAC throughput: ``elements_per_slot`` MACs per FMA per cycle."""
        return self.n_fma * self.elements_per_slot

    # -- buffer sizing (elements) --------------------------------------------
    @property
    def x_buffer_elements(self) -> int:
        """Capacity of the X buffer: one line of elements per row."""
        return self.length * self.elements_per_line

    @property
    def w_buffer_elements(self) -> int:
        """Capacity of the W buffer: one line-deep shift register per column."""
        return self.height * self.elements_per_line

    @property
    def z_buffer_elements(self) -> int:
        """Capacity of the Z buffer: one output line per row."""
        return self.length * self.elements_per_line

    @property
    def total_buffer_bits(self) -> int:
        """Total storage bits across the X, W and Z buffers."""
        return self.element_bits * (
            self.x_buffer_elements + self.w_buffer_elements + self.z_buffer_elements
        )

    # -- helpers ---------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable summary of the instance."""
        fmt = "" if self.format == "fp16" else f" {self.format}"
        return (
            f"RedMulE H={self.height} L={self.length} P={self.pipeline_regs}"
            f"{fmt} ({self.n_fma} FMAs, {self.elements_per_line}-element lines, "
            f"{self.n_mem_ports}x32-bit ports)"
        )

    @classmethod
    def reference(cls) -> "RedMulEConfig":
        """The paper's reference instance: H=4, L=8, P=3 (32 FMAs, 9 ports)."""
        return cls(height=4, length=8, pipeline_regs=3)
