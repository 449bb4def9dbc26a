"""IEEE 754 exception flags.

FPnew (the FPU RedMulE's FMA units are derived from) reports the five standard
IEEE exception flags.  The bit-exact scalar operations of
:mod:`repro.fp.formats` raise them on an optional :class:`ExceptionFlags`
accumulator so that tests and the datapath model can observe
overflow/underflow behaviour, exactly like the status flags of the hardware
unit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ExceptionFlags:
    """Accumulated IEEE 754 exception flags for one or more operations.

    Attributes mirror the RISC-V ``fflags`` CSR bits (NV, DZ, OF, UF, NX).
    """

    invalid: bool = False
    div_by_zero: bool = False
    overflow: bool = False
    underflow: bool = False
    inexact: bool = False

    def merge(self, other: ExceptionFlags) -> ExceptionFlags:
        """Accumulate *other* into this instance and return ``self``."""
        self.invalid |= other.invalid
        self.div_by_zero |= other.div_by_zero
        self.overflow |= other.overflow
        self.underflow |= other.underflow
        self.inexact |= other.inexact
        return self

    def clear(self) -> None:
        """Reset every flag to ``False``."""
        self.invalid = False
        self.div_by_zero = False
        self.overflow = False
        self.underflow = False
        self.inexact = False

    def any(self) -> bool:
        """Return ``True`` if at least one flag is raised."""
        return (
            self.invalid
            or self.div_by_zero
            or self.overflow
            or self.underflow
            or self.inexact
        )

    def to_fflags(self) -> int:
        """Encode the flags in the RISC-V ``fflags`` CSR layout (5 bits)."""
        value = 0
        if self.inexact:
            value |= 1 << 0
        if self.underflow:
            value |= 1 << 1
        if self.overflow:
            value |= 1 << 2
        if self.div_by_zero:
            value |= 1 << 3
        if self.invalid:
            value |= 1 << 4
        return value
