"""Word-interleaved, multi-banked Tightly-Coupled Data Memory (TCDM).

The PULP cluster's TCDM is organised as (by default) 16 single-ported SRAM
banks of 32-bit words, interleaved on word addresses so consecutive words hit
consecutive banks.  Cores and the DMA access it through the logarithmic branch
of the HCI (one 32-bit access per bank per cycle); RedMulE accesses it through
the 288-bit shallow branch, which treats 9 adjacent banks as one wide bank.

This model keeps byte-accurate contents per bank plus the bank-mapping
arithmetic the interconnect needs for conflict detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.mem.memory import Memory, MemoryError_


@dataclass(frozen=True)
class TcdmConfig:
    """Geometry of the TCDM.

    Attributes
    ----------
    n_banks:
        Number of word-interleaved banks (16 in the reference cluster).
    bank_words:
        Number of 32-bit words per bank.  The default (2048) gives the
        128 KiB TCDM typical of PULP clusters.
    word_bytes:
        Bytes per interleaving word (4: banks are 32-bit wide).
    base:
        Base address of the TCDM in the cluster address map.
    """

    n_banks: int = 16
    bank_words: int = 2048
    word_bytes: int = 4
    base: int = 0x1000_0000

    @property
    def bank_bytes(self) -> int:
        """Size of one bank in bytes."""
        return self.bank_words * self.word_bytes

    @property
    def size(self) -> int:
        """Total TCDM size in bytes."""
        return self.n_banks * self.bank_bytes


class Tcdm:
    """Behavioural model of the banked TCDM.

    The memory is exposed both as a flat byte-addressable region (the view
    software and the accelerator have) and as per-bank structures used by the
    interconnect to count conflicts.  Contents are stored flat; the bank
    decomposition is purely an address-mapping concern, exactly as in the RTL
    where the interleaving is done by the interconnect, not the SRAM macros.
    """

    def __init__(self, config: TcdmConfig = TcdmConfig()) -> None:
        self.config = config
        self._mem = Memory(config.size, base=config.base, name="tcdm")
        #: Per-bank access counters (reads + writes), used by contention stats.
        self.bank_accesses: List[int] = [0] * config.n_banks

    # -- address mapping ---------------------------------------------------
    def bank_of(self, addr: int) -> int:
        """Return the bank index addressed by ``addr``."""
        offset = addr - self.config.base
        if offset < 0 or offset >= self.config.size:
            raise MemoryError_(f"tcdm: address {addr:#x} outside TCDM")
        return (offset // self.config.word_bytes) % self.config.n_banks

    def banks_of_range(self, addr: int, nbytes: int) -> List[int]:
        """Return the ordered list of distinct banks touched by a burst.

        Consecutive words map to consecutive banks, so the distinct banks are
        the first ``min(n_words, n_banks)`` banks starting at the first
        word's bank -- computed directly instead of scanning the burst.
        """
        word = self.config.word_bytes
        n_banks = self.config.n_banks
        first = (addr - self.config.base) // word
        n_words = (addr - self.config.base + max(nbytes, 1) - 1) // word - first + 1
        return [(first + i) % n_banks for i in range(min(n_words, n_banks))]

    # -- flat accessors (delegate to the flat memory, count per bank) -------
    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` bytes; bank counters are charged per touched bank."""
        for bank in self.banks_of_range(addr, nbytes):
            self.bank_accesses[bank] += 1
        return self._mem.read_bytes(addr, nbytes)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write bytes; bank counters are charged per touched bank."""
        for bank in self.banks_of_range(addr, len(data)):
            self.bank_accesses[bank] += 1
        self._mem.write_bytes(addr, data)

    def read_u16(self, addr: int) -> int:
        """Read a 16-bit halfword (one FP16 element)."""
        self.bank_accesses[self.bank_of(addr)] += 1
        return self._mem.read_u16(addr)

    def write_u16(self, addr: int, value: int) -> None:
        """Write a 16-bit halfword (one FP16 element)."""
        self.bank_accesses[self.bank_of(addr)] += 1
        self._mem.write_u16(addr, value)

    def read_u32(self, addr: int) -> int:
        """Read a 32-bit word."""
        self.bank_accesses[self.bank_of(addr)] += 1
        return self._mem.read_u32(addr)

    def write_u32(self, addr: int, value: int) -> None:
        """Write a 32-bit word."""
        self.bank_accesses[self.bank_of(addr)] += 1
        self._mem.write_u32(addr, value)

    # -- halfword line access -----------------------------------------------
    def read_u16_line(self, addr: int, n_elements: int):
        """Read a line of FP16 elements in one access (bank charges per range)."""
        for bank in self.banks_of_range(addr, 2 * n_elements):
            self.bank_accesses[bank] += 1
        return self._mem.read_u16_line(addr, n_elements)

    def write_u16_line(self, addr: int, values) -> None:
        """Write a line of FP16 elements in one access (bank charges per range)."""
        for bank in self.banks_of_range(addr, 2 * len(values)):
            self.bank_accesses[bank] += 1
        self._mem.write_u16_line(addr, values)

    # -- generic element line access ------------------------------------------
    def read_element_line(self, addr: int, n_elements: int,
                          element_bytes: int = 2) -> "np.ndarray":
        """Read a line of packed elements in one access (any element width)."""
        for bank in self.banks_of_range(addr, element_bytes * n_elements):
            self.bank_accesses[bank] += 1
        return self._mem.read_element_line(addr, n_elements, element_bytes)

    def write_element_line(self, addr: int, values,
                           element_bytes: int = 2) -> None:
        """Write a line of packed elements in one access (any element width)."""
        for bank in self.banks_of_range(addr, element_bytes * len(values)):
            self.bank_accesses[bank] += 1
        self._mem.write_element_line(addr, values, element_bytes)

    # -- wide (shallow-branch) access ---------------------------------------
    def wide_read(self, addr: int, nbytes: int) -> bytes:
        """Read up to 36 bytes (288 bits) as the HCI shallow branch would.

        The shallow branch has no per-bank arbitration: it owns 9 adjacent
        banks for the cycle, so the access is charged to each of them once.
        """
        return self.read_bytes(addr, nbytes)

    def wide_write(self, addr: int, data: bytes) -> None:
        """Write up to 36 bytes (288 bits) through the shallow branch."""
        self.write_bytes(addr, data)

    # -- test-bench helpers ---------------------------------------------------
    def load_image(self, addr: int, data: bytes) -> None:
        """Preload contents without counting traffic."""
        self._mem.load_image(addr, data)

    def dump_image(self, addr: int, nbytes: int) -> bytes:
        """Dump contents without counting traffic."""
        return self._mem.dump_image(addr, nbytes)

    def reset_stats(self) -> None:
        """Clear flat and per-bank access counters."""
        self._mem.reset_stats()
        self.bank_accesses = [0] * self.config.n_banks

    # -- statistics -----------------------------------------------------------
    @property
    def base(self) -> int:
        """Base address of the TCDM."""
        return self.config.base

    @property
    def size(self) -> int:
        """Total size in bytes."""
        return self.config.size

    @property
    def total_accesses(self) -> int:
        """Total number of bank accesses performed."""
        return sum(self.bank_accesses)

    def bank_utilisation(self) -> Tuple[float, float]:
        """Return (mean, max) per-bank share of total accesses."""
        total = self.total_accesses
        if total == 0:
            return 0.0, 0.0
        shares = [count / total for count in self.bank_accesses]
        return sum(shares) / len(shares), max(shares)
