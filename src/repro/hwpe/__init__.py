"""Hardware Processing Engine (HWPE) infrastructure.

RedMulE is integrated in the PULP cluster as an HWPE: a memory-mapped,
software-programmed accelerator that shares the TCDM with the cores.  This
package models the pieces of that integration that are independent of the
accelerator's datapath:

* :mod:`repro.hwpe.regfile` -- the memory-mapped register file through which
  cores program a job (operand pointers, matrix sizes, trigger/status);
* :mod:`repro.hwpe.controller` -- the job controller FSM and the event line
  back to the cores.
"""

from repro.hwpe.regfile import HwpeRegisterFile, RegisterSpec
from repro.hwpe.controller import HwpeController, HwpeState

__all__ = [
    "HwpeController",
    "HwpeRegisterFile",
    "HwpeState",
    "RegisterSpec",
]
