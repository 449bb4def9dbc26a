"""Digest ledger of the repository benchmark (``perfbench/``).

Every perfbench workload hashes all simulated outputs of a round into its
``sim_digest``.  Rounds repeat identical work, so one ``setup()`` plus one
``run_round()`` at the default parameters and a fixed seed reproduces the
digest of every timed round.  Pinning it here makes "every simulated output
unchanged" a gate: a latency off by one cycle, a reordered tie or a drifted
p99 changes the hash.  A change that alters simulated behaviour on purpose
updates the pin and says why.  The digests do not depend on
``PYTHONHASHSEED``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The seed of the benchmark's recorded runs.
SEED = 4101

#: sha256 ``sim_digest`` of one round per workload, default parameters.
SIM_DIGESTS = {
    "serve-mix":
        "a6549bc74c0a29f3b702b7f65d498e4f73648345439bafc979940ea4e841dc00",
    "serve-decode":
        "9be1fa92c0ec70e19bad2497cfaa75cccd3898b059fda99559d35c27b24bf94e",
    "engine-gemm":
        "9c9cfb73da7a01f359ba2748ba518e07c25f5b2d73700497d1e770bdb9979b4e",
    "dse-sweep":
        "c9f2f519a20a11fd9cec20819e6b0105d228478adfcbd2002e4b021cd98fa953",
}


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``workloads`` and ``spans`` modules.

    They import each other as top-level modules, the way ``run.py`` loads
    them, so the directory is on ``sys.path`` only while they import.
    """
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, workloads


def test_every_workload_is_pinned(perfbench):
    _, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(SIM_DIGESTS)


@pytest.mark.parametrize("name", list(SIM_DIGESTS))
def test_round_reproduces_the_committed_digest(perfbench, name):
    spans, workloads = perfbench
    workload = workloads.WORKLOADS[name](
        SEED, spans.Tracer(known=workloads.SPAN_NAMES))
    workload.setup()
    outcome = workload.run_round()
    assert outcome.failed == 0
    assert outcome.digest == SIM_DIGESTS[name]
