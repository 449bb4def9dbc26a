"""Shared fixtures for the RedMulE reproduction test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import PulpCluster
from repro.fp.vector import random_fp16_matrix
from repro.interco import Hci, HciConfig
from repro.mem import MemoryAllocator, Tcdm, TcdmConfig
from repro.redmule import MatmulJob, RedMulE, RedMulEConfig


def pytest_configure(config):
    """Turn numpy ``RuntimeWarning``s into test failures.

    The array kernels evaluate overflowing and invalid lanes (``inf * 0``,
    ``inf - inf``, casts beyond a format's range) on purpose and must do so
    inside :func:`numpy.errstate`; a warning escaping a kernel is a leak.
    """
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def reference_config() -> RedMulEConfig:
    """The paper's reference instance (H=4, L=8, P=3)."""
    return RedMulEConfig.reference()


@pytest.fixture
def tcdm() -> Tcdm:
    """A fresh TCDM instance."""
    return Tcdm(TcdmConfig())


@pytest.fixture
def hci(tcdm) -> Hci:
    """An HCI bound to the fresh TCDM."""
    return Hci(tcdm, HciConfig())


@pytest.fixture
def engine(reference_config, hci) -> RedMulE:
    """A RedMulE engine (fast numpy arithmetic) on a fresh memory system."""
    return RedMulE(reference_config, hci, exact=False)


@pytest.fixture
def cluster() -> PulpCluster:
    """A full PULP cluster with the reference accelerator."""
    return PulpCluster()


class MatmulHarness:
    """Test helper: place operands in TCDM, run the engine, read Z back."""

    def __init__(self, engine: RedMulE):
        self.engine = engine
        self.tcdm = engine.tcdm
        self.allocator = MemoryAllocator(self.tcdm.base, self.tcdm.size)

    def run(self, x: np.ndarray, w: np.ndarray):
        m, n = x.shape
        n2, k = w.shape
        assert n == n2, "harness operands must be conformable"
        hx = self.allocator.alloc_matrix(m, n, "X")
        hw = self.allocator.alloc_matrix(n, k, "W")
        hz = self.allocator.alloc_matrix(m, k, "Z")
        hx.store(self.tcdm, x)
        hw.store(self.tcdm, w)
        job = MatmulJob.from_handles(hx, hw, hz)
        result = self.engine.run_job(job)
        return hz.load(self.tcdm), result

    def run_random(self, m: int, n: int, k: int, seed: int = 0):
        x = random_fp16_matrix(m, n, scale=0.25, seed=seed)
        w = random_fp16_matrix(n, k, scale=0.25, seed=seed + 1)
        z, result = self.run(x, w)
        return x, w, z, result


@pytest.fixture
def harness(engine) -> MatmulHarness:
    """Matmul harness bound to the fast-arithmetic engine."""
    return MatmulHarness(engine)


@pytest.fixture
def exact_harness(reference_config) -> MatmulHarness:
    """Matmul harness bound to a bit-exact engine on its own memory."""
    tcdm = Tcdm(TcdmConfig())
    hci = Hci(tcdm, HciConfig())
    return MatmulHarness(RedMulE(reference_config, hci, exact=True))
