"""Jobs whose Z region aliases an operand, pinned across all four backends.

When Z overlaps W or X, the Z lines one tile stores land in memory that
later tiles still load, so what such a job computes depends on the exact
interleaving of loads and stores -- and on every tile using its operand
lines as the streamer loaded them, never re-read at tile end.  The trace
backend cannot replay these jobs (they stay event-stepped), so all four
backends run the same cycle loop and must leave the same TCDM image.  The
digests pin that image for multi-tile fp16 and fp8-e4m3 jobs.
"""

import hashlib

import pytest

from repro.fp.vector import pack_matrix, random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.trace import TraceStore
from repro.redmule.vector_ops import VECTOR_OPS_BACKENDS

#: (format, aliased operand, M, N, K, Z offset in elements from that
#: operand's base, accumulate) -> sha256 prefix of the X/W/Z region image.
#: The offset-0 Z-over-W jobs keep K within one line, so consecutive tiles
#: share W columns and each tile loads W rows that the previous tile's Z
#: stores are still landing in.
ALIAS_JOBS = {
    ("fp16", "w", 20, 24, 16, 0, False): "6e08ce8fc48fd5dd",
    ("fp16", "w", 10, 24, 40, 16, True): "b5e67d451ba8e2c1",
    ("fp16", "x", 20, 24, 20, 0, False): "33ae9e40d129c799",
    ("fp16", "x", 17, 40, 24, 8, True): "c2bd8f75e868d6d3",
    ("fp8-e4m3", "w", 24, 20, 28, 0, False): "cddcd48b37b81b10",
    ("fp8-e4m3", "w", 9, 32, 48, 32, True): "90a3330966092211",
    ("fp8-e4m3", "x", 20, 48, 40, 0, False): "da8658003c109629",
    ("fp8-e4m3", "x", 18, 64, 36, 16, True): "b2ebf0c7c1523c94",
}


def run_alias_job(backend, spec):
    """Run one aliasing job; returns ``(result, region image digest)``."""
    fmt, alias, m, n, k, offset, accumulate = spec
    config = RedMulEConfig(format=fmt)
    eb = config.element_bytes
    tcdm = Tcdm(TcdmConfig())
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    engine = RedMulE(config, hci, backend=backend, trace_store=TraceStore())
    x_addr = tcdm.base
    w_addr = x_addr + m * n * eb
    z_addr = (w_addr if alias == "w" else x_addr) + offset * eb
    end = max(w_addr + n * k * eb, z_addr + m * k * eb)
    seed = m * 1000 + n * 10 + k
    tcdm.load_image(x_addr, pack_matrix(
        random_matrix(m, n, fmt, scale=0.25, seed=seed), fmt))
    tcdm.load_image(w_addr, pack_matrix(
        random_matrix(n, k, fmt, scale=0.25, seed=seed + 1), fmt))
    job = MatmulJob(x_addr=x_addr, w_addr=w_addr, z_addr=z_addr, m=m, n=n,
                    k=k, accumulate=accumulate, element_bytes=eb)
    result = engine.run_job(job)
    image = tcdm.dump_image(x_addr, end - x_addr)
    return result, hashlib.sha256(image).hexdigest()[:16]


@pytest.mark.parametrize("spec", list(ALIAS_JOBS),
                         ids=lambda s: "-".join(map(str, s)))
def test_aliasing_job_is_pinned_on_every_backend(spec):
    runs = {backend: run_alias_job(backend, spec)
            for backend in VECTOR_OPS_BACKENDS}
    oracle = runs["exact"][0]
    assert oracle.n_tiles > 1
    for backend, (result, image) in runs.items():
        assert image == ALIAS_JOBS[spec], backend
        assert (result.cycles, result.stall_cycles, result.issued_macs) == (
            oracle.cycles, oracle.stall_cycles, oracle.issued_macs), backend
