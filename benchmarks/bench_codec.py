"""Hot-path wall-clock benchmarks of the Reed-Solomon codec.

Not a paper figure — these are this repository's substitute for the
Zfec performance numbers the paper cites ([21], [25]): they demonstrate
the pure-Python/numpy codec sustains rates far above what the simulated
storage system pushes, justifying the §6.2.3 conclusion. Each case
records its throughput in value bytes as ``extra_info["mb_per_s"]``
(visible with ``--benchmark-json``).
"""

import numpy as np
import pytest

from repro.erasure import CodingConfig, RSCodec
from repro.erasure import gf256

#: The value size `benchmarks/perf`'s `coded_large` workload moves.
PERF_SIZE = 128 * 1024


def _data(size):
    return np.random.default_rng(7).integers(0, 256, size, dtype=np.uint8).tobytes()


def _run(benchmark, nbytes, fn, *args):
    """Benchmark ``fn(*args)`` and record MB/s of ``nbytes`` per call."""
    out = benchmark(fn, *args)
    if benchmark.stats:  # None under --benchmark-disable
        median = benchmark.stats.stats.median
        benchmark.extra_info["mb_per_s"] = round(nbytes / median / 1e6, 1)
    return out


@pytest.mark.parametrize("size", [64 * 1024, PERF_SIZE, 1 << 20, 4 << 20])
def test_encode_theta_3_5(benchmark, size):
    codec = RSCodec(CodingConfig(3, 5))
    shares = _run(benchmark, size, codec.encode, _data(size))
    assert len(shares) == 5


@pytest.mark.parametrize("config", [(3, 5), (5, 7), (3, 7)])
def test_encode_configs_1mb(benchmark, config):
    x, n = config
    codec = RSCodec(CodingConfig(x, n))
    shares = _run(benchmark, 1 << 20, codec.encode, _data(1 << 20))
    assert len(shares) == n


@pytest.mark.parametrize("size", [PERF_SIZE, 1 << 20])
@pytest.mark.parametrize("missing", [0, 1, 2])
def test_decode_theta_3_5(benchmark, missing, size):
    """Decode with ``missing`` of the 3 original shares replaced by
    parity: 0 is the concatenation fast path, each missing original
    costs one kernel call (3 table passes over a share)."""
    codec = RSCodec(CodingConfig(3, 5))
    value = _data(size)
    shares = codec.encode(value)[missing:missing + 3]
    assert _run(benchmark, size, codec.decode, shares) == value


def test_encode_single_share(benchmark):
    codec = RSCodec(CodingConfig(3, 5))
    data = _data(1 << 20)
    share = _run(benchmark, 1 << 20, codec.encode_share, data, 4)
    assert len(share.data) == codec.config.share_size(len(data))


def test_gf256_lincomb_kernel(benchmark):
    """One output row from three 1 MiB rows, one of each kind of term:
    a table pass, a plain XOR (c == 1), another table pass."""
    rows = [_data(1 << 20)] * 3
    out = _run(benchmark, 3 << 20, gf256.lincomb, [7, 1, 200], rows)
    assert len(out) == 1 << 20
