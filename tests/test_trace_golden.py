"""Golden fingerprints of trace production (synthesis + simulation).

These digests pin the exact masking traces and pipeline statistics the
simulator produced before trace production went columnar. Any change to
the synthesizer's RNG draw order, the pipeline's scheduling decisions
or the mask construction changes a digest, so a rewrite that keeps them
green is byte-identical by construction.

Each digest is a SHA-256 over every mask's float64 bytes (in component
order) plus the ``PipelineStats`` fields as sorted-key JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.microarch import MachineConfig, simulate
from repro.workloads import spec_benchmark, spec_benchmarks, synthesize_trace

#: All 21 SPEC profiles at a short window, seed 0.
GOLDEN_4K = {
    "gzip": "2228662d7e2e84daf28cc717171ce6e1f907cda5c9f1ec6ab852fd7650901433",
    "vpr": "172a8b77d92c28f2fe5408505fbc37ad077a823206b15fcab34165490b8d33ff",
    "gcc": "f95b5173e06fde3cb31f0c2025537e3a80ab9638cc9b61595d5a8464c4b89db3",
    "mcf": "2c5d45f9944a77b297322047811ec527044eb8a5af9281d60a33195cd13bf176",
    "crafty": "d50222687af95485a37692454f9255ca81dfaca10ac9a53cef778241923869f5",
    "parser": "fc52c3fbf9146522d2363ba2245000ee94193e17b8cbad314f47c75e53bd65b1",
    "perlbmk": "0b25533663a352490e0d92f8b3d1bced9cd474d86a0ac4598fdb14e0cd680c04",
    "vortex": "606c04aa478c51a711395dbcbefcc766821a1704710616052eac5216360e4c5f",
    "bzip2": "967e355bd2b5ac11189a33431195cb3d6282be22e83391d330dca7c619e33f32",
    "wupwise": "f3f75c77ad30d070cb758a738ad24c55928b04cdf7881cc2a3284b7d5caf27b8",
    "swim": "b976cc4ec20f8ca0803d7b439ce5d9048fdb4d4e470487522e3443ac48384dc7",
    "mgrid": "7a7bc3973502beb54e50c39265f8e57115f6b025a6849a2fcb2b9ab52532ba66",
    "applu": "bfb8f67660636c5a16726b6f0bd88130ba2b3039fe60218761542e7e6fbe48e8",
    "mesa": "47ea50676827706bfd174d437ab5a6bda4e62fceea52bc56e43a7d2244716ceb",
    "galgel": "b37d44dd06a4c185aaf12c4273644ecc4c0959ccb3329b7a7fd8eaf3f3106805",
    "art": "519aaf9d14abac0c517484f1caafe4c1a582216a140c543ec3a9e55fbd183b29",
    "equake": "074ab7c4698cc82c81e0b7c32a60a594021f953e781424c7dcb417e0b8391948",
    "facerec": "00240014db615d77421d1f282117c7f41827ee1f7234ccd8234c64de2ee4c5cf",
    "ammp": "1501a863bc12786f4be3626c5cea3a609e8fd641bbabf84ae21ffc9933ee0c57",
    "lucas": "6121e6af676c97e3065e5ed01af5ca4a1dc173a94c6de4a6460a16d5dd1b3f02",
    "apsi": "61cced30264e67d9f2eb0822f1c3953c9607588138c9bd7f6695c1bff300922a",
}

#: The default 40k-instruction window for the three ``--all`` benchmarks.
GOLDEN_40K = {
    "gzip": "cf7d07a7b7210189796ee93554816989a75ef0e874674fc0e73257d30aa4486f",
    "mcf": "6b8ac15835bd4a679529fe3a66a7174f8f7884ade1f984e27aa458d031c8e1e9",
    "swim": "5be6e5522db7856fdb0776b2626a4577221ce3e324c708ffb0edbfb32bfc6489",
}


def trace_digest(benchmark: str, n_instructions: int, seed: int = 0) -> str:
    trace = synthesize_trace(spec_benchmark(benchmark), n_instructions, seed=seed)
    result = simulate(trace, MachineConfig.power4_like(), workload=benchmark)
    digest = hashlib.sha256()
    masking = result.masking_trace
    for name in masking.component_names:
        digest.update(name.encode())
        digest.update(masking.mask(name).tobytes())
    stats = dataclasses.asdict(result.stats)
    digest.update(json.dumps(stats, sort_keys=True).encode())
    return digest.hexdigest()


def test_all_benchmarks_pinned():
    assert sorted(GOLDEN_4K) == sorted(spec_benchmarks())


@pytest.mark.parametrize("name", sorted(GOLDEN_4K))
def test_short_window_digest(name):
    assert trace_digest(name, 4_000) == GOLDEN_4K[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_40K))
def test_default_window_digest(name):
    assert trace_digest(name, 40_000) == GOLDEN_40K[name]
