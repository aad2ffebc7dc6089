"""Financial workloads: BlackScholes and MonteCarlo.

BlackScholes is the paper's best case: 2045x speedup from plain GPU
multiplexing and 6304x with both optimizations (Section 5).  Its kernel
is almost pure FP32 transcendental arithmetic, which makes the software
emulation baseline catastrophically slow (softfloat) while the GPU eats
it — exactly the regime where SigmaVP shines.

MonteCarlo is FP-heavy too, but the paper groups it with the apps whose
file I/O limits the speedup and whose kernels resist the two
optimizations ("due to the way they access and manage the memory").
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import functional_kernel
from ..kernels.ir import MemoryFootprint, uniform_kernel
from .base import WorkloadSpec

_BS_OPTIONS = 4_000_000

BLACK_SCHOLES = WorkloadSpec(
    name="BlackScholes",
    kernel=uniform_kernel(
        "BlackScholes",
        # Per option: d1/d2, two CND evaluations (exp, polynomial) -- a
        # long straight-line FP32 sequence with trivial memory traffic.
        {"fp32": 140, "load": 3, "store": 2, "int": 8, "branch": 4, "bit": 2},
        MemoryFootprint(
            bytes_in=3 * _BS_OPTIONS * 4,
            bytes_out=2 * _BS_OPTIONS * 4,
            working_set_bytes=5 * _BS_OPTIONS * 4,
            locality=0.05,
            coalesced_fraction=1.0,
        ),
        signature="BlackScholes",
    ),
    elements=_BS_OPTIONS,
    input_arrays=3,  # spot, strike, expiry
    element_bytes=4,
    block_size=256,
    iterations=16,
    streaming=False,
    readback_only=True,  # each iteration's prices return to the guest
    sync_every=16,
    c_ops=_BS_OPTIONS * 180.0 * 16,
    params={"riskfree": 0.02, "volatility": 0.30},
    input_factory=lambda rng, i, spec: (
        rng.uniform(5.0, 30.0, spec.elements).astype(np.float32)
        if i == 0
        else rng.uniform(1.0, 100.0, spec.elements).astype(np.float32)
        if i == 1
        else rng.uniform(0.25, 10.0, spec.elements).astype(np.float32)
    ),
    description="Black-Scholes option pricing: FP32-saturated, best case",
)


_MC_PATHS = 1_048_576

MONTE_CARLO = WorkloadSpec(
    name="MonteCarlo",
    kernel=uniform_kernel(
        "MonteCarlo",
        # Path simulation: RNG (bit/int mix) + FP32 path updates, with a
        # scattered per-path state layout that defeats coalescing.
        {"fp32": 60, "bit": 18, "int": 14, "load": 8, "store": 4, "branch": 6},
        MemoryFootprint(
            bytes_in=_MC_PATHS * 4,
            bytes_out=_MC_PATHS * 4,
            working_set_bytes=96 * 1024,
            locality=0.8,
            coalesced_fraction=0.45,
        ),
        signature="MonteCarlo",
        coalescible=False,  # per-VP RNG state tables cannot be merged
    ),
    elements=_MC_PATHS,
    input_arrays=1,
    element_bytes=4,
    block_size=256,
    iterations=20,
    streaming=False,
    sync_every=20,
    # Reads option batches from input files, writes results back.
    noncuda_ops=6.0e7,
    c_ops=_MC_PATHS * 110.0 * 20,
    params={"strike": 25.0, "riskfree": 0.02},
    description="Monte Carlo option pricing: FP-heavy but file-I/O bound",
)


# -- functional implementations --------------------------------------------------


def _cnd(d: np.ndarray) -> np.ndarray:
    """Cumulative normal distribution, Abramowitz-Stegun polynomial.

    The same approximation the CUDA SDK sample uses, so results can be
    compared against a reference numpy implementation bit-for-bit in
    float32.
    """
    a1, a2, a3, a4, a5 = (
        0.31938153,
        -0.356563782,
        1.781477937,
        -1.821255978,
        1.330274429,
    )
    k = 1.0 / (1.0 + 0.2316419 * np.abs(d))
    poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))))
    cnd = 1.0 - 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * d * d) * poly
    return np.where(d < 0, 1.0 - cnd, cnd)


@functional_kernel("BlackScholes")
def black_scholes_fn(
    spot: np.ndarray,
    strike: np.ndarray,
    years: np.ndarray,
    riskfree: float = 0.02,
    volatility: float = 0.30,
) -> np.ndarray:
    """European call prices (the SDK sample's call output)."""
    sqrt_t = np.sqrt(years)
    d1 = (
        np.log(spot / strike) + (riskfree + 0.5 * volatility**2) * years
    ) / (volatility * sqrt_t)
    d2 = d1 - volatility * sqrt_t
    discount = np.exp(-riskfree * years)
    return spot * _cnd(d1) - strike * discount * _cnd(d2)


@functional_kernel("MonteCarlo")
def monte_carlo_fn(
    seeds: np.ndarray, strike: float = 25.0, riskfree: float = 0.02
) -> np.ndarray:
    """Deterministic per-path payoff from the seed array (reference)."""
    rng = np.random.default_rng(12345)
    noise = rng.standard_normal(seeds.shape).astype(seeds.dtype)
    terminal = np.abs(seeds) * np.exp(riskfree - 0.5 + noise)
    return np.maximum(terminal - strike, 0.0)
