"""Functional execution of coalesced kernels.

A coalesced launch merges N identical kernels into one host job; its
functional effect is N backend launches, one per member, each over that
member's own read-only device views.  The contract is strict
bit-identity: every registered kernel reproduces N independent calls
element for element and dtype for dtype, and an end-to-end run computes
the same arrays with coalescing on or off.
"""

import numpy as np
import pytest

from repro.backend import make_backend
from repro.core.scenarios import run_sigma_vp
from repro.kernels.functional import REGISTRY
from repro.workloads import SUITE, get_workload

N_MEMBERS = 3

#: Registered signatures with no catalog workload; inputs supplied here.
EXTRA_INPUTS = {
    "saxpy": lambda seed: tuple(
        np.random.default_rng(seed + p).standard_normal(256).astype(np.float32)
        for p in range(2)
    ),
}

#: Kernels that reshape to a fixed frame and so run at catalog size.
FIXED_SHAPE = {"stereoDisparity"}


def _member_inputs(signature):
    """N members' worth of realistic inputs plus the kernel's params."""
    extra = EXTRA_INPUTS.get(signature)
    if extra is not None:
        return [extra(seed) for seed in range(N_MEMBERS)], {}
    for name in sorted(SUITE):
        spec = SUITE[name]
        if spec.kernel.signature == signature:
            elements = spec.elements if signature in FIXED_SHAPE else 4096
            small = spec.scaled_to(min(spec.elements, elements), iterations=1)
            members = [
                tuple(small.build_inputs(seed=seed)) for seed in range(N_MEMBERS)
            ]
            return members, dict(small.params)
    pytest.fail(f"no input source for registered kernel {signature!r}")


@pytest.mark.parametrize("signature", REGISTRY.signatures())
def test_every_registered_kernel_batches_or_is_excluded(signature):
    """Every registered kernel serves a coalesced batch; none is excluded.

    Each member runs as its own launch over zero-copy read-only views,
    the way the dispatcher applies a merged job, so each output must
    equal an independent direct call bit for bit — and a kernel that
    mutated its inputs would fail here with a read-only ``ValueError``.
    """
    fn = REGISTRY.require(signature)
    members, params = _member_inputs(signature)
    expected = [fn(*inputs, **params) for inputs in members]
    backend = make_backend("numpy")
    rows = [
        backend.d2h(
            backend.launch(signature, [backend.h2d(a) for a in inputs], params)
        )
        for inputs in members
    ]
    assert len(rows) == N_MEMBERS
    for row, reference in zip(rows, expected):
        assert row.dtype == reference.dtype
        assert row.shape == reference.shape
        np.testing.assert_array_equal(row, reference)


def _vp_outputs(result):
    """Every VP's functional output, in VP order."""
    framework = result.extras["framework"]
    return [
        process.value
        for name in sorted(framework.sessions)
        for process in framework.session(name).processes
    ]


@pytest.mark.parametrize(
    "app", ["vectorAdd", "BlackScholes", "mergeSort", "physxParticles"]
)
def test_coalesced_matches_uncoalesced(app):
    spec = get_workload(app).scaled_to(2048, iterations=2)

    coalesced = run_sigma_vp(spec, n_vps=8, coalescing=True, functional=True)
    uncoalesced = run_sigma_vp(spec, n_vps=8, coalescing=False, functional=True)
    assert coalesced.extras["coalesce_stats"].merges >= 1
    assert uncoalesced.extras["coalesce_stats"] is None

    want = uncoalesced.extras["result"]
    got = coalesced.extras["result"]
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)

    pairs = list(zip(_vp_outputs(coalesced), _vp_outputs(uncoalesced)))
    assert len(pairs) == 8
    for got, want in pairs:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
