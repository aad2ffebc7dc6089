"""Cross-backend conformance: every backend computes the same thing.

Property-based, reikna ``test_cluda_basics`` style: every *available*
registered execution backend, over the reference kernel suite, across
random dtypes and shapes, must produce outputs bit-identical to a direct
call of the registered numpy implementation — and ``launch_batched``
must return exactly the per-launch outputs, row for row.  The capstone
is digest interchangeability: a pinned scenario simulated under
``backend_scope`` of every available backend produces byte-identical
summaries.

Comparisons use ``np.array_equal`` / ``tobytes()``, never ``approx``:
scenario digests are pinned on exact float results, so approximate
equality would hide exactly the bugs this suite exists to catch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    available_backends,
    backend_scope,
    make_backend,
)
from repro.exec.farm import FarmJob, ScenarioFarm, results_digest
from repro.kernels.functional import REGISTRY

#: (name, backend) for every backend usable in this environment — the
#: conformance property is universally quantified over this list (cupy
#: joins automatically wherever the package exists).
AVAILABLE = [
    (name, make_backend(name))
    for name, _ in available_backends()
    if make_backend(name).available()
]

DTYPES = (np.float32, np.float64, np.int32, np.int64)


def _ids(pairs):
    return [name for name, _ in pairs]


def arrays(data, shape, dtype):
    """A deterministic-per-example random array of ``shape``/``dtype``."""
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-1000, 1000, size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


@pytest.mark.parametrize(("name", "backend"), AVAILABLE, ids=_ids(AVAILABLE))
class TestLaunchConformance:
    """backend.launch == the registered implementation, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_vector_add(self, name, backend, data):
        dtype = data.draw(st.sampled_from(DTYPES))
        n = data.draw(st.integers(min_value=1, max_value=512))
        a, b = arrays(data, n, dtype), arrays(data, n, dtype)
        out = backend.d2h(
            backend.launch("vectorAdd", [backend.h2d(a), backend.h2d(b)])
        )
        expected = REGISTRY.require("vectorAdd")(a, b)
        assert out.dtype == expected.dtype
        assert np.asarray(out).tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_saxpy_with_params(self, name, backend, data):
        dtype = data.draw(st.sampled_from((np.float32, np.float64)))
        n = data.draw(st.integers(min_value=1, max_value=512))
        alpha = data.draw(st.floats(
            min_value=-8.0, max_value=8.0, allow_nan=False, width=32
        ))
        x, y = arrays(data, n, dtype), arrays(data, n, dtype)
        out = backend.d2h(backend.launch(
            "saxpy", [backend.h2d(x), backend.h2d(y)], {"alpha": alpha}
        ))
        expected = REGISTRY.require("saxpy")(x, y, alpha=alpha)
        assert np.asarray(out).tobytes() == expected.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matrix_mul(self, name, backend, data):
        dtype = data.draw(st.sampled_from((np.float32, np.float64)))
        d = data.draw(st.integers(min_value=1, max_value=24))
        a, b = arrays(data, (d, d), dtype), arrays(data, (d, d), dtype)
        out = backend.d2h(
            backend.launch("matrixMul", [backend.h2d(a), backend.h2d(b)])
        )
        expected = REGISTRY.require("matrixMul")(a, b)
        assert np.asarray(out).tobytes() == expected.tobytes()


@pytest.mark.parametrize(("name", "backend"), AVAILABLE, ids=_ids(AVAILABLE))
class TestBatchedConformance:
    """launch_batched rows == per-launch outputs, one launch per member.

    Members are never stacked, so nothing a batch may hold (mixed
    shapes, mixed dtypes) is refused: every member takes the per-launch
    path the ``fall_back`` test names refer to, now the only path.
    """

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rows_match_per_launch(self, name, backend, data):
        signature = data.draw(st.sampled_from(("vectorAdd", "matrixMul")))
        dtype = data.draw(st.sampled_from(DTYPES))
        members = data.draw(st.integers(min_value=1, max_value=6))
        if signature == "matrixMul":
            d = data.draw(st.integers(min_value=1, max_value=12))
            shape = (d, d)
        else:
            shape = (data.draw(st.integers(min_value=1, max_value=128)),)
        inputs_list = [
            (arrays(data, shape, dtype), arrays(data, shape, dtype))
            for _ in range(members)
        ]
        rows = backend.launch_batched(signature, inputs_list)
        per_launch = [
            backend.d2h(backend.launch(signature, list(inputs)))
            for inputs in inputs_list
        ]
        assert len(rows) == members
        for row, expected in zip(rows, per_launch):
            host_row = np.asarray(backend.d2h(row))
            assert host_row.tobytes() == np.asarray(expected).tobytes()

    def test_empty_batch_is_fallback(self, name, backend):
        assert backend.launch_batched("vectorAdd", []) == []

    def test_single_element_batch(self, name, backend):
        a = np.arange(16, dtype=np.float32)
        rows = backend.launch_batched("vectorAdd", [(a, a)])
        assert len(rows) == 1
        assert np.asarray(backend.d2h(rows[0])).tobytes() == (a + a).tobytes()

    def test_mixed_shapes_fall_back(self, name, backend):
        small = np.ones(4, dtype=np.float32)
        large = np.ones(8, dtype=np.float32)
        rows = backend.launch_batched("vectorAdd", [(small, small), (large, large)])
        assert [np.asarray(backend.d2h(r)).shape for r in rows] == [(4,), (8,)]

    def test_mixed_dtypes_fall_back(self, name, backend):
        f32 = np.ones(4, dtype=np.float32)
        f64 = np.ones(4, dtype=np.float64)
        rows = backend.launch_batched("vectorAdd", [(f32, f32), (f64, f64)])
        assert [np.asarray(backend.d2h(r)).dtype for r in rows] == [
            np.float32, np.float64,
        ]


#: Pinned digest-interchangeability scenarios.  Functional, so the
#: backends actually execute; VP counts avoid the known pre-existing
#: 2-VP coalescer edge (broken identically on every backend).
PINNED_JOBS = [
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="conf:vectorAdd4",
            kwargs={"app": "vectorAdd", "n_vps": 4, "functional": True,
                    "scale_elements": 2048, "scale_iterations": 2}),
    FarmJob(fn="repro.exec.jobs:scenario_summary", label="conf:matrixMul4",
            kwargs={"app": "matrixMul", "n_vps": 4, "functional": True}),
]


def _digest_under(backend_name):
    from repro.caching import clear_all_caches

    clear_all_caches()
    with backend_scope(backend_name):
        results = ScenarioFarm(workers=1, warmup=False).map(PINNED_JOBS)
    return results_digest(results), [r.value for r in results]


def test_scenario_digests_interchangeable_across_backends():
    """The acceptance bar: one digest, whatever available backend ran."""
    digests = {}
    values = {}
    for name, _ in AVAILABLE:
        digests[name], values[name] = _digest_under(name)
    assert len(set(digests.values())) == 1, digests
    # The values themselves are equal too (the digest is not a collision).
    reference = values[AVAILABLE[0][0]]
    for name, _ in AVAILABLE[1:]:
        assert values[name] == reference


def test_explicit_backend_kwarg_matches_scoped_default():
    """backend= in job kwargs and backend_scope agree on results."""
    from repro.caching import clear_all_caches
    from repro.exec.jobs import scenario_summary

    kwargs = dict(PINNED_JOBS[0].kwargs)
    clear_all_caches()
    explicit = scenario_summary(backend="numpy", **kwargs)
    clear_all_caches()
    with backend_scope("numpy"):
        scoped = scenario_summary(**kwargs)
    assert explicit == scoped
