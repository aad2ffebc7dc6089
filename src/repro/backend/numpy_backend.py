"""Reference numpy execution backend.

``NumpyBackend`` is the per-launch path and the process default:
zero-copy read-only views for H2D and a direct ``fn(*inputs, **params)``
per launch.  A coalesced launch of N members is N such calls.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..kernels.functional import KernelFunction
from .api import ExecutionBackend
from .registry import register_backend


@register_backend
class NumpyBackend(ExecutionBackend):
    """Per-launch numpy execution with zero-copy read-only H2D views."""

    name = "numpy"
    description = "reference per-launch numpy execution (zero-copy views)"
    zero_copy = True

    def asarray(self, host: Any) -> np.ndarray:
        return np.asarray(host)

    def _h2d(self, host: Any) -> np.ndarray:
        # Zero-copy: the "device" array IS the host array.  The
        # read-only view makes a mutating functional kernel fail loudly
        # instead of silently corrupting data the guest still owns.
        view = np.asarray(host).view()
        view.flags.writeable = False
        return view

    def _d2h(self, device: Any) -> Any:
        return device

    def _launch(
        self, fn: KernelFunction, inputs: List[Any], params: Dict[str, Any]
    ) -> Any:
        return fn(*inputs, **params)
