"""Host-GPU execution via cupy — registered even when cupy is absent.

This is the backend that reopens the paper's actual host-GPU
multiplexing path: functional kernels run on a real CUDA device through
cupy's numpy-compatible namespace.  cupy is an *optional* dependency, so
the import is deferred to first use; without it the backend stays
registered (``repro backends`` lists it) but reports
``available() == False`` and every operation raises
:class:`~repro.backend.api.BackendUnavailableError` with the reason.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, List, Optional

import numpy as np

from ..kernels.functional import FunctionalRegistry, KernelFunction
from .api import ExecutionBackend
from .registry import register_backend


@register_backend
class CupyBackend(ExecutionBackend):
    """Execute functional kernels on the host GPU through cupy."""

    name = "cupy"
    description = "host-GPU execution via cupy (optional dependency)"
    zero_copy = False

    def __init__(self, registry: Optional[FunctionalRegistry] = None) -> None:
        super().__init__(registry)
        self._cupy: Any = None

    def _module(self) -> Any:
        if self._cupy is None:
            self.require_available()
            import cupy  # deferred: optional dependency

            self._cupy = cupy
        return self._cupy

    def available(self) -> bool:
        if self._cupy is not None:
            return True
        return importlib.util.find_spec("cupy") is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None
        return "the 'cupy' package is not installed"

    def asarray(self, host: Any) -> np.ndarray:
        # Host-side canonicalization stays numpy: runtimes size the
        # modelled transfer from it *before* the device copy happens.
        return np.asarray(host)

    def _to_device(self, value: Any) -> Any:
        cp = self._module()
        if isinstance(value, np.ndarray):
            return cp.asarray(value)
        return value

    def _h2d(self, host: Any) -> Any:
        return self._to_device(np.asarray(host))

    def _d2h(self, device: Any) -> Any:
        cp = self._module()
        if isinstance(device, cp.ndarray):
            return cp.asnumpy(device)
        return device

    def _launch(
        self, fn: KernelFunction, inputs: List[Any], params: Dict[str, Any]
    ) -> Any:
        moved = [self._to_device(value) for value in inputs]
        return fn(*moved, **params)

    def synchronize(self) -> None:
        if self._cupy is not None:
            self._cupy.cuda.Stream.null.synchronize()
