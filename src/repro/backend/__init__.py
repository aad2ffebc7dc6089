"""Pluggable execution backends behind a CLUDA-style API.

Everything in SigmaVP that actually *executes* functional kernel work —
allocations, H2D/D2H copies, launches — routes through one
:class:`ExecutionBackend` seam (the shape reikna's CLUDA gives CUDA and
OpenCL).  Backends are name-keyed plugins: ``numpy`` (the default) is
the reference per-launch path, and ``cupy`` runs on a real host GPU
when cupy is installed.  Select with ``--backend`` / ``REPRO_BACKEND`` / ``backend=``
on the scenario entry points; list with ``repro backends``.
"""

from .api import BackendUnavailableError, ExecutionBackend
from .config import BackendConfig
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND_NAME,
    available_backends,
    backend_from_config,
    backend_from_env,
    backend_scope,
    backend_status,
    default_backend,
    default_backend_name,
    make_backend,
    register_backend,
    set_default_backend,
)

# Importing the modules registers the built-in backends.
from .cupy_backend import CupyBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND_NAME",
    "BackendConfig",
    "BackendUnavailableError",
    "CupyBackend",
    "ExecutionBackend",
    "NumpyBackend",
    "available_backends",
    "backend_from_config",
    "backend_from_env",
    "backend_scope",
    "backend_status",
    "default_backend",
    "default_backend_name",
    "make_backend",
    "register_backend",
    "set_default_backend",
]
