"""The CLUDA-style execution-backend interface.

SigmaVP's whole point is multiplexing simulated GPU work onto a *host*
execution resource, yet functional execution used to be hard-wired to
numpy calls scattered across the kernels, device, dispatcher, and
VP-runtime layers.  :class:`ExecutionBackend` is the one seam they all
route through now — the same shape CLUDA gives reikna (one API over
CUDA and OpenCL) and the shape a physical-device bridge needs (arXiv
2505.15590): a small, capability-flagged contract a host execution
resource plugs in behind.

The contract
------------
* ``allocate`` / ``free`` — device-allocation accounting (tokens);
* ``h2d`` / ``d2h`` — host-to-device and device-to-host transfers;
* ``launch(signature, inputs, params)`` — run the functional kernel
  registered under ``signature`` once; a coalesced launch of N members
  is N of these calls (the dispatcher applies one per member);
* ``synchronize`` — drain asynchronous device work (no-op for host
  backends);
* capability flag — ``zero_copy`` (``h2d`` returns a view of the host
  array rather than a private copy).

Zero-copy safety: a zero-copy ``h2d`` MUST return a **read-only** view
(``view.flags.writeable = False``) so a functional kernel that mutates
its input fails loudly instead of silently corrupting shared host data.

Every public operation counts into the ``exec.backend_*`` observability
counters (None-guarded, so the disabled path costs one attribute read).
Backends may be registered-but-unavailable (see :class:`CupyBackend`):
``available()`` probes, ``require_available()`` raises
:class:`BackendUnavailableError` with the reason.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..kernels.functional import REGISTRY, FunctionalRegistry, KernelFunction
from ..obs import metrics as _obs_metrics


class BackendUnavailableError(RuntimeError):
    """A registered backend cannot run in this environment."""


class ExecutionBackend(abc.ABC):
    """One host execution resource behind the CLUDA-style seam.

    Subclasses implement the private ``_h2d``/``_d2h``/``_launch``
    hooks (and optionally ``_allocate``/``_free``);
    the public methods are template wrappers that enforce availability,
    keep the allocation ledger, and maintain the ``exec.backend_*``
    counters uniformly across every backend.
    """

    #: Registry key; subclasses must override with a concrete name.
    name: ClassVar[str] = "abstract"
    #: One-line description for ``repro backends``.
    description: ClassVar[str] = ""
    #: Whether ``h2d`` returns a (read-only) view of the host array.
    zero_copy: ClassVar[bool] = False

    def __init__(self, registry: Optional[FunctionalRegistry] = None) -> None:
        self.registry = REGISTRY if registry is None else registry
        #: Live allocation ledger: token -> nbytes.
        self._live: Dict[int, int] = {}
        self._next_token = 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        """Whether this backend can execute in the current environment."""
        return True

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is ``False`` (``None`` when available)."""
        return None

    def require_available(self) -> "ExecutionBackend":
        """Return ``self`` or raise :class:`BackendUnavailableError`."""
        if not self.available():
            reason = self.unavailable_reason() or "unavailable"
            raise BackendUnavailableError(
                f"execution backend {self.name!r} is unavailable: {reason}"
            )
        return self

    def capabilities(self) -> Dict[str, bool]:
        """The capability flags, JSON-ably."""
        return {
            "zero_copy": self.zero_copy,
            "available": self.available(),
        }

    # -- memory -----------------------------------------------------------

    def allocate(self, nbytes: int, owner: str = "") -> int:
        """Account one device allocation; returns an opaque token."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        self.require_available()
        token = self._next_token
        self._next_token += 1
        self._allocate(token, int(nbytes), owner)
        self._live[token] = int(nbytes)
        self._count("allocs")
        return token

    def free(self, token: int) -> None:
        """Release a token from :meth:`allocate`."""
        try:
            nbytes = self._live.pop(token)
        except KeyError:
            raise RuntimeError(
                f"backend {self.name!r}: unknown or double-freed "
                f"allocation token {token!r}"
            ) from None
        self._free(token, nbytes)
        self._count("frees")

    @property
    def live_bytes(self) -> int:
        """Bytes currently accounted as allocated on this backend."""
        return sum(self._live.values())

    # -- data movement ----------------------------------------------------

    def asarray(self, host: Any) -> Any:
        """Canonicalize host-side data (the ``np.asarray`` of this seam).

        Stays a *host* array: runtimes use it to size transfers before
        the device copy happens.
        """
        raise NotImplementedError

    def h2d(self, host: Any) -> Any:
        """Transfer host data to the device; returns the device array.

        Zero-copy backends return a read-only view of the host array —
        the cleared writeable flag turns any in-place mutation by a
        functional kernel into a loud ``ValueError``.
        """
        self.require_available()
        device = self._h2d(host)
        self._count("h2d")
        return device

    def d2h(self, device: Any) -> Any:
        """Transfer a device array back to the host (``None`` passes)."""
        if device is None:
            return None
        self.require_available()
        host = self._d2h(device)
        self._count("d2h")
        return host

    # -- execution --------------------------------------------------------

    def launch(
        self,
        signature: str,
        inputs: Sequence[Any],
        params: Optional[Dict[str, Any]] = None,
    ) -> Optional[Any]:
        """Run the functional kernel registered under ``signature``.

        Returns the output device array, or ``None`` when no functional
        implementation is registered (timing-only runs) — the callers'
        long-standing skip semantics.
        """
        fn = self.registry.get(signature)
        if fn is None:
            return None
        self.require_available()
        out = self._launch(fn, list(inputs), dict(params or {}))
        self._count("launches")
        return out

    # Kept only because the benchmark's traced run wraps it by name.
    def launch_batched(
        self,
        signature: str,
        inputs_list: Sequence[Tuple[Any, ...]],
        params: Optional[Dict[str, Any]] = None,
    ) -> List[Optional[Any]]:
        """Run N member calls, one :meth:`launch` each."""
        return [self.launch(signature, inputs, params) for inputs in inputs_list]

    def synchronize(self) -> None:
        """Drain outstanding device work (host backends: no-op)."""
        return None

    # -- subclass hooks ---------------------------------------------------

    def _allocate(self, token: int, nbytes: int, owner: str) -> None:
        """Backend-specific allocation effect (default: ledger only)."""

    def _free(self, token: int, nbytes: int) -> None:
        """Backend-specific release effect (default: ledger only)."""

    @abc.abstractmethod
    def _h2d(self, host: Any) -> Any:
        """Produce the device-side array for ``host``."""

    @abc.abstractmethod
    def _d2h(self, device: Any) -> Any:
        """Produce the host-side array for ``device``."""

    @abc.abstractmethod
    def _launch(
        self, fn: KernelFunction, inputs: List[Any], params: Dict[str, Any]
    ) -> Any:
        """Apply one registered kernel function to device inputs."""

    # -- observability ----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.counter(f"exec.backend_{name}").inc(amount)
