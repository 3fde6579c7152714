"""Declarative serving configuration: :class:`ServeSpec`.

A :class:`ServeSpec` is to the serving layer what
:class:`~repro.api.spec.BuildSpec` is to the build layer: a frozen value
object naming *what* preprocessed product backs the oracle (``product`` ×
``method`` + the paper parameters), *which* oracle backend answers queries
on it (``backend``), and how the query engine is configured
(``cache_sources`` for the per-source LRU memo, ``workers`` for sharded
batch execution).

``repro.serve.load(graph, spec)`` turns a spec into a live
:class:`~repro.serve.engine.QueryEngine`; because the spec is pure data,
serving scenarios (the E15 experiment, the ``bench-serve`` CLI, the load
harness) are config literals rather than bespoke wiring.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.api.spec import METHODS, PRODUCTS, BuildSpec
from repro.core.parameters import ultra_sparse_kappa

__all__ = ["ServeSpec"]


@dataclass(frozen=True, eq=True)
class ServeSpec:
    """Configuration of one serving stack (oracle backend + query engine).

    Parameters
    ----------
    product, method, eps, kappa, rho, seed:
        The preprocessing run backing the oracle, with exactly the
        semantics of the same-named :class:`~repro.api.spec.BuildSpec`
        fields.  The ``exact`` backend ignores them (it never builds).
    backend:
        Name of the oracle backend in the serve registry
        (:mod:`repro.serve.registry`).  ``None`` selects the backend named
        after ``product`` — the natural pairing (an emulator is queried by
        Dijkstra on the emulator, a hopset by hop-limited Bellman–Ford on
        ``G ∪ H``, ...).
    cache_sources:
        Bound on the query engine's per-source LRU memo (>= 1).  Each memo
        entry is one single-source distance map: for the emulator, spanner
        and exact backends a float64 row of ``8 * n`` bytes, so the memo
        holds at most ``8 * n * cache_sources`` bytes of distances.
    workers:
        Default number of worker processes for
        :meth:`~repro.serve.engine.QueryEngine.query_batch`; ``1`` answers
        in-process.
    options:
        Backend-specific extras (e.g. ``{"hopbound": 8}`` to override the
        hopset backend's a-priori hop budget).  Must be a mapping with
        string keys.
    live:
        Serve a *mutating* graph: ``repro.serve.load`` returns a
        :class:`~repro.serve.live.LiveEngine` (versioned oracles with
        atomic hot swap) instead of a plain
        :class:`~repro.serve.engine.QueryEngine`.
    live_rebuild_after:
        Staleness threshold for *periodic* rebuilds in live mode: once the
        serving version lags the graph by this many mutations, a rebuild
        is triggered even if no mutation invalidated the guarantee.
        ``None`` (the default) rebuilds only when forced.
    live_repair:
        Enable the phase-local incremental-repair fast path for
        intra-cluster edge insertions in live mode (on by default).
    live_sync:
        Rebuild inline inside :meth:`~repro.serve.live.LiveEngine.apply`
        instead of on the background thread — deterministic, at the cost
        of blocking the mutator.
    """

    product: str = "emulator"
    method: str = "centralized"
    eps: Optional[float] = None
    kappa: Optional[float] = None
    rho: Optional[float] = None
    seed: int = 0
    backend: Optional[str] = None
    cache_sources: int = 256
    workers: int = 1
    live: bool = False
    live_rebuild_after: Optional[int] = None
    live_repair: bool = True
    live_sync: bool = False
    options: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.product not in PRODUCTS:
            raise ValueError(
                f"unknown product {self.product!r}; valid products: {', '.join(PRODUCTS)}"
            )
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; valid methods: {', '.join(METHODS)}"
            )
        if not isinstance(self.cache_sources, int) or self.cache_sources < 1:
            raise ValueError(f"cache_sources must be a positive int, got {self.cache_sources!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive int, got {self.workers!r}")
        if self.live_rebuild_after is not None and (
            not isinstance(self.live_rebuild_after, int)
            or isinstance(self.live_rebuild_after, bool)
            or self.live_rebuild_after < 1
        ):
            raise ValueError(
                "live_rebuild_after must be a positive int or None, "
                f"got {self.live_rebuild_after!r}"
            )
        if self.live and self.resolved_backend == "remote":
            raise ValueError(
                "live mode wraps a local build loop; point RemoteOracle.mutate "
                "at a live daemon instead of serving backend='remote' live"
            )
        if not isinstance(self.options, Mapping):
            raise ValueError("options must be a mapping")
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------
    @classmethod
    def ultra_sparse(
        cls,
        num_vertices: int,
        *,
        eps: float = 0.1,
        kappa: Optional[float] = None,
        **overrides: Any,
    ) -> "ServeSpec":
        """The historical ultra-sparse emulator serving stack.

        The repo-wide legacy oracle default: a centralized emulator build
        with the ultra-sparse kappa derived from the graph size (the
        ``max(2, n)`` guard keeps trivial graphs valid).  An explicit
        ``kappa`` wins; further keyword arguments set any other spec
        field (``seed``, ``cache_sources``, ...).
        """
        if kappa is None:
            kappa = ultra_sparse_kappa(max(2, num_vertices))
        return cls(
            product="emulator", method="centralized", eps=eps, kappa=kappa, **overrides
        )

    @property
    def resolved_backend(self) -> str:
        """The oracle backend name this spec selects (default: ``product``)."""
        return self.backend if self.backend is not None else self.product

    @property
    def effective_product(self) -> Optional[str]:
        """The product the resolved backend actually builds.

        The product-named backends each build their own product regardless
        of ``product``; custom backends fall back to ``product``; the
        ``exact`` backend builds nothing and yields ``None``.
        """
        backend = self.resolved_backend
        if backend == "exact":
            return None
        return backend if backend in PRODUCTS else self.product

    def build_spec(self) -> BuildSpec:
        """The :class:`BuildSpec` of the preprocessing run backing the oracle."""
        return BuildSpec(
            product=self.product,
            method=self.method,
            eps=self.eps,
            kappa=self.kappa,
            rho=self.rho,
            seed=self.seed,
        )

    def replace(self, **changes: Any) -> "ServeSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``emulator via emulator/fast``.

        Names the *effective* backing build: the product-named backends
        each build their own product regardless of ``product``, and the
        ``exact`` backend builds nothing at all.
        """
        backend = self.resolved_backend
        if backend == "exact":
            return "exact (no preprocessing build)" + (" [live]" if self.live else "")
        params = []
        for name in ("eps", "kappa", "rho"):
            value = getattr(self, name)
            if value is not None:
                params.append(f"{name}={value:g}")
        suffix = f"({', '.join(params)})" if params else ""
        live = " [live]" if self.live else ""
        return f"{backend} via {self.effective_product}/{self.method}{suffix}{live}"
