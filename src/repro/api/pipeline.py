"""Config-driven scenario sweeps over the facade.

A :class:`GridSweep` describes a product × method × parameter grid as pure
data; :func:`run_sweep` expands it into :class:`BuildSpec` instances —
skipping (product, method) pairs with no registered builder so that broad
grids sweep exactly the supported surface, but raising ``KeyError`` when
the whole grid matches nothing — and runs every spec on every graph
through :func:`repro.api.facade.build`.  Each run yields a flat
:class:`SweepRecord` ready for tabulation, so a new experiment is a config
literal instead of a bespoke module::

    sweep = GridSweep(products=("emulator", "spanner"),
                      methods=("centralized",),
                      eps_values=(0.1, 0.05),
                      kappas=(4.0,))
    records = run_sweep({"grid": grid_graph}, sweep)
    print(format_sweep_table(records))

Because the unit of work is a pure ``(graph name, BuildSpec)`` pair,
:func:`run_sweep` delegates execution to the sharded, cached engine in
:mod:`repro.api.executor`: ``workers=`` shards the grid across a process
pool, ``cache=`` memoizes results content-addressed on
``(graph hash, spec, code version)``, and ``verify=`` batch-verifies all
results per graph against shared BFS baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.api.cache import ResultCache
from repro.api.executor import execute_sweep
from repro.api.registry import available_builders, is_supported
from repro.api.result import BuildResultAdapter
from repro.api.spec import METHODS, PRODUCTS, BuildSpec
from repro.graphs.graph import Graph

__all__ = ["GridSweep", "SweepRecord", "run_sweep", "format_sweep_table"]


@dataclass(frozen=True)
class GridSweep:
    """A product × method × parameter grid, as pure configuration.

    ``None`` in a parameter tuple means "builder default" (the spec field
    stays unset).  Combinations without a registered builder are skipped
    when ``skip_unsupported`` is true (the default), so e.g.
    ``products=PRODUCTS, methods=METHODS`` sweeps exactly the supported
    surface.
    """

    products: Tuple[str, ...] = PRODUCTS
    methods: Tuple[str, ...] = METHODS
    eps_values: Tuple[Optional[float], ...] = (None,)
    kappas: Tuple[Optional[float], ...] = (None,)
    rhos: Tuple[Optional[float], ...] = (None,)
    seed: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)
    skip_unsupported: bool = True

    def specs(self) -> Iterator[BuildSpec]:
        """Expand the grid into :class:`BuildSpec` instances."""
        for product in self.products:
            for method in self.methods:
                if self.skip_unsupported and not is_supported(product, method):
                    continue
                for eps in self.eps_values:
                    for kappa in self.kappas:
                        for rho in self.rhos:
                            yield BuildSpec(
                                product=product,
                                method=method,
                                eps=eps,
                                kappa=kappa,
                                rho=rho,
                                seed=self.seed,
                                options=dict(self.options),
                            )

    def __len__(self) -> int:
        return sum(1 for _ in self.specs())


@dataclass(frozen=True)
class SweepRecord:
    """One (graph, spec) build outcome of a sweep.

    ``stats`` carries execution provenance: ``worker`` (pid of the
    process that built the result, ``None`` for cache hits), ``elapsed``
    (the build's wall-clock seconds), ``retries`` (how many times the
    task's build was retried before succeeding), and — only when the
    sweep ran with a cache — ``cache_hit`` (whether the result came out
    of the content-addressed cache).

    A sweep run with ``on_error="quarantine"`` records a task whose
    build kept failing past its retry budget as ``result=None`` with the
    error string in ``stats["error"]`` — the rest of the sweep completes
    normally (see :func:`repro.api.executor.execute_sweep`).
    """

    graph_name: str
    spec: BuildSpec
    result: Optional[BuildResultAdapter]
    verified: Optional[bool] = None
    stats: Mapping[str, Any] = field(default_factory=dict)

    @property
    def cache_hit(self) -> bool:
        """Whether this record was served from the result cache."""
        return bool(self.stats.get("cache_hit"))

    @property
    def quarantined(self) -> bool:
        """Whether this task's build kept failing and was quarantined."""
        return self.result is None

    @property
    def row(self) -> List[Any]:
        """The record as a flat table row."""
        if self.result is None:
            return [
                self.graph_name, self.spec.product, self.spec.method,
                "-", "-", "-", "-", "-", "QUARANTINED",
            ]
        return [
            self.graph_name,
            self.spec.product,
            self.spec.method,
            self.result.size,
            self.result.size_bound,
            self.result.alpha,
            self.result.beta,
            self.result.elapsed,
            "-" if self.verified is None else str(self.verified),
        ]


def run_sweep(
    graphs: Union[Graph, Mapping[str, Graph], Iterable[Tuple[str, Graph]]],
    sweep: GridSweep,
    *,
    verify_pairs: Optional[int] = None,
    workers: Union[int, str, None] = 1,
    cache: Union[None, bool, str, ResultCache] = None,
    verify: Union[None, bool, int] = None,
    task_retries: int = 1,
    on_error: str = "raise",
    dist: Union[None, bool, str, Mapping[str, Any], Any] = None,
) -> List[SweepRecord]:
    """Run every spec of ``sweep`` on every graph; return flat records.

    Execution is delegated to :func:`repro.api.executor.execute_sweep`;
    records come back in deterministic grid order (graphs outer, specs
    inner) regardless of ``workers``.

    Parameters
    ----------
    graphs:
        A single graph, a ``{name: graph}`` mapping, or an iterable of
        ``(name, graph)`` pairs.
    sweep:
        The grid to expand.
    verify_pairs:
        When given, each result is verified on that many sampled pairs and
        the outcome recorded in :attr:`SweepRecord.verified`.  (Kept for
        backward compatibility; ``verify=`` is the general form.)
    workers:
        Number of worker processes to shard the grid across; ``1`` (the
        default) runs serially in-process, ``None`` uses every CPU.
        ``"dist"`` / ``"dist:HOST:PORT"`` selects the fault-tolerant
        distributed executor (:mod:`repro.dist`) instead of the
        process pool.
    cache:
        Content-addressed result cache: ``None``/``False`` disables,
        ``True`` uses the default directory, a path selects a directory,
        or pass a :class:`~repro.api.cache.ResultCache`.
    verify:
        ``None``/``False`` skips verification, an ``int`` checks that many
        sampled pairs, ``True`` checks every pair.  Overrides
        ``verify_pairs`` when both are given.
    task_retries:
        How many times one task's failed build is retried (in the same
        process) before the failure is final; retry counts land in each
        record's ``stats["retries"]``.
    on_error:
        ``"raise"`` (default) re-raises a task's final failure;
        ``"quarantine"`` records it (``result=None``,
        ``stats["error"]``) and lets every other task finish.
    dist:
        Distributed-executor knobs (host/port, local workers, lease
        TTL, attempt cap, journal path); any truthy value engages
        :mod:`repro.dist`.  See
        :func:`repro.api.executor.execute_sweep`.
    """
    specs = list(sweep.specs())
    if not specs:
        combos = ", ".join(f"{p}/{m}" for p, m in available_builders())
        raise KeyError(
            f"sweep matches no supported (product, method) combination; "
            f"supported combinations: {combos}"
        )
    if verify is None and verify_pairs is not None:
        verify = verify_pairs
    return execute_sweep(graphs, specs, workers=workers, cache=cache, verify=verify,
                         task_retries=task_retries, on_error=on_error, dist=dist)


def format_sweep_table(records: List[SweepRecord], title: str = "scenario sweep") -> str:
    """Render sweep records with the shared table formatter.

    When the records carry execution stats (they always do when produced
    by :func:`run_sweep`), a summary line of cache hits / misses and the
    total build time is appended under the table.
    """
    from repro.analysis.reporting import format_table

    table = format_table(
        ["graph", "product", "method", "edges", "bound", "alpha", "beta", "seconds", "ok"],
        [record.row for record in records],
        title=title,
    )
    with_stats = [record for record in records if record.stats]
    if with_stats:
        # Cache hits carry the *recorded* elapsed of the original build;
        # only time actually spent building in this run is summed.
        elapsed = sum(
            record.result.elapsed for record in records
            if record.result is not None and not record.cache_hit
        )
        summary = f"total build time: {elapsed:.3f}s"
        # Hit/miss counts are only meaningful for records that actually
        # consulted a cache (the executor omits cache_hit otherwise).
        cache_aware = [record for record in with_stats if "cache_hit" in record.stats]
        if cache_aware:
            hits = sum(1 for record in cache_aware if record.cache_hit)
            summary = (
                f"cache: {hits} hit(s), {len(cache_aware) - hits} miss(es) | " + summary
            )
        table += "\n" + summary
    return table
