"""Content-addressed on-disk cache for facade build results.

A sweep re-runs the same ``(graph, BuildSpec)`` pairs over and over —
across repeated CLI invocations, across experiments that share workloads,
and across CI runs.  Because both halves of the unit of work are pure
values (a :class:`~repro.graphs.graph.Graph` has a canonical
:meth:`~repro.graphs.graph.Graph.content_hash`, a
:class:`~repro.api.spec.BuildSpec` is a frozen value object), the result
of a build is fully determined by

``(graph content hash, spec fingerprint, code version)``

and can be memoized on disk.  :class:`ResultCache` stores one pickled
:class:`~repro.api.result.BuildResultAdapter` per key under a cache
directory, written atomically (``os.replace``) so concurrent writers and
killed processes can never leave a torn entry behind; a corrupted or
unreadable entry is treated as a miss, evicted, and rebuilt.

The code version participates in the key so that upgrading the package
(which may change what a builder produces) invalidates every entry
without any bookkeeping.  It defaults to ``repro.__version__`` plus the
:data:`RESULT_FORMAT` number and can be overridden with the
``REPRO_CACHE_VERSION`` environment variable (useful when iterating on a
builder locally).

Specs carrying an explicit pre-built ``schedule`` object have no
canonical serialization, so they are deliberately *uncacheable*:
:func:`spec_fingerprint` returns ``None`` and the executor bypasses the
cache for them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.api.result import BuildResultAdapter
from repro.api.spec import BuildSpec
from repro.faults import FaultInjected, corrupt_bytes, fault_point
from repro.obs import inc as _obs_inc


def _count(event: str) -> None:
    """Mirror one ResultCache counter event into the obs registry."""
    _obs_inc(f"repro_sweep_cache_{event}_total",
             help=f"Sweep result-cache {event}")

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RESULT_FORMAT",
    "ResultCache",
    "code_version",
    "resolve_cache",
    "spec_fingerprint",
]

#: Directory used when a cache is requested without naming one.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Entry-file header: magic + SHA-256 of the pickled payload.  The
#: checksum turns silent on-disk rot (a flipped bit that still
#: unpickles) into a detected corruption on the next read — load-bearing
#: for the distributed executor, whose coordinator believes a delivery
#: only if the shared store reads it back.
_ENTRY_MAGIC = b"RPC1"
_DIGEST_BYTES = 32


def _frame(payload: bytes) -> bytes:
    """Wrap a pickled payload with the magic + checksum header."""
    return _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload


def _unframe(raw: bytes) -> bytes:
    """Strip and verify the entry header; raise ``ValueError`` on rot.

    Entries written before the header existed (no magic) pass through
    unchecked — their pickle parse is the only integrity check they get.
    """
    if not raw.startswith(_ENTRY_MAGIC):
        return raw
    header_end = len(_ENTRY_MAGIC) + _DIGEST_BYTES
    digest, payload = raw[len(_ENTRY_MAGIC):header_end], raw[header_end:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("cache entry checksum mismatch")
    return payload


#: Format number of what an entry holds: the pickled result and every
#: class inside it.  It is part of :func:`code_version`, so bumping it turns
#: every entry written before into a miss.  Bump it whenever a change alters
#: a builder's output or how a result pickles (2: a ``Graph`` pickles as its
#: CSR arrays).
RESULT_FORMAT = 2


def code_version() -> str:
    """The code-version component of every cache key.

    The package version plus :data:`RESULT_FORMAT`.
    ``REPRO_CACHE_VERSION`` overrides both, so local builder experiments
    can segregate (or deliberately share) entries.
    """
    override = os.environ.get("REPRO_CACHE_VERSION")
    if override:
        return override
    import repro

    return f"{getattr(repro, '__version__', '0')}+format{RESULT_FORMAT}"


class _Uncacheable(Exception):
    """An option value has no canonical serialization."""


def _canonical(value):
    """Recursively order-normalize a value for fingerprinting.

    Mappings become sorted key/value lists, sequences and sets become
    lists (sets sorted by their canonical form), and JSON scalars pass
    through.  Anything else raises :class:`_Uncacheable`: an arbitrary
    object's ``repr`` may hide the state a builder actually reads, and a
    fingerprint that collapses unequal values would serve *stale cached
    results* — so such specs are simply not cached (same policy as
    explicit schedules).
    """
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in
                sorted(value.items(), key=lambda item: repr(item[0]))]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=repr)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise _Uncacheable(f"option value {value!r} has no canonical serialization")


def spec_fingerprint(spec: BuildSpec) -> Optional[str]:
    """Canonical string fingerprint of a spec, or ``None`` if uncacheable.

    The fingerprint covers every field that influences the build output
    (product, method, eps, kappa, rho, beta, seed, options).  Option
    values are recursively order-normalized (see :func:`_canonical`) so
    neither top-level nor nested insertion order matters.  Specs with an
    explicit ``schedule``, or with option values that have no canonical
    serialization (arbitrary objects), are uncacheable.
    """
    if spec.schedule is not None:
        return None
    try:
        options = _canonical(dict(spec.options))
    except _Uncacheable:
        return None
    payload = {
        "product": spec.product,
        "method": spec.method,
        "eps": spec.eps,
        "kappa": spec.kappa,
        "rho": spec.rho,
        "beta": spec.beta,
        "seed": spec.seed,
        "options": options,
    }
    return json.dumps(payload, sort_keys=True)


class ResultCache:
    """On-disk, content-addressed store of facade build results.

    Parameters
    ----------
    directory:
        Where entries live.  Created on first use.  Entries are sharded
        into 256 two-hex-digit subdirectories to keep listings small.
    version:
        Code-version component of every key; defaults to
        :func:`code_version`.
    max_entries:
        Bound on the number of stored entries; every :meth:`put` that
        pushes the store past the bound LRU-evicts the
        least-recently-used entries (recency is the entry file's mtime,
        which :meth:`get` refreshes on every hit).  On filesystems with
        coarse mtime granularity (e.g. 1 s) entries touched within the
        same tick tie, and ties break by path string — so eviction
        order is only approximately LRU at sub-tick resolution, which
        is acceptable for a rebuildable build cache.  ``None`` (the
        default) keeps the historical unbounded behaviour.
    max_bytes:
        Bound on the total size of stored entries, enforced the same
        way.  Both bounds may be combined; eviction stops once both are
        satisfied.

    Attributes
    ----------
    hits, misses, stores, evictions:
        Lifetime counters for this cache object (not persisted).
        ``evictions`` counts both corrupt-entry evictions and LRU
        capacity evictions.
    """

    def __init__(
        self,
        directory: Union[str, Path] = DEFAULT_CACHE_DIR,
        *,
        version: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be at least 1, got {max_bytes}")
        self.directory = Path(directory)
        self.version = version if version is not None else code_version()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        # Approximate (count, bytes) of the store, maintained incrementally
        # so bounded puts stay O(1); the full directory scan happens only
        # when a bound is exceeded (and resyncs the approximation).
        self._approx_count: Optional[int] = None
        self._approx_bytes = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key(self, graph_hash: str, spec: BuildSpec) -> Optional[str]:
        """The content-addressed key for ``(graph, spec)`` under this version.

        Returns ``None`` when the spec is uncacheable (explicit schedule).
        """
        fingerprint = spec_fingerprint(spec)
        if fingerprint is None:
            return None
        material = f"{self.version}|{graph_hash}|{fingerprint}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        """Filesystem location of the entry for ``key``."""
        return self.directory / key[:2] / f"{key[2:]}.pkl"

    # ------------------------------------------------------------------
    # Store operations
    # ------------------------------------------------------------------
    def get(self, key: Optional[str]) -> Optional[BuildResultAdapter]:
        """Fetch the cached result for ``key``, or ``None`` on a miss.

        A corrupted entry (truncated pickle, wrong type, unreadable file)
        is evicted and reported as a miss — callers rebuild, never crash.

        The ``cache.read`` fault point covers the whole read path: an
        injected raise or byte corruption lands in the evict-and-rebuild
        lane exactly like real disk rot, and an injected delay models an
        I/O stall.
        """
        if key is None:
            return None
        path = self.path(key)
        try:
            fault_point("cache.read", key=key)
            with open(path, "rb") as handle:
                raw = handle.read()
            result = pickle.loads(
                _unframe(corrupt_bytes("cache.read", raw, key=key))
            )
        except FileNotFoundError:
            self.misses += 1
            _count("misses")
            return None
        except Exception:
            self._evict(path)
            self.misses += 1
            _count("misses")
            return None
        if not isinstance(result, BuildResultAdapter):
            self._evict(path)
            self.misses += 1
            _count("misses")
            return None
        self.hits += 1
        _count("hits")
        if self.max_entries is not None or self.max_bytes is not None:
            self._touch(path)
        return result

    def put(self, key: Optional[str], result: BuildResultAdapter) -> bool:
        """Store ``result`` under ``key``; returns whether it was written.

        Unpicklable results (a builder extension may attach arbitrary raw
        objects) are skipped silently — caching is an optimization, never
        a correctness requirement.  Writes go through a temporary file and
        ``os.replace`` so a concurrent reader can never observe a torn
        entry.

        The ``cache.write`` fault point models write-side disk trouble:
        an injected raise degrades to "not stored" (the return value
        callers already handle), an injected corruption rots the stored
        payload so the *next* :meth:`get` exercises eviction, a delay
        stalls the write.
        """
        if key is None:
            return False
        try:
            payload = _frame(pickle.dumps(result))
        except Exception:
            return False
        path = self.path(key)
        try:
            fault_point("cache.write", key=key)
        except FaultInjected:
            return False
        # Corruption injected *after* framing rots the checksum or the
        # payload, so the next get detects it and evicts — real bit rot's
        # failure mode, not a silently-different result.
        payload = corrupt_bytes("cache.write", payload, key=key)
        path.parent.mkdir(parents=True, exist_ok=True)
        replaced_bytes: Optional[int] = None
        if self.max_entries is not None or self.max_bytes is not None:
            # Overwrites replace an entry rather than adding one; record
            # the old size so the incremental (count, bytes) tracking
            # stays exact instead of drifting upward.
            try:
                replaced_bytes = path.stat().st_size
            except OSError:
                pass
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        self.stores += 1
        _count("stores")
        self._enforce_limits(
            keep=path, added_bytes=len(payload), replaced_bytes=replaced_bytes
        )
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps up orphaned ``*.tmp`` files left by writers killed
        between ``mkstemp`` and ``os.replace`` (those never count as
        entries but would otherwise accumulate forever).
        """
        removed = 0
        if not self.directory.is_dir():
            return 0
        for entry in self.directory.glob("??/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for orphan in self.directory.glob("??/*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass
        self._approx_count = None
        self._approx_bytes = 0
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.pkl"))

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, version={self.version!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    # ------------------------------------------------------------------
    def _evict(self, path: Path, size: Optional[int] = None) -> None:
        self.evictions += 1
        _count("evictions")
        if self._approx_count is not None:
            if size is None:
                try:
                    size = path.stat().st_size
                except OSError:
                    size = 0
            self._approx_count = max(0, self._approx_count - 1)
            self._approx_bytes = max(0, self._approx_bytes - size)
        try:
            path.unlink()
        except OSError:
            pass

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so capacity eviction is LRU, not FIFO.

        Only called on bounded caches — an unbounded cache never consults
        recency, so its hits skip the metadata write and entry mtimes
        keep reflecting write time.  Recency resolution is whatever the
        filesystem stores: with 1 s mtime granularity, hits within the
        same second tie and eviction among them falls back to path order
        (see ``max_entries`` docs).
        """
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _enforce_limits(
        self,
        keep: Optional[Path] = None,
        added_bytes: int = 0,
        replaced_bytes: Optional[int] = None,
    ) -> None:
        """LRU-evict entries until ``max_entries`` / ``max_bytes`` hold.

        The store size is tracked incrementally, so a put that stays
        within the bounds never touches the filesystem beyond its own
        write; only an exceeded bound triggers the authoritative
        directory scan (which also resyncs the tracked totals — e.g.
        after another process wrote or evicted entries concurrently).

        ``keep`` (the entry just written) is evicted last: a cache whose
        bounds are smaller than one entry still serves that entry for the
        duration of the current sweep.  Entries that vanish concurrently
        (another process evicting the same directory) are simply skipped.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        if self._approx_count is None:
            self._rescan()
        elif replaced_bytes is None:
            self._approx_count += 1
            self._approx_bytes += added_bytes
        else:
            # Overwrite: the entry count is unchanged, only the size delta
            # between the new and old payload applies.
            self._approx_bytes = max(0, self._approx_bytes + added_bytes - replaced_bytes)
        over_entries = self.max_entries is not None and self._approx_count > self.max_entries
        over_bytes = self.max_bytes is not None and self._approx_bytes > self.max_bytes
        if not (over_entries or over_bytes):
            return

        keep_str = str(keep) if keep is not None else None
        candidates = []
        total_bytes = 0
        count = 0
        for path in self.directory.glob("??/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            count += 1
            total_bytes += stat.st_size
            if str(path) != keep_str:
                candidates.append((stat.st_mtime, str(path), path, stat.st_size))
        # Oldest first; tie-break on the path string for determinism.
        candidates.sort(key=lambda item: (item[0], item[1]))
        for _, _, path, size in candidates:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total_bytes > self.max_bytes
            if not (over_entries or over_bytes):
                break
            self._evict(path, size)
            count -= 1
            total_bytes -= size
        self._approx_count = count
        self._approx_bytes = total_bytes

    def _rescan(self) -> None:
        """Initialize the tracked (count, bytes) from the directory."""
        count = 0
        total_bytes = 0
        for path in self.directory.glob("??/*.pkl"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            count += 1
        self._approx_count = count
        self._approx_bytes = total_bytes


def resolve_cache(
    cache: Union[None, bool, str, Path, ResultCache],
) -> Optional[ResultCache]:
    """Coerce the user-facing ``cache=`` argument into a :class:`ResultCache`.

    ``None`` / ``False`` disable caching; ``True`` uses
    :data:`DEFAULT_CACHE_DIR`; a string or path names the cache
    directory; an existing :class:`ResultCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache(DEFAULT_CACHE_DIR)
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
