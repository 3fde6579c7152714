"""Declarative build configuration: :class:`BuildSpec`.

A :class:`BuildSpec` names *what* to construct (``product``), *how* to
construct it (``method``), and the paper parameters (``eps``, ``kappa``,
``rho``) — nothing else.  Because a spec is a frozen, comparable value
object, a scenario sweep is just a list of specs (see
:mod:`repro.api.pipeline`), and every entry point of the package (CLI,
experiments, applications) can share a single dispatch path,
:func:`repro.api.facade.build`.

The product/method vocabulary mirrors the paper's structure:

=============  =====================================================
``product``    what is built
=============  =====================================================
``emulator``   weighted ``(1 + eps, beta)``-emulator (Sections 2-3)
``spanner``    near-additive *subgraph* spanner (Section 4)
``hopset``     near-exact hopset = the emulator's edge set ([EN20])
=============  =====================================================

=============  =====================================================
``method``     which construction runs
=============  =====================================================
``centralized``  the sequential Algorithm 1 flavour
``fast``         the ruling-set based Section 3.3 simulation
``congest``      the distributed construction on the CONGEST simulator
=============  =====================================================

Not every pair is implemented; the registry (:mod:`repro.api.registry`)
is the source of truth for supported combinations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

__all__ = ["PRODUCTS", "METHODS", "BuildSpec"]

#: Valid values of :attr:`BuildSpec.product`.
PRODUCTS: Tuple[str, ...] = ("emulator", "spanner", "hopset")

#: Valid values of :attr:`BuildSpec.method`.
METHODS: Tuple[str, ...] = ("centralized", "fast", "congest")


@dataclass(frozen=True, eq=True)
class BuildSpec:
    """Configuration of one construction run.

    Parameters
    ----------
    product:
        One of :data:`PRODUCTS` — ``emulator``, ``spanner`` or ``hopset``.
    method:
        One of :data:`METHODS` — ``centralized``, ``fast`` or ``congest``.
    eps:
        Working epsilon of the distance-threshold sequence.  ``None`` picks
        the historical default for the (product, method) pair: ``0.1`` for
        centralized emulators/hopsets, ``0.01`` for every spanner and for
        the ``fast`` / ``congest`` methods.
    kappa:
        Sparsity parameter (``>= 2``); the output has roughly
        ``n^(1 + 1/kappa)`` edges.  ``None`` picks the product default:
        ``4.0`` for emulators and spanners, the ultra-sparse
        ``omega(log n)`` choice for hopsets.
    rho:
        Locality parameter of the ``fast`` / ``congest`` methods and the
        spanner schedules, ``0 < rho <= 1/2`` (the distributed emulator
        schedule additionally requires ``rho < 1/2``).  ``None`` means
        ``0.45``.  Ignored by ``centralized`` emulator / hopset builds.
    beta:
        Optional *additive-stretch budget*.  When set, the facade raises
        ``ValueError`` if the schedule's guaranteed ``beta`` exceeds it, so
        sweeps can declare "only configurations with beta <= X".
    seed:
        Seed forwarded to stochastic components (pair sampling in
        ``.verify()``, randomized builders registered by extensions).
    schedule:
        Optional pre-built parameter schedule
        (:class:`~repro.core.parameters.CentralizedSchedule` & friends)
        overriding ``eps`` / ``kappa`` / ``rho``, e.g. one fixed by
        ``CentralizedSchedule.from_target_stretch``; grid sweeps should
        use the scalar parameters instead.
    options:
        Method-specific extras (e.g. ``{"ruling_set_mode": "distributed"}``
        for the CONGEST emulator).  Must be a mapping with string keys.
    """

    product: str = "emulator"
    method: str = "centralized"
    eps: Optional[float] = None
    kappa: Optional[float] = None
    rho: Optional[float] = None
    beta: Optional[float] = None
    seed: int = 0
    # schedule and options may hold unhashable values (schedules carry
    # lists, options is a dict); keep them in __eq__ but out of __hash__ so
    # specs stay usable as cache keys.
    schedule: Optional[Any] = field(default=None, hash=False)
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
        if self.eps is not None and self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.kappa is not None and self.kappa < 2:
            raise ValueError(f"kappa must be at least 2, got {self.kappa}")
        # Spanner schedules accept rho = 0.5; the distributed emulator
        # schedule is stricter (rho < 0.5) and enforces that itself.
        if self.rho is not None and not (0.0 < self.rho <= 0.5):
            raise ValueError(f"rho must lie in (0, 0.5], got {self.rho}")
        if self.beta is not None and self.beta <= 0:
            raise ValueError(f"beta budget must be positive, got {self.beta}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.options, Mapping):
            raise ValueError("options must be a mapping")
        # Snapshot the options so the spec stays a value object even if the
        # caller mutates the mapping they passed in.
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, str]:
        """The ``(product, method)`` registry key."""
        return (self.product, self.method)

    def replace(self, **changes: Any) -> "BuildSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``emulator/fast(eps=0.01)``."""
        params = []
        for name in ("eps", "kappa", "rho", "beta"):
            value = getattr(self, name)
            if value is not None:
                params.append(f"{name}={value:g}")
        if self.schedule is not None:
            params.append("schedule=<explicit>")
        return f"{self.product}/{self.method}({', '.join(params)})"
