"""Parameter schedules for the emulator and spanner constructions.

The paper's constructions are driven by three interlocking sequences:

* the **degree sequence** ``deg_i`` — how many neighboring clusters a cluster
  needs in order to be *popular* in phase ``i``;
* the **distance thresholds** ``delta_i`` — how close two cluster centers
  must be to count as *neighboring* in phase ``i``; and
* the **radius bounds** ``R_i`` — the inductive upper bound on the radius of
  clusters entering phase ``i``.

Three schedules are used:

* :class:`CentralizedSchedule` — Section 2.1.2 of the paper (Algorithm 1).
  ``ell = ceil(log2((kappa + 1) / 2))`` phases indexed ``0 .. ell``,
  ``deg_i = n^(2^i / kappa)``, ``R_{i+1} = 2 delta_i + R_i`` and
  ``delta_i = (1/eps)^i + 2 R_i``.
* :class:`DistributedSchedule` — Section 3.1.1.  The degree sequence is
  capped at ``n^rho`` (exponential-growth stage followed by a fixed-growth
  stage), and superclusters are grown through ruling-set BFS forests, so the
  radius recursion becomes ``R_{i+1} = (4/rho + 2) delta_i + R_i``.
* :class:`SpannerSchedule` — Section 4.  Adopts the EN17a-style degree
  sequence (``gamma``-slowed exponential stage, a transition phase with
  ``deg = n^(rho/2)``, then a fixed stage at ``n^rho``) so that the number
  of *interconnection* edges decays geometrically across phases.

Every schedule exposes the stretch constants ``alpha`` (multiplicative) and
``beta`` (additive) that the corresponding theorem guarantees, and the size
bound on the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "size_bound",
    "ultra_sparse_kappa",
    "CentralizedSchedule",
    "DistributedSchedule",
    "SpannerSchedule",
]


def size_bound(n: int, kappa: float) -> float:
    """The paper's emulator size bound ``n^(1 + 1/kappa)`` (Lemma 2.4)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(n) ** (1.0 + 1.0 / kappa)


def ultra_sparse_kappa(n: int, growth: float = 2.0) -> float:
    """A ``kappa = omega(log n)`` choice that yields ``n + o(n)`` edges.

    Corollary 2.15 obtains ultra-sparse emulators by setting
    ``kappa = f(n) * log n`` for any ``f(n) = omega(1)``.  This helper uses
    ``f(n) = growth * log log n`` (with a floor of ``growth``), which keeps
    the additive stretch at ``(log log n / eps)^{(1 + o(1)) log log n}``.

    Graphs with fewer than 4 vertices take the ``n = 4`` value (4.0): the
    ruling-set schedules need ``1/kappa <= rho < 1/2``, which no ``rho``
    satisfies at ``kappa = 2``.
    """
    log_n = math.log2(max(n, 4))
    f_n = max(growth, growth * math.log2(max(2.0, log_n)))
    return f_n * log_n


def _check_common(n: int, eps: float, kappa: float) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if kappa < 2:
        raise ValueError(f"kappa must be at least 2, got {kappa}")


@dataclass(frozen=True)
class CentralizedSchedule:
    """Parameter schedule of the centralized construction (Section 2.1.2).

    Parameters
    ----------
    n:
        Number of vertices of the input graph.
    eps:
        The working epsilon used inside the distance thresholds
        ``delta_i = (1/eps)^i + 2 R_i``.  The paper's stretch analysis
        assumes ``eps <= 1/10``; larger values are accepted but the
        guaranteed bounds reported by :attr:`alpha` / :attr:`beta` are then
        only heuristic.
    kappa:
        Sparsity parameter; the emulator has at most ``n^(1 + 1/kappa)``
        edges.  Must be at least 2 (may be fractional, e.g. ``omega(log n)``
        for ultra-sparse emulators).
    """

    n: int
    eps: float
    kappa: float

    ell: int = field(init=False)
    degrees: List[float] = field(init=False)
    radii: List[float] = field(init=False)
    deltas: List[float] = field(init=False)

    def __post_init__(self) -> None:
        _check_common(self.n, self.eps, self.kappa)
        ell = max(1, math.ceil(math.log2((self.kappa + 1) / 2.0)))
        degrees = [float(self.n) ** (2.0 ** i / self.kappa) for i in range(ell + 1)]
        radii: List[float] = [0.0]
        deltas: List[float] = []
        for i in range(ell + 1):
            delta_i = (1.0 / self.eps) ** i + 2.0 * radii[i]
            deltas.append(delta_i)
            radii.append(2.0 * delta_i + radii[i])
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "radii", radii[: ell + 1])
        object.__setattr__(self, "deltas", deltas)

    # -- per-phase accessors -------------------------------------------------
    def degree(self, phase: int) -> float:
        """Popularity threshold ``deg_i = n^(2^i / kappa)`` for phase ``i``."""
        return self.degrees[phase]

    def delta(self, phase: int) -> float:
        """Distance threshold ``delta_i`` for phase ``i``."""
        return self.deltas[phase]

    def radius_bound(self, phase: int) -> float:
        """Upper bound ``R_i`` on the radius of clusters entering phase ``i``."""
        return self.radii[phase]

    @property
    def num_phases(self) -> int:
        """Number of phases ``ell + 1`` (phases are indexed ``0 .. ell``)."""
        return self.ell + 1

    # -- guarantees ----------------------------------------------------------
    @property
    def alpha(self) -> float:
        """Multiplicative stretch guarantee ``1 + 34 eps ell`` (eq. 13)."""
        return 1.0 + 34.0 * self.eps * self.ell

    @property
    def beta(self) -> float:
        """Additive stretch guarantee ``30 (1/eps)^(ell - 1)`` (Cor. 2.13)."""
        return 30.0 * (1.0 / self.eps) ** (self.ell - 1)

    @property
    def max_edges(self) -> float:
        """Emulator size bound ``n^(1 + 1/kappa)`` (Lemma 2.4)."""
        return size_bound(self.n, self.kappa)

    @classmethod
    def from_target_stretch(cls, n: int, eps_target: float, kappa: float) -> "CentralizedSchedule":
        """Build a schedule whose *final* multiplicative stretch is ``1 + eps_target``.

        This performs the rescaling of Section 2.2.4: the working epsilon is
        ``eps_target / (34 * ell)``, so ``alpha = 1 + eps_target`` and
        ``beta = 30 (34 ell / eps_target)^(ell - 1)``.
        """
        if eps_target <= 0 or eps_target >= 1:
            raise ValueError("eps_target must lie in (0, 1)")
        ell = max(1, math.ceil(math.log2((kappa + 1) / 2.0)))
        working_eps = eps_target / (34.0 * ell)
        return cls(n=n, eps=working_eps, kappa=kappa)


@dataclass(frozen=True)
class DistributedSchedule:
    """Parameter schedule of the CONGEST construction (Section 3.1.1).

    Parameters
    ----------
    n, eps, kappa:
        As in :class:`CentralizedSchedule`.
    rho:
        Locality parameter, ``1/kappa < rho < 1/2``.  Degrees are capped at
        ``n^rho`` so that each phase runs in ``O(n^rho poly(delta))`` rounds.
    """

    n: int
    eps: float
    kappa: float
    rho: float

    i0: int = field(init=False)
    ell: int = field(init=False)
    degrees: List[float] = field(init=False)
    radii: List[float] = field(init=False)
    deltas: List[float] = field(init=False)

    def __post_init__(self) -> None:
        _check_common(self.n, self.eps, self.kappa)
        if not (0 < self.rho < 0.5):
            raise ValueError(f"rho must lie in (0, 0.5), got {self.rho}")
        if self.rho * self.kappa < 1.0:
            raise ValueError(
                f"rho must be at least 1/kappa (got rho={self.rho}, kappa={self.kappa})"
            )
        kappa_rho = self.kappa * self.rho
        i0 = max(0, math.floor(math.log2(kappa_rho)))
        ell = i0 + math.ceil((self.kappa + 1) / (self.kappa * self.rho)) - 1
        ell = max(ell, i0 + 1)
        degrees = []
        for i in range(ell + 1):
            if i <= i0:
                degrees.append(float(self.n) ** (2.0 ** i / self.kappa))
            else:
                degrees.append(float(self.n) ** self.rho)
        radii: List[float] = [0.0]
        deltas: List[float] = []
        growth = 4.0 / self.rho + 2.0
        for i in range(ell + 1):
            delta_i = (1.0 / self.eps) ** i + 2.0 * radii[i]
            deltas.append(delta_i)
            radii.append(growth * delta_i + radii[i])
        object.__setattr__(self, "i0", i0)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "radii", radii[: ell + 1])
        object.__setattr__(self, "deltas", deltas)

    # -- per-phase accessors -------------------------------------------------
    def degree(self, phase: int) -> float:
        """Popularity threshold for phase ``i`` (capped at ``n^rho``)."""
        return self.degrees[phase]

    def delta(self, phase: int) -> float:
        """Distance threshold ``delta_i`` for phase ``i``."""
        return self.deltas[phase]

    def radius_bound(self, phase: int) -> float:
        """Upper bound ``R_i`` on radii of clusters entering phase ``i``."""
        return self.radii[phase]

    def separation(self, phase: int) -> float:
        """Ruling-set separation ``sep_i = 2 delta_i + 1`` (Section 3.1.2)."""
        return 2.0 * self.deltas[phase] + 1.0

    def ruling_radius(self, phase: int) -> float:
        """Ruling-set domination radius ``rul_i = (2 / rho) delta_i``."""
        return (2.0 / self.rho) * self.deltas[phase]

    @property
    def num_phases(self) -> int:
        """Number of phases ``ell + 1``."""
        return self.ell + 1

    # -- guarantees ----------------------------------------------------------
    @property
    def alpha(self) -> float:
        """Multiplicative stretch guarantee ``1 + 90 eps ell / rho`` (eq. 25)."""
        return 1.0 + 90.0 * self.eps * self.ell / self.rho

    @property
    def beta(self) -> float:
        """Additive stretch guarantee ``(75 / rho)(1/eps)^(ell - 1)`` (eq. 24)."""
        return (75.0 / self.rho) * (1.0 / self.eps) ** (self.ell - 1)

    @property
    def max_edges(self) -> float:
        """Emulator size bound ``n^(1 + 1/kappa)`` (eq. 19)."""
        return size_bound(self.n, self.kappa)

    @property
    def round_bound(self) -> float:
        """Round-complexity guarantee ``O(beta n^rho)`` up to constants (eq. 27)."""
        return self.beta * float(self.n) ** self.rho

    @classmethod
    def from_target_stretch(
        cls, n: int, eps_target: float, kappa: float, rho: float
    ) -> "DistributedSchedule":
        """Rescale per Section 3.2.4 so the final stretch is ``1 + eps_target``."""
        if eps_target <= 0 or eps_target >= 1:
            raise ValueError("eps_target must lie in (0, 1)")
        probe = cls(n=n, eps=min(0.1, rho / 25.0), kappa=kappa, rho=rho)
        working_eps = eps_target * rho / (90.0 * probe.ell)
        return cls(n=n, eps=working_eps, kappa=kappa, rho=rho)


@dataclass(frozen=True)
class SpannerSchedule:
    """Parameter schedule of the spanner construction (Section 4).

    The degree sequence follows EN17a: a ``gamma``-slowed exponential stage
    for phases ``0 .. i0``, a transition phase ``i0 + 1`` with degree
    ``n^(rho/2)``, and a fixed stage at ``n^rho`` up to phase
    ``ell = i0 + ceil(1/rho - 1/2)``.
    """

    n: int
    eps: float
    kappa: float
    rho: float

    gamma: float = field(init=False)
    i0: int = field(init=False)
    ell: int = field(init=False)
    degrees: List[float] = field(init=False)
    radii: List[float] = field(init=False)
    deltas: List[float] = field(init=False)

    def __post_init__(self) -> None:
        _check_common(self.n, self.eps, self.kappa)
        if not (0 < self.rho <= 0.5):
            raise ValueError(f"rho must lie in (0, 0.5], got {self.rho}")
        if self.rho * self.kappa < 1.0:
            raise ValueError(
                f"rho must be at least 1/kappa (got rho={self.rho}, kappa={self.kappa})"
            )
        gamma = max(2.0, math.log2(max(2.0, math.log2(self.kappa))))
        kappa_rho = self.kappa * self.rho
        i0 = max(0, min(math.floor(math.log(kappa_rho, gamma)), math.floor(kappa_rho)))
        ell = i0 + max(1, math.ceil(1.0 / self.rho - 0.5))
        degrees = []
        for i in range(ell + 1):
            if i <= i0:
                exponent = (2.0 ** i - 1.0) / (gamma * self.kappa) + 1.0 / self.kappa
                degrees.append(float(self.n) ** exponent)
            elif i == i0 + 1:
                degrees.append(float(self.n) ** (self.rho / 2.0))
            else:
                degrees.append(float(self.n) ** self.rho)
        radii: List[float] = [0.0]
        deltas: List[float] = []
        growth = 4.0 / self.rho + 2.0
        for i in range(ell + 1):
            delta_i = (1.0 / self.eps) ** i + 2.0 * radii[i]
            deltas.append(delta_i)
            radii.append(growth * delta_i + radii[i])
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "i0", i0)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "radii", radii[: ell + 1])
        object.__setattr__(self, "deltas", deltas)

    # -- per-phase accessors -------------------------------------------------
    def degree(self, phase: int) -> float:
        """Popularity threshold for phase ``i``."""
        return self.degrees[phase]

    def delta(self, phase: int) -> float:
        """Distance threshold ``delta_i`` for phase ``i``."""
        return self.deltas[phase]

    def radius_bound(self, phase: int) -> float:
        """Upper bound ``R_i`` on radii of clusters entering phase ``i``."""
        return self.radii[phase]

    def separation(self, phase: int) -> float:
        """Ruling-set separation ``sep_i = 2 delta_i + 1`` (as in Section 3.1.2)."""
        return 2.0 * self.deltas[phase] + 1.0

    def ruling_radius(self, phase: int) -> float:
        """Ruling-set domination radius ``rul_i = (2 / rho) delta_i``."""
        return (2.0 / self.rho) * self.deltas[phase]

    @property
    def num_phases(self) -> int:
        """Number of phases ``ell + 1``."""
        return self.ell + 1

    # -- guarantees ----------------------------------------------------------
    @property
    def alpha(self) -> float:
        """Multiplicative stretch guarantee (same shape as the distributed one)."""
        return 1.0 + 90.0 * self.eps * self.ell / self.rho

    @property
    def beta(self) -> float:
        """Additive stretch guarantee ``(75 / rho)(1/eps)^(ell - 1)``."""
        return (75.0 / self.rho) * (1.0 / self.eps) ** (self.ell - 1)

    @property
    def max_edges(self) -> float:
        """Spanner size bound ``O(n^(1 + 1/kappa))`` — reported without the constant."""
        return size_bound(self.n, self.kappa)
