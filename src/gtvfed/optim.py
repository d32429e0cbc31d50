"""Gradient descent with step schedules, stop rules, and error bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A run is declared divergent once the objective exceeds this multiple of
# (|initial objective| + 1); the +1 keeps the guard meaningful near zero.
DIVERGENCE_FACTOR = 1e12


class DivergenceError(RuntimeError):
    """Raised when iterates blow up; carries the trace collected so far and,
    when known, the offending node and event."""

    def __init__(self, message, trace=None, node=None, event=None):
        super().__init__(message)
        self.trace = trace
        self.node = node
        self.event = event


@dataclass(frozen=True)
class LRSchedule:
    """Step size rule: constant, diminishing c/(k+1), or condition-optimal."""

    kind: str
    eta: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing", "optimal"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("constant", "optimal") and not self.eta > 0.0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.kind == "diminishing" and not self.c > 0.0:
            raise ValueError(f"diminishing constant must be positive, got {self.c}")

    @classmethod
    def constant(cls, eta: float) -> "LRSchedule":
        return cls(kind="constant", eta=float(eta))

    @classmethod
    def diminishing(cls, c: float) -> "LRSchedule":
        return cls(kind="diminishing", c=float(c))

    @classmethod
    def optimal(cls, lam1: float, lamd: float) -> "LRSchedule":
        eta, _ = optimal_rate(lam1, lamd)
        return cls(kind="optimal", eta=eta)

    def rate(self, k: int) -> float:
        if self.kind == "diminishing":
            return self.c / (k + 1)
        return self.eta


@dataclass(frozen=True)
class StopRule:
    """Iteration budget plus optional objective-change / oracle-distance tests.

    dist_tol needs an oracle point passed to the runner; obj_tol compares
    consecutive objective values.
    """

    max_iters: int
    obj_tol: float | None = None
    dist_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        for name in ("obj_tol", "dist_tol"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ValueError(f"{name} must be positive when set, got {v}")


@dataclass
class Trace:
    """Per-iteration log: parallel lists indexed by recorded event."""

    ks: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    dists: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    terminal: str = ""

    def __len__(self):
        return len(self.ks)


def contraction(eta: float, lam1: float, lamd: float) -> float:
    """GD contraction factor max(|1 - 2 eta lam1|, |1 - 2 eta lamd|)."""
    eta, lam1, lamd = float(eta), float(lam1), float(lamd)
    if not (0.0 <= lam1 <= lamd):
        raise ValueError(f"need 0 <= lam1 <= lamd, got ({lam1}, {lamd})")
    return max(abs(1.0 - 2.0 * eta * lam1), abs(1.0 - 2.0 * eta * lamd))


def optimal_rate(lam1: float, lamd: float):
    """Best constant step and its contraction factor for a quadratic.

    Returns (eta*, kappa*) with eta* = 1/(lam1 + lamd) and
    kappa* = (cond - 1)/(cond + 1) where cond = lamd/lam1.
    """
    lam1, lamd = float(lam1), float(lamd)
    if not lam1 > 0.0:
        raise ValueError(f"smallest eigenvalue must be positive, got {lam1}")
    if lamd < lam1:
        raise ValueError(f"need lamd >= lam1, got ({lam1}, {lamd})")
    cond = lamd / lam1
    return 1.0 / (lam1 + lamd), (cond - 1.0) / (cond + 1.0)


def iters_needed(kappa: float, r0: float, eps: float) -> int:
    """Iterations guaranteeing kappa^k r0 <= eps; zero if already there."""
    kappa, r0, eps = float(kappa), float(r0), float(eps)
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"contraction factor must lie in (0, 1), got {kappa}")
    if not r0 > 0.0 or not eps > 0.0:
        raise ValueError("initial radius and target must be positive")
    if eps >= r0:
        return 0
    # The 1e-12 shave keeps exact ratios (e.g. log 8 / log 2) from rounding up.
    return int(math.ceil(math.log(r0 / eps) / math.log(1.0 / kappa) - 1e-12))


def perturbed_bound(kappa: float, r0: float, norms) -> float:
    """Distance bound after len(norms) perturbed steps.

    Perturbation j is injected before step j, so after k steps the bound is
    kappa^k r0 + sum_{k'=1..k} kappa^k' * norms[k - k'].
    """
    kappa, r0 = float(kappa), float(r0)
    if not (0.0 <= kappa < 1.0):
        raise ValueError(f"contraction factor must lie in [0, 1), got {kappa}")
    norms = [float(v) for v in norms]
    k = len(norms)
    total = kappa**k * r0
    for kp in range(1, k + 1):
        total += kappa**kp * norms[k - kp]
    return total


def gd_run(loss, w0, sched: LRSchedule, stop: StopRule, oracle=None, perturb=None):
    """Gradient descent; returns (final point, Trace).

    perturb(k), when given, is added to the iterate before step k; recorded
    distances refer to the unperturbed iterate, matching perturbed_bound.
    """
    return _descend(loss, w0, sched, stop, oracle=oracle, perturb=perturb)


def projected_gd_run(loss, projector, w0, sched: LRSchedule, stop: StopRule, oracle=None):
    """Projected gradient descent; w0 is projected before the first step."""
    return _descend(loss, w0, sched, stop, oracle=oracle, projector=projector)


def _descend(loss, w0, sched, stop, oracle=None, perturb=None, projector=None):
    w = np.array(w0, dtype=float).reshape(-1)
    if projector is not None:
        w = np.asarray(projector(w), dtype=float).reshape(-1)
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=float).reshape(-1)
    trace = Trace()
    f_prev = None
    f_guard = None
    for k in range(stop.max_iters + 1):
        dist = float(np.linalg.norm(w - oracle)) if oracle is not None else None
        w_work = w
        if perturb is not None:
            delta = np.asarray(perturb(k), dtype=float).reshape(-1)
            w_work = w + delta
        f = loss.value(w_work)
        g = np.asarray(loss.gradient(w_work), dtype=float)
        trace.ks.append(k)
        trace.objectives.append(f)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.dists.append(dist)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            trace.terminal = "diverged"
            raise DivergenceError(
                f"non-finite objective or gradient at iteration {k}",
                trace=trace,
                event=k,
            )
        if f_guard is None:
            f_guard = DIVERGENCE_FACTOR * (abs(f) + 1.0)
        elif f > f_guard:
            trace.terminal = "diverged"
            raise DivergenceError(
                f"objective {f:.3e} exceeded the divergence guard at iteration {k}",
                trace=trace,
                event=k,
            )
        if stop.dist_tol is not None and dist is not None and dist <= stop.dist_tol:
            trace.terminal = "dist_tol"
            return w, trace
        if stop.obj_tol is not None and f_prev is not None and abs(f_prev - f) <= stop.obj_tol:
            trace.terminal = "obj_tol"
            return w, trace
        if k == stop.max_iters:
            trace.terminal = "max_iters"
            return w, trace
        f_prev = f
        w = w_work - sched.rate(k) * g
        if projector is not None:
            w = np.asarray(projector(w), dtype=float).reshape(-1)
    return w, trace  # pragma: no cover - loop always returns
