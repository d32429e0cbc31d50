"""Step schedules, stop rules, error bounds, and the one event loop every
solver runs on, with gradient descent as its simplest client."""

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
    """Step size rule: constant eta, or diminishing eta/(k+1).

    optimal(lam1, lamd) is the constant schedule at optimal_rate's step.
    """

    kind: str
    eta: float

    def __post_init__(self):
        if self.kind not in ("constant", "diminishing"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.eta > 0.0:
            raise ValueError(f"step size must be positive, got {self.eta}")

    @classmethod
    def constant(cls, eta: float) -> "LRSchedule":
        return cls("constant", float(eta))

    @classmethod
    def diminishing(cls, eta: float) -> "LRSchedule":
        return cls("diminishing", float(eta))

    @classmethod
    def optimal(cls, lam1: float, lamd: float) -> "LRSchedule":
        return cls.constant(optimal_rate(lam1, lamd)[0])

    def rate(self, k: int) -> float:
        if self.kind == "diminishing":
            return self.eta / (k + 1)
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
    dists: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    terminal: str = ""

    def __len__(self):
        return len(self.ks)

    @property
    def grad_norms(self) -> list:
        """The gradient norms gd_run records as a metric; empty otherwise."""
        return self.extras.get("grad_norms", [])


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
    """Gradient descent on the event loop; returns (final point, Trace).

    perturb(k), when given, is added to the iterate before step k, and its
    norms land in trace.extras["noise_norms"]. The recorded objective,
    gradient norm and distance are taken at the unperturbed iterate, the
    point perturbed_bound speaks about.
    """
    noise = None
    if perturb is not None:

        def noise(k, W):
            delta = np.asarray(perturb(k), dtype=float).reshape(-1)
            W += delta
            return np.linalg.norm(delta)

    return _gd(loss, w0, sched, stop, oracle, noise, None)


def projected_gd_run(loss, projector, w0, sched: LRSchedule, stop: StopRule, oracle=None):
    """Projected gradient descent; w0 is projected before the first step."""
    return _gd(loss, w0, sched, stop, oracle, None, projector)


def _gd(loss, w0, sched, stop, oracle, noise, projector):
    """_drive on the one-row state w with the step w - eta_k grad L(w),
    projected when a projector is given."""

    def project(w):
        if projector is not None:
            w = np.asarray(projector(w), dtype=float).reshape(-1)
        return w[None]

    def step(k, W):
        return project(W[0] - sched.rate(k) * np.asarray(loss.gradient(W[0]), dtype=float))

    def metrics(k, W):
        return {"grad_norms": float(np.linalg.norm(loss.gradient(W[0])))}

    W = project(np.array(w0, dtype=float).reshape(-1))
    rec = _Recorder(stop, lambda V: loss.value(V[0]), oracle, metrics, 1)
    W, trace = _drive(W, stop.max_iters, step, rec, noise)
    return W[0], trace


class _Recorder:
    """Per-event bookkeeping for the driver: rows, objective guard, stopping."""

    def __init__(self, stop, objective, oracle, metrics, record_every):
        self.stop = stop
        self.objective = objective
        self.metrics = metrics
        self.record_every = int(record_every)
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {record_every}")
        self.oracle = None
        if oracle is not None:
            self.oracle = np.asarray(
                getattr(oracle, "blocks", oracle), dtype=float
            ).reshape(-1)
        self.trace = Trace()
        self.f_prev = None
        self.f_guard = None

    def observe(self, k, blocks, last_event) -> str:
        """Record state k if sampled; return a terminal reason or ''.

        The oracle distance is computed only when a row is recorded or
        dist_tol needs it. The objective, and so its divergence guard
        (non-finite, or above DIVERGENCE_FACTOR (|f_0| + 1)), is evaluated
        only on sampled events unless stop.obj_tol is set: a slow blow-up
        whose blocks stay finite is caught up to record_every - 1 events
        late, so its DivergenceError event depends on record_every."""
        dist = None
        if self.oracle is not None and self.stop.dist_tol is not None:
            dist = self._dist(blocks)
        sample = (k % self.record_every == 0) or last_event
        f = None
        need_f = self.objective is not None and (
            sample or self.stop.obj_tol is not None
        )
        if need_f:
            f = float(self.objective(blocks))
            if not np.isfinite(f):
                self.trace.terminal = "diverged"
                raise DivergenceError(
                    f"non-finite objective at event {k}", trace=self.trace, event=k
                )
            if self.f_guard is None:
                self.f_guard = DIVERGENCE_FACTOR * (abs(f) + 1.0)
            elif f > self.f_guard:
                self.trace.terminal = "diverged"
                raise DivergenceError(
                    f"objective {f:.3e} exceeded the divergence guard at event {k}",
                    trace=self.trace,
                    event=k,
                )
        terminal = ""
        if dist is not None and dist <= self.stop.dist_tol:
            terminal = "dist_tol"
        elif (
            self.stop.obj_tol is not None
            and f is not None
            and self.f_prev is not None
            and abs(self.f_prev - f) <= self.stop.obj_tol
        ):
            terminal = "obj_tol"
        elif last_event:
            terminal = "max_iters"
        if sample or terminal:
            if dist is None and self.oracle is not None:
                dist = self._dist(blocks)
            self.trace.ks.append(k)
            self.trace.objectives.append(f)
            self.trace.dists.append(dist)
            if self.metrics is not None:
                for name, value in self.metrics(k, blocks).items():
                    self.trace.extras.setdefault(name, []).append(value)
        if f is not None:
            self.f_prev = f
        return terminal

    def _dist(self, blocks) -> float:
        return float(np.linalg.norm(blocks.reshape(-1) - self.oracle))


def _drive(blocks, kend, step, rec, noise):
    """The one event loop of every engine.

    Event k observes the state (recording a row, stopping on a tolerance or
    at k = kend), applies noise(k, blocks) in place, then replaces the state
    by step(k, blocks) and rejects non-finite blocks. Returns (blocks,
    trace); a blow-up raises DivergenceError(trace, node, event).
    """
    for k in range(kend + 1):
        terminal = rec.observe(k, blocks, last_event=(k == kend))
        if terminal:
            rec.trace.terminal = terminal
            return blocks, rec.trace
        if noise is not None:
            nrm = noise(k, blocks)
            rec.trace.extras.setdefault("noise_norms", []).append(
                float(nrm) if nrm is not None else 0.0
            )
        blocks = step(k, blocks)
        if not np.isfinite(blocks).all():
            bad = np.flatnonzero(~np.isfinite(blocks).all(axis=1)).tolist()
            rec.trace.terminal = "diverged"
            raise DivergenceError(
                f"non-finite block at node(s) {bad} after event {k}",
                trace=rec.trace,
                node=bad[0],
                event=k,
            )
    return blocks, rec.trace  # pragma: no cover
