"""Message-passing solvers: per-node operators, one event driver, bounds."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from gtvfed import seeds
from gtvfed.gtvmin import (
    GTVMinProblem,
    StackedParams,
    _node_grad,
    batch_gradient_fn,
    eig_bounds,
    loss_stack,
)
from gtvfed.localmodel import QuadLoss
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, Trace, DIVERGENCE_FACTOR
from gtvfed.trust import RobustAgg, aggregate


@dataclass
class NodeOperator:
    """Per-node fixed-point map.

    update(own block, neighbor blocks as a (k, d) array aligned with
    neighbor_ids, event index) -> new own block. batch_update, when present,
    is a whole-round map (n, d) -> (n, d) shared by all operators of the
    run; the engines use it only when every operator carries the same one
    and no per-message hook is installed.
    """

    update: callable
    neighbor_ids: np.ndarray
    batch_update: callable = None


@dataclass(frozen=True)
class AsyncEvent:
    """One event: nodes that update and, per node, the event index each
    neighbor's state is read from (aligned with sorted neighbor ids)."""

    active: tuple
    refs: dict


@dataclass(frozen=True)
class AsyncSchedule:
    """Pre-generated event sequence; B is the staleness bound (None = none)."""

    n: int
    B: int | None
    events: tuple

    @property
    def horizon(self) -> int:
        return len(self.events)

    def validate(self, neighbor_ids) -> None:
        """Check the schedule against per-node neighbor lists.

        Enforces: refs aligned with neighbors and never in the future;
        staleness <= B and every node active in any B consecutive events
        (bounded case); every node active at least once (unbounded case,
        the finite-horizon reading of "infinitely often").
        """
        if len(neighbor_ids) != self.n:
            raise ValueError(
                f"schedule built for {self.n} nodes, got {len(neighbor_ids)} operators"
            )
        last = [-1] * self.n
        for k, ev in enumerate(self.events):
            seen = set()
            for i in ev.active:
                if not (0 <= i < self.n) or i in seen:
                    raise ValueError(f"event {k}: bad active set {ev.active}")
                seen.add(i)
                last[i] = k
                refs = ev.refs.get(i)
                ids = neighbor_ids[i]
                if refs is None or len(refs) != len(ids):
                    raise ValueError(
                        f"event {k}: node {i} needs {len(ids)} neighbor refs"
                    )
                for r in refs:
                    if r > k:
                        raise ValueError(
                            f"event {k}: node {i} references future event {r}"
                        )
                    if r < 0:
                        raise ValueError(f"event {k}: negative event reference {r}")
                    if self.B is not None and k - r > self.B:
                        raise ValueError(
                            f"event {k}: node {i} reads state {k - r} events old, "
                            f"bound is {self.B}"
                        )
            if self.B is not None and self.B >= 1 and k >= self.B - 1:
                # Active at least once in any window of B consecutive events.
                # B = 0 (zero staleness) leaves activity unconstrained: the
                # window is empty.
                for i in range(self.n):
                    if last[i] < k - self.B + 1:
                        raise ValueError(
                            f"node {i} inactive over events "
                            f"{k - self.B + 1}..{k} (window {self.B})"
                        )
        if self.B is None:
            for i in range(self.n):
                if last[i] < 0:
                    raise ValueError(f"node {i} never active over the horizon")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "B": self.B,
            "events": [
                {
                    "active": list(ev.active),
                    "refs": {str(i): list(r) for i, r in ev.refs.items()},
                }
                for ev in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncSchedule":
        events = tuple(
            AsyncEvent(
                active=tuple(ev["active"]),
                refs={int(i): tuple(r) for i, r in ev["refs"].items()},
            )
            for ev in data["events"]
        )
        return cls(n=int(data["n"]), B=data["B"], events=events)


def _node_schedules(p: GTVMinProblem, sched) -> list:
    # Default eta = 1/(2U) with U the spectral upper estimate keeps plain GD
    # stable.
    if sched is None:
        upper = eig_bounds(p).upper
        if upper <= 0.0:
            raise ValueError("cannot derive a default step size from a zero problem")
        sched = LRSchedule.constant(1.0 / (2.0 * upper))
    if isinstance(sched, LRSchedule):
        return [sched] * p.n
    sched = list(sched)
    if len(sched) != p.n:
        raise ValueError(f"got {len(sched)} schedules for {p.n} nodes")
    return sched


def _gd_batch(p: GTVMinProblem, scheds):
    """The whole-round gradient step, when the problem has a batch gradient
    and every node shares one schedule; None otherwise."""
    gradfn = batch_gradient_fn(p)
    s0 = scheds[0]
    if gradfn is None or not all(s is s0 or s == s0 for s in scheds):
        return None

    def batch(W, k):
        return W - s0.rate(k) * gradfn(W)

    return batch


def _gd_update(loss, wts, sch, alpha):
    """One node's exact-gradient step."""

    def update(own, nbrs, k):
        return own - sch.rate(k) * _node_grad(loss, own, nbrs, wts, alpha)

    return update


def fedgd_op(p: GTVMinProblem, sched=None, agg: RobustAgg | None = None):
    """Gradient-step operators: w - eta [grad L_i + 2 alpha sum A (w - w_j)].

    With agg given, the coupling uses the robust neighbor aggregate instead
    of the exact weighted sum. Returns one operator per node.
    """
    scheds = _node_schedules(p, sched)
    batch = _gd_batch(p, scheds) if agg is None else None
    ops = []
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)
        loss = p.losses[i]
        sch = scheds[i]
        alpha = p.alpha
        if agg is None:
            update = _gd_update(loss, wts, sch, alpha)
        else:
            deg = float(wts.sum())

            def update(
                own, nbrs, k, loss=loss, wts=wts, sch=sch, alpha=alpha, deg=deg, agg=agg
            ):
                g = loss.gradient(own)
                if deg > 0.0:
                    avg = aggregate(nbrs, wts, agg)
                    g = g + (2.0 * alpha * deg) * (own - avg)
                return own - sch.rate(k) * g

        ops.append(NodeOperator(update=update, neighbor_ids=ids, batch_update=batch))
    return ops


def fedsgd_op(p: GTVMinProblem, batch_size: int, seed: int, sched=None):
    """Stochastic-gradient operators drawing a fresh seeded batch per event.

    The local gradient is estimated from batch_size rows sampled without
    replacement; batch sizes >= the dataset size fall back to the exact
    gradient (so full-batch runs match fedgd_op bitwise). Requires losses
    built from datasets.
    """
    batch_size = int(batch_size)
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    scheds = _node_schedules(p, sched)
    exact = []
    for i, loss in enumerate(p.losses):
        if not isinstance(loss, QuadLoss) or loss.source is None:
            raise ValueError(f"node {i}: stochastic gradients need a source dataset")
        m = loss.source.m
        if batch_size > m:
            warnings.warn(
                f"node {i}: batch size {batch_size} exceeds dataset size {m}; "
                "using the full batch",
                stacklevel=2,
            )
        exact.append(batch_size >= m)
    batch = _gd_batch(p, scheds) if all(exact) else None
    ops = []
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)
        loss = p.losses[i]
        sch = scheds[i]
        alpha = p.alpha
        if exact[i]:
            update = _gd_update(loss, wts, sch, alpha)
        else:
            ds = loss.source
            rng = seeds.stream(seed, "batches", i)
            B = batch_size
            ridge2 = 2.0 * loss.ridge

            def update(
                own, nbrs, k, ds=ds, rng=rng, B=B, ridge2=ridge2, wts=wts, sch=sch,
                alpha=alpha,
            ):
                idx = np.sort(rng.choice(ds.m, size=B, replace=False))
                Xb = ds.X[idx]
                g = (2.0 / B) * (Xb.T @ (Xb @ own - ds.y[idx]))
                if ridge2 != 0.0:
                    g = g + ridge2 * own
                if wts.shape[0]:
                    g = g + (2.0 * alpha) * (wts @ (own - nbrs))
                return own - sch.rate(k) * g

        ops.append(NodeOperator(update=update, neighbor_ids=ids, batch_update=batch))
    return ops


_MEAN = RobustAgg.mean()


def fedrelax_op(p: GTVMinProblem, agg: RobustAgg | None = None):
    """Block-coordinate (Jacobi) operators: prox of the local loss at the
    aggregated neighbor state with penalty 2 alpha d_i.

    A node with no neighbors returns its exact local minimizer when that is
    unique, and its current block unchanged otherwise.
    """
    if agg is None:
        agg = _MEAN
    quad = p.is_quadratic()
    batch = None
    if quad and agg.kind == "mean":
        batch = _fedrelax_batch(p)
    ops = []
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)
        loss = p.losses[i]
        deg = float(wts.sum())
        rho = 2.0 * p.alpha * deg
        if deg == 0.0 or rho == 0.0:
            solver = _lone_node_map(loss)

            def update(own, nbrs, k, solver=solver):
                return solver(own)

        elif isinstance(loss, QuadLoss):
            P = np.linalg.inv(2.0 * loss.Q + rho * np.eye(loss.d))
            qv = loss.q

            def update(own, nbrs, k, P=P, qv=qv, rho=rho, wts=wts, agg=agg):
                avg = aggregate(nbrs, wts, agg)
                return P @ (rho * avg - qv)

        else:

            def update(own, nbrs, k, loss=loss, rho=rho, wts=wts, agg=agg):
                avg = aggregate(nbrs, wts, agg)
                return loss.prox(avg, rho)

        ops.append(NodeOperator(update=update, neighbor_ids=ids, batch_update=batch))
    return ops


def _lone_node_map(loss):
    if isinstance(loss, QuadLoss) and loss.d:
        lam_min = float(np.linalg.eigvalsh(loss.Q)[0])
        if lam_min > 1e-12:
            w_star = np.linalg.solve(2.0 * loss.Q, -loss.q)
            return lambda own: w_star.copy()
    return lambda own: own.copy()


def _fedrelax_batch(p: GTVMinProblem):
    n, d = p.n, p.d
    adj = p.graph.adjacency()
    deg = p._deg.copy()
    rhos = 2.0 * p.alpha * deg
    # rho == 0 nodes bypass the prox entirely (their rows are overwritten
    # below), so never invert their possibly singular 2Q.
    lone = rhos == 0.0
    safe_deg = np.where(deg == 0.0, 1.0, deg).reshape(-1, 1)
    Ps = np.stack(
        [
            np.eye(d) if lone[i] else np.linalg.inv(2.0 * loss.Q + rho * np.eye(d))
            for i, (loss, rho) in enumerate(zip(p.losses, rhos))
        ]
    )
    qs = loss_stack(p).qs
    rhos_col = rhos.reshape(-1, 1)
    lone_maps = {i: _lone_node_map(p.losses[i]) for i in range(n) if lone[i]}

    def batch(W, k):
        avg = (adj @ W) / safe_deg
        new = np.einsum("nij,nj->ni", Ps, rhos_col * avg - qs)
        for i, solver in lone_maps.items():
            new[i] = solver(W[i])
        return new

    return batch


class _Recorder:
    """Per-event bookkeeping for the driver: rows, objective guard, stopping."""

    def __init__(self, stop, objective, oracle, metrics, record_every):
        self.stop = stop
        self.objective = objective
        self.metrics = metrics
        self.record_every = max(1, int(record_every))
        self.oracle = None
        if oracle is not None:
            self.oracle = np.asarray(
                getattr(oracle, "blocks", oracle), dtype=float
            ).reshape(-1)
        self.trace = Trace()
        self.f_prev = None
        self.f_guard = None

    def observe(self, k, blocks, last_event) -> str:
        """Record state k if sampled; return a terminal reason or ''."""
        dist = None
        if self.oracle is not None:
            dist = float(np.linalg.norm(blocks.reshape(-1) - self.oracle))
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
        if self.stop.dist_tol is not None and dist is not None and dist <= self.stop.dist_tol:
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
            self.trace.ks.append(k)
            self.trace.objectives.append(f)
            self.trace.dists.append(dist)
            if self.metrics is not None:
                for name, value in self.metrics(k, blocks).items():
                    self.trace.extras.setdefault(name, []).append(value)
        if f is not None:
            self.f_prev = f
        return terminal


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


def _graph_step(ops, shape, events, B, interceptor):
    """The round map of a graph run, one event at a time.

    Without events every node reads the current blocks (a synchronous
    round). With them, the active nodes of event k read each neighbor's row
    at the event the schedule names, from a ring of B + 1 state snapshots
    (the whole history when B is None); inactive nodes keep their block.
    The shared batch map replaces the per-node updates on synchronous
    events when no message hook is installed.
    """
    batch = ops[0].batch_update if interceptor is None else None
    if any(op.batch_update is not batch for op in ops):
        batch = None
    everyone = tuple(range(len(ops)))
    if events is not None:
        ring = np.empty((len(events) if B is None else B + 1,) + shape)

    def step(k, blocks):
        if events is None:
            active = everyone
        else:
            ev = events[k]
            active = ev.active
            ring[k % len(ring)] = blocks
        if batch is not None and (
            events is None
            or (active == everyone and all(r == k for i in active for r in ev.refs[i]))
        ):
            return batch(blocks, k)
        new = blocks.copy()
        for i in active:
            ids = ops[i].neighbor_ids
            if events is None:
                nbrs = blocks[ids]
            else:
                nbrs = ring[np.array(ev.refs[i], dtype=np.intp) % len(ring), ids]
            if interceptor is not None:
                for t, j in enumerate(ids):
                    nbrs[t] = interceptor(int(j), int(i), nbrs[t], k)
            new[i] = ops[i].update(blocks[i], nbrs, k)
        return new

    return step


def _checked_blocks(ops, w0) -> np.ndarray:
    blocks = getattr(w0, "blocks", w0)
    blocks = np.array(blocks, dtype=float)
    if blocks.ndim == 1:
        blocks = blocks.reshape(-1, 1)
    if blocks.ndim != 2:
        raise ValueError(f"initial state must be (n, d), got shape {blocks.shape}")
    if len(ops) != blocks.shape[0]:
        raise ValueError(f"got {len(ops)} operators for {blocks.shape[0]} blocks")
    return blocks


def run_sync(
    ops,
    w0,
    stop: StopRule,
    objective=None,
    oracle=None,
    metrics=None,
    interceptor=None,
    noise=None,
    record_every: int = 1,
):
    """Synchronous rounds: every node reads round-k state, writes round k+1.

    objective(blocks) and metrics(k, blocks) are optional per-event probes;
    interceptor(sender, receiver, value, k) rewrites messages in flight;
    noise(k, blocks) mutates state in place before each round's updates and
    its returned norm is logged. Returns (StackedParams, Trace).
    """
    blocks = _checked_blocks(ops, w0)
    step = _graph_step(ops, blocks.shape, None, None, interceptor)
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    blocks, trace = _drive(blocks, stop.max_iters, step, rec, noise)
    return StackedParams(blocks), trace


def run_async(
    ops,
    w0,
    schedule: AsyncSchedule,
    horizon: int | None = None,
    stop: StopRule | None = None,
    objective=None,
    oracle=None,
    metrics=None,
    interceptor=None,
    noise=None,
    record_every: int = 1,
):
    """Event-driven execution against a pre-generated schedule.

    At each event, inactive nodes keep their state and active nodes apply
    their operator to neighbor snapshots taken at the event indices the
    schedule prescribes. A final row is recorded at k = horizon. With every
    node active and zero delays each event equals a synchronous round
    exactly.
    """
    blocks = _checked_blocks(ops, w0)
    schedule.validate([op.neighbor_ids for op in ops])
    events = schedule.events
    if horizon is not None:
        if horizon > len(events):
            raise ValueError(
                f"horizon {horizon} exceeds the schedule's {len(events)} events"
            )
        events = events[:horizon]
    if stop is None:
        stop = StopRule(max_iters=len(events))
    kend = min(len(events), stop.max_iters)
    step = _graph_step(ops, blocks.shape, events[:kend], schedule.B, interceptor)
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    blocks, trace = _drive(blocks, kend, step, rec, noise)
    return StackedParams(blocks), trace


def _everyone_reads(nbr, r) -> AsyncEvent:
    """Every node active, reading all its neighbors at event r."""
    return AsyncEvent(
        active=tuple(range(len(nbr))), refs={i: (r,) * len(ids) for i, ids in enumerate(nbr)}
    )


def zero_delay_schedule(g, horizon: int) -> AsyncSchedule:
    """All nodes active at every event, reading current (round-k) state."""
    nbr = [g.neighbor_arrays(i)[0] for i in range(g.n)]
    events = tuple(_everyone_reads(nbr, k) for k in range(int(horizon)))
    return AsyncSchedule(n=g.n, B=0, events=events)


def gen_partially_async(
    g, B: int, horizon: int, seed: int, p_active: float = 0.5
) -> AsyncSchedule:
    """Random schedule with staleness and inactivity both bounded by B.

    Event 0 activates every node with zero delay; afterwards a node is
    forced active once it has been silent for B-1 events, so every node
    appears in any window of B consecutive events. Neighbor snapshots lag
    by at most B events.
    """
    B = int(B)
    horizon = int(horizon)
    if B < 1:
        raise ValueError(f"staleness bound must be at least 1, got {B}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = seeds.as_rng(seed)
    n = g.n
    nbr = [g.neighbor_arrays(i)[0] for i in range(n)]
    events = [_everyone_reads(nbr, 0)]
    last = [0] * n
    for k in range(1, horizon):
        draws = rng.random(n)
        active = [
            i
            for i in range(n)
            if (k - last[i] >= B) or (draws[i] < p_active)
        ]
        if not active:
            active = [int(np.argmin(last))]
        refs = {}
        for i in active:
            last[i] = k
            lags = rng.integers(0, B + 1, size=len(nbr[i]))
            refs[i] = tuple(int(max(k - s, 0)) for s in lags)
        events.append(AsyncEvent(active=tuple(active), refs=refs))
    return AsyncSchedule(n=n, B=B, events=tuple(events))


def gen_totally_async(
    g, horizon: int, seed: int, p_active: float = 0.5
) -> AsyncSchedule:
    """Random schedule with unbounded staleness.

    Delays are drawn uniformly over the whole past; every node is active at
    event 0 and forced in at the final event if it never reappeared.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = seeds.as_rng(seed)
    n = g.n
    nbr = [g.neighbor_arrays(i)[0] for i in range(n)]
    events = [_everyone_reads(nbr, 0)]
    seen = set()
    for k in range(1, horizon):
        draws = rng.random(n)
        active = [i for i in range(n) if draws[i] < p_active]
        if k == horizon - 1:
            active = sorted(set(active) | (set(range(n)) - seen))
        if not active:
            active = [int(k % n)]
        seen.update(active)
        refs = {}
        for i in active:
            lags = rng.integers(0, k + 1, size=len(nbr[i]))
            refs[i] = tuple(int(k - s) for s in lags)
        events.append(AsyncEvent(active=tuple(sorted(set(active))), refs=refs))
    return AsyncSchedule(n=n, B=None, events=tuple(events))


def async_bound(kappa: float, B: int, k: int, r0: float) -> float:
    """Distance bound kappa^(k/(2B+1)) * r0 for bounded-staleness runs."""
    kappa, r0 = float(kappa), float(r0)
    B, k = int(B), int(k)
    if not (0.0 <= kappa < 1.0):
        raise ValueError(f"contraction factor must lie in [0, 1), got {kappa}")
    if B < 0 or k < 0:
        raise ValueError("staleness bound and event index must be nonnegative")
    return kappa ** (k / (2 * B + 1)) * r0


def contraction_factor(p: GTVMinProblem) -> float:
    """Max-norm contraction factor of the block-coordinate operators.

    Per node, kappa_i = 1/(1 + sigma_i/(2 alpha d_i)) where sigma_i is the
    strong-convexity modulus; the factor for the network is the max. All
    losses must be strongly convex and the coupling positive.
    """
    if p.alpha <= 0.0:
        raise ValueError("contraction analysis requires a positive coupling")
    kappas = []
    for i, loss in enumerate(p.losses):
        sigma = getattr(loss, "sigma", None)
        if sigma is None:
            raise ValueError(f"node {i}: loss has no strong-convexity modulus")
        if sigma <= 0.0:
            raise ValueError(f"node {i}: loss is not strongly convex")
        deg = float(p._deg[i])
        if deg == 0.0:
            kappas.append(0.0)
        else:
            kappas.append(1.0 / (1.0 + sigma / (2.0 * p.alpha * deg)))
    return max(kappas)


def _server_run(client, n, sample_size, w0, stop, seed, objective, oracle, on_round):
    """Server rounds on the event driver.

    Each round samples sample_size clients uniformly without replacement;
    each returns client(i, global block, k); the server averages the
    returned blocks (sampled clients only). The global block is the
    driver's single row. Returns (global block, Trace).
    """
    rng = seeds.stream(seed, "schedule")

    def step(k, W):
        chosen = np.sort(rng.choice(n, size=sample_size, replace=False))
        locals_ = np.empty((sample_size, W.shape[1]))
        for t, i in enumerate(chosen):
            locals_[t] = client(i, W[0], k)
        new = locals_.mean(axis=0, keepdims=True)
        if on_round is not None:
            on_round(k, new[0])
        return new

    w = np.array(w0, dtype=float).reshape(1, -1)
    rec = _Recorder(stop, objective, oracle, None, 1)
    w, trace = _drive(w, stop.max_iters, step, rec, None)
    return w[0], trace


def fedavg_run(
    losses,
    n: int,
    R: int,
    sample_size: int,
    sched: LRSchedule,
    stop: StopRule,
    seed: int,
    gradients=None,
    objective=None,
    oracle=None,
    w0=None,
    on_round=None,
):
    """Server-averaged local gradient descent: each sampled client runs R
    gradient steps from the global block. Returns (global block, Trace)."""
    losses = list(losses) if losses is not None else None
    if losses is not None and len(losses) != n:
        raise ValueError(f"got {len(losses)} losses for n={n}")
    if gradients is None:
        if losses is None:
            raise ValueError("need losses or gradient oracles")
        gradients = [loss.gradient for loss in losses]
    gradients = list(gradients)
    if len(gradients) != n:
        raise ValueError(f"got {len(gradients)} gradient oracles for n={n}")
    R = int(R)
    sample_size = int(sample_size)
    if R < 1:
        raise ValueError(f"local step count must be at least 1, got {R}")
    if not (1 <= sample_size <= n):
        raise ValueError(f"sample size must lie in 1..{n}, got {sample_size}")
    if w0 is None:
        dims = [loss.d for loss in (losses or []) if getattr(loss, "d", None)]
        if not dims:
            raise ValueError("pass w0 when the dimension cannot be inferred")
        w0 = np.zeros(dims[0])

    def local_steps(i, w, k):
        eta = sched.rate(k)
        v = w.copy()
        for _ in range(R):
            v = v - eta * np.asarray(gradients[i](v), dtype=float)
        return v

    return _server_run(
        local_steps, n, sample_size, w0, stop, seed, objective, oracle, on_round
    )


def fedprox_run(
    losses,
    n: int,
    sample_size: int,
    eta: float,
    stop: StopRule,
    seed: int,
    objective=None,
    oracle=None,
    w0=None,
    on_round=None,
):
    """Server-averaged proximal updates: clients return prox(global, 2/eta)."""
    losses = list(losses)
    if len(losses) != n:
        raise ValueError(f"got {len(losses)} losses for n={n}")
    eta = float(eta)
    if not eta > 0.0:
        raise ValueError(f"proximal step eta must be positive, got {eta}")
    sample_size = int(sample_size)
    if not (1 <= sample_size <= n):
        raise ValueError(f"sample size must lie in 1..{n}, got {sample_size}")
    if w0 is None:
        w0 = np.zeros(losses[0].d)
    rho = 2.0 / eta
    return _server_run(
        lambda i, w, k: losses[i].prox(w, rho),
        n, sample_size, w0, stop, seed, objective, oracle, on_round,
    )


def agnostic_relax_step(ds, testX, neighbor_preds, alpha: float, ridge: float = 0.0):
    """One model-agnostic relaxation update for a linear node.

    Minimizes (1/m)||y - X w||^2 + alpha * sum_j A_j (1/m')||yhat_j - testX w||^2
    over w, i.e. plain least squares on the local rows augmented with one
    weighted row block per neighbor built from the shared test features and
    that neighbor's predictions on them.
    """
    testX = np.asarray(testX, dtype=float)
    if testX.ndim == 1:
        testX = testX.reshape(-1, 1)
    alpha = float(alpha)
    if alpha < 0.0:
        raise ValueError(f"coupling strength must be nonnegative, got {alpha}")
    d = ds.d
    if testX.size and testX.shape[1] != d:
        raise ValueError(
            f"test features have {testX.shape[1]} columns, local data has {d}"
        )
    mp = testX.shape[0]
    Q = np.zeros((d, d))
    q = np.zeros(d)
    if ds.m > 0:
        Q += ds.X.T @ ds.X / ds.m
        q += -2.0 / ds.m * (ds.X.T @ ds.y)
    if float(ridge) > 0.0:
        Q += float(ridge) * np.eye(d)
    if mp > 0 and alpha > 0.0:
        base = testX.T @ testX / mp
        for weight, yhat in neighbor_preds:
            weight = float(weight)
            if weight <= 0.0:
                raise ValueError(f"neighbor weight must be positive, got {weight}")
            yhat = np.asarray(yhat, dtype=float).reshape(-1)
            if yhat.shape[0] != mp:
                raise ValueError(
                    f"neighbor predictions have length {yhat.shape[0]}, "
                    f"test set has {mp}"
                )
            Q += alpha * weight * base
            q += -2.0 * alpha * weight / mp * (testX.T @ yhat)
    lam_min = float(np.linalg.eigvalsh(Q)[0]) if d else 0.0
    if lam_min <= 1e-12:
        raise ValueError(
            "augmented least squares is underdetermined "
            "(empty test set with too little local data)"
        )
    return np.linalg.solve(2.0 * Q, -q)
