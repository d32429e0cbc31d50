"""Message-passing solvers: per-node operators, one event driver, bounds."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from gtvfed import seeds
from gtvfed.gtvmin import (
    GTVMinProblem,
    StackedParams,
    batch_gradient_fn,
    eig_bounds,
    loss_stack,
)
from gtvfed.localmodel import QuadLoss
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, Trace, DIVERGENCE_FACTOR
from gtvfed.trust import RobustAgg, SenderRewrite, aggregate, aggregate_segments


@dataclass
class NodeOperator:
    """Per-node fixed-point map.

    update(own block, neighbor blocks as a (k, d) array aligned with
    neighbor_ids, event index) -> new own block. batch_update, when present,
    is a whole-round map (n, d) -> (n, d) shared by all operators of the
    run; the engines use it only when every operator carries the same one.
    It runs a synchronous round when no per-message hook is installed; an
    _ArrayRound also runs every other event as array code.
    """

    update: callable
    neighbor_ids: np.ndarray
    batch_update: callable = None


class AsyncEvent(NamedTuple):
    """One event as arrays: the active node ids, each active node's number
    of refs, and the refs themselves, in node order and then in neighbor-slot
    order. A ref is the event index the neighbor's state is read from."""

    nodes: np.ndarray
    counts: np.ndarray
    flat: np.ndarray


@dataclass(frozen=True, eq=False)
class AsyncSchedule:
    """Pre-generated event sequence; B is the staleness bound (None = none)."""

    n: int
    B: int | None
    events: tuple

    def validate(self, neighbor_ids) -> None:
        """Check the schedule against per-node neighbor lists.

        Enforces: refs aligned with neighbors and never in the future;
        staleness <= B and every node active in any B consecutive events
        (bounded case); every node active at least once (unbounded case,
        the finite-horizon reading of "infinitely often"). Reports the
        first violation in event, node and ref order.
        """
        n, B = self.n, self.B
        if len(neighbor_ids) != n:
            raise ValueError(
                f"schedule built for {n} nodes, got {len(neighbor_ids)} operators"
            )
        deg = np.array([len(ids) for ids in neighbor_ids], dtype=np.intp)
        last = np.full(n, -1)
        for k, (nodes, counts, flat) in enumerate(self.events):
            _check_event(k, nodes, counts, flat, deg, B)
            last[nodes] = k
            if B is not None and B >= 1 and k >= B - 1:
                # Active at least once in any window of B consecutive events.
                # B = 0 (zero staleness) leaves activity unconstrained: the
                # window is empty.
                idle = np.flatnonzero(last < k - B + 1)
                if idle.size:
                    raise ValueError(
                        f"node {idle[0]} inactive over events "
                        f"{k - B + 1}..{k} (window {B})"
                    )
        if B is None:
            never = np.flatnonzero(last < 0)
            if never.size:
                raise ValueError(f"node {never[0]} never active over the horizon")


def _check_event(k, nodes, counts, flat, deg, B) -> None:
    """Raise the first problem of event k: counts that disagree with the
    nodes or the refs, then, node by node, a bad or repeated id, a ref count
    that misses the degree, and each ref."""
    if counts.shape != nodes.shape or counts.sum() != flat.shape[0]:
        raise ValueError(
            f"event {k}: {nodes.shape[0]} nodes with {counts.shape[0]} ref counts "
            f"summing to {counts.sum()}, but {flat.shape[0]} refs"
        )
    n = deg.shape[0]
    inside = (nodes >= 0) & (nodes < n)
    bad = ~inside
    order = np.argsort(nodes, kind="stable")
    bad[order[1:][nodes[order][1:] == nodes[order][:-1]]] = True
    wrong = inside & (counts != deg[np.where(inside, nodes, 0)])
    late = (flat > k) | (flat < 0)
    if B is not None:
        late |= k - flat > B
    if not (bad.any() or wrong.any() or late.any()):
        return
    owner = np.repeat(np.arange(nodes.shape[0]), counts)
    flagged = bad | wrong
    flagged[owner[late]] = True
    t = int(np.argmax(flagged))
    if bad[t]:
        raise ValueError(f"event {k}: bad active set {tuple(nodes.tolist())}")
    i = int(nodes[t])
    if wrong[t]:
        raise ValueError(f"event {k}: node {i} needs {deg[i]} neighbor refs")
    r = int(flat[np.flatnonzero(late & (owner == t))[0]])
    if r > k:
        raise ValueError(f"event {k}: node {i} references future event {r}")
    if r < 0:
        raise ValueError(f"event {k}: negative event reference {r}")
    raise ValueError(f"event {k}: node {i} reads state {k - r} events old, bound is {B}")


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


_MEAN = RobustAgg.mean()


def fedgd_op(p: GTVMinProblem, sched=None, agg: RobustAgg | None = None):
    """Gradient-step operators: w_i - eta [grad L_i(w_i) + 2 alpha d_i (w_i - a_i)],
    with a_i the aggregate of the neighbor blocks under agg (the weighted
    mean by default). A node whose coupling 2 alpha d_i is zero takes a
    plain local gradient step. Returns one operator per node.
    """
    if agg is None:
        agg = _MEAN
    scheds = _node_schedules(p, sched)
    return _gd_ops(p, agg, scheds, _gd_round(p, agg, scheds))


def _gd_ops(p: GTVMinProblem, agg, scheds, batch):
    """FedGD's per-node operators, all carrying the round map batch."""
    rhos = 2.0 * p.alpha * p.graph.degree
    ops = []
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)

        def update(own, nbrs, k, loss=p.losses[i], wts=wts, sch=scheds[i], rho=float(rhos[i])):
            g = loss.gradient(own)
            if rho != 0.0:
                g = g + rho * (own - aggregate(nbrs, wts, agg))
            return own - sch.rate(k) * g

        ops.append(NodeOperator(update=update, neighbor_ids=ids, batch_update=batch))
    return ops


def _gd_round(p: GTVMinProblem, agg, scheds):
    """The round map shared by FedGD operators on a quadratic problem whose
    nodes share one schedule (None otherwise): the dense gradient step for
    synchronous mean rounds and, where _array_round applies, the array form
    of every event."""
    s0 = scheds[0]
    if not p.is_quadratic() or not all(s is s0 or s == s0 for s in scheds):
        return None
    gradfn = batch_gradient_fn(p) if agg.kind == "mean" else None
    dense = None
    if gradfn is not None:

        def dense(W, k):
            return W - s0.rate(k) * gradfn(W)

    stack = loss_stack(p)
    Qs, qs = stack.Qs, stack.qs
    rhos = 2.0 * p.alpha * p.graph.degree

    def finish(k, ids, own, avg):
        g = 2.0 * (Qs[ids] @ own[:, :, None])[:, :, 0] + qs[ids]
        if avg is not None:
            g = g + rhos[ids, None] * (own - avg)
        return own - s0.rate(k) * g

    return _array_round(p, agg, rhos, finish, dense)


def fedsgd_op(p: GTVMinProblem, batch_size: int, seed: int, sched=None):
    """Stochastic-gradient operators drawing a fresh seeded batch per event.

    The local gradient is estimated from batch_size rows sampled without
    replacement; batch sizes >= the dataset size fall back to the exact
    gradient, i.e. to fedgd_op's operators, which share fedgd_op's round map
    when every node does. Requires losses built from datasets.
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
    ops = _gd_ops(p, _MEAN, scheds, _gd_round(p, _MEAN, scheds) if all(exact) else None)
    for i, op in enumerate(ops):
        if exact[i]:
            continue
        loss = p.losses[i]

        def update(
            own, nbrs, k, ds=loss.source, rng=seeds.stream(seed, "batches", i),
            ridge2=2.0 * loss.ridge, wts=p.neighbor_arrays(i)[1], sch=scheds[i],
        ):
            idx = np.sort(rng.choice(ds.m, size=batch_size, replace=False))
            Xb = ds.X[idx]
            g = (2.0 / batch_size) * (Xb.T @ (Xb @ own - ds.y[idx]))
            if ridge2 != 0.0:
                g = g + ridge2 * own
            if wts.shape[0]:
                g = g + (2.0 * p.alpha) * (wts @ (own - nbrs))
            return own - sch.rate(k) * g

        op.update = update
    return ops


def fedrelax_op(p: GTVMinProblem, agg: RobustAgg | None = None):
    """Block-coordinate (Jacobi) operators: prox of the local loss at the
    aggregated neighbor state with penalty 2 alpha d_i.

    A node with no neighbors returns its exact local minimizer when that is
    unique, and its current block unchanged otherwise.
    """
    if agg is None:
        agg = _MEAN
    n, d = p.n, p.d
    # Shared by the closures and the round maps: P_i = (2 Q_i + rho_i I)^-1
    # (the identity at lone nodes) and each lone node's minimizer or None.
    Ps = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    rhos = 2.0 * p.alpha * p.graph.degree
    lone = {}
    ops = []
    for i in range(n):
        ids, wts = p.neighbor_arrays(i)
        loss = p.losses[i]
        rho = float(rhos[i])
        if rho == 0.0:
            w_star = lone[i] = _lone_minimizer(loss)

            def update(own, nbrs, k, w_star=w_star):
                return own.copy() if w_star is None else w_star.copy()

        elif isinstance(loss, QuadLoss):
            Ps[i] = np.linalg.inv(2.0 * loss.Q + rho * np.eye(loss.d))

            def update(own, nbrs, k, P=Ps[i], qv=loss.q, rho=rho, wts=wts, agg=agg):
                avg = aggregate(nbrs, wts, agg)
                return P @ (rho * avg - qv)

        else:

            def update(own, nbrs, k, loss=loss, rho=rho, wts=wts, agg=agg):
                avg = aggregate(nbrs, wts, agg)
                return loss.prox(avg, rho)

        ops.append(NodeOperator(update=update, neighbor_ids=ids))
    batch = _relax_round(p, agg, Ps, rhos, lone)
    for op in ops:
        op.batch_update = batch
    return ops


def _lone_minimizer(loss):
    """A node's exact local minimizer when it is unique, else None."""
    if isinstance(loss, QuadLoss) and loss.d:
        lam_min = float(np.linalg.eigvalsh(loss.Q)[0])
        if lam_min > 1e-12:
            return np.linalg.solve(2.0 * loss.Q, -loss.q)
    return None


def _relax_round(p: GTVMinProblem, agg, Ps, rhos, lone):
    """The round map shared by FedRelax operators on a quadratic problem:
    the dense mean map for synchronous rounds and, where _array_round
    applies, the array form of every event."""
    if not p.is_quadratic():
        return None
    qs = loss_stack(p).qs
    dense = None
    if agg.kind == "mean":
        adj = p.graph.adjacency()
        deg = p.graph.degree
        safe_deg = np.where(deg == 0.0, 1.0, deg)[:, None]

        def dense(W, k):
            avg = (adj @ W) / safe_deg
            new = np.einsum("nij,nj->ni", Ps, rhos[:, None] * avg - qs)
            for i, w_star in lone.items():
                new[i] = W[i] if w_star is None else w_star
            return new

    fixed = np.array([lone.get(i) is not None for i in range(p.n)])[:, None]
    w_stars = np.zeros_like(qs)
    for i, w_star in lone.items():
        if w_star is not None:
            w_stars[i] = w_star

    def finish(k, ids, own, avg):
        if avg is None:
            return np.where(fixed[ids], w_stars[ids], own)
        rhs = rhos[ids, None] * avg - qs[ids]
        return (Ps[ids] @ rhs[:, :, None])[:, :, 0]

    return _array_round(p, agg, rhos, finish, dense)


def _array_round(p: GTVMinProblem, agg, rhos, finish, dense):
    """An _ArrayRound of finish when aggregate_segments can serve agg at
    every node that aggregates, else dense (which may be None).

    The operators aggregate exactly at the nodes with coupling rhos[i] =
    2 alpha d_i != 0, and the array code exactly at the nodes with
    neighbors; the two sets must agree. The geometric median has no segment
    form, and a trim must leave every segment a block.
    """
    counts = np.diff(p.graph.indptr)
    if (
        counts[rhos == 0.0].any()
        or agg.kind == "geomedian"
        or (agg.kind == "trimmed" and (counts[counts > 0] <= 2 * agg.trim_k).any())
    ):
        return dense
    return _ArrayRound(p.graph, agg, finish, dense)


class _ArrayRound:
    """One event of quadratic FedGD or FedRelax as array code.

    One take gathers the active nodes' neighbor rows in event and CSR slot
    order, from the blocks or from the flattened snapshot ring at the
    scheduled events; a SenderRewrite overwrites the victims' rows; one
    trust.aggregate_segments call reduces each node's segment; finish(k,
    ids, own, avg) gives the new blocks of all readers at once, and of the
    nodes without neighbors with avg None. The per-node closures call the
    same kernel on one segment, and finish's stacked matmul hands each
    slice to their BLAS kernel, so both agree bit for bit. Called as (W,
    k), it is one synchronous round, or the dense map when one is given.
    """

    def __init__(self, g, agg, finish, dense=None):
        self.indptr, self.indices, self.weights = g.indptr, g.indices, g.weights
        self.counts = np.diff(self.indptr)
        self.agg, self.finish, self.dense = agg, finish, dense

    @cached_property
    def synchronous(self):
        """The plan of a synchronous round: every node reads the blocks."""
        return self.plan(np.arange(self.counts.shape[0]), None)

    def __call__(self, W, k):
        if self.dense is not None:
            return self.dense(W, k)
        return self.step(k, W, W, self.synchronous)

    def plan(self, nodes, flat):
        """The gather of one event: (nodes, senders, weights, refs, counts)
        with one sender, weight and ref (flat; None when synchronous) per
        neighbor slot of the nodes in order, and their slot counts."""
        cnt = self.counts[nodes]
        ends = np.cumsum(cnt)
        within = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - cnt, cnt)
        slots = np.repeat(self.indptr[nodes], cnt) + within
        return nodes, self.indices[slots], self.weights[slots], flat, cnt

    def step(self, k, blocks, source, plan, rewrite=None):
        """The next blocks; source is the blocks, or the snapshot ring that
        the plan's refs index modulo its length."""
        nodes, senders, weights, refs, cnt = plan
        index = senders if refs is None else refs % source.shape[0] * source.shape[1] + senders
        rows = source.reshape(-1, blocks.shape[1]).take(index, axis=0)
        if rewrite is not None:
            rewrite.apply(rows, senders)
        new = blocks.copy()
        lone = cnt == 0
        if lone.any():
            ids = nodes[lone]
            new[ids] = self.finish(k, ids, blocks[ids], None)
            nodes, cnt = nodes[~lone], cnt[~lone]
        avg = aggregate_segments(rows, weights, cnt, self.agg)
        new[nodes] = self.finish(k, nodes, blocks[nodes], avg)
        return new


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
    The operators' shared batch map replaces the per-node updates on
    synchronous events when no message hook is installed; an _ArrayRound
    runs every other event too, unless a hook other than a SenderRewrite
    is installed. The per-node updates are the reference.
    """
    batch = ops[0].batch_update
    if any(op.batch_update is not batch for op in ops):
        batch = None
    whole = batch if interceptor is None else None
    rewrite = interceptor if isinstance(interceptor, SenderRewrite) else None
    array = None
    if isinstance(batch, _ArrayRound) and (interceptor is None or rewrite is not None):
        array = batch
    everyone = np.arange(len(ops))
    if events is not None:
        ring = np.empty((len(events) if B is None else B + 1,) + shape)

    def step(k, blocks):
        if events is None:
            if whole is not None:
                return whole(blocks, k)
            if array is not None:
                return array.step(k, blocks, blocks, array.synchronous, rewrite)
            nodes, flat = everyone, None
        else:
            nodes, counts, flat = events[k]
            ring[k % len(ring)] = blocks
            if (
                whole is not None
                and nodes.shape == everyone.shape
                and (nodes == everyone).all()
                and (flat == k).all()
            ):
                return whole(blocks, k)
            if array is not None:
                return array.step(k, blocks, ring, array.plan(nodes, flat), rewrite)
            ends = np.cumsum(counts).tolist()
        new = blocks.copy()
        for t, i in enumerate(nodes.tolist()):
            ids = ops[i].neighbor_ids
            if flat is None:
                nbrs = blocks[ids]
            else:
                nbrs = ring[flat[ends[t] - len(ids) : ends[t]] % len(ring), ids]
            if interceptor is not None:
                for s, j in enumerate(ids):
                    nbrs[s] = interceptor(int(j), int(i), nbrs[s], k)
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
    schedule prescribes. The run covers the schedule's events, or the first
    stop.max_iters of them, and records a final row after the last. With
    every node active and zero delays each event equals a synchronous round
    exactly.
    """
    blocks = _checked_blocks(ops, w0)
    schedule.validate([op.neighbor_ids for op in ops])
    events = schedule.events
    if stop is None:
        stop = StopRule(max_iters=len(events))
    kend = min(len(events), stop.max_iters)
    step = _graph_step(ops, blocks.shape, events[:kend], schedule.B, interceptor)
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    blocks, trace = _drive(blocks, kend, step, rec, noise)
    return StackedParams(blocks), trace


def _everyone_reads(deg, r) -> AsyncEvent:
    """Every node active, reading all its neighbors at event r."""
    return AsyncEvent(
        np.arange(deg.shape[0]), deg, np.full(int(deg.sum()), r, dtype=np.int64)
    )


def zero_delay_schedule(g, horizon: int) -> AsyncSchedule:
    """All nodes active at every event, reading current (round-k) state."""
    deg = np.diff(g.indptr)
    events = tuple(_everyone_reads(deg, k) for k in range(int(horizon)))
    return AsyncSchedule(n=g.n, B=0, events=events)


def gen_partially_async(
    g, B: int, horizon: int, seed: int, p_active: float = 0.5
) -> AsyncSchedule:
    """Random schedule with staleness and inactivity both bounded by B.

    Event 0 activates every node with zero delay; afterwards a node is
    forced active once it has been silent for B-1 events, so every node
    appears in any window of B consecutive events. Neighbor snapshots lag
    by at most B events. Each event draws one uniform per node, then one
    lag per neighbor slot of the active nodes in a single integers call.
    """
    B = int(B)
    horizon = int(horizon)
    if B < 1:
        raise ValueError(f"staleness bound must be at least 1, got {B}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = seeds.as_rng(seed)
    n = g.n
    deg = np.diff(g.indptr)
    events = [_everyone_reads(deg, 0)]
    last = np.zeros(n, dtype=np.int64)
    for k in range(1, horizon):
        draws = rng.random(n)
        nodes = np.flatnonzero((k - last >= B) | (draws < p_active))
        if not nodes.size:
            nodes = np.array([np.argmin(last)])
        last[nodes] = k
        counts = deg[nodes]
        lags = rng.integers(0, B + 1, size=int(counts.sum()))
        events.append(AsyncEvent(nodes, counts, np.maximum(k - lags, 0)))
    return AsyncSchedule(n=n, B=B, events=tuple(events))


def gen_totally_async(
    g, horizon: int, seed: int, p_active: float = 0.5
) -> AsyncSchedule:
    """Random schedule with unbounded staleness.

    Delays are drawn uniformly over the whole past; every node is active at
    event 0 and forced in at the final event if it never reappeared. Each
    event makes one integers call for all lags of its active nodes.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = seeds.as_rng(seed)
    n = g.n
    deg = np.diff(g.indptr)
    events = [_everyone_reads(deg, 0)]
    seen = np.zeros(n, dtype=bool)
    for k in range(1, horizon):
        active = rng.random(n) < p_active
        if k == horizon - 1:
            active |= ~seen
        nodes = np.flatnonzero(active)
        if not nodes.size:
            nodes = np.array([k % n])
        seen[nodes] = True
        counts = deg[nodes]
        lags = rng.integers(0, k + 1, size=int(counts.sum()))
        events.append(AsyncEvent(nodes, counts, k - lags))
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
        deg = float(p.graph.degree[i])
        kappas.append(1.0 / (1.0 + sigma / (2.0 * p.alpha * deg)) if deg > 0.0 else 0.0)
    return max(kappas)


def _server_run(
    client, n, sample_size, w0, stop, seed, objective, oracle, on_round, record_every
):
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
    rec = _Recorder(stop, objective, oracle, None, record_every)
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
    record_every: int = 1,
):
    """Server-averaged local gradient descent: each sampled client runs R
    gradient steps from the global block. Rows are recorded every
    record_every rounds and at the last. Returns (global block, Trace)."""
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
        local_steps, n, sample_size, w0, stop, seed, objective, oracle, on_round,
        record_every,
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
    record_every: int = 1,
):
    """Server-averaged proximal updates: clients return prox(global, 2/eta);
    rows as in fedavg_run."""
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
        n, sample_size, w0, stop, seed, objective, oracle, on_round, record_every,
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
