"""Message-passing solvers: per-node operators, their round maps, bounds."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gtvfed import seeds
from gtvfed.graph import as_blocks
from gtvfed.gtvmin import GTVMinProblem, eig_bounds, gd_gradient
from gtvfed.localmodel import PSD_TOL
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, _drive, _Recorder
from gtvfed.trust import RobustAgg, Segments, SenderRewrite, aggregate_segments


@dataclass
class NodeOperator:
    """Per-node fixed-point map.

    update(own block, neighbor blocks as a (k, d) array aligned with
    neighbor_ids, event index) -> new own block. batch_update, when present,
    is the _ArrayRound shared by all operators of the run; the engines run
    every event on it, synchronous or not, when every operator carries the
    same one and no message hook other than a SenderRewrite is installed.
    FedGD, FedSGD at any batch size and FedRelax carry one under every
    aggregation rule, and their update is its finish on one row; only a
    hand-built operator goes without.
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


def default_step(p: GTVMinProblem) -> float:
    """The step of a run that names none: 1/(2U) with U the spectral upper
    estimate of p, which keeps plain GD stable, or 1 for a zero problem."""
    upper = eig_bounds(p).upper
    return 1.0 / (2.0 * upper) if upper > 0.0 else 1.0


def _checked_schedule(p: GTVMinProblem, sched) -> LRSchedule:
    if sched is None:
        return LRSchedule.constant(default_step(p))
    if not isinstance(sched, LRSchedule):
        raise ValueError(f"sched must be an LRSchedule, got {type(sched).__name__}")
    return sched


_MEAN = RobustAgg.mean()


def fedgd_op(p: GTVMinProblem, sched=None, agg: RobustAgg | None = None):
    """Gradient-step operators: w_i - eta [grad L_i(w_i) + 2 alpha d_i (w_i - a_i)],
    with a_i the aggregate of the neighbor blocks under agg (the weighted
    mean by default) and eta from sched (default_step(p) when None). A node
    whose coupling 2 alpha d_i is zero takes a plain local gradient step.
    Returns one operator per node.
    """
    return _node_ops(p, _gd_round(p, _MEAN if agg is None else agg, _checked_schedule(p, sched)))


def _node_ops(p: GTVMinProblem, round):
    """One operator per node, all carrying round. Node i's update is
    round.finish on its one row, at its neighbor blocks' aggregate (one
    segment, CSR kept) when it reads them (round.counts[i] > 0), else at avg None."""
    ops = []
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)
        segment = Segments(np.arange(len(ids)), wts, [len(ids)], len(ids)) if round.counts[i] > 0 else None

        def update(own, nbrs, k, node=slice(i, i + 1), segment=segment):
            avg = None if segment is None else aggregate_segments(as_blocks(nbrs, segment.width), segment, round.agg)
            return round.finish(k, node, own[None], avg)[0]

        ops.append(NodeOperator(update=update, neighbor_ids=ids, batch_update=round))
    return ops


def _gd_round(p: GTVMinProblem, agg, sched, estimates=None):
    """The _ArrayRound of FedGD's operators under the one schedule sched.
    estimates maps FedSGD's sampled nodes to their mini-batch gradients:
    finish overwrites their rows of the exact stacked gradient with one
    estimate call each, then adds the coupling as at every other row."""
    stack = p.stack
    rhos = 2.0 * p.alpha * p.graph.degree
    if estimates:
        order = np.arange(p.n)
        sampled = np.isin(order, list(estimates))

    def finish(k, ids, own, avg):
        g = gd_gradient(stack, rhos, ids, own, None)
        if estimates:
            hit = np.flatnonzero(sampled[ids])
            for t, i in zip(hit.tolist(), order[ids][hit].tolist()):
                g[t] = estimates[i](own[t])
        if avg is not None:
            g = g + rhos[ids][:, None] * (own - avg)
        return own - sched.rate(k) * g

    return _ArrayRound(p.graph, rhos, agg, finish)


def fedsgd_op(p: GTVMinProblem, batch_size: int, seed: int, sched=None):
    """FedGD's mean-aggregate operators with a mini-batch local gradient.

    Each event, a node whose dataset holds more than batch_size rows
    estimates its gradient from batch_size rows drawn without replacement
    from its own seeded "batches" stream, one choice call per event it is
    active in. A node with at most batch_size rows takes its exact gradient;
    one warning names the nodes with fewer. The operators carry one
    _ArrayRound at any batch size. Requires losses built from datasets.
    """
    batch_size = int(batch_size)
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    sched = _checked_schedule(p, sched)
    estimates, short = {}, []
    for i, loss in enumerate(p.losses):
        if loss.source is None:
            raise ValueError(f"node {i}: stochastic gradients need a source dataset")
        m = loss.source.m
        if batch_size > m:
            short.append(i)
        elif batch_size < m:
            estimates[i] = _batch_gradient(loss, batch_size, seeds.stream(seed, "batches", i))
    if short:
        warnings.warn(
            f"batch size {batch_size} exceeds dataset size at {len(short)} of {p.n} nodes "
            f"(first: node {short[0]}, {p.losses[short[0]].source.m} rows); using the full batch",
            stacklevel=2,
        )
    return _node_ops(p, _gd_round(p, _MEAN, sched, estimates))


def _batch_gradient(loss, batch_size, rng):
    """loss's gradient estimated, per call, on batch_size rows of its
    dataset that rng draws without replacement."""
    ds, ridge2 = loss.source, 2.0 * loss.ridge

    def gradient(w):
        idx = np.sort(rng.choice(ds.m, size=batch_size, replace=False))
        Xb = ds.X[idx]
        g = (2.0 / batch_size) * (Xb.T @ (Xb @ w - ds.y[idx]))
        return g + ridge2 * w if ridge2 != 0.0 else g

    return gradient


def fedrelax_op(p: GTVMinProblem, agg: RobustAgg | None = None):
    """Block-coordinate (Jacobi) operators: prox of the local loss at the
    aggregated neighbor state with penalty 2 alpha d_i.

    A node with no neighbors returns its exact local minimizer when that is
    unique, and its current block unchanged otherwise.
    """
    return _node_ops(p, _relax_round(p, _MEAN if agg is None else agg))


def _relax_inverses(p: GTVMinProblem, rhos) -> np.ndarray:
    """(n, d, d) stack of P_i = (2 Q_i + rho_i I)^-1 at the nodes with
    rho_i != 0, the identity elsewhere. One stacked inv hands each slice to
    the LAPACK call a per-node inv makes, so each P_i has its bits."""
    n, d = p.n, p.d
    Ps = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    coupled = np.flatnonzero(rhos != 0.0)
    if coupled.size:
        Ps[coupled] = np.linalg.inv(2.0 * p.stack.Qs[coupled] + rhos[coupled, None, None] * np.eye(d))
    return Ps


def _relax_round(p: GTVMinProblem, agg):
    """The _ArrayRound of FedRelax's operators: P_i (rho_i a_i - q_i) at a
    reading node; a lone node takes its minimizer w_i* when it is unique
    (fixed) and keeps its block otherwise."""
    stack = p.stack
    qs = stack.qs
    rhos = 2.0 * p.alpha * p.graph.degree
    Ps = _relax_inverses(p, rhos)
    fixed = (rhos == 0.0) & (stack.eigenvalues()[:, 0] > 1e-12)
    w_stars = np.zeros_like(qs)
    for i in np.flatnonzero(fixed).tolist():
        w_stars[i] = np.linalg.solve(2.0 * stack.Qs[i], -qs[i])
    fixed = fixed[:, None]

    def finish(k, ids, own, avg):
        if avg is None:
            return np.where(fixed[ids], w_stars[ids], own)
        rhs = rhos[ids][:, None] * avg - qs[ids]
        return (Ps[ids] @ rhs[:, :, None])[:, :, 0]

    return _ArrayRound(p.graph, rhos, agg, finish)


class _ArrayRound:
    """Every event of FedGD, FedSGD or FedRelax as array code, any rule.

    plan lists the slots the active nodes with coupling rho_i != 0 read, in
    event and CSR slot order, as rows of a source: the blocks in a
    synchronous round (its plan, CSR included, is built once) or the
    flattened snapshot ring. step reduces every node's segment with one
    trust.aggregate_segments call; finish(k, ids, own, avg) then updates
    those nodes at once, and the others with avg None. ids indexes the
    run's stacks; a synchronous round that updates every node alike passes
    slice(None), which reads them without a copy. A per-node operator
    (_node_ops) calls the same finish on its one row, slice(i, i + 1),
    after the same kernel on its one segment, and the stacked matmul hands
    each slice to the BLAS kernel a single row gets, so every path agrees
    bit for bit. A node the rule cannot serve (a trim that leaves it no
    block) raises from the kernel at the first event it aggregates in.
    """

    def __init__(self, g, rhos, agg, finish):
        self.n, self.indptr, self.indices, self.weights = g.n, g.indptr, g.indices, g.weights
        self.linked = np.diff(self.indptr)
        self.counts = np.where(rhos != 0.0, self.linked, 0)  # the slots a node reads
        self.agg, self.finish = agg, finish
        self.synchronous = self.plan(np.arange(g.n), None, 1)  # every node reads the blocks

    def plan(self, nodes, flat, ring):
        """The reads of one event: (nodes, senders, segments, counts) with
        one sender per slot the nodes read, in order, their trust.Segments
        over ring stacked blocks (slot at row ref % ring * n + sender, refs
        from flat; None reads the blocks), and the nodes' read counts."""
        cnt = self.counts[nodes]
        ends = np.cumsum(cnt)
        within = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - cnt, cnt)
        slots = np.repeat(self.indptr[nodes], cnt) + within
        senders = self.indices[slots]
        if flat is not None and flat.shape[0] != slots.shape[0]:
            flat = flat[np.repeat(cnt > 0, self.linked[nodes])]  # drop unread refs
        index = senders if flat is None else flat % ring * self.n + senders
        return nodes, senders, Segments(index, self.weights[slots], cnt[cnt > 0], ring * self.n), cnt

    def step(self, k, blocks, source, plan, rewrite=None):
        """The next blocks; source is the blocks, or the ring the plan reads."""
        nodes, senders, segments, cnt = plan
        reads = cnt > 0
        edit = None if rewrite is None else lambda rows: rewrite.apply(rows, senders)
        avg = aggregate_segments(source.reshape(-1, blocks.shape[1]), segments, self.agg, edit) if senders.size else None
        everyone = reads.all()
        if plan is self.synchronous and (everyone or avg is None):  # a round of one kind
            return self.finish(k, slice(None), blocks, avg)
        new = blocks.copy()
        if not everyone:
            ids = nodes[~reads]
            new[ids] = self.finish(k, ids, blocks[ids], None)
            nodes = nodes[reads]
        new[nodes] = self.finish(k, nodes, blocks[nodes], avg)
        return new


def _graph_step(ops, shape, events, B, interceptor):
    """The round map of a graph run, one event at a time.

    Without events every node reads the current blocks (a synchronous
    round). With them, the active nodes of event k read each neighbor's row
    at the event the schedule names, from a ring of B + 1 state snapshots
    (the whole history when B is None); inactive nodes keep their block.
    The operators' shared _ArrayRound, when they carry one, runs every
    event, unless a hook other than a SenderRewrite is installed; a
    zero-delay event gets the bits of a synchronous round. The per-node
    loop serves only hand-built operators and plain-function hooks, and is
    the engine reference the array path is tested against.
    """
    array = ops[0].batch_update
    rewrite = interceptor if isinstance(interceptor, SenderRewrite) else None
    if any(op.batch_update is not array for op in ops) or (interceptor is not None and rewrite is None):
        array = None
    everyone = np.arange(len(ops))
    if events is not None:
        ring = np.empty((len(events) if B is None else B + 1,) + shape)

    def step(k, blocks):
        if events is None:
            if array is not None:
                return array.step(k, blocks, blocks, array.synchronous, rewrite)
            nodes, flat = everyone, None
        else:
            nodes, counts, flat = events[k]
            ring[k % len(ring)] = blocks
            if array is not None:
                return array.step(k, blocks, ring, array.plan(nodes, flat, len(ring)), rewrite)
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


def _initial_blocks(ops, w0) -> np.ndarray:
    """A copy of w0 as the engine's (n, d) state, one block per operator."""
    blocks = as_blocks(w0, name="initial state").copy()
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
    its returned norm is logged. Returns ((n, d) blocks, Trace).
    """
    blocks = _initial_blocks(ops, w0)
    step = _graph_step(ops, blocks.shape, None, None, interceptor)
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    blocks, trace = _drive(blocks, stop.max_iters, step, rec, noise)
    return blocks, trace


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
    blocks = _initial_blocks(ops, w0)
    schedule.validate([op.neighbor_ids for op in ops])
    events = schedule.events
    if stop is None:
        stop = StopRule(max_iters=len(events))
    kend = min(len(events), stop.max_iters)
    step = _graph_step(ops, blocks.shape, events[:kend], schedule.B, interceptor)
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    blocks, trace = _drive(blocks, kend, step, rec, noise)
    return blocks, trace


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

    Per node, kappa_i = 1/(1 + sigma_i/(2 alpha d_i)) where sigma_i =
    2 lambda_min(Q_i) is the strong-convexity modulus; the factor for the
    network is the max. All losses must be strongly convex and the coupling
    positive.
    """
    if p.alpha <= 0.0:
        raise ValueError("contraction analysis requires a positive coupling")
    lam = p.stack.eigenvalues()[:, 0]
    weak = np.flatnonzero(lam <= 0.0)
    if weak.size:
        i = int(weak[0])
        if lam[i] < -PSD_TOL:
            raise ValueError(f"node {i}: Q is not positive semidefinite (lambda_min = {lam[i]:.3e})")
        raise ValueError(f"node {i}: loss is not strongly convex")
    deg = p.graph.degree
    linked = deg > 0.0
    kappas = np.zeros(p.n)
    kappas[linked] = 1.0 / (1.0 + 2.0 * lam[linked] / (2.0 * p.alpha * deg[linked]))
    return float(kappas.max())


def _server_run(
    client, n, sample_size, w0, stop, seed, objective, oracle, metrics, on_round,
    record_every,
):
    """Server rounds on the event driver.

    Each round samples sample_size clients uniformly without replacement;
    each returns client(i, global block, k); the server averages the
    returned blocks (sampled clients only). The global block is the
    driver's single row, so objective(W) and metrics(k, W) see it as a
    (1, d) array. Returns (global block, Trace).
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
    rec = _Recorder(stop, objective, oracle, metrics, record_every)
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
    metrics=None,
):
    """Server-averaged local gradient descent: each sampled client runs R
    gradient steps from the global block. Rows are recorded every
    record_every rounds and at the last, with metrics(k, W) as in run_sync;
    on_round(k, w) sees each round's new global block. Returns (global
    block, Trace)."""
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
        local_steps, n, sample_size, w0, stop, seed, objective, oracle, metrics,
        on_round, record_every,
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
    metrics=None,
):
    """Server-averaged proximal updates: clients return prox(global, 2/eta);
    rows and hooks as in fedavg_run."""
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
        n, sample_size, w0, stop, seed, objective, oracle, metrics, on_round,
        record_every,
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
