"""Reference kernels the tests compare the package against.

The package runs one engine: run_sync and run_async step a solver's
stacked round. The per-node loop here is the engine written the plain way,
one node and one neighbour message at a time, over every past state; it
takes any sequence of per-node operators (a solver's round, or hand-built
NodeOperators) and any plain message hook. The other kernels are the
networked objective's gradients over the flat vector, a seeded noise draw
and a SenderRewrite as a per-message function.
"""

import numpy as np

from gtvfed import gtvmin
from gtvfed.graph import as_blocks
from gtvfed.gtvmin import GTVMinProblem, gd_gradient
from gtvfed.localmodel import CallableLoss
from gtvfed.optim import StopRule, _drive, _Recorder
from gtvfed.trust import DPMechanism, RobustAgg, Segments, SenderRewrite, aggregate_segments


def reference_run(ops, w0, stop=None, schedule=None, hook=None, objective=None, oracle=None,
                  metrics=None, noise=None, record_every=1):
    """The graph engine as a per-node, per-neighbour loop on optim._drive.

    Without a schedule, stop.max_iters synchronous rounds; with one, its
    events, or the first stop.max_iters of them. At event k each active
    node i reads neighbour j's row of the state the schedule names (the
    current one in a synchronous round), passes it through hook(j, i, row,
    k) when given, and calls ops[i].update(own, rows, k); the others keep
    their block. Returns ((n, d) blocks, Trace) as the engines do, and
    raises their DivergenceError.
    """
    blocks = np.array(w0, dtype=float)
    if schedule is None:
        every = np.arange(len(ops))
        events = None
        kend = stop.max_iters
    else:
        events = schedule.events
        stop = stop or StopRule(max_iters=len(events))
        kend = min(len(events), stop.max_iters)
    states = []

    def step(k, blocks):
        states.append(blocks.copy())
        if events is None:
            nodes, refs = every, np.full(sum(len(op.neighbor_ids) for op in ops), k)
        else:
            nodes, _, refs = events[k]
        new = blocks.copy()
        start = 0
        for i in nodes.tolist():
            ids = ops[i].neighbor_ids
            nbrs = np.empty((len(ids), blocks.shape[1]))
            for t, j in enumerate(ids.tolist()):
                nbrs[t] = states[refs[start + t]][j]
                if hook is not None:
                    nbrs[t] = hook(j, i, nbrs[t], k)
            start += len(ids)
            new[i] = ops[i].update(blocks[i], nbrs, k)
        return new

    rec = _Recorder(stop, objective, oracle, metrics, record_every)
    return _drive(blocks, kend, step, rec, noise)


def sender_hook(rewrite: SenderRewrite):
    """rewrite as a per-message function (sender, receiver, value, k):
    each stage whose victims include the sender replaces the value."""

    def hook(sender, receiver, value, k):
        for victims, row in rewrite.stages:
            if victims[sender]:
                value = row
        return value

    return hook


def node_gradient(p: GTVMinProblem, i: int, params) -> np.ndarray:
    """Gradient of the objective in block i."""
    W = as_blocks(params, p.n, p.d)
    ids, wts = p.graph.neighbor_arrays(i)
    g = p.losses[i].gradient(W[i])
    if wts.shape[0]:
        g = g + (2.0 * p.alpha) * (wts @ (W[i] - W[ids]))
    return g


def batch_gradient_fn(p: GTVMinProblem):
    """Vectorized all-nodes gradient (n, d) -> (n, d): gd_gradient at the
    nodes without coupling, and at the others with their neighbour means,
    trust.aggregate_segments over the blocks as in a synchronous round."""
    g, stack = p.graph, p.stack
    rhos = 2.0 * p.alpha * g.degree
    coupled = rhos != 0.0
    lone, ids = np.flatnonzero(~coupled), np.flatnonzero(coupled)
    slots = np.repeat(coupled, np.diff(g.indptr))
    segments = Segments(g.indices[slots], g.weights[slots], np.diff(g.indptr)[coupled], g.n)

    def grad(W):
        G = np.empty_like(W)
        G[lone] = gd_gradient(stack, rhos, lone, W[lone], None)
        G[ids] = gd_gradient(stack, rhos, ids, W[ids], aggregate_segments(W, segments, RobustAgg.mean()))
        return G

    return grad


def flat_loss(p: GTVMinProblem) -> CallableLoss:
    """The networked objective as a single loss over the flat vector; its
    gradient steps equal FedGD's synchronous rounds bit for bit."""
    n, d = p.n, p.d
    batch = batch_gradient_fn(p)

    def value(wflat):
        return gtvmin.objective(p, wflat.reshape(n, d))

    def gradient(wflat):
        return batch(wflat.reshape(n, d)).reshape(-1)

    return CallableLoss(value, gradient, d=n * d)


def dp_noise(block, mech: DPMechanism, node: int = 0, counter: int = 0) -> np.ndarray:
    """The block plus one seeded noise draw keyed by (node, counter)."""
    block = np.asarray(block, dtype=float)
    return block + mech.draw(block.shape, node=node, counter=counter)
