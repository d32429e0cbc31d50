import re

import numpy as np
import pytest

from conftest import event
from reference import flat_loss, node_gradient, reference_run

from gtvfed import seeds, trust
from gtvfed.algorithms import (
    AsyncEvent,
    AsyncSchedule,
    NodeOperator,
    agnostic_relax_step,
    async_bound,
    contraction_factor,
    default_step,
    fedavg_run,
    fedgd_op,
    fedprox_run,
    fedrelax_op,
    fedsgd_op,
    gen_partially_async,
    gen_totally_async,
    run_async,
    run_sync,
    zero_delay_schedule,
)
from gtvfed.graph import EmpGraph, consensus_split, generate, gtv_value, is_connected
from gtvfed.gtvmin import (
    GTVMinProblem,
    eig_bounds,
    objective,
    quad_operator,
    solve_direct,
)
from gtvfed.harness import _schedule
from gtvfed.localmodel import CallableLoss, LocalDataset, QuadLoss, QuadStack, from_dataset, generate_local
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, gd_run, optimal_rate
from gtvfed.trust import AttackSpec, DPMechanism, RobustAgg, SenderRewrite, aggregate

TWO_NODE_GRAPH = EmpGraph(2, [(0, 1)])


def two_node_problem(alpha=0.5):
    losses = (
        from_dataset(LocalDataset([1.0], [0.0])),
        from_dataset(LocalDataset([1.0], [2.0])),
    )
    return GTVMinProblem(TWO_NODE_GRAPH, losses, alpha)


def strongly_convex_problem(seed, n=5, d=2, alpha=1.0, ridge=0.05):
    for attempt in range(50):
        g = generate("erdos_renyi", n, seed=seed * 100 + attempt, p=0.6)
        if is_connected(g):
            break
    rng = np.random.default_rng(seed)
    losses = []
    for i in range(n):
        w_bar = rng.standard_normal(d) * 0.5
        ds = generate_local(w_bar, int(rng.integers(d + 3, 15)), 0.3,
                            seed=seed * 1009 + i)
        losses.append(from_dataset(ds, ridge=ridge))
    return GTVMinProblem(g, losses, alpha)


# ---------------------------------------------------------------- operators


def test_fedgd_alpha_zero_is_local_gradient_step():
    p = GTVMinProblem(
        TWO_NODE_GRAPH,
        (QuadLoss([[1.0]], [0.0]), QuadLoss([[1.0]], [-4.0], c=4.0)),
        0.0,
    )
    ops = fedgd_op(p, sched=LRSchedule.constant(0.1))
    new = ops[1].update(np.array([3.0]), np.array([[0.0]]), 0)
    # grad of (w - 2)^2 at 3 is 2; step 0.1.
    assert new == pytest.approx([2.8], abs=1e-15)


def test_fedgd_fixed_point_when_gradient_zero_and_neighbors_agree():
    p = two_node_problem()
    ops = fedgd_op(p, sched=LRSchedule.constant(0.1))
    own = np.array([0.0])  # minimizer of (w - 0)^2
    new = ops[0].update(own, np.array([[0.0]]), 3)
    assert np.array_equal(new, own)


def test_fedgd_two_node_converges_to_oracle():
    p = two_node_problem()
    ops = fedgd_op(p, sched=LRSchedule.constant(0.1))
    sp, trace = run_sync(
        ops, np.zeros((2, 1)), StopRule(max_iters=2000, dist_tol=1e-7),
        oracle=solve_direct(p),
    )
    assert np.max(np.abs(sp - [[0.5], [1.5]])) <= 1e-6
    assert trace.terminal == "dist_tol"


@pytest.mark.filterwarnings("ignore:.*using the full batch")
def test_fedsgd_full_batch_matches_fedgd_bitwise():
    p = strongly_convex_problem(1)
    sched = LRSchedule.constant(0.05)
    stop = StopRule(max_iters=40)
    w0 = np.zeros((p.n, p.d))
    a, _ = run_sync(fedgd_op(p, sched=sched), w0, stop)
    b, _ = run_sync(fedsgd_op(p, batch_size=10**6, seed=0, sched=sched), w0, stop)
    assert np.array_equal(a, b)


def test_fedsgd_oversized_batch_warns():
    p = two_node_problem()
    with pytest.warns(UserWarning, match="exceeds dataset size"):
        fedsgd_op(p, batch_size=2, seed=0)
    # Every node is short: one warning for the call, not one per node.
    p = strongly_convex_problem(1)
    with pytest.warns(UserWarning, match="exceeds dataset size") as caught:
        fedsgd_op(p, batch_size=10**6, seed=0)
    assert len(caught) == 1
    assert f"at {p.n} of {p.n} nodes" in str(caught[0].message)


def test_fedsgd_batch_gradient_is_unbiased():
    rng = np.random.default_rng(5)
    ds = generate_local(rng.standard_normal(2), 30, 0.5, seed=9)
    g = EmpGraph(2, [(0, 1)])
    p = GTVMinProblem(g, (from_dataset(ds), from_dataset(ds)), 0.0)
    eta = 0.25
    ops = fedsgd_op(p, batch_size=5, seed=3, sched=LRSchedule.constant(eta))
    own = np.array([0.7, -0.3])
    nbrs = np.zeros((1, 2))
    draws = np.stack([ops[0].update(own, nbrs, k) for k in range(10_000)])
    mean_grad = (own - draws.mean(axis=0)) / eta
    exact = p.losses[0].gradient(own)
    assert np.max(np.abs(mean_grad - exact)) <= 1e-2 * np.max(np.abs(exact))


def test_fedsgd_empty_dataset_node_has_zero_data_term():
    # Node 1 holds no rows: its update is the pure coupling step.
    losses = (
        from_dataset(generate_local([1.0], 8, 0.1, seed=2)),
        from_dataset(LocalDataset(np.empty((0, 1)), np.empty(0))),
    )
    p = GTVMinProblem(TWO_NODE_GRAPH, losses, 0.5)
    eta = 0.1
    with pytest.warns(UserWarning):
        ops = fedsgd_op(p, batch_size=3, seed=0, sched=LRSchedule.constant(eta))
    own, nbr = np.array([2.0]), np.array([[0.5]])
    new = ops[1].update(own, nbr, 0)
    assert new == pytest.approx(own - eta * 2.0 * 0.5 * (own - nbr[0]), abs=1e-15)


def test_fedsgd_mini_batch_node_takes_the_fedgd_step_on_its_batch_gradient():
    rng = np.random.default_rng(4)
    g = EmpGraph(3, [(0, 1, 0.7), (0, 2, 1.9)])
    losses = [from_dataset(generate_local(rng.standard_normal(2), 9, 0.3, seed=s), ridge=0.2) for s in range(3)]
    p = GTVMinProblem(g, losses, 0.8)
    eta, batch, seed = 0.05, 4, 11
    ops = fedsgd_op(p, batch_size=batch, seed=seed, sched=LRSchedule.constant(eta))
    ids, wts = p.neighbor_arrays(0)
    ds, rho = losses[0].source, 2.0 * p.alpha * g.degree[0]
    draws = seeds.stream(seed, "batches", 0)
    for k in range(3):
        own, nbrs = rng.standard_normal(2), rng.standard_normal((ids.shape[0], 2))
        new = ops[0].update(own, nbrs, k)
        idx = np.sort(draws.choice(ds.m, size=batch, replace=False))
        Xb = ds.X[idx]
        g_b = (2.0 / batch) * (Xb.T @ (Xb @ own - ds.y[idx])) + 2.0 * losses[0].ridge * own
        assert np.array_equal(new, own - eta * (g_b + rho * (own - aggregate(nbrs, wts, RobustAgg.mean()))))


def test_fedrelax_zero_loss_node_averages_neighbors():
    g = EmpGraph(3, [(0, 1, 2.0), (0, 2, 1.0)])
    losses = (
        QuadLoss(np.zeros((2, 2)), np.zeros(2)),
        QuadLoss(np.eye(2), np.zeros(2)),
        QuadLoss(np.eye(2), np.zeros(2)),
    )
    p = GTVMinProblem(g, losses, 1.0)
    ops = fedrelax_op(p)
    nbrs = np.array([[3.0, 0.0], [0.0, 3.0]])
    new = ops[0].update(np.zeros(2), nbrs, 0)
    assert new == pytest.approx((2.0 * nbrs[0] + 1.0 * nbrs[1]) / 3.0, abs=1e-12)


def test_fedrelax_two_node_converges_to_oracle():
    p = two_node_problem()
    sp, _ = run_sync(
        fedrelax_op(p), np.zeros((2, 1)),
        StopRule(max_iters=5000, dist_tol=1e-9), oracle=solve_direct(p),
    )
    assert np.max(np.abs(sp - [[0.5], [1.5]])) <= 1e-8


def test_fedrelax_update_satisfies_its_stationarity_system():
    p = strongly_convex_problem(4, alpha=0.7)
    ops = fedrelax_op(p)
    rng = np.random.default_rng(0)
    W = rng.standard_normal((p.n, p.d))
    for i in range(p.n):
        ids, wts = p.neighbor_arrays(i)
        if not ids.size:
            continue
        nbrs = W[ids]
        new = ops[i].update(W[i], nbrs, 0)
        rho = 2.0 * p.alpha * float(wts.sum())
        avg = np.average(nbrs, axis=0, weights=wts)
        loss = p.losses[i]
        resid = (2.0 * loss.Q + rho * np.eye(p.d)) @ new - (rho * avg - loss.q)
        assert np.max(np.abs(resid)) <= 1e-10


def test_isolated_node_with_unique_minimizer_jumps_to_it():
    g = EmpGraph(2, [])
    losses = (QuadLoss([[1.0]], [-4.0]), QuadLoss([[0.0]], [0.0]))
    p = GTVMinProblem(g, losses, 1.0)
    ops = fedrelax_op(p)
    assert ops[0].update(np.array([9.0]), np.empty((0, 1)), 0) == pytest.approx([2.0])
    # Ambiguous argmin: block passes through unchanged.
    assert ops[1].update(np.array([9.0]), np.empty((0, 1)), 0) == pytest.approx([9.0])


# ------------------------------------------------------------------ engines


def test_engines_take_only_a_solver_round_and_a_sender_rewrite():
    p = two_node_problem()
    ops = fedrelax_op(p)
    w0 = np.zeros((2, 1))
    schedule = zero_delay_schedule(TWO_NODE_GRAPH, 3)
    hand_built = [NodeOperator(op.update, op.neighbor_ids) for op in ops]
    hooks = [lambda sender, receiver, value, k: value, trust.model_interceptor(AttackSpec("dos", victims=(0,)))]
    observed = []
    probes = dict(objective=lambda W: observed.append(W) or 0.0, noise=lambda k, W: observed.append(W))
    runs = [lambda ops, **kw: run_sync(ops, w0, StopRule(max_iters=3), **probes, **kw),
            lambda ops, **kw: run_async(ops, w0, schedule, **probes, **kw)]
    for run in runs:
        for bad in (hand_built, list(ops), tuple(ops)):
            with pytest.raises(ValueError, match=r"^ops must be the round fedgd_op, fedsgd_op or fedrelax_op returns, got"):
                run(bad)
        for hook in hooks:
            with pytest.raises(ValueError, match=r"^rewrite must be a trust.SenderRewrite or None, got function"):
                run(ops, rewrite=hook)
    assert observed == []  # no event ran
    for run in runs:
        run(ops, rewrite=SenderRewrite.from_specs([AttackSpec("dos", victims=(0,))], 2, 1))
    assert observed


def test_run_sync_single_node_reduces_to_gd_run():
    ds = generate_local([1.0, -2.0], 12, 0.2, seed=7)
    p = GTVMinProblem(EmpGraph(1, []), (from_dataset(ds),), 1.0)
    sched = LRSchedule.constant(0.1)
    stop = StopRule(max_iters=60)
    sp, _ = run_sync(fedgd_op(p, sched=sched), np.zeros((1, 2)), stop)
    w, _ = gd_run(p.losses[0], np.zeros(2), sched, stop)
    assert np.array_equal(sp[0], w)


@pytest.mark.parametrize(
    "eta, stop, terminal",
    [
        (0.1, StopRule(max_iters=40), "max_iters"),
        (0.1, StopRule(max_iters=500, dist_tol=1e-6), "dist_tol"),
        (0.1, StopRule(max_iters=500, obj_tol=1e-10), "obj_tol"),
        (5.0, StopRule(max_iters=500), "diverged"),
    ],
)
def test_gd_run_and_one_node_fedgd_share_the_event_loop(eta, stop, terminal):
    # A lone node is uncoupled, so FedGD is plain gradient descent: the
    # round's finish on node 0's row steps as gd_run does bit for bit, so
    # both runs record the same rows, stop on the same rule and blow up at
    # the same event.
    ds = generate_local([1.0, -2.0], 12, 0.2, seed=7)
    p = GTVMinProblem(EmpGraph(1, []), (from_dataset(ds),), 1.0)
    loss = p.losses[0]
    oracle = np.linalg.solve(2.0 * loss.Q, -loss.q)
    sched = LRSchedule.constant(eta)
    runs = []
    for run in (
        lambda: gd_run(loss, np.zeros(2), sched, stop, oracle=oracle),
        lambda: run_sync(
            fedgd_op(p, sched=sched), np.zeros((1, 2)), stop,
            objective=lambda W: loss.value(W[0]), oracle=oracle,
        ),
    ):
        try:
            _, trace = run()
            event = None
        except DivergenceError as exc:
            trace, event = exc.trace, exc.event
        runs.append((trace.ks, trace.objectives, trace.dists, trace.terminal, event))
    assert runs[0] == runs[1]
    assert runs[0][3] == terminal
    assert (runs[0][4] is not None) == (terminal == "diverged")


def test_run_sync_fedgd_matches_flat_gd_run_bitwise():
    p = strongly_convex_problem(6, alpha=1.3)
    sched = LRSchedule.constant(0.04)
    stop = StopRule(max_iters=80)
    sp, _ = run_sync(fedgd_op(p, sched=sched), np.zeros((p.n, p.d)), stop)
    w, _ = gd_run(flat_loss(p), np.zeros(p.n * p.d), sched, stop)
    assert np.array_equal(sp.reshape(-1), w)


def test_run_sync_distance_ratio_below_contraction_bound():
    p = strongly_convex_problem(8, alpha=0.5)
    b = eig_bounds(p)
    eta, kappa = optimal_rate(b.lower, b.upper)
    sp, trace = run_sync(
        fedgd_op(p, sched=LRSchedule.constant(eta)),
        np.zeros((p.n, p.d)),
        StopRule(max_iters=3000, dist_tol=1e-9),
        oracle=solve_direct(p),
    )
    dists = trace.dists
    for a, c in zip(dists, dists[1:]):
        if a > 1e-10:
            assert c <= (kappa + 1e-9) * a


def test_run_sync_rewrite_replaces_messages():
    p = two_node_problem()
    sched = LRSchedule.constant(0.1)
    stop = StopRule(max_iters=30)
    w0 = np.ones((2, 1))
    plain, _ = run_sync(fedgd_op(p, sched=sched), w0, stop)
    seen = []

    def zero_out(sender, receiver, value, k):
        seen.append((sender, receiver, k))
        return np.zeros_like(value)

    zeros = SenderRewrite.from_specs([AttackSpec("model_poison", victims=(0, 1), replacement=[0.0])], 2, 1)
    jammed, _ = run_sync(fedgd_op(p, sched=sched), w0, stop, rewrite=zeros)
    assert not np.allclose(plain, jammed)
    ref, _ = reference_run(fedgd_op(p, sched=sched), w0, stop, hook=zero_out)
    assert np.array_equal(jammed, ref)
    assert (1, 0, 0) in seen and (0, 1, 0) in seen


def test_fedgd_step_ignores_non_neighbor_blocks():
    g = generate("chain", 4)  # 0-1-2-3: node 0 never sees node 3
    losses = tuple(from_dataset(generate_local([0.5], 6, 0.1, seed=i)) for i in range(4))
    p = GTVMinProblem(g, losses, 1.0)
    ops = fedgd_op(p, sched=LRSchedule.constant(0.05))
    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 1))
    W2 = W.copy()
    W2[3] += 17.0
    stop = StopRule(max_iters=1)
    a, _ = run_sync(ops, W, stop)
    b, _ = run_sync(ops, W2, stop)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[2], b[2])


def test_pseudo_contraction_runs_share_one_fixed_point():
    p = strongly_convex_problem(10, alpha=2.0)
    tol = 1e-8
    stop = StopRule(max_iters=20_000, dist_tol=tol)
    oracle = solve_direct(p)
    rng = np.random.default_rng(1)
    a, ta = run_sync(fedrelax_op(p), rng.standard_normal((p.n, p.d)), stop, oracle=oracle)
    b, tb = run_sync(fedrelax_op(p), rng.standard_normal((p.n, p.d)) * 5.0, stop,
                     oracle=oracle)
    assert ta.terminal == "dist_tol" and tb.terminal == "dist_tol"
    assert float(np.linalg.norm(a.reshape(-1) - b.reshape(-1))) <= 2 * tol


def test_max_norm_contraction_per_round():
    p = strongly_convex_problem(12, alpha=1.0)
    kappa = contraction_factor(p)
    assert 0.0 < kappa < 1.0
    target = solve_direct(p)

    def dist_inf(k, blocks):
        return {"dist_inf": float(np.max(np.linalg.norm(blocks - target, axis=1)))}

    _, trace = run_sync(
        fedrelax_op(p), np.zeros((p.n, p.d)), StopRule(max_iters=400),
        metrics=dist_inf,
    )
    seq = trace.extras["dist_inf"]
    for a, c in zip(seq, seq[1:]):
        if a > 1e-12:
            assert c <= (kappa + 1e-9) * a


# ------------------------------------------------------------- async engine


def test_zero_delay_schedule_matches_run_sync_bitwise():
    p = strongly_convex_problem(14, alpha=0.8)
    stop = StopRule(max_iters=50)
    w0 = np.full((p.n, p.d), 0.3)
    for make in (lambda: fedgd_op(p, sched=LRSchedule.constant(0.05)),
                 lambda: fedrelax_op(p)):
        s, _ = run_sync(make(), w0, stop)
        a, _ = run_async(make(), w0, zero_delay_schedule(p.graph, 50), stop=stop)
        assert np.array_equal(s, a)


def test_partially_async_fedrelax_converges():
    p = strongly_convex_problem(16, alpha=1.0)
    sched = gen_partially_async(p.graph, B=5, horizon=4000, seed=11)
    sp, trace = run_async(
        fedrelax_op(p), np.zeros((p.n, p.d)), sched,
        stop=StopRule(max_iters=4000, dist_tol=1e-7), oracle=solve_direct(p),
    )
    assert trace.terminal == "dist_tol"
    assert float(np.linalg.norm(sp.reshape(-1) - solve_direct(p).reshape(-1))) <= 1e-6


def test_partially_async_error_respects_staleness_bound():
    p = strongly_convex_problem(18, alpha=1.5)
    kappa = contraction_factor(p)
    target = solve_direct(p)
    w0 = np.zeros((p.n, p.d))
    r0 = float(np.max(np.linalg.norm(w0 - target, axis=1)))

    def dist_inf(k, blocks):
        return {"dist_inf": float(np.max(np.linalg.norm(blocks - target, axis=1)))}

    for seed in (0, 1):
        B = 3
        sched = gen_partially_async(p.graph, B=B, horizon=600, seed=seed)
        _, trace = run_async(fedrelax_op(p), w0, sched,
                             stop=StopRule(max_iters=600), metrics=dist_inf)
        for k, d in zip(trace.ks, trace.extras["dist_inf"]):
            assert d <= async_bound(kappa, B, k, r0) * (1 + 1e-6)


def test_permanently_inactive_node_never_changes():
    # Declared staleness window larger than the horizon: node 1 may stay
    # silent for the whole (short) run.
    p = two_node_problem()
    events = tuple(event([0], {0: (k,)}) for k in range(3))
    sched = AsyncSchedule(n=2, B=10, events=events)
    w0 = np.array([[4.0], [-7.0]])
    sp, _ = run_async(fedrelax_op(p), w0, sched)
    assert sp[1, 0] == -7.0
    assert sp[0, 0] != 4.0


def test_schedule_validation_errors():
    deg = [1, 1]
    future = AsyncSchedule(
        n=2, B=None,
        events=(event([0, 1], {0: (5,), 1: (0,)}),),
    )
    with pytest.raises(ValueError, match="future"):
        future.validate(deg)
    stale = AsyncSchedule(
        n=2, B=1,
        events=(
            event([0, 1], {0: (0,), 1: (0,)}),
            event([0, 1], {0: (1,), 1: (1,)}),
            event([0, 1], {0: (0,), 1: (2,)}),
        ),
    )
    with pytest.raises(ValueError, match="events old"):
        stale.validate(deg)
    lazy = AsyncSchedule(
        n=2, B=None,
        events=(event([0], {0: (0,)}),) * 4,
    )
    with pytest.raises(ValueError, match="never active"):
        lazy.validate(deg)
    window = AsyncSchedule(
        n=2, B=2,
        events=(
            event([0, 1], {0: (0,), 1: (0,)}),
            event([0], {0: (1,)}),
            event([0], {0: (2,)}),
        ),
    )
    with pytest.raises(ValueError, match="inactive over events"):
        window.validate(deg)


@pytest.mark.parametrize(
    "counts, flat, message",
    [
        ([1, 2, 1], [0, 0, 0], "3 nodes with 3 ref counts summing to 4, but 3 refs"),
        ([1, 2, 1], [0] * 5, "3 nodes with 3 ref counts summing to 4, but 5 refs"),
        ([1, 2], [0] * 3, "3 nodes with 2 ref counts summing to 3, but 3 refs"),
    ],
)
def test_validate_rejects_event_arrays_that_disagree(counts, flat, message):
    # Counts that match the degrees and in-range refs would pass the other
    # checks; the engine would then read the wrong neighbor slots.
    g = generate("chain", 3)
    deg = np.diff(g.indptr)
    ev = AsyncEvent(np.arange(3), np.array(counts), np.array(flat, dtype=np.int64))
    with pytest.raises(ValueError, match=f"event 0: {message}"):
        AsyncSchedule(n=3, B=None, events=(ev,)).validate(deg)


def test_generated_schedules_validate_and_repeat_bit_for_bit():
    g = generate("erdos_renyi", 6, seed=4, p=0.5)
    deg = np.diff(g.indptr)
    part = gen_partially_async(g, B=4, horizon=200, seed=2)
    part.validate(deg)
    assert part.events[0].nodes.tolist() == list(range(6))
    total = gen_totally_async(g, horizon=200, seed=2)
    total.validate(deg)
    again = gen_partially_async(g, B=4, horizon=200, seed=2)
    for a, b in zip(again.events, part.events, strict=True):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_async_bound_values():
    assert async_bound(0.3, 0, 1, 2.0) == pytest.approx(0.6)
    assert async_bound(0.5, 1, 3, 1.0) == pytest.approx(0.5)
    assert async_bound(0.5, 1, 0, 7.0) == 7.0
    with pytest.raises(ValueError):
        async_bound(1.0, 1, 1, 1.0)


ZERO_PROBLEM = GTVMinProblem(TWO_NODE_GRAPH, (QuadLoss([[0.0]], [0.0]),) * 2, 0.0)
ONE_LOSS = (QuadLoss([[1.0]], [0.0]),)
STOP = StopRule(max_iters=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fedgd_op(two_node_problem(), sched=[LRSchedule.constant(0.1)]), "sched must be an LRSchedule, got list"),
        (lambda: fedsgd_op(two_node_problem(), batch_size=0, seed=0), "batch size must be at least 1, got 0"),
        (lambda: run_sync(fedrelax_op(two_node_problem()), np.zeros((2, 1, 1)), STOP),
         "initial state must be (n, d), got shape (2, 1, 1)"),
        (lambda: run_sync(fedrelax_op(two_node_problem()), np.zeros((3, 1)), STOP), "got 2 operators for 3 blocks"),
        (lambda: gen_partially_async(TWO_NODE_GRAPH, 0, 5, seed=0), "staleness bound must be at least 1, got 0"),
        (lambda: gen_partially_async(TWO_NODE_GRAPH, 1, 0, seed=0), "horizon must be at least 1, got 0"),
        (lambda: gen_totally_async(TWO_NODE_GRAPH, 0, seed=0), "horizon must be at least 1, got 0"),
        (lambda: async_bound(0.5, -1, 1, 1.0), "staleness bound and event index must be nonnegative"),
        (lambda: fedavg_run(ONE_LOSS, 0, 1, LRSchedule.constant(0.1), STOP, 0),
         "local step count must be at least 1, got 0"),
        (lambda: fedavg_run(ONE_LOSS, 1, 2, LRSchedule.constant(0.1), STOP, 0), "sample size must lie in 1..1, got 2"),
        (lambda: fedprox_run(ONE_LOSS, 1, 0.0, STOP, 0), "proximal step eta must be positive, got 0.0"),
        (lambda: fedprox_run(ONE_LOSS, 0, 0.5, STOP, 0), "sample size must lie in 1..1, got 0"),
        (lambda: run_sync(fedrelax_op(two_node_problem()), np.zeros((2, 1)), STOP, record_every=0),
         "record_every must be at least 1, got 0"),
        (lambda: run_async(fedrelax_op(two_node_problem()), np.zeros((2, 1)), zero_delay_schedule(TWO_NODE_GRAPH, 1),
                           record_every=0), "record_every must be at least 1, got 0"),
        (lambda: fedavg_run(ONE_LOSS, 1, 1, LRSchedule.constant(0.1), STOP, 0, record_every=-2),
         "record_every must be at least 1, got -2"),
        (lambda: DPMechanism("gaussian", sigma=float("nan")), "sigma must be finite, got nan"),
        (lambda: DPMechanism("gaussian", sigma=float("inf")), "sigma must be finite, got inf"),
        (lambda: DPMechanism("laplace", b=float("nan")), "scale b must be finite, got nan"),
        (lambda: LRSchedule("constant", float("inf")), "step size must be positive and finite, got inf"),
    ],
)
def test_argument_checks_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_parameter_blocks_are_plain_arrays():
    """The engines and the oracle return (n, d) arrays; every entry point
    reads a 1-D array of n entries as the blocks at d = 1 and rejects other
    shapes."""
    p = strongly_convex_problem(3)
    w0 = np.zeros((p.n, p.d))
    for out in (
        run_sync(fedgd_op(p), w0, StopRule(max_iters=4))[0],
        run_async(fedgd_op(p), w0, zero_delay_schedule(p.graph, 4))[0],
        solve_direct(p),
        quad_operator(p).solve(p.stack.qs),
    ):
        assert type(out) is np.ndarray and out.shape == (p.n, p.d)

    q = two_node_problem()
    flat, blocks = np.array([0.5, 1.5]), np.array([[0.5], [1.5]])
    schedule = zero_delay_schedule(TWO_NODE_GRAPH, 3)
    assert np.array_equal(run_sync(fedrelax_op(q), flat, STOP)[0], run_sync(fedrelax_op(q), blocks, STOP)[0])
    assert np.array_equal(run_async(fedrelax_op(q), flat, schedule)[0], run_async(fedrelax_op(q), blocks, schedule)[0])
    assert objective(q, flat) == objective(q, blocks)
    assert np.array_equal(node_gradient(q, 1, flat), node_gradient(q, 1, blocks))
    assert gtv_value(TWO_NODE_GRAPH, flat) == gtv_value(TWO_NODE_GRAPH, blocks)
    assert np.array_equal(consensus_split(flat).deviations, consensus_split(blocks).deviations)

    for engine in (lambda w: run_sync(fedrelax_op(q), w, STOP), lambda w: run_async(fedrelax_op(q), w, schedule)):
        with pytest.raises(ValueError, match=re.escape("initial state must be (n, d), got shape (2, 1, 1)")):
            engine(np.zeros((2, 1, 1)))
        with pytest.raises(ValueError, match=re.escape("got 2 operators for 3 blocks")):
            engine(np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("parameters must be (5, 2), got shape (10,)")):
        objective(p, np.zeros(10))
    with pytest.raises(ValueError, match=re.escape("parameters must be (5, d), got shape (4, 2)")):
        gtv_value(p.graph, np.zeros((4, 2)))
    with pytest.raises(ValueError, match=re.escape("parameters must be (n, d), got shape ()")):
        consensus_split(0.0)


def test_default_step_is_the_pipeline_step():
    algo = {"eta": None, "schedule": "constant"}
    p = strongly_convex_problem(2)
    sched = _schedule(algo, p)
    assert sched == LRSchedule.constant(1.0 / (2.0 * eig_bounds(p).upper))
    w0 = np.random.default_rng(0).standard_normal((p.n, p.d))
    a, _ = run_sync(fedgd_op(p), w0, StopRule(max_iters=5))
    b, _ = run_sync(fedgd_op(p, sched=sched), w0, StopRule(max_iters=5))
    assert np.array_equal(a, b)
    # A zero problem takes step 1 in both; its operators build and run.
    assert _schedule(algo, ZERO_PROBLEM) == LRSchedule.constant(1.0) == LRSchedule.constant(default_step(ZERO_PROBLEM))
    sp, _ = run_sync(fedgd_op(ZERO_PROBLEM), np.ones((2, 1)), StopRule(max_iters=2))
    assert np.array_equal(sp, np.ones((2, 1)))


def test_contraction_factor_limits():
    g = EmpGraph(2, [(0, 1)])
    stiff = QuadLoss(np.array([[5e11]]), np.zeros(1))  # sigma = 1e12
    p = GTVMinProblem(g, (stiff, stiff), 1.0)
    assert contraction_factor(p) < 1e-6
    flat = QuadLoss(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError, match="strongly convex"):
        contraction_factor(GTVMinProblem(g, (flat, flat), 1.0))
    with pytest.raises(ValueError, match="positive coupling"):
        contraction_factor(GTVMinProblem(g, (stiff, stiff), 0.0))


# ------------------------------------------------------- server-side methods


def test_fedavg_single_client_single_step_is_gd():
    loss = from_dataset(generate_local([2.0, -1.0], 10, 0.3, seed=21))
    sched = LRSchedule.constant(0.08)
    stop = StopRule(max_iters=40)
    w, _ = fedavg_run([loss], R=1, sample_size=1, sched=sched, stop=stop, seed=0)
    ref, _ = gd_run(loss, np.zeros(2), sched, stop)
    assert np.array_equal(w, ref)


def test_fedavg_identical_clients_match_single_client():
    loss = from_dataset(generate_local([1.0], 15, 0.2, seed=22))
    sched = LRSchedule.constant(0.1)
    stop = StopRule(max_iters=30)
    w, _ = fedavg_run([loss] * 5, R=1, sample_size=5, sched=sched, stop=stop,
                      seed=3)
    ref, _ = gd_run(loss, np.zeros(1), sched, stop)
    assert np.max(np.abs(w - ref)) <= 1e-12


def test_fedavg_multiple_local_steps_and_sampling_run():
    losses = [from_dataset(generate_local([1.0, 1.0], 12, 0.3, seed=30 + i))
              for i in range(6)]
    w, trace = fedavg_run(losses, R=4, sample_size=3,
                          sched=LRSchedule.constant(0.05),
                          stop=StopRule(max_iters=200), seed=5)
    assert np.all(np.isfinite(w))
    assert trace.terminal == "max_iters"
    again, _ = fedavg_run(losses, R=4, sample_size=3,
                          sched=LRSchedule.constant(0.05),
                          stop=StopRule(max_iters=200), seed=5)
    assert np.array_equal(w, again)


def test_fedprox_zero_losses_do_nothing():
    losses = [QuadLoss(np.zeros((2, 2)), np.zeros(2)) for _ in range(3)]
    w0 = np.array([1.5, -2.5])
    w, _ = fedprox_run(losses, sample_size=3, eta=1.0,
                       stop=StopRule(max_iters=10), seed=0, w0=w0)
    assert np.array_equal(w, w0)


def test_fedprox_tiny_step_barely_moves():
    losses = [from_dataset(generate_local([3.0], 8, 0.2, seed=40 + i))
              for i in range(4)]
    w0 = np.zeros(1)
    w, _ = fedprox_run(losses, sample_size=4, eta=1e-9,
                       stop=StopRule(max_iters=50), seed=0, w0=w0)
    assert float(np.max(np.abs(w - w0))) <= 1e-6


def test_fedprox_two_symmetric_quadratics_meet_in_the_middle():
    losses = [QuadLoss([[1.0]], [0.0]), QuadLoss([[1.0]], [-4.0], c=4.0)]
    w, _ = fedprox_run(losses, sample_size=2, eta=1.0,
                       stop=StopRule(max_iters=100), seed=0)
    assert w == pytest.approx([1.0], abs=1e-6)


SERVER_RUNS = {
    "fedavg": lambda losses, sample_size=1, **kw: fedavg_run(
        losses, 1, sample_size, LRSchedule.constant(0.1), STOP, 0, **kw
    ),
    "fedprox": lambda losses, sample_size=1, **kw: fedprox_run(losses, sample_size, 0.5, STOP, 0, **kw),
}
TWO_CLIENTS = (QuadLoss(np.eye(2), [0.0, 1.0]), QuadLoss(2.0 * np.eye(2), [1.0, 0.0]))


@pytest.mark.parametrize("kind", sorted(SERVER_RUNS))
@pytest.mark.parametrize(
    "args, message",
    [
        ({"losses": (QuadLoss([[1.0]], [0.0]), CallableLoss(lambda w: w @ w, lambda w: 2.0 * w, d=1))},
         "node 1: a server run takes a QuadLoss, got CallableLoss"),
        ({"losses": TWO_CLIENTS, "sample_size": 0}, "sample size must lie in 1..2, got 0"),
        ({"losses": QuadStack.of(TWO_CLIENTS), "sample_size": 3}, "sample size must lie in 1..2, got 3"),
        ({"losses": TWO_CLIENTS, "w0": np.zeros((2, 2))}, "w0 must have shape (2,), got (2, 2)"),
        ({"losses": TWO_CLIENTS, "w0": np.zeros(3)}, "w0 must have shape (2,), got (3,)"),
        ({"losses": TWO_CLIENTS, "w0": np.zeros(1)}, "w0 must have shape (2,), got (1,)"),
    ],
)
def test_server_runs_reject_bad_arguments_before_the_first_round(kind, args, message):
    events = []
    with pytest.raises(ValueError, match=re.escape(message)):
        SERVER_RUNS[kind](**args, metrics=lambda k, W: events.append(k) or {})
    assert events == []


# ------------------------------------------------------ model-agnostic step


def test_agnostic_step_alpha_zero_is_local_least_squares():
    ds = generate_local([1.0, -2.0], 20, 0.4, seed=50)
    w = agnostic_relax_step(ds, np.empty((0, 2)), [], alpha=0.0)
    ref = np.linalg.lstsq(ds.X, ds.y, rcond=None)[0]
    assert np.max(np.abs(w - ref)) <= 1e-10


def test_agnostic_step_own_predictions_are_a_fixed_point():
    ds = generate_local([0.5, 1.5], 25, 0.3, seed=51)
    w_star = np.linalg.lstsq(ds.X, ds.y, rcond=None)[0]
    testX = np.random.default_rng(0).standard_normal((15, 2))
    preds = [(1.0, testX @ w_star), (0.5, testX @ w_star)]
    w = agnostic_relax_step(ds, testX, preds, alpha=2.0)
    assert np.max(np.abs(w - w_star)) <= 1e-9


def test_agnostic_step_scalar_ones_features_matches_fedrelax():
    p = two_node_problem(alpha=0.8)
    ops = fedrelax_op(p)
    w1 = np.array([1.7])
    via_op = ops[0].update(np.array([0.0]), w1.reshape(1, 1), 0)
    mp = 9
    testX = np.ones((mp, 1))
    via_step = agnostic_relax_step(
        p.losses[0].source, testX, [(1.0, np.full(mp, w1[0]))], alpha=0.8
    )
    assert np.max(np.abs(via_op - via_step)) <= 1e-10


def test_agnostic_step_rejects_bad_shapes():
    ds = generate_local([1.0], 5, 0.1, seed=52)
    with pytest.raises(ValueError, match="columns"):
        agnostic_relax_step(ds, np.ones((3, 2)), [], alpha=1.0)
    with pytest.raises(ValueError, match="length"):
        agnostic_relax_step(ds, np.ones((3, 1)), [(1.0, np.zeros(2))], alpha=1.0)
    with pytest.raises(ValueError, match="underdetermined"):
        empty = LocalDataset(np.empty((0, 1)), np.empty(0))
        agnostic_relax_step(empty, np.empty((0, 1)), [], alpha=1.0)
