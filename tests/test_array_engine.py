"""The array event engine against its per-node references, bit for bit:
schedules, schedule validation, stacked aggregation, defended rounds and
server-run sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import event

from gtvfed import harness, seeds, trust
from gtvfed.algorithms import (
    _ArrayRound,
    _relax_inverses,
    AsyncSchedule,
    fedgd_op,
    fedrelax_op,
    fedsgd_op,
    gen_partially_async,
    gen_totally_async,
    run_async,
    run_sync,
    zero_delay_schedule,
)
from gtvfed.graph import EmpGraph, generate
from gtvfed.gtvmin import GTVMinProblem, eig_bounds
from gtvfed.harness import parse_config, run_experiment
from gtvfed.localmodel import QuadLoss, from_dataset, generate_local
from gtvfed.optim import LRSchedule, StopRule
from gtvfed.trust import RobustAgg, Segments, SenderRewrite, aggregate, aggregate_segments, model_interceptor

from test_engine import reference_async

# ------------------------------------------------------------ RNG assumption


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(2, 6), st.integers(7, 400)),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 5),
)
def test_one_integers_call_equals_two_consecutive_calls(seed, bound, m1, m2, between):
    # The generators draw all lags of an event in one call where the
    # per-node reference made one call per node. PCG64 buffers the spare
    # 32-bit half of a 64-bit output in the bit generator, so the split does
    # not change the stream, also across the uniform draws in between.
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    one.random(between)
    two.random(between)
    joined = one.integers(0, bound, size=m1 + m2)
    split = np.concatenate([two.integers(0, bound, size=m1), two.integers(0, bound, size=m2)])
    assert np.array_equal(joined, split)
    assert one.random() == two.random()


# ----------------------------------------------- per-node reference schedules


def reference_partially_async(g, B, horizon, seed, p_active=0.5):
    """The bounded-staleness generator with one integers call per node."""
    rng = seeds.as_rng(seed)
    n = g.n
    nbr = [g.neighbor_arrays(i)[0] for i in range(n)]
    events = [event(range(n), {i: (0,) * len(ids) for i, ids in enumerate(nbr)})]
    last = [0] * n
    for k in range(1, horizon):
        draws = rng.random(n)
        active = [i for i in range(n) if (k - last[i] >= B) or (draws[i] < p_active)]
        if not active:
            active = [int(np.argmin(last))]
        refs = {}
        for i in active:
            last[i] = k
            lags = rng.integers(0, B + 1, size=len(nbr[i]))
            refs[i] = tuple(int(max(k - s, 0)) for s in lags)
        events.append(event(active, refs))
    return AsyncSchedule(n, B, tuple(events))


def reference_totally_async(g, horizon, seed, p_active=0.5):
    """The unbounded generator with one integers call per node."""
    rng = seeds.as_rng(seed)
    n = g.n
    nbr = [g.neighbor_arrays(i)[0] for i in range(n)]
    events = [event(range(n), {i: (0,) * len(ids) for i, ids in enumerate(nbr)})]
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
        events.append(event(sorted(set(active)), refs))
    return AsyncSchedule(n, None, tuple(events))


def with_isolated(g, extra):
    """g plus `extra` nodes without edges."""
    return EmpGraph(g.n + extra, g.edges)


GRAPHS = st.builds(
    lambda n, p, seed, extra: with_isolated(generate("erdos_renyi", n, seed=seed, p=p), extra),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.3, 0.8]),
    st.integers(0, 10**6),
    st.integers(0, 2),
)
P_ACTIVE = st.sampled_from([0.0, 0.3, 0.5, 1.0])


def assert_same_schedule(fast, ref):
    assert (fast.n, fast.B) == (ref.n, ref.B)
    assert len(fast.events) == len(ref.events)
    for a, b in zip(fast.events, ref.events):
        for x, y in zip(a, b, strict=True):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


@settings(max_examples=80, deadline=None)
@given(GRAPHS, st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**63), P_ACTIVE)
def test_partially_async_matches_the_per_node_generator(g, B, horizon, seed, p_active):
    fast = gen_partially_async(g, B, horizon, seed, p_active=p_active)
    assert_same_schedule(fast, reference_partially_async(g, B, horizon, seed, p_active))
    fast.validate([g.neighbor_arrays(i)[0] for i in range(g.n)])


@settings(max_examples=80, deadline=None)
@given(GRAPHS, st.integers(1, 40), st.integers(0, 2**63), P_ACTIVE)
def test_totally_async_matches_the_per_node_generator(g, horizon, seed, p_active):
    fast = gen_totally_async(g, horizon, seed, p_active=p_active)
    assert_same_schedule(fast, reference_totally_async(g, horizon, seed, p_active))
    fast.validate([g.neighbor_arrays(i)[0] for i in range(g.n)])


def test_generators_at_benchmark_size_and_long_horizons():
    g = generate("erdos_renyi", 200, seed=3, p=0.1)
    for B in (1, 3, 5):
        fast = gen_partially_async(g, B, 30, seed=B)
        assert_same_schedule(fast, reference_partially_async(g, B, 30, B))
    fast = gen_totally_async(g, 300, seed=9)
    assert_same_schedule(fast, reference_totally_async(g, 300, 9))


# --------------------------------------------------------- schedule checking


def reference_validate(schedule, neighbor_ids):
    """The per-node schedule check the array code replaced."""
    n, B = schedule.n, schedule.B
    if len(neighbor_ids) != n:
        raise ValueError(f"schedule built for {n} nodes, got {len(neighbor_ids)} operators")
    last = [-1] * n
    for k, (nodes, counts, flat) in enumerate(schedule.events):
        seen = set()
        start = 0
        for i, count in zip(nodes.tolist(), counts.tolist()):
            refs = flat[start : start + count].tolist()
            start += count
            if not (0 <= i < n) or i in seen:
                raise ValueError(f"event {k}: bad active set {tuple(nodes.tolist())}")
            seen.add(i)
            last[i] = k
            ids = neighbor_ids[i]
            if len(refs) != len(ids):
                raise ValueError(f"event {k}: node {i} needs {len(ids)} neighbor refs")
            for r in refs:
                if r > k:
                    raise ValueError(f"event {k}: node {i} references future event {r}")
                if r < 0:
                    raise ValueError(f"event {k}: negative event reference {r}")
                if B is not None and k - r > B:
                    raise ValueError(
                        f"event {k}: node {i} reads state {k - r} events old, bound is {B}"
                    )
        if B is not None and B >= 1 and k >= B - 1:
            for i in range(n):
                if last[i] < k - B + 1:
                    raise ValueError(
                        f"node {i} inactive over events {k - B + 1}..{k} (window {B})"
                    )
    if B is None:
        for i in range(n):
            if last[i] < 0:
                raise ValueError(f"node {i} never active over the horizon")


def outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def damaged_schedules(draw):
    """A generated schedule, hand-built again with a few random faults."""
    n = draw(st.integers(1, 6))
    g = generate("erdos_renyi", n, seed=draw(st.integers(0, 1000)), p=0.6)
    B = draw(st.sampled_from([None, 0, 1, 2, 3]))
    horizon = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 1000))
    if B is None:
        base = gen_totally_async(g, horizon, seed)
    else:
        base = gen_partially_async(g, max(B, 1), horizon, seed)
    events = []
    for nodes, counts, flat in base.events:
        ends = np.cumsum(counts).tolist()
        slots = zip(nodes.tolist(), counts.tolist(), ends)
        events.append([nodes.tolist(), {i: flat[end - c : end].tolist() for i, c, end in slots}])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, horizon - 1))
        active, refs = events[k]
        fault = draw(st.sampled_from(["node", "repeat", "drop", "ref", "ref", "ref", "short", "idle"]))
        if fault == "node":
            active.append(draw(st.sampled_from([-1, n, n + 3])))
        elif fault == "repeat" and active:
            active.insert(draw(st.integers(0, len(active))), draw(st.sampled_from(active)))
        elif fault == "drop" and refs:
            # Count 0 and no refs: a valid event for a node without neighbours.
            refs.pop(draw(st.sampled_from(sorted(refs))))
        elif fault == "ref":
            nonempty = [i for i in sorted(refs) if refs[i]]
            if nonempty:
                i = draw(st.sampled_from(nonempty))
                t = draw(st.integers(0, len(refs[i]) - 1))
                refs[i][t] = draw(st.integers(-3, k + 3))
        elif fault == "short" and refs:
            i = draw(st.sampled_from(sorted(refs)))
            refs[i] = refs[i][:-1] if refs[i] else [0]
        elif fault == "idle" and active:
            active.remove(draw(st.sampled_from(active)))
    hand = tuple(event(active, refs) for active, refs in events)
    nbr = [g.neighbor_arrays(i)[0] for i in range(n)]
    return AsyncSchedule(n, B, hand), nbr


@settings(max_examples=300, deadline=None)
@given(damaged_schedules())
def test_validate_reports_what_the_per_node_check_reports(case):
    schedule, nbr = case
    assert outcome(schedule.validate, nbr) == outcome(reference_validate, schedule, nbr)
    extra = nbr + [np.zeros(0, dtype=np.intp)]
    assert outcome(schedule.validate, extra) == outcome(reference_validate, schedule, extra)


# ------------------------------------------------------- stacked aggregation

RULES = [
    RobustAgg.mean(),
    RobustAgg.clipped(-0.4, 0.6),
    RobustAgg.trimmed(0),
    RobustAgg.trimmed(1),
    RobustAgg.trimmed(2),
    RobustAgg.trimmed(3),
]


def rowwise(weights, counts):
    """The Segments of slots that read the source rows in order."""
    return Segments(np.arange(weights.shape[0]), weights, counts, weights.shape[0])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 9),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from(RULES),
)
def test_stacked_aggregate_equals_per_node_aggregate(G, count, d, seed, ties, unit, agg):
    if agg.kind == "trimmed" and count <= 2 * agg.trim_k:
        count = 2 * agg.trim_k + 1  # the fewest blocks the rule accepts
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((G, count, d))
    if ties:
        blocks = np.round(blocks * 2.0) / 2.0
    weights = np.ones((G, count)) if unit else rng.uniform(0.05, 4.0, (G, count))
    out = aggregate_segments(blocks.reshape(G * count, d), rowwise(weights.reshape(-1), np.full(G, count)), agg)
    ref = np.stack([aggregate(blocks[g], weights[g], agg) for g in range(G)])
    assert out.shape == (G, d)
    assert np.array_equal(out, ref)


def test_stacked_aggregate_rejects_what_aggregate_rejects():
    blocks, counts = np.zeros((4, 3)), np.full(2, 2)
    with pytest.raises(ValueError, match="more than 2 blocks, got 2"):
        aggregate_segments(blocks, rowwise(np.ones(4), counts), RobustAgg.trimmed(1))
    with pytest.raises(ValueError, match="positive sum"):
        aggregate_segments(blocks, rowwise(np.zeros(4), counts), RobustAgg.mean())
    with pytest.raises(ValueError, match="positive sum"):
        aggregate_segments(blocks, rowwise(np.zeros(4), counts), RobustAgg.geomedian())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([RobustAgg.geomedian(), RobustAgg.geomedian(tol=1e-3, max_iter=3)]),
)
def test_geomedian_segments_are_the_per_segment_medians(counts, d, seed, ties, agg):
    # Ties put the median on data points; max_iter = 3 stops short of tol.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((sum(counts), d))
    if ties:
        rows = np.round(rows)
    weights = rng.uniform(0.05, 4.0, sum(counts))
    out = aggregate_segments(rows, rowwise(weights, counts), agg)
    ends = np.cumsum(counts)
    ref = [trust.geometric_median(rows[e - c : e], agg.tol, agg.max_iter)[0] for e, c in zip(ends, counts)]
    assert out.tobytes() == np.stack(ref).tobytes()


# ---------------------------------------------------- array engine vs reference


def problem(n, seed, d=2, p_edge=0.5, alpha=0.7):
    g = generate("erdos_renyi", n, seed=seed, p=p_edge)
    rng = np.random.default_rng(seed)
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), 6, 0.2, seed=seed + i), 0.1)
        for i in range(n)
    ]
    return GTVMinProblem(g, losses, alpha)


def rewrite(n, d, *attacks):
    """A SenderRewrite and the same attacks as chained model_interceptor
    hooks, the per-message reference."""
    specs = [
        trust.AttackSpec(kind, victims=victims, replacement=None if value is None else np.full(d, value))
        for kind, victims, value in attacks
    ]
    hooks = [model_interceptor(spec) for spec in specs]

    def chained(sender, receiver, value, k):
        for hook in hooks:
            value = hook(sender, receiver, value, k)
        return value

    return SenderRewrite.from_specs(specs, n, d), chained


def test_sender_rewrite_takes_only_fixed_message_rows():
    with pytest.raises(ValueError, match="does not act on messages"):
        SenderRewrite.from_specs([trust.AttackSpec("label_poison", victims=(0,))], 2, 1)
    with pytest.raises(ValueError, match="requires a replacement"):
        SenderRewrite.from_specs([trust.AttackSpec("model_poison", victims=(0,))], 2, 1)
    shift = trust.AttackSpec("model_poison", victims=(0,), replacement=lambda block, k: block + 1.0)
    with pytest.raises(ValueError, match="fixed replacement row"):
        SenderRewrite.from_specs([shift], 2, 1)


POISON = ("model_poison", (1, 4), 40.0)
DOS = ("dos", (4, 6), None)
ATTACKS = [(), (POISON,), (DOS,), (POISON, DOS)]
DEFENCES = [None, RobustAgg.mean(), RobustAgg.clipped(-2.0, 2.5), RobustAgg.trimmed(1)]


def makers(p):
    """(name, operator factory): FedRelax and FedGD under each rule, and
    mini-batch FedSGD; all take the array path, which applies a rewrite
    once per gathered row."""
    out = [("fedsgd-3", lambda: fedsgd_op(p, 3, seed=8, sched=LRSchedule.constant(0.05)))]
    for agg in DEFENCES:
        out.append((f"fedrelax-{agg}", lambda agg=agg: fedrelax_op(p, agg=agg)))
        out.append(
            (f"fedgd-{agg}", lambda agg=agg: fedgd_op(p, sched=LRSchedule.constant(0.05), agg=agg))
        )
    return out


@pytest.mark.parametrize("mode", ["partial", "total"])
def test_array_engine_matches_the_reference_loop(mode):
    # ER(12, 0.5) at this seed gives every node at least 3 neighbors, so
    # trimming one from each end applies everywhere.
    p = problem(12, 21, d=3)
    assert min(p.neighbor_arrays(i)[0].size for i in range(p.n)) >= 3
    if mode == "partial":
        schedule = gen_partially_async(p.graph, 3, 40, seed=5)
    else:
        schedule = gen_totally_async(p.graph, 40, seed=5)
    w0 = np.random.default_rng(2).standard_normal((p.n, p.d))
    for attacks in ATTACKS:
        # Without attacks an empty rewrite runs every event on the array
        # path, as no hook at all does.
        hook, reference_hook = rewrite(p.n, p.d, *attacks)
        for name, make in makers(p):
            ops = make()
            array = isinstance(ops[0].batch_update, _ArrayRound)
            assert array, name
            fast, _ = run_async(ops, w0, schedule, interceptor=hook)
            ref = reference_async(make(), w0, schedule, reference_hook if attacks else None)
            assert np.array_equal(fast, ref), (name, attacks)
            if not attacks:
                plain, _ = run_async(make(), w0, schedule)
                assert np.array_equal(plain, ref), name


def test_array_engine_covers_lone_nodes_and_one_dimension():
    g = EmpGraph(7, [(0, 1), (1, 2), (2, 0), (3, 4)])  # 5 and 6 are isolated
    rng = np.random.default_rng(4)
    losses = [
        from_dataset(generate_local(rng.standard_normal(1), 5, 0.3, seed=i), 0.0)
        for i in range(6)
    ]
    # Node 6 has no unique minimizer, so FedRelax keeps its block.
    p = GTVMinProblem(g, losses + [QuadLoss(np.zeros((1, 1)), np.zeros(1))], 1.3)
    schedule = gen_partially_async(g, 2, 30, seed=8)
    w0 = rng.standard_normal((7, 1))
    hook, reference_hook = rewrite(7, 1, POISON)
    # The reference calls the plain-function hook once per message.
    for agg in (None, RobustAgg.clipped(-0.5, 0.5), RobustAgg.geomedian()):
        for make in (lambda: fedrelax_op(p, agg=agg),
                     lambda: fedgd_op(p, sched=LRSchedule.constant(0.1), agg=agg)):
            fast, _ = run_async(make(), w0, schedule, interceptor=hook)
            assert np.array_equal(fast, reference_async(make(), w0, schedule, reference_hook))


@st.composite
def fedgd_runs(draw):
    """A FedGD problem, rule, schedule and attack: graphs with isolated
    nodes, disconnected graphs, d = 1, alpha = 0, ridge > 0, diminishing
    steps, every trim the graph allows and the geometric median."""
    g = with_isolated(
        generate("erdos_renyi", draw(st.integers(1, 9)), seed=draw(st.integers(0, 10**6)),
                 p=draw(st.sampled_from([0.0, 0.4, 0.9]))),
        draw(st.integers(0, 2)),
    )
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ridge = draw(st.sampled_from([0.0, 0.3]))
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), 6, 0.2, seed=int(rng.integers(2**32))), ridge)
        for _ in range(g.n)
    ]
    p = GTVMinProblem(g, losses, draw(st.sampled_from([0.0, 0.4, 1.5])))
    counts = np.diff(g.indptr)
    linked = counts[counts > 0]
    most = (int(linked.min()) - 1) // 2 if linked.size else 2
    agg = draw(st.sampled_from([
        RobustAgg.mean(), RobustAgg.clipped(-0.5, 0.8), RobustAgg.trimmed(draw(st.integers(0, most))),
        RobustAgg.geomedian(tol=1e-2),  # a loose tolerance keeps the median cheap
    ]))
    eta = 0.5 / eig_bounds(p).upper
    sched = draw(st.sampled_from([LRSchedule.constant(eta), LRSchedule.diminishing(eta)]))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        schedule = gen_partially_async(g, draw(st.integers(1, 3)), 25, seed=seed)
    else:
        schedule = gen_totally_async(g, 25, seed=seed)
    victims = tuple(sorted(set(draw(st.lists(st.integers(0, g.n - 1), max_size=2)))))
    return p, agg, sched, schedule, rng.standard_normal((g.n, d)), victims


@settings(max_examples=150, deadline=None)
@given(fedgd_runs())
def test_fedgd_array_events_match_the_per_node_updates(case):
    p, agg, sched, schedule, w0, victims = case
    if victims:
        hook, reference_hook = rewrite(p.n, p.d, ("model_poison", victims, 40.0))
    else:
        # An empty rewrite takes the array path, as no hook at all does.
        hook, reference_hook = (SenderRewrite(()) if agg.kind == "mean" else None), None
    ops = fedgd_op(p, sched=sched, agg=agg)
    # At alpha = 0 no node aggregates: the array code steps every node as a
    # lone one.
    assert isinstance(ops[0].batch_update, _ArrayRound)
    for op in ops:
        op.update = None  # the array path must not call it
    fast, _ = run_async(ops, w0, schedule, interceptor=hook)
    ref = reference_async(fedgd_op(p, sched=sched, agg=agg), w0, schedule, reference_hook)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("alpha", [0.0, 0.9])
@pytest.mark.parametrize("mode", ["sync", "partial", "total"])
def test_geomedian_runs_match_the_per_node_updates(mode, alpha):
    # Nodes 7 and 8 are isolated; at alpha = 0 no node aggregates.
    g = with_isolated(generate("erdos_renyi", 7, seed=7, p=0.5), 2)
    rng = np.random.default_rng(6)
    losses = [
        from_dataset(generate_local(rng.standard_normal(2), 6, 0.2, seed=i), 0.1) for i in range(g.n)
    ]
    p = GTVMinProblem(g, losses, alpha)
    w0 = rng.standard_normal((g.n, 2))
    sched = LRSchedule.constant(0.5 / eig_bounds(p).upper)
    agg = RobustAgg.geomedian(tol=1e-2)  # both paths call the same median; loose is cheap
    schedule = {
        "sync": None,
        "partial": gen_partially_async(g, 2, 10, seed=3),
        "total": gen_totally_async(g, 10, seed=3),
    }[mode]
    for attacks in ((), (POISON, DOS)):
        hook, reference_hook = rewrite(g.n, 2, *attacks)
        if not attacks:
            hook, reference_hook = None, lambda sender, receiver, value, k: value
        for make in (lambda: fedgd_op(p, sched=sched, agg=agg), lambda: fedrelax_op(p, agg=agg)):
            ops = make()
            assert isinstance(ops[0].batch_update, _ArrayRound)
            for op in ops:
                op.update = None  # the array path must not call it
            if schedule is None:
                fast, _ = run_sync(ops, w0, StopRule(max_iters=10), interceptor=hook)
                # A plain function hook keeps every round on the per-node path.
                ref = run_sync(make(), w0, StopRule(max_iters=10), interceptor=reference_hook)[0]
            else:
                fast, _ = run_async(ops, w0, schedule, interceptor=hook)
                ref = reference_async(make(), w0, schedule, reference_hook)
            assert fast.tobytes() == ref.tobytes(), (attacks, make)


def test_a_short_trim_raises_at_the_first_event_that_reads_the_node():
    # Star: the hub reads three leaves, enough for trim_k = 1; a leaf reads
    # one block, too few. Leaf 2 first aggregates at event 2.
    g = EmpGraph(4, [(0, 1), (0, 2), (0, 3)])
    p = GTVMinProblem(g, problem(4, 0).losses, 0.7)
    hub = {0: (0, 0, 0)}
    schedule = AsyncSchedule(4, None, (
        event([0], hub), event([0], hub), event([0, 2], hub | {2: (1,)}), event([1, 3], {1: (2,), 3: (2,)}),
    ))
    w0 = np.zeros((4, p.d))
    plain = lambda sender, receiver, value, k: value  # keeps the per-node path
    for make in (lambda: fedrelax_op(p, agg=RobustAgg.trimmed(1)),
                 lambda: fedgd_op(p, sched=LRSchedule.constant(0.05), agg=RobustAgg.trimmed(1))):
        assert isinstance(make()[0].batch_update, _ArrayRound)
        for hook in (None, plain):
            run_async(make(), w0, schedule, StopRule(max_iters=2), interceptor=hook)
            with pytest.raises(ValueError, match="more than 2 blocks, got 1"):
                run_async(make(), w0, schedule, StopRule(max_iters=3), interceptor=hook)


def test_synchronous_defended_rounds_match_the_per_node_updates():
    p = problem(10, 21)
    w0 = np.random.default_rng(3).standard_normal((p.n, p.d))
    hook, reference_hook = rewrite(p.n, p.d, POISON, DOS)
    for _, make in makers(p):
        fast, _ = run_sync(make(), w0, StopRule(max_iters=15), interceptor=hook)
        # A plain function hook keeps every round on the per-node path.
        ref, _ = run_sync(make(), w0, StopRule(max_iters=15), interceptor=reference_hook)
        assert np.array_equal(fast, ref)


# Every node draws M rows, so a FedSGD batch of M is the full batch.
M = 6


@st.composite
def hook_free_runs(draw):
    """A solver with its rule on a problem with isolated nodes, unit or
    lognormal weights (degrees up to 13, past the 8 rows where pairwise
    sums start), d = 1..3, alpha = 0 and ridge > 0, with an explicit step."""
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = generate("erdos_renyi", n, seed=seed, p=draw(st.sampled_from([0.0, 0.5, 0.9])))
    unit = draw(st.booleans())
    edges = [(i, j, 1.0 if unit else float(rng.lognormal(0.0, 1.0))) for i, j, _ in base.edges]
    g = EmpGraph(n + draw(st.integers(0, 2)), edges)
    d = draw(st.integers(1, 3))
    ridge = draw(st.sampled_from([0.0, 0.3]))
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), M, 0.2, seed=int(rng.integers(2**32))), ridge)
        for _ in range(g.n)
    ]
    p = GTVMinProblem(g, losses, draw(st.sampled_from([0.0, 0.4, 1.5])))
    sched = LRSchedule.constant(0.5 / eig_bounds(p).upper)
    counts = np.diff(g.indptr)
    linked = counts[counts > 0]
    most = (int(linked.min()) - 1) // 2 if linked.size else 2
    kind = draw(st.sampled_from(["fedgd", "fedsgd", "fedrelax"]))
    if kind == "fedsgd":
        batch = draw(st.sampled_from([1, 3, M]))
        return p, lambda: fedsgd_op(p, batch, seed=seed, sched=sched), rng.standard_normal((g.n, d))
    agg = draw(st.sampled_from([
        RobustAgg.mean(), RobustAgg.clipped(-0.5, 0.8), RobustAgg.trimmed(draw(st.integers(0, most)))
    ]))
    if kind == "fedgd":
        return p, lambda: fedgd_op(p, sched=sched, agg=agg), rng.standard_normal((g.n, d))
    return p, lambda: fedrelax_op(p, agg=agg), rng.standard_normal((g.n, d))


def per_node_rounds(ops, w0, rounds):
    """Synchronous rounds as a loop over the per-node updates."""
    W = np.array(w0, dtype=float)
    for k in range(rounds):
        W = np.array([op.update(W[i], W[op.neighbor_ids], k) for i, op in enumerate(ops)])
    return W


@settings(max_examples=200, deadline=None)
@given(hook_free_runs())
def test_hook_free_rounds_match_the_per_node_updates(case):
    # Sync rounds and zero-delay events both run on the array path, whose
    # sums add in the per-node kernel's order and whose stacked finish gives
    # each row the bits of its one-row call.
    p, make, w0 = case
    rounds = 12
    ref = per_node_rounds(make(), w0, rounds)
    for run in (
        lambda ops: run_sync(ops, w0, StopRule(max_iters=rounds)),
        lambda ops: run_async(ops, w0, zero_delay_schedule(p.graph, rounds)),
    ):
        ops = make()
        assert isinstance(ops[0].batch_update, _ArrayRound)
        for op in ops:
            op.update = None  # the array path must not call it
        fast, _ = run(ops)
        assert fast.tobytes() == ref.tobytes()


def test_rounds_never_build_the_dense_adjacency(monkeypatch):
    g = with_isolated(generate("erdos_renyi", 40, weight=0.3, seed=2, p=0.2), 2)
    rng = np.random.default_rng(5)
    losses = [
        from_dataset(generate_local(rng.standard_normal(3), M, 0.2, seed=i), 0.1) for i in range(g.n)
    ]
    p = GTVMinProblem(g, losses, 0.8)
    w0 = rng.standard_normal((g.n, 3))
    schedule = gen_partially_async(g, 2, 30, seed=1)

    def refuse(self):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(EmpGraph, "adjacency", refuse)
    sched = LRSchedule.constant(0.02)
    for make in (
        lambda: fedgd_op(p, sched=sched),
        lambda: fedrelax_op(p),
        lambda: fedsgd_op(p, M, seed=0, sched=sched),
    ):
        run_sync(make(), w0, StopRule(max_iters=30))
        run_async(make(), w0, schedule)


DEFENDED_CONFIG = """\
seed = 4
graph.kind = erdos_renyi
graph.n = 24
graph.p = 0.5
data.d = 2
algorithm.kind = {kind}
async.mode = {mode}
async.B = 2
stop.max_iters = 30
attack.0.kind = model_poison
attack.0.nodes = 1,5
attack.0.value = 100.0
attack.1.kind = dos
attack.1.nodes = 7
"""
TRIMMED = "defense.kind = trimmed\ndefense.trim_k = 1\n"
# Every node trains on 8 of its 10 rows, so a batch of 8 is the full batch
# and a batch of 3 samples at every node.
FULL_BATCH = "algorithm.batch = 8\n"
MINI_BATCH = "algorithm.batch = 3\n"
DEFENDED_RUNS = [
    pytest.param("fedrelax", mode, TRIMMED, id=mode) for mode in ("partial", "total")
] + [
    pytest.param(kind, mode, extra, id=f"{kind}{tag}-{mode}")
    for kind, tag, extra in (("fedgd", "", TRIMMED), ("fedsgd", "", FULL_BATCH), ("fedsgd", "-batch3", MINI_BATCH))
    for mode in ("partial", "total")
]


@pytest.mark.parametrize("kind, mode, extra", DEFENDED_RUNS)
def test_defended_async_runs_never_call_the_per_node_kernels(monkeypatch, kind, mode, extra):
    cfg = parse_config(DEFENDED_CONFIG.format(kind=kind, mode=mode) + extra)
    expected = run_experiment(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("per-node kernel called")

    def refusing(factory):
        def build(*args, **kwargs):
            ops = factory(*args, **kwargs)
            for op in ops:
                op.update = refuse
            return ops

        return build

    monkeypatch.setattr(trust, "aggregate", refuse)
    monkeypatch.setattr(SenderRewrite, "__call__", refuse)
    for factory in ("fedgd_op", "fedsgd_op", "fedrelax_op"):
        monkeypatch.setattr(harness, factory, refusing(getattr(harness, factory)))
    report = run_experiment(cfg)
    assert report.summary["terminal"] == "max_iters"
    assert report.rows == expected.rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.4]),
    st.sampled_from([0.0, 0.3, 2.0]),
    st.integers(0, 2**31),
)
def test_stacked_relax_inverses_equal_per_node_inv(d, n, p_edge, ridge, alpha, seed):
    # Sparse draws leave lone nodes (identity P); alpha 0 leaves only them.
    g = generate("erdos_renyi", n, seed=seed, p=p_edge)
    rng = np.random.default_rng(seed)
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), int(m), 0.2, seed=seed + i), ridge)
        for i, m in enumerate(rng.integers(0, 2 * d, size=n))
    ]
    p = GTVMinProblem(g, losses, alpha)
    rhos = 2.0 * p.alpha * p.graph.degree
    Ps = _relax_inverses(p, rhos)
    for i, loss in enumerate(losses):
        rho = float(rhos[i])
        ref = np.eye(d) if rho == 0.0 else np.linalg.inv(2.0 * loss.Q + rho * np.eye(loss.d))
        assert Ps[i].tobytes() == ref.tobytes()


# ------------------------------------------------------------- server runs

FEDAVG_CONFIG = """\
graph.kind = erdos_renyi
graph.n = 40
data.d = 3
algorithm.kind = fedavg
algorithm.eta = 0.05
stop.max_iters = 100
record_every = {stride}
"""


def test_server_runs_honour_record_every():
    sampled = run_experiment(parse_config(FEDAVG_CONFIG.format(stride=10)))
    every = run_experiment(parse_config(FEDAVG_CONFIG.format(stride=1)))
    events = sorted({row[0] for row in sampled.rows})
    assert events == list(range(0, 101, 10))
    assert len(sampled.rows) == 11 * 40
    assert sampled.rows == [row for row in every.rows if row[0] % 10 == 0]
    assert json.dumps(sampled.summary, sort_keys=True) == json.dumps(every.summary, sort_keys=True)


def test_server_runs_record_the_last_round_off_the_stride():
    text = FEDAVG_CONFIG.format(stride=7).replace("fedavg\n", "fedprox\n")
    report = run_experiment(parse_config(text))
    assert sorted({row[0] for row in report.rows}) == list(range(0, 100, 7)) + [100]
