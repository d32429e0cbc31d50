"""The segment kernel of robust aggregation against a stable-argsort
reference, and the totals every FedRelax and FedGD path divides by."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed.algorithms import AsyncEvent, AsyncSchedule, fedgd_op, fedrelax_op, run_async
from gtvfed.graph import generate
from gtvfed.gtvmin import GTVMinProblem
from gtvfed.localmodel import from_dataset, generate_local
from gtvfed.optim import LRSchedule
from gtvfed.trust import RobustAgg, Segments, _trimmed_slots, aggregate_segments

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def reference_segment(rows, weights, agg):
    """One node's aggregate as a stable argsort per coordinate would give
    it, and the (count, d) mask of the slots it drops."""
    count, d = rows.shape
    t = agg.trim_k if agg.kind == "trimmed" else 0
    if agg.kind == "clipped":
        rows = np.clip(rows, agg.tau_l, agg.tau_u)
    order = np.argsort(rows, axis=0, kind="stable")
    dropped = np.zeros((count, d), dtype=bool)
    out, scale = np.empty(d), np.empty(d)
    c = count / (count - 2 * t)
    for col in range(d):
        kept = order[t : count - t, col]
        dropped[order[:t, col], col] = dropped[order[count - t :, col], col] = True
        products = weights[kept] * rows[kept, col]
        out[col] = c * products.sum() / weights.sum()
        scale[col] = c * np.abs(products).sum() / weights.sum()
    return out, scale, dropped


@st.composite
def segments(draw):
    """(source, index, weights, counts, agg): slots read source[index]. The
    index is arange over the rows, or, as a ring index is, unsorted and
    repeating rows within and across segments."""
    agg = draw(
        st.sampled_from(
            [RobustAgg.mean(), RobustAgg.clipped(-0.5, 0.75)]
            + [RobustAgg.trimmed(t) for t in range(4)]
        )
    )
    t = agg.trim_k if agg.kind == "trimmed" else 0
    fewest = 2 * t + 1
    counts = draw(
        st.lists(st.one_of(st.just(fewest), st.integers(fewest, 40)), min_size=1, max_size=6)
    )
    M = sum(counts)
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.sampled_from([M, 1, 3, 2 * M]))
    source = rng.standard_normal((N, d))
    if draw(st.booleans()):  # ties
        source = np.round(source * 2.0) / 2.0
    if draw(st.booleans()):  # signed zeros, infinities and NaN
        spots = rng.random(source.shape) < draw(st.sampled_from([0.1, 0.5]))
        source[spots] = rng.choice(SPECIAL, size=int(spots.sum()))
    index = np.arange(M) if N == M else rng.integers(0, N, M)
    if draw(st.booleans()):
        weights = np.ones(M)
    else:
        weights = rng.uniform(0.05, 4.0, M)
    return source, index, weights, np.array(counts), agg


@settings(max_examples=400, deadline=None)
@given(segments())
def test_segment_kernel_matches_a_stable_argsort_per_node(case):
    with np.errstate(invalid="ignore"):  # inf - inf sums to NaN
        check_segments(*case)


def check_segments(source, index, weights, counts, agg):
    N = source.shape[0]
    out = aggregate_segments(source, Segments(index, weights, counts, N), agg)
    rows = source[index]
    assert out.shape == (counts.shape[0], rows.shape[1])
    t = agg.trim_k if agg.kind == "trimmed" else 0
    starts = np.cumsum(counts) - counts
    dropped = np.zeros(rows.shape, dtype=bool)
    if t:
        dropped[_trimmed_slots(rows, counts, starts, t)] = True
    for s, (a, count) in enumerate(zip(starts.tolist(), counts.tolist())):
        seg = slice(a, a + count)
        want, scale, want_dropped = reference_segment(rows[seg], weights[seg], agg)
        assert np.array_equal(dropped[seg], want_dropped), s
        finite = np.isfinite(want)
        assert np.array_equal(out[s][~finite], want[~finite], equal_nan=True), s
        assert np.all(np.abs(out[s][finite] - want[finite]) <= 1e-12 * scale[finite]), s
        alone = aggregate_segments(source, Segments(index[seg], weights[seg], [count], N), agg)[0]
        assert np.array_equal(out[s], alone, equal_nan=True), s
        # The sum order: weighted rows source[index] (trimmed ones -0.0)
        # added left to right from 0.0, then divided by the total added the
        # same way; bit for bit but for the sign of NaN.
        kept = np.clip(rows, agg.tau_l, agg.tau_u) if agg.kind == "clipped" else rows
        products = np.where(dropped, -0.0, weights[:, None] * kept)
        total, acc = 0.0, np.zeros(rows.shape[1])
        for j in range(a, a + count):
            total += weights[j]
            acc = acc + products[j]
        if t:
            acc = acc * (count / (count - 2 * t))
        loop = acc / total
        nan = np.isnan(loop)
        assert np.array_equal(np.isnan(out[s]), nan), s
        assert out[s][~nan].tobytes() == loop[~nan].tobytes(), s


def test_fedrelax_events_divide_by_the_graph_degree():
    # On this graph np.sum of a node's weights misses g.degree at most
    # nodes. Blocks 10 k, k an integer, make every weighted value 0.1 * 10 k
    # exactly k, so each sum is exact and only the total can move the bits.
    g = generate("erdos_renyi", 300, weight=0.1, seed=3, p=0.05)
    assert sum(g.neighbor_arrays(i)[1].sum() != g.degree[i] for i in range(g.n)) > 200
    d, alpha = 2, 0.7
    rng = np.random.default_rng(3)
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), 6, 0.2, seed=i), 0.1)
        for i in range(g.n)
    ]
    p = GTVMinProblem(g, losses, alpha)
    w0 = 10.0 * rng.integers(-200, 200, (g.n, d))
    nodes = np.flatnonzero(rng.random(g.n) < 0.5)
    counts = np.diff(g.indptr)[nodes]
    event = AsyncEvent(nodes, counts, np.zeros(int(counts.sum()), dtype=np.int64))
    schedule = AsyncSchedule(n=g.n, B=3, events=(event,))
    eta = 0.03
    for agg in (RobustAgg.mean(), RobustAgg.trimmed(1)):
        ops = fedrelax_op(p, agg)
        gd_ops = fedgd_op(p, sched=LRSchedule.constant(eta), agg=agg)
        out, _ = run_async(ops, w0, schedule)
        gd_out, _ = run_async(gd_ops, w0, schedule)
        want, gd_want = w0.copy(), w0.copy()
        for i in nodes.tolist():
            ids, wts = g.neighbor_arrays(i)
            values = np.sort(wts[:, None] * w0[ids], axis=0)
            if agg.kind == "trimmed":
                count = ids.shape[0]
                avg = count / (count - 2) * values[1:-1].sum(axis=0) / g.degree[i]
            else:
                avg = values.sum(axis=0) / g.degree[i]
            rho = 2.0 * alpha * g.degree[i]
            P = np.linalg.inv(2.0 * losses[i].Q + rho * np.eye(d))
            want[i] = P @ (rho * avg - losses[i].q)
            assert np.array_equal(ops[i].update(w0[i], w0[ids], 0), want[i]), (agg.kind, i)
            gd_want[i] = w0[i] - eta * (losses[i].gradient(w0[i]) + rho * (w0[i] - avg))
            assert np.array_equal(gd_ops[i].update(w0[i], w0[ids], 0), gd_want[i]), (agg.kind, i)
        assert np.array_equal(out, want), agg.kind
        assert np.array_equal(gd_out, gd_want), agg.kind
