"""The shared event driver: divergence, snapshot ring and memory."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import event
from reference import reference_run, sender_hook

from gtvfed import cli
from gtvfed.algorithms import (
    AsyncSchedule,
    NodeOperator,
    fedavg_run,
    fedgd_op,
    fedprox_run,
    fedrelax_op,
    gen_partially_async,
    run_async,
    run_sync,
)
from gtvfed.graph import EmpGraph, generate
from gtvfed.gtvmin import GTVMinProblem
from gtvfed.harness import parse_config, run_experiment
from gtvfed.localmodel import QuadLoss, from_dataset, generate_local
from gtvfed.optim import DivergenceError, LRSchedule, StopRule
from gtvfed.trust import AttackSpec, SenderRewrite

CHAIN3 = EmpGraph(3, [(0, 1), (1, 2)])


def blow_up_at(node, event):
    """Hand-built operators, run by the reference engine on the shared
    driver, that average their neighbors, except that `node` returns inf at
    `event`."""

    def make(i, ids):
        def update(own, nbrs, k):
            if i == node and k == event:
                return np.full_like(own, np.inf)
            return nbrs.mean(axis=0) if len(nbrs) else own.copy()

        return NodeOperator(update=update, neighbor_ids=np.array(ids))

    return [make(i, CHAIN3.neighbor_arrays(i)[0]) for i in range(3)]


def problem(n, seed, d=2, p_edge=0.3):
    g = generate("erdos_renyi", n, seed=seed, p=p_edge)
    rng = np.random.default_rng(seed)
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), 6, 0.2, seed=seed + i), 0.1)
        for i in range(n)
    ]
    return GTVMinProblem(g, losses, 0.7)


# ---------------------------------------------------------------- divergence


def test_sync_reference_raises_on_a_non_finite_block():
    w0 = np.arange(6.0).reshape(3, 2)
    with pytest.raises(DivergenceError, match=r"node\(s\) \[1\] after event 3") as err:
        reference_run(blow_up_at(1, 3), w0, StopRule(max_iters=10))
    exc = err.value
    assert (exc.node, exc.event) == (1, 3)
    assert exc.trace.terminal == "diverged"
    assert exc.trace.ks == [0, 1, 2, 3]


def test_run_sync_objective_guard_names_the_event():
    p = problem(6, 3)
    ops = fedgd_op(p, sched=LRSchedule.constant(50.0))
    objective = lambda blocks: float(np.sum(blocks**2))
    with pytest.raises(DivergenceError, match="divergence guard") as err:
        run_sync(ops, np.ones((6, 2)), StopRule(max_iters=200), objective=objective)
    exc = err.value
    assert exc.node is None
    assert exc.trace.terminal == "diverged"
    assert exc.trace.ks == list(range(exc.event))


def test_async_reference_raises_on_a_non_finite_block():
    everyone = {0: (0,), 1: (0, 0), 2: (0,)}
    events = (
        event([0, 1, 2], everyone),
        event([2], {2: (0,)}),
        event([0, 2], {0: (1,), 2: (0,)}),
    )
    schedule = AsyncSchedule(n=3, B=None, events=events)
    with pytest.raises(DivergenceError) as err:
        reference_run(blow_up_at(2, 2), np.ones((3, 1)), schedule=schedule)
    exc = err.value
    assert (exc.node, exc.event) == (2, 2)
    assert exc.trace.terminal == "diverged"
    assert exc.trace.ks == [0, 1, 2]


# A client with q = inf has an infinite gradient and prox at every block.
INF_CLIENT = (QuadLoss([[1.0]], [0.0]), QuadLoss([[1.0]], [np.inf]))


def test_fedavg_raises_on_a_non_finite_global_block():
    with pytest.raises(DivergenceError, match="non-finite block") as err:
        fedavg_run(INF_CLIENT, 1, 2, LRSchedule.constant(0.1), StopRule(max_iters=5), seed=0)
    assert err.value.event == 0
    assert err.value.trace.terminal == "diverged"


def test_fedprox_raises_when_a_client_prox_returns_inf():
    with pytest.raises(DivergenceError) as err:
        fedprox_run(INF_CLIENT, 2, 0.5, StopRule(max_iters=5), seed=0)
    assert err.value.event == 0
    assert err.value.trace.terminal == "diverged"
    assert err.value.trace.ks == [0]


DIVERGING_CONFIG = """\
graph.kind = chain
graph.n = 4
data.d = 2
algorithm.kind = fedgd
algorithm.eta = 5.0
stop.max_iters = 50
"""


def test_diverged_cli_run_writes_its_report_and_exits_3(tmp_path):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(DIVERGING_CONFIG)
    prefix = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(prefix)]) == 3
    data = json.loads((tmp_path / "run.json").read_text())
    summary = data["summary"]
    assert summary["terminal"] == "diverged"
    assert summary["divergence"] == {"event": 5, "node": None}
    assert summary["bound_checks"] == []
    assert [row[0] for row in data["rows"]] == [k for k in range(5) for _ in range(4)]
    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 20

    cfg.write_text(DIVERGING_CONFIG.replace("5.0", "0.05"))
    assert cli.main(["run", "--config", str(cfg), "--out", str(prefix)]) == 0
    assert "divergence" not in json.loads((tmp_path / "run.json").read_text())["summary"]


def test_diverged_fedavg_report_names_no_node():
    text = DIVERGING_CONFIG.replace("fedgd", "fedavg").replace("5.0", "50.0")
    report = run_experiment(parse_config(text + "algorithm.local_steps = 3\n"))
    assert report.summary["terminal"] == "diverged"
    assert report.summary["divergence"] == {"event": 1, "node": None}
    assert [row[0] for row in report.rows] == [0] * 4


def test_diverged_graph_report_names_its_node():
    # At record_every 1000 no event between the first and the last is
    # probed, so the blow-up is caught as a non-finite block at its node.
    text = DIVERGING_CONFIG.replace("eta = 5.0", "eta = 50").replace("max_iters = 50", "max_iters = 400")
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_experiment(parse_config(text + "record_every = 1000\n"))
    assert report.summary["terminal"] == "diverged"
    assert report.summary["divergence"] == {"event": 114, "node": 1}
    assert report.summary["events"] == 114
    assert report.summary["bound_checks"] == []
    assert [row[0] for row in report.rows] == [0] * 4


# ------------------------------------------------------------- snapshot ring


@pytest.mark.parametrize("B", [2, 3])
def test_snapshot_ring_matches_the_full_history(B):
    p = problem(12, 5, d=3)
    schedule = gen_partially_async(p.graph, B, 60, seed=B)
    unbounded = AsyncSchedule(schedule.n, None, schedule.events)
    w0 = np.random.default_rng(B).standard_normal((12, 3))
    poison = SenderRewrite.from_specs([AttackSpec("model_poison", victims=(4,), replacement=np.ones(3))], 12, 3)
    objective = lambda blocks: float(np.sum(blocks**2))
    for make, hook in ((lambda: fedrelax_op(p), None), (lambda: fedrelax_op(p), poison),
                       (lambda: fedgd_op(p, sched=LRSchedule.constant(0.05)), poison)):
        runs = [
            run_async(make(), w0, sched, objective=objective, oracle=np.zeros((12, 3)),
                      rewrite=hook, record_every=7)
            for sched in (schedule, unbounded)
        ]
        (ring, t_ring), (full, t_full) = runs
        assert np.array_equal(ring, full)
        assert t_ring.ks == t_full.ks
        assert np.array_equal(t_ring.objectives, t_full.objectives)
        assert np.array_equal(t_ring.dists, t_full.dists)
        # The reference keeps every past state and calls the hook per message.
        reference, _ = reference_run(make(), w0, schedule=schedule, hook=None if hook is None else sender_hook(hook))
        assert np.array_equal(ring, reference)


def test_async_memory_does_not_grow_with_the_horizon():
    # Small n keeps the traced run short; every past state the engine kept
    # would still add about 0.2 KiB per event.
    p = problem(8, 9, p_edge=0.4)
    schedules = {h: gen_partially_async(p.graph, 3, h, seed=1) for h in (500, 4000)}
    ops = fedrelax_op(p)
    w0 = np.zeros((8, 2))
    # Run both horizons untraced first: a first run makes one-time
    # allocations (scipy's index dtype lookup) that would count as its peak.
    for h, schedule in schedules.items():
        run_async(ops, w0, schedule, record_every=h)
    peaks = {}
    for h, schedule in schedules.items():
        tracemalloc.start()
        try:
            run_async(ops, w0, schedule, record_every=h)
            peaks[h] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] <= 1.5 * peaks[500], peaks
