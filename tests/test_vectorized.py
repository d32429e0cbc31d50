"""Differential tests: each vectorized run-path kernel against the per-node
reference it replaced, with exact (bitwise) equality."""

import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed import seeds
from gtvfed.graph import EmpGraph
from gtvfed.gtvmin import GTVMinProblem, objective, objective_parts
from gtvfed.harness import (
    CSV_HEADER,
    Report,
    SqErrors,
    _Probes,
    _dp_hook,
    _sq_err,
    export,
    parse_config,
    run_experiment,
    split_dataset,
    train_val_report,
)
from gtvfed.localmodel import LocalDataset, from_dataset
from gtvfed.trust import DPMechanism

# ------------------------------------------------------------ block DP noise

SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**140),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["gaussian", "laplace"]),
    st.sampled_from([0.0, 1e-3, 0.7, 25.0]),
    SEEDS,
    st.one_of(st.integers(0, 100), st.integers(70_000, 2**40)),
    st.integers(1, 12),
    st.integers(1, 4),
)
def test_draw_block_equals_per_node_draws_bitwise(kind, scale, seed, counter, n, d):
    mech = DPMechanism(kind, sigma=scale, b=scale, seed=seed)
    block = mech.draw_block(counter, n, d)
    ref = np.stack([mech.draw((d,), node=i, counter=counter) for i in range(n)])
    assert block.shape == (n, d)
    assert block.tobytes() == ref.tobytes()


def test_stream_states_rebuild_the_named_streams():
    # Calls alternate between names, counts n and n + 1, one-word and
    # three-word seeds, so a cached pool is reused and set aside in turn.
    cases = [(0, "data", 5, ()), (11, "data", 5, (7,)), (2**64 + 5, "data", 5, (0, 2**33))]
    cases += [
        (seed, name, count, members)
        for members in ((3,), (2**40 + 1,), (3,))
        for seed in (11, 2**64 + 5)
        for name in ("noise", "data")
        for count in (5, 6)
    ]
    for seed, name, count, members in cases:
        gen = np.random.Generator(np.random.PCG64(0))
        states = seeds.stream_states(seed, name, count, *members)
        assert len(states) == count
        for i, (state, inc) in enumerate(states):
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            want = seeds.stream(seed, name, i, *members).bit_generator.state
            assert gen.bit_generator.state == want


def test_streams_restate_the_named_streams():
    # Each i is drawn from before the next iteration restates the generator.
    for seed in (0, 11, 2**32 + 5, 2**64 + 5):
        for name in ("data", "noise", "batches"):
            for members in ((), (1,), (7,)):
                for count in (0, 1, 7):
                    drawn = 0
                    for i, gen in enumerate(seeds.streams(seed, name, count, *members)):
                        ref = seeds.stream(seed, name, i, *members)
                        for draw in (
                            lambda r: r.random(3),
                            lambda r: r.standard_normal(4),
                            lambda r: r.permutation(9),
                        ):
                            assert draw(gen).tobytes() == draw(ref).tobytes()
                        drawn += 1
                    assert drawn == count


def test_run_builds_a_fixed_number_of_streams(monkeypatch):
    # Data, splits and DP noise take their per-node streams from
    # seeds.streams, so the count of single streams does not grow with n.
    calls = []
    stream = seeds.stream
    monkeypatch.setattr(seeds, "stream", lambda *args: calls.append(args) or stream(*args))
    counts = []
    for n in (20, 40):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(parse_config(
                f"seed = 3\ngraph.kind = erdos_renyi\ngraph.n = {n}\ngraph.p = 0.3\n"
                "data.d = 2\nsplit.fraction = 0.2\nalgorithm.kind = fedgd\n"
                "dp.kind = gaussian\ndp.sigma = 0.01\nstop.max_iters = 5\n"
            ))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_dp_hook_matches_per_node_loop():
    mech = DPMechanism("gaussian", sigma=0.3, seed=2**40 + 7)
    blocks = np.random.default_rng(1).standard_normal((9, 3))
    ref = blocks.copy()
    total = 0.0
    for i in range(9):
        z = mech.draw((3,), node=i, counter=70_000)
        ref[i] += z
        total += float(z @ z)
    norm = _dp_hook(mech)(70_000, blocks)
    assert blocks.tobytes() == ref.tobytes()
    assert norm == np.sqrt(total)


# ----------------------------------------------------------- stacked probes


@st.composite
def problems(draw):
    """Datasets with empty and one-row nodes, isolated nodes, d = 1..3."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    datasets = [LocalDataset(rng.standard_normal((m, d)), rng.standard_normal(m)) for m in sizes]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = EmpGraph(n, [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in chosen])
    ridge = draw(st.sampled_from([0.0, 0.5]))
    alpha = draw(st.sampled_from([0.0, 1.0, 3.5]))
    W = 3.0 * rng.standard_normal((n, d))
    return g, datasets, ridge, alpha, W


@settings(max_examples=80, deadline=None)
@given(problems())
def test_stacked_node_objectives_equal_per_node_values(case):
    g, datasets, ridge, alpha, W = case
    p = GTVMinProblem(g, [from_dataset(ds, ridge) for ds in datasets], alpha, d=W.shape[1])
    objs, gtv, total = objective_parts(p, W)
    ref = np.array([loss.value(W[i]) for i, loss in enumerate(p.losses)])
    assert objs.tobytes() == ref.tobytes()
    ref_total = 0.0
    for i, loss in enumerate(p.losses):
        ref_total += loss.value(W[i])
    assert total == ref_total + alpha * gtv
    assert objective(p, W) == total


@settings(max_examples=80, deadline=None)
@given(problems(), st.sampled_from([0.0, 0.2, 0.5]))
def test_stacked_errors_equal_per_node_sq_err(case, fraction):
    g, datasets, _, alpha, W = case
    splits = [
        split_dataset(ds, fraction, seeds.stream(3, "data", i, 1)) for i, ds in enumerate(datasets)
    ]
    for side in (0, 1):
        part = [s[side] for s in splits]
        ref = np.array([_sq_err(ds, W[i]) for i, ds in enumerate(part)])
        # NaN marks an empty side; tobytes compares it bit for bit too.
        assert SqErrors(part)(W).tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(problems())
def test_probe_metrics_equal_reference_kernels(case):
    g, datasets, ridge, alpha, W = case
    p = GTVMinProblem(g, [from_dataset(ds, ridge) for ds in datasets], alpha, d=W.shape[1])
    splits = [split_dataset(ds, 0.5, seeds.stream(0, "data", i, 1)) for i, ds in enumerate(datasets)]
    trains, vals = [s[0] for s in splits], [s[1] for s in splits]
    probes = _Probes(p, trains, vals, None)
    fresh = probes.metrics(0, W)
    f = probes.objective(W)
    reused = probes.metrics(0, W)
    for out in (fresh, reused):
        assert out["node_objs"].tobytes() == np.array(
            [loss.value(W[i]) for i, loss in enumerate(p.losses)]
        ).tobytes()
        assert out["train_err"].tobytes() == np.array(
            [_sq_err(t, W[i]) for i, t in enumerate(trains)]
        ).tobytes()
        assert out["val_err"].tobytes() == np.array(
            [_sq_err(v, W[i]) for i, v in enumerate(vals)]
        ).tobytes()
    assert f == objective(p, W)
    moved = W + 1.0
    assert probes.metrics(1, moved)["node_objs"].tobytes() == np.array(
        [loss.value(moved[i]) for i, loss in enumerate(p.losses)]
    ).tobytes()


def test_train_val_report_matches_per_node_loop():
    rng = np.random.default_rng(4)
    datasets = [LocalDataset(rng.standard_normal((m, 2)), rng.standard_normal(m)) for m in (1, 5, 9, 5)]
    W = rng.standard_normal((4, 2))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        e_t, e_v = train_val_report(datasets, W, 0.4, seed=8)
    for i, ds in enumerate(datasets):
        train, val = split_dataset(ds, 0.4, seeds.stream(8, "data", i, 1))
        assert np.array_equal(e_t[i], _sq_err(train, W[i]), equal_nan=True)
        assert np.array_equal(e_v[i], _sq_err(val, W[i]), equal_nan=True)


# ------------------------------------------------------------------ export


def _old_csv(report) -> str:
    fmt = lambda v: "{:.11e}".format(float(v))
    lines = [",".join(CSV_HEADER)]
    for event, node, obj, gtv, e_t, e_v, dist in report.rows:
        lines.append(f"{event},{node},{fmt(obj)},{fmt(gtv)},{fmt(e_t)},{fmt(e_v)},{fmt(dist)}")
    return "\n".join(lines) + "\n"


def _old_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


NO_ORACLE = """
seed = 2
graph.kind = chain
graph.n = 6
data.d = 4
data.m_min = 1
data.m_max = 2
algorithm.kind = fedgd
algorithm.alpha = 0.0
algorithm.eta = 0.01
stop.max_iters = 30
"""

FEDAVG = """
seed = 5
graph.kind = erdos_renyi
graph.n = 6
data.d = 2
data.m_min = 3
data.m_max = 9
algorithm.kind = fedavg
algorithm.eta = 0.05
stop.max_iters = 700
split.fraction = 0.0
"""


def _assert_exports_match(report, tmp_path):
    export(report, "csv", tmp_path / "r.csv")
    export(report, "json", tmp_path / "r.json")
    assert (tmp_path / "r.csv").read_text() == _old_csv(report)
    assert (tmp_path / "r.json").read_text() == _old_json(report)


def test_export_bytes_equal_reference_encoders(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        no_oracle = run_experiment(parse_config(NO_ORACLE))
        fedavg = run_experiment(parse_config(FEDAVG))
    assert all(np.isnan(r[6]) for r in no_oracle.rows)
    assert all(np.isnan(r[5]) for r in fedavg.rows)
    assert len(fedavg.rows) > 4096  # spans more than one export chunk
    for report in (no_oracle, fedavg):
        _assert_exports_match(report, tmp_path)


def test_export_maps_non_finite_values_like_json(tmp_path):
    inf, nan = float("inf"), float("nan")
    report = Report(
        rows=[
            (0, 0, inf, -inf, nan, -0.0, 1e-310),
            (7, 1, 1e300, 0.1, 2.5, -3.0, 123456789.0),
            # Rows share an export template only where event, gtv and dist
            # have the same bits: 0.0 and -0.0 differ, equal NaNs do not.
            (7, 2, 0.5, 0.0, 1.0, 2.0, 0.0),
            (7, 3, -0.5, -0.0, nan, 2.0, 0.0),
            (7, 4, 0.25, 0.0, 1.0, 2.0, -0.0),
            (7, 5, 0.125, nan, 1.0, inf, nan),
            (7, 6, -inf, nan, 1.0, 2.0, nan),
            (8, 6, 1.0, nan, 1.0, 2.0, nan),
        ],
        summary={"final": nan, "big": -inf, "checks": [{"name": "x", "holds": True}], "none": None},
        environment={},
    )
    _assert_exports_match(report, tmp_path)
    empty = Report(rows=[], summary={}, environment={"seed": 0})
    _assert_exports_match(empty, tmp_path)
