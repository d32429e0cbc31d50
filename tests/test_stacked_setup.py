"""Differential tests: the stacked run setup (graph pairs, edge validation,
datasets, splits, losses, eigen summaries, data attacks) against the
per-node references it replaced, with exact (bitwise) equality."""

import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed import graph as graphmod
from gtvfed import harness, localmodel, seeds
from gtvfed.graph import EmpGraph, GraphError, generate
from gtvfed.gtvmin import GTVMinProblem, eig_summaries, ordered_total
from gtvfed.harness import (
    DATA_MODELS,
    _apply_data_attacks,
    _attack_seed,
    _noise_sq,
    build_data,
    gen_node_data,
    gen_node_datasets,
    parse_config,
    run_experiment,
    split_data,
    split_dataset,
)
from gtvfed.localmodel import NodeData, QuadStack, from_dataset, save_dataset_csv
from gtvfed.trust import DATA_ATTACKS, AttackSpec, poison_dataset


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------- graphs


def per_row_edges(kind, n, seed, p=None, p_in=None, p_out=None):
    """The generators' former loop: one Generator.random call per row."""
    rng = np.random.default_rng(seed)
    in_a = np.arange(n) < (n + 1) // 2
    edges = []
    for i in range(n):
        probs = p if kind == "erdos_renyi" else np.where(in_a[i + 1 :] == in_a[i], p_in, p_out)
        hits = np.flatnonzero(rng.random(n - i - 1) < probs) + (i + 1)
        edges += [(i, j, 1.0) for j in hits.tolist()]
    return tuple(edges)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["erdos_renyi", "two_cluster"]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.sampled_from([0.0, 0.1, 0.9]),
    st.sampled_from([1, 2, 7, 64, 1 << 20]),
)
def test_pair_draws_equal_the_per_row_loop(kind, n, seed, p, p_out, chunk):
    probs = dict(p=p) if kind == "erdos_renyi" else dict(p_in=p, p_out=p_out)
    with mock.patch.object(graphmod, "_PAIR_CHUNK", chunk):
        g = generate(kind, n, seed=seed, **probs)
    assert g.edges == per_row_edges(kind, n, seed, **probs)


def per_edge_validation(n, edges):
    """The EmpGraph constructor's former per-edge checks and edge tuple."""
    seen, norm = set(), []
    for i, j, w in edges:
        if i == j:
            raise GraphError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise GraphError(f"duplicate edge ({i}, {j})")
        w = float(w)
        if not math.isfinite(w):
            raise GraphError(f"edge ({i}, {j}) has non-finite weight {w}")
        if not w > 0.0:
            raise GraphError(f"edge ({i}, {j}) has non-positive weight {w}")
        seen.add((i, j))
        norm.append((i, j, w))
    return tuple(sorted(norm))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(
            st.integers(-1, 6),
            st.integers(-1, 6),
            st.sampled_from([1.0, 0.25, 3.0, 0.0, -1.0, math.inf, math.nan]),
        ),
        max_size=12,
    ),
)
def test_bulk_edge_validation_keeps_the_first_error(n, edges):
    try:
        want = per_edge_validation(n, edges)
    except GraphError as exc:
        with pytest.raises(GraphError) as err:
            EmpGraph(n, edges)
        assert str(err.value) == str(exc)
        return
    g = EmpGraph(n, edges)
    assert g.edges == want
    assert g.num_edges == len(want)


def test_huge_node_id_is_out_of_range():
    with pytest.raises(GraphError, match=r"edge \(0, 36893488147419103232\) has an endpoint outside"):
        EmpGraph(3, [(0, 1), (0, 2**65)])


# --------------------------------------------------------- datasets, splits


@st.composite
def data_cases(draw):
    n = draw(st.integers(1, 14))
    dim = draw(st.integers(1, 4))
    m_min = draw(st.integers(0, 6))
    m_max = m_min + draw(st.sampled_from([0, 0, 1, 5, 9]))
    noise = draw(st.sampled_from([0.0, 0.1, 2.5]))
    model = draw(st.sampled_from(DATA_MODELS))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**64, 2**70)))
    return n, dim, m_min, m_max, noise, model, seed


@settings(max_examples=120, deadline=None)
@given(
    data_cases(),
    st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.0, 0.7]),
)
def test_stacked_data_splits_and_losses_equal_per_node(case, fraction, ridge, alpha):
    n, dim, m_min, m_max, noise, model, seed = case
    data, wbars = gen_node_data(*case)
    datasets, ref_wbars = gen_node_datasets(*case)
    assert data.n == n and data.d == dim
    for i, (ds, ref) in enumerate(zip(data.datasets(), datasets)):
        assert same(ds.X, ref.X) and same(ds.y, ref.y), i
        assert same(wbars[i], ref_wbars[i]), i
        assert data.sizes[i] == ref.m

    train, val = split_data(data, fraction, seed)
    ref_splits = [
        split_dataset(ds, fraction, seeds.stream(seed, "data", i, 1)) for i, ds in enumerate(datasets)
    ]
    for side, part in ((train, 0), (val, 1)):
        for i, ds in enumerate(side.datasets()):
            ref = ref_splits[i][part]
            assert same(ds.X, ref.X) and same(ds.y, ref.y), (part, i)
        assert [m for m, *_ in side.groups] == sorted({s[part].m for s in ref_splits})

    stack = QuadStack.from_data(train, ridge)
    for i, (t, _) in enumerate(ref_splits):
        ref = from_dataset(t, ridge)
        assert same(stack.Qs[i], ref.Q) and same(stack.qs[i], ref.q), i
        assert stack.cs[i] == ref.c, i

    g = graphmod.generate("erdos_renyi", n, seed=seed, p=0.4)
    p = GTVMinProblem(g, stack, alpha)
    ref_losses = [from_dataset(t, ridge) for t, _ in ref_splits]
    for i, (loss, ref) in enumerate(zip(p.losses, ref_losses)):
        assert same(loss.Q, ref.Q) and same(loss.q, ref.q) and loss.c == ref.c, i
        assert same(loss.source.X, ref.source.X) and same(loss.source.y, ref.source.y), i
        assert loss.ridge == ref.ridge
    # The former per-node eigen summaries.
    lam_max = max((float(np.linalg.eigvalsh(loss.Q)[-1]) for loss in ref_losses), default=0.0)
    mean_Q = sum(loss.Q for loss in ref_losses) / n
    lam_bar_min = max(0.0, float(np.linalg.eigvalsh(mean_Q)[0]))
    s = eig_summaries(p)
    assert (s.lam_max, s.lam_bar_min) == (lam_max, lam_bar_min)

    # The variation checks' per-node noise norms.
    ref_noise = [float(np.sum((t.y - t.X @ ref_wbars[i]) ** 2)) for i, (t, _) in enumerate(ref_splits)]
    assert same(_noise_sq(train, wbars), np.array(ref_noise))


@pytest.mark.parametrize("m", [129, 300, 1000])
def test_long_datasets_keep_their_sums(m):
    # np.sum adds pairwise in blocks of 128 and more; the stacked row sums
    # and the stacked X'X, X'y and y'y must still give each node's bits.
    data, wbars = gen_node_data(5, 3, m, m + 2, 0.3, "per_node", 8)
    datasets, _ = gen_node_datasets(5, 3, m, m + 2, 0.3, "per_node", 8)
    ref_noise = [float(np.sum((ds.y - ds.X @ wbars[i]) ** 2)) for i, ds in enumerate(datasets)]
    assert same(_noise_sq(data, wbars), np.array(ref_noise))
    stack = QuadStack.from_data(data, 0.0)
    for i, ds in enumerate(datasets):
        ref = from_dataset(ds)
        assert same(stack.Qs[i], ref.Q) and same(stack.qs[i], ref.q) and stack.cs[i] == ref.c


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_ordered_total_adds_as_python_sum(n, d, seed, signed_zeros):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, d, d))
    if signed_zeros:
        stack[rng.random(stack.shape) < 0.7] = -0.0
    assert same(ordered_total(stack), sum(stack))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            st.floats(-1e3, 1e3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_ordered_total_of_values_adds_as_a_python_loop(values):
    total = 0.0
    for v in values:
        total += v
    with np.errstate(invalid="ignore"):  # inf + -inf
        assert same(ordered_total(np.array(values)), np.float64(total))


def test_node_data_round_trip_and_dimension_check():
    rng = np.random.default_rng(3)
    datasets = [localmodel.LocalDataset(rng.standard_normal((m, 2)), rng.standard_normal(m)) for m in (3, 0, 5, 3)]
    data = NodeData.from_datasets(datasets)
    assert [m for m, *_ in data.groups] == [0, 3, 5]
    assert data.sizes.tolist() == [3, 0, 5, 3]
    for ds, ref in zip(data.datasets(), datasets):
        assert same(ds.X, ref.X) and same(ds.y, ref.y)
    with pytest.raises(ValueError, match="disagree on the feature dimension"):
        NodeData.from_datasets([localmodel.LocalDataset(np.zeros((2, d)), np.zeros(2)) for d in (2, 3)])


ATTACKS = """
seed = {seed}
graph.kind = chain
graph.n = {n}
data.d = 2
data.m_min = 1
data.m_max = 9
algorithm.kind = fedgd
attack.0.kind = label_poison
attack.0.nodes = {ends}
attack.0.fraction = 0.5
attack.0.label_delta = 3.0
attack.1.kind = feature_poison
attack.1.nodes = {last}
attack.1.fraction = 1.0
attack.1.feature_delta = 1.0,-1.0
attack.2.kind = backdoor
attack.2.nodes = {first_mid}
attack.2.fraction = 0.4
attack.2.trigger_delta = 0.5,0.25
attack.2.target_label = 2.0
"""


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([0.0, 0.3]))
def test_data_attacks_on_stacks_equal_per_node_poisoning(seed, n, fraction):
    victims = lambda *ids: ",".join(map(str, sorted(set(ids))))  # each victim once
    cfg = parse_config(ATTACKS.format(
        seed=seed, n=n, last=n - 1, ends=victims(0, n - 1), first_mid=victims(0, n // 2)
    ))
    assert {a["kind"] for a in cfg.attacks} == set(DATA_ATTACKS)
    data, _ = build_data(cfg, n)
    train, _ = split_data(data, fraction, seed)
    refs = train.datasets()
    refs = [localmodel.LocalDataset(ds.X.copy(), ds.y.copy()) for ds in refs]
    _apply_data_attacks(cfg, train)
    # The former loop: poison_dataset per victim, replacing the node's dataset.
    for idx, a in enumerate(cfg.attacks):
        for node in a["nodes"]:
            spec = AttackSpec(
                kind=a["kind"], victims=(node,), fraction=a["fraction"],
                label_delta=a["label_delta"], feature_delta=a["feature_delta"],
                trigger_delta=a["trigger_delta"], target_label=a["target_label"],
                seed=_attack_seed(cfg.seed, idx, node),
            )
            refs[node] = poison_dataset(refs[node], spec)
    for i, (ds, ref) in enumerate(zip(train.datasets(), refs)):
        assert same(ds.X, ref.X) and same(ds.y, ref.y), i


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_csv_data_stacks_equal_the_files(seed, n):
    rng = np.random.default_rng(seed)
    datasets = [
        localmodel.LocalDataset(rng.standard_normal((m, 2)), rng.standard_normal(m))
        for m in rng.integers(0, 5, size=n).tolist()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, ds in enumerate(datasets):
            save_dataset_csv(ds, os.path.join(tmp, f"node_{i}.csv"))
        cfg = parse_config(
            f"graph.kind = chain\ngraph.n = {n}\ndata.kind = csv\ndata.dir = {tmp}\nalgorithm.kind = fedgd\n"
        )
        data, meta = build_data(cfg, n)
        refs = [localmodel.load_dataset_csv(os.path.join(tmp, f"node_{i}.csv")) for i in range(n)]
    assert meta["wbars"] is None
    for ds, ref in zip(data.datasets(), refs):
        assert same(ds.X, ref.X) and same(ds.y, ref.y)


def test_csv_data_of_mixed_dimension_is_a_config_error(tmp_path):
    save_dataset_csv(localmodel.LocalDataset(np.zeros((2, 2)), np.zeros(2)), tmp_path / "node_0.csv")
    save_dataset_csv(localmodel.LocalDataset(np.zeros((2, 3)), np.zeros(2)), tmp_path / "node_1.csv")
    cfg = parse_config(f"graph.kind = chain\ngraph.n = 2\ndata.kind = csv\ndata.dir = {tmp_path}\nalgorithm.kind = fedgd\n")
    with pytest.raises(harness.ConfigError, match="disagree on the feature dimension"):
        run_experiment(cfg)


# --------------------------------------------------------------- whole runs


SMALL = """
seed = {seed}
graph.kind = erdos_renyi
graph.n = {n}
graph.p = 0.4
data.d = 2
data.m_min = {m_min}
data.m_max = {m_max}
split.fraction = {fraction}
algorithm.kind = fedgd
stop.max_iters = 3
"""


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.sampled_from([(1, 1), (1, 4), (3, 12), (10, 10)]),
    st.sampled_from([0.0, 0.3, 0.5]),
)
def test_empty_side_warnings_name_the_per_node_splits(seed, n, sizes, fraction):
    text = SMALL.format(seed=seed, n=n, m_min=sizes[0], m_max=sizes[1], fraction=fraction)
    datasets, _ = gen_node_datasets(n, 2, *sizes, 0.1, "shared", seed)
    want = []
    for i, ds in enumerate(datasets):
        t, v = split_dataset(ds, fraction, seeds.stream(seed, "data", i, 1))
        if t.m == 0 or (fraction > 0.0 and v.m == 0):
            want.append(i)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_experiment(parse_config(text))
    got = [str(w.message) for w in caught if "split leaves an empty side" in str(w.message)]
    if want:
        assert len(got) == 1
        assert f"at {len(want)} of {n} nodes (first: node {want[0]})" in got[0]
    else:
        assert got == []
    absent = np.isnan(rep.events.train_err[-1])
    if fraction > 0.0:
        absent |= np.isnan(rep.events.val_err[-1])
    assert np.flatnonzero(absent).tolist() == want


class CountingGenerator(np.random.Generator):
    """A Generator over the same bit generator that counts random calls."""

    calls = 0

    def random(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().random(*args, **kwargs)


def test_synthetic_run_builds_no_per_node_objects(monkeypatch):
    calls = []
    for owner, name in (
        (localmodel, "generate_local"),
        (localmodel, "from_dataset"),
        (harness, "generate_local"),
        (harness, "split_dataset"),
        (harness, "gen_node_datasets"),
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    stream = seeds.stream

    def counted(master, name, *members):
        rng = stream(master, name, *members)
        return CountingGenerator(rng.bit_generator) if name == "graph" else rng

    monkeypatch.setattr(seeds, "stream", counted)
    CountingGenerator.calls = 0
    text = SMALL.format(seed=4, n=40, m_min=4, m_max=12, fraction=0.3) + "data.ridge = 0.1\n"
    rep = run_experiment(parse_config(text))
    assert rep.rows and calls == []
    # One call draws all 780 pairs; the per-row loop made 40.
    assert CountingGenerator.calls == 1


def test_disconnected_run_reads_lam2_from_components(monkeypatch):
    def refuse(self):
        raise AssertionError("built the dense adjacency")

    text = """
seed = 4
graph.kind = erdos_renyi
graph.n = 30
graph.p = 0.05
data.d = 3
algorithm.kind = fedgd
stop.max_iters = 40
"""
    cfg = parse_config(text)
    assert len(graphmod.components(harness.build_graph(cfg))) > 1
    monkeypatch.setattr(EmpGraph, "adjacency", refuse)
    rep = run_experiment(cfg)
    names = [c["name"] for c in rep.summary["bound_checks"]]
    # lam2 = 0 leaves out the lower eigenvalue bound and the checks needing
    # a connected graph.
    assert names == ["eig_upper"]
    assert rep.summary["terminal"] == "max_iters"
