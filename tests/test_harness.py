import json
import math
import os
import re

import numpy as np
import pytest

from gtvfed import cli, seeds
from gtvfed.harness import (
    ConfigError,
    EventColumns,
    Report,
    build_graph,
    export,
    gen_node_datasets,
    load_report_json,
    parse_config,
    run_experiment,
    split_dataset,
    train_val_report,
)
from gtvfed.localmodel import LocalDataset, QuadLoss, generate_local

MINIMAL = """
graph.kind = erdos_renyi
graph.n = 8
algorithm.kind = fedgd
data.d = 2
"""

# seed 3 converges under dist_tol well inside the iteration cap
RUN_CFG = """
seed = 3
graph.kind = erdos_renyi
graph.n = 10
graph.p = 0.5
data.d = 2
data.m_min = 8
data.m_max = 14
algorithm.kind = fedgd
algorithm.alpha = 1.0
stop.max_iters = 20000
stop.dist_tol = 1e-8
record_every = 100
"""


def poison_cfg(defense):
    extra = "defense.trim_k = 2\n" if defense == "trimmed" else ""
    return f"""
seed = 7
graph.kind = erdos_renyi
graph.n = 10
graph.p = 0.9
data.d = 2
data.noise = 0.1
algorithm.kind = fedrelax
algorithm.alpha = 1.0
stop.max_iters = 300
record_every = 50
attack.0.kind = label_poison
attack.0.nodes = 0,1
attack.0.fraction = 1.0
attack.0.label_delta = 100.0
defense.kind = {defense}
{extra}"""


# ------------------------------------------------------------------ parsing


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 0
    assert cfg.record_every == 1
    assert cfg.graph["kind"] == "erdos_renyi"
    assert cfg.graph["n"] == 8
    assert cfg.graph["p"] == 0.3
    assert cfg.data["kind"] == "synthetic"
    assert cfg.data["m_min"] == 10 and cfg.data["m_max"] == 10
    assert cfg.algorithm["kind"] == "fedgd"
    assert cfg.algorithm["alpha"] == 1.0
    assert cfg.algorithm["penalty"] == "sq_norm"
    assert cfg.async_spec["mode"] == "sync"
    assert cfg.stop.max_iters == 500
    assert cfg.split_fraction == 0.2
    assert cfg.attacks == []
    assert cfg.defense.kind == "mean"
    assert cfg.dp is None
    assert cfg.text == MINIMAL


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        "# experiment\n\ngraph.kind = star  # hub topology\ngraph.n = 5\n"
        "algorithm.kind = fedrelax\ndata.d = 1\n"
    )
    assert cfg.graph["kind"] == "star"
    assert cfg.algorithm["kind"] == "fedrelax"


def test_all_errors_collected_in_one_raise():
    text = MINIMAL + "algorithm.alpha = -2\nalpha_ = 1\ngraph.p = 1.5\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) == 3
    joined = "\n".join(errors)
    assert "algorithm.alpha" in joined
    assert "unknown key 'alpha_'" in joined
    assert "graph.p" in joined


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "graph.n = 9\n")


def test_line_without_assignment_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(MINIMAL + "graph.n\n")


def test_unparseable_value_names_the_key():
    with pytest.raises(ConfigError, match="graph.n"):
        parse_config("graph.kind = chain\ngraph.n = four\nalgorithm.kind = fedgd\ndata.d = 1\n")


def test_bad_choice_lists_options():
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("graph.kind = ring\ngraph.n = 4\nalgorithm.kind = fedgd\ndata.d = 1\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("algorithm.alpha = 1.0\n")
    joined = "\n".join(exc.value.errors)
    assert "graph.kind" in joined
    assert "algorithm.kind" in joined


def test_fedsgd_requires_batch():
    text = MINIMAL.replace("fedgd", "fedsgd")
    with pytest.raises(ConfigError, match="algorithm.batch"):
        parse_config(text)
    cfg = parse_config(text + "algorithm.batch = 4\n")
    assert cfg.algorithm["batch"] == 4


def test_server_algorithms_need_eta_and_sync():
    text = MINIMAL.replace("fedgd", "fedavg") + "async.mode = partial\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    joined = "\n".join(exc.value.errors)
    assert "algorithm.eta" in joined
    assert "async.mode" in joined
    cfg = parse_config(MINIMAL.replace("fedgd", "fedavg") + "algorithm.eta = 0.05\n")
    assert cfg.algorithm["eta"] == 0.05


def test_diminishing_schedule_requires_eta():
    with pytest.raises(ConfigError, match="algorithm.eta"):
        parse_config(MINIMAL + "algorithm.schedule = diminishing\n")


def test_norm_penalty_rejected():
    with pytest.raises(ConfigError, match="sq_norm"):
        parse_config(MINIMAL + "algorithm.penalty = norm\n")


def test_defense_limited_to_message_passing():
    text = MINIMAL.replace("fedgd", "fedavg") + "algorithm.eta = 0.1\ndefense.kind = trimmed\n"
    with pytest.raises(ConfigError, match="defense"):
        parse_config(text)


def test_graph_file_must_exist(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        parse_config(
            "graph.kind = file\ngraph.path = /nope/edges.txt\n"
            "algorithm.kind = fedgd\ndata.d = 1\n"
        )


def test_data_dir_required_for_csv():
    with pytest.raises(ConfigError, match="data.dir"):
        parse_config(
            "graph.kind = chain\ngraph.n = 3\nalgorithm.kind = fedgd\ndata.kind = csv\n"
        )


@pytest.mark.parametrize(
    "kind, key", [("feature_poison", "feature_delta"), ("backdoor", "trigger_delta")]
)
@pytest.mark.parametrize("values", ["1.0,2.0", "1.0"])
def test_attack_vectors_need_one_value_per_feature(kind, key, values):
    cfg = parse_config(
        "graph.kind = chain\ngraph.n = 6\nalgorithm.kind = fedgd\ndata.d = 3\n"
        f"attack.0.kind = {kind}\nattack.0.nodes = 1\nattack.0.fraction = 0.5\n"
        f"attack.0.{key} = {values}\n"
    )
    with pytest.raises(ConfigError, match=f"attack.0.{key}: needs 3 values"):
        run_experiment(cfg)


def test_attack_round_trip():
    cfg = parse_config(
        MINIMAL
        + "attack.0.kind = label_poison\nattack.0.nodes = 1,3\n"
        + "attack.0.fraction = 0.5\nattack.0.label_delta = 9.0\n"
        + "attack.1.kind = dos\nattack.1.nodes = 2\n"
    )
    assert len(cfg.attacks) == 2
    assert cfg.attacks[0]["kind"] == "label_poison"
    assert cfg.attacks[0]["nodes"] == (1, 3)
    assert cfg.attacks[0]["fraction"] == 0.5
    assert cfg.attacks[0]["label_delta"] == 9.0
    assert cfg.attacks[1]["kind"] == "dos"


def test_attack_field_validation():
    with pytest.raises(ConfigError, match="unknown attack field"):
        parse_config(MINIMAL + "attack.0.kind = dos\nattack.0.nodes = 1\nattack.0.oops = 3\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(MINIMAL + "attack.0.nodes = 1\n")
    with pytest.raises(ConfigError, match="nodes"):
        parse_config(MINIMAL + "attack.0.kind = dos\n")
    with pytest.raises(ConfigError, match="value"):
        parse_config(MINIMAL + "attack.0.kind = model_poison\nattack.0.nodes = 0\n")
    with pytest.raises(ConfigError, match="feature_delta"):
        parse_config(MINIMAL + "attack.0.kind = feature_poison\nattack.0.nodes = 0\n")


def test_dp_config_builds_mechanism():
    cfg = parse_config("seed = 11\n" + MINIMAL + "dp.kind = gaussian\ndp.sigma = 0.5\n")
    assert cfg.dp is not None
    assert cfg.dp.kind == "gaussian"
    assert cfg.dp.sigma == 0.5
    assert cfg.dp.seed == 11
    assert parse_config(MINIMAL + "dp.kind = none\n").dp is None


# ----------------------------------------------------------------- builders


def test_build_graph_seeded_and_shaped():
    cfg = parse_config(MINIMAL.replace("graph.n = 8", "graph.n = 12") + "graph.p = 0.4\n")
    g1 = build_graph(cfg)
    g2 = build_graph(cfg)
    assert np.array_equal(g1.adjacency(), g2.adjacency())
    assert g1.n == 12
    star = build_graph(parse_config("graph.kind = star\ngraph.n = 5\nalgorithm.kind = fedgd\ndata.d = 1\n"))
    assert len(star.neighbors(0)) == 4
    assert all(len(star.neighbors(i)) == 1 for i in range(1, 5))


def test_gen_node_datasets_layouts():
    datasets, wbars = gen_node_datasets(6, 3, 5, 9, 0.1, "shared", seed=4)
    assert len(datasets) == 6 and len(wbars) == 6
    assert all(5 <= ds.m <= 9 for ds in datasets)
    assert all(ds.X.shape[1] == 3 for ds in datasets)
    assert all(np.array_equal(wbars[0], w) for w in wbars)

    _, clustered = gen_node_datasets(5, 2, 5, 5, 0.0, "clustered", seed=4)
    assert np.array_equal(clustered[0], clustered[2])
    assert np.array_equal(clustered[3], clustered[4])
    assert not np.array_equal(clustered[0], clustered[3])

    _, per_node = gen_node_datasets(4, 2, 5, 5, 0.0, "per_node", seed=4)
    assert not np.array_equal(per_node[0], per_node[1])

    again, _ = gen_node_datasets(6, 3, 5, 9, 0.1, "shared", seed=4)
    for a, b in zip(datasets, again):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    with pytest.raises(ValueError, match="unknown data model"):
        gen_node_datasets(3, 2, 5, 5, 0.1, "mixture", seed=0)


def test_split_dataset_partition():
    ds = generate_local([1.0, -1.0], 13, 0.1, seed=2)
    train, val = split_dataset(ds, 0.25, seed=9)
    assert val.m == math.floor(0.25 * 13) == 3
    assert train.m == 10
    t2, v2 = split_dataset(ds, 0.25, seed=9)
    assert np.array_equal(train.X, t2.X) and np.array_equal(val.y, v2.y)
    # the two sides partition the rows
    all_rows = np.vstack([train.X, val.X])
    assert np.array_equal(
        np.sort(np.lexsort(all_rows.T)), np.arange(13)
    ) or all_rows.shape[0] == 13
    merged = np.concatenate([train.y, val.y])
    assert np.array_equal(np.sort(merged), np.sort(ds.y))
    with pytest.raises(ValueError, match="fraction"):
        split_dataset(ds, 1.0, seed=0)


def test_train_val_report_zero_blocks_energy():
    # with w = 0 the train error is the mean squared label on the train side
    datasets, _ = gen_node_datasets(4, 2, 8, 8, 0.3, "per_node", seed=5)
    blocks = np.zeros((4, 2))
    e_t, e_v = train_val_report(datasets, blocks, split=0.25, seed=5)
    for i, ds in enumerate(datasets):
        train, val = split_dataset(ds, 0.25, seeds.stream(5, "data", i, 1))
        assert e_t[i] == pytest.approx(float(train.y @ train.y) / train.m, abs=1e-12)
        assert e_v[i] == pytest.approx(float(val.y @ val.y) / val.m, abs=1e-12)


def test_train_val_report_tiles_single_block():
    datasets, wbars = gen_node_datasets(3, 2, 10, 10, 0.0, "shared", seed=1)
    e_t, e_v = train_val_report(datasets, wbars[0], split=0.2, seed=1)
    assert np.allclose(e_t, 0.0, atol=1e-20) and np.allclose(e_v, 0.0, atol=1e-20)


def test_train_val_report_empty_side_warns_nan():
    tiny = LocalDataset([[1.0]], [2.0])
    with pytest.warns(UserWarning, match="empty side"):
        e_t, e_v = train_val_report([tiny], np.zeros((1, 1)), split=0.5, seed=0)
    assert math.isnan(e_v[0])
    assert e_t[0] == pytest.approx(4.0)


def test_train_val_report_split_bounds():
    ds = generate_local([1.0], 5, 0.1, seed=0)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="split"):
            train_val_report([ds], np.zeros((1, 1)), split=bad)
    with pytest.raises(ValueError, match="datasets"):
        train_val_report([ds], np.zeros((2, 1)), split=0.2)


# --------------------------------------------------------------------- runs


@pytest.fixture(scope="module")
def fedgd_report():
    return run_experiment(parse_config(RUN_CFG))


def test_run_converges_to_oracle(fedgd_report):
    s = fedgd_report.summary
    assert s["algorithm"] == "fedgd"
    assert s["n"] == 10
    assert s["terminal"] == "dist_tol"
    assert s["converged"] is True
    assert s["final_dist"] <= 1e-8
    assert s["events"] < 20000
    assert s["final_val_err"] < 10 * s["baseline_err"] + 1e-3
    assert s["overfit"] is False


def test_run_rows_shape_and_monotonicity(fedgd_report):
    rows = fedgd_report.rows
    assert all(len(r) == 7 for r in rows)
    events = sorted({r[0] for r in rows})
    assert events[0] == 0
    assert all(e % 100 == 0 for e in events[:-1])  # all but the terminal event
    per_event_obj = {}
    gtv = {}
    for e, node, obj, g, _et, _ev, _dist in rows:
        per_event_obj[e] = per_event_obj.get(e, 0.0) + obj
        gtv[e] = g
    totals = [per_event_obj[e] + 1.0 * gtv[e] for e in events]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))
    dists = [max(r[6] for r in rows if r[0] == e) for e in events]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def test_run_bound_checks_hold(fedgd_report):
    checks = fedgd_report.summary["bound_checks"]
    names = {c["name"] for c in checks}
    assert {"eig_upper", "eig_lower", "variation", "label_sensitivity"} <= names
    for c in checks:
        assert c["holds"], c
        # margin is signed toward the bound, whichever side it sits on
        assert abs(c["margin"]) == pytest.approx(abs(c["bound"] - c["measured"]), rel=1e-12)


def test_run_environment_stamp(fedgd_report):
    env = fedgd_report.environment
    import hashlib

    from gtvfed import __version__

    assert env["config_sha256"] == hashlib.sha256(RUN_CFG.encode()).hexdigest()
    assert env["package_version"] == __version__
    assert env["seed"] == 3


def test_repeated_run_identical_exports(fedgd_report, tmp_path):
    rep2 = run_experiment(parse_config(RUN_CFG))
    paths = []
    for tag, rep in (("a", fedgd_report), ("b", rep2)):
        export(rep, "csv", tmp_path / f"{tag}.csv")
        export(rep, "json", tmp_path / f"{tag}.json")
        paths.append(tag)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_trimmed_defense_beats_mean_under_poisoning():
    mean_rep = run_experiment(parse_config(poison_cfg("mean")))
    trim_rep = run_experiment(parse_config(poison_cfg("trimmed")))
    assert trim_rep.summary["final_val_err"] <= mean_rep.summary["final_val_err"]
    # the poisoned mean run is visibly worse than the generator noise floor
    assert mean_rep.summary["final_val_err"] > 10 * mean_rep.summary["baseline_err"]


def test_dp_run_adds_noisy_descent_check():
    cfg = parse_config(
        """
seed = 2
graph.kind = erdos_renyi
graph.n = 6
graph.p = 0.6
data.d = 2
algorithm.kind = fedgd
algorithm.alpha = 0.5
algorithm.eta = 0.05
stop.max_iters = 40
dp.kind = gaussian
dp.sigma = 0.01
"""
    )
    rep = run_experiment(cfg)
    names = [c["name"] for c in rep.summary["bound_checks"]]
    assert "noisy_descent" in names
    check = next(c for c in rep.summary["bound_checks"] if c["name"] == "noisy_descent")
    assert check["holds"], check


# n * d = 450: every spectral check runs on the matrix-free operator.
LARGE_DP_CFG = """
seed = 4
graph.kind = erdos_renyi
graph.n = 90
graph.p = 0.1
data.d = 5
algorithm.kind = fedgd
algorithm.alpha = 1.0
stop.max_iters = 10
dp.kind = gaussian
dp.sigma = 0.01
"""


def test_large_run_reports_every_spectral_check():
    rep = run_experiment(parse_config(LARGE_DP_CFG))
    names = {c["name"] for c in rep.summary["bound_checks"]}
    assert {"eig_upper", "eig_lower", "noisy_descent", "label_sensitivity"} <= names
    assert all(c["holds"] for c in rep.summary["bound_checks"])


def test_run_never_assembles_the_dense_quadratic(monkeypatch):
    from gtvfed import gtvmin, harness

    def refuse(p):
        raise AssertionError(f"assembled a dense {p.n * p.d}-square quadratic")

    monkeypatch.setattr(gtvmin, "assemble", refuse)
    monkeypatch.setattr(harness, "assemble", refuse, raising=False)
    rep = run_experiment(parse_config(LARGE_DP_CFG))
    assert rep.summary["final_dist"] is not None
    assert all(c["holds"] for c in rep.summary["bound_checks"])


HORIZON_CFG = """
seed = 3
record_every = 10
graph.kind = erdos_renyi
graph.n = 60
graph.p = 0.2
data.d = 3
algorithm.kind = fedrelax
async.mode = partial
async.B = 3
async.horizon = {horizon}
stop.max_iters = 100
"""


def test_partial_async_runs_draw_only_the_events_they_run(monkeypatch, tmp_path):
    from gtvfed import harness

    asked = []
    real = harness.gen_partially_async

    def spy(g, B, horizon, seed, p_active=0.5):
        asked.append(horizon)
        return real(g, B, horizon, seed, p_active=p_active)

    monkeypatch.setattr(harness, "gen_partially_async", spy)
    texts = {}
    for horizon in (5000, 100):
        rep = run_experiment(parse_config(HORIZON_CFG.format(horizon=horizon)))
        assert len(rep.rows) == 660
        export(rep, "csv", tmp_path / f"{horizon}.csv")
        # The config text, and so its hash, names the horizon.
        rep.environment.pop("config_sha256")
        export(rep, "json", tmp_path / f"{horizon}.json")
        texts[horizon] = [(tmp_path / f"{horizon}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert asked == [100, 100]
    assert texts[5000] == texts[100]


@pytest.mark.parametrize("mode", ["sync", "partial", "total"])
def test_run_without_events_reports_the_start(mode):
    # stop.max_iters = 0 runs no event; an async run still draws a schedule
    # of one event, which it does not run.
    text = (
        "graph.kind = chain\ngraph.n = 4\ndata.d = 2\nalgorithm.kind = fedrelax\n"
        f"async.mode = {mode}\nstop.max_iters = 0\n"
    )
    rep = run_experiment(parse_config(text))
    assert [row[:2] for row in rep.rows] == [(0, i) for i in range(4)]


def test_clean_partial_fedrelax_solves_no_per_node_spectrum(monkeypatch):
    # FedRelax's lone-node minimizers and the async_contraction check read
    # the stack's eigenvalues. The run makes one stacked call, then one each
    # for the mean local Q, the Laplacian and the component sums; one call
    # per node would add 300.
    cfg = parse_config(
        "seed = 5\ngraph.kind = erdos_renyi\ngraph.n = 300\ngraph.p = 0.03\ndata.d = 5\n"
        "algorithm.kind = fedrelax\nasync.mode = partial\nasync.B = 3\nstop.max_iters = 100\n"
    )
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: calls.append(np.shape(a)) or real(a, *args))
    rep = run_experiment(cfg)
    assert "async_contraction" in [row["name"] for row in rep.summary["bound_checks"]]
    assert len(calls) <= 4, calls


def test_trimmed_defense_rejects_short_neighbourhood_before_solving(monkeypatch):
    from gtvfed import harness

    def refuse(p):
        raise AssertionError("solved before the degree check")

    monkeypatch.setattr(harness, "solve_direct", refuse)
    cfg = parse_config(
        """
graph.kind = chain
graph.n = 5
data.d = 2
algorithm.kind = fedrelax
algorithm.alpha = 1.0
defense.kind = trimmed
defense.trim_k = 1
"""
    )
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    msg = str(err.value)
    assert "defense.trim_k" in msg and "node 0 has 1 neighbours" in msg
    assert "trim_k = 1" in msg


@pytest.mark.parametrize("kind", ["fedgd", "fedrelax"])
def test_trimmed_defense_without_coupling_runs_on_short_neighbourhoods(kind):
    # At alpha = 0 no node aggregates, so a chain's end nodes need no more
    # than 2 trim_k neighbours; the same run with coupling is rejected.
    text = f"""
graph.kind = chain
graph.n = 6
data.d = 2
algorithm.kind = {kind}
algorithm.alpha = 0
defense.kind = trimmed
defense.trim_k = 1
stop.max_iters = 30
"""
    rep = run_experiment(parse_config(text))
    assert rep.summary["terminal"] != "diverged"
    with pytest.raises(ConfigError, match="node 0 has 1 neighbours"):
        run_experiment(parse_config(text.replace("alpha = 0", "alpha = 1")))


def test_clustered_run_checks_clustered_variation():
    cfg = parse_config(
        """
seed = 6
graph.kind = two_cluster
graph.n = 10
graph.p_in = 0.9
graph.p_out = 0.1
data.d = 2
data.model = clustered
algorithm.kind = fedrelax
algorithm.alpha = 2.0
stop.max_iters = 200
"""
    )
    rep = run_experiment(cfg)
    names = [c["name"] for c in rep.summary["bound_checks"]]
    assert "clustered_variation" in names
    assert all(c["holds"] for c in rep.summary["bound_checks"])


def test_async_run_checks_contraction():
    cfg = parse_config(
        """
seed = 9
graph.kind = erdos_renyi
graph.n = 6
graph.p = 0.7
data.d = 2
data.ridge = 0.1
algorithm.kind = fedrelax
algorithm.alpha = 1.0
async.mode = partial
async.B = 3
async.horizon = 400
"""
    )
    rep = run_experiment(cfg)
    names = [c["name"] for c in rep.summary["bound_checks"]]
    assert "async_contraction" in names
    assert all(c["holds"] for c in rep.summary["bound_checks"])


def test_server_run_reports_pooled_oracle():
    cfg = parse_config(
        """
seed = 5
graph.kind = erdos_renyi
graph.n = 4
data.d = 2
algorithm.kind = fedavg
algorithm.eta = 0.05
stop.max_iters = 400
"""
    )
    rep = run_experiment(cfg)
    assert rep.summary["bound_checks"] == []
    assert all(r[3] == 0.0 for r in rep.rows)  # no coupling term server side
    dists = [max(r[6] for r in rep.rows if r[0] == e) for e in sorted({r[0] for r in rep.rows})]
    assert dists[-1] < 1e-3 * dists[0]


def test_server_sample_size_cannot_exceed_n():
    cfg = parse_config(
        """
graph.kind = chain
graph.n = 3
data.d = 1
algorithm.kind = fedavg
algorithm.eta = 0.05
algorithm.sample_size = 5
"""
    )
    with pytest.raises(ConfigError, match="sample_size"):
        run_experiment(cfg)


SERVER_CFG = """
seed = 3
graph.kind = erdos_renyi
graph.n = 12
data.d = 2
algorithm.kind = fedavg
algorithm.eta = 0.05
stop.max_iters = 30
"""
LABEL_POISON = (
    "attack.0.kind = label_poison\nattack.0.nodes = 1,4\n"
    "attack.0.fraction = 1.0\nattack.0.label_delta = 5.0\n"
)


@pytest.mark.parametrize("kind", ["fedavg", "fedprox"])
@pytest.mark.parametrize(
    "extra, key, value",
    [
        ("dp.kind = gaussian\ndp.sigma = 0.1\n", "dp.kind", "gaussian"),
        ("dp.kind = laplace\ndp.b = 0.1\n", "dp.kind", "laplace"),
        (LABEL_POISON + "attack.1.kind = model_poison\nattack.1.nodes = 2\nattack.1.value = 50\n",
         "attack.1.kind", "model_poison"),
        ("attack.0.kind = dos\nattack.0.nodes = 2\n", "attack.0.kind", "dos"),
    ],
)
def test_server_run_rejects_what_it_would_ignore(kind, extra, key, value):
    cfg = parse_config(SERVER_CFG.replace("fedavg", kind) + extra)
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    assert exc.value.errors == [
        f"{key}: {value} applies to fedgd, fedsgd and fedrelax only; {kind} would ignore it"
    ]


def test_server_run_reports_every_ignored_setting_at_once():
    cfg = parse_config(
        SERVER_CFG + "algorithm.sample_size = 13\ndp.kind = laplace\ndp.b = 0.1\n"
        "attack.0.kind = dos\nattack.0.nodes = 2\n"
        "attack.1.kind = model_poison\nattack.1.nodes = 3\nattack.1.value = 9\n"
    )
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    assert [e.split(":")[0] for e in exc.value.errors] == [
        "algorithm.sample_size", "dp.kind", "attack.0.kind", "attack.1.kind",
    ]


def test_server_run_applies_data_attacks():
    clean = run_experiment(parse_config(SERVER_CFG))
    poisoned = run_experiment(parse_config(SERVER_CFG + LABEL_POISON))
    assert poisoned.summary["terminal"] == clean.summary["terminal"] == "max_iters"
    # The victims' training losses move, and with them the global block.
    first = lambda rep, node: next(r for r in rep.rows if r[1] == node)
    assert first(poisoned, 1)[2] != first(clean, 1)[2]
    assert first(poisoned, 0)[2] == first(clean, 0)[2]
    assert poisoned.rows[-1][2] != clean.rows[-1][2]


# ------------------------------------------------------------------- export


CSV_HEADER = "event,node,objective,gtv,train_err,val_err,dist_oracle"


def test_export_empty_report_header_only(tmp_path):
    none, nodes = np.empty(0), np.empty((0, 0))
    columns = EventColumns(np.empty(0, dtype=np.int64), none, none, nodes, nodes, nodes)
    rep = Report(events=columns, summary={"n": 0}, environment={"seed": 0})
    path = export(rep, "csv", tmp_path / "empty.csv")
    assert path == str(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"


def test_export_csv_formatting(fedgd_report, tmp_path):
    path = export(fedgd_report, "csv", tmp_path / "run.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    float_re = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}$")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        int(cells[0]) and True
        int(cells[1]) if cells[1] != "0" else 0
        for cell in cells[2:]:
            assert float_re.match(cell), cell


def test_export_json_round_trip(fedgd_report, tmp_path):
    path = export(fedgd_report, "json", tmp_path / "run.json")
    text = open(path).read()
    assert text.endswith("\n")
    data = load_report_json(path)
    assert data["summary"] == fedgd_report.summary
    assert data["environment"] == fedgd_report.environment
    assert data["rows"] == [list(r) for r in fedgd_report.rows]
    # keys are sorted for reproducible bytes
    keys = list(json.loads(text)["summary"].keys())
    assert keys == sorted(keys)


def test_export_rejects_unknown_format(fedgd_report, tmp_path):
    with pytest.raises(ValueError, match="format"):
        export(fedgd_report, "yaml", tmp_path / "run.yaml")


# ---------------------------------------------------------------------- cli


def test_cli_gen_graph(tmp_path, capsys):
    out = tmp_path / "edges.txt"
    argv = ["gen-graph", "--kind", "erdos_renyi", "--n", "8", "--p", "0.5",
            "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first

    from gtvfed.graph import load_edge_list

    g = load_edge_list(out)
    assert g.n == 8


def test_cli_gen_data(tmp_path):
    out = tmp_path / "data"
    argv = ["gen-data", "--n", "3", "--d", "2", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    from gtvfed.localmodel import load_dataset_csv

    for i in range(3):
        ds = load_dataset_csv(out / f"node_{i}.csv")
        assert ds.m == 10 and ds.X.shape[1] == 2


def test_cli_learn_graph(tmp_path, capsys):
    from gtvfed.graphlearn import save_discrepancy_csv

    D = np.array([[0.0, 0.1, 0.5], [0.1, 0.0, 0.2], [0.5, 0.2, 0.0]])
    dpath = tmp_path / "disc.csv"
    save_discrepancy_csv(D, dpath)
    out = tmp_path / "learned.txt"
    assert cli.main(["learn-graph", "--discrepancies", str(dpath), "--method",
                     "budget", "--budget", "2", "--out", str(out)]) == 0
    from gtvfed.graph import load_edge_list

    g = load_edge_list(out)
    assert g.adjacency()[0, 1] == pytest.approx(1.0)

    rc = cli.main(["learn-graph", "--discrepancies", str(dpath), "--method",
                   "budget", "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, kind, options",
    [
        ("gen-graph", "chain", {"graph.n": "9"}),
        ("gen-graph", "star", {"graph.n": "9", "graph.weight": "0.5"}),
        ("gen-graph", "erdos_renyi", {"graph.n": "9", "graph.p": "0.4", "graph.weight": "2.0", "seed": "5"}),
        ("gen-graph", "two_cluster", {"graph.n": "9", "graph.p_in": "0.7", "graph.p_out": "0.2", "seed": "5"}),
        ("learn-graph", "learned", {"graph.discrepancies": "d.csv", "graph.budget": "3"}),
        ("learn-graph", "learned", {"graph.discrepancies": "d.csv", "graph.method": "degree", "graph.d_max": "1.5"}),
    ],
)
def test_cli_graph_commands_write_the_graph_build_graph_builds(tmp_path, monkeypatch, command, kind, options):
    from gtvfed.graph import save_edge_list
    from gtvfed.graphlearn import save_discrepancy_csv

    monkeypatch.chdir(tmp_path)
    pts = np.arange(6.0)
    save_discrepancy_csv((pts[:, None] - pts[None, :]) ** 2, "d.csv")
    argv = [command, "--out", "cli.txt"] + (["--kind", kind] if command == "gen-graph" else [])
    for key, value in options.items():
        argv += [cli._flag(key), value]
    assert cli.main(argv) == 0
    text = f"graph.kind = {kind}\nalgorithm.kind = fedgd\ndata.d = 1\n"
    save_edge_list(build_graph(parse_config(text + "".join(f"{k} = {v}\n" for k, v in options.items()))), "cfg.txt")
    assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "cfg.txt").read_bytes()


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RUN_CFG)
    prefix = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "algorithm: fedgd" in out
    assert "converged: True" in out
    assert f"wrote {prefix}.csv" in out
    assert f"wrote {prefix}.json" in out
    assert (tmp_path / "out.csv").is_file() and (tmp_path / "out.json").is_file()

    assert cli.main(["report", "--in", str(prefix) + ".json"]) == 0
    assert "final dist to oracle" in capsys.readouterr().out

    summary_path = tmp_path / "summary.txt"
    assert cli.main(["report", "--in", str(prefix) + ".json", "--out", str(summary_path)]) == 0
    capsys.readouterr()
    assert "algorithm: fedgd" in summary_path.read_text()


def test_cli_run_format_selection(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RUN_CFG)
    assert cli.main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "csvonly"), "--format", "csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "csvonly.csv").is_file()
    assert not (tmp_path / "csvonly.json").exists()


def test_cli_run_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RUN_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(a),
                     "--seed", "77", "--format", "csv"]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(b),
                     "--seed", "77", "--format", "csv"]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(c),
                     "--format", "csv"]) == 0
    capsys.readouterr()
    assert (a.with_suffix(".csv")).read_bytes() == (b.with_suffix(".csv")).read_bytes()
    assert (a.with_suffix(".csv")).read_bytes() != (c.with_suffix(".csv")).read_bytes()


def test_cli_run_seed_override_takes_the_seed_range(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RUN_CFG)
    prefix = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(prefix), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {cfg_path}: --seed: must be >= 0, got -1"
    ]
    assert not prefix.with_suffix(".csv").exists()


def test_cli_run_bad_config_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "algorithm.alpha = -1\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "config error:" in capsys.readouterr().err

    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_report_strict_failed_check(tmp_path, capsys):
    report = {
        "rows": [],
        "summary": {
            "algorithm": "fedgd",
            "n": 1,
            "events": 1,
            "terminal": "max_iters",
            "converged": False,
            "final_objective": 1.0,
            "final_dist": 1.0,
            "final_train_err": 1.0,
            "final_val_err": 1.0,
            "overfit": False,
            "bound_checks": [
                {"name": "eig_upper", "measured": 2.0, "bound": 1.0,
                 "margin": -1.0, "holds": False}
            ],
        },
        "environment": {"seed": 0},
    }
    path = tmp_path / "failed.json"
    path.write_text(json.dumps(report))
    assert cli.main(["report", "--in", str(path)]) == 0
    assert "check eig_upper: FAILED" in capsys.readouterr().out
    assert cli.main(["report", "--in", str(path), "--strict"]) == 2


@pytest.mark.parametrize(
    "text, strict",
    [
        ("[1, 2]", False),
        ('{"summary": []}', False),
        ('{"summary": {"bound_checks": [{"name": "eig_upper", "measured": 2.0, "bound": 1.0, "margin": -1.0}]}}', False),
        ('{"summary": {"bound_checks": [{"name": "eig_upper", "measured": null, "bound": 1.0, "margin": -1.0, '
         '"holds": false}]}}', False),
        ('{"summary": ', False),
        ("{}", True),
    ],
)
def test_cli_report_rejects_input_that_is_not_a_report(tmp_path, capsys, text, strict):
    path = tmp_path / "r.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        load_report_json(path)
    assert cli.main(["report", "--in", str(path)] + ["--strict"] * strict) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


# One config per kind of report the CI --strict runs write: graph solvers
# sync and async, under attack and defence, with DP noise, server runs, and
# a diverged run.
REPORT_KINDS = {
    "sync": "algorithm.kind = fedgd\n",
    "async": "algorithm.kind = fedrelax\nasync.mode = total\nattack.0.kind = dos\nattack.0.nodes = 1\n",
    "trimmed": "algorithm.kind = fedgd\nasync.mode = partial\nasync.B = 2\nattack.0.kind = model_poison\n"
    "attack.0.nodes = 1\nattack.0.value = 50.0\ndefense.kind = trimmed\ndefense.trim_k = 1\n",
    "dp": "algorithm.kind = fedgd\nrecord_every = 1\ndp.kind = gaussian\ndp.sigma = 0.05\n",
    "fedavg": "algorithm.kind = fedavg\nalgorithm.eta = 0.05\nalgorithm.sample_size = 3\n",
    "fedprox": "algorithm.kind = fedprox\nalgorithm.eta = 0.5\n",
    "diverged": "algorithm.kind = fedgd\nalgorithm.eta = 5.0\n",
}


@pytest.mark.parametrize("kind", sorted(REPORT_KINDS))
def test_every_exported_report_loads(tmp_path, capsys, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\ngraph.kind = erdos_renyi\ngraph.n = 8\ngraph.p = 0.6\ndata.d = 2\n"
                   "stop.max_iters = 20\n" + REPORT_KINDS[kind])
    prefix = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg), "--out", prefix, "--format", "json"]) in (0, 3)
    report = load_report_json(prefix + ".json")
    assert (report["summary"]["terminal"] == "diverged") == (kind == "diverged")
    assert cli.main(["report", "--in", prefix + ".json"]) == 0
    capsys.readouterr()


def test_hash_inside_a_value_is_kept(tmp_path):
    path = tmp_path / "a#b.txt"
    path.write_text("# nodes: 3\n1 2 1.0\n2 3 1.0\n")
    cfg = parse_config(
        f"# leading comment\ngraph.kind = file\ngraph.path = {path}   # trailing comment\n"
        "algorithm.kind = fedgd\t# tab before the comment\ndata.d = 2\n"
    )
    assert cfg.graph["path"] == str(path)
    assert cfg.algorithm["kind"] == "fedgd"
    assert build_graph(cfg).n == 3
    with pytest.raises(ConfigError, match="no such file"):
        parse_config("graph.kind = file\ngraph.path = /nonexistent/x#y\nalgorithm.kind = fedgd\ndata.d = 2\n")
