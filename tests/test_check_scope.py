"""Which bound checks a run reports.

Most configs break one condition a check needs, either a run-level one the
harness tests or one its bound function enforces by raising; the others
are runs where a check does appear. Each case pins the exact list of check
names the run reports, in report order.
"""

import numpy as np
import pytest

from gtvfed.harness import _worst, parse_config, run_experiment
from gtvfed.localmodel import LocalDataset, save_dataset_csv

# What a connected shared-truth run with an oracle reports at the least.
ALL_SYNC = ["eig_upper", "eig_lower", "variation", "label_sensitivity"]

BASE = """
seed = 4
data.d = 2
stop.max_iters = 30
"""
ER8 = BASE + """
graph.kind = erdos_renyi
graph.n = 8
graph.p = 0.6
"""
DP = ER8 + """
algorithm.kind = fedgd
dp.kind = gaussian
dp.sigma = 0.01
"""
RELAX = ER8 + """
algorithm.kind = fedrelax
"""
PARTIAL = RELAX + """
async.mode = partial
async.B = 2
"""
TWO_CLUSTER = BASE + """
graph.kind = two_cluster
graph.n = 10
graph.p_in = 0.9
data.model = clustered
algorithm.kind = fedrelax
algorithm.alpha = 2.0
"""

CASES = {
    "one_node": (
        BASE + "graph.kind = erdos_renyi\ngraph.n = 1\nalgorithm.kind = fedgd\n",
        ["eig_upper"],
    ),
    "disconnected": (
        BASE + "graph.kind = erdos_renyi\ngraph.n = 6\ngraph.p = 0.0\nalgorithm.kind = fedgd\n",
        ["eig_upper"],
    ),
    "no_coupling": (ER8 + "algorithm.kind = fedgd\nalgorithm.alpha = 0.0\n", ["eig_upper", "eig_lower"]),
    "empty_node": (
        "graph.kind = chain\ngraph.n = 4\ndata.kind = csv\ndata.dir = {data}\n"
        "algorithm.kind = fedgd\nstop.max_iters = 30\n",
        ["eig_upper", "eig_lower"],
    ),
    "ridge": (
        ER8 + "algorithm.kind = fedgd\ndata.ridge = 0.5\n",
        ["eig_upper", "eig_lower", "label_sensitivity"],
    ),
    "two_cluster": (
        TWO_CLUSTER + "graph.p_out = 0.1\n",
        ["eig_upper", "eig_lower", "clustered_variation", "label_sensitivity"],
    ),
    "two_cluster_apart": (TWO_CLUSTER + "graph.p_out = 0.0\n", ["eig_upper"]),
    # Clustered truth on a graph whose clusters the harness does not know.
    "clustered_on_er": (
        ER8 + "algorithm.kind = fedgd\ndata.model = clustered\n",
        ["eig_upper", "eig_lower", "label_sensitivity"],
    ),
    "two_cluster_one_node": (
        BASE + "graph.kind = two_cluster\ngraph.n = 1\ndata.model = clustered\n"
        "algorithm.kind = fedgd\n",
        ["eig_upper"],
    ),
    "partial": (PARTIAL, ALL_SYNC + ["async_contraction"]),
    "partial_attacked": (
        PARTIAL + "attack.0.kind = model_poison\nattack.0.nodes = 1\nattack.0.value = 3.0\n",
        ALL_SYNC,
    ),
    "total": (RELAX + "async.mode = total\n", ALL_SYNC),
    "dp": (DP, ALL_SYNC + ["noisy_descent"]),
    "dp_diminishing": (DP + "algorithm.eta = 0.05\nalgorithm.schedule = diminishing\n", ALL_SYNC),
    # The run stops at event 0, before any noise is drawn.
    "dp_no_noise": (DP + "stop.dist_tol = 1e9\n", ALL_SYNC),
    # lambda_max(Q) is about 7.65 here, so eta = 0.14 gives kappa about 1.14.
    "dp_kappa_above_1": (DP + "algorithm.eta = 0.14\n", ALL_SYNC),
    "dp_record_every_2": (DP + "record_every = 2\n", ALL_SYNC),
    "small_oracle_sync": (
        "seed = 2\nrecord_every = 50\ngraph.kind = erdos_renyi\ngraph.n = 30\n"
        "graph.p = 0.27\ndata.d = 5\nalgorithm.kind = fedgd\nstop.max_iters = 300\n",
        ALL_SYNC,
    ),
    "small_probe_dp": (
        "seed = 2\ngraph.kind = erdos_renyi\ngraph.n = 20\ngraph.p = 0.4\ndata.d = 5\n"
        "algorithm.kind = fedgd\nstop.max_iters = 100\ndp.kind = gaussian\ndp.sigma = 0.01\n",
        ALL_SYNC + ["noisy_descent"],
    ),
    "small_async_defended": (
        "seed = 2\nrecord_every = 10\ngraph.kind = erdos_renyi\ngraph.n = 20\n"
        "graph.p = 0.5\ndata.d = 5\nalgorithm.kind = fedrelax\nasync.mode = partial\n"
        "async.B = 3\nstop.max_iters = 100\nattack.0.kind = model_poison\n"
        "attack.0.nodes = 3,11\nattack.0.value = 1000.0\ndefense.kind = trimmed\n"
        "defense.trim_k = 1\n",
        ALL_SYNC,
    ),
}


def _node_data(root):
    """Four 6-row datasets on disk, node 3 with no rows at all."""
    rng = np.random.default_rng(0)
    for i in range(4):
        m = 0 if i == 3 else 6
        X = rng.standard_normal((m, 2))
        save_dataset_csv(LocalDataset(X, X @ [1.0, -1.0]), root / f"node_{i}.csv")
    return root


@pytest.mark.filterwarnings("ignore:split leaves an empty side")
@pytest.mark.parametrize("case", sorted(CASES))
def test_reported_checks(case, tmp_path):
    text, names = CASES[case]
    if "{data}" in text:
        text = text.format(data=_node_data(tmp_path))
    rep = run_experiment(parse_config(text))
    assert rep.summary["terminal"] != "diverged"
    assert [c["name"] for c in rep.summary["bound_checks"]] == names


def test_worst_row_is_the_first_smallest_margin():
    rows = [{"margin": 2.0}, {"margin": -1.0}, {"margin": -1.0}, {"margin": 0.5}]
    assert _worst(iter(rows)) is rows[1]
    assert _worst([]) is None
