import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import budget_edges

import gtvfed
from gtvfed import cli
from gtvfed.graph import EmpGraph
from gtvfed.graphlearn import (
    DiscrepancyMatrix,
    discrepancy,
    discrepancy_matrix,
    graph_objective,
    learn_graph_budget,
    learn_graph_degree,
    load_discrepancy_csv,
    save_discrepancy_csv,
)
from gtvfed.localmodel import LocalDataset, from_dataset, generate_local

D3 = np.array(
    [
        [0.0, 0.1, 0.5],
        [0.1, 0.0, 0.2],
        [0.5, 0.2, 0.0],
    ]
)


def test_discrepancy_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        DiscrepancyMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        DiscrepancyMatrix([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        DiscrepancyMatrix([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        DiscrepancyMatrix([[1.0, 0.5], [0.5, 0.0]])
    assert DiscrepancyMatrix(D3).n == 3


def test_scalar_discrepancy():
    assert discrepancy("scalar", 3.0, 5.0) == 2.0
    assert discrepancy("scalar", -1.0, -1.0) == 0.0
    with pytest.raises(ValueError, match="numbers"):
        discrepancy("scalar", "a", 1.0)
    with pytest.raises(ValueError, match="unknown discrepancy kind"):
        discrepancy("spectral", 1.0, 2.0)


def test_param_discrepancy():
    assert discrepancy("param", [1.0, 0.0], [0.0, 0.0]) == 1.0
    assert discrepancy("param", [3.0, 4.0], [0.0, 0.0]) == 5.0
    with pytest.raises(ValueError, match="shapes differ"):
        discrepancy("param", [1.0], [1.0, 2.0])


def test_gradient_discrepancy_example():
    # (w - 2)^2 vs (w - 0)^2 probed at v = 0: gradients -4 and 0.
    a = from_dataset(LocalDataset([1.0], [2.0]))
    b = from_dataset(LocalDataset([1.0], [0.0]))
    assert discrepancy("gradient", a, b, v=[0.0]) == pytest.approx(4.0)
    # Default probe point is the origin.
    assert discrepancy("gradient", a, b) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="two losses"):
        discrepancy("gradient", [1.0], [2.0])


def test_gradient_discrepancy_identical_data_is_exactly_zero():
    X = np.random.default_rng(0).standard_normal((10, 2))
    w_bar = np.array([1.0, -0.5])
    a = from_dataset(LocalDataset(X, X @ w_bar))
    b = from_dataset(LocalDataset(X, X @ w_bar))
    assert discrepancy("gradient", a, b, v=[0.3, 0.7]) == 0.0


def test_prediction_discrepancy_example():
    testX = np.array([[1.0, 0.0], [0.0, 1.0]])
    d = discrepancy("prediction", [1.0, 0.0], [0.0, 1.0], testX=testX)
    assert d == pytest.approx(1.0)
    with pytest.raises(ValueError, match="test features"):
        discrepancy("prediction", [1.0], [2.0])
    with pytest.raises(ValueError, match="nonempty"):
        discrepancy("prediction", [1.0], [2.0], testX=np.empty((0, 1)))


def test_discrepancy_matrix_is_symmetric_hollow():
    rng = np.random.default_rng(1)
    params = [rng.standard_normal(3) for _ in range(5)]
    D = discrepancy_matrix("param", params)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert D[0, 1] == pytest.approx(float(np.linalg.norm(params[0] - params[1])))


def test_degree_learner_converges_where_projection_once_stalled():
    # Twenty random parameter vectors at d_max = 3: a feasible problem that
    # the 500-sweep alternating projection used to give up on.
    D = discrepancy_matrix("param", np.random.default_rng(0).standard_normal((20, 3)))
    g = learn_graph_degree(D, 3)
    sums = np.zeros(g.n)
    for i, j, w in g.edges:
        sums[i] += w
        sums[j] += w
    assert np.max(np.abs(sums - 3.0)) <= 1e-4


def test_degree_learner_has_exact_row_sums_at_a_hundred_nodes():
    # The projected-gradient learner raised "constraint projection did not
    # converge" on this feasible input; the LP optimum meets the rows exactly.
    D = discrepancy_matrix("param", np.random.default_rng(0).standard_normal((100, 3)))
    g = learn_graph_degree(D, 3)
    sums = np.zeros(g.n)
    for i, j, w in g.edges:
        sums[i] += w
        sums[j] += w
    assert np.max(np.abs(sums - 3.0)) <= 1e-9


def test_degree_learner_reports_a_failed_solve(monkeypatch):
    import scipy.optimize

    def failed(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties")

    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    with pytest.raises(ValueError, match="HiGHS status 4: numerical difficulties"):
        learn_graph_degree(D3, 1.0)


def test_cli_import_leaves_scipy_unloaded():
    # The learner imports scipy.optimize lazily; hoisting it would add most
    # of a second to every command's start.
    src = os.path.dirname(os.path.dirname(gtvfed.__file__))
    code = "import sys, gtvfed.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_budget_learner_examples():
    g2 = learn_graph_budget(D3, 2.0)
    assert g2.edges == ((0, 1, 1.0),)
    g4 = learn_graph_budget(D3, 4.0)
    assert g4.edges == ((0, 1, 1.0), (1, 2, 1.0))
    g0 = learn_graph_budget(D3, 0.0)
    assert g0.edges == ()
    # Fractional remainder lands on the next-cheapest pair.
    g3 = learn_graph_budget(D3, 3.0)
    assert g3.edges == ((0, 1, 1.0), (1, 2, 0.5))


def test_budget_learner_tie_break_is_lexicographic():
    D = np.ones((3, 3)) - np.eye(3)
    g = learn_graph_budget(D, 2.0)
    assert g.edges == ((0, 1, 1.0),)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([2, 5, None]), st.floats(0.0, 1.0))
def test_budget_learner_ranks_pairs_as_the_per_pair_sort(n, seed, levels, share):
    # Few discrepancy levels make many ties, broken on (i, j).
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) if levels is None else rng.integers(0, levels, (n, n)).astype(float)
    D = np.triu(A, 1) + np.triu(A, 1).T
    E = float(np.round(share * n * (n - 1), 1))
    assert learn_graph_budget(D, E).edges == EmpGraph(n, budget_edges(D, E)).edges


def test_budget_learner_rejects_bad_budgets():
    with pytest.raises(ValueError, match="nonnegative"):
        learn_graph_budget(D3, -1.0)
    with pytest.raises(ValueError, match="capacity"):
        learn_graph_budget(D3, 7.0)


def test_budget_learner_is_optimal_among_same_budget_graphs():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.0, 1.0, size=(5, 5))
    D = (raw + raw.T) / 2.0
    np.fill_diagonal(D, 0.0)
    g = learn_graph_budget(D, 6.0)
    val = graph_objective(D, g)
    # Any three unit-weight pairs cost at least as much.
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for combo in itertools.combinations(pairs, 3):
        alt = sum(2.0 * D[i, j] for i, j in combo)
        assert val <= alt + 1e-12


def test_degree_learner_equal_discrepancies_yield_complete_graph():
    D = 0.3 * (np.ones((3, 3)) - np.eye(3))
    g = learn_graph_degree(D, 2.0)
    assert len(g.edges) == 3
    for _, _, w in g.edges:
        assert w == pytest.approx(1.0, abs=1e-6)


def test_degree_learner_matches_exhaustive_matchings():
    # n=4, row sums 1: the feasible extremes are the perfect matchings.
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.1, 1.0, size=(4, 4))
    D = (raw + raw.T) / 2.0
    np.fill_diagonal(D, 0.0)
    matchings = (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )
    best = min(sum(2.0 * D[i, j] for i, j in m) for m in matchings)
    g = learn_graph_degree(D, 1.0)
    assert graph_objective(D, g) == pytest.approx(best, abs=1e-3)


def test_degree_learner_edge_cases():
    assert learn_graph_degree(D3, 0.0).edges == ()
    with pytest.raises(ValueError, match="infeasible"):
        learn_graph_degree(D3, 2.5)
    with pytest.raises(ValueError, match="nonnegative"):
        learn_graph_degree(D3, -0.5)


def test_graph_objective_counts_ordered_pairs():
    g = learn_graph_budget(D3, 2.0)
    assert graph_objective(D3, g) == pytest.approx(2.0 * 0.1)
    with pytest.raises(ValueError, match="node count"):
        graph_objective(np.zeros((2, 2)), g)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_discrepancy_matrix_rejects_non_finite_entries(value):
    # nan passes the symmetry, sign and diagonal tests alike.
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, value], [2.0, value, 0.0]])
    with pytest.raises(ValueError, match=re.escape(f"discrepancy (1, 2) is {value}; entries must be finite")):
        DiscrepancyMatrix(D)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_discrepancy_csv_rejects_non_finite_entries(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"0,1,2\n1,0,{cell}\n2,{cell},0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-finite entry")):
        load_discrepancy_csv(path)


def test_cli_learn_graph_rejects_nan_discrepancies(tmp_path, capsys):
    path = tmp_path / "nan-d.csv"
    path.write_text("0,nan\nnan,0\n")
    out = tmp_path / "g.txt"
    assert cli.main(["learn-graph", "--discrepancies", str(path), "--method", "budget",
                     "--budget", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:1: non-finite entry")
    assert not out.exists()


def test_discrepancy_csv_round_trip(tmp_path):
    path = tmp_path / "disc.csv"
    save_discrepancy_csv(D3, path)
    assert np.max(np.abs(load_discrepancy_csv(path) - D3)) == 0.0


def test_discrepancy_csv_loader_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n1.0\n")
    with pytest.raises(ValueError, match="square"):
        load_discrepancy_csv(bad)
    bad.write_text("0.0,x\ny,0.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_discrepancy_csv(bad)
    bad.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_discrepancy_csv(bad)


def test_pipeline_from_datasets_to_graph():
    """Same-truth nodes end up linked more strongly than the outlier."""
    w_a = np.array([1.0, 0.0])
    w_b = np.array([-4.0, 3.0])
    datasets = [
        generate_local(w_a, 20, 0.05, seed=100),
        generate_local(w_a, 20, 0.05, seed=101),
        generate_local(w_b, 20, 0.05, seed=102),
    ]
    losses = [from_dataset(ds) for ds in datasets]
    D = discrepancy_matrix("gradient", losses, v=np.zeros(2))
    g = learn_graph_budget(D, 2.0)
    assert g.edges == ((0, 1, 1.0),)
