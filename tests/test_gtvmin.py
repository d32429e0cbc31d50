import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtvfed.graph import EmpGraph, consensus_split, generate, gtv_value, is_connected
from gtvfed.gtvmin import (
    GTVMinProblem,
    SingularProblemError,
    StackedParams,
    assemble,
    batch_gradient_fn,
    clustered_bound,
    eig_bounds,
    eig_summaries,
    flat_loss,
    node_gradient,
    objective,
    quad_operator,
    sensitivity_bound,
    solve_direct,
    variation_bound,
)
from gtvfed.localmodel import CallableLoss, LocalDataset, QuadLoss, from_dataset, generate_local

TWO_NODE_GRAPH = EmpGraph(2, [(0, 1)])


def two_node_problem(alpha=0.5):
    # Losses (w - 0)^2 and (w - 2)^2 over a unit edge.
    losses = (
        from_dataset(LocalDataset([1.0], [0.0])),
        from_dataset(LocalDataset([1.0], [2.0])),
    )
    return GTVMinProblem(TWO_NODE_GRAPH, losses, alpha)


def random_problem(seed, n=6, d=2, alpha=1.0, p=0.6, noise=0.3, ridge=0.0):
    """Connected random instance with per-node datasets."""
    for attempt in range(50):
        g = generate("erdos_renyi", n, seed=seed * 100 + attempt, p=p)
        if is_connected(g):
            break
    rng = np.random.default_rng(seed)
    losses = []
    for i in range(n):
        w_bar = rng.standard_normal(d)
        ds = generate_local(w_bar, int(rng.integers(d + 2, 15)), noise, seed=seed * 1009 + 7000 + i)
        losses.append(from_dataset(ds, ridge=ridge))
    return GTVMinProblem(g, losses, alpha)


def test_stacked_params_views():
    sp = StackedParams.from_flat(np.arange(6.0), 3, 2)
    assert sp.n == 3 and sp.d == 2
    assert np.array_equal(sp.blocks[1], [2.0, 3.0])
    assert np.array_equal(sp.flat, np.arange(6.0))
    with pytest.raises(ValueError):
        StackedParams.from_flat(np.arange(5.0), 3, 2)
    assert StackedParams.zeros(2, 3).blocks.shape == (2, 3)


def test_problem_validation():
    losses = (QuadLoss([[1.0]], [0.0]), QuadLoss(np.eye(2), np.zeros(2)))
    with pytest.raises(ValueError):
        GTVMinProblem(TWO_NODE_GRAPH, losses, 1.0)
    with pytest.raises(ValueError):
        GTVMinProblem(TWO_NODE_GRAPH, (QuadLoss([[1.0]], [0.0]),), 1.0)
    with pytest.raises(ValueError):
        two = (QuadLoss([[1.0]], [0.0]),) * 2
        GTVMinProblem(TWO_NODE_GRAPH, two, -1.0)


def test_problem_rejects_a_loss_that_is_not_quadratic():
    losses = (QuadLoss([[1.0]], [0.0]), CallableLoss(lambda w: w @ w, lambda w: 2.0 * w, d=1))
    with pytest.raises(ValueError, match="node 1: GTVMin takes a QuadLoss, got CallableLoss"):
        GTVMinProblem(TWO_NODE_GRAPH, losses, 1.0)


def test_assemble_two_node_example():
    Q, q, c = assemble(two_node_problem())
    assert np.allclose(Q, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-15)
    assert np.allclose(q, [0.0, -4.0], atol=1e-15)
    assert c == pytest.approx(4.0)


def test_assemble_alpha_zero_block_diagonal():
    p = random_problem(3, alpha=0.0)
    Q, _, _ = assemble(p)
    d = p.d
    off = Q.copy()
    for i in range(p.n):
        off[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0.0
    assert np.all(off == 0.0)


def test_objective_two_node_example():
    p = two_node_problem()
    assert objective(p, [[0.5], [1.5]]) == pytest.approx(1.0, abs=1e-12)


def test_objective_constant_blocks_drop_coupling():
    p = random_problem(11, alpha=5.0)
    W = np.tile(np.array([0.3, -0.7]), (p.n, 1))
    local = sum(loss.value(W[i]) for i, loss in enumerate(p.losses))
    assert objective(p, W) == pytest.approx(local, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_objective_matches_assembled_quadratic(seed):
    p = random_problem(seed % 500, alpha=float((seed % 7) + 1) / 2.0)
    Q, q, c = assemble(p)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p.n * p.d)
    direct = float(x @ Q @ x + q @ x + c)
    assert objective(p, x.reshape(p.n, p.d)) == pytest.approx(
        direct, abs=1e-10, rel=1e-10
    )


def test_solve_direct_two_node_example():
    sp = solve_direct(two_node_problem())
    assert sp.blocks == pytest.approx(np.array([[0.5], [1.5]]), abs=1e-12)
    resid = 2 * assemble(two_node_problem())[0] @ sp.flat + assemble(two_node_problem())[1]
    assert np.max(np.abs(resid)) <= 1e-8


def test_solve_direct_alpha_zero_decouples():
    p = random_problem(21, alpha=0.0)
    sp = solve_direct(p)
    for i, loss in enumerate(p.losses):
        local = np.linalg.solve(2 * loss.Q, -loss.q)
        assert np.max(np.abs(sp.blocks[i] - local)) <= 1e-9


def test_solve_direct_consensus_limit():
    sp = solve_direct(two_node_problem(alpha=1e6))
    assert np.max(np.abs(sp.blocks - 1.0)) <= 1e-3


def test_solve_direct_singular_is_an_error():
    # Zero losses leave the coupled quadratic rank deficient.
    losses = (QuadLoss([[0.0]], [0.0]),) * 2
    p = GTVMinProblem(TWO_NODE_GRAPH, losses, 1.0)
    with pytest.raises(SingularProblemError):
        solve_direct(p)


def test_solve_direct_beats_random_points():
    p = random_problem(5, alpha=2.0)
    sp = solve_direct(p)
    best = objective(p, sp)
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = sp.blocks + rng.standard_normal(sp.blocks.shape) * rng.uniform(0.01, 3.0)
        assert best <= objective(p, w) - 1e-12


def test_monotone_clustering_in_alpha():
    p0 = random_problem(9, alpha=1.0)
    spread = []
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        p = GTVMinProblem(p0.graph, p0.losses, alpha)
        W = solve_direct(p).blocks
        diffs = W[:, None, :] - W[None, :, :]
        spread.append(float(np.sqrt((diffs**2).sum(axis=2)).max()))
    assert all(a >= b - 1e-12 for a, b in zip(spread, spread[1:]))


def test_node_gradient_matches_finite_differences():
    p = random_problem(13, alpha=1.5)
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        W = rng.standard_normal((p.n, p.d))
        i = int(rng.integers(p.n))
        g = node_gradient(p, i, W)
        for t in range(p.d):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, t] += h
            Wm[i, t] -= h
            fd = (objective(p, Wp) - objective(p, Wm)) / (2 * h)
            assert abs(fd - g[t]) <= 1e-5 * max(1.0, abs(g[t]))


def test_batch_gradient_matches_node_gradients():
    p = random_problem(17, alpha=0.8)
    fn = batch_gradient_fn(p)
    rng = np.random.default_rng(2)
    W = rng.standard_normal((p.n, p.d))
    G = fn(W)
    for i in range(p.n):
        assert np.max(np.abs(G[i] - node_gradient(p, i, W))) <= 1e-12


def test_flat_loss_matches_objective():
    p = random_problem(19, alpha=1.2)
    loss = flat_loss(p)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(p.n * p.d)
    assert loss.value(x) == pytest.approx(objective(p, x.reshape(p.n, p.d)), rel=1e-12)
    Q, q, _ = assemble(p)
    assert loss.gradient(x) == pytest.approx(2 * Q @ x + q, rel=1e-12)


def test_eig_bounds_two_node_example():
    b = eig_bounds(two_node_problem())
    assert b.upper == pytest.approx(2.0)
    assert b.lower is not None and b.lower > 0.0


def test_eig_bounds_disconnected_has_no_lower():
    g = EmpGraph(3, [(0, 1)])
    losses = tuple(from_dataset(generate_local([1.0], 5, 0.1, seed=i)) for i in range(3))
    b = eig_bounds(GTVMinProblem(g, losses, 1.0))
    assert b.lower is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_eig_bounds_sandwich(seed):
    """Spectral estimates bracket the assembled quadratic's spectrum."""
    alpha = float(10.0 ** ((seed % 5) - 2))
    p = random_problem(seed % 997, alpha=alpha)
    vals = np.linalg.eigvalsh(assemble(p)[0])
    b = eig_bounds(p)
    assert vals[-1] <= b.upper + 1e-9 * (1 + b.upper)
    assert b.lower is not None
    assert vals[0] >= b.lower - 1e-9 * (1 + abs(b.lower))


def test_eig_summaries_fields():
    s = eig_summaries(two_node_problem())
    assert s.lam_max == pytest.approx(1.0)
    assert s.lam_bar_min == pytest.approx(1.0)
    assert s.rho == pytest.approx(0.25)


def test_variation_bound_formula_and_halving():
    p = two_node_problem(alpha=1.0)
    b1 = variation_bound(p, [0.5, 0.25], [5, 10])
    # lam2 of a unit edge is 2.
    assert b1 == pytest.approx((0.5 / 5 + 0.25 / 10) / 2.0)
    b2 = variation_bound(two_node_problem(alpha=2.0), [0.5, 0.25], [5, 10])
    assert b2 == pytest.approx(b1 / 2.0)
    with pytest.raises(ValueError):
        variation_bound(p, [0.5], [5, 10])


def test_variation_bound_zero_noise_exact_consensus():
    # One shared truth, no noise: the solution is exactly consensual.
    rng = np.random.default_rng(4)
    w_bar = rng.standard_normal(2)
    g = generate("erdos_renyi", 5, seed=8, p=0.9)
    losses = [
        from_dataset(generate_local(w_bar, 10, 0.0, seed=800 + i)) for i in range(5)
    ]
    p = GTVMinProblem(g, losses, 1.0)
    assert variation_bound(p, [0.0] * 5, [10] * 5) == 0.0
    dev = consensus_split(solve_direct(p).blocks).deviations
    assert float(np.sum(dev**2)) <= 1e-16


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_variation_bound_dominates_measured_deviation(seed):
    rng = np.random.default_rng(seed)
    n, d = 6, 2
    w_bar = rng.standard_normal(d)
    for attempt in range(50):
        g = generate("erdos_renyi", n, seed=seed * 100 + attempt, p=0.6)
        if is_connected(g):
            break
    datasets = [
        generate_local(w_bar, int(rng.integers(d + 2, 12)), 0.4, seed=seed * 1013 + 3000 + i)
        for i in range(n)
    ]
    p = GTVMinProblem(g, [from_dataset(ds) for ds in datasets], 1.0)
    noise_sq = [float(np.sum((ds.y - ds.X @ w_bar) ** 2)) for ds in datasets]
    bound = variation_bound(p, noise_sq, [ds.m for ds in datasets])
    dev = consensus_split(solve_direct(p).blocks).deviations
    assert float(np.sum(dev**2)) <= bound + 1e-12


def test_clustered_bound_whole_graph_reduces_to_variation():
    p = random_problem(23, alpha=1.0)
    noise_sq = [0.1 * (i + 1) for i in range(p.n)]
    sizes = [loss.source.m for loss in p.losses]
    full = clustered_bound(p, range(p.n), noise_sq, sizes, 1.0, 10.0)
    assert full == pytest.approx(variation_bound(p, noise_sq, sizes), rel=1e-12)


def test_clustered_bound_counts_boundary():
    # Chain 0-1-2, cluster {0, 1}: one boundary edge.
    g = generate("chain", 3)
    losses = tuple(from_dataset(generate_local([1.0], 6, 0.1, seed=i)) for i in range(3))
    p = GTVMinProblem(g, losses, 2.0)
    base = clustered_bound(p, [0, 1], [0.0, 0.0], [6, 6], 0.0, 0.0)
    assert base == 0.0
    with_truth = clustered_bound(p, [0, 1], [0.0, 0.0], [6, 6], 4.0, 1.0)
    # lam2 of a unit edge is 2; boundary weight 1.
    assert with_truth == pytest.approx(2.0 * 1.0 * 2.0 * (4.0 + 1.0) / (2.0 * 2.0))
    with pytest.raises(ValueError):
        clustered_bound(p, [0], [0.0], [6], 0.0, 0.0)


def test_sensitivity_bound_scaling():
    p = random_problem(29, alpha=1.0)
    perts = [np.full(loss.source.m, 0.1) for loss in p.losses]
    b1 = sensitivity_bound(p, perts)
    b2 = sensitivity_bound(p, [2.0 * v for v in perts])
    assert b2 == pytest.approx(4.0 * b1, rel=1e-12)
    assert sensitivity_bound(p, [np.zeros(loss.source.m) for loss in p.losses]) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_sensitivity_bound_dominates_label_shift(seed):
    """Re-solving after a label perturbation moves less than the bound."""
    rng = np.random.default_rng(seed)
    p = random_problem(seed % 499, alpha=1.0)
    base = solve_direct(p)
    perts, new_losses = [], []
    for loss in p.losses:
        ds = loss.source
        eps = rng.standard_normal(ds.m) * 0.1
        perts.append(eps)
        new_losses.append(from_dataset(LocalDataset(ds.X, ds.y + eps)))
    shifted = solve_direct(GTVMinProblem(p.graph, new_losses, p.alpha))
    moved = float(np.sum((base.flat - shifted.flat) ** 2))
    assert moved <= sensitivity_bound(p, perts) + 1e-12


def test_scalar_mean_estimation_consensus():
    rng = np.random.default_rng(6)
    y = rng.uniform(-3.0, 5.0, size=7)
    g = generate("erdos_renyi", 7, seed=30, p=0.7)
    assert is_connected(g)
    losses = [from_dataset(LocalDataset([1.0], [yi])) for yi in y]
    p = GTVMinProblem(g, losses, 1e6)
    blocks = solve_direct(p).blocks[:, 0]
    spread = float(np.max(y) - np.min(y))
    assert np.max(np.abs(blocks - y.mean())) <= 1e-6 * spread


# ------------------------------------------------ oracle against dense solve

# Node data kinds: "full" pins every coordinate, "deficient" leaves the last
# coordinate free, "empty" has no samples.
NODE_KINDS = ("full", "deficient", "empty")


def oracle_case(d, sizes, alpha, ridge, kinds, seed):
    """A problem plus whether its minimizer is unique by construction.

    The graph is a union of components of the given sizes (size 1 is an
    isolated node). A component is determined when ridge > 0 or one of its
    nodes is "full"; with alpha = 0 every node must be determined alone.
    """
    rng = np.random.default_rng(seed)
    edges, groups, start = [], [], 0
    for size in sizes:
        nodes = list(range(start, start + size))
        for a, b in zip(nodes, nodes[1:]):  # a spanning path keeps it connected
            edges.append((a, b, float(rng.choice([0.5, 1.0]))))
        for a in nodes:
            for b in nodes:
                if a + 1 < b and rng.random() < 0.4:
                    edges.append((a, b, float(rng.choice([0.5, 1.0]))))
        groups.append(nodes)
        start += size
    losses = []
    for kind in kinds:
        if kind == "empty":
            X, y = np.zeros((0, d)), np.zeros(0)
        else:
            # Q = X'X/m stays near the identity, so even alpha = 1e6 leaves
            # the dense reference accurate to about 5e-10.
            X = np.vstack([np.sqrt(d + 2.0) * np.eye(d), 0.3 * rng.standard_normal((2, d))])
            if kind == "deficient":
                X[:, -1] = 0.0
            y = rng.standard_normal(X.shape[0])
        losses.append(from_dataset(LocalDataset(X, y), ridge=ridge))
    if alpha == 0.0:
        groups = [[i] for i in range(start)]
    unique = ridge > 0.0 or all(any(kinds[i] == "full" for i in g) for g in groups)
    return GTVMinProblem(EmpGraph(start, edges), losses, alpha, d=d), unique


@st.composite
def oracle_cases(draw):
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    kinds = draw(st.lists(st.sampled_from(NODE_KINDS), min_size=sum(sizes), max_size=sum(sizes)))
    return oracle_case(
        d,
        sizes,
        draw(st.sampled_from([0.0, 0.3, 1.0, 1e6])),
        draw(st.sampled_from([0.0, 0.0, 0.5])),
        kinds,
        draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
# isolated full node, d = 1, stiff coupling
@example(oracle_case(1, [1, 3], 1e6, 0.0, ["full", "deficient", "full", "empty"], 1))
# disconnected, every component determined by one full node
@example(oracle_case(3, [3, 2], 1.0, 0.0, ["empty", "full", "deficient", "deficient", "full"], 2))
# alpha = 0 with ridge: empty nodes are determined by the ridge alone
@example(oracle_case(2, [2, 1], 0.0, 0.5, ["empty", "full", "deficient"], 3))
# underdetermined component, and all-zero losses
@example(oracle_case(2, [2, 2], 1.0, 0.0, ["full", "deficient", "deficient", "empty"], 4))
@example(oracle_case(2, [3], 1.0, 0.0, ["empty"] * 3, 5))
def test_pcg_oracle_matches_dense_solve(case):
    p, unique = case
    if not unique:
        with pytest.raises(SingularProblemError):
            solve_direct(p)
        return
    Q, q, _ = assemble(p)
    ref = np.linalg.solve(2.0 * Q, -q)
    got = solve_direct(p).flat
    assert np.linalg.norm(got - ref) <= 1e-9 * max(1.0, float(np.linalg.norm(ref)))


def test_oracle_reuses_operator_for_new_linear_terms():
    p = random_problem(31, alpha=2.0)
    op = quad_operator(p)
    assert quad_operator(p) is op
    rng = np.random.default_rng(5)
    qs = rng.standard_normal((p.n, p.d))
    Q, _, _ = assemble(p)
    got = op.solve(qs).flat
    assert np.max(np.abs(got - np.linalg.solve(2.0 * Q, -qs.reshape(-1)))) <= 1e-10


def _identical_local_losses():
    # alpha = 0 and one Q at every node: the Krylov space has dimension d,
    # so Lanczos breaks down after d steps.
    loss = QuadLoss([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]], [0.0, 1.0, 0.0])
    return GTVMinProblem(generate("chain", 8), [loss] * 8, 0.0)


def _size_two():
    return GTVMinProblem(TWO_NODE_GRAPH, (QuadLoss([[1.5]], [0.0]), QuadLoss([[4.0]], [1.0])), 0.7)


def _singular_local_loss():
    # One sample at a d = 3 node leaves its Q singular; with alpha = 0 the
    # assembled quadratic has lambda_min = 0.
    p = random_problem(5, d=3, alpha=0.0)
    ds = generate_local(np.ones(3), 1, 0.1, seed=3)
    return GTVMinProblem(p.graph, [from_dataset(ds)] + list(p.losses[1:]), 0.0)


EXTRA_SPECTRA = {
    "breakdown": _identical_local_losses,
    "size2": _size_two,
    "singular": _singular_local_loss,
}


@pytest.mark.parametrize("case", [0.0, 1.0, 1e6, *EXTRA_SPECTRA])
def test_operator_extreme_eigenvalues_match_dense(case):
    p = EXTRA_SPECTRA[case]() if case in EXTRA_SPECTRA else random_problem(37, alpha=case)
    vals = np.linalg.eigvalsh(assemble(p)[0])
    lo, hi = quad_operator(p).extreme_eigenvalues()
    assert abs(lo - vals[0]) <= 1e-12 * vals[-1]
    assert abs(hi - vals[-1]) <= 1e-12 * vals[-1]


def test_operator_extreme_eigenvalues_of_one_scalar_node():
    p = GTVMinProblem(EmpGraph(1), [QuadLoss([[3.0]], [1.0])], 1.0)
    assert quad_operator(p).extreme_eigenvalues() == (3.0, 3.0)


def test_solve_direct_rejects_nonconvex_local_loss():
    losses = (QuadLoss([[-1.0]], [0.0]), QuadLoss([[4.0]], [0.0]))
    with pytest.raises(SingularProblemError, match="not convex"):
        solve_direct(GTVMinProblem(TWO_NODE_GRAPH, losses, 1.0))


def test_eig_summaries_computed_once_per_problem(monkeypatch):
    p = two_node_problem()
    first = eig_summaries(p)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    assert eig_summaries(p) is first
    assert eig_bounds(p).summaries is first
    assert calls == []
    fresh = eig_summaries(two_node_problem())
    assert len(calls) == 2 and fresh == first  # one stacked call, one for the mean


def test_local_spectra_solved_once_per_problem(monkeypatch):
    # eig_bounds reads the largest eigenvalue of each Q_i, solve_direct's
    # preconditioner the smallest: one stacked eigvalsh serves both.
    p = random_problem(3, n=8, d=3)
    Qs = p.stack.Qs
    on_stack = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh",
        lambda a: on_stack.append(np.shape(a) == Qs.shape and np.array_equal(a, Qs)) or real(a),
    )
    eig_bounds(p)
    solve_direct(p)
    assert on_stack.count(True) == 1
