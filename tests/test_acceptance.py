"""Whole-system checks at their stated tolerances.

Each test wraps its body in the conftest acceptance() recorder so the run
summary prints one PASS/FAIL line per criterion.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from conftest import acceptance

from gtvfed import seeds
from gtvfed.algorithms import (
    async_bound,
    contraction_factor,
    fedavg_run,
    fedgd_op,
    fedrelax_op,
    fedsgd_op,
    gen_partially_async,
    run_async,
    run_sync,
    zero_delay_schedule,
)
from gtvfed.graph import (
    components,
    consensus_split,
    degrees,
    generate,
    gtv_value,
    induced,
    is_connected,
    laplacian,
    spectrum,
)
from gtvfed.graphlearn import graph_objective, learn_graph_budget, learn_graph_degree
from gtvfed.gtvmin import (
    GTVMinProblem,
    assemble,
    clustered_bound,
    sensitivity_bound,
    solve_direct,
    variation_bound,
)
from gtvfed.harness import export, parse_config, run_experiment
from gtvfed.localmodel import LocalDataset, from_dataset
from gtvfed.optim import LRSchedule, StopRule, optimal_rate
from gtvfed.trust import RobustAgg, aggregate, dp_test_bound, gaussian_sigma, geometric_median

ALPHAS = (0.1, 1.0, 10.0)


def connected_er(n, p, seed):
    """Seeded Erdos-Renyi draw, re-drawn until connected."""
    for attempt in range(80):
        g = generate("erdos_renyi", n, p=p, seed=seed * 131 + attempt)
        if is_connected(g):
            return g
    raise AssertionError(f"no connected draw at n={n}, p={p}")


def shared_truth_problem(idx):
    """One solver-suite instance: 10 nodes, d=3, alpha cycling ALPHAS."""
    rng = np.random.default_rng(10_000 + idx)
    g = connected_er(10, 0.4, idx)
    wbar = rng.normal(0.0, 0.3, size=3)
    losses = []
    for _ in range(10):
        m = int(rng.integers(5, 21))
        X = rng.standard_normal((m, 3))
        y = X @ wbar + 0.2 * rng.standard_normal(m)
        losses.append(from_dataset(LocalDataset(X, y)))
    return GTVMinProblem(g, losses, ALPHAS[idx % 3])


@pytest.fixture(scope="module")
def solver_suite():
    """50 seeded instances solved three ways, with per-iteration distances."""
    runs = []
    t0 = time.perf_counter()
    for idx in range(50):
        p = shared_truth_problem(idx)
        wstar = solve_direct(p)
        evs = np.linalg.eigvalsh(assemble(p)[0])
        eta, kappa = optimal_rate(float(evs[0]), float(evs[-1]))
        w0 = np.zeros((p.n, p.d))
        stop = StopRule(max_iters=30_000, dist_tol=1e-6)
        _, gd = run_sync(
            fedgd_op(p, sched=LRSchedule.constant(eta)), w0, stop,
            oracle=wstar, record_every=1,
        )
        _, relax = run_sync(fedrelax_op(p), w0, stop, oracle=wstar)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # batch 20 covers every node in full
            sgd_ops = fedsgd_op(p, 20, seed=idx)
        _, sgd = run_sync(sgd_ops, w0, stop, oracle=wstar)
        runs.append({"kappa": kappa, "traces": (gd, relax, sgd), "gd": gd})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_three_solvers_match_direct_solve_on_seeded_suite(solver_suite):
    with acceptance("01 solver agreement"):
        for run in solver_suite["runs"]:
            for trace in run["traces"]:
                assert trace.dists[-1] <= 1e-6
        assert solver_suite["elapsed"] < 5.0


def test_optimal_step_contracts_every_iteration(solver_suite):
    with acceptance("02 contraction rate"):
        for run in solver_suite["runs"]:
            kappa = run["kappa"]
            dists = run["gd"].dists
            for prev, cur in zip(dists, dists[1:]):
                if prev > 0.0:
                    assert cur <= (kappa + 1e-9) * prev


def test_coupling_penalty_and_spectrum_identities():
    with acceptance("03 spectral identities"):
        kinds = ("erdos_renyi", "star", "chain", "two_cluster")
        for case in range(100):
            rng = np.random.default_rng(500 + case)
            kind = kinds[case % 4]
            n = int(rng.integers(3, 26))
            # low p leaves some draws disconnected on purpose
            g = generate(kind, n, seed=case, p=float(rng.uniform(0.1, 0.8)),
                         p_in=0.8, p_out=0.1)
            d = int(rng.integers(1, 4))
            blocks = 0.5 * rng.standard_normal((n, d))
            L = laplacian(g)
            quad = float(blocks.reshape(-1) @ np.kron(L, np.eye(d)) @ blocks.reshape(-1))
            assert abs(gtv_value(g, blocks) - quad) <= 1e-10

            spec = spectrum(g)
            assert spec.multiplicity_zero == len(components(g))
            degs, d_max = degrees(g)
            assert spec.eigenvalues[-1] <= 2.0 * d_max + 1e-12
            assert spec.lam2 <= n / (n - 1) * float(np.min(degs)) + 1e-12


def test_solution_bounds_hold_without_violation():
    with acceptance("04 deviation bounds"):
        for run in range(100):  # shared truth: consensus deviation bound
            rng = np.random.default_rng(3000 + run)
            n = int(rng.integers(5, 13))
            d = int(rng.integers(1, 4))
            alpha = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            g = connected_er(n, float(rng.uniform(0.35, 0.7)), run)
            wbar = rng.normal(0.0, 1.0, size=d)
            losses, noise_sq, sizes = [], [], []
            for _ in range(n):
                m = int(rng.integers(d + 2, 16))
                X = rng.standard_normal((m, d))
                eps = 0.3 * rng.standard_normal(m)
                losses.append(from_dataset(LocalDataset(X, X @ wbar + eps)))
                noise_sq.append(float(eps @ eps))
                sizes.append(m)
            p = GTVMinProblem(g, losses, alpha)
            what = solve_direct(p)
            measured = float(np.sum(consensus_split(what).deviations ** 2))
            assert measured <= variation_bound(p, noise_sq, sizes)

        done = 0  # two-cluster truth: per-cluster deviation bound
        run = 0
        while done < 100:
            run += 1
            rng = np.random.default_rng(8000 + run)
            n = int(rng.integers(8, 13))
            g = generate("two_cluster", n, p_in=0.9, p_out=0.15, seed=run * 17)
            half = (n + 1) // 2
            clusters = (list(range(half)), list(range(half, n)))
            subs = [induced(g, c)[0] for c in clusters]
            if not (is_connected(g) and all(spectrum(s).lam2 > 0 for s in subs)):
                continue
            truths = (rng.normal(0.0, 1.0, size=2), rng.normal(0.0, 1.0, size=2))
            losses, noise_sq, sizes = [], [], []
            for i in range(n):
                m = int(rng.integers(5, 14))
                X = rng.standard_normal((m, 2))
                eps = 0.2 * rng.standard_normal(m)
                w = truths[0] if i < half else truths[1]
                losses.append(from_dataset(LocalDataset(X, X @ w + eps)))
                noise_sq.append(float(eps @ eps))
                sizes.append(m)
            p = GTVMinProblem(g, losses, 1.0)
            what = solve_direct(p)
            radius = float(np.max(np.linalg.norm(what, axis=1)))
            for cluster, w in zip(clusters, truths):
                bound = clustered_bound(
                    p, cluster,
                    [noise_sq[i] for i in cluster],
                    [sizes[i] for i in cluster],
                    float(w @ w), radius,
                )
                dev = consensus_split(what[cluster]).deviations
                assert float(np.sum(dev**2)) <= bound
            done += 1

        for run in range(50):  # label perturbations: solution shift bound
            rng = np.random.default_rng(12_000 + run)
            g = connected_er(6, 0.5, run + 200)
            data, losses = [], []
            for _ in range(6):
                m = int(rng.integers(5, 14))
                X = rng.standard_normal((m, 2))
                y = X @ rng.normal(0.0, 0.5, size=2) + 0.2 * rng.standard_normal(m)
                data.append((X, y))
                losses.append(from_dataset(LocalDataset(X, y)))
            p = GTVMinProblem(g, losses, 1.0)
            what = solve_direct(p)
            perts = [0.1 * rng.standard_normal(len(y)) for _, y in data]
            shifted = [
                from_dataset(LocalDataset(X, y + e)) for (X, y), e in zip(data, perts)
            ]
            moved = solve_direct(GTVMinProblem(g, shifted, 1.0))
            shift = float(np.sum((moved - what) ** 2))
            assert shift <= sensitivity_bound(p, perts)


def test_stiff_coupling_reaches_consensus_and_averaging_matches_projected_descent():
    with acceptance("05 consensus limits"):
        for seed in range(3):  # scalar mean estimation under a stiff coupling
            rng = np.random.default_rng(700 + seed)
            g = connected_er(12, 0.5, seed + 400)
            ys = rng.standard_normal(12)
            losses = [from_dataset(LocalDataset([1.0], [float(y)])) for y in ys]
            what = solve_direct(GTVMinProblem(g, losses, 1e6))
            spread = float(np.max(ys) - np.min(ys))
            assert np.max(np.abs(what - np.mean(ys))) <= 1e-6 * spread

        # full participation, one exact local step: server averaging is
        # gradient descent projected onto the consensus subspace
        rng = np.random.default_rng(42)
        losses = []
        for _ in range(6):
            X = rng.standard_normal((9, 2))
            y = X @ np.array([0.4, -0.7]) + 0.1 * rng.standard_normal(9)
            losses.append(from_dataset(LocalDataset(X, y)))
        blocks = []  # event k sees the global block after round k - 1

        def metrics(k, W):
            blocks.append(W[0].copy())
            return {}

        fedavg_run(
            losses, R=1, sample_size=6, sched=LRSchedule.constant(0.05),
            stop=StopRule(max_iters=50), seed=0, metrics=metrics,
        )
        assert len(blocks) == 51
        ref = np.zeros(2)
        for w in blocks[1:]:
            ref = ref - 0.05 * np.mean([loss.gradient(ref) for loss in losses], axis=0)
            assert float(np.max(np.abs(w - ref))) <= 1e-12


def curved_problem(seed):
    """Strongly convex 5-node instance with a contraction factor below 1."""
    rng = np.random.default_rng(seed)
    g = connected_er(5, 0.6, seed + 600)
    losses = []
    for _ in range(5):
        m = int(rng.integers(6, 12))
        X = rng.standard_normal((m, 2))
        y = X @ (0.5 * rng.standard_normal(2)) + 0.2 * rng.standard_normal(m)
        losses.append(from_dataset(LocalDataset(X, y), ridge=0.5))
    return GTVMinProblem(g, losses, 0.5)


def test_async_execution_matches_sync_and_contracts_under_staleness():
    with acceptance("06 async execution"):
        p = curved_problem(0)
        ops = fedrelax_op(p)
        w0 = np.zeros((p.n, p.d))
        sp_async, _ = run_async(ops, w0, zero_delay_schedule(p.graph, 40))
        sp_sync, _ = run_sync(ops, w0, StopRule(max_iters=40))
        assert np.array_equal(sp_async, sp_sync)

        kappa = contraction_factor(p)
        assert kappa < 1.0
        wstar = solve_direct(p)

        def maxdist(blocks):
            return float(np.max(np.linalg.norm(blocks - wstar, axis=1)))

        scheduled = 0
        for B in (1, 5, 10):
            horizon = int(math.ceil((2 * B + 1) * math.log(5e7) / -math.log(kappa)))
            for s in range(17):
                sched = gen_partially_async(p.graph, B, horizon, seed=s * 31 + B)
                _, trace = run_async(
                    ops, w0, sched,
                    metrics=lambda k, blocks: {"maxd": maxdist(blocks)},
                )
                dists = trace.extras["maxd"]
                r0 = dists[0]
                for idx, k in enumerate(trace.ks):
                    assert dists[idx] <= async_bound(kappa, B, k, r0) + 1e-6
                assert dists[-1] <= 1e-6
                scheduled += 1
        assert scheduled >= 50


def test_robust_aggregators_survive_extreme_outliers():
    with acceptance("07 robust aggregation"):
        for seed in range(20):  # 2 of 10 blocks pushed to magnitude 1e6
            rng = np.random.default_rng(900 + seed)
            honest = rng.standard_normal((8, 3))
            hostile = 1e6 * rng.choice([-1.0, 1.0], size=(2, 3))
            blocks = np.vstack([honest, hostile])
            out = aggregate(blocks, np.ones(10), RobustAgg.trimmed(2))
            lo = honest.min(axis=0) - 1e-12
            hi = honest.max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)

        for seed in range(15):  # general position clouds
            rng = np.random.default_rng(1200 + seed)
            pts = rng.standard_normal((int(rng.integers(5, 40)), int(rng.integers(1, 5))))
            _, residual = geometric_median(pts)
            assert residual <= 1e-6

        coincident_cases = (
            np.tile([2.0, -1.0], (6, 1)),
            np.vstack([np.tile([1.0, 1.0], (6, 1)), np.random.default_rng(3).standard_normal((4, 2))]),
            np.array([[0.0, 0.0], [4.0, 0.0]]),
            np.array([[1.0], [1.0], [1.0], [9.0]]),
        )
        for pts in coincident_cases:
            point, residual = geometric_median(pts)
            assert residual <= 1e-6
            assert np.all(np.isfinite(point))
        # a strict majority of coincident points is itself the minimizer
        point, _ = geometric_median(coincident_cases[1])
        assert point == pytest.approx([1.0, 1.0], abs=1e-9)


def test_noise_calibration_and_membership_advantage_bound():
    with acceptance("08 dp calibration"):
        sigma = gaussian_sigma(1.0, 1.0, 1e-5)
        assert sigma == pytest.approx(4.8446, abs=1e-3)

        # threshold tests on 10^4 noisy observations of 0 versus 1
        rng = seeds.as_rng(0)
        noise = sigma * rng.standard_normal(10_000)
        for t in np.linspace(-2.0 * sigma, 1.0 + 2.0 * sigma, 25):
            p_fa = float(np.mean(noise > t))
            p_miss = float(np.mean(1.0 + noise <= t))
            assert dp_test_bound(1.0, 1e-5, p_fa, p_miss, slack=0.02)


def random_discrepancies(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.05, 1.0, size=(n, n))
    D = (M + M.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def budget_vertex_minimum(D, E):
    """Exhaustive minimum over the feasible region's vertices.

    Every vertex saturates some pairs at weight 1 and leaves at most one
    pair fractional, so enumerating those assignments is exhaustive.
    """
    n = D.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    W = E / 2.0
    full = int(math.floor(W + 1e-12))
    frac = W - full
    best = math.inf
    for saturated in itertools.combinations(range(len(pairs)), full):
        base = sum(2.0 * D[pairs[s]] for s in saturated)
        if frac <= 1e-12:
            best = min(best, base)
            continue
        for extra in range(len(pairs)):
            if extra not in saturated:
                best = min(best, base + 2.0 * frac * D[pairs[extra]])
    return best


def degree_grid_minimum_n4(D, d_max=1.0):
    """0.05-grid sweep of the 2-parameter feasible family at n = 4.

    Fixed row sums force w03 = w12, w13 = w02, w23 = w01 with
    w01 + w02 + w12 = d_max, so two grid coordinates span everything.
    """
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
    best = math.inf
    for a in grid:
        for b in grid:
            c = d_max - a - b
            if c < -1e-9 or c > 1.0 + 1e-9:
                continue
            val = 2.0 * (
                a * D[0, 1] + b * D[0, 2] + c * D[0, 3]
                + c * D[1, 2] + b * D[1, 3] + a * D[2, 3]
            )
            best = min(best, val)
    return best


def test_learned_graphs_match_exhaustive_search():
    with acceptance("09 graph learning"):
        worked = np.array([[0.0, 0.1, 0.5], [0.1, 0.0, 0.2], [0.5, 0.2, 0.0]])
        corpus = [worked] + [
            random_discrepancies(n, 100 * n + s) for n in (2, 3, 4, 5) for s in range(5)
        ]
        for D in corpus:
            n = D.shape[0]
            capacity = 2.0 * (n * (n - 1) // 2)
            for E in (0.25 * capacity, 0.5 * capacity, 0.75 * capacity):
                got = graph_objective(D, learn_graph_budget(D, E))
                assert abs(got - budget_vertex_minimum(D, E)) <= 1e-9

        for s in range(5):  # n = 3 leaves a single feasible point
            D = random_discrepancies(3, 70 + s)
            got = graph_objective(D, learn_graph_degree(D, 1.0))
            ref = 2.0 * 0.5 * (D[0, 1] + D[0, 2] + D[1, 2])
            assert abs(got - ref) <= 1e-3

        for s in range(5):
            D = random_discrepancies(4, 50 + s)
            got = graph_objective(D, learn_graph_degree(D, 1.0))
            assert abs(got - degree_grid_minimum_n4(D)) <= 1e-3


REPRO_CFG = """
seed = 13
graph.kind = erdos_renyi
graph.n = 8
graph.p = 0.5
data.d = 2
algorithm.kind = fedgd
algorithm.alpha = 1.0
stop.max_iters = 5000
stop.dist_tol = 1e-8
record_every = 50
"""


def test_identical_config_and_seed_reproduce_report_bytes(tmp_path):
    with acceptance("10 reproducible exports"):
        first = run_experiment(parse_config(REPRO_CFG))
        second = run_experiment(parse_config(REPRO_CFG))
        for tag, report in (("first", first), ("second", second)):
            export(report, "csv", tmp_path / f"{tag}.csv")
            export(report, "json", tmp_path / f"{tag}.json")
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
