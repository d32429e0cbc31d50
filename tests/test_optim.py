import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed.localmodel import QuadLoss
from gtvfed.optim import (
    DivergenceError,
    LRSchedule,
    StopRule,
    contraction,
    gd_run,
    iters_needed,
    optimal_rate,
    perturbed_bound,
    projected_gd_run,
)


def quad1d(lam=1.0, q=0.0):
    return QuadLoss([[lam]], [q])


def test_schedule_kinds():
    const = LRSchedule.constant(0.2)
    assert const.rate(0) == const.rate(99) == 0.2
    dim = LRSchedule.diminishing(1.0)
    # c/(k+1) so the first step uses c itself.
    assert dim.rate(0) == 1.0 and dim.rate(3) == 0.25
    opt = LRSchedule.optimal(1.0, 2.0)
    assert opt.eta == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        LRSchedule.constant(0.0)
    with pytest.raises(ValueError):
        LRSchedule.diminishing(-1.0)
    with pytest.raises(ValueError):
        LRSchedule(kind="warmup", eta=0.1)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iters=-1)
    with pytest.raises(ValueError):
        StopRule(max_iters=10, obj_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(max_iters=10, dist_tol=-1.0)


def test_gd_one_exact_step():
    # f(w) = w^2 with eta = 1/(2 lam): one step lands on the minimizer.
    w, trace = gd_run(quad1d(), [3.0], LRSchedule.constant(0.5), StopRule(max_iters=3))
    assert w == pytest.approx([0.0])
    assert trace.objectives[1] == pytest.approx(0.0)
    assert trace.ks == [0, 1, 2, 3]


def test_gd_divergence_detected():
    with pytest.raises(DivergenceError) as err:
        gd_run(quad1d(), [1.0], LRSchedule.constant(1.2), StopRule(max_iters=10_000))
    assert err.value.trace is not None
    assert err.value.trace.terminal == "diverged"


def test_gd_optimal_rate_ratio():
    loss = QuadLoss(np.diag([1.0, 2.0]), np.zeros(2))
    eta, kappa = optimal_rate(1.0, 2.0)
    w, trace = gd_run(
        loss,
        [1.0, 1.0],
        LRSchedule.constant(eta),
        StopRule(max_iters=60),
        oracle=np.zeros(2),
    )
    d = np.array(trace.dists)
    ratios = d[1:][d[:-1] > 1e-13] / d[:-1][d[:-1] > 1e-13]
    assert np.all(ratios <= kappa + 1e-9)


def test_gd_objective_nonincreasing_singular_case():
    # lam1 = 0: no contraction, but a small step still descends.
    loss = QuadLoss(np.diag([0.0, 2.0]), np.array([0.0, -1.0]))
    _, trace = gd_run(
        loss, [5.0, 5.0], LRSchedule.constant(0.2), StopRule(max_iters=50)
    )
    objs = np.array(trace.objectives)
    assert np.all(np.diff(objs) <= 1e-12)


def test_gd_stop_reasons():
    _, trace = gd_run(
        quad1d(), [1.0], LRSchedule.constant(0.3), StopRule(max_iters=500, obj_tol=1e-12)
    )
    assert trace.terminal == "obj_tol"
    _, trace = gd_run(
        quad1d(),
        [1.0],
        LRSchedule.constant(0.3),
        StopRule(max_iters=500, dist_tol=1e-8),
        oracle=[0.0],
    )
    assert trace.terminal == "dist_tol"
    assert trace.dists[-1] <= 1e-8
    _, trace = gd_run(quad1d(), [1.0], LRSchedule.constant(0.3), StopRule(max_iters=4))
    assert trace.terminal == "max_iters"


def test_projected_identity_matches_plain():
    loss = QuadLoss(np.eye(2), np.array([-2.0, 0.0]))
    stop = StopRule(max_iters=20)
    w_a, tr_a = gd_run(loss, [3.0, -1.0], LRSchedule.constant(0.2), stop)
    w_b, tr_b = projected_gd_run(
        loss, lambda w: w, [3.0, -1.0], LRSchedule.constant(0.2), stop
    )
    assert np.array_equal(w_a, w_b)
    assert tr_a.objectives == tr_b.objectives


def test_projected_consensus_two_blocks():
    # Blocks with losses (w-0)^2 and (w-2)^2 under a consensus projector
    # converge to the pooled minimizer (1, 1).
    Q = np.diag([1.0, 1.0])
    loss = QuadLoss(Q, np.array([0.0, -4.0]))

    def consensus(w):
        return np.full_like(w, w.mean())

    w, _ = projected_gd_run(
        loss, consensus, [5.0, -5.0], LRSchedule.constant(0.25), StopRule(max_iters=200)
    )
    assert w == pytest.approx([1.0, 1.0], abs=1e-8)


def test_projected_box_boundary_optimum():
    loss = quad1d(q=-6.0)  # (w - 3)^2 up to a constant

    def box(w):
        return np.clip(w, 0.0, 1.0)

    w, _ = projected_gd_run(
        loss, box, [0.0], LRSchedule.constant(0.3), StopRule(max_iters=100)
    )
    assert w == pytest.approx([1.0], abs=1e-12)


def test_projected_contraction_affine_subspace():
    """Projection onto a subspace keeps the optimal contraction factor."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3))
    loss = QuadLoss(A.T @ A + 0.5 * np.eye(3), rng.standard_normal(3))
    vals = np.linalg.eigvalsh(loss.Q)
    eta, kappa = optimal_rate(float(vals[0]), float(vals[-1]))
    # Subspace x[2] = 0; solve the constrained problem for the oracle.
    P = np.diag([1.0, 1.0, 0.0])
    sub = QuadLoss(loss.Q[:2, :2], loss.q[:2])
    w_sub = np.linalg.solve(2 * sub.Q, -sub.q)
    oracle = np.array([w_sub[0], w_sub[1], 0.0])
    _, trace = projected_gd_run(
        loss,
        lambda w: P @ w,
        [2.0, -1.0, 9.0],
        LRSchedule.constant(eta),
        StopRule(max_iters=80),
        oracle=oracle,
    )
    d = np.array(trace.dists)
    keep = d[:-1] > 1e-12
    assert np.all(d[1:][keep] / d[:-1][keep] <= kappa + 1e-9)


def test_contraction_values():
    assert contraction(0.5, 1.0, 1.0) == pytest.approx(0.0)
    assert contraction(1.0 / 3.0, 1.0, 2.0) == pytest.approx(1.0 / 3.0)
    assert contraction(0.25, 0.0, 2.0) == 1.0
    with pytest.raises(ValueError):
        contraction(0.1, 2.0, 1.0)


def test_optimal_rate_values():
    assert optimal_rate(2.0, 2.0) == (pytest.approx(0.25), pytest.approx(0.0))
    eta, kappa = optimal_rate(1.0, 2.0)
    assert (eta, kappa) == (pytest.approx(1.0 / 3.0), pytest.approx(1.0 / 3.0))
    eta, kappa = optimal_rate(1.0, 9.0)
    assert (eta, kappa) == (pytest.approx(0.1), pytest.approx(0.8))
    with pytest.raises(ValueError):
        optimal_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        optimal_rate(2.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(1e-3, 1e3))
def test_optimal_rate_minimizes_contraction(kappa_seed, lam1):
    lamd = lam1 * (1 + kappa_seed) / (1 - kappa_seed)
    eta, kappa = optimal_rate(lam1, lamd)
    assert contraction(eta, lam1, lamd) == pytest.approx(kappa, rel=1e-12)
    # Nearby steps can only do worse.
    for bump in (0.9, 1.1):
        assert contraction(eta * bump, lam1, lamd) >= kappa - 1e-12


def test_iters_needed_values():
    assert iters_needed(0.5, 1.0, 1.0 / 8.0) == 3
    assert iters_needed(0.1, 1.0, 1e-6) == 6
    assert iters_needed(0.5, 1.0, 1.0) == 0
    assert iters_needed(0.5, 1.0, 2.0) == 0
    with pytest.raises(ValueError):
        iters_needed(1.0, 1.0, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.1, 100.0), st.floats(1e-8, 1e-2))
def test_iters_needed_is_sufficient(kappa, r0, eps):
    k = iters_needed(kappa, r0, eps)
    assert kappa**k * r0 <= eps * (1 + 1e-9)
    if k > 0:
        assert kappa ** (k - 1) * r0 > eps * (1 - 1e-9)


def test_perturbed_bound_values():
    assert perturbed_bound(0.5, 1.0, []) == pytest.approx(1.0)
    assert perturbed_bound(0.5, 1.0, [0.0, 0.0]) == pytest.approx(0.25)
    assert perturbed_bound(0.5, 1.0, [0.1]) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        perturbed_bound(1.0, 1.0, [0.1])


def test_perturbed_bound_geometric_limit():
    kappa, eps_bar = 0.5, 0.3
    bound = perturbed_bound(kappa, 1.0, [eps_bar] * 50)
    limit = eps_bar * kappa / (1 - kappa)
    assert abs(bound - limit) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_gd_with_injected_noise_respects_bound(seed):
    """Perturbed runs never exceed the perturbation-aware distance bound."""
    rng = np.random.default_rng(seed)
    d = 3
    A = rng.standard_normal((d + 2, d))
    loss = QuadLoss(A.T @ A / (d + 2) + 0.2 * np.eye(d), rng.standard_normal(d))
    vals = np.linalg.eigvalsh(loss.Q)
    eta, kappa = optimal_rate(float(vals[0]), float(vals[-1]))
    oracle = np.linalg.solve(2 * loss.Q, -loss.q)
    noises = [rng.standard_normal(d) * 0.05 for _ in range(31)]
    w0 = rng.standard_normal(d)
    _, trace = gd_run(
        loss,
        w0,
        LRSchedule.constant(eta),
        StopRule(max_iters=30),
        oracle=oracle,
        perturb=lambda k: noises[k],
    )
    norms = [float(np.linalg.norm(z)) for z in noises]
    assert trace.extras["noise_norms"] == norms[:30]
    r0 = trace.dists[0]
    for k, dist in enumerate(trace.dists):
        assert dist <= perturbed_bound(kappa, r0, norms[:k]) + 1e-9


def test_trace_records_are_parallel():
    _, trace = gd_run(quad1d(), [2.0], LRSchedule.constant(0.4), StopRule(max_iters=7))
    assert len(trace) == len(trace.objectives) == len(trace.grad_norms) == 8
    assert trace.ks == sorted(trace.ks)
