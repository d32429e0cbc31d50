import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed.localmodel import (
    CallableLoss,
    LocalDataset,
    QuadLoss,
    augment_explainability,
    evaluate,
    from_dataset,
    generate_local,
    linreg_error_bound,
    load_dataset_csv,
    prox_quad,
    save_dataset_csv,
)


def test_dataset_shape_validation():
    ds = LocalDataset([1.0, 2.0], [3.0, 4.0])
    assert ds.m == 2 and ds.d == 1
    with pytest.raises(ValueError):
        LocalDataset([[1.0], [2.0]], [1.0])
    with pytest.raises(ValueError):
        LocalDataset([[[1.0]]], [1.0])
    empty = LocalDataset.empty(3)
    assert empty.m == 0 and empty.d == 3


def test_from_dataset_single_point():
    loss = from_dataset(LocalDataset([1.0], [2.0]))
    assert loss.Q == pytest.approx(np.array([[1.0]]))
    assert loss.q == pytest.approx(np.array([-4.0]))
    assert loss.c == pytest.approx(4.0)
    # L(w) = (2 - w)^2.
    assert loss.value([0.0]) == pytest.approx(4.0)
    assert loss.value([2.0]) == pytest.approx(0.0)


def test_from_dataset_sample_mean():
    loss = from_dataset(LocalDataset([[1.0], [1.0]], [0.0, 2.0]))
    assert loss.Q == pytest.approx(np.array([[1.0]]))
    assert loss.q == pytest.approx(np.array([-2.0]))
    assert loss.c == pytest.approx(2.0)
    # Minimizer is the label mean with value 1.
    assert loss.value([1.0]) == pytest.approx(1.0)
    assert loss.gradient([1.0]) == pytest.approx(np.zeros(1))


def test_from_dataset_empty_with_ridge():
    loss = from_dataset(LocalDataset.empty(2), ridge=0.5)
    assert np.array_equal(loss.Q, 0.5 * np.eye(2))
    assert np.array_equal(loss.q, np.zeros(2))
    assert loss.c == 0.0
    with pytest.raises(ValueError):
        from_dataset(LocalDataset.empty(2), ridge=-1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 4))
def test_from_dataset_matches_pointwise_definition(seed, m, d):
    rng = np.random.default_rng(seed)
    ds = LocalDataset(rng.standard_normal((m, d)), rng.standard_normal(m))
    ridge = float(rng.uniform(0.0, 1.0))
    loss = from_dataset(ds, ridge=ridge)
    w = rng.standard_normal(d)
    direct = float(np.sum((ds.y - ds.X @ w) ** 2) / m + ridge * (w @ w))
    assert loss.value(w) == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_quadloss_rejects_asymmetry_and_bad_shapes():
    with pytest.raises(ValueError):
        QuadLoss([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        QuadLoss(np.eye(2), [0.0])
    loss = QuadLoss(np.eye(2), np.zeros(2), c=1.0)
    assert loss.sigma == pytest.approx(2.0)


def test_evaluate_known_points():
    loss = QuadLoss([[1.0]], [-4.0], 4.0)
    assert evaluate(loss, [2.0]) == (pytest.approx(0.0), pytest.approx([0.0]))
    loss2 = QuadLoss(np.eye(2), np.zeros(2))
    value, grad = evaluate(loss2, [1.0, 1.0])
    assert value == pytest.approx(2.0)
    assert grad == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        evaluate(loss2, [1.0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_gradient_matches_finite_differences(seed, d):
    """Central differences agree with the analytic gradient at 20 points."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d + 2, d))
    loss = QuadLoss(A.T @ A / (d + 2), rng.standard_normal(d), rng.normal())
    h = 1e-6
    for _ in range(20):
        w = rng.standard_normal(d)
        g = loss.gradient(w)
        for t in range(d):
            e = np.zeros(d)
            e[t] = h
            fd = (loss.value(w + e) - loss.value(w - e)) / (2 * h)
            assert abs(fd - g[t]) <= 1e-5 * max(1.0, abs(g[t]))


def test_prox_quad_examples():
    loss = QuadLoss([[1.0]], [0.0])
    assert prox_quad(loss, [3.0], 2.0) == pytest.approx([1.5])
    zero = QuadLoss(np.zeros((2, 2)), np.zeros(2))
    v = np.array([0.3, -1.2])
    assert prox_quad(zero, v, 1.0) == pytest.approx(v)
    # Large rho anchors the prox at v.
    assert np.max(np.abs(prox_quad(loss, [3.0], 1e9) - 3.0)) <= 1e-6
    with pytest.raises(ValueError):
        prox_quad(loss, [3.0], 0.0)
    with pytest.raises(ValueError):
        prox_quad(loss, [3.0, 1.0], 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_prox_firmly_nonexpansive(seed, d):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d + 1, d))
    loss = QuadLoss(A.T @ A, rng.standard_normal(d))
    rho = float(rng.uniform(0.1, 5.0))
    v1, v2 = rng.standard_normal(d), rng.standard_normal(d)
    p1, p2 = prox_quad(loss, v1, rho), prox_quad(loss, v2, rho)
    lhs = float((p1 - p2) @ (p1 - p2))
    rhs = float((p1 - p2) @ (v1 - v2))
    assert lhs <= rhs + 1e-10


def test_generate_local_seeding():
    ds1 = generate_local([1.0, -2.0], 8, 0.3, seed=5)
    ds2 = generate_local([1.0, -2.0], 8, 0.3, seed=5)
    assert np.array_equal(ds1.X, ds2.X) and np.array_equal(ds1.y, ds2.y)
    clean = generate_local([1.0, -2.0], 8, 0.0, seed=5)
    # Features do not depend on the noise level; labels become exact.
    assert np.array_equal(clean.X, ds1.X)
    assert clean.y == pytest.approx(clean.X @ np.array([1.0, -2.0]), abs=1e-15)


def test_generate_local_recovers_truth():
    ds = generate_local([1.0], 10_000, 0.0, seed=0)
    loss = from_dataset(ds)
    w_hat = np.linalg.solve(2 * loss.Q, -loss.q)
    assert abs(w_hat[0] - 1.0) <= 1e-9


def test_augment_explainability():
    base = from_dataset(LocalDataset.empty(1))
    pure = augment_explainability(base, [[1.0]], [5.0], 1.0)
    w_hat = np.linalg.solve(2 * pure.Q, -pure.q)
    assert w_hat == pytest.approx([5.0])
    same = augment_explainability(base, [[1.0]], [5.0], 0.0)
    assert np.array_equal(same.Q, base.Q) and np.array_equal(same.q, base.q)


def test_augment_explainability_large_weight_limit():
    rng = np.random.default_rng(2)
    ds = LocalDataset(rng.standard_normal((12, 2)), rng.standard_normal(12))
    testX = rng.standard_normal((6, 2))
    u = rng.standard_normal(6)
    heavy = augment_explainability(from_dataset(ds), testX, u, 1e6)
    w_heavy = np.linalg.solve(2 * heavy.Q, -heavy.q)
    w_guess = np.linalg.lstsq(testX, u, rcond=None)[0]
    assert np.max(np.abs(w_heavy - w_guess)) <= 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_augment_equals_explicit_reweighted_rows(seed):
    """Augmentation equals plain ERM on the explicitly stacked rows."""
    rng = np.random.default_rng(seed)
    m, mp, d = 7, 4, 2
    ds = LocalDataset(rng.standard_normal((m, d)), rng.standard_normal(m))
    testX = rng.standard_normal((mp, d))
    u = rng.standard_normal(mp)
    rho_e = float(rng.uniform(0.1, 3.0))
    aug = augment_explainability(from_dataset(ds), testX, u, rho_e)
    # Stack the test rows scaled so their average contributes rho_e/m'.
    scale = np.sqrt(rho_e * m / mp)
    big = LocalDataset(
        np.vstack([ds.X, scale * testX]), np.concatenate([ds.y, scale * u])
    )
    ref = from_dataset(big)
    # Reference normalizes by m + m'; rescale to the (1/m) convention.
    factor = (m + mp) / m
    w = rng.standard_normal(d)
    assert aug.value(w) == pytest.approx(factor * ref.value(w), rel=1e-10)


def test_linreg_error_bound_ones_column():
    noise = np.array([0.1, -0.2, 0.3, 0.05])
    ds = LocalDataset(np.ones((4, 1)), 1.0 + noise)
    bound = linreg_error_bound(ds, noise)
    total = float(np.sum(noise))
    assert bound == pytest.approx(4.0 * total**2 / 16.0)
    # The least-squares fit is the mean, so the bound dominates the error.
    w_hat = float(np.mean(ds.y))
    assert (w_hat - 1.0) ** 2 <= bound + 1e-15


def test_linreg_error_bound_zero_noise():
    ds = generate_local([2.0, -1.0], 20, 0.0, seed=1)
    assert linreg_error_bound(ds, np.zeros(20)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_linreg_error_bound_dominates_fit_error(seed):
    rng = np.random.default_rng(seed)
    m, d = 25, 3
    w_bar = rng.standard_normal(d)
    X = rng.standard_normal((m, d))
    noise = rng.standard_normal(m) * 0.2
    ds = LocalDataset(X, X @ w_bar + noise)
    w_hat = np.linalg.lstsq(X, ds.y, rcond=None)[0]
    err = float((w_hat - w_bar) @ (w_hat - w_bar))
    assert err <= linreg_error_bound(ds, noise) + 1e-12


def test_callable_loss_contract():
    loss = CallableLoss(
        value=lambda w: float(w @ w),
        gradient=lambda w: 2.0 * w,
        d=2,
    )
    assert loss.value(np.array([1.0, 1.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        loss.prox(np.zeros(2), 1.0)


def test_dataset_csv_round_trip(tmp_path):
    ds = LocalDataset([[1.0, 2.5], [-0.25, 0.0]], [0.5, -3.0])
    path = tmp_path / "node.csv"
    save_dataset_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "f1,f2,label"
    back = load_dataset_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


@pytest.mark.parametrize("row, line", [("1,nan,2", 2), ("3,4,inf", 3), ("-inf,0,1", 3)])
def test_dataset_csv_rejects_non_finite_entries(tmp_path, row, line):
    path = tmp_path / "node_0.csv"
    rows = ["f1,f2,label", "0.5,1,2", row] if line == 3 else ["f1,f2,label", row, "0.5,1,2"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"node_0\.csv:{line}: non-finite entry"):
        load_dataset_csv(path)
