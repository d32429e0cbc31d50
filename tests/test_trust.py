import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed.localmodel import LocalDataset
from gtvfed.trust import (
    AttackSpec,
    DPMechanism,
    RobustAgg,
    aggregate,
    cross_cov_estimate,
    dp_noise,
    dp_test_bound,
    gaussian_sigma,
    geometric_median,
    model_interceptor,
    poison_dataset,
    private_feature_map,
)


# ------------------------------------------------------------------ attacks


def test_attack_spec_validation():
    with pytest.raises(ValueError, match="unknown attack kind"):
        AttackSpec(kind="gaslight")
    with pytest.raises(ValueError, match="fraction"):
        AttackSpec(kind="label_poison", fraction=1.5)
    spec = AttackSpec(kind="label_poison", victims=[2.0, 0], fraction=0.5)
    assert spec.victims == (2, 0)


def test_label_poison_full_fraction_example():
    ds = LocalDataset([[1.0], [1.0]], [0.0, 2.0])
    spec = AttackSpec(kind="label_poison", fraction=1.0, label_delta=5.0)
    out = poison_dataset(ds, spec)
    assert np.array_equal(out.y, [5.0, 7.0])
    assert np.array_equal(out.X, ds.X)
    # Source rows stay untouched.
    assert np.array_equal(ds.y, [0.0, 2.0])


def test_poison_fraction_floor_and_determinism():
    rng = np.random.default_rng(0)
    ds = LocalDataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    spec = AttackSpec(kind="label_poison", fraction=0.35, label_delta=1.0, seed=4)
    a = poison_dataset(ds, spec)
    b = poison_dataset(ds, spec)
    assert np.array_equal(a.y, b.y)
    assert int(np.sum(a.y != ds.y)) == 3  # floor(0.35 * 10)
    none = poison_dataset(ds, AttackSpec(kind="label_poison", fraction=0.05))
    assert np.array_equal(none.y, ds.y)


def test_feature_poison_adds_row_delta():
    ds = LocalDataset([[1.0, 2.0]], [1.0])
    spec = AttackSpec(
        kind="feature_poison", fraction=1.0, feature_delta=[10.0, -1.0]
    )
    out = poison_dataset(ds, spec)
    assert np.array_equal(out.X, [[11.0, 1.0]])
    assert np.array_equal(out.y, ds.y)


def test_backdoor_sets_trigger_and_target():
    ds = LocalDataset([[0.0], [0.0]], [3.0, 4.0])
    spec = AttackSpec(
        kind="backdoor", fraction=1.0, trigger_delta=[1.0], target_label=-9.0
    )
    out = poison_dataset(ds, spec)
    assert np.array_equal(out.X, [[1.0], [1.0]])
    assert np.array_equal(out.y, [-9.0, -9.0])


def test_poison_rejects_model_attacks_and_vice_versa():
    ds = LocalDataset([[1.0]], [0.0])
    with pytest.raises(ValueError, match="does not act on datasets"):
        poison_dataset(ds, AttackSpec(kind="dos"))
    with pytest.raises(ValueError, match="does not act on messages"):
        model_interceptor(AttackSpec(kind="label_poison"))


def test_model_interceptor_replaces_victim_messages():
    spec = AttackSpec(kind="model_poison", victims=(1,), replacement=[7.0, 7.0])
    hook = model_interceptor(spec)
    honest = np.array([1.0, 2.0])
    assert np.array_equal(hook(0, 2, honest, 0), honest)
    assert np.array_equal(hook(1, 2, honest, 0), [7.0, 7.0])
    fn_spec = AttackSpec(
        kind="model_poison", victims=(0,), replacement=lambda block, k: -block * k
    )
    assert np.array_equal(model_interceptor(fn_spec)(0, 1, honest, 3), -3.0 * honest)


def test_dos_interceptor_defaults_to_huge_blocks():
    hook = model_interceptor(AttackSpec(kind="dos", victims=(0,)))
    out = hook(0, 1, np.zeros(3), 0)
    assert np.all(out == 1e6)
    with pytest.raises(ValueError, match="replacement"):
        model_interceptor(AttackSpec(kind="model_poison", victims=(0,)))


# -------------------------------------------------------------- aggregation


def test_robust_agg_validation():
    with pytest.raises(ValueError, match="unknown aggregation kind"):
        RobustAgg(kind="median-ish")
    with pytest.raises(ValueError, match="tau_l <= tau_u"):
        RobustAgg.clipped(3.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RobustAgg.trimmed(-1)
    with pytest.raises(ValueError, match="positive"):
        RobustAgg.geomedian(tol=0.0)


def test_mean_aggregation_weights():
    blocks = np.array([[1.0], [3.0]])
    out = aggregate(blocks, [1.0, 3.0], RobustAgg.mean())
    assert out == pytest.approx([2.5])
    with pytest.raises(ValueError, match="weights"):
        aggregate(blocks, [1.0], RobustAgg.mean())
    with pytest.raises(ValueError, match="positive sum"):
        aggregate(blocks, [0.0, 0.0], RobustAgg.mean())


def test_clipped_aggregation_example():
    out = aggregate(
        np.array([[-5.0], [3.0], [20.0]]), np.ones(3), RobustAgg.clipped(0.0, 10.0)
    )
    assert out == pytest.approx([13.0 / 3.0])


def test_trimmed_aggregation_example():
    vals = np.array([[1.0], [2.0], [3.0], [100.0]])
    out = aggregate(vals, np.ones(4), RobustAgg.trimmed(1))
    assert out == pytest.approx([2.5])
    with pytest.raises(ValueError, match="needs more than"):
        aggregate(vals[:2], np.ones(2), RobustAgg.trimmed(1))
    # trim_k = 0 reduces to the mean.
    out0 = aggregate(vals, np.ones(4), RobustAgg.trimmed(0))
    assert out0 == pytest.approx([26.5])


def test_trimmed_aggregation_is_per_coordinate():
    blocks = np.array([[0.0, 100.0], [1.0, 1.0], [2.0, 2.0], [100.0, 0.0]])
    out = aggregate(blocks, np.ones(4), RobustAgg.trimmed(1))
    assert out == pytest.approx([1.5, 1.5])


def test_trimmed_contains_outlier_within_honest_range():
    rng = np.random.default_rng(8)
    honest = rng.standard_normal((6, 3))
    attacked = np.vstack([honest, np.full((1, 3), 1e6)])
    out = aggregate(attacked, np.ones(7), RobustAgg.trimmed(1))
    lo, hi = honest.min(axis=0), honest.max(axis=0)
    assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


def test_geomedian_majority_example():
    point, res = geometric_median(np.array([[0.0], [0.0], [10.0]]))
    assert abs(point[0]) <= 1e-6
    assert res <= 1e-6
    pts2 = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    point2, res2 = geometric_median(pts2)
    assert np.max(np.abs(point2)) <= 1e-6
    assert res2 <= 1e-6


def test_geomedian_equilateral_triangle_hits_centroid():
    pts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    )
    point, res = geometric_median(pts)
    assert np.max(np.abs(point - pts.mean(axis=0))) <= 1e-6
    assert res <= 1e-6
    with pytest.raises(ValueError, match="at least one point"):
        geometric_median(np.empty((0, 2)))


def test_geomedian_leaves_a_non_optimal_coincident_iterate():
    # The centroid (0, 0) is a data point but not the minimizer, so the
    # Weiszfeld loop starts on it and must take the damped step away. By
    # symmetry the minimizer lies on the x-axis, at 1/sqrt(3) - 1.
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [-1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0]])
    assert np.array_equal(pts.mean(axis=0), pts[0])
    point, res = geometric_median(pts, tol=1e-6)
    assert res <= 1e-6
    assert point[1] == 0.0 and -1.0 < point[0] < 0.0
    assert point[0] == pytest.approx(1.0 / math.sqrt(3.0) - 1.0, abs=1e-6)


def test_geomedian_single_and_coincident_points():
    point, res = geometric_median(np.array([[2.0, -1.0]]))
    assert np.array_equal(point, [2.0, -1.0]) and res == 0.0
    point, res = geometric_median(np.tile([1.0, 1.0], (4, 1)))
    assert np.max(np.abs(point - 1.0)) <= 1e-12 and res == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_geomedian_residual_small_on_random_clouds(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    d = int(rng.integers(1, 5))
    pts = rng.standard_normal((m, d)) * rng.uniform(0.1, 5.0)
    point, res = geometric_median(pts)
    assert res <= 1e-6
    # No worse than the centroid it started from.
    cost = np.linalg.norm(pts - point, axis=1).sum()
    cost0 = np.linalg.norm(pts - pts.mean(axis=0), axis=1).sum()
    assert cost <= cost0 + 1e-9


def test_geomedian_aggregate_ignores_weights():
    blocks = np.array([[0.0], [0.0], [9.0]])
    out = aggregate(blocks, np.array([1.0, 1.0, 50.0]), RobustAgg.geomedian())
    assert abs(out[0]) <= 1e-6


# ----------------------------------------------------------------- privacy


def test_gaussian_sigma_reference_value():
    assert gaussian_sigma(1.0, 1.0, 1e-5) == pytest.approx(4.8446, abs=1e-3)
    assert gaussian_sigma(2.0, 1.0, 1e-5) == pytest.approx(
        2.0 * gaussian_sigma(1.0, 1.0, 1e-5)
    )
    assert gaussian_sigma(1.0, 2.0, 1e-5) == pytest.approx(
        gaussian_sigma(1.0, 1.0, 1e-5) / 2.0
    )
    with pytest.raises(ValueError, match="eps"):
        gaussian_sigma(1.0, 0.0, 1e-5)
    with pytest.raises(ValueError, match="delta"):
        gaussian_sigma(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="sensitivity"):
        gaussian_sigma(-1.0, 1.0, 1e-5)


def test_mechanism_validation_and_degenerate_draws():
    with pytest.raises(ValueError, match="unknown mechanism"):
        DPMechanism(kind="uniform")
    with pytest.raises(ValueError, match="sigma"):
        DPMechanism(kind="gaussian", sigma=-1.0)
    with pytest.raises(ValueError, match="scale"):
        DPMechanism(kind="laplace", b=-1.0)
    assert np.array_equal(DPMechanism(kind="gaussian").draw((3,)), np.zeros(3))
    assert np.array_equal(DPMechanism(kind="laplace").draw((2, 2)), np.zeros((2, 2)))


def test_mechanism_draws_keyed_by_node_and_counter():
    mech = DPMechanism(kind="gaussian", sigma=1.0, seed=5)
    a = mech.draw((4,), node=1, counter=2)
    assert np.array_equal(a, mech.draw((4,), node=1, counter=2))
    assert not np.array_equal(a, mech.draw((4,), node=2, counter=2))
    assert not np.array_equal(a, mech.draw((4,), node=1, counter=3))
    assert not np.array_equal(
        a, DPMechanism(kind="gaussian", sigma=1.0, seed=6).draw((4,), 1, 2)
    )


def test_dp_noise_adds_one_draw():
    mech = DPMechanism(kind="laplace", b=0.5, seed=1)
    block = np.array([1.0, -2.0])
    noised = dp_noise(block, mech, node=3, counter=7)
    assert np.array_equal(noised, block + mech.draw((2,), node=3, counter=7))


def test_dp_test_bound_examples():
    # A blind coin flip satisfies every (eps, delta).
    assert dp_test_bound(0.0, 0.0, 0.5, 0.5)
    # A perfect test is only allowed when delta >= 1.
    assert dp_test_bound(1.0, 1.0, 0.0, 0.0)
    assert not dp_test_bound(1.0, 0.5, 0.0, 0.0)
    assert dp_test_bound(1.0, 0.5, 0.0, 0.0, slack=0.5)
    with pytest.raises(ValueError, match="p_fa"):
        dp_test_bound(1.0, 0.1, 1.5, 0.0)


def test_gaussian_mechanism_passes_membership_bound():
    """exp(eps) * P(false alarm) + P(miss) stays above 1 - delta for
    threshold tests on a sensitivity-1 scalar release."""
    eps, delta = 1.0, 1e-3
    sigma = gaussian_sigma(1.0, eps, delta)
    mech = DPMechanism(kind="gaussian", sigma=sigma, seed=9)
    trials = 10_000
    noise = np.array([mech.draw((), counter=c) for c in range(trials)])
    for t in np.linspace(-2.0, 3.0, 21):
        p_fa = float(np.mean(noise > t))        # releases of D read as D'
        p_miss = float(np.mean(1.0 + noise <= t))  # releases of D' read as D
        assert dp_test_bound(eps, delta, p_fa, p_miss, slack=0.02)


def test_private_feature_map_examples():
    F = private_feature_map([1.0, 0.0])
    assert np.allclose(F, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(5)
    F = private_feature_map(c)
    assert np.max(np.abs(F @ F - F)) <= 1e-12
    assert np.max(np.abs(F @ c)) <= 1e-12
    with pytest.raises(ValueError, match="zero"):
        private_feature_map(np.zeros(3))


def test_cross_cov_estimate_examples():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(50)
    X = np.column_stack([np.full(50, 2.0), s, rng.standard_normal(50)])
    c = cross_cov_estimate(X, s)
    assert abs(c[0]) <= 1e-12
    assert c[1] == pytest.approx(float(np.var(s)), rel=1e-12)
    const = cross_cov_estimate(X, np.full(50, 3.0))
    assert np.max(np.abs(const)) <= 1e-12
    assert np.array_equal(cross_cov_estimate([[1.0, 2.0]], [5.0]), np.zeros(2))
    with pytest.raises(ValueError, match="length"):
        cross_cov_estimate(X, s[:10])


def test_feature_map_kills_cross_covariance():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(200)
    X = np.column_stack([s + 0.1 * rng.standard_normal(200),
                         rng.standard_normal(200)])
    c = cross_cov_estimate(X, s)
    F = private_feature_map(c)
    mapped = X @ F.T
    assert np.max(np.abs(cross_cov_estimate(mapped, s) @ np.ones(2))) <= 1e-10
