"""Data poisoning, robust aggregation, and differential-privacy mechanisms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gtvfed import seeds
from gtvfed.localmodel import LocalDataset

DATA_ATTACKS = ("label_poison", "feature_poison", "backdoor")
MODEL_ATTACKS = ("model_poison", "dos")
AGG_KINDS = ("mean", "clipped", "trimmed", "geomedian")
NOISE_KINDS = ("gaussian", "laplace")
# Every coordinate of a block a dos victim sends.
DOS_VALUE = 1e6

# An iterate this close to a data point triggers the coincidence handling.
COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class AttackSpec:
    """Description of an attack.

    Data attacks (label_poison, feature_poison, backdoor) act on datasets
    through poison_dataset; model attacks (model_poison, dos) act on
    messages through an engine interceptor built by model_interceptor.
    victims lists the attacked node ids; fraction selects the share of rows
    poisoned at each victim.
    """

    kind: str
    victims: tuple = ()
    fraction: float = 0.0
    label_delta: float = 0.0
    feature_delta: object = None
    replacement: object = None
    trigger_delta: object = None
    target_label: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DATA_ATTACKS + MODEL_ATTACKS:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; expected one of "
                f"{DATA_ATTACKS + MODEL_ATTACKS}"
            )
        if not (0.0 <= float(self.fraction) <= 1.0):
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        object.__setattr__(self, "victims", tuple(int(v) for v in self.victims))


@dataclass(frozen=True)
class RobustAgg:
    """Aggregation rule: mean, clipped(tau_l, tau_u), trimmed(trim_k), or
    geomedian(tol, max_iter)."""

    kind: str
    tau_l: float = 0.0
    tau_u: float = 0.0
    trim_k: int = 0
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.kind not in AGG_KINDS:
            raise ValueError(f"unknown aggregation kind {self.kind!r}")
        if self.kind == "clipped" and not self.tau_l <= self.tau_u:
            raise ValueError(
                f"clipping needs tau_l <= tau_u, got ({self.tau_l}, {self.tau_u})"
            )
        if self.kind == "trimmed" and self.trim_k < 0:
            raise ValueError(f"trim count must be nonnegative, got {self.trim_k}")
        if self.kind == "geomedian" and not self.tol > 0.0:
            raise ValueError(f"geomedian tolerance must be positive, got {self.tol}")

    @classmethod
    def mean(cls) -> "RobustAgg":
        return cls(kind="mean")

    @classmethod
    def clipped(cls, tau_l: float, tau_u: float) -> "RobustAgg":
        return cls(kind="clipped", tau_l=float(tau_l), tau_u=float(tau_u))

    @classmethod
    def trimmed(cls, trim_k: int) -> "RobustAgg":
        return cls(kind="trimmed", trim_k=int(trim_k))

    @classmethod
    def geomedian(cls, tol: float = 1e-6, max_iter: int = 1000) -> "RobustAgg":
        return cls(kind="geomedian", tol=float(tol), max_iter=int(max_iter))


@dataclass(frozen=True)
class DPMechanism:
    """Seeded additive noise: gaussian(sigma) or laplace(b).

    Draws are keyed by (seed, node, counter), so replaying a run or
    evaluating nodes concurrently yields identical noise. sigma = 0 is
    allowed as a degenerate test setting.
    """

    kind: str
    sigma: float = 0.0
    b: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "gaussian" and self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.kind == "laplace" and self.b < 0.0:
            raise ValueError(f"scale b must be nonnegative, got {self.b}")

    def draw(self, shape, node: int = 0, counter: int = 0) -> np.ndarray:
        rng = seeds.stream(self.seed, "noise", int(node), int(counter))
        if self.kind == "gaussian":
            if self.sigma == 0.0:
                return np.zeros(shape)
            return rng.normal(0.0, self.sigma, size=shape)
        if self.b == 0.0:
            return np.zeros(shape)
        return rng.laplace(0.0, self.b, size=shape)

    def draw_block(self, counter: int, n: int, d: int) -> np.ndarray:
        """Noise of nodes 0..n-1 at one counter, as an (n, d) array.

        Row i equals draw((d,), node=i, counter=counter) bit for bit: the n
        stream states come from one seeds.stream_states pass and feed one
        reused generator.
        """
        n, d = int(n), int(d)
        scale = self.sigma if self.kind == "gaussian" else self.b
        if scale == 0.0:
            return np.zeros((n, d))
        gen = np.random.Generator(np.random.PCG64(0))
        bitgen = gen.bit_generator
        sample = gen.normal if self.kind == "gaussian" else gen.laplace
        out = np.empty((n, d))
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        for i, (s, inc) in enumerate(
            seeds.stream_states(self.seed, "noise", n, int(counter))
        ):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            out[i] = sample(0.0, scale, size=d)
        return out


def poison_dataset(ds: LocalDataset, spec: AttackSpec) -> LocalDataset:
    """Poisoned copy of the dataset; the original is never touched.

    floor(fraction * m) rows are chosen uniformly without replacement using
    the spec's seed. label_poison adds label_delta to chosen labels;
    feature_poison adds feature_delta to chosen rows; backdoor adds
    trigger_delta to chosen rows and sets their labels to target_label.
    """
    if spec.kind not in DATA_ATTACKS:
        raise ValueError(f"attack kind {spec.kind!r} does not act on datasets")
    out = ds.copy()
    count = int(math.floor(float(spec.fraction) * ds.m))
    if count == 0:
        return out
    rng = seeds.stream(spec.seed, "attacks")
    rows = np.sort(rng.choice(ds.m, size=count, replace=False))
    if spec.kind == "label_poison":
        out.y[rows] += float(spec.label_delta)
    elif spec.kind == "feature_poison":
        delta = np.asarray(spec.feature_delta, dtype=float)
        out.X[rows] += delta
    else:
        if spec.trigger_delta is not None:
            out.X[rows] += np.asarray(spec.trigger_delta, dtype=float)
        out.y[rows] = float(spec.target_label)
    return out


def model_interceptor(spec: AttackSpec):
    """Message hook replacing outgoing blocks of victim nodes.

    replacement is either a fixed vector or a callable (block, event) ->
    block. For dos, the replacement defaults to a large constant block that
    maximizes the receiver's loss surrogate.
    """
    if spec.kind not in MODEL_ATTACKS:
        raise ValueError(f"attack kind {spec.kind!r} does not act on messages")
    victims = frozenset(spec.victims)
    replacement = spec.replacement
    if replacement is None:
        if spec.kind == "dos":
            replacement = lambda block, k: np.full_like(block, DOS_VALUE)
        else:
            raise ValueError("model_poison requires a replacement rule")

    def interceptor(sender, receiver, value, k):
        if sender in victims:
            if callable(replacement):
                return np.asarray(replacement(value, k), dtype=float)
            return np.asarray(replacement, dtype=float)
        return value

    return interceptor


@dataclass(frozen=True, eq=False)
class SenderRewrite:
    """Message hook replacing every block a victim sends by a fixed row.

    stages holds one (victims, row) pair per attack: a boolean mask over
    the nodes and the d-vector their messages become. Stages apply in
    order, so a later attack wins for a node in several. Callable as an
    engine interceptor (sender, receiver, value, k); the engines also apply
    it to gathered neighbor rows, one masked assignment per stage.
    """

    stages: tuple

    @classmethod
    def from_specs(cls, specs, n: int, d: int) -> "SenderRewrite":
        """The model_poison and dos specs of a run over n nodes as one
        rewrite, in spec order. A replacement must be a fixed d-vector or,
        for dos, None: the DOS_VALUE row model_interceptor sends too."""
        stages = []
        for spec in specs:
            if spec.kind not in MODEL_ATTACKS:
                raise ValueError(f"attack kind {spec.kind!r} does not act on messages")
            row = spec.replacement
            if row is None:
                if spec.kind != "dos":
                    raise ValueError("model_poison requires a replacement rule")
                row = np.full(d, DOS_VALUE)
            if callable(row):
                raise ValueError("a sender rewrite needs a fixed replacement row")
            victims = np.zeros(n, dtype=bool)
            victims[list(spec.victims)] = True
            stages.append((victims, np.asarray(row, dtype=float)))
        return cls(tuple(stages))

    def __call__(self, sender, receiver, value, k):
        for victims, row in self.stages:
            if victims[sender]:
                value = row
        return value

    def apply(self, rows, senders) -> None:
        """Rewrite, in place, the (M, d) rows sent by the (M,) senders."""
        for victims, row in self.stages:
            rows[victims[senders]] = row


def aggregate(blocks, weights, agg: RobustAgg) -> np.ndarray:
    """Combine neighbor blocks into one d-vector under the given rule.

    mean: weighted average (weights normalized by their sum). clipped:
    entrywise clamp into [tau_l, tau_u], then weighted average. trimmed:
    per coordinate, drop the trim_k largest and smallest values, then take
    the weighted average of the survivors rescaled by c = count/kept so
    unit weights give the plain trimmed mean. geomedian: minimizer of the
    summed Euclidean distances (weights ignored; block-level rule).
    """
    stack = np.asarray(blocks, dtype=float)
    if stack.ndim == 1:
        stack = stack.reshape(-1, 1)
    count = stack.shape[0]
    if count < 1:
        raise ValueError("aggregation needs at least one neighbor block")
    wts = np.asarray(weights, dtype=float)
    if wts.shape != (count,):
        raise ValueError(f"got {wts.shape} weights for {count} blocks")
    total = wts.sum()
    if not total > 0.0:
        raise ValueError("aggregation weights must have positive sum")
    if agg.kind == "mean":
        return (wts @ stack) / total
    if agg.kind == "clipped":
        return (wts @ np.clip(stack, agg.tau_l, agg.tau_u)) / total
    if agg.kind == "trimmed":
        t = agg.trim_k
        if not count > 2 * t:
            raise ValueError(
                f"trimming {t} from each end needs more than {2 * t} blocks, "
                f"got {count}"
            )
        if t == 0:
            return (wts @ stack) / total
        order = np.argsort(stack, axis=0, kind="stable")
        kept = order[t : count - t]
        c = count / (count - 2 * t)
        out = np.empty(stack.shape[1])
        for col in range(stack.shape[1]):
            rows = kept[:, col]
            out[col] = c * (wts[rows] @ stack[rows, col]) / total
        return out
    point, _ = geometric_median(stack, tol=agg.tol, max_iter=agg.max_iter)
    return point


def aggregate_stack(blocks, weights, agg: RobustAgg) -> np.ndarray:
    """aggregate over a group of same-degree nodes at once.

    blocks is (G, count, d) and weights (G, count); row g of the (G, d)
    result equals aggregate(blocks[g], weights[g], agg) bit for bit, for
    the mean, clipped and trimmed rules. Every weighted sum is a stacked
    matmul over contiguous operands, which hands each slice to the BLAS
    gemv or dot the per-node product calls. Geomedian has no stacked form.
    """
    stack = np.asarray(blocks, dtype=float)
    wts = np.asarray(weights, dtype=float)
    G, count, d = stack.shape
    if count < 1:
        raise ValueError("aggregation needs at least one neighbor block")
    if wts.shape != (G, count):
        raise ValueError(f"got {wts.shape} weights for {(G, count)} blocks")
    total = wts.sum(axis=1)[:, None]
    if not (total > 0.0).all():
        raise ValueError("aggregation weights must have positive sum")
    t = agg.trim_k if agg.kind == "trimmed" else 0
    if agg.kind == "geomedian":
        raise ValueError("the geometric median aggregates one node at a time")
    if agg.kind == "clipped":
        stack = np.clip(stack, agg.tau_l, agg.tau_u)
    if not count > 2 * t:
        raise ValueError(
            f"trimming {t} from each end needs more than {2 * t} blocks, got {count}"
        )
    if t == 0:
        return (wts[:, None, :] @ stack)[:, 0, :] / total
    # Per coordinate, the survivors' weights and values as contiguous
    # (G, d, kept) rows, dotted pairwise.
    kept = np.argsort(stack, axis=1, kind="stable")[:, t : count - t, :].transpose(0, 2, 1)
    group = np.arange(G)[:, None, None]
    vals = np.ascontiguousarray(stack[group, kept, np.arange(d)[:, None]])
    w_kept = np.ascontiguousarray(wts[group, kept])
    dots = (w_kept[:, :, None, :] @ vals[:, :, :, None])[:, :, 0, 0]
    c = count / (count - 2 * t)
    return c * dots / total


def geometric_median(points, tol: float = 1e-6, max_iter: int = 1000):
    """Point minimizing the sum of Euclidean distances, plus a residual.

    Weiszfeld iterations from the centroid. The residual is the norm of the
    summed unit subgradients; when the iterate coincides with a data point,
    that point's subgradient may be any unit-ball vector, so the residual
    becomes max(0, ||sum of the others|| - 1). Returns the best iterate
    found even if max_iter is exhausted (check residual <= tol for
    success).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] < 1:
        raise ValueError("geometric median needs at least one point")
    tol = float(tol)
    x = pts.mean(axis=0)
    best_x, best_res = x, _median_residual(pts, x)
    # The minimizer may sit exactly on a data point, which plain iterations
    # only approach asymptotically; test every point directly instead.
    for candidate in pts:
        res = _median_residual(pts, candidate)
        if res < best_res:
            best_x, best_res = candidate.copy(), res
    for _ in range(int(max_iter)):
        if best_res <= tol:
            return best_x, best_res
        diffs = pts - x
        dist = np.sqrt(np.einsum("md,md->m", diffs, diffs))
        near = dist <= COINCIDENCE_TOL
        if near.any():
            away = ~near
            if not away.any():
                return x, 0.0
            R = np.sum(diffs[away] / dist[away, None], axis=0)
            normR = float(np.linalg.norm(R))
            n_coincident = int(near.sum())
            if normR <= n_coincident:
                return x, 0.0
            # Damped re-start away from the non-optimal coincident point.
            step = (normR - n_coincident) / float(np.sum(1.0 / dist[away]))
            x = x + step * (R / normR)
        else:
            inv = 1.0 / dist
            x = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        res = _median_residual(pts, x)
        if res < best_res:
            best_x, best_res = x, res
    if best_res > tol:
        x = _newton_polish(pts, best_x.copy(), tol)
        res = _median_residual(pts, x)
        if res < best_res:
            best_x, best_res = x, res
    return best_x, best_res


def _newton_polish(pts, x, tol, max_iter: int = 60):
    """Damped curvature steps for the smooth regime away from data points.

    The fixed-point rate collapses in flat valleys (nearly collinear
    clouds); second-order steps with a descent check recover them.
    """
    d = pts.shape[1]
    for _ in range(max_iter):
        diffs = x - pts
        dist = np.sqrt(np.einsum("md,md->m", diffs, diffs))
        near = dist <= COINCIDENCE_TOL
        if near.any():
            away = ~near
            if not away.any():
                break
            # Escape a non-optimal data point along the others' pull; an
            # optimal one would have been kept by the residual bookkeeping.
            pull = -np.sum(diffs[away] / dist[away, None], axis=0)
            norm_pull = float(np.linalg.norm(pull))
            excess = norm_pull - float(near.sum())
            if excess <= 0.0:
                break
            x = x + excess / float(np.sum(1.0 / dist[away])) * (pull / norm_pull)
            continue
        U = diffs / dist[:, None]
        g = U.sum(axis=0)
        if float(np.linalg.norm(g)) <= 0.5 * tol:
            break
        H = np.sum(1.0 / dist) * np.eye(d) - U.T @ (U / dist[:, None])
        fx = float(dist.sum())
        lam = 1e-10 * (1.0 + float(np.trace(H)))
        stepped = False
        for _ in range(12):
            try:
                step = np.linalg.solve(H + lam * np.eye(d), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + step
            tdiffs = trial - pts
            tdist = np.sqrt(np.einsum("md,md->m", tdiffs, tdiffs))
            if float(tdist.sum()) < fx:
                x = trial
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break
    return x


def _median_residual(pts, x) -> float:
    diffs = x - pts
    dist = np.sqrt(np.einsum("md,md->m", diffs, diffs))
    near = dist <= COINCIDENCE_TOL
    away = ~near
    g = np.zeros(pts.shape[1])
    if away.any():
        g = np.sum(diffs[away] / dist[away, None], axis=0)
    slack = float(near.sum())
    return max(0.0, float(np.linalg.norm(g)) - slack)


def gaussian_sigma(delta2: float, eps: float, delta: float) -> float:
    """Noise level sqrt(2 ln(1.25/delta)) * delta2 / eps for (eps, delta)-DP."""
    delta2, eps, delta = float(delta2), float(eps), float(delta)
    if delta2 < 0.0:
        raise ValueError(f"sensitivity must be nonnegative, got {delta2}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) * delta2 / eps


def dp_noise(block, mech: DPMechanism, node: int = 0, counter: int = 0) -> np.ndarray:
    """The block plus one seeded noise draw keyed by (node, counter)."""
    block = np.asarray(block, dtype=float)
    return block + mech.draw(block.shape, node=node, counter=counter)


def dp_test_bound(
    eps: float, delta: float, p_fa: float, p_miss: float, slack: float = 0.0
) -> bool:
    """Hypothesis-testing check exp(eps) p_fa + p_miss >= 1 - delta - slack.

    p_fa and p_miss are the two error probabilities of any membership test;
    slack absorbs Monte-Carlo estimation error.
    """
    for name, v in (("p_fa", p_fa), ("p_miss", p_miss)):
        if not (0.0 <= float(v) <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return math.exp(float(eps)) * float(p_fa) + float(p_miss) >= 1.0 - float(
        delta
    ) - float(slack)


def private_feature_map(c, tol: float = 1e-12) -> np.ndarray:
    """Projector F = I - c c^T / ||c||^2 onto the complement of span(c).

    Features mapped through F carry no linear information about the
    sensitive direction c.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    nrm_sq = float(c @ c)
    if nrm_sq <= float(tol) ** 2:
        raise ValueError("cross-covariance is (near) zero; the map is undefined")
    return np.eye(c.shape[0]) - np.outer(c, c) / nrm_sq


def cross_cov_estimate(X, s) -> np.ndarray:
    """Empirical cross-covariance (1/m) Xc^T s with column-centered Xc."""
    X = np.asarray(X, dtype=float)
    s = np.asarray(s, dtype=float).reshape(-1)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    m = X.shape[0]
    if m < 1:
        raise ValueError("need at least one row")
    if s.shape[0] != m:
        raise ValueError(f"attribute has length {s.shape[0]}, features have {m} rows")
    Xc = X - X.mean(axis=0, keepdims=True)
    return Xc.T @ s / m
