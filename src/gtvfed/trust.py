"""Data poisoning, robust aggregation, and differential-privacy mechanisms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gtvfed import seeds
from gtvfed.graph import as_blocks
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
    messages through the SenderRewrite that SenderRewrite.from_specs builds,
    the one message hook the engines take (model_interceptor builds the
    same attack as a per-message function). victims lists the attacked node
    ids; fraction selects the share of rows poisoned at each victim.
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
        name, scale = ("sigma", self.sigma) if self.kind == "gaussian" else ("scale b", self.b)
        if not math.isfinite(scale):
            raise ValueError(f"{name} must be finite, got {scale}")
        if scale < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {scale}")

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
        streams come from one seeds.streams pass. Gaussian rows are standard
        normals scaled once as 0.0 + sigma * z, which is how
        Generator.normal computes them.
        """
        n, d = int(n), int(d)
        scale = self.sigma if self.kind == "gaussian" else self.b
        if scale == 0.0:
            return np.zeros((n, d))
        gaussian = self.kind == "gaussian"
        out = np.empty((n, d))
        for row, gen in zip(out, seeds.streams(self.seed, "noise", n, int(counter))):
            if gaussian:
                gen.standard_normal(out=row)
            else:
                row[:] = gen.laplace(0.0, scale, size=d)
        if gaussian:
            out *= scale
            out += 0.0
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
    """Per-message function (sender, receiver, value, k) -> value replacing
    outgoing blocks of victim nodes. The engines take a SenderRewrite
    instead; this form serves per-node reference loops.

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
    """The engines' message hook: every block a victim sends becomes a
    fixed row.

    stages holds one (victims, row) pair per attack: a boolean mask over
    the nodes and the d-vector their messages become. Stages apply in
    order, so a later attack wins for a node in several. The engines apply
    it to gathered neighbor rows, one masked assignment per stage.
    """

    stages: tuple

    @classmethod
    def from_specs(cls, specs, n: int, d: int) -> "SenderRewrite":
        """The model_poison and dos specs of a run over n nodes as one
        rewrite, in spec order. A replacement must be a fixed d-vector or,
        for dos, None: the DOS_VALUE row model_interceptor sends too. Every
        victim must be a node id in 0..n-1."""
        stages = []
        for idx, spec in enumerate(specs):
            if spec.kind not in MODEL_ATTACKS:
                raise ValueError(f"attack kind {spec.kind!r} does not act on messages")
            bad = [v for v in spec.victims if not 0 <= v < n]
            if bad:
                raise ValueError(f"attack {idx}: victim node {bad[0]} is not in 0..{n - 1}")
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
    summed Euclidean distances (weights ignored; block-level rule). Every
    rule is aggregate_segments over one segment.
    """
    stack = as_blocks(blocks)
    wts = np.asarray(weights, dtype=float)
    if wts.shape != stack.shape[:1]:
        raise ValueError(f"got {wts.shape} weights for {stack.shape[0]} blocks")
    return aggregate_segments(stack, Segments(np.arange(wts.size), wts, [wts.size], wts.size), agg)[0]


@dataclass(eq=False)
class Segments:
    """S segments of slots over the N = width rows of a source: slot m
    reads row index[m] (any order, repeats allowed) with weight weights[m],
    and segment s holds the next counts[s] slots."""

    index: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    width: int

    @cached_property
    def csr(self):
        """The (S, N) scipy CSR of the weights and its row totals (the CSR
        times ones), which must be positive; built on first use and kept."""
        import scipy.sparse

        indptr = np.concatenate(([0], np.cumsum(self.counts)))
        csr = scipy.sparse.csr_array((self.weights, self.index, indptr), shape=(len(self.counts), self.width))
        totals = csr @ np.ones(self.width)
        if not (totals > 0.0).all():
            raise ValueError("aggregation weights must have positive sum")
        return csr, totals

    @cached_property
    def gathered(self) -> "Segments":
        """The same segments over the rows source[index], in slot order; kept."""
        return Segments(np.arange(len(self.weights)), self.weights, self.counts, len(self.weights))


def aggregate_segments(source, segments: Segments, agg: RobustAgg, rewrite=None) -> np.ndarray:
    """aggregate over S nodes at once: row s of the (S, d) result
    aggregates segment s, of counts[s] >= 1 slots (more than 2 trim_k when
    trimming), over the (N, d) source, as a one-segment call would, bit
    for bit:

    - every sum, the totals too, is one product of a Segments.csr, which
      csr_matvecs adds per coordinate left to right from 0.0 in slot order,
      so a node's total is EmpGraph.degree bit for bit;
    - the mean rule without a rewrite sums straight over the source; every
      other case gathers source[index] first, then rewrite(rows) edits it;
    - geomedian checks the counts and totals only: its row is
      geometric_median(segment rows, tol, max_iter)'s point, weights unused;
    - clipped clamps the rows; trimmed sets to -0.0, an exact additive
      identity, the values a stable argsort puts among the trim_k lowest or
      highest (ties by slot, NaN last), and scales by count/kept.
    """
    counts = np.asarray(segments.counts, dtype=np.intp)
    t = agg.trim_k if agg.kind == "trimmed" else 0
    least = int(counts.min(initial=2 * t + 1))  # a count too small, if any
    if least < 1:
        raise ValueError("aggregation needs at least one neighbor block")
    if not least > 2 * t:
        raise ValueError(f"trimming {t} from each end needs more than {2 * t} blocks, got {least}")
    if agg.kind != "mean" or rewrite is not None:
        source = np.asarray(source, dtype=float).take(segments.index, axis=0)
        if rewrite is not None:
            rewrite(source)
        segments = segments.gathered
    csr, totals = segments.csr
    if agg.kind == "geomedian":
        out = np.empty((counts.shape[0], source.shape[1]))
        for s, (b, c) in enumerate(zip(np.cumsum(counts).tolist(), counts.tolist())):
            out[s] = geometric_median(source[b - c : b], agg.tol, agg.max_iter)[0]
        return out
    if agg.kind == "clipped":
        np.clip(source, agg.tau_l, agg.tau_u, out=source)
    if t:
        source[_trimmed_slots(source, counts, np.cumsum(counts) - counts, t)] = -0.0
    sums = csr @ source
    if t:
        sums *= (counts / (counts - 2 * t))[:, None]
    return sums / totals[:, None]


def _trimmed_slots(rows, counts, starts, t):
    """The (slots, columns) index of the values aggregate_segments trims.

    Each of t passes drops, per segment and coordinate, the lowest-slot
    minimum and the highest-slot maximum of the values still kept (lo: NaN
    at dropped slots, hi: -inf); with at least three kept, those differ.
    fmin skips NaN and maximum propagates it, as NaN sorts last.
    """
    M, d = rows.shape
    slot, cols = np.arange(M)[:, None], np.arange(d)
    has_nan = np.isnan(rows).any()
    lo, hi = rows.copy(), rows.copy()
    dropped = []
    for step in range(t):
        smallest = np.fmin if has_nan or step else np.minimum
        low = np.repeat(smallest.reduceat(lo, starts, axis=0), counts, axis=0)
        high = np.repeat(np.maximum.reduceat(hi, starts, axis=0), counts, axis=0)
        hit_low, hit_high = lo == low, lo == high
        if has_nan:
            kept_nan = np.isnan(hi)
            hit_low |= kept_nan & np.isnan(low)
            hit_high |= kept_nan & np.isnan(high)
        first = np.minimum.reduceat(np.where(hit_low, slot, M), starts, axis=0)
        last = np.maximum.reduceat(np.where(hit_high, slot, -1), starts, axis=0)
        dropped += [first, last]
        lo[first, cols] = lo[last, cols] = np.nan
        hi[first, cols] = hi[last, cols] = -np.inf
    return np.concatenate(dropped), cols


def geometric_median(points, tol: float = 1e-6, max_iter: int = 1000):
    """Point minimizing the sum of Euclidean distances, plus a residual.

    Weiszfeld iterations from the centroid. The residual is the norm of the
    summed unit subgradients; when the iterate coincides with a data point,
    that point's subgradient may be any unit-ball vector, so the residual
    becomes max(0, ||sum of the others|| - 1). Returns the best iterate
    found even if max_iter is exhausted (check residual <= tol for
    success).
    """
    pts = as_blocks(points)
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
