"""Local datasets and quadratic losses with gradients and proximal maps."""

from __future__ import annotations

import csv
import math

import numpy as np

from gtvfed.seeds import as_rng

# Constructor rejects asymmetry beyond this; PSD check allows this much slack.
SYM_TOL = 1e-12
PSD_TOL = 1e-10


class LocalDataset:
    """Feature matrix X of shape (m, d) with labels y of length m."""

    __slots__ = ("X", "y")

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError(f"features must be a 2-d array, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"labels must be a 1-d array, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"feature rows ({X.shape[0]}) and labels ({y.shape[0]}) disagree"
            )
        self.X = X
        self.y = y

    @classmethod
    def empty(cls, d: int) -> "LocalDataset":
        return cls(np.zeros((0, int(d))), np.zeros(0))

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @classmethod
    def view(cls, X, y) -> "LocalDataset":
        """The dataset of a 2-d X and 1-d y already known to fit, unchecked."""
        ds = cls.__new__(cls)
        ds.X, ds.y = X, y
        return ds

    def copy(self) -> "LocalDataset":
        return LocalDataset(self.X.copy(), self.y.copy())

    def __repr__(self):
        return f"LocalDataset(m={self.m}, d={self.d})"


class NodeData:
    """Every node's dataset, stacked per group of equal sample count.

    groups holds one (m, idx, X, y) per sample count m, ascending: the ids
    idx of the nodes with m samples, ascending, their features X
    (len(idx), m, d) and labels y (len(idx), m). sizes[i] is node i's
    sample count; dataset(i) and datasets() are views of the stacks.
    """

    __slots__ = ("n", "d", "sizes", "groups")

    def __init__(self, d, groups):
        """Groups of the same sample count are merged, in node order."""
        by_size = {}
        for group in groups:
            by_size.setdefault(group[0], []).append(group)
        self.d = int(d)
        self.groups = []
        for m, parts in sorted(by_size.items()):
            if len(parts) > 1:
                idx, X, y = (np.concatenate([part[k] for part in parts]) for k in (1, 2, 3))
                order = np.argsort(idx)
                parts = [(m, idx[order], X[order], y[order])]
            self.groups.append(parts[0])
        self.n = sum(idx.shape[0] for _, idx, _, _ in self.groups)
        self.sizes = np.zeros(self.n, dtype=np.intp)
        for m, idx, _, _ in self.groups:
            self.sizes[idx] = m

    @classmethod
    def allocate(cls, d, sizes) -> "NodeData":
        """Uninitialised stacks for nodes with the given sample counts."""
        sizes = np.asarray(sizes, dtype=np.intp)
        groups = []
        for m in np.unique(sizes).tolist():
            idx = np.flatnonzero(sizes == m)
            groups.append((m, idx, np.empty((idx.shape[0], m, d)), np.empty((idx.shape[0], m))))
        return cls(d, groups)

    @classmethod
    def from_datasets(cls, datasets) -> "NodeData":
        """The stacks of per-node datasets, which must share one dimension."""
        datasets = list(datasets)
        dims = {ds.d for ds in datasets}
        if len(dims) > 1:
            raise ValueError(f"datasets disagree on the feature dimension: {sorted(dims)}")
        out = cls.allocate(dims.pop() if dims else 0, [ds.m for ds in datasets])
        for ds, (X, y) in zip(datasets, out.rows()):
            X[...], y[...] = ds.X, ds.y
        return out

    def rows(self) -> list:
        """(X, y) views of every node's stack rows, in node order."""
        out = [None] * self.n
        for _, idx, X, y in self.groups:
            for i, Xi, yi in zip(idx.tolist(), X, y):
                out[i] = (Xi, yi)
        return out

    def dataset(self, i) -> LocalDataset:
        for m, idx, X, y in self.groups:
            if m == self.sizes[i]:
                k = int(np.searchsorted(idx, i))
                return LocalDataset.view(X[k], y[k])

    def datasets(self) -> list:
        return [LocalDataset.view(X, y) for X, y in self.rows()]


class QuadLoss:
    """Quadratic loss w @ Q @ w + q @ w + c with Q symmetric PSD.

    ``source`` optionally keeps the dataset the loss was built from (needed
    for stochastic gradients) and ``ridge`` records the ridge coefficient
    that went into Q.
    """

    __slots__ = ("Q", "q", "c", "source", "ridge", "_sigma")

    def __init__(self, Q, q, c=0.0, source=None, ridge=0.0):
        Q = np.asarray(Q, dtype=float)
        q = np.asarray(q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if q.shape != (Q.shape[0],):
            raise ValueError(
                f"q has shape {q.shape}, expected ({Q.shape[0]},) to match Q"
            )
        asym = float(np.max(np.abs(Q - Q.T))) if Q.size else 0.0
        if asym > SYM_TOL * max(1.0, float(np.max(np.abs(Q))) if Q.size else 1.0):
            raise ValueError(f"Q is not symmetric (max asymmetry {asym:.3e})")
        self.Q = (Q + Q.T) / 2.0
        self.q = q
        self.c = float(c)
        self.source = source
        self.ridge = float(ridge)
        self._sigma = None

    @classmethod
    def view(cls, Q, q, c, source=None, ridge=0.0) -> "QuadLoss":
        """The loss of a symmetric Q and q already known to fit, unchecked;
        c and ridge are floats."""
        loss = cls.__new__(cls)
        loss.Q, loss.q, loss.c, loss.source, loss.ridge, loss._sigma = Q, q, c, source, ridge, None
        return loss

    @property
    def d(self) -> int:
        return self.Q.shape[0]

    def value(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ (self.Q @ w) + self.q @ w + self.c)

    def gradient(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return 2.0 * (self.Q @ w) + self.q

    @property
    def sigma(self) -> float:
        """Strong convexity modulus 2*lambda_min(Q); errors if Q is not PSD."""
        if self._sigma is None:
            lam_min = float(np.linalg.eigvalsh(self.Q)[0]) if self.d else 0.0
            if lam_min < -PSD_TOL:
                raise ValueError(
                    f"Q is not positive semidefinite (lambda_min = {lam_min:.3e})"
                )
            self._sigma = 2.0 * max(lam_min, 0.0)
        return self._sigma

    def __repr__(self):
        return f"QuadLoss(d={self.d}, ridge={self.ridge})"


class QuadStack:
    """Quadratic losses stacked for evaluation at every node at once.

    Qs (n, d, d), qs (n, d) and cs (n,) hold the losses' pieces in node
    order, read-only; data, when the stack was built from datasets, holds
    them (the losses' sources) and ridge the coefficient added to every
    Q_i. values(W)[i] equals losses()[i].value(W[i]) bit for bit: numpy's
    matmul hands each stacked slice to the same BLAS gemv and dot that the
    per-node products call, and the three terms are added in the same order.
    """

    __slots__ = ("Qs", "qs", "cs", "data", "ridge", "_eigs")

    def __init__(self, Qs, qs, cs, data=None, ridge=0.0):
        self.Qs, self.qs, self.cs = (np.asarray(a, dtype=float) for a in (Qs, qs, cs))
        for arr in (self.Qs, self.qs, self.cs):
            arr.flags.writeable = False
        self.data = data
        self.ridge = float(ridge)
        self._eigs = None

    @classmethod
    def of(cls, losses) -> "QuadStack":
        """The stack of per-node QuadLoss objects."""
        losses = list(losses)
        return cls(
            np.stack([loss.Q for loss in losses]),
            np.stack([loss.q for loss in losses]),
            np.array([loss.c for loss in losses]),
        )

    @classmethod
    def from_data(cls, data: NodeData, ridge: float = 0.0) -> "QuadStack":
        """The losses from_dataset builds from every node's dataset, a few
        stacked products per sample-count group. Each slice goes to the
        BLAS call the per-node product makes (syrk for X'X, gemv for X'y,
        dot for y'y), so every Q_i, q_i and c_i has its bits."""
        ridge = float(ridge)
        if ridge < 0.0:
            raise ValueError(f"ridge must be nonnegative, got {ridge}")
        n, d = data.n, data.d
        Qs, qs, cs = np.zeros((n, d, d)), np.zeros((n, d)), np.zeros(n)
        for m, idx, X, y in data.groups:
            if m == 0:  # an empty dataset adds only the ridge term
                continue
            Xt = np.swapaxes(X, 1, 2)
            Qs[idx] = Xt @ X / m
            qs[idx] = -2.0 / m * (Xt @ y[:, :, None])[:, :, 0]
            cs[idx] = (y[:, None, :] @ y[:, :, None])[:, 0, 0] / m
        if ridge > 0.0:
            Qs = Qs + ridge * np.eye(d)
        # QuadLoss symmetrises its Q the same way; X'X is symmetric already.
        return cls((Qs + np.swapaxes(Qs, 1, 2)) / 2.0, qs, cs, data, ridge)

    @property
    def d(self) -> int:
        return self.Qs.shape[1]

    def eigenvalues(self) -> np.ndarray:
        """(n, d) ascending eigenvalues of every Q_i, computed on the first
        call and kept. One stacked eigvalsh hands each Q_i to the LAPACK
        call a per-node eigvalsh makes, so every eigenvalue keeps its bits."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.Qs)
            self._eigs.flags.writeable = False
        return self._eigs

    def losses(self) -> tuple:
        """One QuadLoss per node, viewing its slices and source dataset."""
        sources = self.data.datasets() if self.data is not None else [None] * self.cs.shape[0]
        return tuple(
            QuadLoss.view(Q, q, c, src, self.ridge)
            for Q, q, c, src in zip(self.Qs, self.qs, self.cs.tolist(), sources)
        )

    def values(self, W) -> np.ndarray:
        """Loss i at row i of the (n, d) block array W."""
        W = np.ascontiguousarray(W, dtype=float)
        col = W[:, :, None]
        quad = (W[:, None, :] @ (self.Qs @ col))[:, 0, 0]
        return quad + (self.qs[:, None, :] @ col)[:, 0, 0] + self.cs


def stack_losses(losses, who: str, d=None) -> tuple:
    """(stack, per-node losses) of losses: a QuadStack as it is, with None
    for its views, which are not built; or a sequence of QuadLoss, which
    must agree on the block dimension, and their stack, built once (None
    for no losses). Either must agree with d when given. Any other loss is
    rejected by node, as one that `who` does not take."""
    if isinstance(losses, QuadStack):
        stack, losses, dims = losses, None, {losses.d}
    else:
        stack, losses = None, tuple(losses)
        for i, loss in enumerate(losses):
            if not isinstance(loss, QuadLoss):
                raise ValueError(f"node {i}: {who} takes a QuadLoss, got {type(loss).__name__}")
        dims = {loss.d for loss in losses}
    dims |= {int(d)} if d is not None else set()
    if len(dims) > 1:
        raise ValueError(f"losses disagree on the block dimension: {sorted(dims)}")
    if stack is None and losses:
        stack = QuadStack.of(losses)
    return stack, losses


class CallableLoss:
    """Loss given by callables: value and gradient."""

    __slots__ = ("_value", "_gradient", "d")

    def __init__(self, value, gradient, d=None):
        self._value = value
        self._gradient = gradient
        self.d = d

    def value(self, w) -> float:
        return float(self._value(np.asarray(w, dtype=float)))

    def gradient(self, w) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(w, dtype=float)), dtype=float)


def from_dataset(ds: LocalDataset, ridge: float = 0.0) -> QuadLoss:
    """Average squared error on the dataset as a QuadLoss.

    L(w) = (1/m) ||y - X w||^2 + ridge ||w||^2, expanded into
    Q = (1/m) X'X + ridge I, q = -(2/m) X'y, c = (1/m) y'y. An empty dataset
    contributes only the ridge term.
    """
    ridge = float(ridge)
    if ridge < 0.0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    d = ds.d
    if ds.m > 0:
        Q = ds.X.T @ ds.X / ds.m
        q = -2.0 / ds.m * (ds.X.T @ ds.y)
        c = float(ds.y @ ds.y / ds.m)
    else:
        Q = np.zeros((d, d))
        q = np.zeros(d)
        c = 0.0
    if ridge > 0.0:
        Q = Q + ridge * np.eye(d)
    return QuadLoss(Q, q, c, source=ds, ridge=ridge)


def generate_local(w_bar, m: int, noise_sigma: float, seed) -> LocalDataset:
    """Linear-model dataset: standard normal X, labels X w_bar + noise.

    X is drawn before the noise so the features for a given seed do not
    depend on the noise level.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    m = int(m)
    if m < 0:
        raise ValueError(f"sample count must be nonnegative, got {m}")
    if float(noise_sigma) < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {noise_sigma}")
    rng = as_rng(seed)
    X = rng.standard_normal((m, w_bar.shape[0]))
    eps = rng.standard_normal(m) * float(noise_sigma)
    return LocalDataset(X, X @ w_bar + eps)


def evaluate(loss, w):
    """Loss value and gradient at w as a pair."""
    w = np.asarray(w, dtype=float)
    d = getattr(loss, "d", None)
    if d is not None and w.shape != (d,):
        raise ValueError(f"parameter has shape {w.shape}, loss expects ({d},)")
    return loss.value(w), loss.gradient(w)


def prox_quad(loss: QuadLoss, v, rho: float) -> np.ndarray:
    """Proximal map of a QuadLoss: argmin_w L(w) + (rho/2) ||w - v||^2.

    Solves the normal equations (2Q + rho I) w = rho v - q.
    """
    rho = float(rho)
    if rho <= 0.0:
        raise ValueError(f"prox step rho must be positive, got {rho}")
    v = np.asarray(v, dtype=float)
    if v.shape != (loss.d,):
        raise ValueError(f"prox point has shape {v.shape}, expected ({loss.d},)")
    A = 2.0 * loss.Q + rho * np.eye(loss.d)
    try:
        return np.linalg.solve(A, rho * v - loss.q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ValueError(f"prox system is singular: {exc}") from exc


def augment_explainability(loss: QuadLoss, testX, u, rho_e: float) -> QuadLoss:
    """Add a penalty tying test-set predictions to user signals u.

    The extra term is (rho_e/m') ||u - testX w||^2, folded into the
    quadratic pieces. rho_e = 0 or an empty test set leaves the loss
    unchanged.
    """
    rho_e = float(rho_e)
    if rho_e < 0.0:
        raise ValueError(f"rho_e must be nonnegative, got {rho_e}")
    testX = np.asarray(testX, dtype=float)
    u = np.asarray(u, dtype=float)
    if testX.ndim == 1:
        testX = testX.reshape(-1, 1)
    if testX.ndim != 2 or testX.shape[1] != loss.d:
        raise ValueError(
            f"test features have shape {testX.shape}, expected (m', {loss.d})"
        )
    if u.shape != (testX.shape[0],):
        raise ValueError(f"signal has shape {u.shape}, expected ({testX.shape[0]},)")
    mp = testX.shape[0]
    if rho_e == 0.0 or mp == 0:
        return QuadLoss(loss.Q, loss.q, loss.c, source=loss.source, ridge=loss.ridge)
    scale = rho_e / mp
    Q = loss.Q + scale * (testX.T @ testX)
    q = loss.q - 2.0 * scale * (testX.T @ u)
    c = loss.c + scale * float(u @ u)
    return QuadLoss(Q, q, c, source=None, ridge=loss.ridge)


def linreg_error_bound(ds: LocalDataset, noise) -> float:
    """Worst-case squared distance of the least-squares fit from the truth.

    For labels y = X w_bar + noise, the bound is
    (4/m^2) ||X' noise||^2 / lambda_min((1/m) X'X)^2 and requires the
    empirical covariance to be invertible.
    """
    noise = np.asarray(noise, dtype=float)
    if ds.m < 1:
        raise ValueError("bound needs at least one sample")
    if noise.shape != (ds.m,):
        raise ValueError(f"noise has shape {noise.shape}, expected ({ds.m},)")
    Qd = ds.X.T @ ds.X / ds.m
    lam1 = float(np.linalg.eigvalsh(Qd)[0])
    if lam1 <= 1e-10:
        raise ValueError(
            f"empirical covariance is singular (lambda_min = {lam1:.3e})"
        )
    v = ds.X.T @ noise
    return float(4.0 / ds.m**2 * (v @ v) / lam1**2)


def save_dataset_csv(ds: LocalDataset, path) -> None:
    """Write the dataset as CSV with header f1..fd,label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{k + 1}" for k in range(ds.d)] + ["label"])
        for row, label in zip(ds.X, ds.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])


def load_dataset_csv(path) -> LocalDataset:
    """Read a dataset written by save_dataset_csv (header f1..fd,label).

    Non-numeric and non-finite (nan, inf) entries are rejected with the
    file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        if len(header) < 2 or header[-1] != "label":
            raise ValueError(f"{path}: expected header f1..fd,label, got {header}")
        d = len(header) - 1
        X, y = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {d + 1} columns, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry in {row}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}:{lineno}: non-finite entry in {row}")
            X.append(vals[:-1])
            y.append(vals[-1])
    return LocalDataset(np.array(X).reshape(len(y), d), np.array(y))
