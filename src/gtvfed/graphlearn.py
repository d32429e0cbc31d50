"""Learning the graph: pairwise discrepancies and constrained edge weights."""

from __future__ import annotations

import csv
import math

import numpy as np

from gtvfed.graph import EmpGraph, GraphError
from gtvfed.seeds import as_rng

DISCREPANCY_KINDS = ("scalar", "param", "gradient", "prediction")

# Learned weights below this threshold are dropped from the output graph.
PRUNE_TOL = 1e-6


class DiscrepancyMatrix:
    """Symmetric nonnegative n x n matrix with zero diagonal."""

    __slots__ = ("D",)

    def __init__(self, D):
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"discrepancy matrix must be square, got {D.shape}")
        if D.size and float(np.max(np.abs(D - D.T))) > 1e-9:
            raise ValueError("discrepancy matrix must be symmetric")
        if D.size and float(np.min(D)) < 0.0:
            raise ValueError("discrepancies must be nonnegative")
        if D.size and float(np.max(np.abs(np.diag(D)))) > 0.0:
            raise ValueError("discrepancy diagonal must be zero")
        self.D = (D + D.T) / 2.0

    @property
    def n(self) -> int:
        return self.D.shape[0]


def as_discrepancy(D) -> np.ndarray:
    if isinstance(D, DiscrepancyMatrix):
        return D.D
    return DiscrepancyMatrix(D).D


def discrepancy(kind: str, a, b, v=None, testX=None) -> float:
    """Dissimilarity of two node payloads.

    scalar: |a - b| of two numbers. param: Euclidean distance of two
    parameter vectors. gradient: distance of the two losses' gradients at
    the probe point v (default zero). prediction: mean squared difference
    of the two blocks' predictions on the shared test features.
    """
    if kind == "scalar":
        try:
            return abs(float(a) - float(b))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"scalar discrepancy needs numbers: {exc}") from exc
    if kind == "param":
        wa = np.asarray(a, dtype=float).reshape(-1)
        wb = np.asarray(b, dtype=float).reshape(-1)
        if wa.shape != wb.shape:
            raise ValueError(f"parameter shapes differ: {wa.shape} vs {wb.shape}")
        return float(np.linalg.norm(wa - wb))
    if kind == "gradient":
        if not (hasattr(a, "gradient") and hasattr(b, "gradient")):
            raise ValueError("gradient discrepancy needs two losses")
        if v is None:
            d = getattr(a, "d", None)
            if d is None:
                raise ValueError("pass the probe point v (losses expose no dimension)")
            v = np.zeros(d)
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(a.gradient(v) - b.gradient(v)))
    if kind == "prediction":
        if testX is None:
            raise ValueError("prediction discrepancy needs shared test features")
        X = np.asarray(testX, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[0] < 1:
            raise ValueError("prediction discrepancy needs a nonempty test set")
        wa = np.asarray(a, dtype=float).reshape(-1)
        wb = np.asarray(b, dtype=float).reshape(-1)
        diff = X @ wa - X @ wb
        return float(diff @ diff / X.shape[0])
    raise ValueError(
        f"unknown discrepancy kind {kind!r}; expected one of {DISCREPANCY_KINDS}"
    )


def discrepancy_matrix(kind: str, payloads, v=None, testX=None) -> np.ndarray:
    """All pairwise discrepancies as a symmetric matrix with zero diagonal."""
    payloads = list(payloads)
    n = len(payloads)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = discrepancy(kind, payloads[i], payloads[j], v=v, testX=testX)
    return D


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def project_constraints(A, d_max: float, tol: float = 1e-7, max_iters: int = 100):
    """Nearest matrix with entries in [0,1], zero diagonal, row sums d_max.

    The projection of the pair vector a onto {x in [0,1]^E : M x = d_max}
    (M the node-pair incidence) is x(lam) = clip(a - lam_i - lam_j, 0, 1)
    at the maximizer lam of the concave dual, whose gradient is the row-sum
    residual M x(lam) - d_max. Semismooth Newton steps with a backtracking
    line search find lam; the set is nonempty (d_max/(n-1) off the diagonal
    is feasible), so the iteration ends when the residual is at most tol.
    The returned matrix is exactly inside the box.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    d_max = float(d_max)
    if d_max < 0.0 or d_max > n - 1:
        raise ValueError(
            f"row-sum target {d_max} is infeasible for n={n} "
            f"(needs 0 <= d_max <= {n - 1})"
        )
    A = (A + A.T) / 2.0
    if n == 1:
        return np.zeros((1, 1))
    ii, jj = np.triu_indices(n, k=1)
    a = A[ii, jj]

    def state(lam):
        x = np.clip(a - lam[ii] - lam[jj], 0.0, 1.0)
        resid = np.bincount(ii, x, n) + np.bincount(jj, x, n) - d_max
        dual = 0.5 * float((x - a) @ (x - a)) + float(lam @ resid)
        return x, resid, dual

    lam = np.zeros(n)
    x, resid, dual = state(lam)
    viol = float(np.max(np.abs(resid)))
    for _ in range(int(max_iters)):
        if viol <= tol:
            break
        # Generalized Hessian of the dual: M D M' over the unclipped pairs,
        # damped by the residual size so the step stays defined.
        z = a - lam[ii] - lam[jj]
        f = (z > 0.0) & (z < 1.0)
        H = np.zeros((n, n))
        np.add.at(H, (ii[f], jj[f]), 1.0)
        H = H + H.T
        H[np.diag_indices(n)] += (
            np.bincount(ii[f], minlength=n) + np.bincount(jj[f], minlength=n) + min(1.0, viol)
        )
        step = np.linalg.solve(H, resid)
        slope = float(resid @ step)
        t = 1.0
        for _ in range(60):
            cand = state(lam + t * step)
            if cand[2] >= dual + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            break
        lam = lam + t * step
        x, resid, dual = cand
        viol = float(np.max(np.abs(resid)))
    if viol > tol:
        raise ValueError(
            f"constraint projection did not converge (row-sum violation {viol:.3e} "
            f"after {int(max_iters)} Newton steps); the constraint set is not empty, "
            "so the input is numerically extreme"
        )
    out = np.zeros((n, n))
    out[ii, jj] = x
    out[jj, ii] = x
    return out


def learn_graph_degree(
    D,
    d_max: float,
    iters: int = 3000,
    restarts: int = 3,
    step: float | None = None,
    seed: int = 0,
) -> EmpGraph:
    """Edge weights minimizing total weighted discrepancy at fixed row sums.

    Projected gradient descent on the linear objective sum_{i,j} A_ij D_ij
    over {A symmetric, zero diagonal, entries in [0,1], row sums = d_max},
    restarted from seeded points; the best feasible iterate wins. Weights
    below 1e-6 are pruned.
    """
    D = as_discrepancy(D)
    n = D.shape[0]
    d_max = float(d_max)
    if d_max > n - 1:
        raise ValueError(f"d_max={d_max} infeasible: unit-capped rows allow {n - 1}")
    if d_max < 0.0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    if n == 1 or d_max == 0.0:
        return EmpGraph(n, [])
    pairs = _pairs(n)
    # Ordered-pair objective: each unordered pair appears twice in the sum.
    c = np.array([2.0 * D[i, j] for i, j in pairs])
    if step is None:
        step = 10.0 / max(float(np.max(c)), 1e-12)
    rng = as_rng(seed)
    grad = np.zeros((n, n))
    for e, (i, j) in enumerate(pairs):
        grad[i, j] = grad[j, i] = c[e]

    def value(A):
        return float(sum(c[e] * A[i, j] for e, (i, j) in enumerate(pairs)))

    best_val, best_A = np.inf, None
    for r in range(max(1, int(restarts))):
        if r == 0:
            A0 = np.zeros((n, n))
        else:
            raw = rng.random((n, n))
            A0 = (raw + raw.T) / 2.0
            np.fill_diagonal(A0, 0.0)
        A = project_constraints(A0, d_max)
        for _ in range(int(iters)):
            val = value(A)
            if val < best_val:
                best_val, best_A = val, A
            A_next = project_constraints(A - step * grad, d_max)
            # Constant gradient: once the projected iterate stops moving it
            # never will again, so the remaining budget is wasted work.
            if float(np.max(np.abs(A_next - A))) < 1e-12:
                A = A_next
                break
            A = A_next
        val = value(A)
        if val < best_val:
            best_val, best_A = val, A
    edges = [
        (i, j, best_A[i, j]) for i, j in pairs if best_A[i, j] >= PRUNE_TOL
    ]
    g = EmpGraph(n, edges)
    sums = best_A.sum(axis=1)
    if float(np.max(np.abs(sums - d_max))) > 1e-4:
        raise ValueError(
            "learned weights violate the row-sum constraint beyond 1e-4"
        )
    return g


def learn_graph_budget(D, E_max: float) -> EmpGraph:
    """Closed-form budgeted graph: unit weights on the smallest-discrepancy
    pairs plus a fractional remainder on the next pair.

    E_max is the total ordered-pair weight budget, so E_max/2 of unordered
    weight is placed. Ties break lexicographically on (i, j).
    """
    D = as_discrepancy(D)
    n = D.shape[0]
    E_max = float(E_max)
    if E_max < 0.0:
        raise ValueError(f"budget must be nonnegative, got {E_max}")
    if E_max > n * (n - 1):
        raise ValueError(
            f"budget {E_max} exceeds the ordered-pair capacity {n * (n - 1)}"
        )
    ranked = sorted(_pairs(n), key=lambda e: (D[e[0], e[1]], e[0], e[1]))
    W = E_max / 2.0
    full = min(int(math.floor(W + 1e-12)), len(ranked))
    rem = W - full
    edges = [(i, j, 1.0) for i, j in ranked[:full]]
    if rem > 1e-12 and full < len(ranked):
        i, j = ranked[full]
        edges.append((i, j, rem))
    return EmpGraph(n, edges)


def graph_objective(D, g: EmpGraph) -> float:
    """Ordered-pair weighted discrepancy sum_{i,j} A_ij D_ij of a graph."""
    D = as_discrepancy(D)
    if D.shape[0] != g.n:
        raise ValueError("discrepancy matrix and graph disagree on node count")
    return float(sum(2.0 * w * D[i, j] for i, j, w in g.edges))


def save_discrepancy_csv(D, path) -> None:
    """Write the matrix as header-free CSV rows."""
    D = as_discrepancy(D)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in D:
            writer.writerow([repr(float(v)) for v in row])


def load_discrepancy_csv(path) -> np.ndarray:
    """Read a header-free n x n discrepancy matrix written by the saver."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
    if not rows:
        raise ValueError(f"{path}: empty discrepancy file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"{path}: expected a square {n}x{n} matrix")
    return as_discrepancy(np.array(rows))
