"""Learning the graph: pairwise discrepancies and constrained edge weights."""

from __future__ import annotations

import csv
import math

import numpy as np

from gtvfed.graph import EmpGraph

DISCREPANCY_KINDS = ("scalar", "param", "gradient", "prediction")

# Learned weights below this threshold are dropped from the output graph.
PRUNE_TOL = 1e-6


class DiscrepancyMatrix:
    """Symmetric nonnegative finite n x n matrix with zero diagonal."""

    __slots__ = ("D",)

    def __init__(self, D):
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"discrepancy matrix must be square, got {D.shape}")
        if not np.isfinite(D).all():
            i, j = np.argwhere(~np.isfinite(D))[0].tolist()
            raise ValueError(f"discrepancy ({i}, {j}) is {D[i, j]}; entries must be finite")
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


def learn_graph_degree(D, d_max: float) -> EmpGraph:
    """Edge weights minimizing total weighted discrepancy at fixed row sums.

    The objective sum_{i,j} A_ij D_ij over {A symmetric, zero diagonal,
    entries in [0,1], row sums = d_max} is a linear program in the
    upper-triangle weights, solved exactly by HiGHS. Its optimum is a vertex:
    most weights are 0 or 1 and a few are fractional. Weights below
    PRUNE_TOL are pruned.
    """
    # Imported here: scipy.optimize would add most of a second to every
    # start of the package, and only this learner needs it.
    import scipy.optimize
    import scipy.sparse

    D = as_discrepancy(D)
    n = D.shape[0]
    d_max = float(d_max)
    if d_max > n - 1:
        raise ValueError(f"d_max={d_max} infeasible: unit-capped rows allow {n - 1}")
    if d_max < 0.0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    if n == 1 or d_max == 0.0:
        return EmpGraph(n, [])
    ii, jj = np.triu_indices(n, k=1)
    E = ii.shape[0]
    # Node-pair incidence: column e is 1 at both ends of pair e, so M x is
    # the row-sum vector of the symmetric matrix with upper triangle x.
    M = scipy.sparse.csr_array(
        (np.ones(2 * E), (np.concatenate([ii, jj]), np.tile(np.arange(E), 2))),
        shape=(n, E),
    )
    # Ordered-pair objective: each unordered pair appears twice in the sum.
    res = scipy.optimize.linprog(
        2.0 * D[ii, jj], A_eq=M, b_eq=np.full(n, d_max), bounds=(0.0, 1.0), method="highs"
    )
    if res.status != 0:
        raise ValueError(
            f"degree-constrained LP failed: HiGHS status {res.status}: {res.message}"
        )
    x = res.x
    sums = np.bincount(ii, x, n) + np.bincount(jj, x, n)
    if float(np.max(np.abs(sums - d_max))) > 1e-4:
        raise ValueError(
            "learned weights violate the row-sum constraint beyond 1e-4"
        )
    keep = x >= PRUNE_TOL
    return EmpGraph(n, zip(ii[keep].tolist(), jj[keep].tolist(), x[keep].tolist()))


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
    ii, jj = np.triu_indices(n, 1)
    ranked = np.lexsort((jj, ii, D[ii, jj]))
    W = E_max / 2.0
    full = min(int(math.floor(W + 1e-12)), ranked.shape[0])
    rem = W - full
    weights = np.ones(full)
    if rem > 1e-12 and full < ranked.shape[0]:
        weights = np.append(weights, rem)
    ranked = ranked[: weights.shape[0]]
    return EmpGraph.from_arrays(n, ii[ranked], jj[ranked], weights)


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
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite entry in {row}")
    if not rows:
        raise ValueError(f"{path}: empty discrepancy file")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"{path}: expected a square {n}x{n} matrix")
    return as_discrepancy(np.array(rows))
