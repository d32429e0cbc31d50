"""Weighted undirected graphs over devices: Laplacians, spectra, generators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gtvfed.seeds import as_rng

# Eigenvalues this close to zero count as zero when deciding connectivity.
ZERO_EIG_TOL = 1e-8

PENALTIES = ("sq_norm", "norm")
GENERATORS = ("erdos_renyi", "star", "chain", "two_cluster")


class GraphError(ValueError):
    """Invalid graph structure or graph input."""


class EmpGraph:
    """Undirected weighted graph over ``n`` nodes with ids ``0..n-1``.

    Edges are stored as a sorted tuple of ``(i, j, weight)`` with ``i < j``.
    Weights are strictly positive and each unordered pair appears at most
    once. The sorted layout makes iteration order (and everything downstream,
    e.g. message schedules) stable.

    The graph is also held, once, as read-only arrays that every solver
    reads: the CSR adjacency ``indptr``/``indices``/``weights``, with node
    i's neighbours in ``indices[indptr[i]:indptr[i + 1]]`` in ascending
    order, and ``degree``, the weighted degrees. Node i's degree adds its
    neighbour weights left to right in that order, which is also edge order.
    """

    __slots__ = ("n", "edges", "indptr", "indices", "weights", "degree", "_ends", "_adj", "_spectrum")

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 1:
            raise GraphError("node count must be at least 1")
        seen = set()
        norm = []
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            else:
                i, j, w = edge
            i, j = int(i), int(j)
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            w = float(w)
            if not math.isfinite(w):
                raise GraphError(f"edge ({i}, {j}) has non-finite weight {w}")
            if not w > 0.0:
                raise GraphError(f"edge ({i}, {j}) has non-positive weight {w}")
            seen.add((i, j))
            norm.append((i, j, w))
        self.n = n
        self.edges = tuple(sorted(norm))
        ends = np.array(self.edges, dtype=float).reshape(-1, 3)
        ii, jj, ww = ends[:, 0].astype(np.intp), ends[:, 1].astype(np.intp), ends[:, 2].copy()
        rows, cols = np.concatenate([ii, jj]), np.concatenate([jj, ii])
        order = np.lexsort((cols, rows))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.indices = cols[order]
        self.weights = np.concatenate([ww, ww])[order]
        self.degree = np.bincount(rows[order], self.weights, minlength=n)
        self._ends = (ii, jj, ww)
        for arr in (self.indptr, self.indices, self.weights, self.degree, *self._ends):
            arr.flags.writeable = False
        self._adj = None
        self._spectrum = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i) -> tuple:
        """Sorted tuple of (neighbor id, weight) pairs of node i."""
        ids, wts = self.neighbor_arrays(i)
        return tuple(zip(ids.tolist(), wts.tolist()))

    def neighbor_arrays(self, i):
        """Neighbor ids and weights of node i: read-only slices of the CSR."""
        s = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[s], self.weights[s]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        if self._adj is None:
            A = np.zeros((self.n, self.n))
            for i, j, w in self.edges:
                A[i, j] = w
                A[j, i] = w
            self._adj = A
        return self._adj

    def edge_arrays(self):
        """Edge endpoints and weights as three aligned read-only arrays (ii, jj, ww)."""
        return self._ends

    def __repr__(self):
        return f"EmpGraph(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues in nondecreasing order.

    Eigenvalues within ZERO_EIG_TOL of zero are clamped to exactly zero, so
    ``multiplicity_zero`` equals the number of connected components.
    """

    eigenvalues: np.ndarray
    multiplicity_zero: int

    @property
    def lam2(self) -> float:
        """Second-smallest eigenvalue (algebraic connectivity for n >= 2)."""
        if len(self.eigenvalues) < 2:
            raise GraphError("lam2 undefined for a single-node graph")
        return float(self.eigenvalues[1])


@dataclass(frozen=True)
class ConsensusSplit:
    """Orthogonal split of stacked parameters into shared mean and deviations."""

    mean_block: np.ndarray
    deviations: np.ndarray


def degrees(g: EmpGraph):
    """The graph's weighted degree array (read-only) and the maximum degree."""
    return g.degree, float(g.degree.max())


def laplacian(g: EmpGraph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus weight matrix."""
    return np.diag(g.degree) - g.adjacency()


def neighbor_means(g: EmpGraph, mask):
    """The map W -> (S, d) of the weighted neighbour means
    sum_j A_ij W_j / d_i of the S nodes in the boolean mask, in node order;
    each must have a neighbour. One scipy CSR product adds each node's
    weighted rows left to right from 0.0 in CSR slot order and d_i is
    g.degree, as in trust.aggregate_segments, so the bits are the same."""
    import scipy.sparse

    counts = np.diff(g.indptr)
    slots = np.repeat(mask, counts)
    csr = scipy.sparse.csr_array(
        (g.weights[slots], g.indices[slots], np.concatenate(([0], np.cumsum(counts[mask])))),
        shape=(int(np.count_nonzero(mask)), g.n),
    )
    deg = g.degree[mask][:, None]
    return lambda W: (csr @ W) / deg


def spectrum(g: EmpGraph) -> Spectrum:
    """Eigenvalues of the Laplacian, clamped near zero (see Spectrum).

    Computed once per graph and kept on it; the eigenvalue array is
    read-only because every caller shares it.
    """
    if g._spectrum is None:
        L = laplacian(g)
        try:
            vals = np.linalg.eigvalsh(L)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise GraphError(f"Laplacian eigensolver failed: {exc}") from exc
        vals = np.where(np.abs(vals) <= ZERO_EIG_TOL, 0.0, vals)
        vals.flags.writeable = False
        g._spectrum = Spectrum(eigenvalues=vals, multiplicity_zero=int(np.sum(vals == 0.0)))
    return g._spectrum


def components(g: EmpGraph):
    """Connected components as sorted node lists, ordered by smallest member."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: EmpGraph) -> bool:
    return len(components(g)) == 1


def _as_blocks(params, n):
    blocks = getattr(params, "blocks", params)
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise GraphError(
            f"expected {n} parameter blocks, got array of shape {arr.shape}"
        )
    return arr


def gtv_value(g: EmpGraph, params, penalty: str = "sq_norm") -> float:
    """Total variation of node parameters over the graph.

    sq_norm sums weight * ||w_i - w_j||^2 over edges; norm uses the plain
    Euclidean norm instead of its square.
    """
    if penalty not in PENALTIES:
        raise GraphError(f"unknown penalty {penalty!r}; expected one of {PENALTIES}")
    W = _as_blocks(params, g.n)
    if not g.edges:
        return 0.0
    ii, jj, ww = g.edge_arrays()
    diffs = W.take(ii, axis=0) - W.take(jj, axis=0)
    sq = np.einsum("ed,ed->e", diffs, diffs)
    if penalty == "sq_norm":
        return float(ww @ sq)
    return float(ww @ np.sqrt(sq))


def consensus_split(params) -> ConsensusSplit:
    """Split stacked blocks into their mean and per-node deviations."""
    blocks = getattr(params, "blocks", params)
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    mean = arr.mean(axis=0)
    return ConsensusSplit(mean_block=mean, deviations=arr - mean)


def induced(g: EmpGraph, nodes):
    """Subgraph on the given nodes plus the total boundary weight.

    Returns (subgraph, boundary) where the subgraph relabels the kept nodes
    as 0..|C|-1 in sorted order and boundary sums weights of edges with
    exactly one endpoint inside the set.
    """
    keep = sorted(set(int(v) for v in nodes))
    if not keep:
        raise GraphError("cannot induce a subgraph on an empty node set")
    if keep[0] < 0 or keep[-1] >= g.n:
        raise GraphError("induced node set contains ids outside the graph")
    relabel = {v: t for t, v in enumerate(keep)}
    sub_edges = []
    boundary = 0.0
    for i, j, w in g.edges:
        ins_i, ins_j = i in relabel, j in relabel
        if ins_i and ins_j:
            sub_edges.append((relabel[i], relabel[j], w))
        elif ins_i or ins_j:
            boundary += w
    return EmpGraph(len(keep), sub_edges), boundary


def lambda2_degree_check(g: EmpGraph):
    """Algebraic connectivity against its minimum-degree upper bound.

    Returns (lam2, bound, holds) with bound = n/(n-1) * min_i degree(i).
    """
    if g.n < 2:
        raise GraphError("degree bound needs at least 2 nodes")
    lam2 = spectrum(g).lam2
    bound = g.n / (g.n - 1) * float(g.degree.min())
    return lam2, bound, bool(lam2 <= bound + 1e-9)


def generate(
    kind: str,
    n: int,
    weight: float = 1.0,
    seed=0,
    p: float | None = None,
    p_in: float | None = None,
    p_out: float | None = None,
) -> EmpGraph:
    """Seeded graph generator.

    Kinds: erdos_renyi(p), star (center node 0), chain, and
    two_cluster(p_in, p_out) with the first ceil(n/2) nodes in cluster A.
    Pairs are visited in lexicographic order with one uniform draw each,
    drawn one row (i, j > i) per call, so the same seed always yields the
    same graph.
    """
    n = int(n)
    if n < 1:
        raise GraphError("node count must be at least 1")
    if not float(weight) > 0.0:
        raise GraphError(f"edge weight must be positive, got {weight}")
    rng = as_rng(seed)
    if kind == "erdos_renyi":
        pr = _check_prob(p, "p")
        row_probs = lambda i: pr
    elif kind == "two_cluster":
        pi = _check_prob(p_in, "p_in")
        po = _check_prob(p_out, "p_out")
        in_a = np.arange(n) < (n + 1) // 2
        row_probs = lambda i: np.where(in_a[i + 1 :] == in_a[i], pi, po)
    elif kind == "star":
        return EmpGraph(n, [(0, k, weight) for k in range(1, n)])
    elif kind == "chain":
        return EmpGraph(n, [(k, k + 1, weight) for k in range(n - 1)])
    else:
        raise GraphError(
            f"unknown graph kind {kind!r}; expected one of {', '.join(GENERATORS)}"
        )
    edges = []
    for i in range(n):
        hits = np.flatnonzero(rng.random(n - i - 1) < row_probs(i)) + (i + 1)
        edges += [(i, j, weight) for j in hits.tolist()]
    return EmpGraph(n, edges)


def _check_prob(value, name):
    if value is None:
        raise GraphError(f"graph kind requires parameter {name}")
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise GraphError(f"{name} must lie in [0, 1], got {value}")
    return value


def save_edge_list(g: EmpGraph, path) -> None:
    """Write the graph as '# nodes: n' plus one 'i j weight' line per edge.

    Node ids in the file are 1-based; the header comment preserves isolated
    nodes across a round-trip.
    """
    lines = [f"# nodes: {g.n}"]
    for i, j, w in g.edges:
        lines.append(f"{i + 1} {j + 1} {w!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path, n: int | None = None) -> EmpGraph:
    """Read an edge list with 1-based node ids and optional # comments.

    The node count is taken from an optional '# nodes: n' comment, an
    explicit argument, or the largest id seen, in that priority order.
    Duplicate pairs and self-loops are rejected.
    """
    edges = []
    max_id = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:") and n is None:
                    try:
                        n = int(body.split(":", 1)[1])
                    except ValueError:
                        raise GraphError(
                            f"{path}:{lineno}: malformed nodes header {line!r}"
                        ) from None
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 'i j weight', got {line!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: non-numeric edge entry in {line!r}"
                ) from None
            if i < 1 or j < 1:
                raise GraphError(f"{path}:{lineno}: node ids are 1-based, got {line!r}")
            max_id = max(max_id, i, j)
            edges.append((i - 1, j - 1, w))
    if n is None:
        n = max_id
    if n < 1:
        raise GraphError(f"{path}: empty edge list with no nodes header")
    try:
        return EmpGraph(n, edges)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
