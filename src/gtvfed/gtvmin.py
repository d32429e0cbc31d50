"""Networked regularized least squares: the oracle solve, assembly, and bounds.

The problem couples per-node losses through a graph total-variation penalty:

    min over blocks w_1..w_n of  sum_i L_i(w_i) + alpha * GTV(w).

For quadratic losses the objective is w'Qw + q'w + c with
Q = blockdiag(Q_i) + alpha * kron(L, I_d). The oracle (solve_direct) never
forms Q: it runs block-Jacobi preconditioned conjugate gradients on the
product W -> Q W, which costs O(n d^2 + |E| d). assemble() keeps the dense
Q as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvfed import graph as graphmod
from gtvfed.graph import EmpGraph, GraphError, degrees, gtv_value, laplacian, spectrum
from gtvfed.localmodel import CallableLoss, QuadLoss, QuadStack

SINGULAR_TOL = 1e-10

# PCG stops at this relative residual, or after CG_STALL iterations without
# a new smallest residual.
CG_RTOL = 1e-14
CG_STALL = 50


class SingularProblemError(ValueError):
    """The assembled quadratic has no unique minimizer."""


class StackedParams:
    """n parameter blocks of dimension d with a consistent flat view."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        arr = np.asarray(blocks, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"blocks must be 2-d (n, d), got shape {arr.shape}")
        self.blocks = arr

    @classmethod
    def from_flat(cls, flat, n: int, d: int) -> "StackedParams":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (n * d,):
            raise ValueError(f"flat vector has shape {flat.shape}, expected ({n * d},)")
        return cls(flat.reshape(n, d).copy())

    @classmethod
    def zeros(cls, n: int, d: int) -> "StackedParams":
        return cls(np.zeros((int(n), int(d))))

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.reshape(-1)

    def copy(self) -> "StackedParams":
        return StackedParams(self.blocks.copy())

    def __repr__(self):
        return f"StackedParams(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class EigSummaries:
    """Spectral summaries of the local losses used by the bounds.

    lam_max is the largest eigenvalue over the per-node Q matrices,
    lam_bar_min the smallest eigenvalue of their average, and
    rho = lam_bar_min / (4 lam_max).
    """

    lam_max: float
    lam_bar_min: float
    rho: float | None


@dataclass(frozen=True)
class EigBounds:
    """Two-sided estimate of the assembled quadratic's extreme eigenvalues.

    upper bounds lambda_max(Q); lower, when available, bounds
    lambda_min(Q) from below and requires a connected graph and a
    positive-definite average local loss.
    """

    upper: float
    lower: float | None
    summaries: EigSummaries


class GTVMinProblem:
    """A graph, one loss per node, a coupling strength, and a penalty kind."""

    __slots__ = (
        "graph", "losses", "alpha", "penalty", "d", "_nbr", "_deg", "_quadratic", "_quad", "_stack",
        "_eig",
    )

    def __init__(self, graph: EmpGraph, losses, alpha: float, penalty: str = "sq_norm", d=None):
        if penalty not in graphmod.PENALTIES:
            raise ValueError(
                f"unknown penalty {penalty!r}; expected one of {graphmod.PENALTIES}"
            )
        losses = tuple(losses)
        if len(losses) != graph.n:
            raise ValueError(
                f"got {len(losses)} losses for a graph with {graph.n} nodes"
            )
        alpha = float(alpha)
        if alpha < 0.0:
            raise ValueError(f"coupling strength must be nonnegative, got {alpha}")
        dims = {loss.d for loss in losses if getattr(loss, "d", None) is not None}
        if d is not None:
            dims.add(int(d))
        if len(dims) > 1:
            raise ValueError(f"losses disagree on the block dimension: {sorted(dims)}")
        if not dims:
            raise ValueError("block dimension unknown; pass d explicitly")
        self.graph = graph
        self.losses = losses
        self.alpha = alpha
        self.penalty = penalty
        self.d = dims.pop()
        self._nbr = tuple(graph.neighbor_arrays(i) for i in range(graph.n))
        self._deg = np.array([w.sum() for _, w in self._nbr])
        self._quadratic = all(isinstance(loss, QuadLoss) for loss in losses)
        self._quad = None
        self._stack = None
        self._eig = None

    @property
    def n(self) -> int:
        return self.graph.n

    def neighbor_arrays(self, i):
        return self._nbr[i]

    def is_quadratic(self) -> bool:
        return self._quadratic

    def as_blocks(self, params) -> np.ndarray:
        blocks = getattr(params, "blocks", params)
        arr = np.asarray(blocks, dtype=float)
        if arr.ndim == 1 and self.d == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape != (self.n, self.d):
            raise ValueError(
                f"parameters have shape {arr.shape}, expected ({self.n}, {self.d})"
            )
        return arr


def loss_stack(p: GTVMinProblem) -> QuadStack:
    """The problem's quadratic losses as one QuadStack, built once and kept."""
    if not p.is_quadratic():
        raise ValueError("stacking requires quadratic losses at every node")
    if p._stack is None:
        p._stack = QuadStack(p.losses)
    return p._stack


def ordered_sum(values) -> float:
    """values added left to right from 0.0, as a Python accumulation loop does.

    numpy's sum adds pairwise and can differ in the last bits; reports
    keep the loop's bits.
    """
    total = 0.0
    for v in np.asarray(values, dtype=float).reshape(-1).tolist():
        total += v
    return total


def objective_parts(p: GTVMinProblem, params):
    """(node losses, coupling penalty, objective) at params.

    Node i's entry is its local loss at its own block; quadratic losses are
    evaluated stacked. The objective adds the node losses in node order,
    then alpha times the penalty.
    """
    W = p.as_blocks(params)
    if p.is_quadratic():
        objs = loss_stack(p).values(W)
    else:
        objs = np.array([loss.value(W[i]) for i, loss in enumerate(p.losses)])
    gtv = gtv_value(p.graph, W, p.penalty)
    return objs, gtv, ordered_sum(objs) + p.alpha * gtv


def objective(p: GTVMinProblem, params) -> float:
    """Sum of local losses plus alpha times the coupling penalty."""
    return objective_parts(p, params)[2]


def _node_grad(loss, own, nbr_blocks, wts, alpha):
    # Shared kernel: every per-node gradient in the package funnels through
    # here so different call sites produce identical floating-point results.
    g = loss.gradient(own)
    if wts.shape[0]:
        g = g + (2.0 * alpha) * (wts @ (own - nbr_blocks))
    return g


def node_gradient(p: GTVMinProblem, i: int, params) -> np.ndarray:
    """Gradient of the objective in block i (sq_norm penalty)."""
    if p.penalty != "sq_norm":
        raise ValueError("node gradients are defined for the sq_norm penalty")
    W = p.as_blocks(params)
    ids, wts = p._nbr[i]
    return _node_grad(p.losses[i], W[i], W[ids], wts, p.alpha)


def batch_gradient_fn(p: GTVMinProblem):
    """Vectorized all-nodes gradient (n, d) -> (n, d) for quadratic losses.

    Returns None when a loss is not quadratic; callers then fall back to the
    per-node kernel.
    """
    if p.penalty != "sq_norm" or not p.is_quadratic():
        return None
    stack = loss_stack(p)
    Qs, qs = stack.Qs, stack.qs
    adj = p.graph.adjacency()
    deg = p._deg.reshape(-1, 1)
    alpha2 = 2.0 * p.alpha

    def grad(W):
        G = 2.0 * np.einsum("nij,nj->ni", Qs, W) + qs
        if alpha2 != 0.0:
            G = G + alpha2 * (deg * W - adj @ W)
        return G

    return grad


def flat_loss(p: GTVMinProblem) -> CallableLoss:
    """The networked objective as a single loss over the flat vector."""
    n, d = p.n, p.d
    batch = batch_gradient_fn(p)

    def value(wflat):
        return objective(p, wflat.reshape(n, d))

    if batch is not None:

        def gradient(wflat):
            return batch(wflat.reshape(n, d)).reshape(-1)

    else:

        def gradient(wflat):
            W = wflat.reshape(n, d)
            return np.concatenate([node_gradient(p, i, W) for i in range(n)])

    return CallableLoss(value, gradient, d=n * d)


def assemble(p: GTVMinProblem):
    """Dense (Q, q, c) of the full quadratic over the flat vector.

    Q = blockdiag(Q_i) + alpha * kron(L, I_d). Requires quadratic losses
    and the sq_norm penalty.
    """
    if p.penalty != "sq_norm":
        raise ValueError("only the sq_norm penalty assembles to a quadratic")
    if not p.is_quadratic():
        raise ValueError("assembly requires quadratic losses at every node")
    n, d = p.n, p.d
    Q = np.zeros((n * d, n * d))
    q = np.zeros(n * d)
    c = 0.0
    for i, loss in enumerate(p.losses):
        sl = slice(i * d, (i + 1) * d)
        Q[sl, sl] = loss.Q
        q[sl] = loss.q
        c += loss.c
    if p.alpha != 0.0:
        Q += p.alpha * np.kron(laplacian(p.graph), np.eye(d))
    return Q, q, c


class QuadOperator:
    """The assembled Q of a quadratic problem, applied without forming it.

    Q acts on (n, d) blocks as W -> Q_i W_i + alpha sum_j A_ij (W_i - W_j).
    The coupling is summed from edge differences, so near consensus (stiff
    alpha) its rounding scales with |W_i - W_j|, not with |W|. One operator
    serves every solve with the same local Q_i (only the linear terms may
    change) and caches its extreme eigenvalues. Get it through
    quad_operator(p), which builds it once per problem.
    """

    def __init__(self, p: GTVMinProblem):
        if p.penalty != "sq_norm":
            raise ValueError("only the sq_norm penalty gives a quadratic problem")
        if not p.is_quadratic():
            raise ValueError("the quadratic operator requires quadratic losses at every node")
        import scipy.sparse

        n, d = p.n, p.d
        self.n, self.d, self.alpha = n, d, p.alpha
        self.graph = p.graph
        self.Qs = loss_stack(p).Qs
        self.deg = p._deg
        ii, jj, self.weights = p.graph.edge_arrays()
        self.ends = (ii, jj)
        # Signed node-edge incidence: column e is +1 at ii[e] and -1 at jj[e].
        E = ii.shape[0]
        self.incidence = scipy.sparse.csr_array(
            (np.repeat([1.0, -1.0], E), (np.concatenate([ii, jj]), np.tile(np.arange(E), 2))),
            shape=(n, E),
        )
        self._pre = None
        self._eigs = None

    def apply(self, W) -> np.ndarray:
        """Q W for an (n, d) block array."""
        out = np.einsum("nij,nj->ni", self.Qs, W)
        if self.alpha != 0.0:
            ii, jj = self.ends
            flux = self.weights[:, None] * (W[ii] - W[jj])
            out += self.alpha * (self.incidence @ flux)
        return out

    def _preconditioner(self) -> np.ndarray:
        """Inverse diagonal blocks (Q_i + alpha d_i I)^-1, once uniqueness holds.

        Q is positive definite exactly when every Q_i is positive
        semidefinite and, on each connected component C (each node alone
        when alpha = 0), sum_{i in C} Q_i is positive definite: a null vector
        of Q must be constant on components and annihilated by those sums.
        """
        if self._pre is None:
            lam = np.linalg.eigvalsh(self.Qs)[:, 0]
            worst = int(np.argmin(lam))
            if lam[worst] < -SINGULAR_TOL:
                raise SingularProblemError(
                    f"local loss {worst} is not convex (lambda_min(Q_{worst}) = "
                    f"{lam[worst]:.3e}); the quadratic has no minimizer"
                )
            if self.alpha == 0.0:
                groups = [[i] for i in range(self.n)]
            else:
                groups = graphmod.components(self.graph)
                lam = np.linalg.eigvalsh(np.stack([self.Qs[c].sum(axis=0) for c in groups]))[:, 0]
            worst = int(np.argmin(lam))
            if lam[worst] <= SINGULAR_TOL:
                nodes = groups[worst]
                shown = ", ".join(map(str, nodes[:5])) + (", ..." if len(nodes) > 5 else "")
                raise SingularProblemError(
                    f"the local losses of the {len(nodes)}-node component {{{shown}}} sum to "
                    f"a singular quadratic (lambda_min = {lam[worst]:.3e}); "
                    "the minimizer is not unique"
                )
            blocks = self.Qs + self.alpha * self.deg[:, None, None] * np.eye(self.d)
            self._pre = np.linalg.inv(blocks)
        return self._pre

    def solve(self, qs) -> StackedParams:
        """Minimizer of w'Qw + q'w for the stacked linear terms qs (n, d).

        Raises SingularProblemError when the minimizer is not unique or the
        final residual |2Qw + q| exceeds 1e-8 max(1, |q/2|) or is not finite.
        """
        pre = self._preconditioner()
        rhs = -np.asarray(qs, dtype=float).reshape(self.n, self.d) / 2.0
        x = _pcg(self.apply, lambda R: np.einsum("nij,nj->ni", pre, R), rhs)
        resid = float(np.max(np.abs(2.0 * (self.apply(x) - rhs)), initial=0.0))
        if not resid <= 1e-8 * max(1.0, float(np.max(np.abs(rhs), initial=0.0))):
            raise SingularProblemError(
                f"oracle residual {resid:.3e} is too large; "
                "the quadratic is badly conditioned or its data are not finite"
            )
        return StackedParams(x)

    def extreme_eigenvalues(self):
        """(lambda_min, lambda_max) of Q by Lanczos from a fixed start vector.

        A 1 x 1 Q, too small for ARPACK, is read off one product.
        """
        if self._eigs is None:
            size = self.n * self.d
            if size == 1:
                val = float(self.apply(np.ones((1, 1)))[0, 0])
                self._eigs = (val, val)
            else:
                from scipy.sparse.linalg import LinearOperator, eigsh

                op = LinearOperator(
                    (size, size),
                    matvec=lambda v: self.apply(v.reshape(self.n, self.d)).reshape(-1),
                    dtype=float,
                )
                v0 = np.random.default_rng(0).standard_normal(size)
                ends = (
                    eigsh(op, k=1, which=which, v0=v0, tol=0.0, return_eigenvectors=False)[0]
                    for which in ("SA", "LA")
                )
                self._eigs = tuple(float(v) for v in ends)
        return self._eigs


def _pcg(apply, precond, b) -> np.ndarray:
    """Preconditioned conjugate gradients for Q x = b from x = 0.

    Stops at relative residual CG_RTOL, after CG_STALL iterations without a
    new smallest residual, or on a non-positive curvature step.
    """
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = precond(r)
    s = z.copy()
    rz = float(np.vdot(r, z))
    best, since = bnorm, 0
    for _ in range(20 * b.size + 100):
        As = apply(s)
        sAs = float(np.vdot(s, As))
        if not sAs > 0.0:
            break
        step = rz / sAs
        x += step * s
        r -= step * As
        rnorm = float(np.linalg.norm(r))
        if rnorm <= CG_RTOL * bnorm:
            break
        if rnorm < best:
            best, since = rnorm, 0
        else:
            since += 1
            if since >= CG_STALL:
                break
        z = precond(r)
        rz_next = float(np.vdot(r, z))
        s = z + (rz_next / rz) * s
        rz = rz_next
    return x


def quad_operator(p: GTVMinProblem) -> QuadOperator:
    """The problem's QuadOperator, built on first use and kept on p."""
    if p._quad is None:
        p._quad = QuadOperator(p)
    return p._quad


def solve_direct(p: GTVMinProblem) -> StackedParams:
    """Unique minimizer of the quadratic problem, by block-Jacobi PCG.

    Raises SingularProblemError when the minimizer is not unique (a zero
    local loss, or a component whose losses leave a direction free) or the
    solve cannot reach a small residual. Nothing of size (nd)^2 is formed.
    """
    return quad_operator(p).solve(loss_stack(p).qs)


def eig_summaries(p: GTVMinProblem) -> EigSummaries:
    """The problem's EigSummaries, computed on the first call and kept."""
    if not p.is_quadratic():
        raise ValueError("eigenvalue summaries require quadratic losses")
    if p._eig is None:
        lam_max = max(
            (float(np.linalg.eigvalsh(loss.Q)[-1]) for loss in p.losses), default=0.0
        )
        mean_Q = sum(loss.Q for loss in p.losses) / p.n
        lam_bar_min = max(0.0, float(np.linalg.eigvalsh(mean_Q)[0]))
        rho = lam_bar_min / (4.0 * lam_max) if lam_max > 0.0 else None
        p._eig = EigSummaries(lam_max=lam_max, lam_bar_min=lam_bar_min, rho=rho)
    return p._eig


def eig_bounds(p: GTVMinProblem) -> EigBounds:
    """Upper/lower estimates for the assembled quadratic's spectrum.

    upper = lam_max + 2 alpha d_max always holds. The lower bound
    (1/(1+rho^2)) min(lam2 alpha rho^2, lam_bar_min / 2) needs a connected
    graph and lam_bar_min > 0; otherwise lower is None.
    """
    s = eig_summaries(p)
    _, d_max = degrees(p.graph)
    upper = s.lam_max + 2.0 * p.alpha * d_max
    lower = None
    if s.rho is not None and s.lam_bar_min > 0.0 and p.n >= 2:
        lam2 = spectrum(p.graph).lam2
        if lam2 > 0.0:
            lower = (
                1.0
                / (1.0 + s.rho**2)
                * min(lam2 * p.alpha * s.rho**2, s.lam_bar_min / 2.0)
            )
    return EigBounds(upper=upper, lower=lower, summaries=s)


def variation_bound(p: GTVMinProblem, noise_sq_norms, sizes) -> float:
    """Bound on the squared deviation of the solution from consensus.

    For labels generated by one shared parameter vector plus per-node noise
    eps_i, the consensus deviations satisfy
    sum_i ||w_i - mean||^2 <= (1/(lam2 alpha)) sum_i ||eps_i||^2 / m_i.
    """
    noise_sq = [float(v) for v in noise_sq_norms]
    sizes = [int(m) for m in sizes]
    if len(noise_sq) != p.n or len(sizes) != p.n:
        raise ValueError("need one noise norm and one sample count per node")
    if any(m < 1 for m in sizes):
        raise ValueError("sample counts must be at least 1")
    if any(v < 0 for v in noise_sq):
        raise ValueError("squared noise norms must be nonnegative")
    if p.alpha <= 0.0:
        raise ValueError("bound requires a positive coupling strength")
    if p.n < 2:
        raise ValueError("bound needs at least 2 nodes")
    lam2 = spectrum(p.graph).lam2
    if lam2 <= 0.0:
        raise GraphError("bound requires a connected graph (lam2 > 0)")
    return sum(v / m for v, m in zip(noise_sq, sizes)) / (lam2 * p.alpha)


def clustered_bound(
    p: GTVMinProblem, cluster, noise_sq_norms, sizes, wbar_sq_norm, radius
) -> float:
    """Per-cluster consensus deviation bound under a clustered truth.

    cluster lists the node ids; noise_sq_norms and sizes align with
    sorted(cluster). wbar_sq_norm is ||w_bar_C||^2 for the cluster's shared
    parameter and radius bounds every block norm the cluster couples to.
    """
    nodes = sorted(set(int(v) for v in cluster))
    noise_sq = [float(v) for v in noise_sq_norms]
    sizes = [int(m) for m in sizes]
    if len(noise_sq) != len(nodes) or len(sizes) != len(nodes):
        raise ValueError("need one noise norm and one sample count per cluster node")
    if any(m < 1 for m in sizes):
        raise ValueError("sample counts must be at least 1")
    if p.alpha <= 0.0:
        raise ValueError("bound requires a positive coupling strength")
    sub, boundary = graphmod.induced(p.graph, nodes)
    if sub.n < 2:
        raise ValueError("cluster must contain at least 2 nodes")
    lam2 = spectrum(sub).lam2
    if lam2 <= 0.0:
        raise GraphError("cluster subgraph is disconnected (lam2 = 0)")
    wbar_sq_norm = float(wbar_sq_norm)
    radius = float(radius)
    inner = sum(v / m for v, m in zip(noise_sq, sizes))
    inner += p.alpha * boundary * 2.0 * (wbar_sq_norm + radius**2)
    return inner / (p.alpha * lam2)


def sensitivity_bound(p: GTVMinProblem, label_perturbations) -> float:
    """Bound on the squared solution shift caused by label perturbations.

    label_perturbations holds one vector per node (the change applied to the
    node's labels). Requires a connected graph and lam_bar_min > 0.
    """
    perts = [np.asarray(v, dtype=float).reshape(-1) for v in label_perturbations]
    if len(perts) != p.n:
        raise ValueError("need one label perturbation per node")
    s = eig_summaries(p)
    if s.rho is None or s.lam_bar_min <= 0.0:
        raise ValueError("bound requires a positive-definite average local loss")
    if p.n < 2:
        raise ValueError("bound needs at least 2 nodes")
    lam2 = spectrum(p.graph).lam2
    if lam2 <= 0.0:
        raise GraphError("bound requires a connected graph (lam2 > 0)")
    denom = min(lam2 * p.alpha * s.rho**2, s.lam_bar_min / 2.0)
    if denom <= 0.0:
        raise ValueError("bound degenerate: coupling or curvature vanishes")
    total_sq = sum(float(v @ v) for v in perts)
    return s.lam_max * (1.0 + s.rho**2) ** 2 / denom**2 * total_sq
