"""Networked regularized least squares: the oracle solve, assembly, and bounds.

The problem couples per-node quadratic losses through a graph
total-variation penalty:

    min over blocks w_1..w_n of  sum_i L_i(w_i) + alpha * GTV(w).

The objective is w'Qw + q'w + c with
Q = blockdiag(Q_i) + alpha * kron(L, I_d). The oracle (solve_direct) never
forms Q: it runs block-Jacobi preconditioned conjugate gradients on the
product W -> Q W, which costs O(n d^2 + |E| d). assemble() keeps the dense
Q as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvfed import graph as graphmod
from gtvfed.graph import EmpGraph, GraphError, algebraic_connectivity, as_blocks, gtv_value, laplacian
from gtvfed.localmodel import QuadStack, stack_losses

SINGULAR_TOL = 1e-10

# PCG stops at this relative residual, or after CG_STALL iterations without
# a new smallest residual.
CG_RTOL = 1e-14
CG_STALL = 50

# Lanczos stops at extreme Ritz residuals of LANCZOS_RTOL max |theta|. It
# solves its tridiagonal first at step LANCZOS_FIRST, then whenever the step
# count has grown by the factor LANCZOS_GROWTH, and gives up after
# LANCZOS_STEPS steps per dimension.
LANCZOS_RTOL = 1e-13
LANCZOS_FIRST = 8
LANCZOS_GROWTH = 1.25
LANCZOS_STEPS = 10


class SingularProblemError(ValueError):
    """The assembled quadratic has no unique minimizer."""


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
    """A graph, one quadratic loss per node, and a coupling strength; the
    nodes are coupled through the sq_norm penalty, the one every solver
    implements.

    losses is a QuadStack, or a sequence of QuadLoss that is stacked once;
    anything else is rejected. The problem keeps the stack as stack, and
    losses holds the per-node losses: the ones given, or the stack's views.
    """

    __slots__ = ("graph", "stack", "losses", "alpha", "d", "_quad", "_eig")

    def __init__(self, graph: EmpGraph, losses, alpha: float, d=None):
        stack, losses = stack_losses(losses, "GTVMin", d)
        losses = stack.losses() if losses is None else losses
        if len(losses) != graph.n:
            raise ValueError(
                f"got {len(losses)} losses for a graph with {graph.n} nodes"
            )
        alpha = float(alpha)
        if alpha < 0.0:
            raise ValueError(f"coupling strength must be nonnegative, got {alpha}")
        self.graph = graph
        self.stack = stack
        self.losses = losses
        self.alpha = alpha
        self.d = stack.d
        self._quad = None
        self._eig = None

    @property
    def n(self) -> int:
        return self.graph.n

    def neighbor_arrays(self, i):
        return self.graph.neighbor_arrays(i)


def ordered_total(stack) -> np.ndarray:
    """stack[0] + stack[1] + ... added left to right from 0.0, as Python's
    sum over the slices adds them; for 1-D values, as a Python loop adds
    them to a float total.

    np.sum may add pairwise. A running sum adds in order from stack[0],
    which differs only where every term is -0.0; + 0.0 turns that -0.0
    into the 0.0 a sum from 0.0 gives and leaves every other value as is.
    """
    return np.add.accumulate(stack, axis=0)[-1] + 0.0


def objective_parts(p: GTVMinProblem, params):
    """(node losses, coupling penalty, objective) at params.

    Node i's entry is its local loss at its own block, evaluated on the
    stack. The objective adds the node losses in node order,
    then alpha times the penalty.
    """
    W = as_blocks(params, p.n, p.d)
    objs = p.stack.values(W)
    gtv = gtv_value(p.graph, W)
    return objs, gtv, float(ordered_total(objs)) + p.alpha * gtv


def objective(p: GTVMinProblem, params) -> float:
    """Sum of local losses plus alpha times the coupling penalty."""
    return objective_parts(p, params)[2]


def gd_gradient(stack: QuadStack, rhos, ids, own, avg):
    """Gradients 2 Q_i w_i + q_i + rho_i (w_i - a_i) of the nodes ids at
    their (S, d) blocks own and neighbour means avg; avg None drops the
    coupling, as at a node with rho_i = 2 alpha d_i = 0. ids is an index
    array or a slice (slice(None) for every node, slice(i, i + 1) for node
    i alone), which reads the stacks without a copy. FedGD's round calls
    it for every update."""
    g = 2.0 * (stack.Qs[ids] @ own[:, :, None])[:, :, 0] + stack.qs[ids]
    if avg is not None:
        g = g + rhos[ids][:, None] * (own - avg)
    return g


def assemble(p: GTVMinProblem):
    """Dense (Q, q, c) of the full quadratic over the flat vector.

    Q = blockdiag(Q_i) + alpha * kron(L, I_d).
    """
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
    """The assembled Q of a problem, applied without forming it.

    Q acts on (n, d) blocks as W -> Q_i W_i + alpha sum_j A_ij (W_i - W_j).
    The coupling is summed from edge differences, so near consensus (stiff
    alpha) its rounding scales with |W_i - W_j|, not with |W|. One operator
    serves every solve with the same local Q_i (only the linear terms may
    change) and caches its extreme eigenvalues. Get it through
    quad_operator(p), which builds it once per problem.
    """

    def __init__(self, p: GTVMinProblem):
        import scipy.sparse

        n, d = p.n, p.d
        self.n, self.d, self.alpha = n, d, p.alpha
        self.graph = p.graph
        self.stack = p.stack
        self.Qs = self.stack.Qs
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
            flux = self.weights[:, None] * (W.take(ii, axis=0) - W.take(jj, axis=0))
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
            lam = self.stack.eigenvalues()[:, 0]
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
            blocks = self.Qs + self.alpha * self.graph.degree[:, None, None] * np.eye(self.d)
            self._pre = np.linalg.inv(blocks)
        return self._pre

    def solve(self, qs) -> np.ndarray:
        """Minimizer of w'Qw + q'w, as an (n, d) array, for the stacked linear
        terms qs (n, d).

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
        return x

    def extreme_eigenvalues(self):
        """(lambda_min, lambda_max) of Q by one Lanczos pass from a fixed start vector."""
        if self._eigs is None:
            n, d = self.n, self.d
            self._eigs = _lanczos_ends(
                lambda v: self.apply(v.reshape(n, d)).reshape(-1),
                np.random.default_rng(0).standard_normal(n * d),
            )
        return self._eigs


def _lanczos_ends(matvec, v0):
    """(smallest, largest) eigenvalue of a symmetric map by plain Lanczos.

    Three-term Lanczos without reorthogonalization: lost orthogonality only
    adds copies of converged Ritz values, while the extreme ones still
    converge to full accuracy (Paige 1980). The tridiagonal is solved on a
    geometric schedule. An end has converged once its Ritz residual
    beta |s_m| is at most LANCZOS_RTOL max |theta|; it stays converged, since
    the extreme Ritz values move monotonically toward the spectrum's ends,
    though a later copy may blur its residual. The pass stops once both ends
    have converged, when beta vanishes (an invariant subspace), or after
    LANCZOS_STEPS steps per dimension.
    """
    from scipy.linalg import eigh_tridiagonal

    v = v0 / np.linalg.norm(v0)
    prev = np.zeros_like(v)
    alphas, betas = [], []
    beta, scale, check, done = 0.0, 0.0, LANCZOS_FIRST, [False, False]
    limit = LANCZOS_STEPS * v.size
    for step in range(1, limit + 1):
        w = matvec(v) - beta * prev
        alpha = float(w @ v)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        scale = max(scale, abs(alpha), beta)
        stop = beta <= LANCZOS_RTOL * scale or step == limit
        if stop or step == check:
            ends = [
                eigh_tridiagonal(alphas, betas[:-1], select="i", select_range=(i, i))
                for i in (0, step - 1)
            ]
            top = max(abs(float(theta[0])) for theta, _ in ends)
            for i, (_, s) in enumerate(ends):
                done[i] = done[i] or beta * abs(s[-1, 0]) <= LANCZOS_RTOL * top
            if stop or all(done):
                return tuple(float(theta[0]) for theta, _ in ends)
            check = max(step + 1, int(LANCZOS_GROWTH * step))
        prev, v = v, w / beta


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


def solve_direct(p: GTVMinProblem) -> np.ndarray:
    """Unique minimizer of the problem as an (n, d) array, by block-Jacobi PCG.

    Raises SingularProblemError when the minimizer is not unique (a zero
    local loss, or a component whose losses leave a direction free) or the
    solve cannot reach a small residual. Nothing of size (nd)^2 is formed.
    """
    return quad_operator(p).solve(p.stack.qs)


def eig_summaries(p: GTVMinProblem) -> EigSummaries:
    """The problem's EigSummaries, computed on the first call and kept."""
    if p._eig is None:
        stack = p.stack
        lam_max = max(stack.eigenvalues()[:, -1].tolist(), default=0.0)
        mean_Q = ordered_total(stack.Qs) / p.n
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
    d_max = float(p.graph.degree.max())
    upper = s.lam_max + 2.0 * p.alpha * d_max
    lower = None
    if s.rho is not None and s.lam_bar_min > 0.0 and p.n >= 2:
        lam2 = algebraic_connectivity(p.graph)
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
    lam2 = algebraic_connectivity(p.graph)
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
    lam2 = algebraic_connectivity(sub)
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
    lam2 = algebraic_connectivity(p.graph)
    if lam2 <= 0.0:
        raise GraphError("bound requires a connected graph (lam2 > 0)")
    denom = min(lam2 * p.alpha * s.rho**2, s.lam_bar_min / 2.0)
    if denom <= 0.0:
        raise ValueError("bound degenerate: coupling or curvature vanishes")
    total_sq = sum(float(v @ v) for v in perts)
    return s.lam_max * (1.0 + s.rho**2) ** 2 / denom**2 * total_sq
