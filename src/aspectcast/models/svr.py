"""nu-SVR with an RBF kernel, trained by two-coordinate dual ascent.

Dual problem over alpha, alpha* in [0, C/n]^n:

    minimize  1/2 (a - a*)' K (a - a*) - y' (a - a*)
    s.t.      sum(a - a*) = 0,  sum(a + a*) = C * nu

Pair updates stay within one block (a or a*) so both equality constraints
are preserved exactly, LIBSVM-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from ..schema import check_fields, key
from .linear import FitError

__all__ = ["SvrModel", "SvrSpec", "fit_nusvr", "rbf_kernel", "dual_objective"]

_BOUND_TOL = 1e-10  # a dual variable this close to 0 or C/n is at that bound


@dataclass
class SvrSpec:
    gamma: float = key(5.0, low=0, open_low=True)
    nu: float = key(0.5, low=0, high=1, open_low=True)
    C: float = key(1.0, low=0, open_low=True)


@dataclass
class SvrModel:
    columns: list
    gamma: float
    nu: float
    C: float
    support_X: np.ndarray      # training points (all kept; n is tiny)
    dual_coef: np.ndarray      # alpha - alpha*
    rho: float                 # bias
    epsilon: float             # tube width recovered from the nu formulation
    kkt_violation: float = field(default=0.0, metadata={"diagnostic": True})

    def decision(self, X: np.ndarray) -> np.ndarray:
        K = rbf_kernel(X, self.support_X, self.gamma)
        return K @ self.dual_coef + self.rho

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        return self.decision(matrix.select(self.columns))


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * sq)


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, alpha_star: np.ndarray) -> float:
    beta = alpha - alpha_star
    return 0.5 * float(beta @ K @ beta) - float(y @ beta)


def _block_step(v, grad, K, cu, tol):
    """One maximal-violating-pair step within a block; returns (i, j, t) or None."""
    up = v < cu - 1e-14
    down = v > 1e-14
    if not up.any() or not down.any():
        return None
    gi = np.where(up, grad, np.inf)
    gj = np.where(down, grad, -np.inf)
    i = int(np.argmin(gi))
    j = int(np.argmax(gj))
    violation = grad[j] - grad[i]
    if violation <= tol:
        return None
    eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
    if eta <= 1e-14:
        eta = 1e-14
    # positive: violation > tol, and i can rise and j fall by more than 1e-14
    t = min(violation / eta, cu - v[i], v[j])
    return i, j, t


def _kkt_violation(v, grad, cu):
    up = v < cu - 1e-14
    down = v > 1e-14
    if not up.any() or not down.any():
        return 0.0
    return max(0.0, float(np.max(np.where(down, grad, -np.inf)) - np.min(np.where(up, grad, np.inf))))


def solve_nusvr_dual(K: np.ndarray, y: np.ndarray, C: float, nu: float, tol=1e-3, max_iter=100000):
    """SMO-style solver; returns (alpha, alpha_star, final max KKT violation)."""
    n = len(y)
    cu = C / n
    alpha = np.zeros(n)
    alpha_star = np.zeros(n)
    # fill sum(a + a*) = C*nu with a_i = a*_i, keeping sum(a - a*) = 0
    remaining = C * nu / 2.0
    for i in range(n):
        take = min(cu, remaining)
        alpha[i] = alpha_star[i] = take
        remaining -= take
        if remaining <= 0:
            break

    beta = alpha - alpha_star
    G = K @ beta - y  # gradient wrt alpha; wrt alpha* it is -G

    for _ in range(max_iter):
        progressed = False
        step = _block_step(alpha, G, K, cu, tol)
        if step is not None:
            i, j, t = step
            alpha[i] += t
            alpha[j] -= t
            G += t * (K[:, i] - K[:, j])
            progressed = True
        step = _block_step(alpha_star, -G, K, cu, tol)
        if step is not None:
            i, j, t = step
            alpha_star[i] += t
            alpha_star[j] -= t
            G -= t * (K[:, i] - K[:, j])
            progressed = True
        if not progressed:
            break
    viol = max(_kkt_violation(alpha, G, cu), _kkt_violation(alpha_star, -G, cu))
    if viol > tol:
        raise FitError(f"nu-SVR solver did not converge; final KKT violation {viol:.3e}")
    return alpha, alpha_star, viol


def _recover_bias(G, alpha, alpha_star, cu):
    """rho and epsilon from free variables, midpoint-of-bounds fallback."""
    def block_value(v, g):
        # free variables pin the block multiplier exactly; otherwise it lies
        # between the bound-variable gradients, take the midpoint
        free = (v > _BOUND_TOL) & (v < cu - _BOUND_TOL)
        if free.any():
            return float(np.mean(g[free]))
        # a block sums to C*nu/2 <= n*cu/2, so with cu > 2*_BOUND_TOL (fit_nusvr
        # checks it) some variable sits below cu - _BOUND_TOL: lo is never empty
        lo = g[v < cu - _BOUND_TOL]  # increasable: multiplier <= each of these... bounded above
        hi = g[v > _BOUND_TOL]       # decreasable: bounded below
        if hi.size:
            return 0.5 * (float(lo.max()) + float(hi.min()))
        return float(lo.max())

    # free alpha_i:  rho + eps = -G_i ; free alpha*_i:  eps - rho = G_i
    m1 = block_value(alpha, -G)
    m2 = block_value(alpha_star, G)
    eps = 0.5 * (m1 + m2)
    rho = 0.5 * (m1 - m2)
    return rho, max(eps, 0.0)


def fit_nusvr(train: FeatureMatrix, spec: SvrSpec | None = None) -> SvrModel:
    spec = spec or SvrSpec()
    check_fields(spec, FitError)
    if train.n_rows < 2:
        raise FitError("need at least 2 rows to fit nu-SVR")
    if spec.C / train.n_rows <= 2 * _BOUND_TOL:
        raise FitError(f"C = {spec.C:g} is too small for {train.n_rows} rows: "
                       f"C / rows must exceed {2 * _BOUND_TOL:g}")

    X, y = train.X, train.y
    K = rbf_kernel(X, X, spec.gamma)
    alpha, alpha_star, viol = solve_nusvr_dual(K, y, spec.C, spec.nu)
    beta = alpha - alpha_star
    G = K @ beta - y
    rho, eps = _recover_bias(G, alpha, alpha_star, spec.C / len(y))
    return SvrModel(
        columns=list(train.columns),
        gamma=spec.gamma,
        nu=spec.nu,
        C=spec.C,
        support_X=X.copy(),
        dual_coef=beta,
        rho=rho,
        epsilon=eps,
        kkt_violation=viol,
    )
