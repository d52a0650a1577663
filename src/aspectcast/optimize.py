"""Damped least-squares (Levenberg-Marquardt) stepping on residual functions.

A residual function maps a parameter vector to (residuals, Jacobian). The
Jacobian may be an array or a zero-argument callable that computes it: a
callable is invoked only at the point a step is taken from, never at trial
points. The objective throughout is half the sum of squared residuals.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OptimizerStalled", "lm_step", "lm_minimize", "numeric_jacobian"]


class OptimizerStalled(RuntimeError):
    """Damping escalated past lambda_max without finding an acceptable step."""


def half_sse(residuals: np.ndarray) -> float:
    r = np.asarray(residuals, dtype=float)
    return 0.5 * float(r @ r)


def lm_step(params, residual_fn, lam, lam_max=1e12):
    """One damped Gauss-Newton step.

    Solves (J'J + lam*I) delta = -J'r. A step that does not increase the
    error is accepted and lam is divided by 10; otherwise lam is multiplied
    by 10 and the solve retried, up to lam_max.

    Returns (new_params, new_lam, new_error).
    """
    params = np.asarray(params, dtype=float)
    r, J = residual_fn(params)
    if callable(J):
        J = J()
    r = np.asarray(r, dtype=float)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
        raise OptimizerStalled("non-finite residuals or Jacobian")
    err = half_sse(r)
    A = J.T @ J
    g = J.T @ r
    eye = np.eye(len(params))
    while lam <= lam_max:
        try:
            delta = np.linalg.solve(A + lam * eye, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = params + delta
        new_r, _ = residual_fn(candidate)
        new_err = half_sse(new_r)
        if np.isfinite(new_err) and new_err <= err:
            return candidate, max(lam / 10.0, 1e-15), new_err
        lam *= 10.0
    raise OptimizerStalled(f"optimizer stalled at error {err:.3e}")


def lm_minimize(params, residual_fn, lam0=1e-3, max_steps=200, tol=1e-12):
    """Iterate lm_step until the error improvement stalls or max_steps is hit."""
    params = np.asarray(params, dtype=float)
    lam = lam0
    r, _ = residual_fn(params)
    err = half_sse(r)
    for _ in range(max_steps):
        try:
            new_params, lam, new_err = lm_step(params, residual_fn, lam)
        except OptimizerStalled:
            break
        improvement = err - new_err
        params, err = new_params, new_err
        if improvement <= tol * max(err, 1.0):
            break
    return params, err


def numeric_jacobian(fn, params, step=1e-6):
    """Central-difference Jacobian of a residual-only function: 2 * len(params) calls of ``fn``."""
    params = np.asarray(params, dtype=float)
    columns = []
    for j in range(params.size):
        h = step * max(1.0, abs(params[j]))
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        columns.append((np.asarray(fn(up), dtype=float) - np.asarray(fn(dn), dtype=float)) / (2.0 * h))
    return np.column_stack(columns)
