"""Damped least-squares (Levenberg-Marquardt) stepping on residual functions.

A residual function maps a parameter vector to (residuals, Jacobian). The
Jacobian may be an array or a zero-argument callable that computes it: a
callable is invoked only at the point a step is taken from, never at trial
points. The objective throughout is half the sum of squared residuals.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OptimizerStalled", "lm_step", "lm_minimize", "numeric_jacobian", "numeric_jacobian_rows"]


class OptimizerStalled(RuntimeError):
    """Damping escalated past lambda_max without finding an acceptable step."""


def half_sse(residuals: np.ndarray) -> float:
    r = np.asarray(residuals, dtype=float)
    return 0.5 * float(r @ r)


LAM_MAX = 1e12  # the largest damping lm_step tries


def lm_step(params, residual_fn, lam):
    """One damped Gauss-Newton step.

    Solves (J'J + lam*I) delta = -J'r. A step that does not increase the
    error is accepted and lam is divided by 10; otherwise lam is multiplied
    by 10 and the solve retried, up to LAM_MAX.

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
    while lam <= LAM_MAX:
        # the same bits as A + lam * I for any finite lam: a + lam * 0.0 off
        # the diagonal, and (a + lam * 0.0) + lam == a + lam on it
        damped = A + lam * 0.0
        damped.flat[:: len(params) + 1] += lam
        try:
            delta = np.linalg.solve(damped, -g)
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
    return numeric_jacobian_rows(lambda points: [np.asarray(fn(x), dtype=float) for x in points],
                                 params, step)


def numeric_jacobian_rows(fn_rows, params, step=1e-6):
    """Central-difference Jacobian from one call of ``fn_rows`` on all 2k perturbed points.

    ``fn_rows`` maps a (2k, k) array of parameter rows to their residual rows.
    The rows are params + h_j e_j and params - h_j e_j for j = 0, 1, ...,
    interleaved, with h_j = step * max(1, |params[j]|); column j of the result
    is (r(up_j) - r(dn_j)) / (2 h_j).
    """
    params = np.asarray(params, dtype=float)
    k = params.size
    h = step * np.fmax(1.0, np.abs(params))  # fmax, as max(1.0, nan) is 1.0
    points = np.repeat(params[None, :], 2 * k, axis=0)
    # (2j, j) and (2j + 1, j) sit 2k + 1 apart in the flat array
    points.flat[:: 2 * k + 1] += h
    points.flat[k :: 2 * k + 1] -= h
    R = np.asarray(fn_rows(points), dtype=float).reshape(2 * k, -1)
    J = np.empty((R.shape[1], k))
    np.divide((R[0::2] - R[1::2]).T, 2.0 * h, out=J)
    return J
