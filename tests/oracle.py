"""Brute-force reference implementations the tests check the package against.

Everything here is deliberately slow and self-contained: dense matrices are
assembled straight from the operator definitions, the spatial convolution is
a sum of shifted copies, and the smoothed-TV solver is damped Newton on those
dense matrices.  None of it shares a code path with the FFT machinery it is
used to check.
"""

from __future__ import annotations

import numpy as np

MAX_DENSE_N = 32


class TooLarge(Exception):
    """Dense-oracle construction refused: image too big for explicit matrices."""


class NoConvergence(Exception):
    """Reference solver hit its iteration cap before reaching tolerance."""


def _check_size(n: int) -> None:
    if n > MAX_DENSE_N:
        raise TooLarge(f"dense oracle limited to n <= {MAX_DENSE_N}, got {n}")


def convolve_periodic(u: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular 2-D true convolution of ``u`` with an odd-sized centred kernel.

    out(i, j) = sum_{a,b} kernel[c+a, c+b] * u[(i-a) mod n, (j-b) mod n]
    with c = (m-1)//2, summed tap by tap over shifted copies of ``u``.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    c = (kernel.shape[0] - 1) // 2
    out = np.zeros(u.shape, dtype=np.float64)
    for a in range(-c, c + 1):
        for b in range(-c, c + 1):
            out += kernel[c + a, c + b] * np.roll(u, (a, b), axis=(0, 1))
    return out


def dense_operator(kind: str, n: int, kernel: np.ndarray | None = None) -> np.ndarray:
    """Explicit matrix for D, D^T or K acting on row-major vectorized images.

    'D'  -> (2 n^2, n^2), dx rows stacked above dy rows;
    'Dt' -> exact transpose of 'D';
    'K'  -> (n^2, n^2) circular true convolution with the given kernel.
    """
    _check_size(n)
    if kind in ("D", "Dt"):
        eye = np.eye(n)
        shift = np.roll(eye, 1, axis=1)  # shift[a, (a+1) mod n] = 1
        c = shift - eye
        d = np.vstack([np.kron(eye, c), np.kron(c, eye)])
        return d.T.copy() if kind == "Dt" else d
    if kind == "K":
        if kernel is None:
            raise ValueError("kind 'K' requires a kernel")
        kernel = np.asarray(kernel, dtype=np.float64)
        m = kernel.shape[0]
        if m > n:
            raise ValueError(f"kernel side {m} exceeds n {n}")
        ctr = (m - 1) // 2
        mat = np.zeros((n * n, n * n))
        idx = np.arange(n * n)
        i, j = divmod(idx, n)
        for a in range(-ctr, ctr + 1):
            for b in range(-ctr, ctr + 1):
                src = ((i - a) % n) * n + (j - b) % n
                mat[idx, src] += kernel[ctr + a, ctr + b]
        return mat
    raise ValueError(f"unknown operator kind {kind!r}")


def reference_tv_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    mu: float,
    epsilon: float = 1e-6,
    tv_variant: str = "iso",
    max_iters: int = 5_000,
) -> np.ndarray:
    """Minimize the epsilon-smoothed TV/L2 objective by damped Newton.

    Objective (isotropic): sum_i sqrt(||D_i u||^2 + eps^2) + mu/2 ||Ku - f||^2,
    with K and D applied as explicit dense matrices.  The Newton system is
    (D^T W D + mu K^T K) p = -grad, where W holds the per-pixel 2x2 Hessian
    of the smoothed norm.  eps runs through those of 1e-1, 1e-2, ..., 1e-6
    that exceed ``epsilon``, then ``epsilon`` itself; each stage starts from
    the last one's solution and runs until the gradient 2-norm drops below
    1e-8 * n.  A step is halved until it gives an Armijo decrease or a
    smaller gradient norm: near the optimum the objective's change falls
    below float resolution, so Armijo alone would stall.  Starts from f; if
    the gradient there is exactly zero, f is returned untouched.
    Deterministic given its inputs.

    Raises NoConvergence when ``max_iters`` Newton steps are taken first.
    """
    n = f.shape[0]
    _check_size(n)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if tv_variant not in ("iso", "aniso"):
        raise ValueError(f"unknown tv_variant {tv_variant!r}")
    n2 = n * n

    kmat = dense_operator("K", n, kernel)
    dmat = dense_operator("D", n)
    dx_mat, dy_mat = dmat[:n2], dmat[n2:]
    ktk = mu * (kmat.T @ kmat)
    fvec = f.astype(np.float64).ravel()

    def objective(u, eps2):
        dx, dy = dx_mat @ u, dy_mat @ u
        r = kmat @ u - fvec
        if tv_variant == "iso":
            tv = np.sqrt(dx * dx + dy * dy + eps2).sum()
        else:
            tv = np.sqrt(dx * dx + eps2).sum() + np.sqrt(dy * dy + eps2).sum()
        return tv + 0.5 * mu * float(r @ r)

    def gradient(u, eps2):
        dx, dy = dx_mat @ u, dy_mat @ u
        if tv_variant == "iso":
            sx = sy = np.sqrt(dx * dx + dy * dy + eps2)
        else:
            sx, sy = np.sqrt(dx * dx + eps2), np.sqrt(dy * dy + eps2)
        return dx_mat.T @ (dx / sx) + dy_mat.T @ (dy / sy) + mu * (kmat.T @ (kmat @ u - fvec))

    def hessian(u, eps2):
        # per pixel, W = [[a, b], [b, c]] is the Hessian of the smoothed norm
        dx, dy = dx_mat @ u, dy_mat @ u
        if tv_variant == "iso":
            s3 = np.sqrt(dx * dx + dy * dy + eps2) ** 3
            a, b, c = (dy * dy + eps2) / s3, -dx * dy / s3, (dx * dx + eps2) / s3
        else:
            a = eps2 / np.sqrt(dx * dx + eps2) ** 3
            b = np.zeros(n2)
            c = eps2 / np.sqrt(dy * dy + eps2) ** 3
        cross = dx_mat.T @ (b[:, None] * dy_mat)
        return (
            dx_mat.T @ (a[:, None] * dx_mat)
            + dy_mat.T @ (c[:, None] * dy_mat)
            + cross
            + cross.T
            + ktk
        )

    gtol = 1e-8 * n
    epsilons = [10.0**-k for k in range(1, 7) if 10.0**-k > epsilon] + [epsilon]
    u = fvec.copy()
    steps = 0
    for eps in epsilons:
        eps2 = eps * eps
        g = gradient(u, eps2)
        gnorm = float(np.linalg.norm(g))
        while gnorm >= gtol:
            if steps == max_iters:
                raise NoConvergence(
                    f"reference solver: gradient tolerance not reached in {max_iters} Newton steps"
                )
            steps += 1
            p = np.linalg.solve(hessian(u, eps2), -g)
            fu, slope = objective(u, eps2), float(g @ p)
            t = 1.0
            for _ in range(60):
                u_try = u + t * p
                g_try = gradient(u_try, eps2)
                gnorm_try = float(np.linalg.norm(g_try))
                if objective(u_try, eps2) <= fu + 1e-4 * t * slope or gnorm_try < gnorm:
                    break
                t *= 0.5
            u, g, gnorm = u_try, g_try, gnorm_try
    return u.reshape(n, n)


def huber_newton_solve(
    f: np.ndarray,
    kernel: np.ndarray,
    mu: float,
    beta: float,
    u_start: np.ndarray,
    tv_variant: str = "iso",
    max_iters: int = 50,
) -> np.ndarray:
    """Minimize the Huber model sum_i phi_beta(D_i u) + mu/2 ||Ku - f||^2 by damped Newton.

    phi_beta(t) is beta/2 |t|^2 for |t| <= 1/beta and |t| - 1/(2 beta)
    above, with |t| the 2-norm of the pixel's difference pair (iso) or
    applied to each of its two components (aniso).  It is the penalty
    objective of one ftvd3 stage with w eliminated.  The model is C^1 and
    strictly convex for an invertible K, so its minimizer does not depend
    on ``u_start``.  The Newton matrix is D^T W D + mu K^T K, with W per
    pixel beta I inside the ball and (I - t t^T/|t|^2)/|t| outside it (iso;
    for aniso, beta or 0 per component).  A step is halved until it gives an
    Armijo decrease or, where the objective's change is below float
    resolution, a smaller gradient norm; accepting any smaller gradient
    norm, as ``reference_tv_solve`` does, lets Newton cycle across the kinks
    of phi_beta when it starts far away.  Stops at
    ||grad|| <= 1e-11 ||mu K^T f||.

    Raises NoConvergence when ``max_iters`` Newton steps are taken first.
    """
    n = f.shape[0]
    _check_size(n)
    if tv_variant not in ("iso", "aniso"):
        raise ValueError(f"unknown tv_variant {tv_variant!r}")
    n2 = n * n

    kmat = dense_operator("K", n, kernel)
    dmat = dense_operator("D", n)
    dx_mat, dy_mat = dmat[:n2], dmat[n2:]
    ktk = mu * (kmat.T @ kmat)
    fvec = f.astype(np.float64).ravel()
    ktf = mu * (kmat.T @ fvec)

    def huber_1d(t):
        # value, derivative and second derivative of the scalar Huber function
        inner = np.abs(t) <= 1.0 / beta
        return (
            np.where(inner, 0.5 * beta * t * t, np.abs(t) - 0.5 / beta),
            np.where(inner, beta * t, np.sign(t)),
            np.where(inner, beta, 0.0),
        )

    def evaluate(u):
        """Objective, gradient and the per-pixel W = [[a, b], [b, c]] at u."""
        dx, dy = dx_mat @ u, dy_mat @ u
        if tv_variant == "iso":
            norm = np.sqrt(dx * dx + dy * dy)
            inner = norm <= 1.0 / beta
            safe = np.where(inner, 1.0, norm)
            tv = np.where(inner, 0.5 * beta * norm * norm, norm - 0.5 / beta).sum()
            scale = np.where(inner, beta, 1.0 / safe)
            gx, gy = scale * dx, scale * dy
            s3 = safe**3
            a = np.where(inner, beta, dy * dy / s3)
            b = np.where(inner, 0.0, -dx * dy / s3)
            c = np.where(inner, beta, dx * dx / s3)
        else:
            vx, gx, a = huber_1d(dx)
            vy, gy, c = huber_1d(dy)
            tv = vx.sum() + vy.sum()
            b = np.zeros(n2)
        r = kmat @ u - fvec
        grad = dx_mat.T @ gx + dy_mat.T @ gy + ktk @ u - ktf
        return tv + 0.5 * mu * float(r @ r), grad, (a, b, c)

    def hessian(a, b, c):
        cross = dx_mat.T @ (b[:, None] * dy_mat)
        return dx_mat.T @ (a[:, None] * dx_mat) + dy_mat.T @ (c[:, None] * dy_mat) + cross + cross.T + ktk

    gtol = 1e-11 * float(np.linalg.norm(ktf))
    u = np.asarray(u_start, dtype=np.float64).ravel().copy()
    fu, g, w = evaluate(u)
    gnorm = float(np.linalg.norm(g))
    steps = 0
    while gnorm > gtol:
        if steps == max_iters:
            raise NoConvergence(f"Huber Newton: gradient tolerance not reached in {max_iters} steps")
        steps += 1
        p = np.linalg.solve(hessian(*w), -g)
        slope = float(g @ p)
        t = 1.0
        for _ in range(60):
            u_try = u + t * p
            f_try, g_try, w_try = evaluate(u_try)
            gnorm_try = float(np.linalg.norm(g_try))
            if f_try <= fu + 1e-4 * t * slope or (abs(f_try - fu) <= 1e-14 * abs(fu) and gnorm_try < gnorm):
                break
            t *= 0.5
        u, fu, g, w, gnorm = u_try, f_try, g_try, w_try, gnorm_try
    return u.reshape(n, n)
