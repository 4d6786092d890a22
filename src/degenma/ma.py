"""Dirichlet solver for the regularized degenerate Monge-Ampere equation
det D2u = eta_eps(x1) on a rectangle.

Uses the 2D algebraic identity for convex functions,

    lap u = sqrt((u11 - u22)^2 + 4 u12^2 + 4 det D2u),

as a fixed point (Benamou-Froese-Oberman 2010): W(v) solves a Poisson problem
(the grushin solver at eta = 1) with the right-hand side evaluated at v. The
sweeps are type-II Anderson acceleration of W with depth ANDERSON_DEPTH
(Walker-Ni 2011): the least-squares fit is on the identity residual
e = lap_h v - sqrt(...), which is -lap_h (W(v) - v), through an m x m Gram
matrix that gains one row and column per sweep, and the step is
v <- W - dW gamma. The history is cleared, so the next step is the plain
Poisson step, whenever sup |e| rises or min(d11, d22) falls while below
-10 tol.
At the discrete fixed point the scheme enforces det_h u = f exactly, and
d11, d22 >= 0 up to the convergence slack, so discrete convexity comes for free.
"""

from __future__ import annotations

import numpy as np

from .analytic import RegularizerSpec, SectionSpec, eta_eps, phi_det_coefficient, phi_eval
from .grid import GridFunction, GridSpec, second_differences
from .grushin import SolveReport, _SeparableFactor, boundary_array, boundary_rhs, section_node_mask

__all__ = ["ma_solve_dirichlet", "comparison_check"]

# differences kept in the Anderson history
ANDERSON_DEPTH = 5
# the contraction estimate compares updates this many sweeps apart, and is capped
_RHO_SPAN = 5
_RHO_CAP = 0.999


def ma_solve_dirichlet(
    spec: GridSpec,
    alpha: float,
    g,
    tol: float = 1e-10,
    max_iterations: int = 3000,
) -> tuple[GridFunction, SolveReport]:
    """Solve det_h u = eta_eps(x1) with u = g on the boundary nodes, eps = 2 hx
    as in the degenerate-operator solver.

    Warm start from lap P = 2 sqrt(f) (the Laplacian lower bound of convex
    solutions). Convergence, within ``max_iterations`` sweeps, requires the
    applied sup-update <= tol, the identity residual sup |lap u - sqrt(...)|
    <= 10 tol, and update <= (1 - rho) tol, where the contraction estimate
    rho = (update_k / update_{k-5})^(1/5) is capped at 0.999 (and is 0.999
    while there is no update five sweeps back). ``extras`` reports the last
    rho and the number of history restarts.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    eps = 2.0 * spec.hx
    g_arr = boundary_array(spec, g)
    # a column: f depends on x1 only
    f = np.asarray(eta_eps(RegularizerSpec(alpha, eps), spec.x_nodes()[1:-1]), dtype=float)[:, None]

    ones = np.ones(spec.nx - 2)
    lap = _SeparableFactor(spec, ones)
    bx = boundary_rhs(spec, g_arr, ones)

    def poisson(rhs: np.ndarray) -> np.ndarray:
        # lap P = rhs with P = g on the boundary; the factored operator is -lap.
        return lap.solve(bx - rhs).ravel()

    u = np.array(g_arr)
    v = u[1:-1, 1:-1]
    v[...] = poisson(np.broadcast_to(2.0 * np.sqrt(f), v.shape)).reshape(v.shape)

    # ring buffers of the differences of e and W; rows [:used] are the history
    m = ANDERSON_DEPTH
    d_e = np.empty((m, v.size))
    d_w = np.empty((m, v.size))
    gram = np.empty((m, m))
    added = used = restarts = 0
    e_prev = w_prev = None
    last_identity, last_min_d = np.inf, -np.inf
    updates = []
    rho = _RHO_CAP
    update_sup = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        a11, a22, a12 = second_differences(spec, u)
        min_d = min(float(np.min(a11)), float(np.min(a22)))
        # rhs = sqrt((a11 - a22)^2 + 4 a12^2 + 4 f) and e = a11 + a22 - rhs, in place
        rhs = np.subtract(a11, a22)
        np.square(rhs, out=rhs)
        np.square(a12, out=a12)
        a12 *= 4.0
        rhs += a12
        rhs += 4.0 * f
        np.sqrt(rhs, out=rhs)
        e = a11
        e += a22
        e -= rhs
        e = e.ravel()
        identity_residual = float(np.max(np.abs(e)))
        if len(updates) > _RHO_SPAN and updates[-1 - _RHO_SPAN] > 0.0:
            rho = min((updates[-1] / updates[-1 - _RHO_SPAN]) ** (1.0 / _RHO_SPAN), _RHO_CAP)
        if update_sup <= tol and identity_residual <= 10.0 * tol and update_sup <= (1.0 - rho) * tol:
            converged = True
            break
        w = poisson(rhs)
        if identity_residual > last_identity or (min_d < -10.0 * tol and min_d < last_min_d):
            added = used = 0
            restarts += 1
        elif e_prev is not None:
            s = added % m
            np.subtract(e, e_prev, out=d_e[s])
            np.subtract(w, w_prev, out=d_w[s])
            added += 1
            used = min(added, m)
            gram[s, :used] = gram[:used, s] = np.einsum("ij,j->i", d_e[:used], d_e[s])
        last_identity, last_min_d = identity_residual, min_d
        e_prev, w_prev = e, w
        delta = w.reshape(v.shape) - v
        if used:
            # einsum, not BLAS: the sums must not depend on the BLAS thread count
            gamma = np.linalg.lstsq(gram[:used, :used], np.einsum("ij,j->i", d_e[:used], e), rcond=None)[0]
            delta -= np.einsum("i,ij->j", gamma, d_w[:used]).reshape(v.shape)
        v += delta
        update_sup = float(np.max(np.abs(delta)))
        updates.append(update_sup)

    a11, a22, a12 = second_differences(spec, u)
    rhs = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2 + 4.0 * f)
    det = a11 * a22 - a12**2
    bd = spec.boundary_mask()
    report = SolveReport(
        iterations=iterations,
        final_residual=float(update_sup if np.isfinite(update_sup) else np.inf),
        converged=converged,
        # convex solutions only bound the max by the boundary data
        max_principle_margin=float(np.max(g_arr[bd]) - np.max(u)),
        extras={
            "eps": float(eps),
            "alpha": float(alpha),
            "identity_residual": float(np.max(np.abs(a11 + a22 - rhs))),
            "det_residual": float(np.max(np.abs(det - f))),
            "min_d11": float(np.min(a11)),
            "min_d22": float(np.min(a22)),
            "min_det": float(np.min(det)),
            "rho": float(rho),
            "restarts": restarts,
        },
    )
    return GridFunction(spec, u), report


_COMPARISON_TOL = 1e-9


def comparison_check(u: GridFunction, alpha: float, tau: float, ustar_boundary_max: float) -> bool:
    """Two-sided comparison bound inside the origin-centered section of height tau:

        0 <= u <= sqrt(1/c(alpha)) (phi - tau) + ustar_boundary_max

    checked at every grid node strictly inside the section, within _COMPARISON_TOL.
    """
    if not tau > 0:
        raise ValueError("tau must be > 0")
    section = SectionSpec(alpha, (0.0, 0.0), tau)
    mask = section_node_mask(u, section)  # raises if the section leaves the grid
    if not np.any(mask):
        raise ValueError("no grid nodes inside the comparison section")
    X1, X2 = u.spec.meshgrid()
    phi = phi_eval(alpha, X1[mask], X2[mask])
    upper = np.sqrt(1.0 / phi_det_coefficient(alpha)) * (phi - tau) + ustar_boundary_max
    vals = u.values[mask]
    return bool(np.all(vals >= -_COMPARISON_TOL) and np.all(vals <= upper + _COMPARISON_TOL))
