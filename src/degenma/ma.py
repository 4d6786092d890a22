"""Dirichlet solver for the regularized degenerate Monge-Ampere equation
det D2u = eta_eps(x1) on a rectangle.

Uses the 2D algebraic identity for convex functions,

    lap u = sqrt((u11 - u22)^2 + 4 u12^2 + 4 det D2u),

as a damped fixed point: each sweep solves a Poisson problem (the grushin
solver at eta = 1) with the right-hand side evaluated at the current iterate.
At the discrete fixed point the scheme enforces det_h u = f exactly, and
d11, d22 >= 0 up to the convergence slack, so discrete convexity comes for free.
"""

from __future__ import annotations

import numpy as np

from .analytic import RegularizerSpec, SectionSpec, eta_eps, phi_det_coefficient, phi_eval
from .grid import GridFunction, GridSpec, second_differences
from .grushin import SolveReport, _SeparableFactor, boundary_array, boundary_rhs, section_node_mask

__all__ = ["ma_solve_dirichlet", "ma_residual", "comparison_check"]


def ma_solve_dirichlet(
    spec: GridSpec,
    alpha: float,
    g,
    eps: float | None = None,
    tol: float = 1e-10,
    max_iterations: int = 3000,
) -> tuple[GridFunction, SolveReport]:
    """Solve det_h u = eta_eps(x1) with u = g on the boundary nodes.

    Warm start from lap P = 2 sqrt(f) (the Laplacian lower bound of convex
    solutions); eps defaults to 2 hx as in the degenerate-operator solver.

    Convergence requires both the applied sup-update <= tol and the identity
    residual sup |lap u - sqrt(...)| <= 10 tol, within ``max_iterations``
    sweeps. Damping starts at 1, halves whenever the fixed-point residual
    increases, and never drops below 0.125.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if eps is None:
        eps = 2.0 * spec.hx
    g_arr = boundary_array(spec, g)
    f = np.asarray(eta_eps(RegularizerSpec(alpha, eps), spec.x_nodes()[1:-1]), dtype=float)[:, None]
    f = np.broadcast_to(f, (spec.nx - 2, spec.ny - 2))

    ones = np.ones(spec.nx - 2)
    lap = _SeparableFactor(spec, ones)
    bx = boundary_rhs(spec, g_arr, ones)

    def poisson(rhs: np.ndarray) -> np.ndarray:
        # lap P = rhs with P = g on the boundary; the factored operator is -lap.
        return lap.solve(bx - rhs.ravel()).reshape(spec.nx - 2, spec.ny - 2)

    u = np.array(g_arr)
    u[1:-1, 1:-1] = poisson(2.0 * np.sqrt(f))

    damping = 1.0
    update_sup = np.inf
    fp_prev = np.inf
    streak = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        a11, a22, a12 = second_differences(spec, u)
        rhs = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2 + 4.0 * f)
        identity_residual = float(np.max(np.abs(a11 + a22 - rhs)))
        if update_sup <= tol and identity_residual <= 10.0 * tol:
            converged = True
            break
        p = poisson(rhs)
        delta = p - u[1:-1, 1:-1]
        fp_resid = float(np.max(np.abs(delta)))
        if fp_resid > fp_prev:
            damping = max(0.5 * damping, 0.125)
            streak = 0
        else:
            # recover from transient-induced halvings once the residual has
            # decreased monotonically for a sustained stretch
            streak += 1
            if streak >= 100 and damping < 1.0:
                damping = min(2.0 * damping, 1.0)
                streak = 0
        fp_prev = fp_resid
        u[1:-1, 1:-1] += damping * delta
        update_sup = damping * fp_resid

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
            "damping": float(damping),
        },
    )
    return GridFunction(spec, u), report


def ma_residual(u: GridFunction, alpha: float, eps: float) -> np.ndarray:
    """Interior field d11 d22 - d12^2 - eta_eps(x1); NaN on the boundary ring."""
    spec = u.spec
    a11, a22, a12 = second_differences(spec, u.values)
    f = np.asarray(eta_eps(RegularizerSpec(alpha, eps), spec.x_nodes()[1:-1]), dtype=float)[:, None]
    out = np.full((spec.nx, spec.ny), np.nan)
    out[1:-1, 1:-1] = a11 * a22 - a12**2 - f
    return out


def comparison_check(
    u: GridFunction,
    alpha: float,
    tau: float,
    ustar_boundary_max: float,
    tol: float = 1e-9,
) -> bool:
    """Two-sided comparison bound inside the origin-centered section of height tau:

        0 <= u <= sqrt(1/c(alpha)) (phi - tau) + ustar_boundary_max

    checked at every grid node strictly inside the section, within ``tol``.
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
    return bool(np.all(vals >= -tol) and np.all(vals <= upper + tol))
