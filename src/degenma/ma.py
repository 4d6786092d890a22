"""Dirichlet solver for the regularized degenerate Monge-Ampere equation
det D2u = eta_eps(x1) on a rectangle.

Uses the 2D algebraic identity for convex functions,

    lap u = sqrt((u11 - u22)^2 + 4 u12^2 + 4 det D2u),

as a fixed point (Benamou-Froese-Oberman 2010): each sweep solves a Poisson
problem (the grushin solver at eta = 1) with the right-hand side evaluated at
the current iterate and takes the full step.
At the discrete fixed point the scheme enforces det_h u = f exactly, and
d11, d22 >= 0 up to the convergence slack, so discrete convexity comes for free.
"""

from __future__ import annotations

import numpy as np

from .analytic import RegularizerSpec, SectionSpec, eta_eps, phi_det_coefficient, phi_eval
from .grid import GridFunction, GridSpec, second_differences
from .grushin import SolveReport, _SeparableFactor, boundary_array, boundary_rhs, section_node_mask

__all__ = ["ma_solve_dirichlet", "comparison_check"]


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
    sweeps. Every sweep takes the full Poisson step.
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

    update_sup = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        a11, a22, a12 = second_differences(spec, u)
        rhs = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2 + 4.0 * f)
        identity_residual = float(np.max(np.abs(a11 + a22 - rhs)))
        if update_sup <= tol and identity_residual <= 10.0 * tol:
            converged = True
            break
        delta = poisson(rhs) - u[1:-1, 1:-1]
        u[1:-1, 1:-1] += delta
        update_sup = float(np.max(np.abs(delta)))

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
        },
    )
    return GridFunction(spec, u), report


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
