"""Dirichlet solver for the regularized degenerate operator
u_11 + eta_eps(x1) u_22 = 0 on a rectangle, with maximum-principle,
Harnack-quotient, Holder-ratio and interior-derivative diagnostics.

The five-point scheme produces an irreducibly diagonally dominant M-matrix,
so the discrete maximum principle holds up to the linear-solver tolerance;
the system is solved by a sine transform in x2 and tridiagonal solves in x1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, idst
from scipy.linalg.lapack import dpttrf, dpttrs

from .analytic import RegularizerSpec, SectionSpec, eta_eps, section_bbox, section_contains, section_sample_pairs
from .grid import GridFunction, GridSpec, first_difference_x2, holder_seminorm, second_differences, sup_norm

__all__ = [
    "SolveReport",
    "HarnackReport",
    "solve_dirichlet",
    "harnack_quotient",
    "holder_estimate",
    "derivative_bound_scan",
    "boundary_array",
    "boundary_rhs",
    "section_node_mask",
]

# a solve reports converged when its stencil residual is at most this
DEFAULT_SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one Dirichlet solve.

    ``max_principle_margin`` is min(max g - max u, min u - min g) for the
    degenerate-elliptic solves (two-sided bound by the boundary data); the
    Monge-Ampere solver stores its one-sided analogue there.
    """

    iterations: int
    final_residual: float
    converged: bool
    max_principle_margin: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HarnackReport:
    section: SectionSpec
    sup: float
    inf: float
    quotient: float


def boundary_array(spec: GridSpec, g) -> np.ndarray:
    """Boundary data g(x1, x2), a broadcastable callable, sampled at the
    boundary nodes only, in a full (nx, ny) array whose interior entries are 0."""
    if not callable(g):
        raise TypeError("boundary data must be a callable g(x1, x2)")
    X1, X2 = spec.meshgrid()
    bd = spec.boundary_mask()
    x1, x2 = X1[bd], X2[bd]
    ring = np.broadcast_to(np.asarray(g(x1, x2), dtype=float), x1.shape)
    if not np.all(np.isfinite(ring)):
        raise ValueError("boundary data must be finite on all boundary nodes")
    arr = np.zeros((spec.nx, spec.ny))
    arr[bd] = ring
    return arr


def boundary_rhs(spec: GridSpec, g_arr: np.ndarray, eta_interior: np.ndarray) -> np.ndarray:
    """Dirichlet data moved to the right-hand side of :class:`_SeparableFactor`'s
    operator: the terms of the boundary neighbors of each interior node."""
    mx, my = spec.nx - 2, spec.ny - 2
    b = np.zeros((mx, my))
    b[0, :] += g_arr[0, 1:-1] / spec.hx**2
    b[-1, :] += g_arr[-1, 1:-1] / spec.hx**2
    b[:, 0] += eta_interior / spec.hy**2 * g_arr[1:-1, 0]
    b[:, -1] += eta_interior / spec.hy**2 * g_arr[1:-1, -1]
    return b.ravel()


class _SeparableFactor:
    """Factor of the negated five-point operator on interior nodes, row (i, j):
    (2/hx^2 + 2 eta_i/hy^2) u_ij - (x-neighbors)/hx^2 - eta_i (y-neighbors)/hy^2.
    An orthonormal DST-I in x2 splits it into one SPD tridiagonal system
    T_x + lambda_k diag(eta) per sine mode k, lambda_k = (2 - 2 cos(k pi/(ny - 1)))/hy^2
    (Buzbee-Golub-Nielson 1970), stacked k-major and factored once as L D L^T.
    ``solve`` maps a flat right-hand side to the flat solution, x-index major."""

    def __init__(self, spec: GridSpec, eta_interior: np.ndarray):
        self.shape = mx, my = spec.nx - 2, spec.ny - 2
        lam = (2.0 - 2.0 * np.cos(np.arange(1, my + 1) * np.pi / (spec.ny - 1))) / spec.hy**2
        off = np.full((my, mx), -1.0 / spec.hx**2)
        off[:, -1] = 0.0  # modes are uncoupled; the wrapper takes max(n - 1, 1) entries
        diag = 2.0 / spec.hx**2 + lam[:, None] * eta_interior
        self.d, self.e, info = dpttrf(diag.ravel(), off.ravel()[: max(mx * my - 1, 1)])
        if info:
            raise np.linalg.LinAlgError(f"operator is not positive definite (dpttrf info {info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        mx, my = self.shape
        # dpttrs reports only illegal arguments, which a factor from __init__ rules out
        x, _ = dpttrs(self.d, self.e, dst(b.reshape(mx, my), type=1, axis=1, norm="ortho").T.ravel())
        return idst(x.reshape(my, mx).T, type=1, axis=1, norm="ortho").ravel()


@functools.lru_cache(maxsize=1)
def _factor(spec: GridSpec, alpha: float, eps: float):
    """eta_eps on the interior x1 nodes and the separable factor of the
    operator for them. One entry is kept: repeated solves on one operator
    (a scan over seeds on one grid) factor it once."""
    eta_int = np.asarray(eta_eps(RegularizerSpec(alpha, eps), spec.x_nodes()[1:-1]), dtype=float)
    eta_int.setflags(write=False)
    return eta_int, _SeparableFactor(spec, eta_int)


def solve_dirichlet(spec: GridSpec, alpha: float, g, eps: float | None = None) -> tuple[GridFunction, SolveReport]:
    """Solve the five-point scheme for u_11 + eta_eps(x1) u_22 = 0 with u = g
    on the boundary nodes. ``eps`` defaults to 2 hx, tying the regularization
    plateau to what the grid can resolve. The factor of the operator is cached
    for the last (spec, alpha, eps)."""
    if eps is None:
        eps = 2.0 * spec.hx
    g_arr = boundary_array(spec, g)
    eta_int, factor = _factor(spec, float(alpha), float(eps))
    b = boundary_rhs(spec, g_arr, eta_int)
    u = np.array(g_arr)
    u[1:-1, 1:-1] = factor.solve(b).reshape(spec.nx - 2, spec.ny - 2)
    d11, d22, _ = second_differences(spec, u)
    residual = float(np.max(np.abs(d11 + eta_int[:, None] * d22)))
    bd = spec.boundary_mask()
    margin = float(min(np.max(g_arr[bd]) - np.max(u), np.min(u) - np.min(g_arr[bd])))
    report = SolveReport(
        iterations=1,
        final_residual=residual,
        converged=bool(residual <= DEFAULT_SOLVER_TOL),
        max_principle_margin=margin,
        extras={"eps": float(eps), "alpha": float(alpha)},
    )
    return GridFunction(spec, u), report


def section_node_mask(u: GridFunction, section: SectionSpec) -> np.ndarray:
    """Read-only boolean mask of grid nodes strictly inside the section; the
    section must fit inside the grid. Masks of recent (grid, section) pairs
    are kept, so a scan over seeds on one grid builds its mask once."""
    return _node_mask(u.spec, section)


# lru_cache keeps no exception: an out-of-grid section raises on every call
@functools.lru_cache(maxsize=8)
def _node_mask(s: GridSpec, section: SectionSpec) -> np.ndarray:
    x_lo, x_hi, y_lo, y_hi = section_bbox(section)
    slack = 1e-9
    if (
        x_lo < s.x_lo - slack
        or x_hi > s.x_hi + slack
        or y_lo < s.y_lo - slack
        or y_hi > s.y_hi + slack
    ):
        raise ValueError("section is not contained in the grid")
    X1, X2 = s.meshgrid()
    mask = section_contains(section, X1, X2)
    mask.setflags(write=False)
    return mask


def harnack_quotient(u: GridFunction, section: SectionSpec) -> HarnackReport:
    """sup/inf of u over the nodes strictly inside the section (u must be > 0 there)."""
    mask = section_node_mask(u, section)
    if not np.any(mask):
        raise ValueError("no grid nodes inside the section")
    vals = u.values[mask]
    lo = float(np.min(vals))
    if lo <= 0:
        raise ValueError("quotient needs u > 0 on the section")
    hi = float(np.max(vals))
    return HarnackReport(section=section, sup=hi, inf=lo, quotient=hi / lo)


def holder_estimate(
    u: GridFunction,
    gamma: float,
    inner: SectionSpec,
    outer: SectionSpec,
    n_pairs: int = 2000,
    seed: int = 0,
) -> float:
    """Empirical ratio (Holder seminorm over the inner section) / (sup over the
    outer section); returns 0 for u identically zero on the outer section."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    ib, ob = section_bbox(inner), section_bbox(outer)
    if not (ib[0] >= ob[0] and ib[1] <= ob[1] and ib[2] >= ob[2] and ib[3] <= ob[3]):
        raise ValueError("inner section must sit inside the outer section")
    denom = sup_norm(u, section_node_mask(u, outer))
    if denom == 0.0:
        return 0.0
    pairs = section_sample_pairs(inner, n_pairs, np.random.default_rng(seed))
    return holder_seminorm(u, gamma, pairs) / denom


def derivative_bound_scan(spec: GridSpec, alpha: float, g, eps_list) -> list[tuple[float, float]]:
    """For each eps, solve and report sup |D2 u| over the centered half-size
    sub-rectangle divided by sup |g| on the boundary. The column must stay
    bounded as eps decreases."""
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    g_arr = boundary_array(spec, g)
    sup_g = float(np.max(np.abs(g_arr[spec.boundary_mask()])))
    xc = 0.5 * (spec.x_lo + spec.x_hi)
    yc = 0.5 * (spec.y_lo + spec.y_hi)
    qx = 0.25 * (spec.x_hi - spec.x_lo)
    qy = 0.25 * (spec.y_hi - spec.y_lo)
    X1, X2 = spec.meshgrid()
    # centered D2 lives on the y-interior nodes
    inner = ((np.abs(X1 - xc) <= qx) & (np.abs(X2 - yc) <= qy))[:, 1:-1]
    rows = []
    for eps in eps_list:
        u, _ = solve_dirichlet(spec, alpha, g, eps=eps)
        d2 = first_difference_x2(spec, u.values)
        ratio = 0.0 if sup_g == 0.0 else float(np.max(np.abs(d2[inner]))) / sup_g
        rows.append((eps, ratio))
    return rows
