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
from numpy.fft import rfft
from numpy.random import default_rng

from .analytic import RegularizerSpec, SectionSpec, eta_eps, section_bbox, section_contains, section_sample_pairs
from .grid import GridFunction, GridSpec, first_difference_x2, holder_seminorm, second_differences, sup_norm

__all__ = [
    "SolveReport",
    "HarnackReport",
    "solve_dirichlet",
    "solve_dirichlet_many",
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
    operator, (mx, my): the terms of the boundary neighbors of each interior node."""
    mx, my = spec.nx - 2, spec.ny - 2
    b = np.zeros((mx, my))
    b[0, :] += g_arr[0, 1:-1] / spec.hx**2
    b[-1, :] += g_arr[-1, 1:-1] / spec.hx**2
    b[:, 0] += eta_interior / spec.hy**2 * g_arr[1:-1, 0]
    b[:, -1] += eta_interior / spec.hy**2 * g_arr[1:-1, -1]
    return b


# doubles of one transform pass: the sine transform runs through an extension
# buffer of about this many values, a few x1 rows at a time. The fastest size
# measured; transforming a whole 20-seed block at once was 2x slower.
_PASS_VALUES = 1 << 14


class _SeparableFactor:
    """Factor of the negated five-point operator on interior nodes, row (i, j):
    (2/hx^2 + 2 eta_i/hy^2) u_ij - (x-neighbors)/hx^2 - eta_i (y-neighbors)/hy^2.
    An orthonormal DST-I in x2 splits it into one SPD tridiagonal system
    T_x + lambda_k diag(eta) per sine mode k, lambda_k = (2 - 2 cos(k pi/(ny - 1)))/hy^2
    (Buzbee-Golub-Nielson 1970), factored once as L D L^T with LAPACK dpttrf's
    arithmetic, one x1 row of all modes at a time.

    ``solve`` takes a block of k right-hand sides laid out (mx, k, my), in any
    shape with that memory order (one flat x-major vector is k = 1), and
    returns the solutions in a new array of the same shape. Each column of a
    block is solved bitwise as it would be alone."""

    def __init__(self, spec: GridSpec, eta_interior: np.ndarray):
        self.shape = mx, my = spec.nx - 2, spec.ny - 2
        lam = (2.0 - 2.0 * np.cos(np.arange(1, my + 1) * np.pi / (spec.ny - 1))) / spec.hy**2
        off = -1.0 / spec.hx**2
        d = 2.0 / spec.hx**2 + eta_interior[:, None] * lam
        e = np.empty((mx - 1, my))
        # dpttrf: e <- e/d, d+ <- d+ - e e_old. Rows after a pivot d <= 0 are
        # garbage, but the pivot itself stays in d for the check below.
        with np.errstate(all="ignore"):
            for i in range(mx - 1):
                np.divide(off, d[i], out=e[i])
                d[i + 1] -= e[i] * off
        if not np.all(d > 0):
            raise np.linalg.LinAlgError("operator is not positive definite")
        # rows shaped (1, my) like a k = 1 block's rows, which numpy handles fastest
        self.d = d[:, None, :]
        self.e = list(e[:, None, :])

    @staticmethod
    def _dst(src: np.ndarray, out: np.ndarray) -> None:
        """Orthonormal DST-I along the last axis of an (mx, k, my) block into
        ``out`` (which may be ``src``), its own inverse: the rfft of the odd
        extension [0, x, 0, -x reversed], read off as -Im, a pass of rows at a time."""
        mx, k, my = src.shape
        step = min(mx, max(1, _PASS_VALUES // (k * (my + 1))))
        ext = np.zeros((step, k, 2 * (my + 1)))
        for lo in range(0, mx, step):
            rows = src[lo : lo + step]
            part = ext[: len(rows)]
            part[..., 1 : my + 1] = rows
            np.negative(rows, out=part[..., : my + 1 : -1])
            np.negative(rfft(part, norm="ortho").imag[..., 1 : my + 1], out=out[lo : lo + step])

    def solve(self, b: np.ndarray) -> np.ndarray:
        mx, my = self.shape
        rhs = b.reshape(mx, -1, my)
        x = np.empty(rhs.shape)
        self._dst(rhs, x)
        rows, d, e = list(x), self.d, self.e
        tmp = np.empty(x.shape[1:])
        mul, sub = np.multiply, np.subtract
        # dpttrs: forward x_i -= e_{i-1} x_{i-1}, divide by d, back x_i -= e_i x_{i+1}
        for i in range(1, mx):
            mul(rows[i - 1], e[i - 1], tmp)
            sub(rows[i], tmp, rows[i])
        x /= d
        for i in range(mx - 2, -1, -1):
            mul(rows[i + 1], e[i], tmp)
            sub(rows[i], tmp, rows[i])
        self._dst(x, x)
        return x.reshape(b.shape)


def _eta_interior(spec: GridSpec, alpha: float, eps: float) -> np.ndarray:
    """eta_eps on the interior x1 nodes."""
    return eta_eps(RegularizerSpec(float(alpha), float(eps)), spec.x_nodes()[1:-1])


def solve_dirichlet(spec: GridSpec, alpha: float, g, eps: float | None = None) -> tuple[GridFunction, SolveReport]:
    """Solve the five-point scheme for u_11 + eta_eps(x1) u_22 = 0 with u = g
    on the boundary nodes. ``eps`` defaults to 2 hx, tying the regularization
    plateau to what the grid can resolve."""
    eps = 2.0 * spec.hx if eps is None else eps
    (u,) = solve_dirichlet_many(spec, alpha, [g], eps)
    v, g_bd = u.values, u.values[spec.boundary_mask()]
    d11, d22, _ = second_differences(spec, v)
    residual = float(np.max(np.abs(d11 + _eta_interior(spec, alpha, eps)[:, None] * d22)))
    converged = bool(residual <= DEFAULT_SOLVER_TOL)
    margin = float(min(np.max(g_bd) - np.max(v), np.min(v) - np.min(g_bd)))
    return u, SolveReport(1, residual, converged, margin, {"eps": float(eps), "alpha": float(alpha)})


# interior values of one block solve (8 MiB of doubles): the 20 seeds of the
# default scans are one block, and any number of seeds stays bounded
_BLOCK_VALUES = 1 << 20


def solve_dirichlet_many(spec: GridSpec, alpha: float, data, eps: float | None = None):
    """Yield :func:`solve_dirichlet`'s solution u (a GridFunction, no report)
    for each boundary callable in the sequence ``data``, in order. They are
    solved in blocks on one factor per call; each u is bitwise the single solve's."""
    eta_int = _eta_interior(spec, alpha, 2.0 * spec.hx if eps is None else eps)
    factor = _SeparableFactor(spec, eta_int)
    mx, my = factor.shape
    step = max(1, _BLOCK_VALUES // (mx * my))
    for start in range(0, len(data), step):
        g_arrs = [boundary_array(spec, g) for g in data[start : start + step]]
        b = np.empty((mx, len(g_arrs), my))
        for j, g_arr in enumerate(g_arrs):
            b[:, j] = boundary_rhs(spec, g_arr, eta_int)
        x = factor.solve(b)
        for j, u in enumerate(g_arrs):
            u[1:-1, 1:-1] = x[:, j]
            yield GridFunction(spec, u)


def section_node_mask(u: GridFunction, section: SectionSpec) -> np.ndarray:
    """Read-only boolean mask of grid nodes strictly inside the section; the
    section must fit inside the grid. Masks of recent (grid, section) pairs
    are kept, so a scan over seeds on one grid builds its mask once."""
    return _node_mask(u.spec, section)


def _section_fits(section: SectionSpec, rect) -> bool:
    """Whether the section's box lies in rect = (x_lo, x_hi, y_lo, y_hi), up to 1e-9."""
    (x_lo, x_hi, y_lo, y_hi), (r_x_lo, r_x_hi, r_y_lo, r_y_hi) = section_bbox(section), rect
    return min(x_lo - r_x_lo, r_x_hi - x_hi, y_lo - r_y_lo, r_y_hi - y_hi) >= -1e-9


# lru_cache keeps no exception: an out-of-grid section raises on every call
@functools.lru_cache(maxsize=8)
def _node_mask(s: GridSpec, section: SectionSpec) -> np.ndarray:
    if not _section_fits(section, (s.x_lo, s.x_hi, s.y_lo, s.y_hi)):
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
    if not _section_fits(inner, section_bbox(outer)):
        raise ValueError("inner section must sit inside the outer section")
    denom = sup_norm(u, section_node_mask(u, outer))
    if denom == 0.0:
        return 0.0
    pairs = section_sample_pairs(inner, n_pairs, default_rng(seed))
    return holder_seminorm(u, gamma, pairs) / denom


_EPS_LIST = (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)


def derivative_bound_scan(spec: GridSpec, alpha: float, g) -> list[tuple[float, float]]:
    """For each eps of _EPS_LIST, solve and report sup |D2 u| over the centered
    half-size sub-rectangle divided by sup |g| on the boundary. The column must
    stay bounded as eps decreases."""
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
    for eps in _EPS_LIST:
        (u,) = solve_dirichlet_many(spec, alpha, [g], eps)
        d2 = first_difference_x2(spec, u.values)
        ratio = 0.0 if sup_g == 0.0 else float(np.max(np.abs(d2[inner]))) / sup_g
        rows.append((eps, ratio))
    return rows
