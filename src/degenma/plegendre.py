"""Discrete partial Legendre transform.

The map (x1, x2) -> (x1, D2 u) sends a field strictly convex in x2 to a dual
field u*(p1, p2) = x2 D2u - u, column by column. Discretely: the x2-gradient
is sampled with centered differences (one-sided second order at the first and
last rows), the resulting strictly increasing slope sequence is inverted
piecewise-linearly, and the parametric samples (p2, x2 p2 - u) are resampled
onto a uniform p2 grid spanning the intersection of the column slope ranges,
so every dual node is interpolation, never extrapolation.

Resampled values integrate the piecewise-linear inverse map (the dual's p2
derivative), which keeps them consistent with the slope data: second
differences of the dual then converge instead of picking up O(1) breakpoint
noise, and columns quadratic in x2 transform exactly.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, GridSpec, first_difference_x2, interp_bilinear, second_differences

__all__ = [
    "forward_transform",
    "involution_check",
    "grushin_residual",
    "off_line_columns",
]


def _x2_gradient(u: GridFunction) -> np.ndarray:
    """Per-column x2-derivative samples: centered interior, one-sided second
    order at the bottom/top rows (keeps the monotone sequence full length)."""
    v = u.values
    hy = u.spec.hy
    p = np.empty_like(v)
    p[:, 1:-1] = first_difference_x2(u.spec, v)
    p[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * hy)
    p[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * hy)
    return p


def _column_resample(
    p_col: np.ndarray, w_col: np.ndarray, x2: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Resample the parametric dual samples (p, w) at target slopes.

    The inversion p -> x2 is piecewise linear; the value follows from
    integrating it (the dual's slope is the inverted coordinate):

        w(p) = w_j + (p - p_j) * (x2_j + x2(p)) / 2,

    exact whenever the column's slope sequence is affine in x2 (columns
    quadratic in x2). Targets must lie inside [p_col[0], p_col[-1]].
    """
    idx = np.clip(np.searchsorted(p_col, targets, side="right") - 1, 0, len(p_col) - 2)
    gap = p_col[idx + 1] - p_col[idx]
    theta = (targets - p_col[idx]) / gap
    x_star = x2[idx] + theta * (x2[idx + 1] - x2[idx])
    return w_col[idx] + (targets - p_col[idx]) * 0.5 * (x2[idx] + x_star)


_MONOTONE_TOL = 1e-12


def forward_transform(u: GridFunction) -> GridFunction:
    """Transform a field strictly convex in x2 into its dual u*(p1, p2) on
    as many uniform p2 nodes as the input has x2 nodes.

    The p1 nodes are the input's x1 nodes; the p2 range is the common slope
    interval [max over columns of min D2u, min over columns of max D2u].
    """
    spec = u.spec
    p = _x2_gradient(u)
    gaps = np.diff(p, axis=1)
    bad = np.min(gaps, axis=1) <= _MONOTONE_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"x2-slope sequence not strictly increasing in column {i} "
            f"(x1 = {spec.x_nodes()[i]:.6g}); input must be strictly convex in x2"
        )
    lo = float(np.max(p[:, 0]))
    hi = float(np.min(p[:, -1]))
    if not hi > lo:
        raise ValueError("empty dual range: the column slope intervals do not overlap")
    targets = np.linspace(lo, hi, spec.ny)
    y = spec.y_nodes()
    w = y[None, :] * p - u.values
    dual = np.empty((spec.nx, spec.ny))
    for i in range(spec.nx):
        dual[i] = _column_resample(p[i], w[i], y, targets)
    dual_spec = GridSpec(spec.x_lo, spec.x_hi, lo, hi, spec.nx, spec.ny)
    return GridFunction(dual_spec, dual)


def involution_check(u: GridFunction) -> float:
    """Sup of |(u*)* - u| over the common domain of the two resamplings.

    The dual of the dual is compared against bilinear interpolation of the
    input at the back-transformed nodes.
    """
    back = forward_transform(forward_transform(u))
    # Slope noise can push the recovered x2 range marginally past the original.
    ys = np.clip(back.spec.y_nodes(), u.spec.y_lo, u.spec.y_hi)
    return float(np.max(np.abs(back.values - interp_bilinear(u, back.spec.x_nodes()[:, None], ys[None, :]))))


_EXCLUDE_K = 2


def off_line_columns(spec: GridSpec) -> np.ndarray:
    """Mask of the interior p1 columns, skipping _EXCLUDE_K columns on each
    side of p1 = 0, where the dual is not C^2."""
    keep = np.abs(spec.x_nodes()[1:-1]) > _EXCLUDE_K * spec.hx * (1.0 + 1e-9)
    if not np.any(keep):
        raise ValueError("grid too small: no interior columns left after the line exclusion")
    return keep


def grushin_residual(ustar: GridFunction, alpha: float) -> float:
    """Sup of |d11 u* + |p1|^alpha d22 u*| over interior dual nodes off the
    line (see :func:`off_line_columns`)."""
    spec = ustar.spec
    keep = off_line_columns(spec)
    a11, a22, _ = second_differences(spec, ustar.values)
    p1 = spec.x_nodes()[1:-1]
    res = a11[keep, :] + (np.abs(p1[keep]) ** alpha)[:, None] * a22[keep, :]
    return float(np.max(np.abs(res)))
