"""Closed-form machinery for det D2u = |x1|^alpha in the plane.

Exact evaluation of the entire convex solution family and its partial-Legendre
dual, the model solution phi = |x1|^(2+alpha) + x2^2 with its sections, the
weighted measure |x1|^alpha dx, the smooth regularizer of |x1|^alpha, the
anisotropic scaling that preserves the degenerate operator, the two barrier
polynomials used for slope-range arguments, and the separable ODE solution
that fails strict convexity on the line x1 = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilyParams",
    "SectionSpec",
    "RegularizerSpec",
    "OdeTrajectory",
    "BarrierSpec",
    "family_eval",
    "dual_closed_form",
    "phi_eval",
    "phi_grad",
    "phi_det_coefficient",
    "eta_eps",
    "section_contains",
    "section_bbox",
    "section_sample_pairs",
    "ellipse_region",
    "ellipse_bbox",
    "mu_alpha_measure",
    "doubling_ratio",
    "scale_pullback",
    "grushin_fd",
    "ode_integrate",
    "ode_solution_eval",
    "barrier_L_residual",
    "barrier_root",
]


def _maybe_scalar(v: np.ndarray):
    return float(v) if np.ndim(v) == 0 else v


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be > -1 and finite")
    return alpha


# ---------------------------------------------------------------------------
# Solution family and its dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the explicit convex solutions of det D2u = |x1|^alpha:

        u = a/((alpha+2)(alpha+1)) |x1|^(2+alpha) + a b^2/2 x1^2
            + b x1 x2 + x2^2/(2a) + ell(x1, x2)

    with alpha > -1, a > 0, b free and ell(x1, x2) = c0 + c1 x1 + c2 x2.
    """

    alpha: float
    a: float
    b: float = 0.0
    ell: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("a must be > 0 and finite")
        if len(self.ell) != 3:
            raise ValueError("ell takes three coefficients (c0, c1, c2)")
        if not all(math.isfinite(c) for c in (self.b, *self.ell)):
            raise ValueError("b and ell must be finite")


def _affine(ell, x1, x2):
    c0, c1, c2 = ell
    return c0 + c1 * x1 + c2 * x2


def family_eval(params: FamilyParams, x1, x2):
    """Value of the family member at (x1, x2); broadcasts over arrays."""
    al, a, b = params.alpha, params.a, params.b
    val = (
        a / ((al + 2.0) * (al + 1.0)) * np.abs(x1) ** (2.0 + al)
        + 0.5 * a * b * b * x1 * x1
        + b * x1 * x2
        + x2 * x2 / (2.0 * a)
        + _affine(params.ell, x1, x2)
    )
    return _maybe_scalar(val)


def dual_closed_form(params: FamilyParams, p1, p2):
    """Partial-Legendre dual of the family:

        u* = -a/((alpha+1)(alpha+2)) |p1|^(2+alpha) + a/2 p2^2 + b p1 p2 + ell(p1, p2)

    It satisfies u*_11 + |p1|^alpha u*_22 = 0 away from p1 = 0.
    """
    al, a, b = params.alpha, params.a, params.b
    val = (
        -a / ((al + 1.0) * (al + 2.0)) * np.abs(p1) ** (2.0 + al)
        + 0.5 * a * p2 * p2
        + b * p1 * p2
        + _affine(params.ell, p1, p2)
    )
    return _maybe_scalar(val)


# ---------------------------------------------------------------------------
# Model solution phi, sections, weighted measure
# ---------------------------------------------------------------------------


def phi_eval(alpha: float, x1, x2):
    """phi(x1, x2) = |x1|^(2+alpha) + x2^2."""
    _check_alpha(alpha)
    return _maybe_scalar(np.abs(x1) ** (2.0 + alpha) + x2 * x2)


def phi_grad(alpha: float, x1, x2):
    """Gradient of phi; continuous across x1 = 0 for alpha > -1."""
    _check_alpha(alpha)
    g1 = (2.0 + alpha) * np.sign(x1) * np.abs(x1) ** (1.0 + alpha)
    return _maybe_scalar(g1), _maybe_scalar(2.0 * x2)


def phi_det_coefficient(alpha: float) -> float:
    """c(alpha) with det D2phi = c(alpha) |x1|^alpha."""
    _check_alpha(alpha)
    return 2.0 * (alpha + 2.0) * (alpha + 1.0)


@dataclass(frozen=True)
class SectionSpec:
    """Open sublevel set phi < (tangent plane of phi at center) + height.

    phi is C^1 for alpha > -1, so its support plane at any point is the
    tangent plane; membership uses strict inequality.
    """

    alpha: float
    center: tuple[float, float]
    height: float

    def __post_init__(self):
        alpha = _check_alpha(self.alpha)
        height = float(self.height)
        if not (height > 0 and math.isfinite(height)):
            raise ValueError("section height must be finite and > 0")
        if np.shape(self.center) != (2,):
            raise ValueError("center must be a 2D point")
        center = (float(self.center[0]), float(self.center[1]))
        if not all(math.isfinite(c) for c in center):
            raise ValueError("center must be finite")
        # Python floats: a spec is a hashable cache key whatever numbers came in
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "height", height)


def section_contains(spec: SectionSpec, y1, y2):
    """Strict membership test of (y1, y2); broadcasts over arrays."""
    cx, cy = spec.center
    al = spec.alpha
    g1, g2 = phi_grad(al, cx, cy)
    plane = phi_eval(al, cx, cy) + g1 * (y1 - cx) + g2 * (y2 - cy)
    inside = np.abs(y1) ** (2.0 + al) + y2 * y2 < plane + spec.height
    return bool(inside) if np.ndim(inside) == 0 else inside


def _bregman_x1(alpha: float, c1: float, s):
    """1D gap |s|^(2+alpha) - tangent of |.|^(2+alpha) at c1, evaluated at s."""
    b = 2.0 + alpha
    return np.abs(s) ** b - abs(c1) ** b - b * math.copysign(abs(c1) ** (b - 1.0), c1) * (s - c1)


def section_bbox(spec: SectionSpec) -> tuple[float, float, float, float]:
    """Tight axis-aligned bounding box of the section.

    The defining gap splits as (1D gap in y1) + (y2 - c2)^2, so the box is a
    product of intervals; the y1 interval is found by bisection. The box of a
    recent spec is kept, so a scan over one section bisects once.
    """
    return _section_bbox(spec)


# the cache sits behind the plain public function, which the benchmark trace
# (it wraps plain package functions) still sees
@functools.lru_cache(maxsize=32)
def _section_bbox(spec: SectionSpec) -> tuple[float, float, float, float]:
    cx, cy = spec.center
    t = spec.height

    def edge(direction: float) -> float:
        step = max(1.0, 2.0 * abs(cx), t ** (1.0 / (2.0 + spec.alpha)))
        hi = cx + direction * step
        while _bregman_x1(spec.alpha, cx, hi) <= t:
            hi += direction * step
        lo = cx
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _bregman_x1(spec.alpha, cx, mid) <= t:
                lo = mid
            else:
                hi = mid
        return hi

    return edge(-1.0), edge(+1.0), cy - math.sqrt(t), cy + math.sqrt(t)


def section_sample_pairs(spec: SectionSpec, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded rejection sample of point pairs strictly inside the section."""
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    x_lo, x_hi, y_lo, y_hi = section_bbox(spec)
    need = 2 * n_pairs
    pts = np.empty((0, 2))
    while len(pts) < need:
        cand = np.column_stack(
            [rng.uniform(x_lo, x_hi, size=4 * need), rng.uniform(y_lo, y_hi, size=4 * need)]
        )
        pts = np.vstack([pts, cand[section_contains(spec, cand[:, 0], cand[:, 1])]])
    return pts[:need].reshape(n_pairs, 2, 2)


def ellipse_region(center, semi_axes, rotation: float = 0.0):
    """Membership callable for a rotated ellipse (angle in radians)."""
    cx, cy = (float(c) for c in center)
    ax, ay = (float(s) for s in semi_axes)
    if ax <= 0 or ay <= 0:
        raise ValueError("semi-axes must be positive")
    ct, st = math.cos(rotation), math.sin(rotation)

    def region(X1, X2):
        u = ct * (X1 - cx) + st * (X2 - cy)
        v = -st * (X1 - cx) + ct * (X2 - cy)
        return (u / ax) ** 2 + (v / ay) ** 2 <= 1.0

    return region


def ellipse_bbox(center, semi_axes, rotation: float) -> tuple[float, float, float, float]:
    cx, cy = center
    ax, ay = semi_axes
    dx = math.hypot(ax * math.cos(rotation), ay * math.sin(rotation))
    dy = math.hypot(ax * math.sin(rotation), ay * math.cos(rotation))
    return cx - dx, cx + dx, cy - dy, cy + dy


def mu_alpha_measure(alpha: float, region, bbox, resolution: int = 1024) -> float:
    """Quadrature of the weighted area integral of |x1|^alpha over the region.

    Midpoint rule on a resolution^2 cell partition of the bounding box; cell
    columns straddling x1 = 0 integrate the weight exactly via its
    antiderivative |x1|^(alpha+1)/(alpha+1), keeping the integrable
    singularity (alpha > -1) out of the convergence picture.
    """
    _check_alpha(alpha)
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in bbox)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("degenerate bounding box")
    n = int(resolution)
    if n < 1:
        raise ValueError("resolution must be >= 1")
    hx = (x_hi - x_lo) / n
    hy = (y_hi - y_lo) / n
    xl = x_lo + np.arange(n) * hx
    xr = xl + hx
    xc = xl + 0.5 * hx
    yc = y_lo + (np.arange(n) + 0.5) * hy
    straddle = (xl < 0.0) & (xr > 0.0)
    col_w = np.where(
        straddle,
        (np.abs(xl) ** (alpha + 1.0) + np.abs(xr) ** (alpha + 1.0)) / (alpha + 1.0),
        np.abs(xc) ** alpha * hx,
    )
    try:
        mask = np.broadcast_to(np.asarray(region(xc[:, None], yc[None, :]), dtype=bool), (n, n))
    except ValueError as exc:
        raise ValueError("region predicate must broadcast over the cell centers") from exc
    return float(np.sum(col_w * mask.sum(axis=1)) * hy)


def doubling_ratio(
    alpha: float,
    domain,
    center,
    semi_axes,
    rotation: float = 0.0,
    resolution: int = 1024,
) -> float:
    """mu_alpha(center + E) / mu_alpha((center + 2E) n Omega) for an ellipse E
    and the rectangle Omega = ``domain`` (x_lo, x_hi, y_lo, y_hi). The
    denominator integrates over the box of 2E cut to Omega, so every cell it
    counts lies in Omega."""
    cx, cy = (float(c) for c in center)
    ax, ay = (float(s) for s in semi_axes)
    e1 = ellipse_region((cx, cy), (ax, ay), rotation)
    e2 = ellipse_region((cx, cy), (2 * ax, 2 * ay), rotation)
    num = mu_alpha_measure(alpha, e1, ellipse_bbox((cx, cy), (ax, ay), rotation), resolution)
    b2 = ellipse_bbox((cx, cy), (2 * ax, 2 * ay), rotation)
    ob = tuple(float(v) for v in domain)
    inter = (max(b2[0], ob[0]), min(b2[1], ob[1]), max(b2[2], ob[2]), min(b2[3], ob[3]))
    if not (inter[0] < inter[1] and inter[2] < inter[3]):
        raise ValueError("doubled ellipse does not meet the domain")
    den = mu_alpha_measure(alpha, e2, inter, resolution)
    if den <= 0:
        raise ValueError("doubled ellipse has vanishing weighted measure in the domain")
    return num / den


# ---------------------------------------------------------------------------
# Regularizer of |x1|^alpha
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularizerSpec:
    """Positive smooth replacement of |x1|^alpha, flat at level eps^alpha near
    the line: equals eps^alpha for |x1| <= eps and |x1|^alpha for |x1| >= 2 eps."""

    alpha: float
    eps: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be > 0 and finite")


def eta_eps(spec: RegularizerSpec, x1):
    """Piecewise regularizer value; monotone cubic bridge on eps < |x1| < 2 eps.

    The bridge is the Hermite interpolant in s = |x1| between (eps, eps^alpha)
    with slope 0 and (2 eps, (2 eps)^alpha) with slope alpha (2 eps)^(alpha-1),
    which makes eta C^1. For alpha above ~5.8 that end slope exceeds 3x the
    chord slope, where the cubic stops being monotone and turns negative, so
    it is limited to 3x the chord (Fritsch-Carlson, SIAM J. Numer. Anal. 17,
    1980): eta stays positive and monotone for every alpha > -1 but is only
    C^0 at |x1| = 2 eps there.
    """
    al, eps = spec.alpha, spec.eps
    s = np.abs(np.asarray(x1, dtype=float))
    inner = float(eps**al)
    outer_edge = float((2.0 * eps) ** al)
    t = np.clip((s - eps) / eps, 0.0, 1.0)
    h00 = 2.0 * t**3 - 3.0 * t**2 + 1.0
    h01 = -2.0 * t**3 + 3.0 * t**2
    h11 = t**3 - t**2
    # slopes in t-units: eps * d/ds of s^alpha at s = 2 eps, and the chord's
    chord = outer_edge - inner
    if abs(eps * al * (2.0 * eps) ** (al - 1.0)) <= 3.0 * abs(chord):
        end = h11 * eps * al * (2.0 * eps) ** (al - 1.0)
    else:
        end = h11 * (3.0 * chord)
    bridge = h00 * inner + h01 * outer_edge + end
    with np.errstate(divide="ignore"):
        outer = np.where(s > 0, s, 1.0) ** al  # guarded; only used where s >= 2 eps
    val = np.where(s <= eps, inner, np.where(s >= 2.0 * eps, outer, bridge))
    return _maybe_scalar(val)


# ---------------------------------------------------------------------------
# Anisotropic scaling and the degenerate operator
# ---------------------------------------------------------------------------


def scale_pullback(u, r: float, alpha: float):
    """Scaled field u_r(x1, x2) = u(r^(1/(2+alpha)) x1, r^(1/2) x2) / r.

    Preserves the kernel of d11 + |x1|^alpha d22. ``u`` is a broadcastable
    callable f(x1, x2).
    """
    _check_alpha(alpha)
    if not r > 0:
        raise ValueError("scaling parameter r must be > 0")
    lam1 = r ** (1.0 / (2.0 + alpha))
    lam2 = math.sqrt(r)

    def u_r(X1, X2):
        return np.asarray(u(lam1 * np.asarray(X1), lam2 * np.asarray(X2))) / r

    return u_r


def grushin_fd(v, alpha: float, x1, x2, h: float):
    """Centered-difference evaluation of v_11 + |x1|^alpha v_22 at (x1, x2)."""
    _check_alpha(alpha)
    if not h > 0:
        raise ValueError("stencil width h must be > 0")
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    dxx = (np.asarray(v(x1 + h, x2)) - 2.0 * np.asarray(v(x1, x2)) + np.asarray(v(x1 - h, x2))) / h**2
    dyy = (np.asarray(v(x1, x2 + h)) - 2.0 * np.asarray(v(x1, x2)) + np.asarray(v(x1, x2 - h))) / h**2
    return _maybe_scalar(dxx + np.abs(x1) ** alpha * dyy)


# ---------------------------------------------------------------------------
# The separable ODE example (alpha > 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeTrajectory:
    """Samples (t, w, w') of the profile ODE

        alpha(alpha+2)/4 * w w'' - (alpha+2)^2/4 * (w')^2 = 1,  w(0) = w'(0) = 1,

    integrated with the classical 4-stage Runge-Kutta method at fixed step."""

    alpha: float
    step: float
    t: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        if len(self.t) < 1 or not (self.w[0] == 1.0 and self.wp[0] == 1.0):
            raise ValueError("trajectory must start from w(0) = w'(0) = 1")


def _ode_accel(alpha: float, w, wp):
    # w'' solved from the ODE; requires alpha > 0 and w > 0.
    return (4.0 + (alpha + 2.0) ** 2 * wp * wp) / (alpha * (alpha + 2.0) * w)


def _rk4_step(alpha: float, w, wp, dt):
    """(w, w') after one classical 4-stage Runge-Kutta step of length dt."""
    k1w, k1p = wp, _ode_accel(alpha, w, wp)
    k2w = wp + 0.5 * dt * k1p
    k2p = _ode_accel(alpha, w + 0.5 * dt * k1w, k2w)
    k3w = wp + 0.5 * dt * k2p
    k3p = _ode_accel(alpha, w + 0.5 * dt * k2w, k3w)
    k4w = wp + dt * k3p
    k4p = _ode_accel(alpha, w + dt * k3w, k4w)
    return w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w), wp + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)


_ODE_T_MAX = 0.5
_ODE_STEP = 1e-3


def ode_integrate(alpha: float) -> OdeTrajectory:
    """Integrate the profile ODE on [0, _ODE_T_MAX] at step _ODE_STEP; stops
    early (flagged) at blow-up."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("the ODE coefficient alpha(alpha+2)/4 requires alpha > 0")
    step = _ODE_STEP
    n_steps = int(round(_ODE_T_MAX / step))
    ts = [0.0]
    ws = [1.0]
    wps = [1.0]
    w, wp = 1.0, 1.0
    truncated = False
    for k in range(n_steps):
        if _ode_accel(alpha, w, wp) * step > 1e3:  # blow-up guard
            truncated = True
            break
        w, wp = _rk4_step(alpha, w, wp, step)
        if w <= 0:
            truncated = True
            break
        ts.append((k + 1) * step)
        ws.append(w)
        wps.append(wp)
    return OdeTrajectory(alpha, step, np.array(ts), np.array(ws), np.array(wps), truncated)


def _ode_dense_w(traj: OdeTrajectory, t) -> np.ndarray:
    """w between samples via one partial RK4 step from the nearest sample below."""
    t = np.asarray(t, dtype=float)
    lo, hi = traj.t[0], traj.t[-1]
    if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
        raise ValueError("evaluation time outside the integrated window")
    idx = np.clip(np.searchsorted(traj.t, t, side="right") - 1, 0, len(traj.t) - 1)
    dt = t - traj.t[idx]
    return _rk4_step(traj.alpha, traj.w[idx], traj.wp[idx], dt)[0]


def ode_solution_eval(traj: OdeTrajectory, x1, x2):
    """u(x1, x2) = |x1|^((alpha+2)/2) * w(x2); vanishes identically on x1 = 0."""
    beta = (traj.alpha + 2.0) / 2.0
    w = _ode_dense_w(traj, x2)
    return _maybe_scalar(np.abs(x1) ** beta * w)


# ---------------------------------------------------------------------------
# Barriers for the slope-range argument
# ---------------------------------------------------------------------------

_BARRIER_RECTS = {
    "case1": ((1.0, 3.0), (0.0, 1.0)),  # alpha >= 0
    "case2": ((0.5, 1.0), (0.0, 1.0)),  # alpha in (-1, 0)
}


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier v = (harmonic part) - C p2 (p1 - l)(r - p1) - C/3 p2^3 + C/3 on a
    rectangle [l, r] x [0, 1); the polynomial part has the sign property
    L v_poly <= 0 there when alpha matches the variant's range."""

    variant: str
    C: float
    alpha: float

    def __post_init__(self):
        if self.variant not in _BARRIER_RECTS:
            raise ValueError("variant must be 'case1' or 'case2'")
        if not self.C > 0:
            raise ValueError("C must be > 0")
        if self.variant == "case1" and not self.alpha >= 0:
            raise ValueError("case1 requires alpha >= 0")
        if self.variant == "case2" and not (-1.0 < self.alpha < 0.0):
            raise ValueError("case2 requires alpha in (-1, 0)")

    @property
    def rectangle(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _BARRIER_RECTS[self.variant]


def barrier_L_residual(spec: BarrierSpec, p1, p2):
    """(d11 + |p1|^alpha d22) of the barrier's polynomial part: 2 C p2 (1 - |p1|^alpha).

    Nonpositive on the variant's rectangle since |p1|^alpha >= 1 there.
    """
    (x_lo, x_hi), (y_lo, y_hi) = spec.rectangle
    if np.any(p1 < x_lo) or np.any(p1 > x_hi) or np.any(p2 < y_lo) or np.any(p2 >= y_hi):
        raise ValueError("point outside the barrier rectangle")
    return _maybe_scalar(2.0 * spec.C * p2 * (1.0 - np.abs(p1) ** spec.alpha))


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0:
        raise ValueError("bisection bracket does not change sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def barrier_root(variant: str) -> float:
    """The unique root in (0, 1) of the variant's evaluation-height equation,
    found by bisection to 1e-12.

    case1: p + p^3/3 - 1/3 = 1/2;  case2: p/16 + p^3/3 - 1/3 = 1/32.
    Both left-hand sides are strictly increasing on (0, 1), so the root is unique.
    """
    if variant == "case1":
        return _bisect(lambda p: p + p**3 / 3.0 - 1.0 / 3.0 - 0.5, 0.0, 1.0)
    if variant == "case2":
        return _bisect(lambda p: p / 16.0 + p**3 / 3.0 - 1.0 / 3.0 - 1.0 / 32.0, 0.0, 1.0)
    raise ValueError("variant must be 'case1' or 'case2'")
