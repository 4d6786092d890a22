"""Uniform rectangular 2D grids, grid functions, finite-difference stencils,
norms and bilinear interpolation shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GridFunction",
    "sample",
    "first_difference_x2",
    "second_differences",
    "sup_norm",
    "holder_seminorm",
    "interp_bilinear",
    "write_csv",
]

@dataclass(frozen=True)
class GridSpec:
    """Node-centered uniform grid on [x_lo, x_hi] x [y_lo, y_hi].

    Both endpoints are nodes: node (i, j) sits at (x_lo + i*hx, y_lo + j*hy),
    so Dirichlet data lives on nodes.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError("grid ranges must be non-degenerate")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grids need at least 3 nodes per direction")

    @property
    def hx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_hi - self.y_lo) / (self.ny - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_lo, self.y_hi, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_nodes(), self.y_nodes(), indexing="ij")

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros((self.nx, self.ny), dtype=bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m


@dataclass(frozen=True)
class GridFunction:
    """Scalar field on a GridSpec; values indexed [i, j] = (x index, y index)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.spec.nx, self.spec.ny):
            raise ValueError(f"values shape {v.shape} != (nx, ny) = {(self.spec.nx, self.spec.ny)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def sample(spec: GridSpec, f) -> GridFunction:
    """Sample a callable f(x1, x2) (numpy-broadcastable) at the nodes."""
    X1, X2 = spec.meshgrid()
    return GridFunction(spec, np.broadcast_to(np.asarray(f(X1, X2), dtype=float), (spec.nx, spec.ny)))


def first_difference_x2(spec: GridSpec, v: np.ndarray) -> np.ndarray:
    """Centered first difference in x2 of node values ``v`` on the nodes with
    interior x2 index, shape (nx, ny - 2)."""
    return (v[:, 2:] - v[:, :-2]) / (2.0 * spec.hy)


def second_differences(spec: GridSpec, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered second differences (d11, d22, d12) of node values ``v`` on the
    interior nodes, each of shape (nx - 2, ny - 2); d12 is the 4-point cross."""
    d11 = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / spec.hx**2
    d22 = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / spec.hy**2
    d12 = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * spec.hx * spec.hy)
    return d11, d22, d12


def sup_norm(u: GridFunction, mask: np.ndarray) -> float:
    """Sup of |u| over the nodes of a boolean node mask."""
    if not np.any(mask):
        raise ValueError("empty mask")
    return float(np.max(np.abs(u.values[mask])))


def holder_seminorm(u: GridFunction, gamma: float, pairs: np.ndarray) -> float:
    """Max of |u(x) - u(y)| / |x - y|^gamma over sampled point pairs.

    ``pairs`` has shape (m, 2, 2): m pairs of 2D points inside the grid.
    Values between nodes come from bilinear interpolation.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 2) or pairs.shape[0] == 0:
        raise ValueError("pairs must have shape (m, 2, 2) with m >= 1")
    va = interp_bilinear(u, pairs[:, 0, 0], pairs[:, 0, 1])
    vb = interp_bilinear(u, pairs[:, 1, 0], pairs[:, 1, 1])
    dist = np.hypot(pairs[:, 0, 0] - pairs[:, 1, 0], pairs[:, 0, 1] - pairs[:, 1, 1])
    ok = dist > 0
    if not np.any(ok):
        raise ValueError("all sampled pairs are degenerate")
    return float(np.max(np.abs(va[ok] - vb[ok]) / dist[ok] ** gamma))


def _cell(t: np.ndarray, lo: float, h: float, nodes: np.ndarray):
    """Cell index k in [0, n - 2] and offset (t - t_k) / h of coordinates t.
    A coordinate equal to a node gets offset exactly 0 (1 at the last node),
    so interpolation at the nodes returns the node values unchanged."""
    s = (t - lo) / h
    k = np.clip(s.astype(int), 0, len(nodes) - 2)
    offset = (t - (lo + k * h)) / h
    nearest = np.clip(np.rint(s).astype(int), 0, len(nodes) - 1)
    on_node = t == nodes[nearest]
    k = np.where(on_node, np.minimum(nearest, len(nodes) - 2), k)
    return k, np.where(on_node, nearest - k, offset)


def interp_bilinear(u: GridFunction, x1, x2) -> np.ndarray | float:
    """Bilinear interpolation at (x1, x2), broadcasting over arrays; exact on
    the c0 + c1*x1 + c2*x2 + c3*x1*x2 class. Out-of-range points are an error."""
    spec = u.spec
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("interpolation point must be finite")
    # Tolerate roundoff-level overshoot at the outer boundary.
    tol_x = 1e-12 * (spec.x_hi - spec.x_lo)
    tol_y = 1e-12 * (spec.y_hi - spec.y_lo)
    if np.any(x1 < spec.x_lo - tol_x) or np.any(x1 > spec.x_hi + tol_x) or np.any(
        x2 < spec.y_lo - tol_y
    ) or np.any(x2 > spec.y_hi + tol_y):
        raise ValueError("interpolation point outside the grid")
    i, tx = _cell(x1, spec.x_lo, spec.hx, spec.x_nodes())
    j, ty = _cell(x2, spec.y_lo, spec.hy, spec.y_nodes())
    v = u.values
    out = (
        (1 - tx) * (1 - ty) * v[i, j]
        + tx * (1 - ty) * v[i + 1, j]
        + (1 - tx) * ty * v[i, j + 1]
        + tx * ty * v[i + 1, j + 1]
    )
    return float(out) if np.ndim(out) == 0 else out


def write_csv(u: GridFunction, path, header: tuple[str, str, str] = ("x1", "x2", "value")) -> None:
    """Serialize as CSV, one row per node, x1 varying fastest, 17 significant digits."""
    spec = u.spec
    xs = [f"{x:.17g}," for x in spec.x_nodes().tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for y, row in zip(spec.y_nodes().tolist(), u.values.T):
            y = f"{y:.17g},"
            fh.write("".join(f"{x}{y}{v:.17g}\n" for x, v in zip(xs, row.tolist())))

