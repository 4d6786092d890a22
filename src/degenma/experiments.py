"""Named, reproducible experiments wiring the solvers and diagnostics together.

Each experiment consumes a flat key = value config (CLI flags override), runs
deterministically under its seed, and emits metrics.csv plus summary.json;
every verdict is recomputable from the metrics rows alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
import types
import typing
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import analytic as an
from . import grid as gr
from . import grushin as gs
from . import ma as mam
from . import plegendre as pl

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "EXPERIMENTS",
    "load_config_file",
    "make_config",
    "run",
    "write_metrics_csv",
    "fit_family_from_dual",
    "random_positive_boundary",
]


# height of the origin-centred section of phi that each of these experiments
# masks on its grid (holder-scan's outer one); the config checks that it fits
_SECTION_HEIGHT = {"harnack-scan": 1.0, "holder-scan": 2.0, "strictconvexity-demo": 0.05}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: float = 2.0
    grid_sizes: tuple[int, ...] = (65, 129)
    domain: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)
    family_a: float = 1.0
    family_b: float = 0.0
    seed: int = 0
    n_seeds: int = 20
    gamma: float = 0.5
    resolution: int = 2048
    center: tuple[float, float] | None = None
    fp_tolerance: float = 1e-10
    max_iterations: int = 3000
    n_pairs: int = 800
    out_dir: str | None = None
    save_fields: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if len(self.grid_sizes) < 1 or self.grid_sizes[0] < 3 or any(
            b <= a for a, b in zip(self.grid_sizes, self.grid_sizes[1:])
        ):
            raise ValueError("grid_sizes must be >= 3 and strictly increasing")
        for ok, message in (
            (self.n_seeds >= 1, "n_seeds must be >= 1"),
            (0.0 < self.gamma < 1.0, "gamma must lie in (0, 1)"),
            # doubling-check integrates at resolution // 4
            (self.resolution >= 4, "resolution must be >= 4"),
            (self.n_pairs >= 1, "n_pairs must be >= 1"),
            (self.max_iterations >= 1, "max_iterations must be >= 1"),
            (0 < self.fp_tolerance < math.inf, "fp_tolerance must be finite and > 0"),
            (0 < self.family_a < math.inf, "family_a must be finite and > 0"),
            (math.isfinite(self.family_b), "family_b must be finite"),
            (self.seed >= 0, "seed must be >= 0"),
            (
                len(self.domain) == 4
                and all(math.isfinite(v) for v in self.domain)
                and self.domain[0] < self.domain[1]
                and self.domain[2] < self.domain[3],
                "domain must be x_lo, x_hi, y_lo, y_hi with x_lo < x_hi and y_lo < y_hi",
            ),
            (-1.0 < self.alpha < math.inf, "alpha must be > -1 and finite"),
            # its ODE example (coefficient alpha (alpha + 2)/4) needs alpha > 0
            (self.experiment != "strictconvexity-demo" or self.alpha > 0, "strictconvexity-demo needs alpha > 0"),
            (
                self.center is None
                or len(self.center) == 2
                and all(lo <= c <= hi for c, lo, hi in zip(self.center, self.domain[::2], self.domain[1::2])),
                f"center {self.center} must be two values inside domain {self.domain}",
            ),
        ):
            if not ok:
                raise ValueError(message)
        for nx in self.grid_sizes:
            self.grid(nx)
        if self.experiment in _SECTION_HEIGHT:
            section = an.SectionSpec(self.alpha, (0.0, 0.0), _SECTION_HEIGHT[self.experiment])
            if not gs._section_fits(section, self.domain):
                box = ", ".join(f"{v:.6g}" for v in an.section_bbox(section))
                raise ValueError(
                    f"the section of height {section.height:g} spans ({box}), outside domain {self.domain};"
                    " holder-scan's outer section fits its default domain for alpha >= 1.1063"
                )

    def grid(self, nx: int) -> gr.GridSpec:
        x_lo, x_hi, y_lo, y_hi = self.domain
        h = (x_hi - x_lo) / (nx - 1)
        ny_f = (y_hi - y_lo) / h
        ny = int(round(ny_f)) + 1
        if abs(ny_f - round(ny_f)) > 1e-9:
            raise ValueError("domain aspect ratio must be commensurate with the grid size")
        return gr.GridSpec(x_lo, x_hi, y_lo, y_hi, nx, ny)

    def family(self) -> an.FamilyParams:
        return an.FamilyParams(self.alpha, self.family_a, self.family_b)


@dataclass(frozen=True)
class RunSummary:
    experiment: str
    rows: list
    verdicts: dict
    wall_clock_seconds: float
    config_echo: dict

    def all_pass(self) -> bool:
        return all(self.verdicts.values())


_BOUNDARY_FLOOR = 0.5
_BOUNDARY_MODES = 3


def _boundary_trig(domain, X1, X2):
    """The seed-independent factors of the boundary polynomial at (X1, X2):
    per mode m the tuple (cos m sx, sin m sy, cos m(sx + sy), sin m sx), and
    cos(sy / 2), where (sx, sy) are the points' angles on the domain."""
    x_lo, x_hi, y_lo, y_hi = domain
    sx = 2.0 * np.pi * (np.asarray(X1) - x_lo) / (x_hi - x_lo)
    sy = 2.0 * np.pi * (np.asarray(X2) - y_lo) / (y_hi - y_lo)
    modes = tuple(
        (np.cos(m * sx), np.sin(m * sy), np.cos(m * (sx + sy)), np.sin(m * sx))
        for m in range(1, _BOUNDARY_MODES + 1)
    )
    return modes, np.cos(0.5 * sy)


def _boundary_polynomial(coef: np.ndarray, trig):
    """sum over m of (c1 cos m sx + c2 sin m sy + c3 cos m(sx + sy)
    + c4 sin m sx cos(sy / 2)) / m^2 from the factors of _boundary_trig."""
    modes, half = trig
    total = np.zeros(np.shape(modes[0][2]))  # cos m(sx + sy) has the points' shape
    for m, ((cos_x, sin_y, cos_xy, sin_x), (c1, c2, c3, c4)) in enumerate(zip(modes, coef), start=1):
        total = total + (c1 * cos_x + c2 * sin_y + c3 * cos_xy + c4 * sin_x * half) / (m * m)
    return total


@functools.lru_cache(maxsize=1)
def _ring_trig(domain: tuple[float, float, float, float]):
    """_boundary_trig at the 4 x 4097 edge points where random_positive_boundary
    takes its minimum, read-only: every seed on one domain reuses them."""
    x_lo, x_hi, y_lo, y_hi = domain
    lx, ly = x_hi - x_lo, y_hi - y_lo
    t = np.linspace(0.0, 1.0, 4097)
    bx = np.concatenate([x_lo + t * lx, x_lo + t * lx, np.full_like(t, x_lo), np.full_like(t, x_hi)])
    by = np.concatenate([np.full_like(t, y_lo), np.full_like(t, y_hi), y_lo + t * ly, y_lo + t * ly])
    modes, half = _boundary_trig(domain, bx, by)
    for factor in (half, *(f for mode in modes for f in mode)):
        factor.setflags(write=False)
    return modes, half


def random_positive_boundary(rng: np.random.Generator, domain):
    """Seeded trigonometric polynomial of _BOUNDARY_MODES modes, offset so its
    boundary minimum is _BOUNDARY_FLOOR (positive data for Harnack-type
    diagnostics)."""
    domain = tuple(float(v) for v in domain)
    coef = rng.uniform(-1.0, 1.0, size=(_BOUNDARY_MODES, 4))
    offset = float(np.min(_boundary_polynomial(coef, _ring_trig(domain))))

    def g(X1, X2):
        return _boundary_polynomial(coef, _boundary_trig(domain, X1, X2)) - offset + _BOUNDARY_FLOOR

    return g


def fit_family_from_dual(dual: gr.GridFunction) -> tuple[float, float, float]:
    """Estimate family parameters (a, b) from a dual sample.

    a_hat is the mean of d22 u* over the interior away from the line (the dual
    of any family member has constant p2-curvature a); the dual's mixed
    derivative is -a*b, so b_hat = -mean(d12 u* on p1 > 0) / a_hat. Also
    returns the standard deviation of d22 u* (constancy diagnostic).
    """
    spec = dual.spec
    keep = pl.off_line_columns(spec)
    _, a22, a12 = gr.second_differences(spec, dual.values)
    p1 = spec.x_nodes()[1:-1]
    if not np.any(p1 > 0):
        raise ValueError("dual grid has no p1 > 0 columns for the parameter fit")
    a_hat = float(np.mean(a22[keep, :]))
    stdev = float(np.std(a22[keep, :]))
    b_hat = float(-np.mean(a12[p1 > 0, :]) / a_hat)
    return a_hat, b_hat, stdev


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _maybe_save(cfg: ExperimentConfig, name: str, u: gr.GridFunction, **csv_options) -> None:
    if cfg.save_fields and cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        gr.write_csv(u, os.path.join(cfg.out_dir, name), **csv_options)


def _run_convergence_grushin(cfg: ExperimentConfig):
    g = functools.partial(an.dual_closed_form, cfg.family())
    rows = []
    for nx in cfg.grid_sizes:
        spec = cfg.grid(nx)
        u, rep = gs.solve_dirichlet(spec, cfg.alpha, g)
        err = float(np.max(np.abs(u.values - gr.sample(spec, g).values)))
        rows.append(
            {
                "nx": nx,
                "h": spec.hx,
                "sup_error": err,
                "mp_margin": rep.max_principle_margin,
                "residual": rep.final_residual,
            }
        )
        _maybe_save(cfg, f"grushin_u_{nx}.csv", u)
    errs = [r["sup_error"] for r in rows]
    verdicts = {"max_principle": all(r["mp_margin"] >= -1e-9 for r in rows)}
    if cfg.alpha == 0.0:
        verdicts["exact_at_tolerance"] = max(errs) <= 1e-9
    if len(errs) >= 2:
        # roundoff-floor errors (stencil-exact data) cannot decrease monotonically
        verdicts["errors_strictly_decreasing"] = _strictly_decreasing(errs) or max(errs) <= 1e-9
    return rows, verdicts


def _run_convergence_ma(cfg: ExperimentConfig):
    g = functools.partial(an.family_eval, cfg.family())
    rows = []
    delta = 10.0 * cfg.fp_tolerance
    for nx in cfg.grid_sizes:
        spec = cfg.grid(nx)
        u, rep = mam.ma_solve_dirichlet(spec, cfg.alpha, g, tol=cfg.fp_tolerance, max_iterations=cfg.max_iterations)
        err = float(np.max(np.abs(u.values - gr.sample(spec, g).values)))
        rows.append(
            {
                "nx": nx,
                "h": spec.hx,
                "sup_error": err,
                "det_residual": rep.extras["det_residual"],
                "identity_residual": rep.extras["identity_residual"],
                "min_d11": rep.extras["min_d11"],
                "min_d22": rep.extras["min_d22"],
                "min_det": rep.extras["min_det"],
                "mp_margin": rep.max_principle_margin,
                "iterations": rep.iterations,
                "converged": int(rep.converged),
            }
        )
        _maybe_save(cfg, f"ma_u_{nx}.csv", u)
    errs = [r["sup_error"] for r in rows]
    verdicts = {
        "all_converged": all(r["converged"] for r in rows),
        "convexity": all(
            r["min_d11"] >= -delta and r["min_d22"] >= -delta and r["min_det"] >= -delta for r in rows
        ),
        "fixed_point_identity": all(r["identity_residual"] <= delta for r in rows),
        "max_principle_upper": all(r["mp_margin"] >= -1e-9 for r in rows),
    }
    if cfg.alpha == 0.0:
        verdicts["exact_at_tolerance"] = max(errs) <= 1e-8
    if len(errs) >= 2:
        verdicts["errors_strictly_decreasing"] = _strictly_decreasing(errs) or max(errs) <= 1e-8
    return rows, verdicts


def _run_legendre_roundtrip(cfg: ExperimentConfig):
    f = functools.partial(an.family_eval, cfg.family())
    rows = []
    for nx in cfg.grid_sizes:
        spec = cfg.grid(nx)
        u = gr.sample(spec, f)
        err = pl.involution_check(u)
        rows.append({"nx": nx, "h": spec.hx, "involution_error": err})
    errs = [r["involution_error"] for r in rows]
    second_order = all(
        b <= 0.35 * a or (a <= 1e-12 and b <= 1e-12) for a, b in zip(errs, errs[1:])
    )
    return rows, {"second_order": second_order if len(errs) >= 2 else max(errs) <= 1e-10}


def _run_liouville_fit(cfg: ExperimentConfig):
    fam = cfg.family()
    g = functools.partial(an.family_eval, fam)
    rows = []
    for nx in cfg.grid_sizes:
        spec = cfg.grid(nx)
        u, rep = mam.ma_solve_dirichlet(spec, cfg.alpha, g, tol=cfg.fp_tolerance, max_iterations=cfg.max_iterations)
        dual = pl.forward_transform(u)
        a_hat, b_hat, stdev = fit_family_from_dual(dual)
        resid = pl.grushin_residual(dual, cfg.alpha)
        rows.append(
            {
                "nx": nx,
                "h": spec.hx,
                "a_hat": a_hat,
                "b_hat": b_hat,
                "d22_stdev": stdev,
                "pipeline_residual": resid,
                "p2_width": dual.spec.y_hi - dual.spec.y_lo,
                "iterations": rep.iterations,
                "converged": int(rep.converged),
            }
        )
        _maybe_save(cfg, f"dual_{nx}.csv", dual, header=("p1", "p2", "ustar"))
    last = rows[-1]
    verdicts = {
        "all_converged": all(r["converged"] for r in rows),
        "a_within_5pct": abs(last["a_hat"] - fam.a) / fam.a <= 0.05,
        "b_within_0p05": abs(last["b_hat"] - fam.b) <= 0.05,
    }
    if len(rows) >= 2:
        verdicts["stdev_strictly_decreasing"] = _strictly_decreasing([r["d22_stdev"] for r in rows])
        verdicts["pipeline_residual_strictly_decreasing"] = _strictly_decreasing(
            [r["pipeline_residual"] for r in rows]
        )
    return rows, verdicts


def _seeded_solves(cfg: ExperimentConfig):
    """Yield (nx, spec, seed, u): the degenerate-operator solve for each grid
    size and each of the n_seeds random positive boundary data from cfg.seed on.
    The boundary data are built once and the seeds of one grid are solved as
    one block, so each grid is factored once."""
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    data = [random_positive_boundary(default_rng(seed), cfg.domain) for seed in seeds]
    for nx in cfg.grid_sizes:
        spec = cfg.grid(nx)
        for seed, u in zip(seeds, gs.solve_dirichlet_many(spec, cfg.alpha, data)):
            yield nx, spec, seed, u


def _run_harnack_scan(cfg: ExperimentConfig):
    section = an.SectionSpec(cfg.alpha, (0.0, 0.0), _SECTION_HEIGHT["harnack-scan"])
    rows = []
    for nx, spec, seed, u in _seeded_solves(cfg):
        rep = gs.harnack_quotient(u, section)
        rows.append({"nx": nx, "h": spec.hx, "seed": seed, "sup": rep.sup, "inf": rep.inf, "quotient": rep.quotient})
    verdicts = {"positive_infimum": all(r["inf"] > 0 for r in rows)}
    if len(cfg.grid_sizes) >= 2:
        per_grid_max = [
            max(r["quotient"] for r in rows if r["nx"] == nx) for nx in cfg.grid_sizes
        ]
        changes = [abs(b - a) / a for a, b in zip(per_grid_max, per_grid_max[1:])]
        verdicts["stable_under_refinement"] = all(c <= 0.10 for c in changes)
    return rows, verdicts


def _run_holder_scan(cfg: ExperimentConfig):
    inner = an.SectionSpec(cfg.alpha, (0.0, 0.0), 1.0)
    outer = an.SectionSpec(cfg.alpha, (0.0, 0.0), _SECTION_HEIGHT["holder-scan"])
    rows = []
    for nx, spec, seed, u in _seeded_solves(cfg):
        # same pair seed across grids: stability reflects solution refinement
        ratio = gs.holder_estimate(u, cfg.gamma, inner, outer, n_pairs=cfg.n_pairs, seed=seed)
        rows.append({"nx": nx, "h": spec.hx, "seed": seed, "ratio": ratio})
    verdicts = {"finite": all(np.isfinite(r["ratio"]) for r in rows)}
    if len(cfg.grid_sizes) >= 2:
        stable = True
        for k in range(cfg.n_seeds):
            vals = [r["ratio"] for r in rows if r["seed"] == cfg.seed + k]
            stable &= all(abs(b - a) / a <= 0.10 for a, b in zip(vals, vals[1:]) if a > 0)
        verdicts["stable_10pct"] = bool(stable)
    return rows, verdicts


_ELLIPSE_SEMI_AXES = (0.3, 0.2)
_ELLIPSE_ROTATION = np.deg2rad(30.0)


def _run_doubling_check(cfg: ExperimentConfig):
    if cfg.center is None:
        raise ValueError("doubling-check needs a center")
    target = 2.0 ** (-(cfg.alpha + 2.0))
    centered = an.doubling_ratio(
        cfg.alpha, cfg.domain, (0.0, 0.0), _ELLIPSE_SEMI_AXES, _ELLIPSE_ROTATION, cfg.resolution
    )
    rows = [
        {"kind": "centered_ratio", "cx": 0.0, "cy": 0.0, "value": centered, "reference": target}
    ]
    cx, cy = cfg.center
    off = an.doubling_ratio(cfg.alpha, cfg.domain, (cx, cy), _ELLIPSE_SEMI_AXES, 0.0, cfg.resolution)
    rows.append({"kind": "offcenter_ratio", "cx": cx, "cy": cy, "value": off, "reference": 0.0})

    # spot pairs (|E|/|S|, mu(E)/mu(S)) for small ellipse subsets of a section
    section = an.SectionSpec(cfg.alpha, (0.0, 0.0), 1.0)
    sb = an.section_bbox(section)
    in_section = functools.partial(an.section_contains, section)
    mu_s = an.mu_alpha_measure(cfg.alpha, in_section, sb, cfg.resolution // 2)
    area_s = an.mu_alpha_measure(0.0, in_section, sb, cfg.resolution // 2)
    for cx, cy, ax, ay in ((0.0, 0.0, 0.1, 0.08), (0.3, 0.2, 0.08, 0.05), (0.0, -0.5, 0.06, 0.1)):
        e = an.ellipse_region((cx, cy), (ax, ay))
        eb = an.ellipse_bbox((cx, cy), (ax, ay), 0.0)
        mu_e = an.mu_alpha_measure(cfg.alpha, e, eb, cfg.resolution // 4)
        delta2 = float(np.pi * ax * ay) / area_s
        delta1 = mu_e / mu_s
        rows.append({"kind": "mu_infty_pair", "cx": cx, "cy": cy, "value": delta1, "reference": delta2})
    verdicts = {
        "centered_matches_homogeneity": abs(centered - target) <= 1e-3,
        "offcenter_positive": off > 0.0,
        "mu_infty_pairs_proper": all(
            0.0 < r["value"] < 1.0 for r in rows if r["kind"] == "mu_infty_pair"
        ),
    }
    return rows, verdicts


def _run_strictconvexity_demo(cfg: ExperimentConfig):
    rows, tau = [], _SECTION_HEIGHT["strictconvexity-demo"]
    spec = cfg.grid(cfg.grid_sizes[-1])
    u, rep = mam.ma_solve_dirichlet(
        spec, cfg.alpha, lambda X, Y: 0.0 * X, tol=cfg.fp_tolerance, max_iterations=cfg.max_iterations
    )
    v = gr.GridFunction(spec, u.values - np.min(u.values))
    section = an.SectionSpec(cfg.alpha, (0.0, 0.0), tau)
    inside = gs.section_node_mask(v, section)
    neighbor_inside = (
        np.roll(inside, 1, 0) | np.roll(inside, -1, 0) | np.roll(inside, 1, 1) | np.roll(inside, -1, 1)
    )
    ring = inside & ~(
        np.roll(inside, 1, 0) & np.roll(inside, -1, 0) & np.roll(inside, 1, 1) & np.roll(inside, -1, 1)
    )
    ring_min = float(np.min(v.values[ring]))
    # bracket the continuous section boundary from outside: the inner ring
    # alone underestimates max u on the boundary by O(h) |grad u|
    closed_ring = ring | (~inside & neighbor_inside)
    ring_max = float(np.max(v.values[closed_ring]))
    comparison = mam.comparison_check(v, cfg.alpha, tau, ring_max)
    rows.append({"part": "ma", "metric": "ring_min_gap", "value": ring_min})
    rows.append({"part": "ma", "metric": "ring_max", "value": ring_max})
    rows.append({"part": "ma", "metric": "comparison_ok", "value": float(comparison)})
    rows.append({"part": "ma", "metric": "converged", "value": float(rep.converged)})
    rows.append({"part": "ma", "metric": "iterations", "value": rep.iterations})

    traj = an.ode_integrate(cfg.alpha)
    y_hi = 0.8 * float(traj.t[-1])
    ospec = gr.GridSpec(-1.0, 1.0, 0.0, y_hi, cfg.grid_sizes[-1], cfg.grid_sizes[-1])
    X1, X2 = ospec.meshgrid()
    uo = an.ode_solution_eval(traj, X1, X2)
    line = np.abs(uo[np.isclose(X1, 0.0)])
    on_line_max = float(np.max(line)) if line.size else float("nan")
    rows.append({"part": "ode", "metric": "max_abs_on_line", "value": on_line_max})
    rows.append({"part": "ode", "metric": "truncated", "value": float(traj.truncated)})
    verdicts = {
        "ma_converged": bool(rep.converged),
        "section_boundary_separated": ring_min > 0.0,
        "comparison_bound": bool(comparison),
        "ode_flat_on_line": line.size > 0 and on_line_max == 0.0,
    }
    return rows, verdicts


_BARRIER_C_VALUES = (1.0, 10.0, 100.0)
_ALPHA_CASE2 = -0.5


def _run_barrier_check(cfg: ExperimentConfig):
    # imported here, not at module level: only this experiment needs
    # scipy.optimize, and loading it slows every CLI start
    from scipy.optimize import brentq

    rows = []
    cases = (("case1", max(cfg.alpha, 0.0)), ("case2", _ALPHA_CASE2))
    ok_sign = True
    for variant, alpha in cases:
        (p1_lo, p1_hi), _ = an.BarrierSpec(variant, 1.0, alpha).rectangle
        P1, P2 = np.meshgrid(
            np.linspace(p1_lo, p1_hi, 100), np.linspace(0.0, 1.0, 100, endpoint=False), indexing="ij"
        )
        for c in _BARRIER_C_VALUES:
            spec = an.BarrierSpec(variant, c, alpha)
            res = np.asarray(an.barrier_L_residual(spec, P1, P2))
            worst = float(np.max(res))
            ok_sign &= worst <= 1e-13
            rows.append({"kind": "sign", "variant": variant, "C": c, "value": worst, "reference": 0.0})
    eqs = {
        "case1": lambda p: p + p**3 / 3.0 - 1.0 / 3.0 - 0.5,
        "case2": lambda p: p / 16.0 + p**3 / 3.0 - 1.0 / 3.0 - 1.0 / 32.0,
    }
    ok_roots = True
    for variant, f in eqs.items():
        root = an.barrier_root(variant)
        rerun = float(brentq(f, 0.0, 1.0, xtol=1e-14))
        ok_roots &= abs(root - rerun) <= 1e-12
        rows.append({"kind": "root", "variant": variant, "C": 0.0, "value": root, "reference": rerun})
    return rows, {"nonpositive_on_rectangles": bool(ok_sign), "roots_match_rerun": bool(ok_roots)}


_SCALING_POINTS = ((0.3, -0.2), (-0.45, 0.35), (0.1, 0.6))
_SCALING_RADII = (0.5, 4.0)


def _scaling_probe(X1, X2):
    # cubic-degree probe: stencil-exact, and not in the operator kernel
    return X1**3 + X2**3 + X1**2 * X2**2


def _run_scaling_check(cfg: ExperimentConfig):
    h = 1.0 / 128.0
    alphas = sorted({0.0, cfg.alpha})
    rows = []
    worst = 0.0
    probe_action = 0.0
    for alpha in alphas:
        lam1 = lambda r: r ** (1.0 / (2.0 + alpha))
        for r in _SCALING_RADII:
            ur = an.scale_pullback(_scaling_probe, r, alpha)
            for x1, x2 in _SCALING_POINTS:
                lhs = an.grushin_fd(ur, alpha, x1, x2, h)
                scaled = an.grushin_fd(_scaling_probe, alpha, lam1(r) * x1, np.sqrt(r) * x2, h)
                resid = abs(lhs - r ** (-alpha / (2.0 + alpha)) * scaled)
                worst = max(worst, resid)
                probe_action = max(probe_action, abs(an.grushin_fd(_scaling_probe, alpha, x1, x2, h)))
                rows.append({"alpha": alpha, "r": r, "x1": x1, "x2": x2, "residual": resid})
    return rows, {
        "identity_within_tolerance": worst <= 1e-6,
        "probe_not_in_kernel": probe_action > 0.1,
    }


def _run_derivative_bound_scan(cfg: ExperimentConfig):
    spec = cfg.grid(cfg.grid_sizes[-1])
    g = random_positive_boundary(default_rng(cfg.seed), cfg.domain)
    table = gs.derivative_bound_scan(spec, cfg.alpha, g)
    rows = [{"eps": e, "ratio": r} for e, r in table]
    ratios = [r["ratio"] for r in rows]
    positive = [r for r in ratios if r > 0]
    bounded = (max(positive) / min(positive) <= 1.5) if positive else True
    return rows, {
        "finite": all(np.isfinite(r) for r in ratios),
        "eps_uniform_bound": bool(bounded),
    }


EXPERIMENTS = {
    "convergence-grushin": (
        _run_convergence_grushin,
        "nx,h,sup_error,mp_margin,residual",
        {"alpha": 2.0, "grid_sizes": (65, 129, 257), "family_a": 1.0, "family_b": 0.0},
    ),
    "convergence-ma": (
        _run_convergence_ma,
        "nx,h,sup_error,det_residual,identity_residual,min_d11,min_d22,min_det,mp_margin,iterations,converged",
        {"alpha": 1.0, "grid_sizes": (65, 129, 257), "family_a": 2.0, "family_b": 0.5},
    ),
    "legendre-roundtrip": (
        _run_legendre_roundtrip,
        "nx,h,involution_error",
        {
            "alpha": 2.0,
            "grid_sizes": (33, 65, 129),
            "family_a": 1.0,
            "family_b": 0.5,
            "domain": (-1.0, 1.0, -2.0, 2.0),
        },
    ),
    "liouville-fit": (
        _run_liouville_fit,
        "nx,h,a_hat,b_hat,d22_stdev,pipeline_residual,p2_width,iterations,converged",
        {
            "alpha": 1.0,
            "grid_sizes": (65, 129, 257),
            "family_a": 2.0,
            "family_b": 0.5,
            "domain": (-1.0, 1.0, -2.0, 2.0),
        },
    ),
    "harnack-scan": (
        _run_harnack_scan,
        "nx,h,seed,sup,inf,quotient",
        {"alpha": 2.0, "grid_sizes": (81, 161), "domain": (-1.25, 1.25, -1.5, 1.5)},
    ),
    "holder-scan": (
        _run_holder_scan,
        "nx,h,seed,ratio",
        {"alpha": 2.0, "grid_sizes": (81, 161), "domain": (-1.25, 1.25, -1.5, 1.5)},
    ),
    "doubling-check": (
        _run_doubling_check,
        "kind,cx,cy,value,reference",
        {"alpha": 2.0, "grid_sizes": (65,), "center": (0.35, 0.1)},
    ),
    "strictconvexity-demo": (
        _run_strictconvexity_demo,
        "part,metric,value",
        {
            "alpha": 2.0,
            "grid_sizes": (129,),
            "domain": (-1.0, 1.0, -0.5, 0.5),
            # qualitative demo: the degenerate zero-data problem converges at a
            # slow linear rate, so 1e-10 is out of reach in sensible time
            "fp_tolerance": 1e-7,
            "max_iterations": 20000,
        },
    ),
    "barrier-check": (
        _run_barrier_check,
        "kind,variant,C,value,reference",
        {"alpha": 2.0, "grid_sizes": (65,)},
    ),
    "scaling-check": (
        _run_scaling_check,
        "alpha,r,x1,x2,residual",
        {"alpha": 2.0, "grid_sizes": (129,)},
    ),
    "derivative-bound-scan": (
        _run_derivative_bound_scan,
        "eps,ratio",
        {"alpha": 2.0, "grid_sizes": (65,)},
    ),
}


def load_config_file(path) -> dict[str, str]:
    """Flat 'key = value' lines; '#' starts a comment; lists are comma-separated."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _coerce(name: str, kind, raw: str):
    if isinstance(kind, types.UnionType):  # X | None: a value in a file is an X
        (kind,) = (k for k in typing.get_args(kind) if k is not type(None))
    if kind is float:
        return _parse_number(raw)
    if kind is int:
        return int(raw)
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"config key {name!r}: {raw!r} is not a boolean (use true/false)")
        return _BOOLS[raw.lower()]
    if typing.get_origin(kind) is tuple:
        parse = int if typing.get_args(kind)[0] is int else _parse_number
        return tuple(parse(s) for s in raw.split(","))
    if kind is str:
        return raw
    raise ValueError(f"cannot parse config key {name!r}")


def make_config(name: str, config_path=None, **overrides) -> ExperimentConfig:
    """Resolve defaults <- config file <- explicit overrides into a config."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    merged: dict = dict(EXPERIMENTS[name][2])
    if config_path is not None:
        kinds = typing.get_type_hints(ExperimentConfig)
        for key, raw in load_config_file(config_path).items():
            if key == "experiment":
                continue
            if key not in kinds:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, kinds[key], raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return ExperimentConfig(experiment=name, **merged)


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_metrics_csv(rows: list, path) -> None:
    if not rows:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n")
        return
    columns = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def run(config: ExperimentConfig) -> RunSummary:
    """Execute a registered experiment; solver failures become failing
    verdicts with a diagnostic, never a crash."""
    runner = EXPERIMENTS[config.experiment][0]
    echo = dataclasses.asdict(config)
    start = time.perf_counter()
    try:
        rows, verdicts = runner(config)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        rows, verdicts = [], {"completed": False}
        echo["error"] = f"{type(exc).__name__}: {exc}"
    summary = RunSummary(
        config.experiment, rows, {k: bool(v) for k, v in verdicts.items()}, time.perf_counter() - start, echo
    )
    _write_outputs(summary, config)
    return summary


def _write_outputs(summary: RunSummary, config: ExperimentConfig) -> None:
    if not config.out_dir:
        return
    os.makedirs(config.out_dir, exist_ok=True)
    write_metrics_csv(summary.rows, os.path.join(config.out_dir, "metrics.csv"))
    payload = {
        "experiment": summary.experiment,
        "config_echo": summary.config_echo,
        "rows": summary.rows,
        "verdicts": summary.verdicts,
        "wall_clock_seconds": summary.wall_clock_seconds,
    }
    with open(os.path.join(config.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
