import functools
import inspect

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from degenma import analytic as an
from degenma import grid as gr
from degenma import ma


TOL = 1e-10  # the default tol of ma_solve_dirichlet


def square(n=65):
    return gr.GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)


def ma_residual(u: gr.GridFunction, alpha: float, eps: float) -> np.ndarray:
    """Interior field d11 d22 - d12^2 - eta_eps(x1); NaN on the boundary ring."""
    spec = u.spec
    a11, a22, a12 = gr.second_differences(spec, u.values)
    f = np.asarray(an.eta_eps(an.RegularizerSpec(alpha, eps), spec.x_nodes()[1:-1]), dtype=float)[:, None]
    out = np.full((spec.nx, spec.ny), np.nan)
    out[1:-1, 1:-1] = a11 * a22 - a12**2 - f
    return out


def test_config_validation():
    zero = lambda X, Y: 0.0 * X
    with pytest.raises(ValueError, match="max_iterations"):
        ma.ma_solve_dirichlet(square(9), 1.0, zero, max_iterations=0)
    with pytest.raises(ValueError, match="tol"):
        ma.ma_solve_dirichlet(square(9), 1.0, zero, tol=0.0)
    params = inspect.signature(ma.ma_solve_dirichlet).parameters
    assert (params["tol"].default, params["max_iterations"].default) == (TOL, 3000)


def test_quadratic_data_exact_for_alpha_zero():
    spec = square()
    g = lambda X, Y: 0.5 * (X**2 + Y**2)
    u, rep = ma.ma_solve_dirichlet(spec, 0.0, g)
    assert rep.converged
    assert np.max(np.abs(u.values - gr.sample(spec, g).values)) <= 1e-8
    assert rep.extras["det_residual"] <= 1e-8
    delta = 10.0 * TOL
    assert rep.extras["min_d11"] >= -delta
    assert rep.extras["min_d22"] >= -delta
    assert rep.extras["min_det"] >= -delta


def test_zero_boundary_symmetry_and_subsolution_bound():
    spec = square()
    u, rep = ma.ma_solve_dirichlet(spec, 0.0, lambda X, Y: 0.0 * X)
    assert rep.converged
    v = u.values
    assert np.max(np.abs(v - v[::-1, :])) <= 1e-9  # even in x1
    assert np.max(np.abs(v - v[:, ::-1])) <= 1e-9  # even in x2
    # the paraboloid (|x|^2 - 2)/2 lies below: u(0,0) >= -1
    assert v[spec.nx // 2, spec.ny // 2] >= -1.0
    assert rep.max_principle_margin >= -1e-9


def test_fixed_point_identity_at_convergence():
    spec = square()
    g = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5))
    u, rep = ma.ma_solve_dirichlet(spec, 1.0, g)
    assert rep.converged
    assert rep.extras["identity_residual"] <= 10.0 * TOL
    assert rep.final_residual <= TOL


def test_family_convergence_alpha_one():
    g = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5))
    errs = []
    for n in (65, 129):
        spec = square(n)
        u, rep = ma.ma_solve_dirichlet(spec, 1.0, g)
        assert rep.converged
        errs.append(np.max(np.abs(u.values - gr.sample(spec, g).values)))
        delta = 10.0 * TOL
        assert rep.extras["min_d11"] >= -delta
        assert rep.extras["min_d22"] >= -delta
        assert rep.extras["min_det"] >= -delta
    assert errs[1] < errs[0]


def test_non_convergence_is_reported_not_raised():
    spec = square(33)
    _, rep = ma.ma_solve_dirichlet(spec, 2.0, lambda X, Y: 0.0 * X, max_iterations=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_every_sweep_takes_the_full_poisson_step():
    # liouville-fit's 65 x 129 grid, where the update sup rises once near k = 20
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 65, 129)
    eps = 2.0 * spec.hx
    g = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5))
    mx, my = spec.nx - 2, spec.ny - 2

    def lap_1d(n, h):
        return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) / h**2

    lap = (sp.kron(lap_1d(mx, spec.hx), sp.eye(my)) + sp.kron(sp.eye(mx), lap_1d(my, spec.hy))).tocsc()
    f = np.asarray(an.eta_eps(an.RegularizerSpec(1.0, eps), spec.x_nodes()[1:-1]))[:, None]
    u = {k: ma.ma_solve_dirichlet(spec, 1.0, g, eps=eps, max_iterations=k)[0].values for k in range(19, 23)}
    for k in (19, 20, 21):
        a11, a22, a12 = gr.second_differences(spec, u[k])
        rhs = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2 + 4.0 * f)
        ring = u[k].copy()
        ring[1:-1, 1:-1] = 0.0
        b11, b22, _ = gr.second_differences(spec, ring)  # boundary terms of lap_h
        poisson = spla.spsolve(lap, (rhs - b11 - b22).ravel()).reshape(mx, my)
        step = poisson - u[k][1:-1, 1:-1]
        taken = u[k + 1][1:-1, 1:-1] - u[k][1:-1, 1:-1]
        assert np.max(np.abs(step)) > 1e-6  # not converged yet, so a halved step would show
        np.testing.assert_allclose(taken, step, rtol=0, atol=1e-12 * np.max(np.abs(u[k])))


def test_ma_residual_quadratic_is_exact():
    spec = square(33)
    u = gr.sample(spec, lambda X, Y: 0.5 * (X**2 + Y**2))
    res = ma_residual(u, 0.0, eps=0.1)
    assert np.nanmax(np.abs(res)) <= 1e-12
    assert np.all(np.isnan(res[0, :]))


def test_ma_residual_family_refines():
    sups = []
    for n in (33, 65):
        spec = square(n)
        u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(2.0, 1.0)))
        res = ma_residual(u, 2.0, eps=2.0 * spec.hx)
        sups.append(np.nanmax(np.abs(res)))
    assert sups[1] < sups[0]


def test_ma_residual_against_hand_determinant():
    # u = x1^2 x2^2 has exact stencil values: d11 = 2 x2^2, d22 = 2 x1^2,
    # d12 = 4 x1 x2, so det_h = -12 x1^2 x2^2
    spec = square(33)
    u = gr.sample(spec, lambda X, Y: X**2 * Y**2)
    eps = 0.05
    res = ma_residual(u, 1.0, eps=eps)
    X1, X2 = spec.meshgrid()
    eta = np.asarray(an.eta_eps(an.RegularizerSpec(1.0, eps), X1))
    expected = -12.0 * X1**2 * X2**2 - eta
    np.testing.assert_allclose(res[1:-1, 1:-1], expected[1:-1, 1:-1], rtol=0, atol=1e-10)
    assert np.nanmax(np.abs(res)) > 1.0  # visibly nonzero


def test_monotonicity_in_the_right_hand_side():
    # eta for alpha=2 is <= 1 = eta for alpha=0 on [-1,1]^2, so the alpha=2
    # solution with zero data lies above the alpha=0 solution
    spec = square(49)
    u_small_f, rep1 = ma.ma_solve_dirichlet(spec, 2.0, lambda X, Y: 0.0 * X, max_iterations=8000, tol=1e-8)
    u_big_f, rep2 = ma.ma_solve_dirichlet(spec, 0.0, lambda X, Y: 0.0 * X)
    assert rep1.converged and rep2.converged
    assert np.min(u_small_f.values - u_big_f.values) >= -1e-7


def test_comparison_check_plug_in_and_violation():
    alpha = 2.0
    tau = 0.05
    spec = gr.GridSpec(-1.0, 1.0, -0.5, 0.5, 129, 65)
    c = an.phi_det_coefficient(alpha)
    w = gr.sample(spec, lambda X, Y: np.sqrt(1 / c) * an.phi_eval(alpha, X, Y))
    boundary_max = np.sqrt(1 / c) * tau
    assert ma.comparison_check(w, alpha, tau, boundary_max)
    big = gr.sample(spec, lambda X, Y: 10.0 * an.phi_eval(alpha, X, Y))
    assert not ma.comparison_check(big, alpha, tau, boundary_max)
    with pytest.raises(ValueError):
        ma.comparison_check(w, alpha, 5.0, 1.0)  # section larger than the grid
