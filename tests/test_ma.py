import functools
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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


def dirichlet_laplacian(spec: gr.GridSpec) -> sp.csc_matrix:
    """Five-point lap_h on the interior nodes, x-index major."""
    mx, my = spec.nx - 2, spec.ny - 2

    def lap_1d(n, h):
        return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) / h**2

    return (sp.kron(lap_1d(mx, spec.hx), sp.eye(my)) + sp.kron(sp.eye(mx), lap_1d(my, spec.hy))).tocsc()


class PlainSweeps:
    """The fixed-point map written out with a sparse direct Poisson solve:
    W(v) solves lap_h P = sqrt((v11 - v22)^2 + 4 v12^2 + 4 f) with P = g on
    the boundary; ``start`` is the solver's warm start."""

    def __init__(self, spec, alpha, g):
        self.spec = spec
        self.lap = dirichlet_laplacian(spec)
        self.f = np.asarray(an.eta_eps(an.RegularizerSpec(alpha, 2.0 * spec.hx), spec.x_nodes()[1:-1]))[:, None]
        ring = gr.sample(spec, g).values.copy()
        ring[1:-1, 1:-1] = 0.0
        self.ring = ring
        self.b11, self.b22, _ = gr.second_differences(spec, ring)  # boundary terms of lap_h

    def poisson(self, rhs):
        u = self.ring.copy()
        u[1:-1, 1:-1] = spla.spsolve(self.lap, (rhs - self.b11 - self.b22).ravel()).reshape(rhs.shape)
        return u

    def start(self):
        return self.poisson(np.broadcast_to(2.0 * np.sqrt(self.f), self.b11.shape))

    def terms(self, u):
        """(identity residual field, Poisson right-hand side, min(d11, d22)) at u."""
        a11, a22, a12 = gr.second_differences(self.spec, u)
        rhs = np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2 + 4.0 * self.f)
        return a11 + a22 - rhs, rhs, min(np.min(a11), np.min(a22))


def test_first_sweep_takes_the_full_poisson_step():
    # liouville-fit's 65 x 129 grid
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 65, 129)
    g = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5))
    ref = PlainSweeps(spec, 1.0, g)
    u0 = ref.start()
    _, rhs, _ = ref.terms(u0)
    step = ref.poisson(rhs)
    u1, rep = ma.ma_solve_dirichlet(spec, 1.0, g, max_iterations=1)
    assert not rep.converged and rep.iterations == 1
    assert np.max(np.abs(step - u0)) > 1e-6  # a damped or extrapolated step would show
    np.testing.assert_allclose(u1.values, step, rtol=0, atol=1e-12 * np.max(np.abs(step)))


def anderson_reference(ref: PlainSweeps, sweeps: int, depth: int = 5, tol: float = TOL) -> list[np.ndarray]:
    """Iterates 1..sweeps of type-II Anderson(depth) on W, with a dense
    least-squares fit of the identity residual e over the last ``depth``
    differences: v <- W(v) - dW gamma, gamma = argmin |e - dE gamma|_2. The
    history is dropped when sup |e| rises or min(d11, d22) falls while below
    -10 tol."""
    u = ref.start()
    es, ws, out = [], [], []
    last_res, last_min = np.inf, -np.inf
    for _ in range(sweeps):
        e, rhs, min_d = ref.terms(u)
        res = np.max(np.abs(e))
        if res > last_res or (min_d < -10.0 * tol and min_d < last_min):
            es, ws = [], []
        last_res, last_min = res, min_d
        es = (es + [e.ravel()])[-(depth + 1) :]
        ws = (ws + [ref.poisson(rhs)[1:-1, 1:-1].ravel()])[-(depth + 1) :]
        step = ws[-1]
        if len(es) > 1:
            d_e = np.diff(np.array(es), axis=0).T
            d_w = np.diff(np.array(ws), axis=0).T
            gamma = np.linalg.lstsq(d_e, es[-1], rcond=None)[0]
            step = step - d_w @ gamma
        u = u.copy()
        u[1:-1, 1:-1] = step.reshape(e.shape)
        out.append(u)
    return out


@pytest.mark.parametrize(
    "spec, alpha, g, restarted",
    [
        (square(33), 1.0, functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5)), False),
        # zero data at alpha = 2: min(d11, d22) of the early iterates is
        # negative and falls every other sweep, so the history is dropped
        (square(33), 2.0, lambda X, Y: 0.0 * X, True),
    ],
    ids=["family", "zero-data"],
)
def test_iterates_match_dense_anderson_reference(spec, alpha, g, restarted):
    expected = anderson_reference(PlainSweeps(spec, alpha, g), 8)
    for k in range(1, 9):
        u, rep = ma.ma_solve_dirichlet(spec, alpha, g, max_iterations=k)
        assert rep.iterations == k and not rep.converged
        scale = np.max(np.abs(expected[k - 1]))
        np.testing.assert_allclose(u.values, expected[k - 1], rtol=0, atol=1e-10 * scale)
    assert (rep.extras["restarts"] > 0) == restarted


@settings(max_examples=12, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0),
    a=st.floats(0.5, 3.0),
    b=st.floats(-1.0, 1.0),
    n=st.integers(17, 33),
)
def test_converged_means_close_to_the_discrete_solution(alpha, a, b, n):
    spec = square(n)
    g = functools.partial(an.family_eval, an.FamilyParams(alpha, a, b))
    u, rep = ma.ma_solve_dirichlet(spec, alpha, g)
    assert rep.converged
    rho, restarts = rep.extras["rho"], rep.extras["restarts"]
    assert 0.0 <= rho <= 0.999
    assert isinstance(restarts, int) and restarts >= 0
    assert rep.final_residual <= (1.0 - rho) * TOL
    # the fixed point by plain sweeps, to a step of TOL / 100
    ref = PlainSweeps(spec, alpha, g)
    fixed = ref.start()
    for _ in range(3000):
        _, rhs, _ = ref.terms(fixed)
        nxt = ref.poisson(rhs)
        step = np.max(np.abs(nxt - fixed))
        fixed = nxt
        if step <= TOL / 100.0:
            break
    assert step <= TOL / 100.0
    assert np.max(np.abs(u.values - fixed)) <= 100.0 * TOL


def test_restarts_and_contraction_estimate_on_zero_data():
    # strictconvexity-demo at a coarser grid: non-convex early iterates force
    # restarts, and the slow degenerate problem has a visible contraction rate
    spec = gr.GridSpec(-1.0, 1.0, -0.5, 0.5, 65, 33)
    _, rep = ma.ma_solve_dirichlet(spec, 2.0, lambda X, Y: 0.0 * X, tol=1e-7, max_iterations=6000)
    assert rep.converged
    assert rep.extras["restarts"] >= 1
    assert 0.0 < rep.extras["rho"] < 0.999
    assert rep.final_residual <= (1.0 - rep.extras["rho"]) * 1e-7
    assert rep.extras["min_d11"] >= -1e-6 and rep.extras["min_d22"] >= -1e-6


def test_solution_does_not_depend_on_the_blas_thread_count():
    # liouville-fit's 257 x 513 solve, large enough for BLAS to use threads
    code = (
        "import functools, hashlib\n"
        "from degenma import analytic as an, grid as gr, ma\n"
        "spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 257, 513)\n"
        "g = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5))\n"
        "u, rep = ma.ma_solve_dirichlet(spec, 1.0, g)\n"
        "assert rep.converged\n"
        "print(hashlib.sha256(u.values.tobytes()).hexdigest())\n"
    )
    src = str(Path(ma.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


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


# Discrete invariants of the scheme. The Dirichlet data are a family member
# plus a non-negative bump that is neither affine nor symmetric.
_invariant_cases = dict(
    alpha=st.floats(-0.9, 3.0),
    a=st.floats(0.5, 2.0),
    b=st.floats(-1.0, 1.0),
    c=st.floats(0.0, 1.0),
    n=st.integers(9, 33),
)


def _bumped_family(alpha, a, b, c):
    fam = functools.partial(an.family_eval, an.FamilyParams(alpha, a, b))
    return lambda X, Y: fam(X, Y) + c * np.sin(3.0 * X + 2.0 * Y) ** 2


def _converged_solve(spec, alpha, g) -> np.ndarray:
    u, rep = ma.ma_solve_dirichlet(spec, alpha, g)
    assert rep.converged
    return u.values


@settings(max_examples=10, deadline=None)
@given(ell=st.tuples(*3 * [st.floats(-1.0, 1.0)]), **_invariant_cases)
def test_affine_data_are_added_to_the_solution(ell, alpha, a, b, c, n):
    # second differences annihilate an affine function
    spec, g = square(n), _bumped_family(alpha, a, b, c)
    c0, c1, c2 = ell
    affine = lambda X, Y: c0 + c1 * X + c2 * Y
    u = _converged_solve(spec, alpha, g)
    v = _converged_solve(spec, alpha, lambda X, Y: g(X, Y) + affine(X, Y))
    assert np.max(np.abs(v - u - gr.sample(spec, affine).values)) <= 1e-11


@settings(max_examples=10, deadline=None)
@given(signs=st.sampled_from([(-1, 1), (1, -1), (-1, -1)]), **_invariant_cases)
def test_reflected_data_give_the_reflected_solution(signs, alpha, a, b, c, n):
    # eta is even in x1, and det D2u is unchanged by either reflection
    spec, g = square(n), _bumped_family(alpha, a, b, c)
    s1, s2 = signs
    u = _converged_solve(spec, alpha, g)
    w = _converged_solve(spec, alpha, lambda X, Y: g(s1 * X, s2 * Y))
    assert np.max(np.abs(w - u[::s1, ::s2])) <= 1e-11


@settings(max_examples=10, deadline=None)
@given(d=st.floats(0.0, 1.0), **_invariant_cases)
def test_ordered_data_give_ordered_solutions(d, alpha, a, b, c, n):
    # the comparison principle, which the scheme is not proved to keep
    spec, g = square(n), _bumped_family(alpha, a, b, c)
    u = _converged_solve(spec, alpha, g)
    above = _converged_solve(spec, alpha, lambda X, Y: g(X, Y) + d * (1.0 + np.cos(2.0 * X - Y)))
    assert np.min(above - u) >= -1e-11


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
