import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from degenma import analytic as an


# ---------------------------------------------------------------------------
# family and dual closed forms
# ---------------------------------------------------------------------------


def test_family_eval_examples():
    assert an.family_eval(an.FamilyParams(0.0, 1.0), 0.0, 0.0) == 0.0
    assert an.family_eval(an.FamilyParams(0.0, 1.0), 1.0, 1.0) == pytest.approx(1.0)
    assert an.family_eval(an.FamilyParams(2.0, 1.0, 1.0), 1.0, 0.0) == pytest.approx(
        1.0 / 12.0 + 0.5
    )


def test_family_params_validation():
    with pytest.raises(ValueError):
        an.FamilyParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        an.FamilyParams(0.0, 0.0)


@pytest.mark.parametrize(
    "a, b, ell",
    [
        (math.inf, 0.0, (0.0, 0.0, 0.0)),
        (math.nan, 0.0, (0.0, 0.0, 0.0)),
        (1.0, math.nan, (0.0, 0.0, 0.0)),
        (1.0, -math.inf, (0.0, 0.0, 0.0)),
        (1.0, 0.0, (math.nan, 0.0, 0.0)),
        (1.0, 0.0, (0.0, 0.0, math.inf)),
    ],
)
def test_family_params_reject_non_finite_numbers(a, b, ell):
    # FamilyParams(1, inf, nan) used to be accepted, and family_eval gave nan
    with pytest.raises(ValueError, match="finite"):
        an.FamilyParams(1.0, a, b, ell)


def family_hessian(params: an.FamilyParams, x1, x2):
    """Hessian entries (u11, u12, u22) of the family member at (x1, x2); for
    alpha < 0 the line x1 = 0 is excluded."""
    al, a, b = params.alpha, params.a, params.b
    if al < 0 and np.any(x1 == 0.0):
        raise ValueError("hessian is unbounded on x1 = 0 for alpha < 0")
    zero = np.zeros(np.broadcast(x1, x2).shape)
    return a * np.abs(x1) ** al + a * b * b + zero, b + zero, 1.0 / a + zero


def test_family_hessian_examples():
    u11, u12, u22 = family_hessian(an.FamilyParams(1.0, 2.0), 0.5, 7.0)
    assert (u11, u12, u22) == (pytest.approx(1.0), 0.0, pytest.approx(0.5))
    assert u11 * u22 - u12**2 == pytest.approx(0.5)

    u11, u12, u22 = family_hessian(an.FamilyParams(0.0, 3.0, 2.0), -0.7, 0.2)
    assert u11 * u22 - u12**2 == pytest.approx(1.0, abs=1e-13)

    u11, u12, u22 = family_hessian(an.FamilyParams(2.0, 1.0), 0.0, 0.0)
    assert (u11, u12, u22) == (0.0, 0.0, 1.0)

    with pytest.raises(ValueError):
        family_hessian(an.FamilyParams(-0.5, 1.0), 0.0, 1.0)


def family_det_residual(params: an.FamilyParams, x1, x2):
    """det D2u - |x1|^alpha; identically zero in exact arithmetic."""
    u11, u12, u22 = family_hessian(params, x1, x2)
    return u11 * u22 - u12**2 - np.abs(x1) ** params.alpha


def test_family_det_residual_examples():
    assert abs(family_det_residual(an.FamilyParams(1.0, 2.0, -0.3), 0.3, -2.0)) <= 1e-12
    assert abs(family_det_residual(an.FamilyParams(2.0, 5.0, -1.0), 1.0, 1.0)) <= 1e-12
    # perturbing the x2^2 coefficient by +0.1 bumps the determinant by
    # 2 * 0.1 * u11: for alpha=0, a=1, b=0 at (1, 0) that is det = 1.2
    params = an.FamilyParams(0.0, 1.0)
    u11, u12, u22 = family_hessian(params, 1.0, 0.0)
    perturbed = u11 * (u22 + 0.2) - u12**2 - 1.0
    assert perturbed == pytest.approx(0.2)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([-0.5, 0.0, 1.0, 2.0]), st.floats(-0.9, 3.0)),
    a=st.floats(0.3, 3.0),
    b=st.floats(-2.0, 2.0),
    c2=st.floats(-1.0, 1.0),
    x1=st.floats(0.01, 3.0),
    x2=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_family_identity_property(alpha, a, b, c2, x1, x2, sign):
    params = an.FamilyParams(alpha, a, b, (0.5, -0.25, c2))
    assert abs(family_det_residual(params, sign * x1, x2)) <= 1e-12


def test_dual_closed_form_examples():
    assert an.dual_closed_form(an.FamilyParams(0.0, 1.0), 1.0, 1.0) == pytest.approx(0.0)
    assert an.dual_closed_form(an.FamilyParams(1.7, 2.2, 0.4), 0.0, 0.0) == 0.0
    assert an.dual_closed_form(an.FamilyParams(2.0, 1.0), 1.0, 2.0) == pytest.approx(
        -1.0 / 12.0 + 2.0
    )


def test_dual_solves_degenerate_equation_in_closed_form():
    # u*_11 = -a |p1|^alpha and u*_22 = a, so the combination vanishes exactly
    for alpha in (0.0, 1.0, 2.0):
        params = an.FamilyParams(alpha, 1.7, 0.6)
        a = params.a
        for p1 in (-1.2, -0.4, 0.5, 2.0):
            u11 = -a * abs(p1) ** alpha
            assert u11 + abs(p1) ** alpha * a == pytest.approx(0.0, abs=1e-13)


def test_dual_fd_residual_refines():
    f = functools.partial(an.dual_closed_form, an.FamilyParams(2.0, 1.0, 0.5))
    P1, P2 = np.meshgrid(np.linspace(0.25, 1.0, 7), np.linspace(-1.0, 1.0, 7), indexing="ij")
    res = [np.max(np.abs(an.grushin_fd(f, 2.0, P1, P2, h))) for h in (1 / 32, 1 / 64)]
    assert res[1] <= 0.3 * res[0] + 1e-12


# ---------------------------------------------------------------------------
# phi, sections, measure
# ---------------------------------------------------------------------------


def test_phi_and_coefficient():
    assert an.phi_eval(1.3, 0.0, 0.0) == 0.0
    assert an.phi_eval(2.0, 1.0, 1.0) == pytest.approx(2.0)
    assert an.phi_det_coefficient(0.0) == pytest.approx(4.0)
    # direct hessian of x1^2 + x2^2 has determinant 4
    h = 1e-5
    f = functools.partial(an.phi_eval, 0.0)
    d11 = (f(1.0 + h, 0.3) - 2 * f(1.0, 0.3) + f(1.0 - h, 0.3)) / h**2
    d22 = (f(1.0, 0.3 + h) - 2 * f(1.0, 0.3) + f(1.0, 0.3 - h)) / h**2
    assert d11 * d22 == pytest.approx(4.0, rel=1e-6)
    assert an.phi_det_coefficient(2.0) == pytest.approx(2.0 * 4.0 * 3.0)


def test_section_membership_examples():
    s = an.SectionSpec(0.0, (0.0, 0.0), 1.0)
    assert an.section_contains(s, 0.5, 0.5)
    assert not an.section_contains(s, 1.0, 0.0)  # boundary, strict inequality
    for alpha in (-0.5, 0.0, 2.0):
        assert an.section_contains(an.SectionSpec(alpha, (0.0, 0.0), 0.3), 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-0.8, 3.0),
    c2=st.floats(-1.0, 1.0),
    t=st.floats(0.05, 2.0),
    y1=st.floats(-2.0, 2.0),
    y2=st.floats(-2.0, 2.0),
)
def test_section_reflection_symmetry_on_the_line(alpha, c2, t, y1, y2):
    # center on {x1 = 0}: membership is even in y1
    s = an.SectionSpec(alpha, (0.0, c2), t)
    assert an.section_contains(s, y1, y2) == an.section_contains(s, -y1, y2)


def test_section_bbox_matches_membership():
    s = an.SectionSpec(2.0, (0.3, -0.2), 0.7)
    x_lo, x_hi, y_lo, y_hi = an.section_bbox(s)
    eps = 1e-6
    assert not an.section_contains(s, x_hi + eps, -0.2)
    assert an.section_contains(s, x_hi - 1e-3, -0.2)
    assert y_hi == pytest.approx(-0.2 + np.sqrt(0.7))
    pairs = an.section_sample_pairs(s, 50, np.random.default_rng(0))
    assert pairs.shape == (50, 2, 2)
    assert np.all(an.section_contains(s, pairs[..., 0], pairs[..., 1]))


@pytest.mark.parametrize("center", [[0.3, -0.2], np.array([0.3, -0.2]), (np.float64(0.3), -0.2)])
def test_section_spec_stores_center_as_a_tuple_of_floats(center):
    s = an.SectionSpec(2, center, 1)
    assert s.center == (0.3, -0.2) and all(type(c) is float for c in s.center)
    assert type(s.alpha) is float and type(s.height) is float
    # equal specs are one cache key, and share one box
    assert hash(s) == hash(an.SectionSpec(2.0, (0.3, -0.2), 1.0))
    assert an.section_bbox(s) == an.section_bbox(an.SectionSpec(2.0, (0.3, -0.2), 1.0))


@pytest.mark.parametrize(
    "center, height, message",
    [
        ((np.nan, 0.0), 1.0, "center must be finite"),
        ((0.0, np.inf), 1.0, "center must be finite"),
        ((0.0, 0.0, 0.0), 1.0, "center must be a 2D point"),
        ((0.0, 0.0), np.nan, "height must be finite and > 0"),
        ((0.0, 0.0), np.inf, "height must be finite and > 0"),
        ((0.0, 0.0), 0.0, "height must be finite and > 0"),
    ],
)
def test_section_spec_rejects_non_finite_input(center, height, message):
    with pytest.raises(ValueError, match=message):
        an.SectionSpec(1.0, center, height)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_section_spec_rejects_non_finite_alpha(alpha):
    # an infinite alpha would give the box (-7.9e-31, 7.9e-31, -1, 1)
    with pytest.raises(ValueError, match="alpha must be > -1 and finite"):
        an.SectionSpec(alpha, (0.0, 0.0), 1.0)


def test_mu_alpha_measure_examples():
    disk = an.mu_alpha_measure(0.0, lambda X, Y: X**2 + Y**2 < 1, (-1, 1, -1, 1), 2048)
    assert disk == pytest.approx(np.pi, abs=1e-3)
    empty = an.mu_alpha_measure(0.0, lambda X, Y: np.zeros(np.broadcast(X, Y).shape, bool), (-1, 1, -1, 1), 64)
    assert empty == 0.0
    square = an.mu_alpha_measure(
        2.0, lambda X, Y: np.ones(np.broadcast(X, Y).shape, bool), (0, 1, 0, 1), 2048
    )
    assert square == pytest.approx(1.0 / 3.0, abs=1e-4)
    with pytest.raises(ValueError):
        an.mu_alpha_measure(0.0, lambda X, Y: X < Y, (1, 1, 0, 1), 64)


def test_mu_alpha_monotone_and_additive():
    small = an.ellipse_region((0.0, 0.0), (0.4, 0.3))
    big = an.ellipse_region((0.0, 0.0), (0.8, 0.6))
    bbox = (-1, 1, -1, 1)
    m_small = an.mu_alpha_measure(1.0, small, bbox, 512)
    m_big = an.mu_alpha_measure(1.0, big, bbox, 512)
    assert m_small <= m_big
    left = an.mu_alpha_measure(0.5, lambda X, Y: X < 0, bbox, 512)
    right = an.mu_alpha_measure(0.5, lambda X, Y: X >= 0, bbox, 512)
    total = an.mu_alpha_measure(0.5, lambda X, Y: np.ones(np.broadcast(X, Y).shape, bool), bbox, 512)
    assert left + right == pytest.approx(total, abs=1e-10)


def test_doubling_ratio_centered_homogeneity():
    for alpha, target in ((0.0, 0.25), (2.0, 0.0625)):
        r = an.doubling_ratio(alpha, (-1, 1, -1, 1), (0, 0), (0.3, 0.2), 0.5, 1024)
        assert r == pytest.approx(target, abs=1e-3)
    off = an.doubling_ratio(1.0, (-1, 1, -1, 1), (0.5, 0.0), (0.2, 0.1), 0.0, 512)
    assert off > 0.0
    with pytest.raises(ValueError):
        an.doubling_ratio(0.0, (-1, 1, -1, 1), (10.0, 0.0), (0.1, 0.1), 0.0, 64)


# ---------------------------------------------------------------------------
# regularizer
# ---------------------------------------------------------------------------


def test_eta_eps_examples():
    spec = an.RegularizerSpec(2.0, 0.1)
    assert an.eta_eps(spec, 0.05) == pytest.approx(0.01)
    assert an.eta_eps(spec, 0.3) == pytest.approx(0.09)
    mid = an.eta_eps(spec, 0.15)
    assert 0.01 <= mid <= 0.04


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.1])
def test_regularizer_spec_rejects_bad_eps(eps):
    # eta_eps(RegularizerSpec(1, inf), 0.3) used to warn and return inf
    with pytest.raises(ValueError, match="eps must be > 0 and finite"):
        an.RegularizerSpec(1.0, eps)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(-1.0, 20.0, exclude_min=True),
    eps=st.floats(1e-3, 0.5),
    x1=st.floats(-3.0, 3.0),
)
def test_eta_eps_invariants(alpha, eps, x1):
    spec = an.RegularizerSpec(alpha, eps)
    val = an.eta_eps(spec, x1)
    assert val > 0.0
    assert val == an.eta_eps(spec, -x1)  # even in x1
    # between the plateau and the outer branch: the bridge is monotone
    lo, hi = sorted((eps**alpha, (2 * eps) ** alpha))
    if abs(x1) <= 2 * eps:
        assert lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12)
    if abs(x1) <= eps:
        assert val == pytest.approx(eps**alpha)
    if abs(x1) >= 2 * eps:
        assert val == pytest.approx(abs(x1) ** alpha)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-1.0, 20.0, exclude_min=True), eps=st.floats(1e-3, 0.5))
def test_eta_eps_bridge_monotone(alpha, eps):
    spec = an.RegularizerSpec(alpha, eps)
    s = np.linspace(eps, 2 * eps, 200)
    vals = np.asarray(an.eta_eps(spec, s))
    assert np.all(vals > 0.0)
    diffs = np.diff(vals) * np.sign(alpha) if alpha != 0 else np.diff(vals)
    assert np.all(diffs >= -1e-12 * np.max(vals))


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scale_pullback_identity_at_r_one():
    f = functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.3))
    g = an.scale_pullback(f, 1.0, 1.0)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    np.testing.assert_allclose(g(pts[:, 0], pts[:, 1]), f(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-14)


def test_scale_pullback_fixes_pure_family_members():
    # with b = 0 and ell = 0 both monomials scale by r, so u_r = u exactly
    for alpha in (0.0, 2.0):
        f = functools.partial(an.family_eval, an.FamilyParams(alpha, 1.7))
        for r in (0.5, 4.0):
            g = an.scale_pullback(f, r, alpha)
            pts = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
            np.testing.assert_allclose(
                g(pts[:, 0], pts[:, 1]), f(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-12
            )


def test_scale_pullback_chain_rule_identity():
    probe = lambda X1, X2: X1**3 + X2**3 + X1**2 * X2**2
    h = 1.0 / 128.0
    pts = np.array([[0.3, -0.2], [-0.45, 0.35], [0.1, 0.6]])
    for alpha in (0.0, 2.0):
        for r in (0.5, 4.0):
            ur = an.scale_pullback(probe, r, alpha)
            lam1, lam2 = r ** (1.0 / (2.0 + alpha)), np.sqrt(r)
            lhs = an.grushin_fd(ur, alpha, pts[:, 0], pts[:, 1], h)
            scaled = an.grushin_fd(probe, alpha, lam1 * pts[:, 0], lam2 * pts[:, 1], h)
            rhs = r ** (-alpha / (2.0 + alpha)) * scaled
            assert np.max(np.abs(lhs - rhs)) <= 1e-6
            # the probe is not in the operator kernel, so the identity is exercised
            assert np.max(np.abs(an.grushin_fd(probe, alpha, pts[:, 0], pts[:, 1], h))) > 0.1


# ---------------------------------------------------------------------------
# ODE example
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traj_alpha2():
    return an.ode_integrate(2.0)


def ode_residual(traj: an.OdeTrajectory) -> np.ndarray:
    """Per-sample ODE residual on the interior samples t[3:-3], with w''
    from the 6th-order centered difference of the stored w' samples: no use
    of the closed-form acceleration the integrator steps with."""
    wp, h, a = traj.wp, traj.step, traj.alpha
    wacc = (-wp[:-6] + 9.0 * wp[1:-5] - 45.0 * wp[2:-4] + 45.0 * wp[4:-2] - 9.0 * wp[5:-1] + wp[6:]) / (60.0 * h)
    return a * (a + 2.0) / 4.0 * traj.w[3:-3] * wacc - (a + 2.0) ** 2 / 4.0 * wp[3:-3] ** 2 - 1.0


def test_ode_initial_sample_and_validation(traj_alpha2):
    assert traj_alpha2.t[0] == 0.0
    assert traj_alpha2.w[0] == 1.0 and traj_alpha2.wp[0] == 1.0
    assert not traj_alpha2.truncated
    with pytest.raises(ValueError):
        an.ode_integrate(0.0)
    with pytest.raises(ValueError):
        an.ode_integrate(-1.0 + 0.5)


def test_ode_first_step_against_independent_oracle(traj_alpha2):
    # frozen from a scipy solve_ivp RK45 run at rtol=1e-13, atol=1e-15;
    # the 2nd-order Taylor value 1 + t + 1.25 t^2 gives 1.00100125
    assert traj_alpha2.w[1] == pytest.approx(1.0010012512514077, abs=1e-12)
    assert traj_alpha2.w[1] == pytest.approx(1.00100125, abs=1e-8)


def test_ode_residual_and_shape_invariants(traj_alpha2):
    res = ode_residual(traj_alpha2)
    assert np.max(np.abs(res)) <= 1e-8
    assert np.all(np.diff(traj_alpha2.w) > 0)  # strictly increasing
    assert np.all(np.diff(traj_alpha2.wp) > 0)  # convex


def test_ode_blowup_guard_truncates():
    traj = an.ode_integrate(0.7)
    assert traj.truncated
    assert traj.t[-1] < 0.5


def test_ode_solution_eval(traj_alpha2):
    assert an.ode_solution_eval(traj_alpha2, 0.0, 0.3) == 0.0
    assert an.ode_solution_eval(traj_alpha2, 1.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        an.ode_solution_eval(traj_alpha2, 1.0, 0.7)

    # brute-force determinant residual at (1, 0.1) with h = 1e-4
    h = 1e-4
    u = functools.partial(an.ode_solution_eval, traj_alpha2)
    x0, y0 = 1.0, 0.1
    u11 = (u(x0 + h, y0) - 2 * u(x0, y0) + u(x0 - h, y0)) / h**2
    u22 = (u(x0, y0 + h) - 2 * u(x0, y0) + u(x0, y0 - h)) / h**2
    u12 = (u(x0 + h, y0 + h) - u(x0 + h, y0 - h) - u(x0 - h, y0 + h) + u(x0 - h, y0 - h)) / (4 * h * h)
    assert abs(u11 * u22 - u12**2 - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# barriers
# ---------------------------------------------------------------------------


def test_barrier_examples():
    case1 = an.BarrierSpec("case1", 10.0, 2.0)
    assert an.barrier_L_residual(case1, 2.0, 0.5) == pytest.approx(-30.0)
    assert an.barrier_L_residual(case1, 1.5, 0.0) == 0.0
    case2 = an.BarrierSpec("case2", 8.0, -0.5)
    assert an.barrier_L_residual(case2, 1.0, 0.7) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        an.barrier_L_residual(case1, 0.5, 0.5)
    with pytest.raises(ValueError):
        an.barrier_L_residual(case1, 2.0, 1.0)  # p2 = 1 excluded


def test_barrier_spec_validation():
    with pytest.raises(ValueError):
        an.BarrierSpec("case1", 1.0, -0.5)
    with pytest.raises(ValueError):
        an.BarrierSpec("case2", 1.0, 0.5)
    with pytest.raises(ValueError):
        an.BarrierSpec("case1", 0.0, 1.0)
    with pytest.raises(ValueError):
        an.BarrierSpec("case3", 1.0, 1.0)


def test_barrier_nonpositive_on_rectangles():
    for variant, alpha in (("case1", 2.0), ("case1", 0.0), ("case2", -0.5)):
        (lo, hi), _ = an.BarrierSpec(variant, 1.0, alpha).rectangle
        P1, P2 = np.meshgrid(
            np.linspace(lo, hi, 100), np.linspace(0.0, 1.0, 100, endpoint=False), indexing="ij"
        )
        for c in (1.0, 10.0, 100.0):
            res = an.barrier_L_residual(an.BarrierSpec(variant, c, alpha), P1, P2)
            assert np.max(res) <= 1e-13


def test_barrier_roots_against_independent_rerun():
    r1 = an.barrier_root("case1")
    r2 = an.barrier_root("case2")
    # independent root finder as oracle
    o1 = brentq(lambda p: p + p**3 / 3 - 1 / 3 - 0.5, 0.0, 1.0, xtol=1e-14)
    o2 = brentq(lambda p: p / 16 + p**3 / 3 - 1 / 3 - 1 / 32, 0.0, 1.0, xtol=1e-14)
    assert abs(r1 - o1) <= 1e-12
    assert abs(r2 - o2) <= 1e-12
    assert r1 == pytest.approx(0.712676, abs=1e-5)
    assert r2 == pytest.approx(0.969735, abs=1e-5)
    # both defining functions are strictly increasing on (0, 1): unique root
    p = np.linspace(1e-4, 1 - 1e-4, 500)
    assert np.all(np.diff(p + p**3 / 3) > 0)
    assert np.all(np.diff(p / 16 + p**3 / 3) > 0)
    with pytest.raises(ValueError):
        an.barrier_root("case9")


# ---------------------------------------------------------------------------
# calling convention: coordinates in, broadcasting like numpy
# ---------------------------------------------------------------------------

coords = arrays(np.float64, st.integers(1, 6), elements=st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-0.9, 4.0),
    a=st.floats(0.3, 3.0),
    b=st.floats(-2.0, 2.0),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    height=st.floats(0.05, 2.0),
    x1=coords,
    x2=coords,
)
def test_closed_forms_agree_on_arrays_and_on_float_pairs(alpha, a, b, center, height, x1, x2):
    # a column of x1 against a row of x2 broadcasts to the full table of pairs
    X1, X2 = x1[:, None], x2[None, :]
    fam = an.FamilyParams(alpha, a, b, (0.5, -0.25, 0.75))
    spec = an.SectionSpec(alpha, center, height)
    for f in (
        functools.partial(an.family_eval, fam),
        functools.partial(an.dual_closed_form, fam),
        functools.partial(an.phi_eval, alpha),
    ):
        table = f(X1, X2)
        assert table.shape == (len(x1), len(x2))
        pairwise = [[f(float(p), float(q)) for q in x2] for p in x1]
        assert all(isinstance(v, float) for row in pairwise for v in row)
        # numpy's vectorized power may differ from the scalar one in the last bits
        np.testing.assert_allclose(table, pairwise, rtol=1e-13, atol=1e-13)

    inside = an.section_contains(spec, X1, X2)
    assert inside.shape == (len(x1), len(x2))
    c1, c2 = center
    g1, g2 = an.phi_grad(alpha, c1, c2)
    gap = an.phi_eval(alpha, c1, c2) + g1 * (X1 - c1) + g2 * (X2 - c2) + height - an.phi_eval(alpha, X1, X2)
    for i, p in enumerate(x1):
        for j, q in enumerate(x2):
            if abs(gap[i, j]) > 1e-9:  # away from the section boundary
                assert an.section_contains(spec, float(p), float(q)) == inside[i, j]
