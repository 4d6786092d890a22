import functools

import numpy as np
import pytest

from degenma import analytic as an
from degenma import grid as gr
from degenma import ma
from degenma import plegendre as pl


def test_pure_parabola_transforms_exactly():
    # p2(x2) is linear, so the piecewise-linear inversion and the
    # slope-consistent values are both exact
    for n in (17, 33, 48):
        spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
        u = gr.sample(spec, lambda X, Y: 0.5 * Y**2 + 0.0 * X)
        dual = pl.forward_transform(u)
        exact = gr.sample(dual.spec, lambda P1, P2: 0.5 * P2**2 + 0.0 * P1)
        assert np.max(np.abs(dual.values - exact.values)) <= 1e-10
        assert pl.involution_check(u) <= 1e-10


def test_family_alpha_zero_matches_known_dual():
    spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(0.0, 1.0)))
    dual = pl.forward_transform(u)
    exact = gr.sample(dual.spec, lambda P1, P2: 0.5 * (-(P1**2) + P2**2))
    assert np.max(np.abs(dual.values - exact.values)) <= 1e-10
    assert (dual.spec.y_lo, dual.spec.y_hi) == (pytest.approx(-1.0), pytest.approx(1.0))


def test_dual_grid_metadata():
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 17, 33)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5)))
    dual = pl.forward_transform(u)
    assert isinstance(dual, gr.GridFunction)
    assert (dual.spec.nx, dual.spec.ny) == (spec.nx, spec.ny)
    np.testing.assert_allclose(dual.spec.x_nodes(), spec.x_nodes())
    lo, hi = dual.spec.y_lo, dual.spec.y_hi
    assert lo == pytest.approx(0.5 - 1.0) and hi == pytest.approx(-0.5 + 1.0)


@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_involution_second_order_for_family_with_cross_term(alpha):
    fam = an.FamilyParams(alpha, 1.0, 0.5)
    errs = []
    for n in (33, 65, 129):
        spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, n, 2 * n - 1)
        u = gr.sample(spec, functools.partial(an.family_eval, fam))
        errs.append(pl.involution_check(u))
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_involution_error_unchanged_by_constant_shift():
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 33, 65)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(2.0, 1.0, 0.5)))
    shifted = gr.GridFunction(spec, u.values + 3.7)
    assert pl.involution_check(shifted) == pytest.approx(pl.involution_check(u), abs=1e-12)


def test_concave_input_reports_offending_column():
    spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17)
    u = gr.sample(spec, lambda X, Y: -(Y**2) + 0.0 * X)
    with pytest.raises(ValueError, match="column"):
        pl.forward_transform(u)


def test_empty_dual_range_raises():
    # u2 = b x1 + x2/a: with a = 2, b = 0.5 on [-1,1]^2 the column slope
    # intervals shrink to a point
    spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(1.0, 2.0, 0.5)))
    with pytest.raises(ValueError, match="empty dual range"):
        pl.forward_transform(u)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_dual_convex_in_p2_concave_in_p1(alpha):
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 49, 97)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(alpha, 1.5, 0.4)))
    dual = pl.forward_transform(u)
    v = dual.values
    d22 = v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]
    d11 = v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]
    assert np.min(d22) / dual.spec.hy**2 >= -1e-9
    assert np.max(d11) / dual.spec.hx**2 <= 1e-9


def test_transform_injective_per_column():
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 17, 33)
    u = gr.sample(spec, functools.partial(an.family_eval, an.FamilyParams(1.0, 1.0, 0.3)))
    p = pl._x2_gradient(u)
    assert np.all(np.diff(p, axis=1) > 0)


def test_grushin_residual_on_sampled_dual():
    errs = []
    for n in (65, 129):
        spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
        dual = gr.sample(spec, functools.partial(an.dual_closed_form, an.FamilyParams(2.0, 1.0)))
        errs.append(pl.grushin_residual(dual, 2.0))
    assert errs[1] <= 0.3 * errs[0] + 1e-12

    affine = gr.sample(gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17), lambda X, Y: 1 + 2 * X - 3 * Y)
    assert pl.grushin_residual(affine, 1.0) <= 1e-12


def test_grushin_residual_exclusion_errors():
    # 5 nodes on [-1, 1]: the interior columns -0.5, 0, 0.5 all lie within
    # two columns of the line
    spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    dual = gr.GridFunction(spec, np.zeros((5, 5)))
    with pytest.raises(ValueError, match="too small"):
        pl.grushin_residual(dual, 1.0)


def test_pipeline_smoke_ma_to_dual():
    fam = an.FamilyParams(1.0, 2.0, 0.5)
    spec = gr.GridSpec(-1.0, 1.0, -2.0, 2.0, 33, 65)
    u, rep = ma.ma_solve_dirichlet(spec, 1.0, functools.partial(an.family_eval, fam))
    assert rep.converged
    dual = pl.forward_transform(u)
    assert pl.grushin_residual(dual, 1.0) < 0.2
