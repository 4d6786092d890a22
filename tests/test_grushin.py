import dataclasses
import functools
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenma import analytic as an
from degenma import grid as gr
from degenma import grushin as gs
from degenma.experiments import make_config, run


def square(n=65, half=1.0):
    return gr.GridSpec(-half, half, -half, half, n, n)


def _second_difference_matrix(n, h):
    # Interior part of -d^2/ds^2 with Dirichlet ends: tridiag(-1, 2, -1)/h^2.
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def assemble_operator(spec, eta_interior):
    """Reference sparse matrix of the negated five-point operator on interior
    nodes, x-index major ordering: the system the package solves without
    assembling it."""
    mx, my = spec.nx - 2, spec.ny - 2
    tx = _second_difference_matrix(mx, spec.hx)
    ty = _second_difference_matrix(my, spec.hy)
    a = sp.kron(tx, sp.identity(my, format="csr"), format="csc")
    return a + sp.kron(sp.diags(eta_interior), ty, format="csc")


def test_constant_boundary_data_reproduced():
    u, rep = gs.solve_dirichlet(square(), 2.0, lambda X, Y: 5.0 + 0.0 * X)
    assert np.max(np.abs(u.values - 5.0)) <= 1e-10
    assert rep.converged and rep.iterations == 1
    assert rep.max_principle_margin >= -1e-10


def test_quadratic_dual_exact_for_alpha_zero():
    # the five-point stencil is exact on quadratics, so only solver roundoff remains
    g = functools.partial(an.dual_closed_form, an.FamilyParams(0.0, 1.3, 0.7, (0.2, -0.1, 0.3)))
    spec = square(129)
    u, rep = gs.solve_dirichlet(spec, 0.0, g)
    assert np.max(np.abs(u.values - gr.sample(spec, g).values)) <= 1e-9
    assert rep.max_principle_margin >= -1e-9


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.0])
def test_affine_data_exact_for_every_alpha(alpha):
    g = lambda X, Y: 0.4 - 0.3 * X + 1.1 * Y
    spec = square(33)
    for eps in (0.1, 0.01):
        u, _ = gs.solve_dirichlet(spec, alpha, g, eps=eps)
        assert np.max(np.abs(u.values - gr.sample(spec, g).values)) <= 1e-9


def test_linearity_of_the_solve():
    spec = square(49)
    g1 = lambda X, Y: np.cos(X) + Y**2
    g2 = lambda X, Y: np.sin(X + Y)
    lam = 2.75
    u1, _ = gs.solve_dirichlet(spec, 1.0, g1)
    u2, _ = gs.solve_dirichlet(spec, 1.0, g2)
    u12, _ = gs.solve_dirichlet(spec, 1.0, lambda X, Y: g1(X, Y) + lam * g2(X, Y))
    assert np.max(np.abs(u12.values - u1.values - lam * u2.values)) <= 1e-9


def test_symmetry_inherited_from_even_data():
    spec = square(49)
    g = lambda X, Y: np.cos(2 * X) + Y**3
    u, _ = gs.solve_dirichlet(spec, 1.5, g)
    assert np.max(np.abs(u.values - u.values[::-1, :])) <= 1e-9


def test_manufactured_convergence_alpha_two():
    g = functools.partial(an.dual_closed_form, an.FamilyParams(2.0, 1.0))
    errs = []
    for n in (65, 129):
        spec = square(n)
        u, rep = gs.solve_dirichlet(spec, 2.0, g)
        errs.append(np.max(np.abs(u.values - gr.sample(spec, g).values)))
        assert rep.max_principle_margin >= -1e-9
    assert errs[1] < errs[0]
    # pilot-calibrated bounds, frozen after the first run of this configuration
    # (measured 4.09e-5 and 7.66e-6); never retuned
    assert errs[0] <= 1e-4
    assert errs[1] <= 2e-5


def test_max_principle_margin_on_oscillatory_data():
    spec = square(65)
    u, rep = gs.solve_dirichlet(spec, 2.0, lambda X, Y: np.sin(5 * X) * np.cos(3 * Y))
    assert rep.max_principle_margin >= -1e-9
    bd = spec.boundary_mask()
    assert np.max(u.values) <= np.max(u.values[bd]) + 1e-9


def test_boundary_array_forms_and_validation():
    spec = square(17)
    bd = spec.boundary_mask()
    arr = gs.boundary_array(spec, lambda X, Y: X + Y)
    assert arr.shape == (17, 17)
    np.testing.assert_array_equal(arr[bd], gr.sample(spec, lambda X, Y: X + Y).values[bd])
    # only the boundary ring is sampled; interior entries are exactly 0
    np.testing.assert_array_equal(arr[~bd], 0.0)
    # a scalar-valued callable is broadcast to every boundary node
    scalar = gs.boundary_array(spec, lambda X, Y: 2.5)
    np.testing.assert_array_equal(scalar[bd], 2.5)
    np.testing.assert_array_equal(scalar[~bd], 0.0)
    with pytest.raises(ValueError):
        gs.boundary_array(spec, lambda X, Y: np.where((X == -1.0) & (Y == -1.0), np.nan, X + Y))
    # only callables: sampled arrays and grid functions are not boundary data
    with pytest.raises(TypeError, match="callable"):
        gs.boundary_array(spec, arr)
    with pytest.raises(TypeError, match="callable"):
        gs.boundary_array(spec, gr.sample(spec, lambda X, Y: X + Y))


def test_harnack_quotient_examples():
    spec = gr.GridSpec(-1.05, 1.05, -1.05, 1.05, 269, 269)
    const = gr.sample(spec, lambda X, Y: np.full(np.broadcast(X, Y).shape, 4.2))
    sec0 = an.SectionSpec(0.0, (0.0, 0.0), 1.0)
    assert gs.harnack_quotient(const, sec0).quotient == pytest.approx(1.0)

    u = gr.sample(spec, lambda X, Y: 2.0 + Y)
    rep = gs.harnack_quotient(u, sec0)
    assert rep.quotient == pytest.approx(3.0, rel=0.02)

    u1 = gr.sample(spec, lambda X, Y: 2.0 + X)
    rep1 = gs.harnack_quotient(u1, an.SectionSpec(2.0, (0.0, 0.0), 1.0))
    assert rep1.quotient == pytest.approx(3.0, rel=0.02)
    assert rep1.sup >= rep1.inf > 0


def test_harnack_quotient_requires_positivity_and_containment():
    spec = square(33)
    u = gr.sample(spec, lambda X, Y: Y)  # changes sign
    with pytest.raises(ValueError, match="u > 0"):
        gs.harnack_quotient(u, an.SectionSpec(0.0, (0.0, 0.0), 0.5))
    pos = gr.sample(spec, lambda X, Y: 1.0 + 0.0 * X)
    with pytest.raises(ValueError, match="contained"):
        gs.harnack_quotient(pos, an.SectionSpec(0.0, (0.0, 0.0), 4.0))


def test_holder_estimate_conventions():
    spec = square(65, half=1.6)
    inner = an.SectionSpec(0.0, (0.0, 0.0), 1.0)
    outer = an.SectionSpec(0.0, (0.0, 0.0), 2.0)
    zero = gr.sample(spec, lambda X, Y: 0.0 * X)
    assert gs.holder_estimate(zero, 0.5, inner, outer) == 0.0
    const = gr.sample(spec, lambda X, Y: np.full(np.broadcast(X, Y).shape, 7.0))
    assert gs.holder_estimate(const, 0.5, inner, outer) <= 1e-12
    with pytest.raises(ValueError):
        gs.holder_estimate(const, 0.5, outer, inner)  # inner must sit inside outer


def test_holder_estimate_stable_under_refinement():
    inner = an.SectionSpec(2.0, (0.0, 0.0), 1.0)
    outer = an.SectionSpec(2.0, (0.0, 0.0), 2.0)
    ratios = []
    for n in (81, 161):
        spec = gr.GridSpec(-1.25, 1.25, -1.5, 1.5, n, int(round(1.2 * (n - 1))) + 1)
        g = lambda X, Y: 1.0 + 0.3 * np.cos(2 * X) + 0.2 * np.sin(Y)
        u, _ = gs.solve_dirichlet(spec, 2.0, g)
        ratios.append(gs.holder_estimate(u, 0.5, inner, outer, n_pairs=500, seed=11))
    assert abs(ratios[1] - ratios[0]) / ratios[0] <= 0.10


def test_harnack_stability_between_grid_levels():
    section = an.SectionSpec(2.0, (0.0, 0.0), 1.0)
    g = lambda X, Y: 1.0 + 0.4 * np.sin(3 * X) + 0.25 * np.cos(2 * Y)
    quotients = []
    for n in (81, 161):
        spec = gr.GridSpec(-1.25, 1.25, -1.5, 1.5, n, int(round(1.2 * (n - 1))) + 1)
        u, _ = gs.solve_dirichlet(spec, 2.0, g)
        quotients.append(gs.harnack_quotient(u, section).quotient)
    assert abs(quotients[1] - quotients[0]) / quotients[0] <= 0.10


def test_derivative_bound_scan_examples():
    spec = square(65)
    rows = gs.derivative_bound_scan(spec, 2.0, lambda X, Y: 3.0 + 0.0 * X, [1 / 16, 1 / 32])
    assert all(r <= 1e-10 for _, r in rows)

    rows = gs.derivative_bound_scan(spec, 2.0, lambda X, Y: Y + 0.0 * X, [1 / 16, 1 / 32, 1 / 64])
    assert all(r == pytest.approx(1.0, abs=1e-9) for _, r in rows)

    g = lambda X, Y: 1.0 + 0.5 * np.sin(2 * X) * np.cos(Y) + 0.2 * np.cos(3 * Y)
    rows = gs.derivative_bound_scan(spec, 2.0, g, [1 / 16, 1 / 32, 1 / 64])
    ratios = [r for _, r in rows]
    assert max(ratios) / min(ratios) <= 1.5

    with pytest.raises(ValueError):
        gs.derivative_bound_scan(spec, 2.0, g, [1 / 32, 1 / 16])
    with pytest.raises(ValueError):
        gs.derivative_bound_scan(spec, 2.0, g, [0.0, -1.0])


def test_solve_report_json_round_trip():
    _, rep = gs.solve_dirichlet(square(17), 1.0, lambda X, Y: X + Y)
    payload = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert set(payload) == {
        "iterations",
        "final_residual",
        "converged",
        "max_principle_margin",
        "extras",
    }
    assert payload["converged"] is True


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(3, 12),
    ny=st.integers(3, 12),
    width=st.floats(0.1, 10.0),
    height=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_and_boundary_rhs_match_the_stencil(nx, ny, width, height, seed):
    # A u_int - b(g) = -(d11 + eta d22) u: the sparse matrix, its unknown
    # ordering and the boundary right-hand side agree with the grid stencil
    spec = gr.GridSpec(-0.5 * width, 0.5 * width, 0.0, height, nx, ny)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(nx, ny))
    eta = rng.uniform(1e-3, 10.0, size=nx - 2)
    lhs = assemble_operator(spec, eta) @ v[1:-1, 1:-1].ravel() - gs.boundary_rhs(spec, v, eta)
    d11, d22, _ = gr.second_differences(spec, v)
    scale = np.max(np.abs(v)) * (1.0 / spec.hx**2 + np.max(eta) / spec.hy**2)
    np.testing.assert_allclose(lhs, -(d11 + eta[:, None] * d22).ravel(), rtol=0, atol=1e-13 * scale)


# (spec, alpha, eps) keys that differ in one component at a time
_FACTOR_KEYS = (
    (gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17), 2.0, None),
    (gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17), 2.0, 0.3),
    (gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17), 0.5, 0.3),
    (gr.GridSpec(-1.0, 1.0, -0.5, 1.5, 13, 21), 0.5, 0.3),
)


def _smooth_data(c):
    return lambda X, Y: c[0] + c[1] * np.sin(3 * X) + c[2] * X * Y**2


@settings(max_examples=20, deadline=None)
@given(
    order=st.lists(st.integers(0, len(_FACTOR_KEYS) - 1), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_factor_solves_equal_fresh_solves(order, seed):
    # interleaved keys evict each other from the one-entry cache; every solve,
    # on a reused factor or not, is bitwise the solve on a fresh factor
    coef = np.random.default_rng(seed).normal(size=(len(order), 3))
    gs._factor.cache_clear()
    cached = []
    for k, c in zip(order, coef):
        spec, alpha, eps = _FACTOR_KEYS[k]
        cached.append(gs.solve_dirichlet(spec, alpha, _smooth_data(c), eps=eps))
    for k, c, (u, rep) in zip(order, coef, cached):
        spec, alpha, eps = _FACTOR_KEYS[k]
        gs._factor.cache_clear()
        fresh, fresh_rep = gs.solve_dirichlet(spec, alpha, _smooth_data(c), eps=eps)
        np.testing.assert_array_equal(u.values, fresh.values)
        assert rep == fresh_rep


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(3, 60),
    ny=st.integers(3, 60),
    width=st.floats(0.1, 10.0),
    height=st.floats(0.1, 10.0),
    alpha=st.none() | st.floats(-1.0, 20.0, exclude_min=True),
    eps_frac=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_solve_matches_the_sparse_reference(nx, ny, width, height, alpha, eps_frac, seed):
    # the sine-transform/tridiagonal solve of A x = b against a sparse direct
    # solve of the assembled matrix, for eta_eps (alpha=None: eta = 1)
    spec = gr.GridSpec(-0.5 * width, 0.5 * width, 0.0, height, nx, ny)
    assume(spec.hx != spec.hy)
    if alpha is None:
        eta = np.ones(nx - 2)
    else:
        eta = an.eta_eps(an.RegularizerSpec(alpha, eps_frac * width), spec.x_nodes()[1:-1])
    b = np.random.default_rng(seed).normal(size=(nx - 2) * (ny - 2))
    x = gs._SeparableFactor(spec, eta).solve(b)
    ref = spla.spsolve(assemble_operator(spec, eta), b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_separable_factor_rejects_an_indefinite_operator():
    spec = gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        gs._SeparableFactor(spec, np.full(7, -10.0))


def test_seeded_scan_factors_once_per_grid():
    gs._factor.cache_clear()
    summary = run(make_config("harnack-scan", grid_sizes=(21, 41), n_seeds=3))
    assert len(summary.rows) == 6
    assert gs._factor.cache_info().misses == 2


def test_section_node_mask_is_a_read_only_fresh_mask():
    spec = gr.GridSpec(-1.25, 1.25, -1.5, 1.5, 41, 49)
    u = gr.sample(spec, lambda X, Y: X + Y)
    section = an.SectionSpec(2.0, (0.1, -0.2), 1.0)
    gs._node_mask.cache_clear()
    for _ in range(2):
        mask = gs.section_node_mask(u, section)
        assert not mask.flags.writeable
        np.testing.assert_array_equal(mask, an.section_contains(section, *spec.meshgrid()))
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = True


def test_out_of_grid_section_raises_on_every_call():
    u = gr.sample(square(17), lambda X, Y: X + Y)
    section = an.SectionSpec(0.0, (0.0, 0.0), 4.0)
    gs._node_mask.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="not contained in the grid"):
            gs.section_node_mask(u, section)


_MASK_GRIDS = (
    gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17),
    gr.GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33),
    gr.GridSpec(-1.25, 1.25, -1.5, 1.5, 11, 13),
)
_MASK_SECTIONS = (
    an.SectionSpec(2.0, (0.0, 0.0), 0.5),
    an.SectionSpec(2.0, (0.0, 0.0), 1.0),
    an.SectionSpec(0.5, (0.2, -0.1), 0.3),
    an.SectionSpec(-0.5, (-0.3, 0.4), 0.2),
    an.SectionSpec(0.0, (0.0, 0.0), 2.0),  # leaves every grid
)


def _mask_or_error(spec, section):
    try:
        return gs.section_node_mask(gr.GridFunction(spec, np.zeros((spec.nx, spec.ny))), section)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=20, deadline=None)
@given(
    order=st.lists(
        st.tuples(st.integers(0, len(_MASK_GRIDS) - 1), st.integers(0, len(_MASK_SECTIONS) - 1)),
        min_size=1,
        max_size=16,
    )
)
def test_cached_boxes_and_masks_equal_fresh_ones(order):
    # 15 (grid, section) keys against an 8-entry mask cache: hits, misses
    # and evictions in any order give what an empty cache gives
    an._section_bbox.cache_clear()
    gs._node_mask.cache_clear()
    cached = [(an.section_bbox(_MASK_SECTIONS[k]), _mask_or_error(_MASK_GRIDS[i], _MASK_SECTIONS[k])) for i, k in order]
    for (i, k), (box, mask) in zip(order, cached):
        an._section_bbox.cache_clear()
        gs._node_mask.cache_clear()
        assert an.section_bbox(_MASK_SECTIONS[k]) == box
        fresh = _mask_or_error(_MASK_GRIDS[i], _MASK_SECTIONS[k])
        if isinstance(fresh, str):
            assert fresh == mask
        else:
            np.testing.assert_array_equal(fresh, mask)


# ---------------------------------------------------------------------------
# metamorphic invariants of the discrete Dirichlet problem
# ---------------------------------------------------------------------------


def _node_data(spec, values):
    """Boundary data taking values[i, j] at node (i, j) of spec."""

    def g(X1, X2):
        i = np.rint((np.asarray(X1) - spec.x_lo) / spec.hx).astype(int)
        j = np.rint((np.asarray(X2) - spec.y_lo) / spec.hy).astype(int)
        return values[i, j]

    return g


_invariant_cases = dict(
    nx=st.integers(3, 33),
    ny=st.integers(3, 33),
    width=st.floats(0.2, 5.0),
    height=st.floats(0.2, 5.0),
    alpha=st.floats(-1.0, 4.0, exclude_min=True),
    eps_frac=st.none() | st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)


def _invariant_setup(nx, ny, width, height, eps_frac, seed):
    # x1-symmetric domain, so reflecting x1 maps the grid (and eta) to itself
    spec = gr.GridSpec(-0.5 * width, 0.5 * width, 0.3, 0.3 + height, nx, ny)
    eps = None if eps_frac is None else eps_frac * width
    return spec, eps, np.random.default_rng(seed)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-10.0, 10.0), **_invariant_cases)
def test_solve_is_linear_in_the_data(c, nx, ny, width, height, alpha, eps_frac, seed):
    spec, eps, rng = _invariant_setup(nx, ny, width, height, eps_frac, seed)
    v1, v2 = rng.normal(size=(2, nx, ny))
    u1, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v1), eps=eps)
    u2, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v2), eps=eps)
    u12, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v1 + c * v2), eps=eps)
    scale = np.max(np.abs(v1)) + abs(c) * np.max(np.abs(v2))
    assert np.max(np.abs(u12.values - (u1.values + c * u2.values))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(**_invariant_cases)
def test_reflected_data_give_the_reflected_solution(nx, ny, width, height, alpha, eps_frac, seed):
    spec, eps, rng = _invariant_setup(nx, ny, width, height, eps_frac, seed)
    v = rng.normal(size=(nx, ny))
    u, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v), eps=eps)
    scale = np.max(np.abs(v))
    # eta is even in x1; the operator does not see x2
    for flip in (np.s_[::-1, :], np.s_[:, ::-1]):
        w, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v[flip]), eps=eps)
        assert np.max(np.abs(w.values - u.values[flip])) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(**_invariant_cases)
def test_ordered_data_give_ordered_solutions(nx, ny, width, height, alpha, eps_frac, seed):
    # the five-point operator is an M-matrix: its inverse is nonnegative
    spec, eps, rng = _invariant_setup(nx, ny, width, height, eps_frac, seed)
    v1 = rng.normal(size=(nx, ny))
    v2 = v1 + np.abs(rng.normal(size=(nx, ny))) * rng.integers(0, 2, size=(nx, ny))
    u1, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v1), eps=eps)
    u2, _ = gs.solve_dirichlet(spec, alpha, _node_data(spec, v2), eps=eps)
    assert np.all(u1.values <= u2.values + 1e-12 * np.max(np.abs(v2)))
