import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenma import grid as gr


def read_csv(path) -> gr.GridFunction:
    """Inverse of gr.write_csv (expects the exact node layout it writes)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("expected three CSV columns")
    x1, x2, vals = data[:, 0], data[:, 1], data[:, 2]
    nx = int(np.argmax(x2 != x2[0])) or len(x2)
    if len(vals) % nx != 0:
        raise ValueError("rows do not form a full rectangular grid")
    ny = len(vals) // nx
    spec = gr.GridSpec(float(x1[0]), float(x1[nx - 1]), float(x2[0]), float(x2[-1]), nx, ny)
    return gr.GridFunction(spec, vals.reshape(ny, nx).T)


def unit_spec(n=17, lo=-1.0, hi=1.0):
    return gr.GridSpec(lo, hi, lo, hi, n, n)


def test_spec_validation():
    with pytest.raises(ValueError):
        gr.GridSpec(1.0, 0.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        gr.GridSpec(0.0, 1.0, 0.0, 1.0, 2, 5)


def test_spacings_and_nodes():
    spec = gr.GridSpec(0.0, 1.0, -2.0, 2.0, 5, 9)
    assert spec.hx == pytest.approx(0.25)
    assert spec.hy == pytest.approx(0.5)
    assert spec.x_nodes()[0] == 0.0 and spec.x_nodes()[-1] == 1.0
    assert spec.y_nodes()[4] == pytest.approx(0.0)


def test_grid_function_validation():
    spec = unit_spec(5)
    with pytest.raises(ValueError):
        gr.GridFunction(spec, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        gr.GridFunction(spec, np.full((5, 5), np.nan))


def test_stencils_exact_on_quadratics():
    spec = gr.GridSpec(-1.0, 1.0, -0.5, 1.5, 33, 17)
    d11, d22, d12 = gr.second_differences(spec, gr.sample(spec, lambda X, Y: X**2).values)
    assert np.max(np.abs(d11 - 2.0)) <= 1e-13
    assert np.max(np.abs(d22)) <= 1e-13
    assert np.max(np.abs(d12)) <= 1e-13
    d11, d22, d12 = gr.second_differences(spec, gr.sample(spec, lambda X, Y: X * Y + 3.0 * Y**2).values)
    assert np.max(np.abs(d11)) <= 1e-12
    assert np.max(np.abs(d22 - 6.0)) <= 1e-12
    assert np.max(np.abs(d12 - 1.0)) <= 1e-12
    w = gr.sample(spec, lambda X, Y: np.full(np.broadcast(X, Y).shape, 3.25))
    for out in gr.second_differences(spec, w.values):
        assert out.shape == (spec.nx - 2, spec.ny - 2)  # interior nodes only
        assert np.max(np.abs(out)) <= 1e-13


def test_second_difference_convergence_order():
    errs = []
    hs = []
    for n in (33, 65, 129):
        spec = gr.GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
        u = gr.sample(spec, lambda X, Y: np.sin(X) * np.sin(Y))
        exact = gr.sample(spec, lambda X, Y: -np.sin(X) * np.sin(Y))
        d11, _, _ = gr.second_differences(spec, u.values)
        err = np.max(np.abs(d11 - exact.values[1:-1, 1:-1]))
        errs.append(err)
        hs.append(spec.hx)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_sup_norm_and_mask():
    spec = unit_spec(9)
    u = gr.sample(spec, lambda X, Y: np.full(np.broadcast(X, Y).shape, -3.0))
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    assert gr.sup_norm(u, mask) == 3.0
    with pytest.raises(ValueError):
        gr.sup_norm(u, np.zeros((9, 9), dtype=bool))


def test_holder_seminorm_examples():
    spec = unit_spec(33)
    const = gr.sample(spec, lambda X, Y: np.full(np.broadcast(X, Y).shape, 3.0))
    pair = np.array([[[0.0, 0.0], [0.0, 0.25]]])
    assert gr.holder_seminorm(const, 0.5, pair) == pytest.approx(0.0, abs=1e-13)
    u = gr.sample(spec, lambda X, Y: Y + 0.0 * X)
    assert gr.holder_seminorm(u, 0.5, pair) == pytest.approx(0.5)
    # adding pairs never decreases the max
    more = np.concatenate([pair, np.array([[[0.1, 0.1], [0.2, 0.3]]])])
    assert gr.holder_seminorm(u, 0.5, more) >= gr.holder_seminorm(u, 0.5, pair)
    with pytest.raises(ValueError):
        gr.holder_seminorm(u, 1.5, pair)


def test_interp_bilinear():
    spec = unit_spec(17)
    u = gr.sample(spec, lambda X, Y: X * Y)
    assert gr.interp_bilinear(u, 0.5, 0.5) == pytest.approx(0.25, abs=1e-14)
    # node value reproduced
    assert gr.interp_bilinear(u, spec.x_nodes()[3], spec.y_nodes()[5]) == pytest.approx(
        u.values[3, 5], abs=1e-14
    )
    # quadratic at a cell midpoint picks up the h^2/4 average offset
    q = gr.sample(spec, lambda X, Y: X**2)
    x_mid = spec.x_nodes()[4] + spec.hx / 2
    assert gr.interp_bilinear(q, x_mid, 0.0) == pytest.approx(x_mid**2 + spec.hx**2 / 4)
    with pytest.raises(ValueError):
        gr.interp_bilinear(u, 1.5, 0.0)


@pytest.mark.parametrize("x1, x2", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), ([0.0, np.nan], 0.5)])
def test_interp_bilinear_rejects_non_finite_points(x1, x2):
    u = gr.sample(unit_spec(17), lambda X, Y: X * Y)
    with pytest.raises(ValueError, match="finite"):
        gr.interp_bilinear(u, x1, x2)


def test_csv_round_trip(tmp_path):
    spec = gr.GridSpec(-1.0, 1.0, 0.0, 2.0, 7, 5)
    rng = np.random.default_rng(3)
    u = gr.GridFunction(spec, rng.normal(size=(7, 5)))
    path = tmp_path / "u.csv"
    gr.write_csv(u, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,value"
    v = read_csv(path)
    assert v.spec == spec
    np.testing.assert_array_equal(v.values, u.values)


def test_write_csv_matches_the_per_node_loop(tmp_path):
    spec = gr.GridSpec(-1.0, 1.0, -0.3, 2.0, 13, 7)
    u = gr.GridFunction(spec, np.random.default_rng(5).normal(size=(13, 7)) * 10.0 ** np.arange(-3, 4))
    path = tmp_path / "u.csv"
    gr.write_csv(u, path, header=("p1", "p2", "ustar"))
    xs, ys, v = spec.x_nodes(), spec.y_nodes(), u.values
    expected = "p1,p2,ustar\n" + "".join(
        f"{xs[i]:.17g},{ys[j]:.17g},{v[i, j]:.17g}\n" for j in range(spec.ny) for i in range(spec.nx)
    )
    assert path.read_text(encoding="utf-8") == expected


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    x_lo=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    y_lo=st.floats(-5.0, 5.0),
    height=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_interp_bilinear_returns_node_values_exactly(nx, ny, x_lo, width, y_lo, height, seed):
    spec = gr.GridSpec(x_lo, x_lo + width, y_lo, y_lo + height, nx, ny)
    u = gr.GridFunction(spec, np.random.default_rng(seed).normal(size=(nx, ny)))
    X1, X2 = spec.meshgrid()
    np.testing.assert_array_equal(gr.interp_bilinear(u, X1, X2), u.values)
    # one coordinate array per axis broadcasts to the same table
    np.testing.assert_array_equal(gr.interp_bilinear(u, spec.x_nodes()[:, None], spec.y_nodes()), u.values)
