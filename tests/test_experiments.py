import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degenma
from degenma import analytic as an
from degenma import cli
from degenma import experiments as ex
from degenma import grid as gr
from degenma import grushin as gs
from degenma.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    fit_family_from_dual,
    load_config_file,
    make_config,
    random_positive_boundary,
    run,
)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="foo")
    with pytest.raises(ValueError, match="unknown experiment"):
        make_config("foo")


def test_grid_sizes_must_increase():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="barrier-check", grid_sizes=(65, 65))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        """
# comment line
alpha = 1.5   # trailing comment
grid_sizes = 33, 65
domain = -1, 1, -1/2, 1/2
seed = 9
save_fields = true
"""
    )
    cfg = make_config("convergence-grushin", config_path=path)
    assert cfg.alpha == 1.5
    assert cfg.grid_sizes == (33, 65)
    assert cfg.domain == (-1.0, 1.0, -0.5, 0.5)
    assert cfg.seed == 9
    assert cfg.save_fields is True

    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config_file(bad)

    unknown = tmp_path / "unknown.txt"
    unknown.write_text("nonsense = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        make_config("barrier-check", config_path=unknown)


def test_override_precedence(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("alpha = 1.0\nseed = 5\n")
    cfg = make_config("barrier-check", config_path=path, alpha=0.5)
    assert cfg.alpha == 0.5  # flag beats file
    assert cfg.seed == 5  # file beats default
    assert make_config("barrier-check").alpha == 2.0


def test_harnack_scan_row_count():
    cfg = make_config(
        "harnack-scan", grid_sizes=(41,), n_seeds=20, domain=(-1.25, 1.25, -1.5, 1.5)
    )
    summary = run(cfg)
    assert len(summary.rows) == 20
    assert summary.verdicts["positive_infimum"]


def test_liouville_fit_on_exact_dual_bypassing_solvers():
    # dual of the family (a, b) carries p2-curvature a and cross term -a*b
    a, b = 2.0, 0.5
    spec = gr.GridSpec(-1.0, 1.0, -0.5, 0.5, 65, 33)
    dual = gr.sample(spec, functools.partial(an.dual_closed_form, an.FamilyParams(1.0, a, -a * b)))
    a_hat, b_hat, stdev = fit_family_from_dual(dual)
    assert a_hat == pytest.approx(a, abs=1e-9)
    assert b_hat == pytest.approx(b, abs=1e-9)
    assert stdev <= 1e-9


def test_metrics_reproducibility_bit_identical(tmp_path):
    digests = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        cfg = make_config(
            "derivative-bound-scan", out_dir=str(out), seed=13, grid_sizes=(49,)
        )
        run(cfg)
        digests.append(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_liouville_fit_outputs_equal_across_processes(tmp_path):
    # both solvers, the transform and the CSV writers, in two interpreters
    # with different hash seeds: every output file is the same bytes
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid_sizes = 33, 65\n")
    src = str(Path(degenma.__file__).resolve().parents[1])
    digests = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["liouville-fit", "--save-fields", "--config", str(cfg), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "degenma.cli", *argv], env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in out.glob("dual_*.csv"))
        assert names == ["dual_33.csv", "dual_65.csv"]
        digests.append({n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in ["metrics.csv", *names]})
    assert digests[0] == digests[1]


def test_cli_import_does_not_load_scipy_optimize():
    # only barrier-check needs brentq; it imports it when it runs
    src = str(Path(degenma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, degenma.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_summary_json_contract(tmp_path):
    out = tmp_path / "out"
    cfg = make_config("scaling-check", out_dir=str(out))
    summary = run(cfg)
    payload = json.loads((out / "summary.json").read_text())
    assert set(payload) == {"experiment", "config_echo", "rows", "verdicts", "wall_clock_seconds"}
    assert payload["experiment"] == "scaling-check"
    assert payload["verdicts"] == {k: bool(v) for k, v in summary.verdicts.items()}
    # verdicts recomputable from rows
    worst = max(r["residual"] for r in payload["rows"])
    assert payload["verdicts"]["identity_within_tolerance"] == (worst <= 1e-6)
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == EXPERIMENTS["scaling-check"][1]


def test_barrier_check_verdicts():
    summary = run(make_config("barrier-check"))
    assert summary.all_pass()
    roots = {r["variant"]: r for r in summary.rows if r["kind"] == "root"}
    assert abs(roots["case1"]["value"] - roots["case1"]["reference"]) <= 1e-12
    assert abs(roots["case2"]["value"] - roots["case2"]["reference"]) <= 1e-12


def test_doubling_check_quick():
    summary = run(make_config("doubling-check", alpha=0.0, resolution=512))
    assert summary.verdicts["offcenter_positive"]
    assert summary.verdicts["mu_infty_pairs_proper"]
    centered = [r for r in summary.rows if r["kind"] == "centered_ratio"][0]
    assert centered["reference"] == pytest.approx(0.25)


def test_doubling_check_labels_the_configured_center():
    summary = run(make_config("doubling-check", alpha=0.0, resolution=256, center=(0.5, 0.0)))
    off = [r for r in summary.rows if r["kind"] == "offcenter_ratio"][0]
    assert (off["cx"], off["cy"]) == (0.5, 0.0)
    omega = lambda X1, X2: (np.abs(X1) <= 1.0) & (np.abs(X2) <= 1.0)
    expected = an.doubling_ratio(0.0, omega, (-1.0, 1.0, -1.0, 1.0), (0.5, 0.0), (0.3, 0.2), 0.0, 256)
    assert off["value"] == expected


def test_legendre_roundtrip_experiment():
    summary = run(make_config("legendre-roundtrip", grid_sizes=(33, 65)))
    assert summary.all_pass()


def test_holder_scan_experiment_small():
    summary = run(make_config("holder-scan", grid_sizes=(41, 81), n_seeds=5, n_pairs=400))
    assert summary.all_pass()
    assert len(summary.rows) == 10
    assert all(r["ratio"] > 0 for r in summary.rows)


def test_strictconvexity_demo_small_grid():
    summary = run(
        make_config(
            "strictconvexity-demo",
            grid_sizes=(65,),
            fp_tolerance=1e-6,
            max_iterations=6000,
        )
    )
    assert summary.verdicts["ode_flat_on_line"]
    assert summary.verdicts["section_boundary_separated"]
    assert summary.verdicts["comparison_bound"]
    assert summary.verdicts["ma_converged"]
    iterations = [r["value"] for r in summary.rows if (r["part"], r["metric"]) == ("ma", "iterations")]
    assert len(iterations) == 1 and isinstance(iterations[0], int) and 1 <= iterations[0] < 6000


def test_solver_failure_becomes_failing_verdict():
    # strictconvexity-demo requires alpha > 0; the run must not raise
    summary = run(make_config("strictconvexity-demo", alpha=-0.5))
    assert summary.verdicts == {"completed": False}
    assert "error" in summary.config_echo


def test_random_positive_boundary_properties():
    rng = np.random.default_rng(4)
    g = random_positive_boundary(rng, (-1.0, 1.0, -1.0, 1.0))
    t = np.linspace(-1, 1, 257)
    edges = np.concatenate(
        [g(t, np.full_like(t, -1.0)), g(t, np.full_like(t, 1.0)), g(np.full_like(t, -1.0), t), g(np.full_like(t, 1.0), t)]
    )
    assert np.min(edges) >= 0.49
    g2 = random_positive_boundary(np.random.default_rng(4), (-1.0, 1.0, -1.0, 1.0))
    np.testing.assert_array_equal(g(t, np.full_like(t, 1.0)), g2(t, np.full_like(t, 1.0)))


def _reference_random_positive_boundary(rng, domain):
    # the boundary data as first written: one closure that evaluates the
    # polynomial afresh at the 4 x 4097 offset points for every seed
    x_lo, x_hi, y_lo, y_hi = domain
    lx, ly = x_hi - x_lo, y_hi - y_lo
    coef = rng.uniform(-1.0, 1.0, size=(3, 4))

    def raw(X1, X2):
        sx = 2.0 * np.pi * (np.asarray(X1) - x_lo) / lx
        sy = 2.0 * np.pi * (np.asarray(X2) - y_lo) / ly
        total = np.zeros(np.broadcast(X1, X2).shape)
        for m in range(1, 4):
            c1, c2, c3, c4 = coef[m - 1]
            total = total + (
                c1 * np.cos(m * sx)
                + c2 * np.sin(m * sy)
                + c3 * np.cos(m * (sx + sy))
                + c4 * np.sin(m * sx) * np.cos(0.5 * sy)
            ) / (m * m)
        return total

    t = np.linspace(0.0, 1.0, 4097)
    bx = np.concatenate([x_lo + t * lx, x_lo + t * lx, np.full_like(t, x_lo), np.full_like(t, x_hi)])
    by = np.concatenate([np.full_like(t, y_lo), np.full_like(t, y_hi), y_lo + t * ly, y_lo + t * ly])
    offset = float(np.min(raw(bx, by)))
    return lambda X1, X2: raw(X1, X2) - offset + 0.5


@pytest.mark.parametrize("domain", [(-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, -2.0, 2.0), (-0.3, 1.7, 0.25, 0.75)])
def test_random_positive_boundary_matches_the_uncached_closure(domain):
    # interleaved domains miss the one-entry offset cache in turn
    spec = gr.GridSpec(*domain, 33, 17)
    X1, X2 = spec.meshgrid()
    ring = spec.boundary_mask()
    for seed in (0, 1, 7, 123):
        for dom in (domain, (-1.0, 1.0, -1.0, 1.0)):
            g = random_positive_boundary(np.random.default_rng(seed), dom)
            ref = _reference_random_positive_boundary(np.random.default_rng(seed), dom)
            np.testing.assert_array_equal(g(X1[ring], X2[ring]), ref(X1[ring], X2[ring]))
            # scalars and broadcasting pairs keep the reference's shapes and bits
            np.testing.assert_array_equal(g(X1[:, :1], X2[:1, :]), ref(X1[:, :1], X2[:1, :]))
            assert g(0.1, domain[2]) == ref(0.1, domain[2])


def test_seeded_scan_samples_the_offset_points_and_bisects_once():
    ex._ring_trig.cache_clear()
    an._section_bbox.cache_clear()
    summary = run(make_config("harnack-scan", grid_sizes=(21, 41), n_seeds=3))
    assert len(summary.rows) == 6
    assert ex._ring_trig.cache_info().misses == 1
    assert an._section_bbox.cache_info().misses == 1


def test_warm_caches_write_the_same_metrics(tmp_path):
    for cached in (ex._ring_trig, an._section_bbox, gs._node_mask, gs._factor):
        cached.cache_clear()
    digests = []
    for name in ("cold", "warm"):
        run(make_config("harnack-scan", out_dir=str(tmp_path / name)))
        digests.append(hashlib.sha256((tmp_path / name / "metrics.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_cli_exit_codes(tmp_path):
    assert cli.main(["barrier-check", "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "metrics.csv").exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["definitely-not-an-experiment"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert cli.main(["barrier-check", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "experiment, line",
    [
        pytest.param("harnack-scan", line, id=line)
        for line in (
            "save_fields = ture",
            "eps_rule = abc",
            "eps_rule = -0.1",
            "n_seeds = 0",
            "gamma = 1.5",
            "gamma = 0",
            "resolution = 0",
            "resolution = 3",
            "tau = 0",
            "n_pairs = 0",
            "exclude_k = 0",
            "np2 = 2",
            "max_iterations = 0",
            "fp_tolerance = 0",
            "ode_step = 0",
            "ode_t_max = -0.5",
            "family_a = 0",
            "semi_axes = -0.3, 0.2",
            "semi_axes = 0.3",
            "r_values = -1, 2",
            "c_values = 0, 1",
            "alpha_case2 = 0.5",
            "domain = 1, -1, -1, 1",
            "eps_list = 1/32, 1/16",
            "eps_list = 1/16, 0",
            "center = 5, 5",
            "center = 0, 1.6",
            "center = 0.1",
            "center = nan, 0",
            "solver_tol = 1e-10",
            # 17 and 33 nodes are not commensurate with [-1.25, 1.25] x [-1.5, 1.5]
            "grid_sizes = 17, 33",
            "grid_sizes = 1",
        )
    ]
    + [pytest.param("convergence-grushin", "grid_sizes = 2", id="convergence-grushin: grid_sizes = 2")]
    # doubling-check's default off-centre point (0.35, 0.1) is outside this domain
    + [pytest.param("doubling-check", "domain = -0.2, 0.2, -0.2, 0.2", id="doubling-check: domain = -0.2, 0.2, -0.2, 0.2")],
)
def test_cli_bad_config_is_a_usage_error(tmp_path, capsys, experiment, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "degenma: error:" in err
    if experiment == "doubling-check":
        assert "center (0.35, 0.1) must be two values inside domain (-0.2, 0.2, -0.2, 0.2)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [
        "eps_rule = 2h",
        "np2 = 0",
        "exclude_k = 2",
        "family_ell = 0, 0, 0",
        "tau = 0.05",
        "ode_t_max = 0.5",
        "ode_step = 1e-3",
        "semi_axes = 0.3, 0.2",
        "rotation_deg = 30",
        "c_values = 1, 10, 100",
        "alpha_case2 = -0.5",
        "r_values = 0.5, 4",
        "eps_list = 1/16, 1/32, 1/64",
    ],
)
def test_cli_removed_config_key_is_unknown(tmp_path, capsys, line):
    # these settings are constants of the experiments that read them
    path = tmp_path / "removed.cfg"
    path.write_text(line + "\n")
    assert cli.main(["barrier-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    key = line.split("=")[0].strip()
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_out_of_range_gamma_flag_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["holder-scan", "--gamma", "1.5", "--out", str(tmp_path / "out")]) == 2
    assert "gamma must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, alpha", [("convergence-grushin", "-2"), ("harnack-scan", "-1")])
def test_cli_out_of_range_alpha_flag_is_a_usage_error(tmp_path, capsys, experiment, alpha):
    assert cli.main([experiment, "--alpha", alpha, "--out", str(tmp_path / "out")]) == 2
    assert "alpha must be > -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_default_config_is_valid():
    for name in EXPERIMENTS:
        assert make_config(name).experiment == name


def test_cli_help_documents_metrics_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name, (_, columns, _) in EXPERIMENTS.items():
        assert name in text
        assert columns in text
