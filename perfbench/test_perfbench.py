"""Tests of the benchmark's own code: span arithmetic, wrapper lifetime,
correctness judging and the seed-state counts of traced calls.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import run
import tracing
from tracing import Span


@pytest.fixture(scope="module", autouse=True)
def remove_work_dir():
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    import degenma.cli

    return degenma.cli


def test_self_time_is_span_minus_children():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("grushin.solve_dirichlet", 1.0, 4.0, parent=0),
        Span("ma.ma_solve_dirichlet", 5.0, 6.5, parent=0),
        Span("grushin.solve_dirichlet", 2.0, 3.0, parent=1),
        Span(tracing.SPLU, 2.0, 2.5, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.5, 0.5, 0.5])
    # a span nested in another of the same set is counted once
    assert tracing.covered_time(spans, ["grushin.solve_dirichlet"]) == pytest.approx(3.0)
    assert tracing.covered_time(spans, ["grushin.solve_dirichlet", "ma.ma_solve_dirichlet"]) == pytest.approx(4.5)
    assert tracing.layer_of(spans, 4) == "grushin"
    assert tracing.layer_of(spans, 0) == "experiments"


def test_bookkeeping_is_left_out_of_layer_time():
    spans = [
        Span("ma.ma_solve_dirichlet", 0.0, 4.0),
        Span(tracing.SPLU, 0.5, 1.5, parent=0, attrs={"fill_nnz": 10, "matrix": "m"}),
        Span(tracing.BOOKKEEPING, 1.5, 2.0, parent=0),
    ]
    assert tracing.covered_time(spans, ["ma.ma_solve_dirichlet"]) == pytest.approx(3.5)
    m = tracing.layer_metrics(spans)
    assert m["ma.self_s"] == pytest.approx(2.5)
    assert m["ma.factor_s"] == pytest.approx(1.0)
    assert m["grushin.factor_calls"] == 0


def test_tracer_records_parent_links():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end


def _namespaces():
    import scipy.sparse.linalg as spla

    mods = [spla] + [m for n, m in sorted(sys.modules.items()) if n.startswith("degenma")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_instrument_patches_every_namespace_and_restores(cli):
    import scipy.sparse.linalg as spla

    import degenma.grushin as gs
    import degenma.ma as mam
    from degenma.grid import GridSpec

    before = _namespaces()
    assemble, run_fn, splu = gs.assemble_operator, cli.run, spla.splu
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        # names imported by name are patched in the importing module too
        assert mam.assemble_operator is not assemble
        assert cli.run is not run_fn
        assert spla.splu is not splu
        gs.solve_dirichlet(GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9), 2.0, lambda x1, x2: 1.0 + 0.0 * x1)
    names = [s.name for s in tracer.spans]
    for name in ("grushin.solve_dirichlet", "grushin.assemble_operator", tracing.SPLU, tracing.TRISOLVE):
        assert name in names
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(RuntimeError), tracing.instrument(tracing.Tracer()):
        raise RuntimeError("body failed")
    assert gs.assemble_operator is assemble and mam.assemble_operator is assemble and spla.splu is splu


def test_judge_counts_failed_verdicts_and_digest_mismatch():
    runs = [
        {"exit": 0, "verdicts": {"a": True, "b": True}, "digest": "d1"},
        {"exit": 0, "verdicts": {"a": True, "b": True}, "digest": "d2"},
        {"exit": 1, "verdicts": {"a": True, "b": False}, "digest": "d1"},
        {"exit": None, "verdicts": {}, "digest": None},
        {"exit": 0, "verdicts": {"a": True, "b": True}, "digest": "d1"},
    ]
    failed, bad, total = run.judge(runs)
    assert (failed, bad, total) == (3, 2, 9)
    assert [r["ok"] for r in runs] == [True, False, False, False, True]


def test_pauses_are_taken_out_of_an_interval():
    pauses = [(1.0, 2.0), (3.0, 5.0), (6.0, 7.0)]
    assert run.paused(pauses, 1.5, 4.0) == 1.5
    assert run.paused(pauses, 5.0, 6.0) == 0.0
    assert run.paused([], 0.0, 9.0) == 0.0


def test_spawn_pauses_a_running_child_for_host_units():
    host = run.HostSpeed()
    start, proc, pauses = run.spawn(["-c", "import time; time.sleep(1.2); print('done')"], host)
    assert proc.returncode == 0 and proc.stdout.split() == ["done"]
    assert len(pauses) >= 2 and len(host.units) == len(pauses)
    assert all(start < a < b for a, b in pauses) and host.slowdown() > 0


def test_usage_error_is_an_exit_code():
    _, proc, _ = run.spawn([str(run.HERE / "call.py"), "harnack-scan", "--no-such-flag"])
    assert json.loads(proc.stdout.splitlines()[-1])["exit"] == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def _traced(workload: str) -> dict:
    result = run.invoke(workload, 0, trace=True)
    assert result["exit"] == 0 and all(result["verdicts"].values()) and result["digest"]
    assert 0 < result["setup_s"] < result["wall_s"] and result["peak_rss_mb"] > 0
    return result["layers"]


def test_traced_pipeline_reports_seed_state_counts():
    m = _traced("pipeline")
    assert m["ma.iterations"] == 268
    assert m["ma.trisolve_calls"] == 268
    assert m["grid.write_csv_rows"] == 173379
    assert m["grid.write_csv_s"] > 0 and m["plegendre.transform_s"] > 0
    assert m["grushin.factor_calls"] == 0


def test_traced_scan_reports_seed_state_counts():
    m = _traced("scan")
    assert m["grushin.factor_calls"] == 40
    assert m["grushin.solve_calls"] == 40
    assert m["grushin.factor_unique_ratio"] == 2 / 40
    assert m["grid.write_csv_s"] == 0 and m["ma.iterations"] == 0
