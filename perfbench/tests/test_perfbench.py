"""Tests of the benchmark itself, on tiny workloads.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_repro()

import harness  # noqa: E402

TINY = {
    "fig6_random": dict(vertices=60, edges=240, queries=2, query_edges=3),
    "svc_bsbm_q5": dict(products=100, features=8, arrivals=24, mean_gap=20),
    "skewed_cost": dict(persons=120, fans=240, likes=160, suites=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send result files to a scratch dir."""
    for name, spec in TINY.items():
        monkeypatch.setitem(harness.WORKLOADS, name, dataclasses.replace(
            harness.WORKLOADS[name], spec=spec))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _main(capsys, *args):
    code = run.main(["--seconds", "0", *args])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    code, table, line = _main(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _kind) in run.END_TO_END.items()}
    for name in line["metrics"]:
        assert line["metrics"][name]["value"] > 0, name

    code, table, line = _main(capsys, "--workload", workload, "--trace", "1")
    assert code == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _kind) in run.PER_LAYER.items()}
    for name, (unit, _kind) in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert any(row.split()[:1] == [name] and row.split()[-1] == unit
                   for row in table.splitlines()), name
    doc = json.loads((tiny / ("%s-s0-t1.json" % workload)).read_text())
    assert set(doc["fingerprint"]) >= {"cpu", "nproc", "python", "numpy",
                                       "hash_seed"}
    spans = np.load(doc["spans"])
    names = json.loads(str(spans["names"]))
    queries = json.loads(str(spans["queries"]))
    prepare = spans["name_id"] == names.index("engine.prepare")
    assert prepare.any() and (spans["query_id"][prepare] > 0).all()
    assert all(queries[q].startswith("c") for q in spans["query_id"]
               [prepare])
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(len(spans["parent"]))).all()


def test_open_loop_reports_its_latency_tail(tiny, capsys):
    _main(capsys, "--workload", "svc_bsbm_q5", "--trace", "0")
    doc = json.loads((tiny / "svc_bsbm_q5-s0-t0.json").read_text())
    extra = doc["end_to_end"]
    assert extra["svc_latency_ticks_p95"] >= extra["svc_latency_ticks_p50"]
    assert extra["failed_frac"] == 0


def test_injected_wrong_row_fails_the_run(tiny, capsys, monkeypatch):
    from repro.runtime.engine import PgxdAsyncEngine

    finalize = PgxdAsyncEngine.finalize_execution

    def one_wrong_row(self, plan, machines, metrics, context):
        result = finalize(self, plan, machines, metrics, context)
        result.result_set.rows.append((-1,) * len(result.columns))
        return result

    monkeypatch.setattr(PgxdAsyncEngine, "finalize_execution", one_wrong_row)
    code, table, line = _main(capsys, "--workload", "fig6_random",
                              "--trace", "0")
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] == line["attempted"]
    doc = json.loads((tiny / "fig6_random-s0-t0.json").read_text())
    assert doc["end_to_end"]["failed_frac"] > 0
    assert "rows differ from the oracle" in table


@pytest.mark.parametrize("workload", sorted(TINY))
def test_repeats_give_identical_deterministic_counts(tiny, workload):
    first = run.run(workload, 3, 0, trace=False)
    second = run.run(workload, 3, 0, trace=False)
    assert first["correct"] and second["correct"]
    assert first["instances"] == second["instances"]
    assert first["end_to_end"]["sim_ticks"] == \
        second["end_to_end"]["sim_ticks"]


def test_verify_flags_a_count_that_changed_between_repeats():
    def cycle(pass_index, ticks):
        outcome = harness.Outcome(0, 0, "q", rows=1, digest=7,
                                  ticks=ticks, budget=10)
        return harness.Cycle(pass_index, 0, 0.1, [outcome], 1)

    expected = {(0, "q"): (1, 7)}
    assert harness.verify([[cycle(0, 5), cycle(1, 5)]], expected) == []
    failed = harness.verify([[cycle(0, 5)], [cycle(0, 6)]], expected)
    assert len(failed) == 1
    assert "changed between repeats" in failed[0].failure


def test_settle_prices_each_event_at_its_fastest_repeat():
    def cycle(pass_index, events):
        outcomes = [harness.Outcome(0, 0, "a", span=(0, 2)),
                    harness.Outcome(0, 1, "b", span=(2, 3))]
        return harness.Cycle(pass_index, 0, sum(events), outcomes, 1,
                             events=np.array(events))

    cycles = [cycle(0, [1.0, 5.0, 2.0]), cycle(1, [3.0, 4.0, 9.0])]
    harness.settle(cycles)
    for settled in cycles:
        assert settled.fast_s == 7.0
        assert [o.fast_s for o in settled.outcomes] == [5.0, 2.0]


def test_host_scaling_touches_only_wall_times_and_rates():
    metrics = {"setup_s": 2.0, "queries_per_s": 10.0, "query_ms_p50": 4.0,
               "sim_ticks": 100, "peak_rss_mb": 50.0,
               "trace.overhead_frac": 0.5, "kernels.run_calls": 8.0}
    assert run.host_scaled(metrics, 0.5) == dict(
        metrics, setup_s=1.0, queries_per_s=20.0, query_ms_p50=2.0)


def test_fig6_seed0_reproduces_the_recorded_row():
    # BENCH_seed.json, random_1000x5000_q4e4: the Fig. 6 suite at seed 0.
    workload = harness.WORKLOADS["fig6_random"]
    inst = harness.setup_instance(workload, 0)
    _wall, outcomes, _peak = harness.run_closed_cycle(0, inst)
    assert sum(o.ticks for o in outcomes) == 1863
    assert sum(o.counters["total_ops"] for o in outcomes) == 1335005
    assert sum(o.rows for o in outcomes) == 121641


def _doc(cpu, value):
    return {
        "schema": run.SCHEMA, "workload": "w", "seconds": 1.0,
        "fingerprint": {"cpu": cpu},
        "end_to_end": {"queries_per_s": value, "sim_ticks": 100},
    }


def test_compare_refuses_wall_metrics_across_fingerprints(tmp_path, capsys):
    old, new, same = (tmp_path / n for n in ("old", "new", "same"))
    old.write_text(json.dumps(_doc("cpu A", 2.0)))
    new.write_text(json.dumps(_doc("cpu B", 4.0)))
    same.write_text(json.dumps(_doc("cpu A", 4.0)))
    assert run.compare(old, new) == 3
    out = capsys.readouterr().out
    assert "queries_per_s" in out and "refused" in out
    assert "x1.0000" in out  # sim_ticks is still compared
    assert run.compare(old, same) == 0
    assert "x2.0000" in capsys.readouterr().out


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6_random",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: unit for name, (unit, _kind) in table.items()}
