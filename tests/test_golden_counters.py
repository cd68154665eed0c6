"""Golden deterministic counters across the execution-mode matrix.

Every deterministic number a query run produces — the whole
:class:`~repro.cluster.metrics.QueryMetrics` record (idle ticks, control
messages and the per-machine counters included; only
``wall_time_seconds`` is left out), the summed ``stage_profile``, the
per-machine ``machine_profiles`` and a digest of the result rows — is
pinned here against a JSON fixture, for each mode of the matrix:
default, micro-stepped cursors (``bulk_kernels=False``), blocking
remote sends, reliability under the ``soak`` chaos profile, a tight
flow-control window, an 8-slot service with co-tenants, and the COST
planner.

Scheduling changes inside the simulator (which workers run, in what
order the per-step bookkeeping is done) must leave all of it equal.
Re-record the fixture only for a change that is meant to move a
simulated number::

    PYTHONPATH=src python tests/test_golden_counters.py --record
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import ClusterConfig, PgxdAsyncEngine, PlannerOptions
from repro.chaos import profile
from repro.graph import uniform_random_graph
from repro.plan import SchedulingPolicy
from repro.service import QueryService, ServiceConfig
from repro.workloads.bsbm import generate_bsbm, query5_parts

FIXTURE = Path(__file__).parent / "data" / "golden_counters.json"

QUERIES = [
    "SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
    "SELECT a, c WHERE (a)-[]->(b), (b)-[]->(c)",
    "SELECT COUNT(*) WHERE (a)-[]->(b), (b)-[]->(c), (c)-[]->(a)",
    "SELECT a, b, c WHERE (a)-[]->(b), (a)-[]->(c), b.value < c.value",
]

#: mode -> (ClusterConfig overrides, PlannerOptions overrides)
MODES = {
    "default": ({}, {}),
    "no_kernels": ({"bulk_kernels": False}, {}),
    "blocking_remote": ({"blocking_remote": True}, {}),
    "soak": ({"reliability": True, "chaos": "soak", "seed": 7}, {}),
    "tight_window": ({"flow_control_window": 1, "bulk_message_size": 4},
                     {}),
    "cost": ({}, {"scheduling": SchedulingPolicy.COST}),
}


def _config(overrides):
    overrides = dict(overrides)
    if overrides.get("chaos") is not None:
        overrides["chaos"] = profile(overrides["chaos"])
    return ClusterConfig(num_machines=3, workers_per_machine=3,
                         **overrides)


def _nonzero(record):
    """*record* without its zero fields (the fixture stays small; two
    records over the same fields are equal exactly when these are)."""
    return {name: value for name, value in record.items() if value}


def _record(result):
    """Every deterministic output of one query run, JSON-ready."""
    metrics = dataclasses.asdict(result.metrics)
    del metrics["wall_time_seconds"]
    metrics["per_machine"] = [
        _nonzero(machine) for machine in metrics["per_machine"]
    ]
    rows = repr(result.rows).encode()
    return {
        "metrics": _nonzero(metrics),
        "stage_profile": result.stage_profile,
        "machine_profiles": [
            {name: list(getattr(machine, name)) for name in machine.COUNTERS}
            for machine in result.machine_profiles
        ],
        "rows": len(result.rows),
        "rows_sha256": hashlib.sha256(rows).hexdigest(),
    }


def _graph():
    return uniform_random_graph(120, 600, seed=1234, num_types=4)


def run_mode(mode):
    cluster, planner = MODES[mode]
    engine = PgxdAsyncEngine(_graph(), _config(cluster))
    options = PlannerOptions(**planner)
    return [_record(engine.query(query, options)) for query in QUERIES]


def run_service():
    """An 8-slot service: the BSBM query-5 parts plus the random-graph
    suite's texts on one engine each, every query submitted up front so
    the scopes run as co-tenants (two submissions per text)."""
    records = []
    bsbm = generate_bsbm(num_products=60, seed=3)
    suites = [(bsbm.graph, query5_parts(bsbm, num_parts=3, seed=3)),
              (_graph(), QUERIES)]
    for graph, texts in suites:
        engine = PgxdAsyncEngine(graph, _config({}))
        service = QueryService(engine, ServiceConfig(max_concurrent=8))
        handles = [service.submit(text) for text in texts * 2]
        service.drain()
        records.extend(_record(handle.result()) for handle in handles)
    return records


def run_matrix():
    matrix = {mode: run_mode(mode) for mode in MODES}
    matrix["service"] = run_service()
    return matrix


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_matches_golden(golden, mode):
    assert run_mode(mode) == golden[mode]


def test_service_matches_golden(golden):
    assert run_service() == golden["service"]


def test_matrix_exercises_idle_and_blocking(golden):
    """The fixture covers the paths a scheduler change could skew:
    idle worker steps, flow-control blocks and quota traffic."""
    every = [record["metrics"] for records in golden.values()
             for record in records]
    assert all(m.get("total_idle_ticks", 0) > 0 for m in every)
    assert any(m.get("flow_control_blocks") for m in every)
    assert any(m.get("quota_requests") for m in every)
    assert any(m.get("retransmits") for m in every)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_counters.py --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    matrix = run_matrix()
    # One record per line: a moved counter shows up as a one-line diff.
    blocks = [
        " %s: [\n%s\n ]" % (json.dumps(mode), ",\n".join(
            "  " + json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in matrix[mode]
        ))
        for mode in sorted(matrix)
    ]
    with open(FIXTURE, "w") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print("wrote", FIXTURE)
