"""Plan-vs-actual observability: stage profiling, drift, and feedback.

PR 7's cost model prices every candidate plan and records the estimated
rows after each logical operator (``CostEstimate.stage_rows``); nothing
measured what actually happened.  This module closes that loop in three
layers:

* :class:`MachineStageProfile` — per-machine *actual* stage
  cardinalities (contexts entering each stage, neighbor candidates
  scanned, vertex-function passes, continuations emitted), snapshotted
  from the runtime's always-on stage counters when a query finishes.
  Both execution paths keep those counters, so the differential oracle
  (kernels on vs off) covers the profile bit-for-bit.
* :class:`ExecutionProfile` — the join of estimates against actuals:
  per-operator q-error, per-machine skew/imbalance ratios, and a
  straggler summary.  ``--explain-analyze`` renders it, and
  :func:`publish_drift` lands the drift gauges in the telemetry
  registry (and thus the Prometheus export).
* :class:`FeedbackStore` — profiles persisted to a deterministic
  on-disk JSON document keyed by query/graph fingerprint;
  :meth:`FeedbackStore.corrections` turns recorded actuals into
  per-operator selectivity correction factors the
  :class:`~repro.plan.cost.CostModel` applies on re-planning
  (``SchedulingPolicy.COST`` only).
"""

import hashlib
import json
import os

#: Cardinality floor for q-error: estimates and actuals below one row
#: are indistinguishable, so both sides are clamped to 1 before the
#: ratio (the standard convention from the cardinality-estimation
#: literature).
Q_ERROR_FLOOR = 1.0

#: Clamp range for feedback correction factors.  A recorded run only
#: observes one plan; wildly large factors would let a single profile
#: dominate re-planning, so corrections saturate at two orders of
#: magnitude either way.
CORRECTION_MIN = 0.01
CORRECTION_MAX = 100.0

#: On-disk feedback document schema; bump on incompatible changes.
FEEDBACK_SCHEMA = "repro-feedback/1"


def q_error(estimated, actual):
    """The symmetric estimation-error ratio ``max(est/act, act/est)``.

    Always >= 1; 1.0 means the estimate was exact.  Both sides are
    floored at :data:`Q_ERROR_FLOOR` so sub-row estimates compare
    sanely.
    """
    est = max(float(estimated), Q_ERROR_FLOOR)
    act = max(float(actual), Q_ERROR_FLOOR)
    return max(est / act, act / est)


class MachineStageProfile:
    """One machine's actual per-stage cardinalities for one query run.

    All five lists are indexed by compiled stage index:

    * ``visits`` — contexts entering the stage (vertex-function runs);
    * ``passes`` — contexts surviving the stage's checks;
    * ``remote_in`` — context weight this machine shipped into the
      stage remotely (attributed at the sender);
    * ``scanned`` — neighbor candidates / edge ids the stage's hop
      inspected;
    * ``emitted`` — continuation weight the stage produced (for the
      final stage: result rows).
    """

    __slots__ = ("machine_id", "visits", "passes", "remote_in",
                 "scanned", "emitted")

    COUNTERS = ("visits", "passes", "remote_in", "scanned", "emitted")

    def __init__(self, machine_id, visits, passes, remote_in, scanned,
                 emitted):
        self.machine_id = machine_id
        self.visits = visits
        self.passes = passes
        self.remote_in = remote_in
        self.scanned = scanned
        self.emitted = emitted

    @classmethod
    def snapshot(cls, rt):
        """Snapshot a finished :class:`~repro.runtime.machine.
        QueryMachine`'s stage counters.

        Emission is not counted separately: stage ``s`` emitted exactly
        what it routed into stage ``s + 1`` (local plus remote weight,
        both charged at the sender), and the output stage emitted one
        row per ``results_emitted``.
        """
        local_in = rt.stage_local_in
        remote_in = rt.stage_remote_in
        emitted = [
            local_in[stage] + remote_in[stage]
            for stage in range(1, len(remote_in))
        ]
        emitted.append(rt.metrics.results_emitted)
        return cls(rt.machine_id, list(rt.stage_visits),
                   list(rt.stage_passes), list(remote_in),
                   list(rt.stage_scanned), emitted)

    def total_load(self):
        """Work proxy for straggler detection: visits + scans."""
        return sum(self.visits) + sum(self.scanned)

    def to_dict(self):
        out = {"machine": self.machine_id}
        for name in self.COUNTERS:
            out[name] = list(getattr(self, name))
        return out


class ExecutionProfile:
    """Estimates joined against actuals for one executed query.

    ``operators`` rows join ``CostEstimate.stage_rows`` (when the plan
    was cost-chosen) against the passes of the last compiled stage each
    logical operator lowered to; ``skew`` rows measure per-stage
    imbalance as the max/mean ratio of machine visit counts.
    """

    def __init__(self, stages, per_machine, operators, skew, straggler):
        self.stages = stages
        self.per_machine = per_machine
        self.operators = operators
        self.skew = skew
        self.straggler = straggler

    # -- aggregates ----------------------------------------------------
    def max_q_error(self):
        errors = [row["q_error"] for row in self.operators
                  if row["q_error"] is not None]
        return max(errors) if errors else None

    def geomean_q_error(self):
        errors = [row["q_error"] for row in self.operators
                  if row["q_error"] is not None]
        if not errors:
            return None
        product = 1.0
        for error in errors:
            product *= error
        return product ** (1.0 / len(errors))

    def max_skew(self):
        ratios = [row["ratio"] for row in self.skew]
        return max(ratios) if ratios else None

    # -- rendering -----------------------------------------------------
    def drift_lines(self):
        """The EXPLAIN ANALYZE estimated-vs-actual (q-error) column."""
        if not self.operators:
            return []
        lines = ["estimated vs actual rows (q-error):"]
        for row in self.operators:
            if row["actual"] is None:
                lines.append(
                    "  op[%d] %-44s est~%-10.2f actual=?"
                    % (row["op_index"], _clip(row["op"], 44),
                       row["estimated"])
                )
            else:
                lines.append(
                    "  op[%d] %-44s est~%-10.2f actual=%-8d q=%.2f"
                    % (row["op_index"], _clip(row["op"], 44),
                       row["estimated"], row["actual"], row["q_error"])
                )
        worst = self.max_q_error()
        if worst is not None:
            lines.append("  worst q-error: %.2f" % worst)
        return lines

    def skew_lines(self):
        """The per-machine skew section."""
        if not self.skew:
            return []
        lines = ["per-machine skew (stage visits, max/mean):"]
        for row in self.skew:
            lines.append(
                "  stage %-2d ratio=%-6.2f max=%-8d (machine %d) mean=%.1f"
                % (row["stage"], row["ratio"], row["max"],
                   row["max_machine"], row["mean"])
            )
        if self.straggler is not None:
            lines.append(
                "  straggler: machine %d carried %.1f%% of the load "
                "(%d of %d visit+scan ops)"
                % (self.straggler["machine"], self.straggler["share"]
                   * 100.0, self.straggler["load"],
                   self.straggler["total"])
            )
        return lines

    def summary_lines(self):
        return self.drift_lines() + self.skew_lines()

    def to_dict(self):
        return {
            "stages": self.stages,
            "per_machine": [view.to_dict() for view in self.per_machine],
            "operators": self.operators,
            "skew": self.skew,
            "straggler": self.straggler,
            "max_q_error": self.max_q_error(),
            "geomean_q_error": self.geomean_q_error(),
        }


def _clip(text, width):
    return text if len(text) <= width else text[: width - 3] + "..."


def build_execution_profile(plan, stages, per_machine):
    """Join *plan* estimates against the actuals of one run.

    *stages* is the run's across-machine ``stage_profile`` and
    *per_machine* its :class:`MachineStageProfile` list in machine-id
    order.  Works for any plan: without a cost-chosen estimate the
    operator drift rows are empty but stage totals and skew still
    report.
    """
    operators = _join_operators(plan, stages)
    skew, straggler = _skew_rows(per_machine, len(stages))
    return ExecutionProfile(stages, per_machine, operators, skew,
                            straggler)


def _join_operators(plan, stages):
    choice = getattr(plan, "choice", None)
    chosen = getattr(choice, "chosen", None) if choice is not None \
        else None
    if chosen is None:
        return []
    # The distributed lowering threads ``op_index`` onto every visit it
    # emits for a logical operator; the *last* stage of an operator is
    # the one whose passes equal the rows surviving it.
    last_stage_for_op = {}
    for stage in plan.stages:
        op_index = getattr(stage, "op_index", None)
        if op_index is not None:
            last_stage_for_op[op_index] = stage.index
    rows = []
    for op_index, (op_repr, estimated) in enumerate(
        chosen.estimate.stage_rows
    ):
        stage_index = last_stage_for_op.get(op_index)
        actual = (
            stages[stage_index]["passes"]
            if stage_index is not None and stage_index < len(stages)
            else None
        )
        rows.append({
            "op_index": op_index,
            "op": op_repr,
            "stage": stage_index,
            "estimated": estimated,
            "actual": actual,
            "q_error": (
                q_error(estimated, actual) if actual is not None else None
            ),
        })
    return rows


def _skew_rows(per_machine, num_stages):
    if not per_machine:
        return [], None
    skew = []
    for stage in range(num_stages):
        values = [view.visits[stage] if stage < len(view.visits) else 0
                  for view in per_machine]
        total = sum(values)
        if total == 0:
            continue
        mean = total / float(len(values))
        peak = max(values)
        peak_machine = per_machine[values.index(peak)].machine_id
        skew.append({
            "stage": stage,
            "max": peak,
            "max_machine": peak_machine,
            "mean": mean,
            "ratio": peak / mean if mean > 0 else 1.0,
        })
    loads = [(view.total_load(), view.machine_id) for view in per_machine]
    total_load = sum(load for load, _mid in loads)
    straggler = None
    if total_load > 0:
        peak_load, peak_machine = max(loads)
        straggler = {
            "machine": peak_machine,
            "load": peak_load,
            "total": total_load,
            "share": peak_load / float(total_load),
        }
    return skew, straggler


def publish_drift(telemetry, profile):
    """Land the drift/skew gauges in the telemetry registry.

    The families are declared up-front by ``Telemetry.__init__`` so the
    Prometheus export has a stable family set whether or not a plan had
    estimates to join.  No-op when telemetry (or the profile) is absent.
    """
    if telemetry is None or profile is None:
        return
    for row in profile.operators:
        operator = str(row["op_index"])
        telemetry.plan_estimated_rows.labels(operator).set(
            row["estimated"]
        )
        if row["actual"] is not None:
            telemetry.plan_actual_rows.labels(operator).set(row["actual"])
            telemetry.plan_q_error.labels(operator).set(row["q_error"])
    worst = profile.max_q_error()
    if worst is not None:
        telemetry.plan_q_error_max.set(worst)
    for row in profile.skew:
        telemetry.stage_skew_ratio.labels(str(row["stage"])).set(
            row["ratio"]
        )


# ----------------------------------------------------------------------
# Fingerprints and the on-disk feedback store
# ----------------------------------------------------------------------
def query_fingerprint(query, graph=None):
    """Deterministic fingerprint of (canonical PGQL text, graph shape).

    The canonical printer (round-trip property-tested) makes textually
    different but identical queries share a fingerprint; the graph's
    vertex/edge counts scope recorded actuals to the data they were
    measured on.
    """
    from repro.pgql.printer import to_pgql

    text = to_pgql(query)
    if graph is not None:
        text = "%s|%d|%d" % (text, graph.num_vertices, graph.num_edges)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class FeedbackStore:
    """Execution profiles persisted for the planner's feedback loop.

    One JSON document (schema :data:`FEEDBACK_SCHEMA`), keyed by
    :func:`query_fingerprint`, each entry recording the chosen order and
    the per-operator estimated/actual row sequence.  Serialization is
    deterministic (sorted keys) so two identical runs write identical
    bytes.
    """

    def __init__(self, path=None):
        self.path = path
        self._entries = {}
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self):
        return len(self._entries)

    def entries(self):
        """``(fingerprint, entry)`` pairs in deterministic order."""
        return sorted(self._entries.items())

    # -- persistence ---------------------------------------------------
    def load(self, path=None):
        path = path or self.path
        with open(path) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(
                "%s is not a %s document (top level is %s, not an "
                "object)" % (path, FEEDBACK_SCHEMA, type(doc).__name__)
            )
        if doc.get("schema") != FEEDBACK_SCHEMA:
            raise ValueError(
                "%s is not a %s document (schema=%r)"
                % (path, FEEDBACK_SCHEMA, doc.get("schema"))
            )
        queries = doc.get("queries", {})
        if not isinstance(queries, dict):
            raise ValueError(
                "%s: 'queries' is %s, not an object"
                % (path, type(queries).__name__)
            )
        self._entries = queries
        return self

    def save(self, path=None):
        path = path or self.path
        doc = {"schema": FEEDBACK_SCHEMA, "queries": self._entries}
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def to_dict(self):
        return {"schema": FEEDBACK_SCHEMA, "queries": dict(self.entries())}

    # -- recording and consumption -------------------------------------
    def record(self, query, graph, choice, profile):
        """Record one executed cost-chosen plan's estimate-vs-actual
        operator rows; returns the fingerprint (None without a cost
        choice to join against)."""
        from repro.pgql.printer import to_pgql

        chosen = getattr(choice, "chosen", None) if choice is not None \
            else None
        if chosen is None or not profile.operators:
            return None
        key = query_fingerprint(query, graph)
        self._entries[key] = {
            "pgql": to_pgql(query),
            "order": list(choice.order),
            "use_common_neighbors": bool(choice.use_common_neighbors),
            "operators": [
                {
                    "op": row["op"],
                    "estimated": row["estimated"],
                    "actual": row["actual"],
                }
                for row in profile.operators
                if row["actual"] is not None
            ],
        }
        return key

    def corrections(self, query, graph=None):
        """Per-operator selectivity correction factors for *query*.

        Factors compare the recorded run's per-operator *selectivity*
        (rows out per row in) against the model's, so they telescope:
        re-pricing the recorded plan with corrections applied
        reproduces its actual cardinalities exactly, while operators
        shared by other candidate orders get a per-context correction
        that transfers without compounding.  Keyed by operator repr;
        clamped to [:data:`CORRECTION_MIN`, :data:`CORRECTION_MAX`].
        """
        entry = self._entries.get(query_fingerprint(query, graph))
        if entry is None:
            return {}
        factors = {}
        prev_est = 1.0
        prev_act = 1.0
        for row in entry["operators"]:
            est = max(float(row["estimated"]), Q_ERROR_FLOOR)
            act = max(float(row["actual"]), Q_ERROR_FLOOR)
            est_selectivity = est / max(prev_est, Q_ERROR_FLOOR)
            act_selectivity = act / max(prev_act, Q_ERROR_FLOOR)
            factor = act_selectivity / est_selectivity
            factors[row["op"]] = min(
                CORRECTION_MAX, max(CORRECTION_MIN, factor)
            )
            prev_est, prev_act = est, act
        return factors
