"""Planner options shared by the planning pipeline and the engine."""

import enum
from dataclasses import dataclass


class MatchSemantics(enum.Enum):
    """Pattern-matching semantics (paper §5, "Graph Isomorphism").

    * HOMOMORPHISM — the paper's implemented default: distinct pattern
      variables may bind the same graph vertex.
    * ISOMORPHISM — injective on vertices and edges.
    * INDUCED — isomorphism plus: no graph edge may connect matched
      vertices unless the pattern contains it.
    """

    HOMOMORPHISM = "homomorphism"
    ISOMORPHISM = "isomorphism"
    INDUCED = "induced"


class SchedulingPolicy(enum.Enum):
    """How the planner orders vertex matching (paper §5, future work)."""

    #: Match vertices in order of appearance in the query text.
    APPEARANCE = "appearance"
    #: Start from the estimated most selective vertex and grow greedily.
    SELECTIVITY = "selectivity"
    #: Enumerate candidate orders and pick the cheapest under the
    #: statistics-backed cost model (``plan.cost``).
    COST = "cost"


@dataclass
class PlannerOptions:
    semantics: MatchSemantics = MatchSemantics.HOMOMORPHISM
    scheduling: SchedulingPolicy = SchedulingPolicy.APPEARANCE
    #: Tri-state switch for the specialized common-neighbor hop engine
    #: (paper §5): ``True``/``False`` force it on/off; ``None`` (the
    #: default) leaves it off except under ``SchedulingPolicy.COST``,
    #: where the cost model decides per query.
    use_common_neighbors: bool = None
    #: Explicit vertex matching order; overrides *scheduling* when set.
    vertex_order: list = None
    #: Record a structured event trace for this query (see ``repro.obs``);
    #: the trace is returned as ``QueryResult.trace``.
    trace: bool = False
    #: Record live telemetry for this query (metrics registry + per-tick
    #: time series, see ``repro.obs.telemetry``); returned as
    #: ``QueryResult.telemetry``.
    telemetry: bool = False
    #: Per-query deadline in simulated ticks: the run aborts with a
    #: structured ``QueryAborted`` (partial metrics + trace) once the
    #: clock passes it.  Overrides ``ClusterConfig.query_deadline_ticks``;
    #: for union-executed queries each expansion gets the full budget.
    timeout_ticks: int = None
    #: A ``repro.obs.feedback.FeedbackStore`` of recorded execution
    #: profiles.  Consumed only under ``SchedulingPolicy.COST``, where
    #: recorded actuals correct the model's selectivities on
    #: re-planning; every other policy ignores it.
    feedback: object = None
