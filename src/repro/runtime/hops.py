"""Hop engine execution (paper §3.2).

Each stage transitions to the next through a *hop engine*.  At runtime a
hop is an incremental cursor attached to a traversal frame: every
``advance`` call performs one micro-operation (inspecting one neighbor,
emitting one continuation) so the simulator can charge costs precisely
and a worker can suspend mid-hop when flow control blocks a send.

The ``rt`` parameter is the per-machine runtime facade
(:class:`repro.runtime.machine.QueryMachine`), providing ``route`` for
continuations, the local partition, and ownership lookups.
"""

import enum

from repro.errors import RuntimeFault
from repro.plan.distributed import HopKind


class Advance(enum.Enum):
    PROGRESS = "progress"      # did one unit of work, call again
    EXHAUSTED = "exhausted"    # hop finished; pop the frame
    BLOCKED = "blocked"        # a send was refused; computation must park


class AllScanItem:
    """Work item for an ALL_VERTICES broadcast: scan local vertices."""

    __slots__ = ("ctx",)

    def __init__(self, ctx):
        self.ctx = ctx


class CNItem:
    """Work item for a CN_PROBE stage: base context plus candidates.

    ``candidates`` is a tuple of ``(vertex, appendix)`` pairs where the
    appendix carries the collected left-edge captures for that candidate.
    """

    __slots__ = ("ctx", "candidates")

    def __init__(self, ctx, candidates):
        self.ctx = ctx
        self.candidates = candidates

    def __len__(self):
        return 1 + len(self.candidates)


def make_cursor(stage, frame, rt):
    """Instantiate the hop cursor for *frame* at *stage*."""
    hop = stage.hop
    kind = hop.kind
    if kind is HopKind.OUTPUT:
        return _OutputCursor()
    if kind is HopKind.NEIGHBOR:
        return _NeighborCursor(stage, frame, rt)
    if kind is HopKind.VERTEX:
        return _VertexCursor(stage, frame, rt)
    if kind is HopKind.ALL_VERTICES:
        return _AllVerticesCursor(rt)
    if kind is HopKind.CN_COLLECT:
        return _CNCollectCursor(stage, frame, rt)
    if kind is HopKind.CN_PROBE:
        return _CNProbeCursor(stage, frame)
    raise RuntimeFault("unknown hop kind: %r" % (kind,))


def _edge_accepted(hop, ctx, vertex, eid, rt):
    """Shared edge admission test: label, isomorphism, filter."""
    if hop.edge_label_id is not None:
        if rt.graph.edge_label(eid) != hop.edge_label_id:
            return False
    for slot in hop.iso_edge_slots:
        if ctx[slot] == eid:
            return False
    if hop.edge_filter is not None and not hop.edge_filter(ctx, vertex, eid):
        return False
    return True


def _extend(hop, ctx, eid, target=None):
    """Append the hop's edge captures (and optionally the target id)."""
    if hop.edge_captures:
        ctx = ctx + tuple(capture(eid) for capture in hop.edge_captures)
    if target is not None:
        ctx = ctx + (target,)
    return ctx


class _OutputCursor:
    """Deliver the completed context to the machine-local collector."""

    __slots__ = ("_done",)

    def __init__(self):
        self._done = False

    def advance(self, rt, comp, frame):
        if self._done:
            return Advance.EXHAUSTED
        self._done = True
        rt.emit_result(frame.ctx)
        return Advance.PROGRESS


class _NeighborCursor:
    """Out- or in-neighbor hop over the current vertex's adjacency."""

    __slots__ = ("_neighbors", "_edge_ids", "_pos")

    def __init__(self, stage, frame, rt):
        from repro.graph.types import Direction

        if stage.hop.direction is Direction.OUT:
            self._neighbors, self._edge_ids = rt.local.out_edges(frame.vertex)
        else:
            self._neighbors, self._edge_ids = rt.local.in_edges(frame.vertex)
        self._pos = 0

    def advance(self, rt, comp, frame):
        if self._pos >= len(self._neighbors):
            return Advance.EXHAUSTED
        hop = rt.plan.stages[frame.stage_index].hop
        target = int(self._neighbors[self._pos])
        eid = int(self._edge_ids[self._pos])
        self._pos += 1
        rt.stage_scanned[frame.stage_index] += 1
        if not _edge_accepted(hop, frame.ctx, frame.vertex, eid, rt):
            return Advance.PROGRESS
        out_ctx = _extend(
            hop, frame.ctx, eid,
            target=target if hop.appends_target_id else None,
        )
        dest = rt.owner(target)
        if dest != rt.machine_id and hop.appends_target_id and \
                not rt.ghost_admits(frame.stage_index + 1, out_ctx, target):
            # Ghost-node pre-filter: the target's replicated data already
            # fails the next stage — skip the message entirely.
            return Advance.PROGRESS
        if rt.route(comp, frame.stage_index + 1, dest, out_ctx):
            return Advance.PROGRESS
        self._pos -= 1  # replay this neighbor when the send resumes
        return Advance.BLOCKED


class _VertexCursor:
    """Hop to one bound vertex, optionally checking an edge to/from it.

    Without an edge requirement this is a pure inspection step (one
    continuation).  With one, each matching parallel edge produces its
    own continuation so that a bound edge variable enumerates them all.
    """

    __slots__ = ("_target", "_edge_ids", "_pos")

    def __init__(self, stage, frame, rt):
        hop = stage.hop
        self._target = frame.ctx[hop.target_slot]
        if hop.edge_req_orientation is None:
            self._edge_ids = None
            self._pos = 0
        elif hop.edge_req_orientation == "current_to_target":
            self._edge_ids = rt.local.edges_between(frame.vertex, self._target)
            self._pos = 0
        else:  # target_to_current: scan the current vertex's in-adjacency
            self._edge_ids = rt.local.in_edges_from(frame.vertex, self._target)
            self._pos = 0

    def advance(self, rt, comp, frame):
        hop = rt.plan.stages[frame.stage_index].hop
        if self._edge_ids is None:
            # Pure inspection: a single unconditional continuation.
            self._edge_ids = []
            if rt.route(comp, frame.stage_index + 1, rt.owner(self._target),
                        frame.ctx):
                return Advance.PROGRESS
            self._edge_ids = None  # replay on resume
            return Advance.BLOCKED
        if self._pos >= len(self._edge_ids):
            return Advance.EXHAUSTED
        eid = self._edge_ids[self._pos]
        self._pos += 1
        rt.stage_scanned[frame.stage_index] += 1
        if not _edge_accepted(hop, frame.ctx, frame.vertex, eid, rt):
            return Advance.PROGRESS
        out_ctx = _extend(hop, frame.ctx, eid)
        if rt.route(comp, frame.stage_index + 1, rt.owner(self._target),
                    out_ctx):
            return Advance.PROGRESS
        self._pos -= 1
        return Advance.BLOCKED


class _AllVerticesCursor:
    """Cartesian restart: broadcast the context to every machine."""

    __slots__ = ("_machines", "_pos")

    def __init__(self, rt):
        self._machines = rt.num_machines
        self._pos = 0

    def advance(self, rt, comp, frame):
        if self._pos >= self._machines:
            return Advance.EXHAUSTED
        dest = self._pos
        self._pos += 1
        item = AllScanItem(frame.ctx)
        if rt.route(comp, frame.stage_index + 1, dest, item):
            return Advance.PROGRESS
        self._pos -= 1
        return Advance.BLOCKED


class _CNCollectCursor:
    """Phase one of the specialized common-neighbor hop (paper §5).

    Collects the current vertex's qualifying out-neighbors into a
    candidate list, then ships (context, candidates) to the machine of
    the *other* bound source vertex, which probes them against its own
    out-adjacency.  This "exchanges the edges of one another" instead of
    routing one message per neighbor.
    """

    __slots__ = ("_neighbors", "_edge_ids", "_pos", "_candidates", "_sentout")

    def __init__(self, stage, frame, rt):
        self._neighbors, self._edge_ids = rt.local.out_edges(frame.vertex)
        self._pos = 0
        self._candidates = []
        self._sentout = False

    def advance(self, rt, comp, frame):
        hop = rt.plan.stages[frame.stage_index].hop
        if self._pos < len(self._neighbors):
            target = int(self._neighbors[self._pos])
            eid = int(self._edge_ids[self._pos])
            self._pos += 1
            rt.stage_scanned[frame.stage_index] += 1
            if _edge_accepted(hop, frame.ctx, frame.vertex, eid, rt):
                appendix = tuple(
                    capture(eid) for capture in hop.edge_captures
                )
                self._candidates.append((target, appendix))
            return Advance.PROGRESS
        if self._sentout:
            return Advance.EXHAUSTED
        if not self._candidates:
            return Advance.EXHAUSTED
        other = frame.ctx[hop.target_slot]
        item = CNItem(frame.ctx, tuple(self._candidates))
        if rt.route(comp, frame.stage_index + 1, rt.owner(other), item):
            self._sentout = True
            return Advance.PROGRESS
        return Advance.BLOCKED


class _CNProbeCursor:
    """Phase two: intersect candidates with the probing vertex's edges."""

    __slots__ = ("_candidates", "_pos", "_edge_ids", "_edge_pos", "_appendix",
                 "_target")

    def __init__(self, stage, frame):
        self._candidates = frame.cn_payload or ()
        self._pos = 0
        self._edge_ids = None
        self._edge_pos = 0
        self._appendix = None
        self._target = None

    def advance(self, rt, comp, frame):
        hop = rt.plan.stages[frame.stage_index].hop
        while True:
            if self._edge_ids is None:
                if self._pos >= len(self._candidates):
                    return Advance.EXHAUSTED
                self._target, self._appendix = self._candidates[self._pos]
                self._pos += 1
                self._edge_ids = rt.local.edges_between(
                    frame.vertex, self._target
                )
                self._edge_pos = 0
                return Advance.PROGRESS
            if self._edge_pos >= len(self._edge_ids):
                self._edge_ids = None
                continue
            eid = self._edge_ids[self._edge_pos]
            self._edge_pos += 1
            rt.stage_scanned[frame.stage_index] += 1
            base_ctx = frame.ctx + self._appendix
            if not _edge_accepted(hop, base_ctx, frame.vertex, eid, rt):
                return Advance.PROGRESS
            out_ctx = _extend(hop, base_ctx, eid, target=self._target)
            if rt.route(comp, frame.stage_index + 1, rt.owner(self._target),
                        out_ctx):
                return Advance.PROGRESS
            self._edge_pos -= 1
            return Advance.BLOCKED
