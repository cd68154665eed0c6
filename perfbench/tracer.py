"""Span recording around the engine's public methods, from outside.

A traced run replaces selected class attributes and module functions of
``repro`` with thin wrappers (:func:`install`) and puts the originals
back afterwards (:func:`uninstall`).  Nothing inside ``src/`` knows it
is being traced.

Every wrapped call becomes one span: name, start, end, parent span and
query label, appended to flat typed arrays so a million spans cost tens
of megabytes rather than a list of objects each.  Self time (the span's
duration minus the time its child spans cover) is accumulated per span
name while recording, so the per-layer table needs no second pass over
the spans.  :meth:`SpanRecorder.write` saves the spans when the run ends.
"""

import json
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store plus per-name call/total/self accumulators."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.queries = [""]
        self._query_ids = {"": 0}
        self.query = 0  # label index stamped on new spans
        self.prefix = ""  # prepended to service query ids (the cycle)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query_id = array("i")
        self._stack = []  # open span indices
        self._child = []  # child time accumulated per open span
        self.calls = []
        self.total = []
        self.self_time = []
        self.truthy = []  # calls whose return value was truthy

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.truthy.append(0)
        return nid

    def set_query(self, label):
        """Stamp spans opened from now on with query *label*."""
        qid = self._query_ids.get(label)
        if qid is None:
            qid = self._query_ids[label] = len(self.queries)
            self.queries.append(label)
        self.query = qid

    def span(self, name, fn, count_truthy=False):
        """Wrap callable *fn* so each call records one span *name*."""
        nid = self.intern(name)
        stack = self._stack
        child = self._child
        name_id, start, end = self.name_id, self.start, self.end
        parent, query_id = self.parent, self.query_id
        calls, total, self_time = self.calls, self.total, self.self_time
        truthy = self.truthy

        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            query_id.append(self.query)
            end.append(0.0)
            stack.append(index)
            child.append(0.0)
            t0 = _clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                end[index] = t1
                stack.pop()
                duration = t1 - t0
                self_time[nid] += duration - child.pop()
                total[nid] += duration
                calls[nid] += 1
                if child:
                    child[-1] += duration
            if count_truthy and result:
                truthy[nid] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def stats(self, name):
        """``(calls, total_s, self_s, truthy_calls)`` for span *name*."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return (self.calls[nid], self.total[nid], self.self_time[nid],
                self.truthy[nid])

    def write(self, path):
        """Save every span to *path* (``.npz``: one array per field)."""
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query_id=np.frombuffer(self.query_id, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
            queries=np.array(json.dumps(self.queries)),
        )


def _targets():
    """``(span name, class, method, count_truthy)`` for every wrap."""
    from repro.cluster.network import Network
    from repro.cluster.simulator import Simulator
    from repro.graph.graph import PropertyGraph
    from repro.runtime.engine import PgxdAsyncEngine
    from repro.runtime.kernels import PlanKernels
    from repro.runtime.machine import QueryMachine
    from repro.runtime.worker import Worker
    from repro.service.service import QueryService, ServiceHandle

    return [
        ("service.submit", QueryService, "submit", False),
        ("service.step", QueryService, "step", False),
        ("service.result", ServiceHandle, "result", False),
        ("plan.plan", PgxdAsyncEngine, "plan", False),
        ("stats.statistics", PropertyGraph, "statistics", False),
        ("engine.prepare", PgxdAsyncEngine, "prepare_execution", False),
        ("engine.finalize", PgxdAsyncEngine, "finalize_execution", False),
        ("simulator.step", Simulator, "step", False),
        ("network.deliver", Network, "deliver_due", False),
        ("machine.worker_step", QueryMachine, "worker_step", True),
        ("machine.on_message", QueryMachine, "on_message", False),
        ("worker.step", Worker, "step", False),
        ("kernels.run", PlanKernels, "run", False),
    ]


#: Module-level functions, wrapped in every ``repro`` module holding them.
_FUNCTIONS = (
    ("pgql.parse", "repro.pgql", "parse_and_validate"),
    ("kernels.compile", "repro.runtime.kernels", "compile_plan_kernels"),
)


def install(recorder):
    """Wrap every target with *recorder*; returns the undo list.

    ``QueryScope.start`` (admission) and ``QueryScope.step`` (one grant)
    get no span of their own; their wrappers stamp the spans opened
    inside with the scope's query label, so co-tenant queries' spans
    stay apart.
    """
    from repro.service.service import QueryScope

    def labelled(method):
        def wrapper(scope, *args):
            previous = recorder.query
            recorder.set_query(recorder.prefix + scope.query_id)
            try:
                return method(scope, *args)
            finally:
                recorder.query = previous

        return wrapper

    undo = []
    for attr in ("start", "step"):
        original = QueryScope.__dict__[attr]
        undo.append((QueryScope, attr, original))
        setattr(QueryScope, attr, labelled(original))
    for name, owner, attr, count_truthy in _targets():
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, recorder.span(name, original, count_truthy))
    for name, module_name, attr in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = recorder.span(name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)
    return undo


def uninstall(undo):
    """Put back every original recorded by :func:`install`."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
