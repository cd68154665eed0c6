"""RPR008 — the kernel-codegen audit.

The bulk kernels (:mod:`repro.runtime.kernels`) are *generated source*:
``compile_plan_kernels`` specializes one function per plan stage, and
the runtime differential (CI's bulk-kernel parity step) asserts the
compiled path charges bit-identical deterministic metrics to the
micro-stepped cursor path.  That differential only covers the plans the
gate happens to execute, and it reports *that* a counter diverged, not
*where the codegen went wrong*.  This rule is the static complement:

1. compile every plan of the bench workload matrix (the same matrix
   ``tests/test_kernels.py`` differentials run over);
2. parse each generated kernel's attached ``__source__``;
3. verify every counter-charge site present in the micro-step handlers
   — ``worker._vertex_function`` (stage visits/passes), the
   ``hops.py`` cursor ``advance`` methods (``stage_scanned``),
   ``machine.route`` (``stage_local_in``/``stage_remote_in``) and
   ``machine.emit_result`` (``results_emitted``) — appears in the
   kernel **exactly** the expected number of times, that generated
   trace calls are guarded, and that the generated reservation
   protocol cannot leak
   (:class:`~repro.analysis.flows.ReservationAnalysis` over the kernel
   body).

A pure-AST cross-check pins the handler side: if a handler starts
charging a counter family this audit does not model, the audit itself
is flagged as drifted — the table below and the codegen must move
together.

Unlike every other rule, this one *imports and executes* repository
code (plan compilation pulls in numpy via the graph layer).  When those
imports are unavailable the dynamic half degrades to a skip — the
pure-AST handler cross-check still runs — so ``repro lint`` keeps
working in a dependency-free environment.
"""

import ast

from repro.analysis.core import Rule, enclosing_symbols
from repro.analysis.flows import ReservationAnalysis, call_aliases
from repro.analysis.guards import UnguardedCallScanner, dotted_parts

#: Counter families the audit models (the vocabulary of the handler
#: cross-check and the per-kernel expectation table).  Any other
#: ``stage_*`` list a handler charges is an unmodeled family, except
#: ``stage_load`` (termination bookkeeping, not a profile counter).
_FAMILIES = ("stage_visits", "stage_passes", "stage_scanned",
             "stage_local_in", "stage_remote_in", "results_emitted")

#: What each micro-step handler charges.  ``hops.py`` cursor ``advance``
#: methods may charge a subset (the output cursor charges nothing).
_HANDLER_CHARGES = {
    ("repro.runtime.worker", "_vertex_function"):
        frozenset({"stage_visits", "stage_passes"}),
    ("repro.runtime.hops", "advance"): frozenset({"stage_scanned"}),
    ("repro.runtime.machine", "route"):
        frozenset({"stage_local_in", "stage_remote_in"}),
    ("repro.runtime.machine", "emit_result"):
        frozenset({"results_emitted"}),
}

#: Tracer-ish handles that must stay guarded inside generated source.
_KERNEL_TRACERISH = frozenset({"trace", "tracer", "telemetry"})

#: Process-wide cache of the (expensive, deterministic) dynamic audit:
#: raw ``(message, pattern)`` problem tuples, or None before first run.
_AUDIT_CACHE = None


def _reset_audit_cache():
    """Test hook: force the next check to re-run the dynamic audit."""
    global _AUDIT_CACHE
    _AUDIT_CACHE = None


class KernelCodegenAuditRule(Rule):
    """RPR008: generated kernels charge what the handlers charge."""

    id = "RPR008"
    title = "kernel-codegen audit: generated counter charges match handlers"
    severity = "error"
    project_wide = True
    rationale = (
        "The bulk kernels are generated source, and the deterministic "
        "metrics they charge (stage visits/passes/scanned, local and "
        "remote emission, result counts, micro-ops) are exactly what the "
        "regression, parity, and drift gates compare. The runtime "
        "differential proves equality for executed plans; this audit "
        "proves the *shape*: it compiles every plan in the bench matrix, "
        "parses the generated source, and checks each handler-side "
        "charge site appears in the kernel exactly as often as the "
        "kernel kind implies — plus that generated trace calls stay "
        "guarded and the generated reservation protocol releases on "
        "every path. A pure-AST cross-check over worker.py/hops.py/"
        "machine.py fails the audit itself when a handler grows a "
        "counter family this table does not model."
    )
    example = (
        "# codegen must mirror machine.emit_result exactly once:\n"
        "#   rt.collector.add(ctx)\n"
        "#   M.results_emitted += 1\n"
        "# a second charge, or a dropped one, fails the audit with the\n"
        "# workload/stage/counter that diverged."
    )

    def check_project(self, modules):
        kernels_module = None
        by_name = {}
        for module in modules:
            by_name[module.name] = module
            if module.name == "repro.runtime.kernels":
                kernels_module = module
        if kernels_module is None:
            return
        symbols = enclosing_symbols(kernels_module.tree)
        anchor = kernels_module.tree.body[0] if kernels_module.tree.body \
            else kernels_module.tree
        for message, pattern in _handler_drift(by_name):
            yield self.finding(kernels_module, anchor, message, pattern,
                               symbols)
        for message, pattern in _dynamic_audit():
            yield self.finding(kernels_module, anchor, message, pattern,
                               symbols)


# ---------------------------------------------------------------------------
# Handler-side cross-check (pure AST)
# ---------------------------------------------------------------------------

def _charge_family(target):
    """The counter family an AugAssign *target* charges, or None."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    chain = dotted_parts(node)
    if chain is None:
        return None
    return _family_of(chain[-1])


def _family_of(name):
    """*name* as a counter family: a modeled one, or an unmodeled
    ``stage_*`` list."""
    if name in _FAMILIES:
        return name
    if name.startswith("stage_") and name != "stage_load":
        return name
    return None


def _handler_drift(modules_by_name):
    """Yield problems when handler charge sites drift from the table."""
    expected_by_module = {}
    for (module_name, symbol), families in _HANDLER_CHARGES.items():
        expected_by_module.setdefault(module_name, {})[symbol] = families
    for module_name, table in sorted(expected_by_module.items()):
        module = modules_by_name.get(module_name)
        if module is None:
            continue
        observed = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            families = set()
            for child in ast.walk(node):
                if isinstance(child, ast.AugAssign):
                    family = _charge_family(child.target)
                    if family is not None:
                        families.add(family)
            if families:
                observed.setdefault(node.name, set()).update(families)
        for symbol, families in sorted(observed.items()):
            expected = table.get(symbol)
            if expected is None:
                yield (
                    "handler %s.%s charges counter famil%s %s that the "
                    "kernel audit does not model — update the audit "
                    "table and the codegen together" % (
                        module_name, symbol,
                        "y" if len(families) == 1 else "ies",
                        ", ".join(sorted(families)),
                    ),
                    "audit-drift:%s.%s" % (module_name, symbol),
                )
            elif not families <= expected:
                extra = families - expected
                yield (
                    "handler %s.%s now also charges %s — the kernel "
                    "audit table (and the generated kernels) must be "
                    "updated to match" % (
                        module_name, symbol, ", ".join(sorted(extra)),
                    ),
                    "audit-drift:%s.%s" % (module_name, symbol),
                )


# ---------------------------------------------------------------------------
# Dynamic half: compile the bench plan matrix and audit each kernel
# ---------------------------------------------------------------------------

def _dynamic_audit():
    global _AUDIT_CACHE
    if _AUDIT_CACHE is None:
        try:
            _AUDIT_CACHE = tuple(_audit_plan_matrix())
        except ImportError:
            # Dependency-free environment (no numpy): the dynamic half
            # is skipped; CI installs numpy so the gate still runs it.
            _AUDIT_CACHE = ()
    return _AUDIT_CACHE


def _audit_plan_matrix():
    from repro.bench import WORKLOADS
    from repro.cluster.config import ClusterConfig
    from repro.pgql import parse_and_validate
    from repro.plan import PlannerOptions, SchedulingPolicy
    from repro.runtime.engine import PgxdAsyncEngine
    from repro.runtime.kernels import compile_plan_kernels
    from repro.workloads.random_graphs import seeded_workload
    from repro.workloads.skewed import skewed_workload

    problems = []
    for key, spec in WORKLOADS:
        config = ClusterConfig(num_machines=spec["machines"], seed=0)
        if spec.get("kind") == "planner":
            graph, queries = skewed_workload(
                config,
                num_persons=spec["persons"],
                num_bands=spec["bands"],
                num_songs=spec["songs"],
                fan_edges=spec["fans"],
                likes_edges=spec["likes"],
            )
            options = PlannerOptions(scheduling=SchedulingPolicy.COST)
        else:
            graph, queries = seeded_workload(
                config,
                num_vertices=spec["vertices"],
                num_edges=spec["edges"],
                num_queries=spec["queries"],
                query_edges=spec["query_edges"],
            )
            options = PlannerOptions()
        engine = PgxdAsyncEngine(graph, config)
        for index, query in enumerate(queries):
            if isinstance(query, str):
                query = parse_and_validate(query)
            plan = engine.plan(query, options)
            kernels = compile_plan_kernels(plan)
            for stage, kernel in zip(plan.stages, kernels.stage_kernels):
                source = getattr(kernel, "__source__", None)
                if source is None:
                    continue  # generic (cursor-backed) kernel
                where = "%s[q%d] stage %d (%s)" % (
                    key, index, stage.index, stage.hop.kind.value,
                )
                problems.extend(_audit_kernel_source(
                    where, key, stage, source,
                ))
    return problems


#: Expected call counts common to every specialized kernel kind.
_ZERO_CALLS = {"reserve": 0, "end_batch": 0, "route": 0,
               "collector_add": 0}


def _expected_counts(kind, source):
    """The expectation table: counter/call multiplicities per kernel.

    Mirrors the micro-step handlers: one visit + one pass per vertex
    function; ``stage_scanned`` twice where an edge run is walked (the
    whole run when it starts, one more per BLOCKED replay); the inline
    local and fast-path remote deliveries of the NEIGHBOR kernel (the
    ``route`` fallbacks charge inside ``route``); ``results_emitted``
    and the collector exactly once for OUTPUT; three inline ``ops +=``
    charge sites per kind; and the NEIGHBOR kernel's reservation
    protocol (one reserve, four exit-path end_batch calls, one route
    fallback).
    """
    counters = {family: 0 for family in _FAMILIES}
    counters["stage_visits"] = counters["stage_passes"] = 1
    calls = dict(_ZERO_CALLS)
    ops, return_charges = 3, 0
    if kind == "neighbor":
        counters["stage_scanned"] = 2
        counters["stage_local_in"] = counters["stage_remote_in"] = 1
        calls.update({"reserve": 1, "end_batch": 4, "route": 1})
        return_charges = 1
    elif kind == "vertex":
        counters["stage_scanned"] = 2 if "_EdgeRun(" in source else 0
        calls["route"] = 1
    elif kind == "output":
        counters["results_emitted"] = 1
        calls["collector_add"] = 1
    return counters, calls, ops, return_charges


def _observed_counts(tree):
    """Count counter charges and protocol calls in a kernel's AST."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = dotted_parts(node.value)
            if chain and len(chain) >= 2 and _family_of(chain[-1]):
                aliases[node.targets[0].id] = chain[-1]
    counters = {family: 0 for family in _FAMILIES}
    calls = dict(_ZERO_CALLS)
    ops = return_charges = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) \
                    and node.target.id == "ops":
                ops += 1
                continue
            base = node.target
            while isinstance(base, ast.Subscript):
                base = base.value
            chain = dotted_parts(base)
            family = None
            if chain is not None:
                if len(chain) == 1 and chain[0] in aliases:
                    family = aliases[chain[0]]
                else:
                    family = _charge_family(node.target)
            if family in counters:
                counters[family] += 1
        elif isinstance(node, ast.Return) \
                and isinstance(node.value, ast.Tuple) \
                and node.value.elts:
            first = node.value.elts[0]
            if isinstance(first, ast.BinOp) \
                    and isinstance(first.left, ast.Name) \
                    and first.left.id == "ops":
                return_charges += 1
        elif isinstance(node, ast.Call):
            chain = dotted_parts(node.func)
            if chain is None:
                continue
            tail = chain[-1]
            if tail in ("reserve", "reserve_items"):
                calls["reserve"] += 1
            elif tail == "end_batch":
                calls["end_batch"] += 1
            elif tail == "route":
                calls["route"] += 1
            elif tail == "add" and len(chain) >= 2 \
                    and chain[-2] == "collector":
                calls["collector_add"] += 1
    return counters, calls, ops, return_charges


def _audit_kernel_source(where, workload, stage, source):
    """Audit one generated kernel; yields (message, pattern) problems."""
    kind = stage.hop.kind.value

    def problem(counter, detail):
        return (
            "%s: %s" % (where, detail),
            "kernel-audit:%s:%d:%s" % (workload, stage.index, counter),
        )

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        yield problem("parse", "generated source does not parse: %s" % exc)
        return

    counters, calls, ops, return_charges = _observed_counts(tree)
    exp_counters, exp_calls, exp_ops, exp_returns = _expected_counts(
        kind, source)
    for family in _FAMILIES:
        if counters[family] != exp_counters[family]:
            yield problem(family, (
                "counter %s charged %d time(s), handlers imply exactly "
                "%d" % (family, counters[family], exp_counters[family])
            ))
    for name in sorted(exp_calls):
        if calls[name] != exp_calls[name]:
            yield problem(name, (
                "%s called %d time(s), expected exactly %d"
                % (name, calls[name], exp_calls[name])
            ))
    if ops != exp_ops:
        yield problem("ops", (
            "%d inline `ops +=` charge sites, expected exactly %d"
            % (ops, exp_ops)
        ))
    if return_charges != exp_returns:
        yield problem("ops-return", (
            "%d return-time op charges (`return ops + n`), expected "
            "exactly %d" % (return_charges, exp_returns)
        ))

    scanner = UnguardedCallScanner(
        lambda segment: segment.lstrip("_") in _KERNEL_TRACERISH
    )
    scanner.scan_module(tree)
    for _node, chain in scanner.found:
        yield problem("trace-guard", (
            "generated call %s() is not guarded by `is not None` on its "
            "handle" % ".".join(chain)
        ))

    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        aliases = call_aliases(function.body)
        leaks = ReservationAnalysis(aliases).leaks(function.body)
        for line, _col, base, _holder in leaks:
            yield problem("reserve-leak", (
                "generated reservation from %s() at kernel line %d can "
                "reach kernel exit without end_batch" % (base, line)
            ))
