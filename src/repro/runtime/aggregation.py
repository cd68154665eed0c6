"""Result finalization: projection, aggregation, grouping, ordering.

The output hop delivers raw context tuples to a machine-local
*collector*; this module turns the merged collections into the final
:class:`ResultSet`.  It covers the PGQL features the paper lists as
future work (§5): ``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX``
(with ``DISTINCT``), ``GROUP BY``, ``HAVING``, ``ORDER BY``, ``LIMIT``,
and ``SELECT DISTINCT``.

Aggregating queries use **partial aggregation**: each machine folds its
matches into per-group aggregate states as they are produced (the
:class:`GroupAccumulator` collector) and the engine merges the partial
states at the end — the memory-frugal strategy a multi-tenant system
like PGX.D needs, since no machine ever materializes its raw match
list.
"""

from repro.errors import PgqlValidationError
from repro.pgql.ast import Aggregate, AggregateFunc, Binary, Unary
from repro.pgql.expressions import apply_binary, apply_unary, evaluate
from repro.plan.execution import ContextRowEnv
from repro.runtime.results import ResultSet


class AggregateState:
    """Streaming, mergeable state of one aggregate function."""

    __slots__ = ("func", "distinct", "_seen", "_count", "_sum", "_min", "_max")

    def __init__(self, func, distinct):
        self.func = func
        self.distinct = distinct
        self._seen = set() if distinct else None
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None

    def update(self, value):
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._apply(value)

    def _apply(self, value):
        self._count += 1
        if self.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            self._sum += value
        elif self.func is AggregateFunc.MIN:
            self._min = value if self._min is None else min(self._min, value)
        elif self.func is AggregateFunc.MAX:
            self._max = value if self._max is None else max(self._max, value)

    def merge(self, other):
        """Fold another machine's partial state into this one."""
        if self.distinct:
            for value in other._seen:
                self.update(value)
            return
        self._count += other._count
        self._sum += other._sum
        for candidate in (other._min,):
            if candidate is not None:
                self._min = candidate if self._min is None \
                    else min(self._min, candidate)
        for candidate in (other._max,):
            if candidate is not None:
                self._max = candidate if self._max is None \
                    else max(self._max, candidate)

    def result(self):
        if self.func is AggregateFunc.COUNT:
            return self._count
        if self.func is AggregateFunc.SUM:
            return self._sum
        if self.func is AggregateFunc.AVG:
            return self._sum / self._count if self._count else None
        if self.func is AggregateFunc.MIN:
            return self._min
        return self._max


def _aggregate_key(node):
    """Structural identity of an aggregate occurrence."""
    return (node.func, repr(node.arg), node.distinct)


def _collect_aggregates(exprs):
    """Unique aggregates across *exprs*, keyed structurally."""
    found = {}
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, Aggregate):
                found.setdefault(_aggregate_key(node), node)
    return found


def _zone_expressions(spec):
    zone = [item.expr for item in spec.select_items]
    if spec.having is not None:
        zone.append(spec.having)
    zone.extend(item.expr for item in spec.order_by)
    return zone


def _evaluate_with_aggregates(expr, env, agg_values):
    """Evaluate *expr* substituting aggregate nodes with computed values."""
    if isinstance(expr, Aggregate):
        return agg_values[_aggregate_key(expr)]
    if isinstance(expr, Binary):
        if expr.op == "AND":
            return bool(_evaluate_with_aggregates(expr.lhs, env, agg_values)) \
                and bool(_evaluate_with_aggregates(expr.rhs, env, agg_values))
        if expr.op == "OR":
            return bool(_evaluate_with_aggregates(expr.lhs, env, agg_values)) \
                or bool(_evaluate_with_aggregates(expr.rhs, env, agg_values))
        return apply_binary(
            expr.op,
            _evaluate_with_aggregates(expr.lhs, env, agg_values),
            _evaluate_with_aggregates(expr.rhs, env, agg_values),
        )
    if isinstance(expr, Unary):
        return apply_unary(
            expr.op, _evaluate_with_aggregates(expr.operand, env, agg_values)
        )
    return evaluate(expr, env)


# ----------------------------------------------------------------------
# Collectors (machine-local)
# ----------------------------------------------------------------------
class RowCollector:
    """Plain collector: keeps the raw output contexts."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def add(self, ctx):
        self.rows.append(ctx)

    def __len__(self):
        return len(self.rows)


class GroupAccumulator:
    """Partial-aggregation collector for one machine.

    Folds every emitted context into per-group aggregate states; the
    engine merges accumulators from all machines with :meth:`merge`.
    """

    def __init__(self, spec, vertex_vars, edge_vars):
        self._spec = spec
        self._env = ContextRowEnv(
            spec.layout, set(vertex_vars), set(edge_vars)
        )
        self._aggregates = _collect_aggregates(_zone_expressions(spec))
        #: group key -> (representative ctx, {agg key: AggregateState}).
        self.groups = {}
        self.count = 0

    def add(self, ctx):
        env = self._env.bind(ctx)
        self.count += 1
        key = tuple(evaluate(expr, env) for expr in self._spec.group_by)
        group = self.groups.get(key)
        if group is None:
            group = (
                ctx,
                {
                    agg_key: AggregateState(node.func, node.distinct)
                    for agg_key, node in self._aggregates.items()
                },
            )
            self.groups[key] = group
        _repr_ctx, states = group
        for agg_key, node in self._aggregates.items():
            if node.arg is None:  # COUNT(*)
                states[agg_key].update(1 if not node.distinct else ctx)
            else:
                states[agg_key].update(evaluate(node.arg, env))

    def merge(self, other):
        """Fold another machine's accumulator into this one."""
        self.count += other.count
        for key, (repr_ctx, other_states) in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = (repr_ctx, other_states)
                continue
            _ctx, states = mine
            for agg_key, state in other_states.items():
                states[agg_key].merge(state)

    def __len__(self):
        return self.count


def make_collector(spec, vertex_vars, edge_vars):
    """The collector appropriate for *spec* (partial-agg or raw rows)."""
    if spec.has_aggregates:
        return GroupAccumulator(spec, vertex_vars, edge_vars)
    return RowCollector()


# ----------------------------------------------------------------------
# Finalization
# ----------------------------------------------------------------------
def finalize(output_spec, raw_rows, vertex_vars, edge_vars):
    """Turn raw output contexts into the final :class:`ResultSet`.

    Convenience entry point used by the baselines (and by the engine's
    non-aggregating path); aggregating queries are routed through a
    :class:`GroupAccumulator`.
    """
    env = ContextRowEnv(output_spec.layout, set(vertex_vars), set(edge_vars))
    if output_spec.has_aggregates:
        accumulator = GroupAccumulator(output_spec, vertex_vars, edge_vars)
        for ctx in raw_rows:
            accumulator.add(ctx)
        return finalize_grouped(output_spec, accumulator, env)
    selects = [item.expr for item in output_spec.select_items]
    decorated = _project_rows(selects, output_spec.order_by, raw_rows, env)
    return _wrap(output_spec, decorated)


def finalize_grouped(spec, accumulator, env=None):
    """Build the ResultSet from a (merged) :class:`GroupAccumulator`."""
    if env is None:
        env = accumulator._env
    decorated = []
    for _key, (repr_ctx, states) in accumulator.groups.items():
        env.bind(repr_ctx)
        agg_values = {
            agg_key: state.result() for agg_key, state in states.items()
        }
        if spec.having is not None:
            if not _evaluate_with_aggregates(spec.having, env, agg_values):
                continue
        row = tuple(
            _evaluate_with_aggregates(item.expr, env, agg_values)
            for item in spec.select_items
        )
        if spec.order_by:
            sort_key = tuple(
                _evaluate_with_aggregates(item.expr, env, agg_values)
                for item in spec.order_by
            )
        else:
            sort_key = ()
        decorated.append((sort_key, row))
    # SELECT DISTINCT with GROUP BY: groups are unique by key, but the
    # projected rows may still collide (e.g. the key is not selected);
    # SQL semantics deduplicate them.
    return _wrap(spec, decorated)


def _project_rows(selects, order_items, raw_rows, env):
    """Project raw contexts into ``(sort_key, row)`` pairs.

    Slot-only select/order lists (the common case) go through a compiled
    projector — one tuple build per row instead of one interpreted
    ``evaluate`` per column; anything else falls back to the evaluator.
    Values are identical either way: the projector is just the unrolled
    slot lookups.
    """
    project = env.row_projector(selects)
    if project is not None:
        if not order_items:
            return [((), project(ctx)) for ctx in raw_rows]
        key_project = env.row_projector(
            [item.expr for item in order_items]
        )
        if key_project is not None:
            return [(key_project(ctx), project(ctx)) for ctx in raw_rows]
    decorated = []
    for ctx in raw_rows:
        env.bind(ctx)
        row = tuple(evaluate(expr, env) for expr in selects)
        if order_items:
            key = tuple(evaluate(item.expr, env) for item in order_items)
            decorated.append((key, row))
        else:
            decorated.append(((), row))
    return decorated


def _wrap(spec, decorated):
    return ResultSet(spec.column_names, arrange_rows(
        decorated, spec.distinct, spec.order_by, spec.limit
    ))


def arrange_rows(decorated, distinct, order_items, limit):
    """Apply DISTINCT, ORDER BY and LIMIT to ``(sort_key, row)`` pairs.

    Returns the final row list: first occurrences of each distinct row,
    stably sorted by *order_items*, then truncated to *limit* (None =
    no limit).
    """
    if distinct:
        seen = set()
        unique = []
        for key, row in decorated:
            if row in seen:
                continue
            seen.add(row)
            unique.append((key, row))
        decorated = unique
    if order_items:
        _sort_decorated(decorated, order_items)
    rows = [row for _key, row in decorated]
    if limit is not None:
        rows = rows[:limit]
    return rows


def _sort_decorated(decorated, order_items):
    """Stable multi-key sort honoring per-key ASC/DESC."""
    for position in range(len(order_items) - 1, -1, -1):
        ascending = order_items[position].ascending
        try:
            decorated.sort(key=lambda pair: pair[0][position],
                           reverse=not ascending)
        except TypeError:
            raise PgqlValidationError(
                "ORDER BY key %d mixes incomparable types" % position
            )
