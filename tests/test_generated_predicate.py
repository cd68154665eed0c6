"""The generated filter predicate vs the reference interpreter.

``repro.plan.execution`` generates one Python function per filter
conjunction; ``repro.pgql.expressions.evaluate_predicate`` (the
interpreter the oracle uses) defines the semantics.  Both must agree on
every expression tree, every context and every graph entity.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, run_query
from repro.graph import GraphBuilder
from repro.pgql.ast import (
    Binary,
    HasPropCall,
    IdCall,
    LabelCall,
    Literal,
    PropRef,
    Unary,
    VarRef,
)
from repro.pgql.expressions import EvalEnv, evaluate_predicate
from repro.plan import plan_query
from repro.plan.execution import ContextLayout, _Compiler

from .oracle import brute_force_rows


def _graph():
    builder = GraphBuilder()
    for index in range(4):
        builder.add_vertex(label="person", age=index * 3, name="p%d" % index)
    builder.add_vertex(label="item", price=14.5, name="laptop")
    builder.add_vertex(price=0.0)
    builder.add_edge(0, 1, label="friend", since=5)
    builder.add_edge(1, 4, label="bought", when=2)
    builder.add_edge(2, 5, since=0)
    return builder.build()


GRAPH = _graph()
VERTEX_VARS = {"a", "b"}  # a: the stage's own vertex; b: captured
EDGE_VARS = {"e", "f"}    # e: the hop's own edge; f: captured
VERTEX_PROPS = ["age", "name", "price"]
EDGE_PROPS = ["since", "when"]

LAYOUT = ContextLayout()
LAYOUT.alloc(("v", "b"))
LAYOUT.alloc(("e", "f"))
LAYOUT.alloc(("vl", "b"))
LAYOUT.alloc(("el", "f"))
for _prop in VERTEX_PROPS:
    LAYOUT.alloc(("vp", "b", _prop))
for _prop in EDGE_PROPS:
    LAYOUT.alloc(("ep", "f", _prop))


class _Env(EvalEnv):
    """Reads ``a``/``e`` from the graph and ``b``/``f`` from the context
    tuple, exactly where the generated predicate reads them."""

    def __init__(self, ctx, vertex, eid):
        self._ctx = ctx
        self._own = {"a": vertex, "e": eid}

    def _slot(self, *symbol):
        return self._ctx[LAYOUT.slot(symbol)]

    def entity_id(self, var):
        if var in self._own:
            return self._own[var]
        return self._slot("v" if var in VERTEX_VARS else "e", var)

    def prop(self, var, prop):
        if var == "a":
            return GRAPH.vertex_prop(prop, self._own["a"])
        if var == "e":
            return GRAPH.edge_prop(prop, self._own["e"])
        return self._slot("vp" if var in VERTEX_VARS else "ep", var, prop)

    def label(self, var):
        if var == "a":
            return GRAPH.vertex_label_name(self._own["a"])
        if var == "e":
            return GRAPH.edge_label_name(self._own["e"])
        return self._slot("vl" if var in VERTEX_VARS else "el", var)

    def has_prop(self, var, prop):
        if var in VERTEX_VARS:
            return GRAPH.has_vertex_prop(prop)
        return GRAPH.has_edge_prop(prop)


# Small values: nested `*` of a string by an int stays small.
scalars = st.one_of(
    st.integers(min_value=-3, max_value=9),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from(["", "p1", "laptop", "person", "friend"]),
    st.none(),
    st.booleans(),
)

leaves = st.one_of(
    scalars.map(Literal),
    st.sampled_from(["a", "b", "e", "f"]).map(VarRef),
    st.sampled_from(["a", "b", "e", "f"]).map(IdCall),
    st.sampled_from(["a", "b", "e", "f"]).map(LabelCall),
    st.sampled_from(VERTEX_PROPS).flatmap(
        lambda prop: st.sampled_from([PropRef("a", prop), PropRef("b", prop)])
    ),
    st.sampled_from(EDGE_PROPS).flatmap(
        lambda prop: st.sampled_from([PropRef("e", prop), PropRef("f", prop)])
    ),
    st.builds(HasPropCall, st.sampled_from(["a", "b", "e"]),
              st.sampled_from(VERTEX_PROPS + EDGE_PROPS + ["nope"])),
)

BINARY_OPS = ["=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
              "AND", "OR"]

expressions = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(["NOT", "-"]), children),
        st.builds(Binary, st.sampled_from(BINARY_OPS), children, children),
    ),
    max_leaves=6,
)

contexts = st.tuples(
    st.integers(min_value=0, max_value=GRAPH.num_vertices - 1),  # b
    st.integers(min_value=0, max_value=GRAPH.num_edges - 1),     # f
    st.sampled_from(["person", "item", None]),                   # b label
    st.sampled_from(["friend", "bought", None]),                 # f label
    *[scalars] * (len(VERTEX_PROPS) + len(EDGE_PROPS)),
)


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raises", type(exc))


_CTX = (1, 0, "person", "friend", 3, "p1", 2.5, 5, 0)


@settings(max_examples=400, deadline=None)
@given(
    conjuncts=st.lists(expressions, min_size=1, max_size=3),
    ctx=contexts,
    vertex=st.integers(min_value=0, max_value=GRAPH.num_vertices - 1),
    eid=st.integers(min_value=0, max_value=GRAPH.num_edges - 1),
)
# AND/OR yield booleans, not their operand.
@example([Binary("=", Binary("AND", Literal(2), Literal(3)), Literal(3))],
         _CTX, 0, 0)
@example([Binary("=", Binary("OR", Literal(0), Literal(5)), Literal(5))],
         _CTX, 0, 0)
def test_generated_predicate_matches_interpreter(conjuncts, ctx, vertex, eid):
    compiler = _Compiler(GRAPH, LAYOUT, VERTEX_VARS, EDGE_VARS)
    predicate = compiler.predicate(conjuncts, direct_vertex="a",
                                   direct_edge="e")
    env = _Env(ctx, vertex, eid)
    expected = _outcome(
        lambda: all(evaluate_predicate(c, env) for c in conjuncts)
    )
    assert _outcome(lambda: predicate(ctx, vertex, eid)) == expected


def test_division_and_mismatch_are_false():
    compiler = _Compiler(GRAPH, LAYOUT, VERTEX_VARS, EDGE_VARS)
    by_zero = Binary(">", Binary("%", PropRef("a", "age"), Literal(0)),
                     Literal(1))
    mixed = Binary("<", PropRef("a", "name"), Literal(3))
    for expr in (by_zero, mixed):
        predicate = compiler.predicate([expr], direct_vertex="a")
        assert predicate((0, 0), 1, -1) is False


class TestSharedCode:
    QUERY = (
        "SELECT DISTINCT p2, p2.title WHERE "
        "(p WITH id() = %d) -[:feature]-> (f) <-[:feature]- (p2), "
        "p2 != p, p2.num1 < p.num1 + %d, p2.num1 > p.num1 - %d"
    )

    @staticmethod
    def _products():
        """Six products over three features (small enough for the
        brute-force oracle)."""
        builder = GraphBuilder()
        nums = [(100, 40), (150, 90), (210, 300), (90, 10), (400, 5),
                (130, 60)]
        for index, (num1, num2) in enumerate(nums):
            builder.add_vertex(label="product", num1=num1, num2=num2,
                               title="t%d" % index)
        features = [builder.add_vertex(label="feature") for _ in range(3)]
        for product, feature in [(0, 0), (1, 0), (2, 0), (3, 1), (0, 1),
                                 (4, 1), (5, 2), (1, 2), (3, 2)]:
            builder.add_edge(product, features[feature], label="feature")
        return builder.build()

    def test_literal_only_difference_shares_code_and_keeps_rows(self):
        graph = self._products()
        texts = [self.QUERY % (0, 120, 120), self.QUERY % (1, 40, 40)]
        plans = [plan_query(text, graph) for text in texts]
        filters = [
            [s.filter for s in plan.stages if s.filter is not None]
            for plan in plans
        ]
        assert filters[0] and len(filters[0]) == len(filters[1])
        for first, second in zip(*filters):
            assert first is not second
            assert first.__code__ is second.__code__
        config = ClusterConfig(num_machines=3)
        answers = []
        for text in texts:
            rows = run_query(graph, text, config=config).rows
            expected = set(brute_force_rows(graph, text))
            assert expected and Counter(rows) == Counter(expected)
            answers.append(expected)
        assert answers[0] != answers[1]
