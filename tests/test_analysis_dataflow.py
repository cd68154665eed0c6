"""Tests for the CFG/dataflow framework and the v2 rule packs.

Split from ``test_analysis.py``: everything here exercises behavior
that only exists because guard/type/reservation facts flow over a real
control-flow graph — domination through try/finally, while/else, early
returns, nested scopes — plus the RPR006/RPR007/RPR009 rule packs, the
RPR008 handler cross-check, and the v2 runner surface (``--diff``,
``--select``, ``--severity``, SARIF, ``--prune-baseline``).  The
mutation tests follow the house style: copy a real source verbatim,
break one invariant, and require the analyzer to flip non-zero.
"""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze, load_baseline, write_baseline
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import iter_scopes
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_package(tmp_path, files):
    """Write fixture modules (with the ``__init__.py`` chain) and
    return the scan root."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        directory = target.parent
        while directory != tmp_path:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
            directory = directory.parent
        target.write_text(textwrap.dedent(source))
    return tmp_path


def rules_of(result):
    return [finding.rule for finding in result.findings]


def runtime_module(source):
    return {"repro/runtime/fixture.py": source}


# ----------------------------------------------------------------------
# CFG construction basics
# ----------------------------------------------------------------------

class TestCfg:
    def test_scopes_are_separate(self):
        import ast
        tree = ast.parse(
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "class C:\n"
            "    def method(self):\n"
            "        pass\n"
        )
        names = []
        for scope, _body in iter_scopes(tree):
            names.append(getattr(scope, "name", "<module>"))
        assert names == ["<module>", "outer", "C", "inner", "method"]

    def test_while_true_has_no_false_exit(self):
        import ast
        tree = ast.parse(
            "while True:\n"
            "    if done():\n"
            "        break\n"
        )
        cfg = build_cfg(tree.body)
        for block in cfg.blocks:
            for _succ, polarity, test in block.succ:
                if polarity is False:
                    assert not (isinstance(test, ast.Constant)
                                and test.value)

    def test_unreachable_code_still_built(self):
        import ast
        tree = ast.parse(
            "def f():\n"
            "    return 1\n"
            "    leftover()\n"
        )
        _scope, body = list(iter_scopes(tree))[1]
        cfg = build_cfg(body)
        lines = {
            getattr(node, "lineno", None)
            for block in cfg.blocks for _kind, node in block.elems
        }
        # The dead call after the return is still in some block, so
        # rules scan it (dead code assumes no guards hold).
        assert 3 in lines


# ----------------------------------------------------------------------
# RPR002 guard domination over the CFG (the tentpole rewrite)
# ----------------------------------------------------------------------

class TestGuardDataflow:
    def test_guard_survives_try_finally(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.trace is not None:
                        try:
                            frame.run()
                        finally:
                            self.trace.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_guard_dominates_exception_handler(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.trace is None:
                        return
                    try:
                        frame.run()
                    except KeyError:
                        self.trace.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_conditional_early_return_guards(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.telemetry is None:
                        return frame.run()
                    frame.run()
                    self.telemetry.observe("steps", 1)
            """))
        assert analyze([root]).findings == []

    def test_guard_lost_at_join(self, tmp_path):
        # Guarded on the true branch only: the join after the `if`
        # intersects away the guard, so the trailing call is unguarded.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame, fast):
                    if self.trace is not None:
                        self.trace.emit(frame)
                    self.trace.emit(frame)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]
        assert result.findings[0].line == 5

    def test_loop_body_invalidation_reaches_exit(self, tmp_path):
        # The loop body reassigns the handle, so the back edge kills
        # the pre-loop guard: the call after the loop is unguarded on
        # the iterated path.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def drain(self, frames):
                    if self.trace is None:
                        return
                    for frame in frames:
                        self.trace = frame.tracer()
                    self.trace.emit(frames)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]

    def test_while_else_guarded(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def drain(self, queue):
                    if self.trace is None:
                        return
                    while queue:
                        queue.pop()
                    else:
                        self.trace.emit(queue)
            """))
        assert analyze([root]).findings == []

    def test_nested_def_does_not_inherit_guard(self, tmp_path):
        # The guard holds in the enclosing scope, but the nested
        # function runs later, when the handle may have changed: its
        # body must guard for itself.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def make_callback(self, frame):
                    if self.trace is None:
                        return None
                    def callback():
                        self.trace.emit(frame)
                    return callback
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]
        assert result.findings[0].symbol == \
            "Worker.make_callback.callback"

    def test_nested_def_guards_for_itself(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def make_callback(self, frame):
                    def callback():
                        if self.trace is not None:
                            self.trace.emit(frame)
                    return callback
            """))
        assert analyze([root]).findings == []

    def test_assert_guard_still_works(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    assert self.trace is not None
                    self.trace.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_finally_return_path_checked(self, tmp_path):
        # The call in the finally body runs on the early-return path
        # too; no guard holds there on either path.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    try:
                        if frame.done:
                            return 0
                        return frame.run()
                    finally:
                        self.trace.emit(frame)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]


# ----------------------------------------------------------------------
# RPR006 — iteration-order determinism
# ----------------------------------------------------------------------

class TestIterationOrderRule:
    def test_effectful_loop_over_set_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, neighbors, vertex, payload):
                    higher = {v for v in neighbors if v > vertex}
                    for target in higher:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        finding = result.findings[0]
        assert finding.pattern == "set-iter:higher"
        assert "sorted(higher)" in finding.message

    def test_sorted_wrapper_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, neighbors, vertex, payload):
                    higher = {v for v in neighbors if v > vertex}
                    for target in sorted(higher):
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_pure_loop_body_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def total(self, weights):
                    seen = set(weights)
                    acc = 0
                    for w in seen:
                        acc += w
                    return acc
            """))
        assert analyze([root]).findings == []

    def test_set_from_helper_method_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def _targets(self, ctx):
                    out = set()
                    for t in ctx.out_neighbors():
                        out.add(t)
                    return out

                def fanout(self, ctx, payload):
                    targets = self._targets(ctx)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        assert result.findings[0].pattern == "set-iter:targets"

    def test_set_keyed_dict_view_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    pending = dict.fromkeys(set(members), 0)
                    for target in pending.keys():
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        assert "set-keyed dict view" in result.findings[0].message

    def test_rebind_to_list_clears_set_fact(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    targets = set(members)
                    targets = list(targets)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_branch_join_is_must_analysis(self, tmp_path):
        # Only one branch produces a set: after the join, the iterable
        # is not *provably* a set, so no finding (the rule favors
        # precision over recall).
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload, pin):
                    if pin:
                        targets = sorted(members)
                    else:
                        targets = set(members)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_metric_charge_counts_as_effect(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def account(self, members):
                    active = set(members)
                    for member in active:
                        self.metrics.cur_live_frames += 1
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]

    def test_suppression_comment_honored(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    targets = set(members)
                    # order-insensitive: commutative accumulate
                    # repro: allow(RPR006)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert result.findings == []
        assert result.suppressed == 1

    def test_mutation_unsorting_triangle_count_flags(self, tmp_path):
        source = (SRC_REPRO / "analytics" / "algorithms.py").read_text()
        assert "for target in sorted(higher):" in source
        mutated = source.replace("for target in sorted(higher):",
                                 "for target in higher:")
        root = write_package(tmp_path, {
            "repro/analytics/algorithms.py": mutated,
        })
        result = analyze([root])
        assert "RPR006" in rules_of(result)
        assert any(f.pattern == "set-iter:higher"
                   for f in result.findings)


# ----------------------------------------------------------------------
# RPR007 — reservation pairing
# ----------------------------------------------------------------------

class TestReservationPairingRule:
    def test_leak_on_early_return_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    if self.queue.full():
                        return False
                    self.queue.put(slots)
                    self.flow.release(stage, dest)
                    return True
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR007"]
        finding = result.findings[0]
        assert finding.pattern == "reserve-leak:self.flow.reserve"
        assert finding.line == 3

    def test_release_on_every_path_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    if self.queue.full():
                        self.flow.release(stage, dest)
                        return False
                    self.queue.put(slots)
                    self.flow.release(stage, dest)
                    return True
            """))
        assert analyze([root]).findings == []

    def test_zero_grant_branch_clean(self, tmp_path):
        # `slots == 0` proves nothing is held on the early return.
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    if slots == 0:
                        return False
                    self.queue.put(slots)
                    self.flow.release(stage, dest)
                    return True
            """))
        assert analyze([root]).findings == []

    def test_truthiness_refinement_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    if slots:
                        self.queue.put(slots)
                        self.flow.release(stage, dest)
                    return True
            """))
        assert analyze([root]).findings == []

    def test_ownership_transfer_via_return_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def grab(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    return slots * self.bulk
            """))
        assert analyze([root]).findings == []

    def test_raise_path_exempt(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, stage, dest, want):
                    slots = self.flow.reserve(stage, dest, want)
                    if self.aborted:
                        raise RuntimeError("abort snapshots flow state")
                    self.queue.put(slots)
                    self.flow.release(stage, dest)
            """))
        assert analyze([root]).findings == []

    def test_prebound_alias_tracked(self, tmp_path):
        # The kernels prebind `reserve = rt.reserve_items`; the alias
        # pre-pass must still see the grant.
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, rt, stage, dest, want):
                    reserve = rt.reserve_items
                    rem = reserve(stage, dest, want)
                    if rem > 0:
                        self.queue.put(rem)
                        return True
                    return False
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR007"]
        assert result.findings[0].pattern == "reserve-leak:reserve"

    def test_container_rehoming_tracked(self, tmp_path):
        # The kernel idiom: the grant moves into a per-dest dict which
        # `end_batch` then releases.
        root = write_package(tmp_path, runtime_module("""\
            class Machine:
                def push(self, rt, stage, dests, want):
                    resv = {}
                    for dest in dests:
                        rem = rt.reserve_items(stage, dest, want)
                        if rem > 0:
                            resv[dest] = rem - 1
                    if resv:
                        rt.end_batch(stage, resv)
                    return True
            """))
        assert analyze([root]).findings == []

    def test_mutation_dropping_return_transfer_flags(self, tmp_path):
        source = (SRC_REPRO / "runtime" / "machine.py").read_text()
        needle = "return room + slots * bulk"
        assert needle in source
        mutated = source.replace(needle, "return room")
        root = write_package(tmp_path, {
            "repro/runtime/machine.py": mutated,
        })
        result = analyze([root])
        assert any(
            f.rule == "RPR007"
            and f.pattern == "reserve-leak:self.flow.reserve"
            for f in result.findings
        )

    def test_real_machine_module_self_hosts_clean(self, tmp_path):
        source = (SRC_REPRO / "runtime" / "machine.py").read_text()
        root = write_package(tmp_path, {
            "repro/runtime/machine.py": source,
        })
        result = analyze([root])
        assert not any(f.rule == "RPR007" for f in result.findings)


# ----------------------------------------------------------------------
# RPR009 — cross-scope isolation
# ----------------------------------------------------------------------

class TestCrossScopeIsolationRule:
    def test_scope_write_through_service_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def finish(self, rows):
                        self.service.last_result = rows
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "scope-write:self.service.last_result"

    def test_scope_container_mutation_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def register(self):
                        self._service.registry.append(self.query_id)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "scope-mutate:self._service.registry.append"

    def test_scheduler_call_is_sanctioned(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def finish(self, rows):
                        self.service.retire(self.query_id, rows)
                        self.service.submit(self.next_query)
                """,
        })
        assert analyze([root]).findings == []

    def test_module_level_mutable_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            ACTIVE_SCOPES = []

            def register(scope):
                ACTIVE_SCOPES.append(scope)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "module-mutable:ACTIVE_SCOPES"

    def test_module_level_frozen_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            STAGES = ("scan", "expand", "output")
            LIMIT = 64
            """))
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# RPR008 — the handler cross-check half (pure AST, no engine import)
# ----------------------------------------------------------------------

class TestKernelAuditCrossCheck:
    def test_unmodeled_handler_counter_is_drift(self, tmp_path):
        # A scanned machine.py whose route() grows a counter family the
        # audit table does not model must fail the audit itself.
        root = write_package(tmp_path, {
            "repro/runtime/kernels.py": "KERNEL_VERSION = 2\n",
            "repro/runtime/machine.py": """\
                class Machine:
                    def route(self, comp, stage, dest, ctx):
                        self.stage_rerouted[stage] += 1
                        return True
                """,
        })
        result = analyze([root])
        drift = [f for f in result.findings
                 if f.rule == "RPR008" and "audit-drift" in f.pattern]
        assert drift
        assert "rerouted" in drift[0].message

    def test_modeled_handlers_no_drift(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/kernels.py": "KERNEL_VERSION = 2\n",
            "repro/runtime/machine.py": """\
                class Machine:
                    def route(self, comp, stage, dest, ctx):
                        self.stage_local_in[stage] += 1
                        self.stage_load[stage] += 1
                        return True
                """,
        })
        result = analyze([root])
        assert not any("audit-drift" in f.pattern
                       for f in result.findings)

    def test_real_tree_audit_is_clean(self):
        # The full self-host including the dynamic compile-audit runs in
        # CI over src/repro; here just pin the real handler modules
        # against the cross-check table.
        root = SRC_REPRO
        result = analyze(
            [str(root / "runtime"), str(root / "bench.py")],
            baseline_path=str(REPO_ROOT / "lint-baseline.json"),
        )
        assert not any(f.rule == "RPR008" for f in result.findings)


# ----------------------------------------------------------------------
# Fingerprints: stable under line shift, invalidated by edits
# ----------------------------------------------------------------------

class TestSnippetFingerprints:
    FIXTURE = {
        "repro/runtime/leaky.py": """\
            import time

            def stamp():
                return time.time()
            """,
    }

    def test_line_shift_keeps_baseline_match(self, tmp_path):
        root = write_package(tmp_path, self.FIXTURE)
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        baseline = tmp_path / "baseline.json"
        write_baseline(result.findings, str(baseline))
        entries = load_baseline(str(baseline))
        assert entries[0].snippet_hash is not None

        # Shift the flagged call down: fingerprint must still match.
        target = tmp_path / "repro/runtime/leaky.py"
        target.write_text("import time\n\n\n# shifted\n\n" +
                          "def stamp():\n    return time.time()\n")
        shifted = analyze([root], baseline_path=str(baseline))
        assert shifted.findings == []
        assert shifted.baselined == 1

    def test_editing_flagged_code_resurfaces(self, tmp_path):
        # RPR006 anchors at the For node, so the snippet hash covers the
        # whole loop: editing the body invalidates the baseline entry
        # even though rule/path/symbol/pattern all still match.
        root = write_package(tmp_path, {
            "repro/runtime/fanout.py": """\
                class Stage:
                    def fanout(self, ctx, members, payload):
                        targets = set(members)
                        for target in targets:
                            ctx.send(target, payload)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        baseline = tmp_path / "baseline.json"
        write_baseline(result.findings, str(baseline))
        assert analyze([root],
                       baseline_path=str(baseline)).findings == []

        target = tmp_path / "repro/runtime/fanout.py"
        target.write_text(target.read_text().replace(
            "ctx.send(target, payload)",
            "ctx.send(target, (payload, target))",
        ))
        edited = analyze([root], baseline_path=str(baseline))
        assert rules_of(edited) == ["RPR006"]
        assert edited.baselined == 0
        assert len(edited.stale_baseline) == 1


# ----------------------------------------------------------------------
# Runner surface: --select / --severity / --diff / SARIF / prune
# ----------------------------------------------------------------------

LEAKY = {
    "repro/runtime/leaky.py": """\
        import time

        def stamp():
            return time.time()
        """,
    "repro/runtime/fanout.py": """\
        class Stage:
            def fanout(self, ctx, members, payload):
                targets = set(members)
                for target in targets:
                    ctx.send(target, payload)
        """,
}


class TestRunnerSurface:
    def test_select_restricts_rules(self, tmp_path, capsys):
        root = write_package(tmp_path, LEAKY)
        assert main(["lint", str(root), "--select", "RPR006",
                     "--no-baseline", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"RPR006"}

    def test_select_unknown_rule_rejected(self, tmp_path):
        root = write_package(tmp_path, LEAKY)
        with pytest.raises(SystemExit):
            main(["lint", str(root), "--select", "RPR999"])

    def test_severity_override_changes_gate(self, tmp_path, capsys):
        root = write_package(tmp_path, LEAKY)
        # Downgraded to warning, the default --fail-on error passes...
        assert main(["lint", str(root), "--no-baseline",
                     "--severity", "RPR001=warning",
                     "--severity", "RPR006=warning"]) == 0
        # ... and --fail-on warning still gates.
        assert main(["lint", str(root), "--no-baseline",
                     "--severity", "RPR001=warning",
                     "--severity", "RPR006=warning",
                     "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_severity_bad_spec_rejected(self, tmp_path):
        root = write_package(tmp_path, LEAKY)
        with pytest.raises(SystemExit):
            main(["lint", str(root), "--severity", "RPR001=fatal"])

    def test_all_scopes_applies_rules_everywhere(self, tmp_path, capsys):
        root = write_package(tmp_path, {
            "tests_fixture/test_timing.py": """\
                import time

                def test_speed():
                    return time.time()
                """,
        })
        assert main(["lint", str(root), "--select", "RPR001",
                     "--no-baseline"]) == 0
        assert main(["lint", str(root), "--select", "RPR001",
                     "--all-scopes", "--no-baseline"]) == 1
        capsys.readouterr()

    def test_sarif_report_shape(self, tmp_path, capsys):
        root = write_package(tmp_path, LEAKY)
        sarif_path = tmp_path / "report.sarif"
        assert main(["lint", str(root), "--no-baseline",
                     "--format", "sarif",
                     "--sarif-out", str(sarif_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["RPR001", "RPR002", "RPR003", "RPR004",
                           "RPR005", "RPR006", "RPR007", "RPR008",
                           "RPR009"]
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"RPR001", "RPR006"}
        for entry in results:
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith("repro/")
            assert location["region"]["startLine"] >= 1
            assert entry["partialFingerprints"]["reproLint/v1"]
        assert json.loads(sarif_path.read_text()) == document

    def test_prune_baseline_drops_stale(self, tmp_path, capsys):
        root = write_package(tmp_path, LEAKY)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(root),
                     "--write-baseline", str(baseline)]) == 0
        assert len(load_baseline(str(baseline))) == 2

        # Fix one of the two findings, then prune: exactly one entry
        # must drop and the other must survive verbatim.
        (tmp_path / "repro/runtime/leaky.py").write_text(
            "def stamp(tick):\n    return tick\n")
        assert main(["lint", str(root), "--baseline", str(baseline),
                     "--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entry" in out
        remaining = load_baseline(str(baseline))
        assert len(remaining) == 1
        assert remaining[0].rule == "RPR006"

    def test_prune_baseline_requires_full_scan(self, tmp_path):
        root = write_package(tmp_path, LEAKY)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["lint", str(root),
                     "--write-baseline", str(baseline)]) == 0
        with pytest.raises(SystemExit):
            main(["lint", str(root), "--baseline", str(baseline),
                  "--prune-baseline", "--select", "RPR001"])

    def test_diff_reports_changed_files_only(self, tmp_path, capsys,
                                             monkeypatch):
        root = write_package(tmp_path, LEAKY)
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t",
               "-c", "user.email=t@t"]
        subprocess.run(git[:3] + ["init", "-q"], check=True)
        subprocess.run(git[:3] + ["add", "-A"], check=True)
        subprocess.run(git + ["commit", "-qm", "seed"], check=True)
        # Touch only the RPR006 fixture.
        fanout = tmp_path / "repro/runtime/fanout.py"
        fanout.write_text(fanout.read_text() + "\nEXTRA = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(root), "--no-baseline",
                     "--diff", "HEAD", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"RPR006"}
        assert {f["path"] for f in report["findings"]} == {
            "repro/runtime/fanout.py"
        }

    def test_diff_bad_ref_rejected(self, tmp_path):
        root = write_package(tmp_path, LEAKY)
        with pytest.raises(SystemExit):
            main(["lint", str(root), "--diff",
                  "no-such-ref-xyzzy", "--no-baseline"])
