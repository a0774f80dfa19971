"""Rule-level tests: each catalog entry fires on a seeded fixture and
stays quiet on the contract-clean variant."""

import textwrap

import pytest

from repro.analysis.engine import ModuleScan, _propagate_contexts, scan_module
from repro.analysis.rules import RULES, check_function


def lint_source(tmp_path, source, module="repro.schemas.fixture", checked=()):
    """Scan a source string as one module and run the static rules."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source))
    scan = scan_module(path, module)
    from repro.analysis.engine import _apply_mark_claims

    violations = _apply_mark_claims(scan, set(checked))
    _propagate_contexts(scan)
    for fn in scan.functions:
        violations.extend(
            check_function(
                fn, scan.parent_of, scan.random_aliases, scan.time_aliases
            )
        )
    return violations


def rules_of(violations):
    return sorted({v.rule for v in violations if not v.waived})


class TestLOC001:
    def test_graph_n_read_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return view.graph_n % 2
            """,
        )
        assert rules_of(found) == ["LOC001"]

    def test_global_knowledge_accessor_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return view.global_knowledge().n
            """,
        )
        assert rules_of(found) == ["LOC001"]

    def test_waiver_silences(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import uses_global_knowledge

            @uses_global_knowledge("the model hands every node n upfront")
            def decide(view):
                return view.graph_n % 2
            """,
        )
        assert rules_of(found) == []
        assert any(v.rule == "LOC001" and v.waived for v in found)

    def test_closed_over_graph_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def make(graph):
                def decide(view):
                    return len(graph.nodes())
                return decide
            """,
        )
        assert "LOC001" in rules_of(found)

    def test_pure_view_function_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return min(view.id_of(v) for v in view.nodes)
            """,
        )
        assert rules_of(found) == []


class TestLOC002:
    def test_set_for_loop_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                out = []
                for v in view.nodes:
                    out.append(view.id_of(v))
                return out
            """,
        )
        assert rules_of(found) == ["LOC002"]

    def test_sorted_iteration_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return [view.id_of(v) for v in sorted(view.nodes, key=view.id_of)]
            """,
        )
        assert rules_of(found) == []

    def test_generator_into_min_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return min(view.id_of(v) for v in view.nodes)
            """,
        )
        assert rules_of(found) == []

    def test_set_pop_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                pending = set(view.nodes)
                return pending.pop()
            """,
        )
        assert rules_of(found) == ["LOC002"]

    def test_module_random_flagged_seeded_rng_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            import random

            def decide(view):
                return random.random()

            def decide_seeded(view):
                rng = random.Random(view.id_of(view.center))
                return rng.random()
            """,
        )
        bad = [v for v in found if not v.waived]
        assert rules_of(found) == ["LOC002"]
        assert all(v.function == "decide" for v in bad)

    def test_wall_clock_and_hash_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            import time

            def decide(view):
                return (time.time(), hash(view.center))
            """,
        )
        bad = [v for v in found if v.rule == "LOC002"]
        assert len(bad) == 2

    def test_decode_method_checked(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            class Schema:
                def decode(self, graph, advice):
                    labels = {}
                    for v in set(graph.nodes()):
                        labels[v] = advice[v]
                    return labels
            """,
        )
        assert rules_of(found) == ["LOC002"]

    def test_helper_reached_through_self_call(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            class Schema:
                def decode(self, graph, advice):
                    return self._helper(set(graph.nodes()))

                def _helper(self, pending: set):
                    return pending.pop()
            """,
        )
        assert rules_of(found) == ["LOC002"]
        assert found[0].function == "Schema._helper"

    def test_helper_reached_through_module_call(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            import random

            def decide(view):
                return _helper(view)

            def _helper(view):
                return random.choice(sorted(view.nodes))
            """,
        )
        assert rules_of(found) == ["LOC002"]
        assert [v.function for v in found] == ["_helper"]

    def test_lint_waiver_silences(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.analysis import lint_waiver

            @lint_waiver("LOC002", "seeded via the view, reproducible")
            def decide(view):
                return hash(frozenset(view.nodes))
            """,
        )
        assert rules_of(found) == []
        assert any(v.rule == "LOC002" and v.waived for v in found)


class TestLOC003:
    def test_global_decl_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            CACHE = {}

            def decide(view):
                global CACHE
                CACHE[view.center] = 1
                return 1
            """,
        )
        assert "LOC003" in rules_of(found)

    def test_module_state_write_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            _cache = {}

            def decide(view):
                _cache[view.center] = 1
                return 0
            """,
        )
        assert rules_of(found) == ["LOC003"]

    def test_nonlocal_write_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def make_decider():
                calls = 0

                def decide(view):
                    nonlocal calls
                    calls += 1
                    return calls

                return decide
            """,
        )
        assert rules_of(found) == ["LOC003"]

    def test_mutating_closure_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def make():
                seen = []
                def decide(view):
                    seen.append(view.center)
                    return len(seen)
                return decide
            """,
        )
        assert "LOC003" in rules_of(found)

    def test_local_mutation_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                acc = []
                acc.append(view.center)
                return acc
            """,
        )
        assert rules_of(found) == []


class TestORD001:
    def test_id_arithmetic_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def decide(view):
                return view.id_of(view.center) % 2

            decide = mark_order_invariant(decide)
            """,
            checked={"repro.schemas.fixture:decide"},
        )
        assert rules_of(found) == ["ORD001"]

    def test_id_constant_comparison_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def decide(view):
                return 1 if view.id_of(view.center) > 100 else 0

            decide = mark_order_invariant(decide)
            """,
            checked={"repro.schemas.fixture:decide"},
        )
        assert rules_of(found) == ["ORD001"]

    def test_id_vs_id_comparison_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def decide(view):
                c = view.center
                return any(view.id_of(u) < view.id_of(c) for u in view.neighbors(c))

            decide = mark_order_invariant(decide)
            """,
            checked={"repro.schemas.fixture:decide"},
        )
        assert rules_of(found) == []

    def test_unmarked_function_not_checked(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            def decide(view):
                return view.id_of(view.center) % 2
            """,
        )
        assert rules_of(found) == []


class TestORD002:
    def test_unregistered_claim_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def decide(view):
                return 0

            decide = mark_order_invariant(decide)
            """,
        )
        assert rules_of(found) == ["ORD002"]

    def test_registered_claim_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def decide(view):
                return 0

            decide = mark_order_invariant(decide)
            """,
            checked={"repro.schemas.fixture:decide"},
        )
        assert rules_of(found) == []

    def test_nested_factory_claim_resolves_qualname(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.local import mark_order_invariant

            def factory(window):
                def decide(view):
                    return window
                return mark_order_invariant(decide)
            """,
            checked={"repro.schemas.fixture:factory.<locals>.decide"},
        )
        assert rules_of(found) == []


class TestWVR001:
    def test_empty_reason_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            """
            from repro.analysis import lint_waiver

            @lint_waiver("LOC002", "")
            def decide(view):
                for v in view.nodes:
                    return v
            """,
        )
        assert rules_of(found) == ["LOC002", "WVR001"]

    def test_wvr001_not_waivable(self):
        assert RULES["WVR001"].waivable is False


class TestWaiverDecorators:
    def test_lint_waiver_rejects_empty_reason(self):
        from repro.analysis import lint_waiver

        with pytest.raises(ValueError):
            lint_waiver("LOC002", "   ")

    def test_uses_global_knowledge_rejects_empty_reason(self):
        from repro.local import uses_global_knowledge

        with pytest.raises(ValueError):
            uses_global_knowledge("")

    def test_waivers_attach_and_merge(self):
        from repro.analysis import lint_waiver, waivers_of

        @lint_waiver("LOC002", "iteration order provably irrelevant")
        @lint_waiver("ORD002", "covered by test_xyz")
        def fn(view):
            return 0

        assert waivers_of(fn) == {
            "LOC002": "iteration order provably irrelevant",
            "ORD002": "covered by test_xyz",
        }
