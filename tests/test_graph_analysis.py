"""The interprocedural graph analyzer (repro.analysis.graph): mesh
liveness, retry-amplification bounds, the ADN600-ADN606 rule family,
graph-wide dead-field elimination, and CLI exit-code parity."""

import json

import pytest

from repro.analysis.graph import (
    GraphAnalysisOptions,
    analyze_graph,
    compute_mesh_liveness,
    eliminate_dead_fields_graph,
    lower_edge_chains,
    retry_amplification,
)
from repro.cli import main
from repro.dsl.functions import DEFAULT_REGISTRY
from repro.dsl.parser import parse
from repro.dsl.stdlib import load_stdlib
from repro.dsl.validator import validate_program
from repro.graph import (
    GraphBuilder,
    MESH_SCHEMA,
    bookinfo_graph,
    hotel_mesh_graph,
    mesh_program,
)
from repro.graph.lint import check_chain_resolution, load_graph_spec
from repro.ir.passmgr import GraphPassManager
from repro.lint import Severity

DEMO_DSL = "examples/lint_demo.adn"


def codes(diagnostics):
    return [d.code for d in diagnostics]


def analyze(graph, program=None, **kwargs):
    return analyze_graph(
        graph, program or mesh_program(), MESH_SCHEMA, **kwargs
    )


def retry_storm():
    """frontend -> cart -> checkout -> payment, 3 attempts per hop."""
    return (
        GraphBuilder("storm")
        .edge("frontend", "cart", elements=("Logging",),
              deadline_budget_ms=50.0, max_attempts=3,
              per_attempt_timeout_ms=15.0, breaker=True)
        .edge("cart", "checkout", elements=("Logging",),
              deadline_budget_ms=25.0, max_attempts=3,
              per_attempt_timeout_ms=8.0, breaker=True)
        .edge("checkout", "payment", elements=("Logging",),
              deadline_budget_ms=12.0, max_attempts=3,
              per_attempt_timeout_ms=4.0, breaker=True)
        .build()
    )


class TestMeshLiveness:
    def test_declared_reads_bound_leaf_liveness(self):
        graph = bookinfo_graph()
        chains = lower_edge_chains(graph, mesh_program(), DEFAULT_REGISTRY)
        live, edge_live = compute_mesh_liveness(graph, chains, MESH_SCHEMA)
        assert live["details"] == frozenset({"payload"})
        assert live["ratings"] == frozenset({"obj_id"})
        # reviews reads payload itself, obj_id via LbKeyHash + the
        # ratings callee, and priority/username via the admission edge
        assert live["reviews"] == frozenset(
            {"payload", "obj_id", "priority", "username"}
        )

    def test_edge_live_is_callee_liveness_plus_runtime_reads(self):
        graph = bookinfo_graph()
        chains = lower_edge_chains(graph, mesh_program(), DEFAULT_REGISTRY)
        _, edge_live = compute_mesh_liveness(graph, chains, MESH_SCHEMA)
        assert edge_live[("productpage", "details")] == frozenset(
            {"payload"}
        )
        # the admission edge must carry priority + its hash fields even
        # though ratings itself only reads obj_id
        assert edge_live[("reviews", "ratings")] == frozenset(
            {"obj_id", "priority", "username"}
        )

    def test_undeclared_services_stay_conservative(self):
        graph = hotel_mesh_graph()
        chains = lower_edge_chains(graph, mesh_program(), DEFAULT_REGISTRY)
        live, _ = compute_mesh_liveness(graph, chains, MESH_SCHEMA)
        all_fields = frozenset(MESH_SCHEMA.application_field_names())
        assert all(fields == all_fields for fields in live.values())


class TestRetryAmplification:
    def test_bounds_multiply_along_the_path(self):
        bounds, worst, path = retry_amplification(retry_storm())
        assert bounds[("frontend", "cart")] == 3.0
        assert bounds[("cart", "checkout")] == 9.0
        assert bounds[("checkout", "payment")] == 27.0
        assert worst == 27.0
        assert path == ("frontend", "cart", "checkout", "payment")

    def test_hotel_mesh_worst_path(self):
        bounds, worst, path = retry_amplification(hotel_mesh_graph())
        assert worst == 4.0
        assert path == ("gateway", "search", "geo")
        assert bounds[("gateway", "search")] == 2.0

    def test_analysis_exposes_per_edge_bounds(self):
        analysis = analyze(bookinfo_graph())
        assert analysis.worst_amplification == 2.0
        assert analysis.amplification_bound("productpage", "reviews") == 2.0
        assert analysis.amplification_bound("productpage", "details") == 1.0


class TestAdn601Amplification:
    def test_fires_once_at_the_crossing_edge(self):
        analysis = analyze(retry_storm())
        findings = [d for d in analysis.diagnostics if d.code == "ADN601"]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert findings[0].element == "cart->checkout"

    def test_quiet_below_the_threshold(self):
        analysis = analyze(retry_storm(), options=GraphAnalysisOptions(
            amplification_threshold=27.0
        ))
        assert "ADN601" not in codes(analysis.diagnostics)


class TestAdn602Budgets:
    def test_budget_above_callers_is_unusable_headroom(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=10.0)
            .edge("b", "c", elements=("Logging",), deadline_budget_ms=50.0)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN602"
        ]
        assert any("headroom" in d.message for d in findings)
        assert findings[0].element == "b->c"

    def test_per_attempt_timeout_beyond_budget(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",),
                  deadline_budget_ms=10.0, per_attempt_timeout_ms=20.0)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN602"
        ]
        assert any("per attempt" in d.message for d in findings)

    def test_budget_too_thin_for_downstream_hops(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=1.5)
            .edge("b", "c", elements=("Logging",))
            .edge("c", "d", elements=("Logging",))
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN602"
        ]
        assert any("downstream hop" in d.message for d in findings)

    def test_demo_budgets_are_feasible(self):
        for graph in (bookinfo_graph(), hotel_mesh_graph()):
            assert "ADN602" not in codes(analyze(graph).diagnostics)


class TestAdn603DeepCoverage:
    def test_deep_retry_without_breaker_or_timeout(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=20.0)
            .edge("b", "c", elements=("Logging",),
                  deadline_budget_ms=10.0, max_attempts=2)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN603"
        ]
        assert len(findings) == 1
        assert findings[0].element == "b->c"

    def test_covered_deep_retry_is_clean(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=20.0)
            .edge("b", "c", elements=("Logging",),
                  deadline_budget_ms=10.0, max_attempts=2,
                  per_attempt_timeout_ms=4.0, breaker=True)
            .build()
        )
        assert "ADN603" not in codes(analyze(graph).diagnostics)

    def test_entry_edges_are_exempt(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",),
                  deadline_budget_ms=20.0, max_attempts=2)
            .build()
        )
        assert "ADN603" not in codes(analyze(graph).diagnostics)


class TestAdn604FateCoherence:
    def test_unknown_hash_field(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("session",))
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN604"
        ]
        assert any("'session'" in d.message for d in findings)

    def test_sibling_admission_edges_must_agree(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("username",))
            .edge("a", "c", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("obj_id",))
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN604"
        ]
        assert len(findings) == 1
        assert findings[0].element == "a"

    def test_agreeing_siblings_are_clean(self):
        assert "ADN604" not in codes(analyze(hotel_mesh_graph()).diagnostics)


class TestAdn605StateEscalation:
    def test_rmw_element_on_two_edges(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .edge("a", "c", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN605"
        ]
        assert len(findings) == 1
        assert findings[0].element == "GlobalQuota"
        assert "usage" in findings[0].message

    def test_single_edge_rmw_is_fine(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .build()
        )
        assert "ADN605" not in codes(analyze(graph).diagnostics)

    def test_append_only_state_on_many_edges_is_fine(self):
        # Logging state is APPEND, not read-modify-write
        assert "ADN605" not in codes(analyze(hotel_mesh_graph()).diagnostics)


CORRUPTING_ELEMENTS = """
element Corrupt {
    on request { SELECT input.*, 'oops' AS obj_id FROM input; }
    on response { SELECT * FROM input; }
}
element ObjMath {
    on request { SELECT * FROM input WHERE input.obj_id - 1 >= 0; }
    on response { SELECT * FROM input; }
}
"""


class TestAdn606Interprocedural:
    def program(self):
        return validate_program(
            load_stdlib().merged(parse(CORRUPTING_ELEMENTS)),
            schema=MESH_SCHEMA,
        )

    def test_caller_environment_surfaces_downstream_fault(self):
        graph = (
            GraphBuilder("t")
            .edge("a", "b", elements=("Corrupt",))
            .edge("b", "c", elements=("ObjMath",))
            .build()
        )
        analysis = analyze(graph, program=self.program())
        findings = [
            d for d in analysis.diagnostics if d.code == "ADN606"
        ]
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert "guaranteed to fault" in findings[0].message
        assert "caller actually delivers" in findings[0].message
        # the delivered entry environment narrowed obj_id to str
        from repro.dsl.schema import FieldType

        entry = analysis.edges[("b", "c")].entry_env
        assert entry["obj_id"].types == frozenset({FieldType.STR})

    def test_same_chain_is_clean_against_the_schema_alone(self):
        graph = (
            GraphBuilder("t")
            .edge("a", "b", elements=("ObjMath",))
            .build()
        )
        analysis = analyze(graph, program=self.program())
        assert "ADN606" not in codes(analysis.diagnostics)

    def test_demo_graphs_are_interprocedurally_clean(self):
        for graph in (bookinfo_graph(), hotel_mesh_graph()):
            assert analyze(graph).diagnostics == []


class TestAdn600SpecDiagnostics:
    def test_missing_file(self):
        graph, diags = load_graph_spec("examples/no_such_topology.json")
        assert graph is None
        assert codes(diags) == ["ADN600"]
        assert diags[0].severity is Severity.ERROR

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text("{not json")
        graph, diags = load_graph_spec(str(path))
        assert graph is None
        assert codes(diags) == ["ADN600"]
        assert "JSON" in diags[0].message

    def test_structurally_broken_spec(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text('{"name": "g", "edges": [{"src": "a"}]}')
        graph, diags = load_graph_spec(str(path))
        assert graph is None
        assert codes(diags) == ["ADN600"]
        assert diags[0].path == str(path)

    def test_unknown_element_carries_the_edge(self):
        graph = GraphBuilder("g").edge("a", "b", elements=("Ghost",)).build()
        diags = check_chain_resolution(
            graph, mesh_program(), MESH_SCHEMA, path="topo.json"
        )
        assert codes(diags) == ["ADN600"]
        assert diags[0].element == "a->b"
        assert "Ghost" in diags[0].message

    def test_cli_never_raises_on_malformed_specs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", str(bad), "--check"]) == 1
        assert "ADN600" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "elements", [["Logging", 7], ["Logging", None], [""], [["Acl"]], "Acl"]
    )
    def test_bad_edge_element_names(self, tmp_path, capsys, elements):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({
            "name": "g",
            "edges": [{"src": "a", "dst": "b", "elements": elements}],
        }))
        graph, diags = load_graph_spec(str(path))
        assert graph is None
        assert codes(diags) == ["ADN600"]
        assert "a->b" in diags[0].message
        assert main(["graph", str(path), "--check"]) == 1
        assert "ADN600" in capsys.readouterr().err


class TestGraphDeadFields:
    def test_bookinfo_shrinks_declared_edges(self):
        plan = eliminate_dead_fields_graph(
            bookinfo_graph(), mesh_program(), MESH_SCHEMA
        )
        assert set(plan.shrunk_edges()) == {
            ("productpage", "details"),
            ("reviews", "ratings"),
        }
        details = plan.changes[("productpage", "details")]
        assert set(details.removed_wire) == {
            "obj_id", "priority", "username"
        }
        assert details.bytes_after < details.bytes_before
        assert plan.bytes_saved() > 0

    def test_every_rewritten_edge_is_validated(self):
        plan = eliminate_dead_fields_graph(
            bookinfo_graph(), mesh_program(), MESH_SCHEMA
        )
        for change in plan.changes.values():
            if change.removals:
                assert change.verdict is not None
                assert change.verdict.ok is not False

    def test_undeclared_mesh_does_not_shrink(self):
        plan = eliminate_dead_fields_graph(
            hotel_mesh_graph(), mesh_program(), MESH_SCHEMA
        )
        assert plan.shrunk_edges() == []

    def test_pass_manager_reports_the_shrink(self):
        plan, reports = GraphPassManager().run(
            bookinfo_graph(), mesh_program(), MESH_SCHEMA
        )
        report = next(r for r in reports if r.name == "graph_dead_fields")
        assert report.rewrites == 2
        assert report.ir_size_after < report.ir_size_before
        assert report.legality_ok
        assert plan.edge_app_reads()[("productpage", "details")] == (
            frozenset({"payload"})
        )


class TestRetryStormExample:
    def test_example_spec_fires_the_documented_rules(self):
        graph, diags = load_graph_spec("examples/retry_storm.graph.json")
        assert graph is not None and diags == []
        analysis = analyze(graph)
        seen = set(codes(analysis.diagnostics))
        assert {"ADN601", "ADN603", "ADN604"} <= seen
        assert analysis.worst_amplification == 27.0

    def test_example_fails_the_cli_gate(self, capsys):
        assert main([
            "graph", "examples/retry_storm.graph.json",
            "--check", "--no-place",
        ]) == 1
        out = capsys.readouterr().out
        assert "ADN601" in out
        assert "ADN604" in out

    def test_bookinfo_example_spec_is_clean(self, capsys):
        assert main([
            "graph", "examples/bookinfo.graph.json",
            "--check", "--no-place", "--fail-on", "warning",
        ]) == 0


class TestDslGraphFlowRules:
    STORM_APP = """
app storm {
    service frontend;
    service cart;
    service checkout;
    service payment;
    chain frontend -> cart { Logging, Retry }
    chain cart -> checkout { Logging, Retry }
    chain checkout -> payment { Logging, Retry }
}
"""

    def test_adn601_on_stacked_retry_filters(self):
        from repro.lint import LintOptions, lint_source

        result = lint_source(
            self.STORM_APP,
            options=LintOptions(schema=MESH_SCHEMA),
        )
        findings = [
            d for d in result.diagnostics if d.code == "ADN601"
        ]
        # the stdlib Retry filter allows 4 attempts; 4*4=16 crosses the
        # 8x bound at the second chain, once
        assert len(findings) == 1
        assert "16x" in findings[0].message

    def test_single_chain_apps_are_exempt(self):
        from repro.lint import LintOptions, lint_source

        result = lint_source(
            """
app ok {
    service a;
    service b;
    chain a -> b { Logging, Retry }
}
""",
            options=LintOptions(schema=MESH_SCHEMA),
        )
        assert "ADN601" not in codes(result.diagnostics)


class TestCliExitCodeParity:
    """Satellite: ``lint``, ``check`` and ``graph --check`` must agree —
    same exit code for text and json, nonzero exactly at --fail-on."""

    STORM = "examples/retry_storm.graph.json"
    BOOKINFO = "examples/bookinfo.graph.json"

    def run_both_formats(self, argv, capsys):
        text_code = main(argv)
        capsys.readouterr()
        json_code = main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert text_code == json_code
        return text_code, payload

    def test_graph_check_parity_failing(self, capsys):
        code, payload = self.run_both_formats(
            ["graph", self.STORM, "--check", "--no-place"], capsys
        )
        assert code == 1
        assert payload["ok"] is False
        assert payload["analysis"]["worst_amplification"] == 27.0

    def test_graph_check_parity_threshold(self, capsys):
        # warnings only (ADN603/604/405) once the amplification bound is
        # not exceeded -> fail-on error passes, fail-on warning fails
        code, payload = self.run_both_formats(
            ["graph", self.BOOKINFO, "--check", "--no-place",
             "--fail-on", "warning"], capsys
        )
        assert code == 0
        assert payload["ok"] is True

    def test_check_graph_parity(self, capsys, tmp_path):
        code, payload = self.run_both_formats(
            ["check", DEMO_DSL, "--graph", self.STORM], capsys
        )
        assert code == 1
        assert payload["ok"] is False
        assert any(
            d["code"] == "ADN601" for d in payload["graph"]
        )

    def test_check_graph_passing(self, capsys):
        code, payload = self.run_both_formats(
            ["check", DEMO_DSL, "--graph", self.BOOKINFO], capsys
        )
        assert code == 0
        assert payload["ok"] is True

    def test_lint_parity_unchanged(self, capsys):
        code, payload = self.run_both_formats(["lint", DEMO_DSL], capsys)
        assert code == 0
        assert isinstance(payload, list)

    def test_all_three_agree_on_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        graph_code = main(["graph", str(bad), "--check"])
        capsys.readouterr()
        check_code = main(["check", DEMO_DSL, "--graph", str(bad)])
        capsys.readouterr()
        assert graph_code == check_code == 1


NONDET_ELEMENTS = """
element Drifting {
    state cache_tab (obj_id: int KEY, stamp: float);
    on request {
        INSERT INTO cache_tab SELECT input.obj_id, now() FROM input;
        SELECT * FROM input;
    }
    on response { SELECT * FROM input; }
}
element SeqEcho {
    var seq: int = 0;
    on request {
        SET seq = seq + 1;
        SELECT input.*, seq AS obj_id FROM input;
    }
    on response { SELECT * FROM input; }
}
"""


def nondet_program():
    return validate_program(
        load_stdlib().merged(parse(NONDET_ELEMENTS)), schema=MESH_SCHEMA
    )


class TestAdn700Effects:
    """Spec-side ADN700 family: effect summaries against topology."""

    def test_double_charge_example_fires_adn700(self):
        graph, diags = load_graph_spec("examples/double_charge.graph.json")
        assert graph is not None and diags == []
        analysis = analyze(graph)
        errors = [
            d for d in analysis.diagnostics if d.code == "ADN700"
        ]
        assert errors, "Metrics under a retrying edge must be an error"
        assert {d.element for d in errors} == {"Metrics"}
        assert all(d.severity is Severity.ERROR for d in errors)

    def test_double_charge_fires_adn701_on_fanout(self):
        graph, _ = load_graph_spec("examples/double_charge.graph.json")
        warnings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN701"
        ]
        assert any(d.element == "GlobalQuota" for d in warnings)

    def test_double_charge_example_fails_the_cli_gate(self, capsys):
        assert main([
            "graph", "examples/double_charge.graph.json",
            "--check", "--no-place",
        ]) == 1
        assert "ADN700" in capsys.readouterr().out

    def test_non_retrying_edge_is_exempt_from_adn700(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Metrics",), deadline_budget_ms=10.0)
            .build()
        )
        assert "ADN700" not in codes(analyze(graph).diagnostics)

    def test_rpc_keyed_logging_never_fires_adn700(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  max_attempts=3, per_attempt_timeout_ms=3.0, breaker=True)
            .build()
        )
        assert "ADN700" not in codes(analyze(graph).diagnostics)

    def test_adn702_on_nondeterministic_keyed_insert(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Drifting",), deadline_budget_ms=10.0)
            .build()
        )
        findings = [
            d
            for d in analyze(graph, nondet_program()).diagnostics
            if d.code == "ADN702"
        ]
        assert len(findings) == 1
        assert findings[0].element == "Drifting"
        assert "diverge" in findings[0].message

    def test_adn703_on_retry_visible_read(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("SeqEcho",), deadline_budget_ms=10.0,
                  max_attempts=3, per_attempt_timeout_ms=3.0, breaker=True)
            .build()
        )
        findings = [
            d
            for d in analyze(graph, nondet_program()).diagnostics
            if d.code == "ADN703"
        ]
        assert len(findings) == 1
        assert findings[0].element == "SeqEcho"
        assert "'obj_id'" in findings[0].message

    def test_adn703_quiet_without_retries(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("SeqEcho",), deadline_budget_ms=10.0)
            .build()
        )
        assert "ADN703" not in codes(
            analyze(graph, nondet_program()).diagnostics
        )

    def test_demo_graphs_have_no_adn700_errors(self):
        for graph in (bookinfo_graph(), hotel_mesh_graph()):
            errors = [
                d
                for d in analyze(graph).diagnostics
                if d.code == "ADN700" and d.severity is Severity.ERROR
            ]
            assert errors == []


class TestAdn604EntryEdges:
    """Satellite edge case: hash_fields declared on an entry edge."""

    def test_unknown_hash_field_on_entry_edge(self):
        graph = (
            GraphBuilder("g")
            .edge("gw", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("session",))
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN604"
        ]
        assert any("'session'" in d.message for d in findings)

    def test_entry_fanout_with_disagreeing_hashes(self):
        """The sibling-coherence check applies at the entry service too:
        its fan-out legs shed against the same inbound request."""
        graph = (
            GraphBuilder("g")
            .edge("gw", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("username",))
            .edge("gw", "c", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("obj_id",))
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN604"
        ]
        assert len(findings) == 1
        assert findings[0].element == "gw"

    def test_valid_hash_on_single_entry_edge_is_clean(self):
        graph = (
            GraphBuilder("g")
            .edge("gw", "b", elements=("Logging",), deadline_budget_ms=10.0,
                  admission=True, hash_fields=("username",))
            .build()
        )
        assert "ADN604" not in codes(analyze(graph).diagnostics)


class TestAdn605ParallelFanout:
    """Satellite edge case: RMW element on two parallel fan-out edges
    of ONE parent (vs the sequential two-hop placement)."""

    def test_parallel_siblings_fire_once_naming_both_edges(self):
        graph = (
            GraphBuilder("g")
            .edge("parent", "left", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .edge("parent", "right", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN605"
        ]
        assert len(findings) == 1
        message = findings[0].message
        assert "parent->left" in message and "parent->right" in message

    def test_sequential_hops_fire_too(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .edge("b", "c", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .build()
        )
        findings = [
            d for d in analyze(graph).diagnostics if d.code == "ADN605"
        ]
        assert len(findings) == 1

    def test_parallel_fanout_also_raises_adn701(self):
        """The same placement is order-dependent at runtime: the
        effect-level ADN701 fires alongside the state-copy ADN605."""
        graph = (
            GraphBuilder("g")
            .edge("parent", "left", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .edge("parent", "right", elements=("GlobalQuota",),
                  deadline_budget_ms=10.0)
            .build()
        )
        seen = set(codes(analyze(graph).diagnostics))
        assert {"ADN605", "ADN701"} <= seen


class TestDiagnosticHygiene:
    """Satellite: cross-variant dedupe + stable output ordering."""

    def test_analysis_output_is_sorted_and_exact_dupe_free(self):
        from repro.lint.diagnostics import sort_key

        graph, _ = load_graph_spec("examples/retry_storm.graph.json")
        diagnostics = analyze(graph).diagnostics
        assert [sort_key(d) for d in diagnostics] == sorted(
            sort_key(d) for d in diagnostics
        )
        exact = [
            (d.path, d.line, d.column, d.code, d.element, d.message)
            for d in diagnostics
        ]
        assert len(exact) == len(set(exact))

    def test_cross_variant_codes_collapse_per_element(self):
        graph, _ = load_graph_spec("examples/retry_storm.graph.json")
        diagnostics = analyze(graph).diagnostics
        from repro.lint.diagnostics import CROSS_VARIANT_CODES

        keyed = [
            (d.code, d.element)
            for d in diagnostics
            if d.code in CROSS_VARIANT_CODES and d.element
        ]
        assert len(keyed) == len(set(keyed))

    def test_dedupe_prefers_higher_severity_variant(self):
        from repro.lint.diagnostics import Diagnostic, dedupe_diagnostics

        dsl_side = Diagnostic(
            code="ADN601", severity=Severity.WARNING,
            message="dsl wording", path="a.adn", element="storm",
        )
        spec_side = Diagnostic(
            code="ADN601", severity=Severity.ERROR,
            message="spec wording", path="a.adn", element="storm",
        )
        kept = dedupe_diagnostics([dsl_side, spec_side])
        assert kept == [spec_side]

    def test_unrelated_codes_never_collapse(self):
        from repro.lint.diagnostics import Diagnostic, dedupe_diagnostics

        first = Diagnostic(
            code="ADN700", severity=Severity.ERROR,
            message="edge one", path="g.json", element="Metrics",
        )
        second = Diagnostic(
            code="ADN700", severity=Severity.ERROR,
            message="edge two", path="g.json", element="Metrics",
        )
        assert len(dedupe_diagnostics([first, second])) == 2
