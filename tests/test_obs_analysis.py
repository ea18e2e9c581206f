"""Tests for the span-analytics layer (repro.obs.analysis) and its gates.

The load-bearing invariant, asserted against both synthetic records and a
live trace: folded self-times re-aggregate to **exactly** the root's
attributed duration, integer microseconds, despite per-span truncation.
On top of that: orphan handling, zero-duration spans, deep (>1500-span)
traces through every iterative walker, the flamegraph HTML, the top table,
the critical path, the trace diff naming a synthetically slowed subtree,
and the two CI gates that consume these reports
(``tools/check_perf_trend.py`` attribution, ``tools/check_obs_artifacts``
emit-site scanning and its op/byte fold check).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ParameterError
from repro.obs.analysis import (
    DIFF_SCHEMA,
    SpanNode,
    build_forest,
    critical_path,
    diff_traces,
    flamegraph_html,
    folded_stacks,
    parse_folded,
    render_critical_path,
    render_diff,
    render_folded,
    render_top,
    top_table,
    walk_forest,
)
from repro.obs.trace import span, tracing


def _rec(span_id, parent, name, start_us, duration_us, ops=None, bytes_io=None):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "attrs": {},
        "start_us": start_us,
        "duration_us": duration_us,
        "ops": ops or {},
        "bytes": bytes_io or {},
    }


def _live_records(depth=0):
    """A real traced run: nested spans with ops, exported via to_jsonl."""
    with tracing("root", kind="test") as tracer:
        with span("enroll"):
            with span("keygen"):
                sum(range(200))
            with span("encrypt"):
                sum(range(200))
        with span("query"):
            sum(range(100))
    return [json.loads(line) for line in tracer.to_jsonl().splitlines()]


class TestBuildForest:
    def test_truncation_clamped_in_sibling_order(self):
        # children's recorded durations sum past the parent: 60 + 45 > 100.
        # the clamp attributes in file order: a keeps 60, b gets the
        # remaining 40 (5us clipped), and the parent's self time is 0.
        records = [
            _rec(1, None, "root", 0, 100),
            _rec(2, 1, "a", 0, 60),
            _rec(3, 1, "b", 60, 45),
        ]
        (root,) = build_forest(records)
        a, b = root.children
        assert [c.name for c in root.children] == ["a", "b"]
        assert (a.total_us, a.clipped_us) == (60, 0)
        assert (b.total_us, b.clipped_us) == (40, 5)
        assert root.self_us == 0
        folded = folded_stacks(records)
        assert sum(folded.values()) == 100

    def test_orphan_parents_become_roots(self):
        # a worker trace sliced out of context: parent id 99 never appears
        records = [
            _rec(1, None, "root", 0, 50),
            _rec(2, 99, "stray", 0, 30),
        ]
        roots = build_forest(records)
        assert [r.name for r in roots] == ["root", "stray"]
        assert roots[1].path == ("stray",)

    def test_zero_duration_spans(self):
        records = [
            _rec(1, None, "root", 0, 0),
            _rec(2, 1, "child", 0, 0),
        ]
        (root,) = build_forest(records)
        assert root.total_us == root.self_us == 0
        assert root.children[0].total_us == 0
        assert sum(folded_stacks(records).values()) == 0

    def test_missing_fields_rejected(self):
        with pytest.raises(ParameterError):
            build_forest([{"id": 1, "parent": None}])
        with pytest.raises(ParameterError):
            build_forest([{"name": "x", "parent": None}])

    def test_deep_chain_no_recursion(self):
        # 1500 levels: every walker here is iterative, so this must not
        # hit the interpreter's ~1000-frame recursion limit
        records = [_rec(1, None, "n0", 0, 3000)]
        for i in range(1, 1500):
            records.append(_rec(i + 1, i, f"n{i}", i, 3000 - 2 * i))
        roots = build_forest(records)
        assert sum(1 for _ in walk_forest(roots)) == 1500
        folded = folded_stacks(records)
        assert sum(folded.values()) == 3000
        assert flamegraph_html(records).count('class="frame"') == 1500
        assert len(critical_path(records)) == 1500

    def test_live_trace_folds_to_exact_root_duration(self):
        records = _live_records()
        (root,) = build_forest(records)
        folded = folded_stacks(records)
        assert sum(folded.values()) == root.record["duration_us"]
        assert set(folded) >= {"root;enroll;keygen", "root;enroll;encrypt"}


#: Malformed span fields: each must fail every renderer with a typed error.
_MALFORMED = {
    "ops-list": ("ops", [3]),
    "ops-negative": ("ops", {"hash": -1}),
    "ops-float": ("ops", {"hash": 2.5}),
    "bytes-string": ("bytes", {"sent": "12"}),
    "bytes-null": ("bytes", None),
    "duration-string": ("duration_us", "7"),
    "duration-bool": ("duration_us", True),
    "start-float": ("start_us", 1.5),
}


class TestMalformedRecords:
    """``obs report``, ``obs top`` and ``obs flame`` reject a malformed
    tally or time with :class:`ParameterError`, not a raw ``TypeError`` or
    ``AttributeError``, and never print it as if it were well formed."""

    @pytest.mark.parametrize("command", ["report", "top", "flame"])
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_renderers_reject(self, tmp_path, capsys, command, case):
        from repro.cli import main

        field_name, value = _MALFORMED[case]
        child = _rec(2, 1, "phase", 0, 7)
        child[field_name] = value
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(_rec(1, None, "run", 0, 10)) + "\n"
            + json.dumps(child) + "\n",
            encoding="utf-8",
        )
        argv = {
            "report": ["obs", "report", "--dir", str(tmp_path)],
            "top": ["obs", "top", str(trace)],
            "flame": ["obs", "flame", str(trace), "--format", "folded"],
        }[command]
        with pytest.raises(ParameterError, match=f"span 2: {field_name}"):
            main(argv)
        assert "phase" not in capsys.readouterr().out

    def test_absent_tallies_and_times_are_empty(self):
        (root,) = build_forest([{"id": 1, "parent": None, "name": "run"}])
        assert (root.duration_us, root.ops, root.bytes_io) == (0, {}, {})


class TestFolded:
    def test_round_trip(self):
        folded = folded_stacks(_live_records())
        assert parse_folded(render_folded(folded)) == folded

    def test_parse_accumulates_duplicate_paths(self):
        assert parse_folded("a;b 3\na;b 4\n") == {"a;b": 7}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ParameterError):
            parse_folded("justonefield\n")
        with pytest.raises(ValueError):
            parse_folded("a;b notanumber\n")


class TestFlamegraph:
    def test_html_is_self_contained_and_escaped(self):
        records = [
            _rec(1, None, "root", 0, 100, ops={"modexp": 3}),
            _rec(2, 1, "<evil> & \"co\"", 0, 40),
        ]
        html = flamegraph_html(records, title="t <x>")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html and "http" not in html
        assert "&lt;evil&gt; &amp; &quot;co&quot;" in html
        assert "<evil>" not in html
        assert "<title>t &lt;x&gt;</title>" in html
        assert "modexp=3" in html
        assert "2 frames, root total 100us" in html

    def test_widths_are_integer_permille(self):
        records = [
            _rec(1, None, "root", 0, 1000),
            _rec(2, 1, "third", 0, 333),
        ]
        html = flamegraph_html(records)
        assert "width:33.3%" in html  # 333000 // 1000 = 333 permille
        assert "width:100.0%" in html


class TestTopTable:
    def test_aggregates_by_name_and_nets_ops(self):
        records = [
            _rec(1, None, "root", 0, 100, ops={"hash": 10}),
            _rec(2, 1, "phase", 0, 30, ops={"hash": 6}),
            _rec(3, 1, "phase", 30, 30, ops={"hash": 2}),
        ]
        rows = top_table(records)
        by_name = {row["name"]: row for row in rows}
        phase = by_name["phase"]
        assert phase["calls"] == 2
        assert phase["self_us"] == 60
        # root's recorded hash=10 includes the children's 8: net is 2
        assert by_name["root"]["ops"] == {"hash": 2}
        assert phase["ops"] == {"hash": 8}
        assert rows[0]["name"] == "phase"  # ranked by self time
        text = render_top(rows, limit=1)
        assert "phase" in text and "root" not in text

    def test_empty(self):
        assert render_top(top_table([])) == "(no spans)"


class TestCriticalPath:
    def test_follows_widest_child(self):
        records = [
            _rec(1, None, "root", 0, 100),
            _rec(2, 1, "small", 0, 20),
            _rec(3, 1, "big", 20, 70),
            _rec(4, 3, "leaf", 20, 50),
        ]
        chain = critical_path(records)
        assert [n.name for n in chain] == ["root", "big", "leaf"]
        text = render_critical_path(chain)
        assert "root" in text and "big" in text and "(70.0% of root)" in text

    def test_empty(self):
        assert critical_path([]) == []
        assert render_critical_path([]) == "(empty trace)"


def _base_and_slowed(slow_by_us=500):
    """Two aligned traces; ``encrypt`` under enroll is slower in the second."""
    base = [
        _rec(1, None, "run", 0, 1000, ops={"modexp": 4}),
        _rec(2, 1, "enroll", 0, 700),
        _rec(3, 2, "keygen", 0, 300),
        _rec(4, 2, "encrypt", 300, 350, ops={"ope_level": 64}),
        _rec(5, 1, "query", 700, 250),
    ]
    current = [
        _rec(1, None, "run", 0, 1000 + slow_by_us, ops={"modexp": 4}),
        _rec(2, 1, "enroll", 0, 700 + slow_by_us),
        _rec(3, 2, "keygen", 0, 300),
        _rec(4, 2, "encrypt", 300, 350 + slow_by_us, ops={"ope_level": 96}),
        _rec(5, 1, "query", 700 + slow_by_us, 250),
    ]
    return base, current


class TestDiff:
    def test_slowed_subtree_named_as_top_regression(self):
        base, current = _base_and_slowed()
        report = diff_traces(base, current)
        assert report["schema"] == DIFF_SCHEMA
        assert report["delta_root_us"] == 500
        top = report["top_regression"]
        # the slowdown lives in encrypt's *self* time; the inflated totals
        # of run/enroll must not steal the attribution
        assert top["path"] == "run;enroll;encrypt"
        assert top["delta_self_us"] == 500
        by_path = {row["path"]: row for row in report["paths"]}
        assert by_path["run"]["delta_self_us"] == 0
        assert by_path["run;enroll"]["delta_total_us"] == 500
        assert by_path["run;enroll;encrypt"]["delta_ops"] == {"ope_level": 32}
        text = render_diff(report)
        assert "top regression: run;enroll;encrypt self +500us" in text

    def test_identical_traces_have_no_regression(self):
        base, _ = _base_and_slowed()
        report = diff_traces(base, base)
        assert report["top_regression"] is None
        assert report["delta_root_us"] == 0
        assert "none" in render_diff(report)

    def test_report_is_json_serializable_integers(self):
        base, current = _base_and_slowed()
        report = diff_traces(base, current)
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped == report

        def walk(value):
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)
            else:
                assert value is None or isinstance(value, (str, int))

        walk(report)


class TestPerfTrendAttribution:
    """A failing gate prints the span-path diff naming the slowed subtree."""

    @staticmethod
    def _artifact(path, per_op_us):
        path.write_text(
            json.dumps(
                {
                    "ops": {"enroll": {"per_op_us": per_op_us}},
                    "speedups": {"incremental_churn_query": 1.0},
                    "calibration_us": 1000,
                }
            )
        )

    def test_failing_floor_prints_attribution(self, tmp_path, capsys):
        from tools.check_perf_trend import main

        current, baseline = tmp_path / "c.json", tmp_path / "b.json"
        self._artifact(current, 100)
        self._artifact(baseline, 100)
        base_trace, cur_trace = _base_and_slowed()
        trace_b = tmp_path / "trace.base.jsonl"
        trace_c = tmp_path / "trace.cur.jsonl"
        trace_b.write_text("\n".join(json.dumps(r) for r in base_trace) + "\n")
        trace_c.write_text("\n".join(json.dumps(r) for r in cur_trace) + "\n")
        code = main(
            [
                str(current),
                str(baseline),
                "--min-speedup",
                "incremental_churn_query=2.0",
                "--trace",
                str(trace_c),
                "--trace-baseline",
                str(trace_b),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "FAIL speedup 'incremental_churn_query' below floor" in err
        assert "attribution (span-path trace diff):" in err
        assert "top regression: run;enroll;encrypt" in err

    def test_passing_gate_prints_no_attribution(self, tmp_path, capsys):
        from tools.check_perf_trend import main

        current, baseline = tmp_path / "c.json", tmp_path / "b.json"
        self._artifact(current, 100)
        self._artifact(baseline, 100)
        code = main([str(current), str(baseline)])
        captured = capsys.readouterr()
        assert code == 0
        assert "attribution" not in captured.err


class TestEmitSiteScanner:
    """check_obs_artifacts --scan-sources: the registry is the only source."""

    @staticmethod
    def _scan(tree):
        from tools.check_obs_artifacts import scan_emit_sites

        problems = []
        count = scan_emit_sites(tree, problems)
        return count, problems

    def test_registered_literal_and_imported_constant_pass(self, tmp_path):
        (tmp_path / "good.py").write_text(
            "from repro.obs.metrics import M_SERVER_UPLOADS, metric_inc\n"
            "metric_inc(M_SERVER_UPLOADS)\n"
            'metric_inc("smatch_server_uploads_total")\n'
        )
        count, problems = self._scan(tmp_path)
        assert count == 2 and problems == []

    def test_unregistered_literal_fails(self, tmp_path):
        (tmp_path / "typo.py").write_text(
            "from repro.obs.metrics import metric_inc\n"
            'metric_inc("smatch_server_uplaods_total")\n'
        )
        _, problems = self._scan(tmp_path)
        assert len(problems) == 1 and "unregistered" in problems[0]

    def test_constant_not_imported_from_registry_fails(self, tmp_path):
        (tmp_path / "local.py").write_text(
            "from repro.obs.metrics import metric_inc\n"
            'MY_METRIC = "smatch_server_uploads_total"\n'
            "metric_inc(MY_METRIC)\n"
        )
        _, problems = self._scan(tmp_path)
        assert len(problems) == 1 and "not imported" in problems[0]

    def test_dynamic_name_fails(self, tmp_path):
        (tmp_path / "dyn.py").write_text(
            "from repro.obs.metrics import metric_inc\n"
            'metric_inc("smatch_" + "server_uploads_total")\n'
        )
        _, problems = self._scan(tmp_path)
        assert len(problems) == 1 and "dynamic" in problems[0]

    def test_registered_name_nobody_emits_fails(self, tmp_path, capsys):
        import repro.obs.metrics as registry
        from tools.check_obs_artifacts import main

        constants = sorted(
            attr
            for attr in vars(registry)
            if attr.startswith("M_") and getattr(registry, attr) in registry.METRICS
        )
        assert len(constants) == len(registry.METRICS)
        dead, live = constants[0], constants[1:]
        module = tmp_path / "emits.py"
        module.write_text(
            "from repro.obs.metrics import metric_inc\n"
            + "".join(
                f"from repro.obs.metrics import {attr} as m{i}\n"
                f"metric_inc(m{i})\n"
                for i, attr in enumerate(live)
            )
        )
        assert main(["--scan-sources", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("FAIL") == 1
        assert getattr(registry, dead) in err and "no call" in err
        # the same tree emitting the missing name as a literal is clean
        module.write_text(
            module.read_text()
            + f"metric_inc({getattr(registry, dead)!r})\n"
        )
        assert main(["--scan-sources", str(tmp_path)]) == 0

    def test_real_tree_is_clean(self):
        import tokenize
        from pathlib import Path

        from tools.check_obs_artifacts import main

        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        count, problems = self._scan(root)
        assert problems == []
        # an independent count over the same files: a helper name token
        # followed by "(" that is not its own definition
        helpers = {"metric_inc", "metric_set", "metric_observe"}
        calls = 0
        for py in sorted(root.rglob("*.py")):
            with tokenize.open(py) as source:
                tokens = [
                    t
                    for t in tokenize.generate_tokens(source.readline)
                    if t.type not in (tokenize.NL, tokenize.COMMENT)
                ]
            for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
                if (
                    tok.type == tokenize.NAME
                    and tok.string in helpers
                    and nxt.string == "("
                    and prev.string != "def"
                ):
                    calls += 1
        assert count == calls > 0
        assert main(["--scan-sources", str(root)]) == 0


class TestTraceFoldCheck:
    """check_obs_artifacts: no span holds less than its children together."""

    @staticmethod
    def _artifacts(tmp_path, parent_hash):
        records = [
            _rec(1, None, "phase", 0, 10, ops={"hash": parent_hash}, bytes_io={"sent": 8}),
            _rec(2, 1, "step", 1, 5, ops={"hash": 3}, bytes_io={"sent": 8}),
        ]
        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        return tmp_path / "trace.jsonl"

    @staticmethod
    def _fold_problems(path):
        from tools.check_obs_artifacts import check_trace

        problems = []
        check_trace(path, problems)
        return [p for p in problems if "children's sum" in p]

    def test_parent_holding_less_than_its_child_fails(self, tmp_path, capsys):
        from tools.check_obs_artifacts import main

        (problem,) = self._fold_problems(self._artifacts(tmp_path, parent_hash=1))
        assert "span 'phase' ops['hash']=1" in problem
        assert problem.endswith("children's sum 3")
        assert main([str(tmp_path)]) == 1
        assert problem in capsys.readouterr().err

    def test_parent_holding_its_child_passes(self, tmp_path):
        assert self._fold_problems(self._artifacts(tmp_path, parent_hash=3)) == []

    def test_live_trace_folds(self, tmp_path):
        from repro.obs.instrument import count_op, counting
        from repro.obs.trace import record_bytes

        with tracing("root") as tracer:
            with span("outer"):
                count_op("hash")
                with counting():
                    with span("inner"):
                        count_op("hash", 2)
                        record_bytes("sent", 5)
        path = tmp_path / "trace.jsonl"
        path.write_text(tracer.to_jsonl())
        assert self._fold_problems(path) == []
        assert tracer.root.ops == {"hash": 3}


class TestSpanNodeShape:
    def test_properties_reflect_record(self):
        node = SpanNode(
            record=_rec(7, None, "x", 0, 5, ops={"hash": 1}, bytes_io={"sent": 9}),
            path=("x",),
        )
        assert node.name == "x"
        assert node.duration_us == 5
        assert node.ops == {"hash": 1}
        assert node.bytes_io == {"sent": 9}
        assert node.folded_path() == "x"
