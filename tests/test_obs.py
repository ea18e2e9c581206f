"""Tests for the repro.obs telemetry subsystem (tracing/metrics/logging).

Covers the three pillars plus the lifecycle glue: span nesting and fold-up
semantics, JSONL export and tree re-rendering, the integer-only metrics
registry with both exporters, the redacting logger, and — the property the
instrumented hot paths rely on — that everything is a no-op while telemetry
is inactive.
"""

from __future__ import annotations

import hashlib
import json
import logging

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.obs.instrument import count_op
from repro.obs.logs import KeyValueFormatter, Redactor, get_logger
from repro.obs.metrics import (
    BYTE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    metric_inc,
    metric_observe,
    metric_set,
)
from repro.obs.report import (
    load_trace_records,
    read_trace_file,
    render_report,
    render_trace_report,
    save_run,
)
from repro.obs.trace import (
    _NOOP,
    current_span,
    current_tracer,
    record_bytes,
    span,
    tracing,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry fully inactive."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def pop_scheme(oprf_server, population):
    """A scheme over the population's numeric schema (cf. ``enrolled``)."""
    from repro.core.scheme import SMatch, SMatchParams
    from repro.utils.rand import SystemRandomSource

    return SMatch(
        SMatchParams(schema=population.schema, theta=8, plaintext_bits=64),
        oprf_server=oprf_server,
        rng=SystemRandomSource(seed=5),
    )


class TestSpanTracing:
    def test_nesting_and_names(self):
        with tracing("root") as tracer:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        assert tracer.span_names() == ["root", "a", "b", "c"]
        (a,) = tracer.find("a")
        assert [c.name for c in a.children] == ["b"]

    def test_ops_fold_into_ancestors(self):
        with tracing("root") as tracer:
            with span("outer"):
                count_op("hash")
                with span("inner"):
                    count_op("hash", 2)
        (outer,) = tracer.find("outer")
        (inner,) = tracer.find("inner")
        assert inner.ops == {"hash": 2}
        assert outer.ops == {"hash": 3}
        assert tracer.root.ops == {"hash": 3}

    def test_bytes_fold_into_ancestors(self):
        with tracing("root") as tracer:
            with span("phase"):
                record_bytes("sent", 100)
                with span("sub"):
                    record_bytes("sent", 10)
                    record_bytes("received", 7)
        (phase,) = tracer.find("phase")
        assert phase.bytes_io == {"sent": 110, "received": 7}
        assert tracer.root.bytes_io == {"sent": 110, "received": 7}

    def test_durations_recorded(self):
        with tracing("root") as tracer:
            with span("timed"):
                pass
        (timed,) = tracer.find("timed")
        assert timed.duration_ns >= 0
        assert tracer.root.duration_ns >= timed.duration_ns

    def test_attrs_and_set_attr(self):
        with tracing("root") as tracer:
            with span("phase", users=4) as s:
                s.set_attr("groups", 2)
        (phase,) = tracer.find("phase")
        assert phase.attrs == {"users": 4, "groups": 2}

    def test_jsonl_roundtrip_with_parent_links(self):
        with tracing("root", run=1) as tracer:
            with span("a"):
                with span("b"):
                    count_op("hash")
        records = [
            json.loads(line) for line in tracer.to_jsonl().splitlines() if line
        ]
        assert [r["name"] for r in records] == ["root", "a", "b"]
        by_name = {r["name"]: r for r in records}
        assert by_name["root"]["parent"] is None
        assert by_name["a"]["parent"] == by_name["root"]["id"]
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["b"]["ops"] == {"hash": 1}
        assert all("duration_us" in r and "start_us" in r for r in records)

    def test_render_tree_shape(self):
        with tracing("root") as tracer:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        rendered = render_trace_report(tracer.span_records())
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert "|- a" in lines[1]
        assert "`- b" in lines[2]
        assert "`- c" in lines[3]

    def test_tracers_do_not_nest(self):
        with tracing("outer"):
            with pytest.raises(ParameterError):
                with tracing("inner"):
                    pass

    def test_current_span_and_tracer(self):
        assert current_tracer() is None
        assert current_span() is None
        with tracing("root") as tracer:
            assert current_tracer() is tracer
            with span("a") as a:
                assert current_span() is a

    @staticmethod
    def _worker_record():
        return {
            "id": "w1",
            "parent": None,
            "name": "worker",
            "attrs": {},
            "start_us": 0,
            "duration_us": 1,
            "ops": {"modexp": 1},
            "bytes": {},
        }

    def test_splice_under_a_closed_span_is_refused(self):
        with tracing("root") as tracer:
            with span("closed") as closed:
                count_op("hash")
            with pytest.raises(ParameterError, match="closed span"):
                tracer.splice([self._worker_record()], parent=closed)
        assert closed.children == []
        assert closed.ops == tracer.root.ops == {"hash": 1}

    def test_splice_under_the_innermost_open_span_folds_up(self):
        with tracing("root") as tracer:
            with span("open") as open_span:
                (grafted,) = tracer.splice([self._worker_record()])
        assert open_span.children == [grafted]
        assert open_span.ops == tracer.root.ops == {"modexp": 1}


class TestInactiveNoop:
    """The disabled-path guarantee the instrumented call sites rely on."""

    def test_span_returns_shared_noop(self):
        assert span("anything", attrs=1) is _NOOP
        with span("anything") as s:
            s.set_attr("x", 1)
            s.add_bytes("sent", 10)

    def test_record_bytes_is_noop(self):
        record_bytes("sent", 10)  # must not raise

    def test_metric_helpers_are_noops(self):
        assert active_metrics() is None
        metric_inc("smatch_x_total")
        metric_set("smatch_x", 1)
        metric_observe("smatch_x_bytes", 10)
        assert active_metrics() is None

    def test_pipeline_produces_zero_spans_and_metrics(self, pop_scheme, population):
        """Acceptance: an uninstrumented run records nothing at all."""
        profile = population.generate(1)[0].profile
        payload, key = pop_scheme.enroll(profile)
        assert pop_scheme.verify(payload.auth, key)
        assert current_tracer() is None
        assert active_metrics() is None


class TestMetrics:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ParameterError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("n")
        g.set(7)
        g.inc(-2)
        assert g.value == 5

    def test_histogram_buckets(self):
        h = Histogram("n", bounds=(10, 100))
        for v in (5, 10, 50, 1000):
            h.observe(v)
        assert h.cumulative() == [("10", 2), ("100", 3), ("+Inf", 4)]
        assert h.total == 1065
        assert h.count == 4
        with pytest.raises(ParameterError):
            h.observe(-1)
        with pytest.raises(ParameterError):
            Histogram("bad", bounds=(100, 10))

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_and_json(self):
        registry = MetricsRegistry()
        registry.counter("smatch_x_total").inc(3)
        registry.gauge("smatch_g").set(2)
        registry.histogram("smatch_b", BYTE_BUCKETS).observe(100)
        snap = registry.snapshot()
        assert snap["counters"] == {"smatch_x_total": 3}
        assert snap["gauges"] == {"smatch_g": 2}
        assert snap["histograms"]["smatch_b"]["count"] == 1
        assert snap["histograms"]["smatch_b"]["sum"] == 100
        assert json.loads(registry.render_json()) == snap

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("smatch_x_total").inc()
        registry.histogram("smatch_b", (64, 256)).observe(100)
        text = registry.render_prometheus()
        assert "# TYPE smatch_x_total counter" in text
        assert "smatch_x_total 1" in text
        assert 'smatch_b_bucket{le="64"} 0' in text
        assert 'smatch_b_bucket{le="256"} 1' in text
        assert 'smatch_b_bucket{le="+Inf"} 1' in text
        assert "smatch_b_sum 100" in text
        assert "smatch_b_count 1" in text

    def test_enable_disable_helpers(self):
        registry = enable_metrics()
        metric_inc("smatch_x_total", 2)
        metric_set("smatch_g", 9)
        metric_observe("smatch_b", 12)
        snap = registry.snapshot()
        assert snap["counters"]["smatch_x_total"] == 2
        assert snap["gauges"]["smatch_g"] == 9
        assert snap["histograms"]["smatch_b"]["count"] == 1
        disable_metrics()
        metric_inc("smatch_x_total")
        assert registry.snapshot()["counters"]["smatch_x_total"] == 2

    def test_histogram_reregistration_with_other_bounds_raises(self):
        registry = MetricsRegistry()
        registry.histogram("smatch_b", (64, 256))
        with pytest.raises(ParameterError) as exc:
            registry.histogram("smatch_b", (10, 100))
        # the error must name the metric — it points at the offending site
        assert "smatch_b" in str(exc.value)
        assert "(64, 256)" in str(exc.value)
        # same bounds re-register fine (list vs tuple is immaterial)
        assert registry.histogram("smatch_b", [64, 256]).count == 0

    def test_metric_names_cover_catalog(self):
        from repro.obs.metrics import METRICS, metric_names

        names = metric_names()
        assert names == frozenset(METRICS)
        assert "smatch_server_uploads_total" in names
        assert "smatch_obs_worker_spans_total" in names


class TestMergeableRegistries:
    """Cross-process aggregation: merge(to_mergeable()) is exact."""

    def test_counters_add_gauges_max_histograms_add(self):
        worker = MetricsRegistry()
        worker.counter("smatch_x_total").inc(3)
        worker.gauge("smatch_depth").set(5)
        worker.histogram("smatch_b", (64, 256)).observe(100)
        parent = MetricsRegistry()
        parent.counter("smatch_x_total").inc(2)
        parent.gauge("smatch_depth").set(9)
        parent.histogram("smatch_b", (64, 256)).observe(30)
        parent.merge(worker.to_mergeable())
        snap = parent.snapshot()
        assert snap["counters"]["smatch_x_total"] == 5
        assert snap["gauges"]["smatch_depth"] == 9  # level metrics keep max
        assert snap["histograms"]["smatch_b"]["count"] == 2
        assert snap["histograms"]["smatch_b"]["sum"] == 130

    def test_merge_is_associative_and_commutative(self):
        def make(c, g):
            registry = MetricsRegistry()
            registry.counter("smatch_x_total").inc(c)
            registry.gauge("smatch_depth").set(g)
            registry.histogram("smatch_b", (64,)).observe(c)
            return registry

        views = [make(1, 4).to_mergeable(), make(2, 2).to_mergeable()]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for view in views:
            forward.merge(view)
        for view in reversed(views):
            backward.merge(view)
        assert forward.snapshot() == backward.snapshot()

    def test_merge_creates_missing_metrics(self):
        worker = MetricsRegistry()
        worker.counter("smatch_new_total").inc(7)
        worker.histogram("smatch_h", (10,)).observe(3)
        parent = MetricsRegistry()
        parent.merge(worker.to_mergeable())
        snap = parent.snapshot()
        assert snap["counters"]["smatch_new_total"] == 7
        assert snap["histograms"]["smatch_h"]["count"] == 1

    def test_merge_rejects_mismatched_bounds(self):
        worker = MetricsRegistry()
        worker.histogram("smatch_h", (10,)).observe(1)
        parent = MetricsRegistry()
        parent.histogram("smatch_h", (99,))
        with pytest.raises(ParameterError) as exc:
            parent.merge(worker.to_mergeable())
        assert "smatch_h" in str(exc.value)

    def test_mergeable_round_trips_through_pickle_shape(self):
        # workers ship this dict across a process boundary: it must be
        # plain JSON-compatible data, no live metric objects
        worker = MetricsRegistry()
        worker.counter("smatch_x_total").inc(1)
        worker.histogram("smatch_b", (64,)).observe(9)
        view = json.loads(json.dumps(worker.to_mergeable()))
        parent = MetricsRegistry()
        parent.merge(view)
        assert parent.snapshot()["counters"]["smatch_x_total"] == 1


class TestLogging:
    def test_redactor_refuses_secret_fields(self):
        r = Redactor()
        assert r.render_value("profile_key", b"\x00" * 32) == "[REDACTED]"
        assert r.render_value("mac", "deadbeef") == "[REDACTED]"
        assert r.render_value("oprf_output", 123) == "[REDACTED]"

    def test_redactor_bytes_become_lengths(self):
        assert Redactor().render_value("blob", b"1234") == "bytes[4]"

    def test_redactor_public_values_pass(self):
        r = Redactor()
        assert r.render_value("key_index", "abc123") == "abc123"
        assert r.render_value("user_id", 7) == "7"

    def test_redactor_truncates_long_values(self):
        rendered = Redactor().render_value("detail", "x" * 500)
        assert len(rendered) < 500
        assert rendered.endswith("...")

    def test_logger_emits_redacted_key_values(self):
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(self.format(record))

        handler = _Capture()
        handler.setFormatter(KeyValueFormatter())
        root = logging.getLogger("smatch")
        root.addHandler(handler)
        root.setLevel(logging.DEBUG)
        try:
            log = get_logger("testcomp")
            log.info("enrolled", user=7, session_key=b"secret", blob=b"abcd")
        finally:
            root.removeHandler(handler)
        (line,) = records
        assert "component=testcomp" in line
        assert "event=enrolled" in line
        assert "user=7" in line
        assert "session_key=[REDACTED]" in line
        assert "blob=bytes[4]" in line
        assert "secret" not in line.replace("[REDACTED]", "")

    def test_fallback_regexes_match_lint_config(self):
        """logs.py mirrors the SML002 heuristics; they must never drift."""
        from repro.obs import logs
        from tools.smatch_lint.config import _PUBLIC_NAME_RE, _SECRET_NAME_RE

        assert logs._FALLBACK_SECRET_RE.pattern == _SECRET_NAME_RE.pattern
        assert logs._FALLBACK_PUBLIC_RE.pattern == _PUBLIC_NAME_RE.pattern


class TestLifecycleAndReport:
    def test_pipeline_span_noop_when_disabled(self):
        with obs.pipeline_span("run"):
            assert current_tracer() is None

    def test_pipeline_span_roots_and_saves(self, tmp_path):
        obs.enable(tmp_path)
        with obs.pipeline_span("run", users=2):
            with span("phase"):
                count_op("hash")
            metric_inc("smatch_test_total")
        records = load_trace_records(tmp_path)
        assert [r["name"] for r in records] == ["run", "phase"]
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["counters"]["smatch_test_total"] == 1
        assert (tmp_path / "metrics.prom").exists()

    def test_pipeline_span_nests_as_child(self, tmp_path):
        obs.enable(tmp_path)
        with obs.pipeline_span("outer"):
            with obs.pipeline_span("inner"):
                pass
        assert [r["name"] for r in load_trace_records(tmp_path)] == [
            "outer",
            "inner",
        ]

    def test_enabled_via_env(self, monkeypatch):
        assert not obs.enabled()
        monkeypatch.setenv("SMATCH_OBS", "1")
        assert obs.enabled()
        monkeypatch.setenv("SMATCH_OBS", "0")
        assert not obs.enabled()

    def test_load_trace_missing_raises(self, tmp_path):
        with pytest.raises(ParameterError):
            load_trace_records(tmp_path / "nope")

    def test_torn_trace_line_raises_typed_error(self, tmp_path):
        obs.enable(tmp_path)
        with obs.pipeline_span("run"):
            with span("phase"):
                pass
        trace = tmp_path / "trace.jsonl"
        first, last = trace.read_text(encoding="utf-8").splitlines()
        # a crash mid-write leaves the last line cut short
        trace.write_text(f"{first}\n{last[: len(last) // 2]}", encoding="utf-8")
        with pytest.raises(ParameterError, match="line 2 is not valid JSON") as info:
            read_trace_file(trace)
        assert str(trace) in str(info.value)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)
        # the report surfaces the damage instead of "(none recorded)"
        with pytest.raises(ParameterError, match="line 2"):
            render_report(tmp_path)

    def test_trace_line_not_an_object_raises(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"id": 1, "parent": null}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(ParameterError, match="line 2 is not a JSON object"):
            read_trace_file(trace)

    def test_report_without_trace_says_none_recorded(self, tmp_path):
        assert "-- trace -- (none recorded)" in render_report(tmp_path)

    def test_report_renders_tree_and_metrics(self, tmp_path):
        obs.enable(tmp_path)
        with obs.pipeline_span("run"):
            with span("phase"):
                count_op("hash", 3)
            metric_inc("smatch_test_total", 2)
        report = render_report(tmp_path)
        assert "-- trace --" in report
        assert "`- phase" in report
        assert "[hash=3]" in report
        assert "smatch_test_total" in report

    def test_render_trace_report_rebuilds_from_jsonl(self):
        with tracing("root") as tracer:
            with span("child"):
                pass
        records = [
            json.loads(line) for line in tracer.to_jsonl().splitlines() if line
        ]
        rendered = render_trace_report(records)
        assert rendered.splitlines()[0].startswith("root")
        assert "`- child" in rendered

    def test_report_on_a_line_without_id_raises_typed_error(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"id": 1, "parent": null, "name": "run"}\n'
            '{"parent": 1, "name": "phase"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParameterError, match="need name and id"):
            render_report(tmp_path)

    def test_save_run_handles_missing_parts(self, tmp_path):
        target = save_run(None, None, tmp_path / "sub")
        assert target.exists()
        assert not (target / "trace.jsonl").exists()


class TestEndToEndPipeline:
    """Acceptance: phase spans across the whole matching pipeline."""

    PHASES = (
        "profile.build",
        "scheme.init_data",
        "keygen.fuzzy_extract",
        "keygen.oprf",
        "scheme.encrypt",
        "ope.encrypt",
        "match.rank_sum",
        "verification.vf",
    )

    @pytest.fixture()
    def traced_run(self, pop_scheme, population):
        from repro.core.matching import knn_match

        with tracing("e2e") as tracer:
            users = population.generate(6)
            uploads, keys = pop_scheme.enroll_population(
                [u.profile for u in users]
            )
            groups = {}
            for payload in uploads.values():
                groups.setdefault(payload.key_index, {})[
                    payload.user_id
                ] = payload
            group = max(groups.values(), key=len)
            query_user = next(iter(group))
            if len(group) > 1:
                chains = {uid: ep.chain for uid, ep in group.items()}
                knn_match(chains, query_user, k=1)
            some_user = next(iter(uploads))
            pop_scheme.verify(uploads[some_user].auth, keys[some_user])
        return tracer

    def test_all_phases_present(self, traced_run):
        names = set(traced_run.span_names())
        for phase in self.PHASES:
            assert phase in names, f"missing phase span {phase}"

    def test_phase_spans_carry_duration_and_ops(self, traced_run):
        for name, op in [
            ("scheme.encrypt", "ope_level"),
            ("keygen.oprf", "modexp"),
            ("scheme.init_data", "entropy_map"),
        ]:
            spans = traced_run.find(name)
            assert spans, f"no {name} spans"
            for s in spans:
                assert s.duration_ns >= 0
                assert s.ops.get(op, 0) > 0

    def test_root_aggregates_everything(self, traced_run):
        root = traced_run.root
        assert root.ops.get("keygen", 0) == 6
        assert root.ops.get("init_data", 0) == 6
        assert root.ops.get("verify", 0) == 1
        assert root.duration_ns > 0

    def test_jsonl_export_parses(self, traced_run):
        records = [
            json.loads(line)
            for line in traced_run.to_jsonl().splitlines()
            if line
        ]
        assert len(records) == len(traced_run.spans())
        ids = {r["id"] for r in records}
        assert all(r["parent"] in ids for r in records if r["parent"] is not None)


class TestPinnedTrace:
    """The seeded simulation's span tree, pinned without timings.

    SHA-256 over each record's ``(id, parent, name, attrs, ops, bytes)``
    from ``repro simulate --users 8 --steps 2``: a change to how spans count
    ops, fold them into ancestors or link to parents shows here, while a
    wrong but self-consistent fold would pass every structural test.  The
    artifacts must also pass CI's telemetry check, whose required spans
    include the query path this seeded run takes.
    """

    SPANS = 280
    DIGEST = "e50cf05439106901b19da20cfd075b579d73d4b193a2a4ec385a779fbb6e457a"

    def test_simulation_trace(self, tmp_path, capsys):
        from repro.cli import main
        from tools.check_obs_artifacts import main as check_artifacts

        argv = ["simulate", "--users", "8", "--steps", "2"]
        assert main(argv + ["--obs-dir", str(tmp_path)]) == 0
        assert check_artifacts([str(tmp_path)]) == 0
        capsys.readouterr()
        records = load_trace_records(tmp_path)
        digest = hashlib.sha256()
        for r in records:
            fields = [r["id"], r["parent"], r["name"], r["attrs"], r["ops"], r["bytes"]]
            digest.update(json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n")
        assert len(records) == self.SPANS
        assert digest.hexdigest() == self.DIGEST
