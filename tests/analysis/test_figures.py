"""Per-figure tests: every registered figure builds from the fixtures."""

import pytest

from repro.analysis import FIGURES, FigureInputs, figure_names, figure_spec
from repro.analysis.figures import INPUT_KINDS, register_figure
from repro.analysis.frame import Frame
from repro.errors import AnalysisError, SchemaError
from repro.observe.schema import FIGURE_SPEC_SCHEMA, _check


class TestRegistry:
    def test_at_least_six_figures_registered(self):
        assert len(FIGURES) >= 6

    def test_every_figure_requires_known_kinds(self):
        for entry in FIGURES.values():
            assert entry.requires
            for kind in (*entry.requires, *entry.optional):
                assert kind in INPUT_KINDS

    def test_unknown_figure_is_typed_error(self):
        with pytest.raises(AnalysisError, match="unknown figure"):
            figure_spec("nope")

    def test_duplicate_registration_rejected(self):
        name = next(iter(FIGURES))
        with pytest.raises(AnalysisError, match="duplicate"):
            register_figure(name, title="x", requires=("points",))(
                lambda inputs: None
            )

    def test_missing_input_is_typed_error(self):
        with pytest.raises(AnalysisError, match="needs points"):
            figure_spec("ipc_iw_frontier").build(FigureInputs())

    def test_empty_table_is_typed_error(self):
        from repro.analysis.loaders import TRACE_COLUMNS

        empty = FigureInputs(
            trace=Frame.from_records([], columns=TRACE_COLUMNS)
        )
        with pytest.raises(AnalysisError, match="no rows survived"):
            figure_spec("stall_breakdown").build(empty)


def _build(name, inputs):
    spec, table = figure_spec(name).build(inputs)
    # The raw generator output must already satisfy the spec contract
    # (the renderer only adds $schema/data/title/usermeta on top).
    themed = dict(spec)
    themed["$schema"] = FIGURE_SPEC_SCHEMA["properties"]["$schema"]["const"]
    themed["data"] = {"url": f"{name}.csv"}
    _check(themed, FIGURE_SPEC_SCHEMA, "figure")
    return spec, table


class TestIpcIwFrontier:
    def test_builds_per_design_series(self, inputs):
        spec, table = _build("ipc_iw_frontier", inputs)
        assert table.columns == ("benchmark", "design", "window", "ipc")
        # 3 benchmarks x 4 designs x windowed/windowless points.
        assert set(table.unique("benchmark")) == {"BFS", "NW", "SAD"}
        assert set(table.unique("design")) >= {"baseline", "bow", "bow-wr"}
        assert spec["encoding"]["facet"]["field"] == "benchmark"
        assert all(value is not None for value in table["ipc"])

    def test_device_points_excluded(self, inputs):
        _, table = _build("ipc_iw_frontier", inputs)
        # The sms2/sms4 streams must not leak into the single-SM frontier.
        bfs_baseline = table.where(benchmark="BFS", design="baseline")
        assert len(bfs_baseline) == len(set(bfs_baseline["window"]))


class TestDeviceIpcScaling:
    def test_ipc_grows_with_sms(self, inputs):
        spec, table = _build("device_ipc_scaling", inputs)
        assert sorted(set(table["num_sms"])) == [1, 2, 4]
        series = table.where(benchmark="BFS", design="bow").sort("num_sms")
        ipcs = series["ipc"]
        assert ipcs == sorted(ipcs)
        assert spec["encoding"]["x"]["field"] == "num_sms"


class TestStallBreakdown:
    def test_reasons_aggregated(self, inputs):
        spec, table = _build("stall_breakdown", inputs)
        assert set(table.unique("kind")) <= {"issue_stall", "dispatch_stall"}
        assert all(events > 0 for events in table["events"])
        # Sorted most-stalled first for the bar chart.
        assert table["events"] == sorted(table["events"], reverse=True)
        assert spec["mark"] == "bar"


class TestBocComposition:
    def test_hit_insert_evict_present(self, inputs):
        _, table = _build("boc_composition", inputs)
        assert set(table.unique("kind")) == {
            "boc_hit",
            "boc_insert",
            "boc_evict",
        }
        # Eviction reasons are preserved; reasonless events read "direct".
        assert "direct" in table.unique("reason")


class TestSweepHealth:
    def test_provenance_and_failures_stacked(self, inputs):
        spec, table = _build("sweep_health", inputs)
        assert set(table.unique("source")) >= {"sim", "cache", "failed"}
        domain = spec["encoding"]["color"]["scale"]["domain"]
        assert domain == ["memo", "cache", "sim", "failed"]

    def test_failures_input_is_optional(self, inputs):
        lone = FigureInputs(points=inputs.points)
        _, table = _build("sweep_health", lone)
        assert "failed" not in table.unique("source")


class TestEngineThroughput:
    def test_layered_spec_with_ff_share(self, inputs):
        spec, table = _build("engine_throughput", inputs)
        assert "layer" in spec and len(spec["layer"]) == 2
        assert spec["resolve"]["scale"]["y"] == "independent"
        assert all(value > 0 for value in table["cycles_per_sec"])
        assert any(value is not None for value in table["ff_share"])


class TestServiceThroughput:
    def test_cold_and_warm_passes(self, inputs):
        spec, table = _build("service_throughput", inputs)
        assert table["bench_pass"] == ["cold", "warm"]
        cold, warm = table["points_per_sec"]
        assert warm > cold
        assert spec["encoding"]["y"]["scale"] == {"type": "log"}


class TestSpecContract:
    def test_every_figure_spec_validates_both_ways(self, inputs):
        # The runtime validator (_check) and the jsonschema reference
        # must both accept every generated spec.
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(FIGURE_SPEC_SCHEMA)
        for name in figure_names():
            themed, _ = _build(name, inputs)
            themed["$schema"] = FIGURE_SPEC_SCHEMA["properties"]["$schema"][
                "const"
            ]
            themed["data"] = {"url": f"{name}.csv"}
            _check(themed, FIGURE_SPEC_SCHEMA, name)
            reference.validate(themed)

    def test_fallback_rejects_spec_violations(self):
        bogus = {
            "$schema": FIGURE_SPEC_SCHEMA["properties"]["$schema"]["const"],
            "description": "x",
            "data": {"url": "x.csv"},
            "mark": "bar",
            "encoding": {"x": {"field": "a", "type": "galactic"}},
        }
        with pytest.raises(SchemaError):
            _check(bogus, FIGURE_SPEC_SCHEMA, "figure")
