"""Schema tests: real exporter output validates, malformed input fails.

``_check`` is the only runtime validator.  ``jsonschema`` (present in
CI through the ``dev`` extra) is the reference it is held to: every
schema passes the draft 2020-12 meta-schema, uses only keywords
``_check`` interprets, and a differential property test asserts both
validators accept and reject the same mutated exporter output.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import build_inputs, render_figures
from repro.errors import SchemaError
from repro.kernels.external import case_to_records, corpus_paths, load_case
from repro.observe.export import chrome_trace, write_events_jsonl
from repro.observe.schema import (
    CHROME_TRACE_SCHEMA,
    EVENT_SCHEMA,
    FIGURE_SPEC_SCHEMA,
    TELEMETRY_SCHEMA,
    TRACE_CASE_SCHEMA,
    _check,
    validate_chrome_trace,
    validate_event,
    validate_telemetry_record,
    validate_trace_case_record,
)
from repro.stats.trace import EventKind, TraceRecorder

try:
    import jsonschema
except ImportError:  # the reference checks need the ``dev`` extra
    jsonschema = None

needs_jsonschema = pytest.mark.skipif(
    jsonschema is None, reason="jsonschema (the reference) not installed"
)

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src"
FIGURE_FIXTURES = TESTS / "data" / "figures"
TELEMETRY_FILES = sorted(FIGURE_FIXTURES.glob("telemetry_*.jsonl"))
TRACE_FILE = FIGURE_FIXTURES / "trace_nw_bow.jsonl"
BENCH_FILES = [TESTS.parent / "benchmarks" / "BENCH_engine.json",
               TESTS.parent / "benchmarks" / "BENCH_service.json"]

#: Every checked-in schema, by the label its public validator uses.
SCHEMAS = {
    "event": EVENT_SCHEMA,
    "chrome-trace": CHROME_TRACE_SCHEMA,
    "telemetry": TELEMETRY_SCHEMA,
    "trace-case": TRACE_CASE_SCHEMA,
    "figure-spec": FIGURE_SPEC_SCHEMA,
}


#: The smallest valid single-view figure spec.
_SINGLE_VIEW = {
    "$schema": FIGURE_SPEC_SCHEMA["properties"]["$schema"]["const"],
    "description": "x",
    "data": {"url": "x.csv"},
    "mark": "bar",
    "encoding": {},
}


def _sample_recorder():
    rec = TraceRecorder()
    rec.emit(1, EventKind.ISSUE, warp=0, trace_index=0, opcode="MOV")
    rec.emit(2, EventKind.ISSUE_STALL, warp=0, reason="collector")
    rec.emit(3, EventKind.BANK_CONFLICT, bank=1, count=2)
    rec.emit(4, EventKind.COMMIT, warp=0, trace_index=0, opcode="MOV")
    return rec


@pytest.fixture
def recorder():
    return _sample_recorder()


class TestRealOutputValidates:
    def test_chrome_trace_document(self, recorder):
        validate_chrome_trace(chrome_trace(recorder))

    def test_events_jsonl(self, recorder, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(recorder, str(path))
        for line in path.read_text().splitlines():
            validate_event(json.loads(line))

    def test_simulated_trace_validates(self, oracle_runs):
        point = oracle_runs[("NW", "bow")]
        validate_chrome_trace(chrome_trace(point.recorder))


class TestRejection:
    def test_unknown_event_kind(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": 1, "kind": "teleport", "warp": 0,
                            "count": 1})

    def test_missing_required_field(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": 1, "kind": "issue", "warp": 0})

    def test_unexpected_property(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": 1, "kind": "issue", "warp": 0,
                            "count": 1, "color": "red"})

    def test_negative_cycle(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": -1, "kind": "issue", "warp": 0,
                            "count": 1})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": True, "kind": "issue", "warp": 0,
                            "count": 1})

    def test_chrome_trace_rejects_bad_phase(self, recorder):
        doc = chrome_trace(recorder)
        doc["traceEvents"][-1]["ph"] = "X"
        with pytest.raises(SchemaError):
            validate_chrome_trace(doc)

    def test_telemetry_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            validate_telemetry_record({"type": "gossip"})

    def test_telemetry_rejects_bad_source(self):
        with pytest.raises(SchemaError):
            validate_telemetry_record({
                "type": "point", "benchmark": "NW", "design": "bow",
                "window": 3, "source": "wishful", "seconds": 0.1,
                "attempts": 1,
            })


class TestFallbackInterpreter:
    """``_check`` must agree with jsonschema on these documents."""

    def test_accepts_valid_event(self):
        _check({"cycle": 1, "kind": "issue", "warp": 0, "count": 1},
               EVENT_SCHEMA, "event")

    def test_accepts_valid_telemetry_point(self):
        _check({"type": "point", "benchmark": "NW", "design": "bow",
                "window": 3, "source": "sim", "seconds": 0.5,
                "attempts": 1, "cycles": 100, "instructions": 50,
                "ipc": 0.5}, TELEMETRY_SCHEMA, "telemetry")

    def test_oneof_requires_exactly_one_match(self):
        with pytest.raises(SchemaError) as excinfo:
            _check({"type": "gossip"}, TELEMETRY_SCHEMA, "telemetry")
        assert "oneOf" in str(excinfo.value)

    def test_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            _check({"cycle": "one", "kind": "issue", "warp": 0, "count": 1},
                   EVENT_SCHEMA, "event")

    def test_rejects_below_minimum(self):
        with pytest.raises(SchemaError):
            _check({"cycle": 1, "kind": "issue", "warp": -2, "count": 1},
                   EVENT_SCHEMA, "event")

    def test_chrome_document_via_fallback(self):
        recorder = TraceRecorder()
        recorder.emit(1, EventKind.ISSUE, warp=0)
        _check(chrome_trace(recorder), CHROME_TRACE_SCHEMA, "chrome")

    @needs_jsonschema
    def test_agrees_with_jsonschema_on_corpus(self, recorder, reference):
        corpus = [
            ({"cycle": 1, "kind": "issue", "warp": 0, "count": 1},
             "event"),
            ({"cycle": 1, "kind": "nope", "warp": 0, "count": 1},
             "event"),
            ({"type": "summary", "wall_seconds": 1.0, "points": 4,
              "ok": True, "simulated": 4, "from_cache": 0, "from_memo": 0,
              "failed": 0, "cache": {}}, "telemetry"),
            ({"type": "summary"}, "telemetry"),
            (chrome_trace(recorder), "chrome-trace"),
            (_SINGLE_VIEW, "figure-spec"),
            # Matches both oneOf alternatives, so both validators reject.
            ({**_SINGLE_VIEW, "layer": []}, "figure-spec"),
        ]
        for instance, kind in corpus:
            assert _accepts(instance, kind) == \
                reference[kind].is_valid(instance), instance


class TestIntegralFloats:
    """Draft 2020-12 counts 1.0 as an integer; bool is never a number."""

    def test_integral_float_cycle_accepted(self):
        validate_event({"cycle": 1.0, "kind": "issue", "warp": 0,
                        "count": 1})

    def test_integral_float_telemetry_points_accepted(self):
        validate_telemetry_record({
            "type": "start", "schema": 2, "points": 1.0, "jobs": 1,
            "scale": {"num_warps": 4, "trace_scale": 0.1,
                      "memory_seed": 7, "num_sms": 1},
        })

    def test_integral_float_trace_case_imm_accepted(self):
        validate_trace_case_record({"type": "inst", "warp": 0,
                                    "op": "mov", "dest": 1, "imm": 2.0})

    def test_fractional_float_rejected(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": 1.5, "kind": "issue", "warp": 0,
                            "count": 1})

    def test_integral_float_still_checks_minimum(self):
        with pytest.raises(SchemaError):
            validate_event({"cycle": -1.0, "kind": "issue", "warp": 0,
                            "count": 1})

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            validate_telemetry_record({
                "type": "summary", "wall_seconds": True, "points": 4,
                "ok": True, "simulated": 4, "from_cache": 0,
                "from_memo": 0, "failed": 0, "cache": {},
            })


# ---------------------------------------------------------------------------
# jsonschema as the reference oracle
# ---------------------------------------------------------------------------

#: Keywords ``_check`` enforces, and keywords that are pure annotations.
#: A schema keyword outside both sets would be silently ignored at
#: runtime, so ``TestKeywordCoverage`` fails instead.
INTERPRETED_KEYWORDS = {"type", "properties", "required", "enum", "const",
                        "items", "minimum", "additionalProperties", "oneOf"}
ANNOTATION_KEYWORDS = {"$schema", "$id", "title"}
JSON_TYPES = {"object", "array", "string", "integer", "number", "boolean",
              "null"}


def _accepts(instance, kind):
    try:
        _check(instance, SCHEMAS[kind], kind)
    except SchemaError:
        return False
    return True


def _walk(schema, path="#"):
    """Yield ``(path, keyword, value)`` for every keyword in ``schema``."""
    for keyword, value in schema.items():
        yield path, keyword, value
        if keyword == "properties":
            for name, sub in value.items():
                yield from _walk(sub, f"{path}/properties/{name}")
        elif keyword == "items":
            yield from _walk(value, f"{path}/items")
        elif keyword == "oneOf":
            for index, sub in enumerate(value):
                yield from _walk(sub, f"{path}/oneOf/{index}")


@pytest.fixture(scope="session")
def reference():
    """One ``Draft202012Validator`` per schema, built once."""
    return {kind: jsonschema.Draft202012Validator(schema)
            for kind, schema in SCHEMAS.items()}


@pytest.fixture(scope="session")
def exported(tmp_path_factory):
    """Real exporter output for every schema, keyed by schema label."""
    out = tmp_path_factory.mktemp("exported")
    recorder = _sample_recorder()
    events_path = out / "events.jsonl"
    write_events_jsonl(recorder, str(events_path))
    inputs = build_inputs(telemetry=[str(path) for path in TELEMETRY_FILES],
                          trace=str(TRACE_FILE),
                          bench=[str(path) for path in BENCH_FILES])
    figures = out / "figures"
    render_figures(inputs, str(figures), format="spec")
    corpus = corpus_paths(TESTS / "corpus")
    return {
        "event": _jsonl(events_path),
        "chrome-trace": [chrome_trace(recorder)],
        "telemetry": [record for path in TELEMETRY_FILES
                      for record in _jsonl(path)],
        "trace-case": [record for path in corpus
                       for record in case_to_records(load_case(path))],
        "figure-spec": [json.loads(path.read_text(encoding="utf-8"))
                        for path in sorted(figures.glob("*.vl.json"))],
    }


def _jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


#: Replacement values: every JSON type, bools for integer slots,
#: out-of-enum strings, values below each schema ``minimum`` (1, 0 and
#: -1), and integral and non-integral floats.
_ODD_VALUES = [None, True, False, 0, -1, -2, 1.0, 0.0, -1.0, 2.5, -0.5,
               "", "bogus", "issue", "M", [], [1], ["x"], {}, {"k": 1}]

#: Keys to add: one no schema knows, plus every property name some
#: schema declares (so a spec can gain ``layer`` beside ``mark`` and
#: match two ``oneOf`` alternatives).
_ADDED_KEYS = sorted({"unknown"} | {
    name for schema in SCHEMAS.values()
    for _, keyword, value in _walk(schema) if keyword == "properties"
    for name in value
})


def _slots(box):
    """Every ``(container, key)`` holding a value, depth first."""
    items = box.items() if isinstance(box, dict) else enumerate(box)
    for key, value in list(items):
        yield box, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _odd_value(draw):
    return copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))


@st.composite
def _mutated(draw, record):
    """``record`` with one or two schema-agnostic mutations applied."""
    box = [copy.deepcopy(record)]  # the root is a slot too
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        slots = list(_slots(box))
        operation = draw(st.sampled_from(["drop", "add", "replace",
                                          "numeric"]))
        if operation == "drop":
            candidates = [slot for slot in slots
                          if isinstance(slot[0], dict)]
        elif operation == "add":
            candidates = [slot for slot in slots
                          if isinstance(slot[0][slot[1]], dict)]
        elif operation == "numeric":
            candidates = [slot for slot in slots
                          if type(slot[0][slot[1]]) is int]
        else:
            candidates = slots
        if not candidates:
            continue
        container, key = draw(st.sampled_from(candidates))
        value = container[key]
        if operation == "drop":
            del container[key]
        elif operation == "add":
            value[draw(st.sampled_from(_ADDED_KEYS))] = _odd_value(draw)
        elif operation == "numeric":
            container[key] = draw(st.sampled_from(
                [float(value), value + 0.5, -value - 1, value == 0]))
        else:
            container[key] = _odd_value(draw)
    return box[0]


@needs_jsonschema
class TestAgreesWithJsonschema:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_exported_output_accepted_by_both(self, kind, exported,
                                              reference):
        assert exported[kind], f"no exported {kind} samples"
        for record in exported[kind]:
            assert _accepts(record, kind), record
            assert reference[kind].is_valid(record), record

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_output_same_verdict(self, kind, exported, reference,
                                         data):
        record = data.draw(st.sampled_from(exported[kind]), label="record")
        mutated = data.draw(_mutated(record), label="mutated")
        assert _accepts(mutated, kind) == \
            reference[kind].is_valid(mutated), mutated


class TestKeywordCoverage:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_every_keyword_is_interpreted_or_annotation(self, kind):
        for path, keyword, value in _walk(SCHEMAS[kind]):
            assert keyword in INTERPRETED_KEYWORDS | ANNOTATION_KEYWORDS, \
                f"{kind}{path}: _check does not interpret {keyword!r}"
            if keyword == "additionalProperties":
                # _check only enforces the boolean form.
                assert isinstance(value, bool), f"{kind}{path}"
            if keyword == "type":
                names = value if isinstance(value, list) else [value]
                assert set(names) <= JSON_TYPES, f"{kind}{path}"

    @needs_jsonschema
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_schema_passes_the_meta_schema(self, kind):
        jsonschema.Draft202012Validator.check_schema(SCHEMAS[kind])


def test_runtime_never_imports_jsonschema(exported):
    """Validating and loading must not pull in the test-only reference."""
    script = textwrap.dedent("""
        import json
        import sys

        from repro.analysis import build_inputs
        from repro.observe.schema import (
            validate_chrome_trace,
            validate_event,
            validate_figure_spec,
            validate_telemetry_record,
            validate_trace_case_record,
        )

        samples, telemetry, trace, bench = json.load(sys.stdin)
        validate_event(samples["event"])
        validate_chrome_trace(samples["chrome-trace"])
        validate_telemetry_record(samples["telemetry"])
        validate_trace_case_record(samples["trace-case"])
        validate_figure_spec(samples["figure-spec"])
        build_inputs(telemetry=telemetry, trace=trace, bench=bench)
        assert "jsonschema" not in sys.modules, "jsonschema was imported"
    """)
    payload = [
        {kind: records[0] for kind, records in exported.items()},
        [str(path) for path in TELEMETRY_FILES],
        str(TRACE_FILE),
        [str(path) for path in BENCH_FILES],
    ]
    result = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(payload),
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
