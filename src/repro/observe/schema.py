"""Checked-in JSON schemas for every exported observability artifact.

Downstream tooling (trace viewers, telemetry dashboards, the CI
artifact consumers) parses what the exporters in
:mod:`repro.observe.export` and :mod:`repro.observe.telemetry` emit;
these schemas are the contract.  The schema tests validate real
exporter output against them, so a format change that would break a
consumer fails the suite instead of shipping silently.

The documents are standard JSON Schema (draft 2020-12).  At runtime
they are enforced by :func:`_check`, a built-in interpreter of the
keyword subset they use (``type``, ``properties``, ``required``,
``enum``, ``const``, ``items``, ``minimum``, ``additionalProperties``,
``oneOf``).  The ``jsonschema`` package is the test- and CI-time
reference: the schema tests check every document against the
draft 2020-12 meta-schema, pin the keyword subset, and assert that
``_check`` and ``jsonschema`` give the same verdict on mutated
exporter output.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..errors import SchemaError
from ..stats.trace import STAGES, EventKind

#: Wire names of every event kind (the ``kind`` enum in the schemas).
EVENT_KINDS: List[str] = [kind.value for kind in EventKind]

#: One line of an events JSONL dump (``write_events_jsonl``), and the
#: ``args``-free core of every CSV row.
EVENT_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "repro/observe/event.schema.json",
    "title": "repro trace event",
    "type": "object",
    "properties": {
        "cycle": {"type": "integer", "minimum": 0},
        "kind": {"enum": EVENT_KINDS},
        "warp": {"type": "integer", "minimum": -1},
        "count": {"type": "integer", "minimum": 1},
        "reason": {"type": "string"},
        "register": {"type": "integer", "minimum": 0},
        "bank": {"type": "integer", "minimum": 0},
        "trace_index": {"type": "integer", "minimum": 0},
        "opcode": {"type": "string"},
    },
    "required": ["cycle", "kind", "warp", "count"],
    "additionalProperties": False,
}

#: A Chrome trace-event document (``chrome_trace`` /
#: ``write_chrome_trace``): the "JSON Array Format" subset we emit —
#: metadata records plus instant events.
CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "repro/observe/chrome-trace.schema.json",
    "title": "repro Chrome trace export",
    "type": "object",
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "oneOf": [
                    {  # metadata record (process/thread naming)
                        "type": "object",
                        "properties": {
                            "name": {"enum": ["process_name", "thread_name"]},
                            "ph": {"const": "M"},
                            "pid": {"type": "integer", "minimum": 0},
                            "tid": {"type": "integer", "minimum": 0},
                            "args": {"type": "object"},
                        },
                        "required": ["name", "ph", "pid", "args"],
                        "additionalProperties": False,
                    },
                    {  # instant event (one simulator trace event)
                        "type": "object",
                        "properties": {
                            "name": {"enum": EVENT_KINDS},
                            "cat": {"enum": list(STAGES)},
                            "ph": {"const": "i"},
                            "ts": {"type": "integer", "minimum": 0},
                            "pid": {"type": "integer", "minimum": 0},
                            "tid": {"type": "integer", "minimum": 0},
                            "s": {"enum": ["t", "p", "g"]},
                            "args": {"type": "object"},
                        },
                        "required": ["name", "cat", "ph", "ts", "pid", "tid",
                                     "s"],
                        "additionalProperties": False,
                    },
                ],
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
        "otherData": {
            "type": "object",
            "properties": {
                "emitted": {"type": "integer", "minimum": 0},
                "dropped": {"type": "integer", "minimum": 0},
                "capacity": {"type": "integer", "minimum": 1},
                "counts": {"type": "object"},
            },
            "required": ["emitted", "dropped", "capacity", "counts"],
            "additionalProperties": False,
        },
    },
    "required": ["traceEvents"],
    "additionalProperties": False,
}

_SCALE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "num_warps": {"type": "integer", "minimum": 1},
        "trace_scale": {"type": "number"},
        "memory_seed": {"type": "integer"},
        "num_sms": {"type": "integer", "minimum": 1},
    },
    "required": ["num_warps", "trace_scale", "memory_seed", "num_sms"],
    "additionalProperties": False,
}

#: One line of a sweep-telemetry JSONL stream (``TelemetryWriter``):
#: a ``start`` header, one ``point`` or ``failure`` per grid point,
#: and a closing ``summary``.
TELEMETRY_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "repro/observe/telemetry.schema.json",
    "title": "repro sweep telemetry record",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "start"},
                "schema": {"type": "integer", "minimum": 1},
                "points": {"type": "integer", "minimum": 1},
                "jobs": {"type": "integer", "minimum": 1},
                "benchmarks": {"type": "array", "items": {"type": "string"}},
                "designs": {"type": "array", "items": {"type": "string"}},
                "windows": {"type": "array", "items": {"type": "integer"}},
                "scale": _SCALE_SCHEMA,
            },
            "required": ["type", "schema", "points", "jobs", "scale"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "point"},
                "benchmark": {"type": "string"},
                "design": {"type": "string"},
                "window": {"type": "integer", "minimum": 0},
                "source": {"enum": ["memo", "cache", "sim"]},
                "seconds": {"type": "number"},
                "attempts": {"type": "integer", "minimum": 0},
                "cycles": {"type": "integer", "minimum": 0},
                "instructions": {"type": "integer", "minimum": 0},
                "ipc": {"type": "number"},
                # Schema v2: how many of the point's cycles the engine
                # jumped rather than ticked.  Optional — memo/cache
                # sourced points (and v1 streams) omit it.
                "fast_forwarded_cycles": {"type": "integer", "minimum": 0},
            },
            "required": ["type", "benchmark", "design", "window", "source",
                         "seconds", "attempts"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "failure"},
                "benchmark": {"type": "string"},
                "design": {"type": "string"},
                "window": {"type": "integer", "minimum": 0},
                "label": {"type": "string"},
                "kind": {"enum": ["transient", "permanent"]},
                "attempts": {"type": "integer", "minimum": 1},
                "seconds": {"type": "number"},
                "error_type": {"type": "string"},
                "message": {"type": "string"},
            },
            "required": ["type", "benchmark", "design", "window", "label",
                         "kind", "attempts", "seconds", "error_type",
                         "message"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "summary"},
                "wall_seconds": {"type": "number"},
                "points": {"type": "integer", "minimum": 0},
                "ok": {"type": "boolean"},
                "simulated": {"type": "integer", "minimum": 0},
                "from_cache": {"type": "integer", "minimum": 0},
                "from_memo": {"type": "integer", "minimum": 0},
                "failed": {"type": "integer", "minimum": 0},
                "cache": {"type": "object"},
            },
            "required": ["type", "wall_seconds", "points", "ok", "simulated",
                         "from_cache", "from_memo", "failed", "cache"],
            "additionalProperties": False,
        },
    ],
}


#: One line of an external trace-case JSONL file
#: (:mod:`repro.kernels.external`): a ``header`` with the launch
#: parameters, one ``warp`` record per warp, and one ``inst`` record
#: per dynamic instruction.  This is the interchange contract for both
#: the fuzz corpus (``tests/corpus/``) and third-party trace ingestion
#: (``repro trace-import``).
TRACE_CASE_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "repro/observe/trace-case.schema.json",
    "title": "repro external trace-case record",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "header"},
                "schema": {"type": "integer", "minimum": 1},
                "name": {"type": "string"},
                "window": {"type": "integer", "minimum": 0},
                "memory_seed": {"type": "integer"},
                "num_sms": {"type": "integer", "minimum": 1},
                "num_warps": {"type": "integer", "minimum": 0},
                "designs": {"type": "array", "items": {"type": "string"}},
                "meta": {"type": "object"},
            },
            "required": ["type", "schema", "name", "window",
                         "memory_seed", "num_sms", "num_warps"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "warp"},
                "warp_id": {"type": "integer", "minimum": 0},
                "instructions": {"type": "integer", "minimum": 0},
            },
            "required": ["type", "warp_id", "instructions"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "inst"},
                "warp": {"type": "integer", "minimum": 0},
                "op": {"type": "string"},
                "dest": {"type": "integer", "minimum": 0},
                "src": {"type": "array", "items": {"type": "integer"}},
                "imm": {"type": "integer"},
                # [predicate id, negated] — mixed element types, so the
                # pair's shape is checked by the instruction decoder.
                "guard": {"type": "array"},
                "pdest": {"type": "integer", "minimum": 0},
                "hint": {"enum": ["BOTH", "OC_ONLY", "RF_ONLY"]},
            },
            "required": ["type", "warp", "op"],
            "additionalProperties": False,
        },
    ],
}


#: One encoding channel of a figure spec (``x`` / ``y`` / ``color`` /
#: ``facet`` / one tooltip entry).  ``sort`` and ``value`` are
#: unconstrained on purpose: Vega-Lite accepts strings, arrays, nulls,
#: and objects there, and the figure generators use several of them.
_FIGURE_CHANNEL_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "field": {"type": "string"},
        "type": {"enum": ["quantitative", "nominal", "ordinal", "temporal"]},
        "title": {"type": ["string", "null"]},
        "axis": {"type": ["object", "null"]},
        "legend": {"type": ["object", "null"]},
        "scale": {"type": ["object", "null"]},
        "sort": {},
        "stack": {},
        "value": {},
        "aggregate": {"type": "string"},
        "format": {"type": "string"},
        "header": {"type": "object"},
        "columns": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

#: The encoding block: a map of known channel names to channel defs
#: (``tooltip`` may be a list of channel defs).
_FIGURE_ENCODING_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "x": _FIGURE_CHANNEL_SCHEMA,
        "y": _FIGURE_CHANNEL_SCHEMA,
        "x2": _FIGURE_CHANNEL_SCHEMA,
        "y2": _FIGURE_CHANNEL_SCHEMA,
        "color": _FIGURE_CHANNEL_SCHEMA,
        "opacity": _FIGURE_CHANNEL_SCHEMA,
        "size": _FIGURE_CHANNEL_SCHEMA,
        "shape": _FIGURE_CHANNEL_SCHEMA,
        "strokeDash": _FIGURE_CHANNEL_SCHEMA,
        "detail": _FIGURE_CHANNEL_SCHEMA,
        "order": _FIGURE_CHANNEL_SCHEMA,
        "text": _FIGURE_CHANNEL_SCHEMA,
        "row": _FIGURE_CHANNEL_SCHEMA,
        "column": _FIGURE_CHANNEL_SCHEMA,
        "facet": _FIGURE_CHANNEL_SCHEMA,
        "tooltip": {
            "type": ["object", "array"],
            "items": _FIGURE_CHANNEL_SCHEMA,
        },
    },
    "additionalProperties": False,
}

#: A mark: either a shorthand string or a mark-definition object.
_FIGURE_MARK_SCHEMA: Dict[str, Any] = {
    "oneOf": [
        {
            "enum": ["area", "bar", "circle", "line", "point", "rect",
                     "rule", "text", "tick"],
        },
        {
            "type": "object",
            "properties": {
                "type": {"enum": ["area", "bar", "circle", "line", "point",
                                  "rect", "rule", "text", "tick"]},
                "point": {},
                "filled": {"type": "boolean"},
                "size": {"type": "number"},
                "opacity": {"type": "number", "minimum": 0},
                "interpolate": {"type": "string"},
                "tooltip": {},
                "strokeWidth": {"type": "number"},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
    ],
}

#: One layer of a layered figure (a unit view).
_FIGURE_LAYER_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "mark": _FIGURE_MARK_SCHEMA,
        "encoding": _FIGURE_ENCODING_SCHEMA,
        "transform": {"type": "array", "items": {"type": "object"}},
        "name": {"type": "string"},
    },
    "required": ["mark"],
    "additionalProperties": False,
}

#: A rendered figure spec (``<name>.vl.json``): the Vega-Lite v5 subset
#: ``repro figures`` emits.  This is a *contract*, not a full Vega-Lite
#: grammar — a figure generator that reaches for a construct outside it
#: extends the schema (and the schema tests) first, so every spec a CI
#: artifact consumer sees is known-renderable.  A spec is either a
#: single view (``mark`` + ``encoding``) or a layered view (``layer``,
#: with an optional shared ``encoding``).
FIGURE_SPEC_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "repro/observe/figure-spec.schema.json",
    "title": "repro analysis figure spec (Vega-Lite v5 subset)",
    "type": "object",
    "properties": {
        "$schema": {
            "const": "https://vega.github.io/schema/vega-lite/v5.json",
        },
        "description": {"type": "string"},
        "title": {"type": ["string", "object"]},
        "data": {
            "type": "object",
            "properties": {
                "url": {"type": "string"},
                "values": {"type": "array", "items": {"type": "object"}},
                "name": {"type": "string"},
                "format": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "mark": _FIGURE_MARK_SCHEMA,
        "encoding": _FIGURE_ENCODING_SCHEMA,
        "layer": {"type": "array", "items": _FIGURE_LAYER_SCHEMA},
        "resolve": {"type": "object"},
        "transform": {"type": "array", "items": {"type": "object"}},
        "config": {"type": "object"},
        "width": {"type": ["integer", "string"]},
        "height": {"type": ["integer", "string"]},
        "columns": {"type": "integer", "minimum": 1},
        "usermeta": {"type": "object"},
    },
    "required": ["$schema", "description", "data"],
    "additionalProperties": False,
    "oneOf": [
        {"required": ["mark", "encoding"]},
        {"required": ["layer"]},
    ],
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _is_integer(value: Any) -> bool:
    # Draft 2020-12: any number with a zero fractional part is an
    # integer, so 1.0 qualifies.  bool is never a number.
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": _is_integer,
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _check(instance: Any, schema: Dict[str, Any], path: str) -> None:
    """Interpret the keyword subset our schemas use; raise SchemaError."""
    if "oneOf" in schema:
        errors = []
        matches = 0
        for index, option in enumerate(schema["oneOf"]):
            try:
                _check(instance, option, path)
                matches += 1
            except SchemaError as error:
                errors.append(f"[{index}] {error}")
        if matches != 1:
            raise SchemaError(
                f"matched {matches} of {len(schema['oneOf'])} oneOf "
                f"alternatives: {'; '.join(errors)}", path)
        # No early return: JSON Schema applies sibling keywords (type,
        # properties, required, ...) in addition to oneOf, and the
        # figure-spec schema relies on that.
    if "const" in schema and instance != schema["const"]:
        raise SchemaError(f"expected {schema['const']!r}, got {instance!r}",
                          path)
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(f"{instance!r} not in enum {schema['enum']!r}", path)
    if "type" in schema:
        expected = schema["type"]
        names = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[name](instance) for name in names):
            raise SchemaError(
                f"expected type {expected}, got {type(instance).__name__}",
                path)
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise SchemaError(
                f"{instance} below minimum {schema['minimum']}", path)
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise SchemaError(f"missing required property {name!r}", path)
        properties = schema.get("properties", {})
        for name, value in instance.items():
            if name in properties:
                _check(value, properties[name], f"{path}/{name}")
            elif schema.get("additionalProperties", True) is False:
                raise SchemaError(f"unexpected property {name!r}", path)
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            _check(item, schema["items"], f"{path}[{index}]")


def validate_event(record: Any) -> None:
    """Validate one events-JSONL record against :data:`EVENT_SCHEMA`."""
    _check(record, EVENT_SCHEMA, "event")


def validate_chrome_trace(document: Any) -> None:
    """Validate a Chrome trace document against
    :data:`CHROME_TRACE_SCHEMA`."""
    _check(document, CHROME_TRACE_SCHEMA, "chrome-trace")


def validate_telemetry_record(record: Any) -> None:
    """Validate one telemetry-JSONL record against
    :data:`TELEMETRY_SCHEMA`."""
    _check(record, TELEMETRY_SCHEMA, "telemetry")


def validate_trace_case_record(record: Any) -> None:
    """Validate one trace-case JSONL record against
    :data:`TRACE_CASE_SCHEMA`."""
    _check(record, TRACE_CASE_SCHEMA, "trace-case")


def validate_figure_spec(document: Any) -> None:
    """Validate one rendered figure spec against
    :data:`FIGURE_SPEC_SCHEMA`."""
    _check(document, FIGURE_SPEC_SCHEMA, "figure-spec")
