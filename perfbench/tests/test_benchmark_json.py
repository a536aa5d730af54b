"""BENCHMARK.json matches what run.py prints and the file's contract."""

import json
import re
from pathlib import Path

import layers
import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_are_the_ones_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER)


def test_metric_limits():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128
