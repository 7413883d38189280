"""Self-test of the benchmark harness at smoke sizes; runs in a few seconds."""

import json
import os
import pathlib
import types

import pytest

import checks
import run
import spans
from workloads import WORKLOADS

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _read_inputs(workload, tmp_path, seed):
    size = workload.smoke_sizes[1]
    inputs = workload.write_inputs(str(tmp_path / f"s{seed}"), size, seed)
    return inputs, b"".join(pathlib.Path(p).read_bytes() for p in inputs.paths.values())


def test_workloads_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_seeded(name, tmp_path):
    workload = WORKLOADS[name]
    first, data = _read_inputs(workload, tmp_path / "a", 7)
    _, again = _read_inputs(workload, tmp_path / "b", 7)
    _, other = _read_inputs(workload, tmp_path / "c", 8)
    assert data == again
    assert data != other
    cli, _ = run.import_program()
    argv = ["validate"]
    for kind, path in first.paths.items():
        argv += [f"--{kind}", path]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(name, trace):
    args = run.parse_args(["--workload", name, "--trace", str(trace), "--smoke"])
    detail, result = run.run_workload(args)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert detail["layers"]["unobserved"] == []
        per_site = {"points-combined": 2.0, "points-classical": 1.0, "polygon-compare": 3.0}
        assert result["metrics"]["neighborhood.discover_per_site"]["value"] == per_site[name]


def test_tracer_reports_missing_names_as_absent():
    module = types.SimpleNamespace(load_sites=lambda path: ())
    tracer = spans.Tracer()
    with tracer.installed([module]):
        tracer.call(spans.ROOT_LAYER, lambda: module.load_sites(__file__))
    assert module.load_sites.__name__ == "<lambda>"
    assert "neighborhood.factors" in tracer.absent()
    assert "fileio.parse" not in tracer.absent()
    assert tracer.counts["bytes_in"] == os.path.getsize(__file__)


def test_invariants_catch_a_wrong_flag():
    report = "\n".join([
        "site_id,actual,expected,diff,z,outlier",
        "a,1.000000,0.000000,1.000000,-1.000000,false",
        "b,1.000000,0.000000,1.000000,1.000000,true",
        "# mu=0.000000 sigma=1.000000 theta=2.000000",
    ]) + "\n"
    assert checks.detection_problems(report, 2) == ["site b: outlier=true with z=1.0"]
    assert checks.detection_problems(report.replace("1.000000,true", "1.000000,false"), 2) == []
    assert checks.detection_problems(report, 3)
