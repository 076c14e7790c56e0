"""The printed result and BENCHMARK.json follow the benchmark format."""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import common
import run
from result import Result

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(json.dumps(SPEC)) <= 64 * 1024
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path) and ".." not in path.split("/")


def _check_last_line(stdout, key):
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["correct"], bool)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and 0 <= last["failed"] <= last["attempted"]
    assert list(last["metrics"]) == [m["name"] for m in SPEC[key]]
    for spec in SPEC[key]:
        entry = last["metrics"][spec["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    return last


class _FakeWorkload:
    def __init__(self, seed, work, traced):
        self.work = work

    def setup(self):
        pass

    def _result(self):
        result = Result("fake")
        result.count("ok")
        result.count("5xx_invalid")
        return result

    def measure(self, seconds):
        result = self._result()
        for metric in SPEC["end_to_end"]:
            result.metric(metric["name"], 1.25)
        return result

    def trace(self, seconds):
        result = self._result()
        result.metric("service.transport.self_s", 0.5)
        return result

    def close(self):
        pass


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_result_parses_under_the_format(monkeypatch, capsys, trace, key):
    monkeypatch.setattr(run, "_workloads", lambda: {"fake": _FakeWorkload})
    assert run.main(["--workload", "fake", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    last = _check_last_line(capsys.readouterr().out, key)
    assert last["attempted"] == 2 and last["failed"] == 1 and last["correct"] is True
    if trace:
        assert last["metrics"]["errors.5xx_invalid"]["value"] == 1
        assert last["metrics"]["error_rate"]["value"] == 0.5


def test_an_unmeasured_end_to_end_metric_is_an_error():
    result = Result("x")
    result.count("ok")
    with pytest.raises(KeyError):
        result.output(SPEC["end_to_end"], layered=False)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oocore-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_rationale_matches_the_benchmark():
    import service

    rationale = json.loads((common.BENCH_DIR / "RATIONALE.json").read_text())
    assert {w["name"] for w in SPEC["workloads"]} <= set(rationale["workloads"])
    assert set(rationale["workloads"]) == set(run._workloads())
    assert set(rationale["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(rationale["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert rationale["service"]["rate_rps"] == service.RATE_RPS
    assert rationale["service"]["warmup_s"] == service.WARMUP_S
    assert rationale["service"]["connections"] == service.CONNECTIONS
    assert rationale["service"]["latency_limit_ms"] == service.LATENCY_LIMIT_MS
    basis = rationale["mix_basis"]
    assert basis["zipf_exponent"]["value"] == service.ZIPF_EXPONENT
    assert tuple(basis["point_shares"]["value"]) == service.POINT_SHARES
    shares = dict(service.MIX)
    for kind, share in shares.items():
        entry = next(v for k, v in basis.items() if kind in k.split(", "))
        assert entry["value"] == share, kind


def test_reference_computations_run(tmp_path):
    """The denominators of op_cpu_ref."""
    assert common.reference_sweep_cpu_s(tmp_path) > 0
    child = common.run_child(common.python_child("reference-requests", "--seconds", 1),
                             common.child_env(tmp_path, tmp_path), tmp_path)
    assert child.returncode == 0
    assert float((tmp_path / "stdout.txt").read_text()) > 0
