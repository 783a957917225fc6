"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They check that every metric named in BENCHMARK.json is emitted with its unit,
that a deliberately wrong expected value turns ops into failed ops, that self
time subtracts child spans, and that the benchmark refuses to run without the
package sources.  They are not part of the package's own test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer as tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = run.Sizes(
    mc_rounds=2000,
    setup_repeats=1,
    sweep_block=3,
    trace_ops={"cli-session": 7, "mc-large": 2},
)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_per_layer_spec_matches_benchmark_json():
    assert dict(tracing.per_layer_spec()) == _units("per_layer")
    assert [n for n, _ in tracing.per_layer_spec()] == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(workload, trace):
    out = run.run_workload(workload, seed=3, seconds=0.3, trace=trace, sizes=TINY)
    result = out["result"]
    assert result["correct"], out["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    assert out["provenance"]["src_lines"] > 0


@pytest.mark.parametrize(
    "workload, key, wrong",
    [
        ("theta-sweep", "halt", Fraction(1, 13)),
        ("cli-session", "halt", Fraction(1, 13)),
        ("mc-large", "collapse", {("okbar", "ok"): Fraction(1, 2), ("failbar", "fail"): Fraction(1, 2)}),
    ],
)
def test_wrong_expected_value_is_a_failed_op(monkeypatch, workload, key, wrong):
    monkeypatch.setitem(checks.EXPECTED, key, wrong)
    out = run.run_workload(workload, seed=3, seconds=0.3, trace=False, sizes=TINY)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert out["errors"]


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    tr.spans += [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 60, 0], ["leaf", 15, 20, 1]]
    agg = tr.aggregate()
    assert agg["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert agg["self_ns"] == {"outer": 60, "inner": 35, "leaf": 5}


def test_collapse_mc_check_accepts_exact_counts():
    rounds = 4000
    payload = {
        "rounds": rounds,
        "semantics": "collapse",
        "frequencies": [
            {"wbar": wb, "w": w, "count": rounds // 4}
            for wb in ("okbar", "failbar") for w in ("ok", "fail")
        ],
        "halting": {"episodes": 1000, "histogram": [{"length": 4, "count": 1000}], "leftover_rounds": 0},
    }
    assert checks.mc_failures(payload, rounds) == []
    payload["halting"]["leftover_rounds"] = 1
    assert checks.mc_failures(payload, rounds)


def test_fails_without_package_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "cli-session",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
