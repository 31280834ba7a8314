"""The benchmark's own tests; they start the benchmark command as a subprocess.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs at minimum length (``--seconds 0``), once untraced and
twice traced, which takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import pace  # noqa: E402
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFERENCE_MRR = {"embnum_mrr": 0.7692, "semantictyper_mrr": 0.6124, "dsl_mrr": 0.7677}

# computed from shapes or counted, so they must repeat exactly between traced runs
EXACT_UNITS = {"count", "GFLOP", "MB", "bytes"}
EXACT_RATIOS = {"embnet.embed.distinct_column_ratio", "baselines.ks_statistic.distinct_pair_ratio",
                "labeling.label_queries.excluded_ratio"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int) -> dict:
    code, lines = bench(workload, trace)
    assert code == 0, lines
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.fixture(scope="module", params=WORKLOADS)
def workload(request):
    return request.param


def test_untraced_run_prints_every_end_to_end_metric(workload):
    doc = result(workload, 0)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    for name, mrr in REFERENCE_MRR.items():
        assert round(doc["metrics"][name]["value"], 4) == mrr


def test_traced_runs_print_every_per_layer_metric_and_repeat_counts(workload):
    first, second = result(workload, 1), result(workload, 1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for doc in (first, second):
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    exact = [n for n, unit in declared.items() if unit in EXACT_UNITS or n in EXACT_RATIOS]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}
    assert first["metrics"]["nn.ops.conv1d.gflop"]["value"] > 0
    assert first["metrics"]["labeling.FeatureStore.builds"]["value"] > 0


def test_predictions_name_only_declared_metrics():
    doc = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    named = [n for layer in doc["layers"] for n in layer["metrics"]]
    assert sorted(named) == sorted(per_layer)
    for layer in doc["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end
            assert move.get("workload", WORKLOADS[0]) in WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_pace_removes_probe_time_and_scales_by_the_nearby_slowdown():
    p = pace.Pace()
    for start, slowdown in ((1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (4.0, 1.0)):
        p.add(start, start + 0.01, slowdown)
    assert p.wall(1.5, 3.5) == pytest.approx(1.98)       # the probes at 2 and 3 ran inside
    assert p.scaled(1.5, 3.5) == pytest.approx(0.99)     # both say the host ran at half speed
    assert p.slowdown(4.5, 4.6) == pytest.approx(1.5)    # none within reach: the two nearest
