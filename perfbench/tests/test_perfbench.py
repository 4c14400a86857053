"""The benchmark's own tests, on smoke-sized workloads.

Run from the repository root::

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _assert_named(result: dict, spec: list[dict]) -> None:
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in spec}
    for metric in spec:
        entry = printed[metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_spec_names_the_workloads():
    assert WORKLOADS == ["steady", "churn"]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    _assert_named(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    _assert_named(_result(_run(workload, trace=1)), SPEC["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = _run("steady", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _smoke_episode(name: str, store_dir: Path):
    import workloads

    if name == "churn":
        workloads.warm_store(str(store_dir))
    wl = workloads.make(name, 3, store_dir=str(store_dir), smoke=True)
    return wl, wl.episode()


def test_accounting_fails_on_a_dropped_job(tmp_path):
    import checks

    wl, episode = _smoke_episode("steady", tmp_path)
    assert checks.check_accounting(episode, len(wl.trace)) == []
    episode.runs["CORP"].result.n_completed -= 1
    problems = checks.check_accounting(episode, len(wl.trace))
    assert problems and "submitted" in problems[0]


def test_accounting_fails_on_a_missing_streamed_update(tmp_path):
    import checks

    wl, episode = _smoke_episode("churn", tmp_path)
    assert checks.check_accounting(episode, len(wl.trace)) == []
    episode.runs["RCCR"].streamed -= 1
    assert any("streamed" in p for p in checks.check_accounting(episode, len(wl.trace)))


def test_repeat_episodes_must_match_exactly(tmp_path):
    import checks

    wl, episode = _smoke_episode("steady", tmp_path)
    again = wl.episode()
    assert checks.check_same_simulation(episode, again, "repeat") == []
    again.runs["CORP"].result.n_completed -= 1
    assert checks.check_same_simulation(episode, again, "repeat")


def test_self_time_subtracts_children():
    from tracer import Tracer

    t = Tracer()
    t.add_span("outer", 0.0, 10.0)
    t._stack.append(0)  # nest the next span under "outer"
    t.add_span("inner", 2.0, 5.0)
    t._stack.pop()
    assert t.self_times() == [7.0, 3.0]
    summary = t.summarize()
    assert summary.own("outer") == 7.0
    assert summary.top_level_s == 10.0
