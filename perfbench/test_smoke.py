"""The benchmark's own tests: the smoke mode passes every check, and the
traced counts repeat exactly between two runs on one seed.

Run with ``python3 -m pytest perfbench``.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run(*args, timeout=170):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_mode_passes_every_check():
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("verify", "certify", "merge-eval"):
        assert f"{workload}: ok" in proc.stdout


def test_traced_counts_repeat_on_one_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_names = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "1/op")}
    results = []
    for _ in range(2):
        proc = run("--workload", "merge-eval", "--seed", "3", "--trace", "1", "--rounds", "2")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = ({n: r["metrics"][n]["value"] for n in count_names} for r in results)
    assert first == second
    assert first["seqmerge.eval_merged.calls"] > 0
    assert set(results[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_end_to_end_metrics_and_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run("--workload", "merge-eval", "--seed", "5", "--trace", "0", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
