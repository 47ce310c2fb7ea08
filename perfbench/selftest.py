"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection: the
smoke tests run every workload through the real command and take minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import bench
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def es():
    return bench.import_library()


class SmallOracles(bench.Oracles):
    j_orders = range(-3, 1)
    mc_plan = ((1, 1 << 19, 1), (2, 1 << 17, 1))


def small_workloads(es, seed):
    return [bench.RocKnown(es, seed, trials=256), bench.DetectMix(es, seed),
            SmallOracles(es, seed)]


def test_same_seed_gives_same_digest(es):
    for first, second in zip(small_workloads(es, 5), small_workloads(es, 5)):
        a = bench.measure(first, 0.0, n_passes=1)
        b = bench.measure(second, 0.0, n_passes=1)
        assert first.check(a)[0] == []
        assert first.digest(a) == second.digest(b), first.name


def test_traced_run_gives_untraced_digest(es):
    for workload in small_workloads(es, 6):
        passes = bench.measure(workload, 0.0, n_passes=1)
        layers, problems, notes = bench.traced_run(workload, es, passes)
        assert problems == [], workload.name
        assert notes["digest_traced"] == workload.digest(passes)
        assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_roc_marginal_digest_is_thread_count_invariant(es):
    # 2049 trials per hypothesis give two chunks, so both workers get one.
    workload = bench.RocMarginal(es, 7, trials=2049)
    one = bench.measure(workload, 0.0, n_passes=1, threads=1)
    two = bench.measure(workload, 0.0, n_passes=1, threads=2)
    assert workload.digest(one) == workload.digest(two)


def test_tracer_keeps_every_span_and_count_under_thread_contention():
    module = types.SimpleNamespace(work=lambda x: x, tick=lambda x: x)
    tracer = spans.Tracer()
    tracer.span(module, "work", "layer")
    tracer.counter(module, "tick", lambda a, r: [("ticks", 1)])
    n_threads, n_calls = 8, 2000

    def hammer():
        for i in range(n_calls):
            module.work(i)
            module.tick(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()
    assert [s.sid for s in tracer.spans] == list(range(n_threads * n_calls))
    assert tracer.totals()["ticks"] == n_threads * n_calls


def run_command(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_is_reported_with_its_unit(workload, trace):
    out = run_command(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        if not trace:
            assert value["value"] > 0, name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_command(tmp_path, "roc_known", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
