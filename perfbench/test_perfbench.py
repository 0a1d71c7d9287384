"""Smoke tests for the benchmark: every workload at a tiny size, plus its checks.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import spans, speed, workloads  # noqa: E402
from preprank import synthetic, transforms  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = workloads.DEFAULT_SEED


def _run(name, trace, tmp_path, seed=SEED):
    return workloads.run(
        name, seed, 0.0, trace, tmp_path / f"{name}-{trace}", size=workloads.SMOKE,
        spans_path=tmp_path / "spans.jsonl",
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_traced_and_untraced(name, tmp_path):
    plain = _run(name, False, tmp_path)
    assert plain.failures == []
    assert plain.correct and plain.attempted > 0 and plain.failed == 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (_, unit) in plain.metrics.items()
    }
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = _run(name, True, tmp_path)
    assert traced.failures == []
    assert traced.hashes == plain.hashes
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (_, unit) in traced.metrics.items()
    }
    assert traced.metrics["cli.main.s"][0] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_layer_counts_repeat_exactly(tmp_path):
    first = _run("recommend", True, tmp_path / "a")
    second = _run("recommend", True, tmp_path / "b")
    counts = {k for k, (_, unit) in first.metrics.items() if unit == "count"}
    assert {k: first.metrics[k] for k in counts} == {k: second.metrics[k] for k in counts}
    assert first.metrics["ranker.cv_runs_per_request"][0] == 1
    assert first.metrics["classifiers.cross_validate.nb.calls"][0] == 0


def test_generated_corpus_is_the_bundled_one(tmp_path):
    workloads.write_corpus(synthetic.mini_corpus(workloads.CORPUS_SEED), tmp_path)
    bundled = workloads.corpus_hash(ROOT / "corpus")
    assert workloads.corpus_hash(tmp_path) == bundled
    expected = json.loads(workloads.EXPECTED_HASHES.read_text(encoding="utf-8"))
    assert all(expected[name]["corpus"] == bundled for name in workloads.WORKLOADS)


def test_names_agree_with_the_program_and_benchmark_json():
    from perfbench import run

    assert set(spans.TRANSFORM_KINDS) == set(transforms.KIND_ORDER)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_self_time_subtracts_children():
    outer = spans.Span("a", 0.0, 10.0, None, "r")
    inner = spans.Span("b", 2.0, 5.0, 0, "r")
    leaf = spans.Span("c", 3.0, 4.0, 1, "r")
    assert spans.self_times([outer, inner, leaf]) == [7.0, 2.0, 1.0]


def test_scale_takes_the_median_probe_around_an_interval():
    sampler = speed.Sampler()
    sampler.at = [float(t) for t in range(20)]
    sampler.probe_s = [speed.REFERENCE_PROBE_S] * 10 + [2 * speed.REFERENCE_PROBE_S] * 10
    assert sampler.scaled(2.0, 3.0) == 1.0
    assert sampler.scaled(15.0, 17.0) == 1.0
    # near the end the window widens to LEAST_PROBES, all of them slow ones
    assert sampler.scale(19.0, 19.0) == 0.5
    assert speed.Sampler().scale(0.0, 1.0) == 1.0


def test_sampler_probes_during_work_and_keeps_them_off_the_clock():
    with speed.Sampler(interval=0.01) as sampler:
        thread_start, start = time.thread_time(), sampler.clock()
        while len(sampler.probe_s) < 5:
            speed.probe()
        end, thread_end = sampler.clock(), time.thread_time()
    assert sampler.at == sorted(sampler.at)
    assert all(start <= t <= end for t in sampler.at)
    probing = sum(sampler.probe_s)
    assert probing > 0
    assert abs((thread_end - thread_start) - (end - start) - probing) < 1e-3


def test_failures_are_counted_and_do_not_abort(tmp_path):
    runner = workloads.Runner(speed.Sampler())
    with workloads.inside(tmp_path), workloads.captured_logging():
        runner.run(workloads.Op("bad-flag", "x", ["train", "--no-such-flag"]))
        runner.run(workloads.Op("missing", "x", ["train", "--metadb", "nope.tsv", "--out", "m.json"]))
        runner.run(workloads.Op("ok", "x", ["featurize", str(ROOT / "corpus/mini/syn00.arff")]))
    assert runner.attempted == 3
    assert [f["op"] for f in runner.failures] == ["bad-flag", "missing"]
    assert runner.failures[1]["errors"][0]["type"] == "ExitCode"


def test_ranking_check_rejects_broken_output():
    good = "# preprank recommend x\nrank\tt\tp\n1\ta\t0.9\n2\tb\t0.5\n"
    ok = workloads.Outcome(0, good, "", 1, None)
    assert workloads.check_ranking(ok, 2) == []
    rising = workloads.Outcome(0, good.replace("0.5", "0.95"), "", 1, None)
    assert workloads.check_ranking(rising, 2)
    assert workloads.check_ranking(workloads.Outcome(0, good, "", 2, None), 2)
    assert workloads.check_ranking(ok, 3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recommend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
