"""The pair-protocol verdicts of ``scripts/bench_pairs.py``."""

import argparse
import importlib.util
import json

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ROUND = {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25}


def _pair(parent, change, failed=(0, 0)):
    def side(value, n_failed):
        if value is None:
            return {"error": "exit 1: boom"}
        return {"failed": n_failed, "metrics": {"round_s": {"value": value}}}

    return {"parent": side(parent, failed[0]), "change": side(change, failed[1])}


def _failed(pairs):
    return {s: sum(p[s].get("failed", 1) for p in pairs) for s in bench_pairs.SIDES}


def test_ten_clear_wins_are_a_gain():
    pairs = [_pair(10.0 + 0.01 * i, 9.0) for i in range(10)]
    out = bench_pairs.summarize(pairs, ROUND, _failed(pairs))
    assert (out["pairs"], out["change_wins"], out["gain"]) == (10, 10, True)


def test_a_pair_without_a_result_counts_against_the_gain():
    pairs = [_pair(10.0 + 0.01 * i, 9.0) for i in range(8)] + [_pair(None, 9.0)] * 2
    out = bench_pairs.summarize(pairs, ROUND, _failed(pairs))
    assert (out["pairs"], out["pairs_compared"], out["change_wins"]) == (10, 8, 8)
    assert out["gain"] is False


def test_a_run_with_wrong_outputs_counts_as_no_result():
    pairs = [_pair(10.0 + 0.01 * i, 9.0) for i in range(10)]
    for pair in pairs[:2]:
        pair["change"]["correct"] = False
        pair["change"]["metrics"]["round_s"]["value"] = 1.0  # would drag the median down
    pairs[2]["parent"]["correct"] = False
    out = bench_pairs.summarize(pairs, ROUND, _failed(pairs))
    assert (out["pairs"], out["pairs_compared"], out["change_wins"]) == (10, 7, 7)
    assert out["gain"] is False
    assert out["change"]["q1"] == 9.0  # the two runs at 1.0 stay out
    assert out["parent"]["median"] == 10.05  # the median of the other nine


def test_more_failed_operations_than_the_parent_is_no_gain():
    pairs = [_pair(10.0 + 0.01 * i, 9.0, failed=(0, i == 3)) for i in range(10)]
    out = bench_pairs.summarize(pairs, ROUND, _failed(pairs))
    assert out["change_wins"] == 10
    assert out["gain"] is False


def test_verdict_lines_of_a_hand_made_summary():
    gain = [_pair(10.0 + 0.01 * i, 9.0) for i in range(10)]
    flat = [_pair(10.0, 10.0 + 0.01 * (i % 3 - 1)) for i in range(10)]
    worse = [_pair(10.0, 13.0) for _ in range(10)]
    summary = {
        "round_s": bench_pairs.summarize(gain, ROUND, _failed(gain)),
        "setup_s": bench_pairs.summarize(flat, ROUND, _failed(flat)),
        "peak_rss_mb": bench_pairs.summarize(worse, ROUND, _failed(worse)),
        "other": bench_pairs.summarize([_pair(None, 9.0)], ROUND, {"parent": 1, "change": 0}),
    }
    assert bench_pairs.verdict("meta-learn", summary) == [
        "meta-learn round_s 10.045 -> 9.000 s (x0.896, 10/10 wins, gain)",
        "meta-learn setup_s 10.000 -> 10.000 s (x1.000, 4/10 wins, within bound)",
        "meta-learn peak_rss_mb 10.000 -> 13.000 s (x1.300, 0/10 wins, beyond bound)",
        "meta-learn other: no pair gave both results",
    ]


@pytest.mark.parametrize("text", ["recommend:2001", "recommend:", ":1-2", "recommend:5-3"])
def test_workload_needs_a_seed_range(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs._workload(text)


def test_workload_seed_range():
    assert bench_pairs._workload("recommend:2001-2003") == ("recommend", [2001, 2002, 2003])


def test_unreadable_output_is_an_error_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({json.dumps(json.dumps({'environment': {}}))})\nprint('not json')\n"
    )
    out = bench_pairs.run_once(tmp_path, "recommend", 1, 0)
    assert out["error"].startswith("unreadable output")


def test_no_run_length_option():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", ".", "--change", ".", "--out", "x.json",
                          "--workload", "recommend:1-2", "--seconds", "1"])


def _cold_pair(parent_wall, change_wall):
    def side(wall):
        run = {"wall_s": wall, "cpu_s": wall / 2, "max_rss_mb": 40.0}
        return {name: dict(run) for name in bench_pairs.COLD_START_RUNS}

    return {"parent": side(parent_wall), "change": side(change_wall)}


def test_cold_start_summary_of_hand_made_timings():
    pairs = [_cold_pair(1.0 + 0.1 * i, 0.4 + 0.01 * i) for i in range(4)]
    pairs[0]["change"]["recommend_tree"] = {"error": "exit 1"}  # stays out of the quartiles
    out = bench_pairs.summarize_cold_start(pairs)
    assert set(out) == set(bench_pairs.COLD_START_RUNS)
    wall = out["import"]["wall_s"]
    assert wall["parent"] == pytest.approx({"median": 1.15, "q1": 1.075, "q3": 1.225})
    assert wall["change"] == pytest.approx({"median": 0.415, "q1": 0.4075, "q3": 0.4225})
    assert wall["change_over_parent"] == pytest.approx(0.415 / 1.15)
    assert out["import"]["cpu_s"]["parent"]["median"] == pytest.approx(0.575)
    assert out["import"]["max_rss_mb"]["change_over_parent"] == 1.0
    assert out["recommend_tree"]["wall_s"]["change"]["median"] == pytest.approx(0.42)


def test_cold_start_runs_fresh_processes(tmp_path):
    out = tmp_path / "cold.json"
    assert bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--out", str(out),
                             "--cold-start", "1"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    [pair] = report["cold_start"]["pairs"]
    for run in bench_pairs.COLD_START_RUNS:
        parent, change = pair["parent"][run], pair["change"][run]
        assert "error" not in parent and "error" not in change
        assert parent["stdout_sha256"] == change["stdout_sha256"]  # one checkout, one output
        assert parent["max_rss_mb"] > 0 and parent["wall_s"] > 0
        summary = report["cold_start"]["summary"][run]["wall_s"]
        assert summary["parent"]["median"] == parent["wall_s"]
    assert report["workloads"] == {}


def test_a_run_needs_a_workload_or_cold_start_pairs():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", ".", "--change", ".", "--out", "x.json"])


def _checkout(root, package_lines):
    """A checkout with package files of ``package_lines`` lines and a one-result benchmark."""
    (root / "src" / "preprank").mkdir(parents=True)
    for i, n in enumerate(package_lines):
        (root / "src" / "preprank" / f"m{i}.py").write_text("x = 1\n" * n, encoding="utf-8")
    (root / "src" / "preprank" / "notes.txt").write_text("not counted\n", encoding="utf-8")
    (root / "perfbench").mkdir()
    result = {"correct": True, "failed": 0, "metrics": {"round_s": {"value": 1.0}}}
    (root / "perfbench" / "run.py").write_text(
        f"print({json.dumps(json.dumps({'environment': {}}))})\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    return root


def test_source_lines_of_both_checkouts(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", [3, 4])
    change = _checkout(tmp_path / "change", [5])
    assert bench_pairs.source_lines(parent) == 7
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                             "--workload", "recommend:1-1"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["source_lines"] == {"parent": 7, "change": 5}
    assert "source lines 7 -> 5" in capsys.readouterr().err.splitlines()
    assert report["workloads"]["recommend"]["summary"]["round_s"]["change_wins"] == 0
