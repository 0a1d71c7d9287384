#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized into one JSON file.

    git archive <parent commit> | tar -x -C ../parent
    python3 scripts/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json \\
        --workload recommend:2001-2010 --workload corpus-build:2011-2020 \\
        --workload meta-learn:2021-2030

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each checkout, N being ``run_seconds`` of ``BENCHMARK.json``, one
process at a time, with the parent first on even pairs and the change first
on odd ones.  The file keeps every run's result object as
``perfbench/run.py`` prints it, and per workload and end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles, the pairs the change
wins (ties and pairs with a side that gave no result count for neither; a
result with ``correct: false`` counts as none and stays out of the
quartiles), whether the medians differ by more than the parent's
interquartile spread, and whether the change's median is within the
metric's bound of the parent's.  A gain needs wins in at least nine tenths of the pairs run, the
medians that far apart, and no more failed operations than the parent.
The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.  After a workload's last pair, one stderr line per
end-to-end metric gives its verdict, e.g. ``meta-learn round_s 2.107 ->
1.770 s (x0.840, 10/10 wins, gain)``.

``--cold-start N`` adds N alternating pairs of fresh processes, which the
benchmark cannot see since it imports ``preprank`` before timing: ``import
preprank.cli``, then a small tree and a small knn:1 ``recommend`` of
``mini_corpus(99)[0]`` as the console script runs it.  Each side first
trains its 100-tree models from ``mini_corpus(7)`` in a temporary directory,
before any timing.  Each run's wall time, CPU time and max RSS are kept, and
under ``"cold_start"`` each side's median and quartiles of them.

The file also keeps, under ``"source_lines"``, each checkout's
``wc -l src/preprank/*.py``, and one stderr line gives both, e.g.
``source lines 4230 -> 4212``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _workload(text: str) -> tuple[str, list[int]]:
    name, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME:FIRST-LAST, got {text!r}") from None
    if not name or lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"expected NAME:FIRST-LAST, got {text!r}")
    return name, list(range(lo, hi + 1))


def source_lines(checkout: Path) -> int:
    """The lines of the checkout's package, as ``wc -l src/preprank/*.py`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "preprank").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run, plus its environment, or an ``error``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        return {"error": "timed out after 1800 s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    try:
        return {**json.loads(lines[-1]), "environment": json.loads(lines[-2])["environment"]}
    except (ValueError, TypeError, KeyError) as exc:
        return {"error": f"unreadable output: {exc!r}: {lines[-1][:500]}"}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metric: dict, failed: dict) -> dict:
    """Both sides' quartiles of one end-to-end metric and the pair-protocol verdicts."""
    name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
    values = {side: [] for side in SIDES}
    wins = compared = 0
    for pair in pairs:
        # a run whose outputs were wrong counts as one that gave no result
        got = [pair[side].get("metrics", {}).get(name, {}).get("value")
               if pair[side].get("correct") is not False else None for side in SIDES]
        for side, value in zip(SIDES, got):
            if value is not None:
                values[side].append(value)
        if None not in got:
            compared += 1
            wins += sign * (got[0] - got[1]) > 0
    out = {"unit": metric["unit"], "better": metric["better"], "pairs": len(pairs),
           "pairs_compared": compared, "change_wins": wins}
    out.update({side: _quartiles(values[side]) for side in SIDES})
    if compared:
        parent, change = out["parent"], out["change"]
        out["change_over_parent"] = change["median"] / parent["median"]
        out["medians_apart_by_more_than_parent_iqr"] = (
            abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        )
        out["gain"] = (wins >= 0.9 * len(pairs) and out["medians_apart_by_more_than_parent_iqr"]
                       and sign * (parent["median"] - change["median"]) > 0
                       and failed["change"] <= failed["parent"])
        out["within_bound"] = sign * (change["median"] - parent["median"]) <= (
            metric["bound"] * parent["median"]
        )
    return out


def verdict(workload: str, summary: dict) -> list[str]:
    """One line per metric of a workload's summary: the medians, their ratio, wins and verdict."""
    lines = []
    for name, s in summary.items():
        if "change_over_parent" not in s:
            lines.append(f"{workload} {name}: no pair gave both results")
            continue
        word = "gain" if s["gain"] else "within bound" if s["within_bound"] else "beyond bound"
        lines.append(
            f"{workload} {name} {s['parent']['median']:.3f} -> {s['change']['median']:.3f} "
            f"{s['unit']} (x{s['change_over_parent']:.3f}, {s['change_wins']}/{s['pairs']} wins, "
            f"{word})"
        )
    return lines


#: in the directory argv[1]: mini_corpus(7) as ARFF files, its tree and knn:1 metadbs
#: and 100-tree models, and the small request's dataset
_COLD_START_SETUP = """\
import sys
from pathlib import Path

from preprank import cli, dataset, synthetic

root = Path(sys.argv[1])
corpus = synthetic.mini_corpus(7)
for ds in corpus:
    (root / f"{ds.name}.arff").write_text(dataset.serialize_arff(ds), encoding="utf-8")
manifest = root / "corpus.manifest"
manifest.write_text("".join(f"{ds.name}.arff\\n" for ds in corpus), encoding="utf-8")
small = dataset.serialize_arff(synthetic.mini_corpus(99)[0])
(root / "small.arff").write_text(small, encoding="utf-8")
for learner in ("tree", "knn:1"):
    stem = str(root / learner.replace(":", ""))
    for args in (
        ["build-metadb", "--datasets", str(manifest), "--algorithm", learner, "--seed", "7",
         "--out", stem + ".tsv"],
        ["train", "--metadb", stem + ".tsv", "--trees", "100", "--seed", "7",
         "--out", stem + ".json"],
    ):
        if cli.main(args) != 0:
            sys.exit(f"set-up failed: {args}")
"""

#: what the ``preprank`` console script runs
_ENTRY_POINT = "import sys; from preprank.cli import main; sys.exit(main(sys.argv[1:]))"

COLD_START_RUNS = ("import", "recommend_tree", "recommend_knn1")
COLD_START_METRICS = ("wall_s", "cpu_s", "max_rss_mb")


def _cold_start_argv(run: str) -> list[str]:
    """The run's command line, in the directory that ``_COLD_START_SETUP`` filled."""
    if run == "import":
        return [sys.executable, "-c", "import preprank.cli"]
    learner = {"recommend_tree": "tree", "recommend_knn1": "knn:1"}[run]
    return [sys.executable, "-c", _ENTRY_POINT, "recommend", "--dataset", "small.arff",
            "--algorithm", learner, "--model", learner.replace(":", "") + ".json"]


def fresh_process(argv: list[str], env: dict, cwd: Path) -> dict:
    """One child's wall time, CPU time (user + system) and max RSS, or an ``error``.

    The child's stdout is kept as its SHA-256, so the two sides' outputs compare.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if child.returncode != 0:
            return {"error": f"exit {child.returncode}"}
        out.seek(0)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "max_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
                "stdout_sha256": hashlib.sha256(out.read()).hexdigest()}


def summarize_cold_start(pairs: list[dict]) -> dict:
    """Per cold-start run and metric, each side's quartiles and the ratio of the medians."""
    out = {}
    for run in COLD_START_RUNS:
        out[run] = {}
        for metric in COLD_START_METRICS:
            values = {side: [p[side][run][metric] for p in pairs if metric in p[side][run]]
                      for side in SIDES}
            entry = out[run][metric] = {side: _quartiles(values[side]) for side in SIDES}
            if values["parent"] and values["change"]:
                entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
    return out


def cold_start(checkouts: dict, n_pairs: int, report: dict, out: Path) -> None:
    """Set up both sides, then add ``n_pairs`` alternating pairs to ``report``."""
    with tempfile.TemporaryDirectory() as scratch:
        roots = {side: Path(scratch, side) for side in SIDES}
        envs = {side: {**os.environ, "PYTHONPATH": str(checkouts[side] / "src")} for side in SIDES}
        for side in SIDES:
            roots[side].mkdir()
            subprocess.run([sys.executable, "-c", _COLD_START_SETUP, str(roots[side])],
                           env=envs[side], check=True, stdout=subprocess.DEVNULL)
        entry = report["cold_start"] = {"pairs": []}
        for i in range(n_pairs):
            pair = {"first": SIDES[i % 2]}
            for side in SIDES[:: 1 if i % 2 == 0 else -1]:
                pair[side] = {run: fresh_process(_cold_start_argv(run), envs[side], roots[side])
                              for run in COLD_START_RUNS}
            entry["pairs"].append(pair)
            entry["summary"] = summarize_cold_start(entry["pairs"])
            out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"cold start pair {i}: done", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", type=_workload, action="append", default=[],
                        help="NAME:FIRST-LAST, one seed per pair")
    parser.add_argument("--cold-start", type=int, default=0, metavar="PAIRS",
                        help="alternating pairs of fresh-process runs (see above)")
    args = parser.parse_args(argv)
    if not args.workload and args.cold_start < 1:
        parser.error("give a --workload or a --cold-start above 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "order": "parent first on even pairs, change first on odd ones",
        },
        "source_lines": {side: source_lines(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    lines = report["source_lines"]
    print(f"source lines {lines['parent']} -> {lines['change']}", file=sys.stderr, flush=True)
    for name, seeds in args.workload:
        entry = report["workloads"][name] = {"seeds": seeds, "pairs": []}
        for i, seed in enumerate(seeds):
            pair = {"seed": seed, "first": SIDES[i % 2]}
            for side in SIDES[:: 1 if i % 2 == 0 else -1]:
                start = time.monotonic()
                pair[side] = run_once(checkouts[side], name, seed, seconds)
                environment = pair[side].pop("environment", None)
                if environment and "environment" not in report:
                    report["environment"] = environment
                print(f"{name} seed {seed} {side}: {time.monotonic() - start:.0f} s "
                      f"{pair[side].get('error', 'ok')}", file=sys.stderr, flush=True)
            entry["pairs"].append(pair)
            entry["failed"] = {  # failed operations, a run that gave no result counting 1
                side: sum(p[side].get("failed", 1) for p in entry["pairs"]) for side in SIDES
            }
            entry["summary"] = {m["name"]: summarize(entry["pairs"], m, entry["failed"])
                                for m in benchmark["end_to_end"]}
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for line in verdict(name, entry["summary"]):
            print(line, file=sys.stderr, flush=True)
    if args.cold_start:
        cold_start(checkouts, args.cold_start, report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
