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
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", type=_workload, action="append", required=True,
                        help="NAME:FIRST-LAST, one seed per pair")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "order": "parent first on even pairs, change first on odd ones",
        },
        "workloads": {},
    }
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
