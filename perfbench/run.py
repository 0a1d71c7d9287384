"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus-build --seed 7 --seconds 5 --trace 0

Run from anywhere; the program under test is the ``src/preprank`` next to
this directory.  The last line of standard output is the result object;
the line before it holds the per-operation detail, the failures, the output
hashes and the environment.  Both also go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("corpus-build", "meta-learn", "recommend")
#: BLAS and OpenMP pools pinned to one thread; set before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(Exception):
    """The checkout holds no importable ``src/preprank``."""


def load_program(root: Path):
    """Import preprank from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "preprank" / "__init__.py").is_file():
        raise ProgramMissing(f"no preprank package under {src}")
    sys.path.insert(0, str(src))
    import preprank

    if not Path(preprank.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"preprank imported from {preprank.__file__}, not {src}")
    return preprank


def environment() -> dict:
    """Versions, processor and the thread settings this run was pinned to."""
    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_program(ROOT)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    here = ROOT / "perfbench"
    results = here / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = here / ".work" / f"{tag}-{os.getpid()}"
    try:
        result = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work,
            spans_path=results / f"{tag}.spans.jsonl" if args.trace else None,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "detail": result.detail,
        "failures": result.failures,
        "hashes": result.hashes,
    }
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    (results / f"{tag}.json").write_text(
        json.dumps({**report, "result": line}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
