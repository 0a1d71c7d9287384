"""The three benchmark workloads: seeded inputs, CLI operations, output checks.

Every operation is one in-process ``preprank.cli.main(argv)`` call with
``--jobs 1``.  Argv paths are relative to the run's work directory, so the
outputs, whose first lines echo those paths, hash the same in any checkout.

Operations are timed in CPU seconds of the one thread that runs them,
scaled to a reference host speed by the probes of :mod:`perfbench.speed`.
CPU time leaves out what a shared host steals from the virtual CPU (on a
2-vCPU guest the wall time of one build swung from 3.8 s to 5.9 s with steal
while its CPU time stayed within 3.5-3.9 s); the scaling takes out the drift
in how fast that CPU time runs.  Raw CPU and wall times are kept in the
detail.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import re
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import preprank
from preprank import classifiers, cli, dataset, ranker, synthetic, transforms

from . import spans, speed

#: ``synthetic.mini_corpus(7)`` is the bundled ``corpus/mini`` byte for byte.
#: Every run uses it, because generated corpora differ in cost: a tree build
#: took 8.5-9.1 CPU seconds on this one and 10.0-15.2 on corpus seeds 1-5.
CORPUS_SEED = 7
#: the workload seed whose output hashes ``expected_hashes.json`` records
DEFAULT_SEED = 7
#: large requests come from fixed seeds for the same reason as the corpus
LARGE_SEED = 2018
LEARNERS = ("tree", "nb", "knn:1", "logistic")
RECOMMEND_LEARNERS = ("tree", "knn:1")
EVALUATE_REPORTS = (
    "measures.tsv",
    "lk_matrix.tsv",
    "significance.tsv",
    "ndcg.tsv",
    "distribution.tsv",
    "summary.txt",
)
EXPECTED_HASHES = Path(__file__).with_name("expected_hashes.json")


@dataclass(frozen=True)
class Size:
    """How much work one round holds."""

    corpus_step: int = 1  # every n-th dataset of a mini corpus
    train_trees: int = 100
    eval_trees: int = 5  # per LOOV fold; 100 would make one evaluate take ~100 s
    small_requests: int = 120  # p90 then has 12 samples beyond it
    large_requests: int = 2
    large_rows: int = 4000


FULL = Size()
SMOKE = Size(corpus_step=4, train_trees=4, eval_trees=2, small_requests=6, large_rows=300)


# --- running one operation -------------------------------------------------------


@dataclass
class Op:
    id: str
    kind: str
    argv: list[str]
    check: object = None  # Outcome -> list of problems
    outputs: tuple[str, ...] = ()  # files to hash; "stdout" joins the round's stream


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    cv_runs: int
    error: BaseException | None


_SKIPPED = re.compile(r"^skipping dataset (\S+): (\w+): (.*)$", re.M)


class _CurrentStderr(logging.Handler):
    """Sends log records to whatever ``sys.stderr`` is when they are emitted."""

    def emit(self, record):
        sys.stderr.write(self.format(record) + "\n")


class Runner:
    """Runs CLI operations, timing each and keeping every failure's type and reason."""

    def __init__(self, sampler: speed.Sampler):
        self.sampler = sampler
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failures: list[dict] = []
        #: (kind, start, end) of each operation on the sampler's clock
        self.timed: list[tuple[str, float, float]] = []
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.hashes: dict[str, str] = {}
        self._stream = hashlib.sha256()
        self._round: list[tuple[float, float]] = []

    def run(self, op: Op) -> Outcome:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = op.id
        out, err = io.StringIO(), io.StringIO()
        cv_before = classifiers.CV_RUNS.value
        code = error = None
        start, cpu_start = time.perf_counter(), self.sampler.clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - one failed operation never aborts a run
            error = exc
        cpu_end = self.sampler.clock()
        self.wall[op.kind].append(time.perf_counter() - start)
        self.timed.append((op.kind, cpu_start, cpu_end))
        outcome = Outcome(code, out.getvalue(), err.getvalue(), classifiers.CV_RUNS.value - cv_before, error)
        self._round.append((cpu_start, cpu_end))
        for name in op.outputs:
            if name == "stdout":
                self._stream.update(outcome.stdout.encode("utf-8"))
            elif os.path.exists(name):
                self.hashes[name] = sha256_file(name)
        self._record(op, outcome)
        return outcome

    def _record(self, op: Op, outcome: Outcome) -> None:
        errors = []
        if outcome.error is not None:
            errors.append((type(outcome.error).__name__, str(outcome.error)))
        else:
            for name, kind, reason in _SKIPPED.findall(outcome.stderr):
                errors.append((kind, f"dataset {name} skipped: {reason}"))
            if outcome.code != 0:
                tail = outcome.stderr.strip().splitlines()[-1:] or [""]
                errors.append(("ExitCode", f"exit {outcome.code}: {tail[0]}"))
            elif op.check is not None:
                try:
                    problems = op.check(outcome)
                except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails
                    problems = [f"{type(exc).__name__}: {exc}"]
                errors += [("CheckFailed", p) for p in problems]
        if errors:
            self.fail(op.id, errors)

    def fail(self, op_id: str, errors) -> None:
        self.failures.append(
            {"op": op_id, "errors": [{"type": t, "message": m} for t, m in errors]}
        )

    def take_round(self) -> tuple[list[tuple[float, float]], dict[str, str]]:
        """The operations' (start, end) CPU times and output hashes since the last call."""
        hashes = dict(self.hashes)
        if self._stream.digest() != hashlib.sha256().digest():
            hashes["stdout"] = self._stream.hexdigest()
        intervals = self._round
        self.hashes, self._stream, self._round = {}, hashlib.sha256(), []
        return intervals, hashes

    def scaled(self, intervals) -> float:
        """Seconds at reference speed spent in ``intervals``; see :mod:`perfbench.speed`."""
        return sum(self.sampler.scaled(start, end) for start, end in intervals)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- inputs ------------------------------------------------------------------------


def write_corpus(datasets, root: Path) -> None:
    """ARFF files plus a manifest, laid out like the bundled ``corpus/``."""
    mini = root / "mini"
    mini.mkdir(parents=True, exist_ok=True)
    names = []
    for ds in datasets:
        (mini / f"{ds.name}.arff").write_text(dataset.serialize_arff(ds), encoding="utf-8")
        names.append(f"mini/{ds.name}.arff")
    (root / "mini.manifest").write_text(
        "# bundled offline corpus: paths resolve relative to this file\n"
        + "\n".join(names)
        + "\n",
        encoding="utf-8",
    )


def corpus_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in [root / "mini.manifest"] + sorted((root / "mini").glob("*.arff")):
        digest.update(f"{path.relative_to(root)} {sha256_file(path)}\n".encode())
    return digest.hexdigest()


def _slug(learner: str) -> str:
    return learner.replace(":", "")


def read_metadb_rows(path) -> list[tuple[str, str, str]]:
    """(dataset, transformation, response class) per row, read without preprank."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        rows.append((cells[0], cells[1], cells[-1]))
    return rows


def data_lines(path) -> list[list[str]]:
    """Tab-split lines of a report, without its config comment and header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [ln.split("\t") for ln in lines[2:]]


# --- workloads ---------------------------------------------------------------------


class Workload:
    """Set-up, then closed-loop rounds of CLI operations with one client."""

    name = ""
    setup_repeats = 1
    rounds = 1  # at least this many, however short ``seconds`` is

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.cli_seed = str(seed)  # what every CLI call gets as --seed
        self.size = size
        self.corpus = synthetic.mini_corpus(CORPUS_SEED)[:: size.corpus_step]
        self.names = [ds.name for ds in self.corpus]
        self.expected_rows = sum(len(transforms.enumerate_applicable(ds)) for ds in self.corpus)

    def setup(self, runner: Runner) -> None:
        write_corpus(synthetic.mini_corpus(CORPUS_SEED)[:: self.size.corpus_step], Path("corpus"))

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def build_op(self, op_id: str, kind: str, learner: str) -> Op:
        out = f"{_slug(learner)}.metadb.tsv"
        return Op(
            op_id,
            kind,
            ["build-metadb", "--datasets", "corpus/mini.manifest", "--algorithm", learner,
             "--seed", self.cli_seed, "--jobs", "1", "--out", out],
            lambda outcome: self.check_metadb(out, learner),
            (out,),
        )

    def check_metadb(self, path, learner) -> list[str]:
        rows = read_metadb_rows(path)
        problems = []
        built = list(dict.fromkeys(d for d, _, _ in rows))
        if built != self.names:
            missing = sorted(set(self.names) - set(built))
            problems.append(f"{len(built)} of {len(self.names)} datasets built, missing {missing}")
        if len(rows) != self.expected_rows:
            problems.append(f"{len(rows)} rows, expected {self.expected_rows}")
        if self.size == FULL and len(rows) != 273:
            problems.append(f"{len(rows)} rows, expected 273 for the full corpus")
        if learner in ("tree", "knn:1"):
            scaled = [(d, t, c) for d, t, c in rows if t.split("(")[0] in ("normalize", "standardize")]
            bad = [f"{d} {t}" for d, t, c in scaled if c != "zero"]
            if bad:
                problems.append(f"scaling rows not zero for {learner}: {bad[:3]}")
        return problems


class CorpusBuild(Workload):
    """``build-metadb`` for each of the four learners on one generated corpus."""

    name = "corpus-build"
    # Set-up only generates and writes the inputs here, about 50 ms that vary
    # from 25 to 80 ms within a run, so the median needs many of them.
    setup_repeats = 20

    def round_ops(self, r):
        return [
            self.build_op(f"r{r}/build-metadb/{_slug(l)}", f"build_{spans.LEARNER_SLUGS[l]}", l)
            for l in LEARNERS
        ]


class MetaLearn(Workload):
    """``train`` then leave-one-dataset-out ``evaluate`` on a tree meta-database."""

    name = "meta-learn"
    # A round takes about 9 s, so a second one costs what a second set-up (a
    # 10 s meta-database build) would; it goes to round_s, the metric that
    # has to stay steady from run to run.
    rounds = 2

    def setup(self, runner):
        super().setup(runner)
        runner.run(self.build_op("setup/build-metadb/tree", "setup", "tree"))

    def round_ops(self, r):
        size = self.size
        return [
            Op(
                f"r{r}/train",
                "train",
                ["train", "--metadb", "tree.metadb.tsv", "--trees", str(size.train_trees),
                 "--seed", self.cli_seed, "--out", "model.json"],
                lambda outcome: self.check_model("model.json"),
                ("model.json",),
            ),
            Op(
                f"r{r}/evaluate",
                "evaluate",
                ["evaluate", "--metadb", "tree.metadb.tsv", "--trees", str(size.eval_trees),
                 "--seed", self.cli_seed, "--out", "eval"],
                self.check_reports,
                tuple(f"eval/{name}" for name in EVALUATE_REPORTS),
            ),
        ]

    def check_model(self, path) -> list[str]:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        n = self.size.train_trees
        if doc.get("n_trees") != n or len(doc.get("trees", ())) != n:
            return [f"model holds {len(doc.get('trees', ()))} trees, expected {n}"]
        return []

    def check_reports(self, outcome) -> list[str]:
        missing = [n for n in EVALUATE_REPORTS if not Path("eval", n).is_file()]
        if missing:
            return [f"reports missing: {missing}"]
        folds = [cells[0] for cells in data_lines("eval/measures.tsv")]
        if folds != self.names:
            return [f"{len(folds)} LOOV folds in measures.tsv, expected {len(self.names)}"]
        if f"datasets\t{len(self.names)}" not in Path("eval/summary.txt").read_text(encoding="utf-8"):
            return ["summary.txt does not count every dataset"]
        return []


class Recommend(Workload):
    """A stream of fresh ARFF files ranked with the tree and knn:1 models in turn."""

    name = "recommend"

    def setup(self, runner):
        super().setup(runner)
        Path("models").mkdir(exist_ok=True)
        for learner in RECOMMEND_LEARNERS:
            slug = _slug(learner)
            runner.run(self.build_op(f"setup/build-metadb/{slug}", "setup", learner))
            runner.run(
                Op(
                    f"setup/train/{slug}",
                    "setup",
                    ["train", "--metadb", f"{slug}.metadb.tsv", "--trees",
                     str(self.size.train_trees), "--seed", self.cli_seed,
                     "--out", f"models/{slug}.model.json"],
                )
            )

    def requests(self, r: int):
        """(dataset, size class) in stream order; large ones spread evenly."""
        size = self.size
        per_corpus = math.ceil(len(synthetic.mini_corpus(0)) / size.corpus_step)
        n_corpora = math.ceil(size.small_requests / per_corpus)
        small_seeds = np.random.SeedSequence([self.seed, r]).generate_state(n_corpora)
        large_seeds = np.random.SeedSequence([LARGE_SEED, r]).generate_state(size.large_requests)
        small = [
            ds
            for s in small_seeds
            for ds in synthetic.mini_corpus(int(s))[:: size.corpus_step]
        ][: size.small_requests]
        stream = [(ds, "small") for ds in small]
        for j in range(size.large_requests):
            large = synthetic.random_dataset(
                int(large_seeds[j]),
                n_rows=size.large_rows,
                n_continuous=10,
                n_categorical=5,
                n_classes=3,
                missing_rate=0.03 if (j + r) % 2 == 0 else 0.0,
                name=f"large{j}",
            )
            at = (j + 1) * size.small_requests // (size.large_requests + 1) + j
            stream.insert(at, (large, "large"))
        return stream

    def round_ops(self, r):
        Path("requests").mkdir(exist_ok=True)
        ops = []
        for i, (ds, size_class) in enumerate(self.requests(r)):
            learner = RECOMMEND_LEARNERS[i % 2]
            path = f"requests/{i:03d}.arff"
            Path(path).write_text(dataset.serialize_arff(ds), encoding="utf-8")
            kind = classifiers.parse_classifier(learner)
            expected = len(ranker.prune(ranker.DEFAULT_RULES, kind, transforms.enumerate_applicable(ds)))
            ops.append(
                Op(
                    f"r{r}/recommend/{i:03d}",
                    f"recommend_{size_class}",
                    ["recommend", "--dataset", path, "--algorithm", learner,
                     "--model", f"models/{_slug(learner)}.model.json", "--seed", self.cli_seed],
                    lambda outcome, m=expected: check_ranking(outcome, m),
                    ("stdout",),
                )
            )
        return ops


def check_ranking(outcome: Outcome, expected: int) -> list[str]:
    problems = []
    if outcome.cv_runs != 1:
        problems.append(f"{outcome.cv_runs} cross-validation runs, expected exactly 1")
    lines = outcome.stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# preprank recommend") or not lines[1].startswith("rank\t"):
        return problems + ["output lacks its config and header lines"]
    rows = [line.split("\t") for line in lines[2:]]
    if [int(cells[0]) for cells in rows] != list(range(1, len(rows) + 1)):
        problems.append("ranks do not run 1..m")
    p_positive = [float(cells[2]) for cells in rows]
    if any(a < b for a, b in zip(p_positive, p_positive[1:])):
        problems.append("p_positive increases down the ranking")
    if len(rows) != expected:
        problems.append(f"{len(rows)} ranked, expected {expected} (pruned enumeration)")
    return problems


WORKLOADS = {w.name: w for w in (CorpusBuild, MetaLearn, Recommend)}


# --- one run -------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)


@contextmanager
def inside(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@contextmanager
def captured_logging():
    """Route preprank's log records (skip reasons) into each operation's stderr."""
    root = logging.getLogger()
    handler = _CurrentStderr()
    root.addHandler(handler)
    try:
        yield
    finally:
        root.removeHandler(handler)


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_round(workload: Workload, runner: Runner, r: int):
    ops = workload.round_ops(r)  # input generation stays outside the timed operations
    for op in ops:
        runner.run(op)
    return runner.take_round()


def _check_expected(workload: Workload, runner: Runner, hashes: dict) -> None:
    """The corpus on every seed, every output at the default seed."""
    if workload.size != FULL:
        return
    expected = json.loads(EXPECTED_HASHES.read_text(encoding="utf-8"))[workload.name]
    if workload.seed != DEFAULT_SEED:
        expected = {"corpus": expected["corpus"]}
    wrong = [
        ("HashMismatch", f"{name}: {hashes.get(name)} != {want}")
        for name, want in sorted(expected.items())
        if hashes.get(name) != want
    ]
    if wrong:
        runner.fail("r0/expected-hashes", wrong)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, size: Size = FULL,
        spans_path: Path | None = None) -> Result:
    """Set up, then measure rounds for ``seconds`` (at least ``workload.rounds``).

    With ``trace`` the run measures round 0 untraced and then traced on the
    same inputs, and reports per-layer metrics instead of end-to-end ones.
    """
    workload = WORKLOADS[name](seed, size)
    work.mkdir(parents=True, exist_ok=True)
    with speed.Sampler() as sampler, inside(work), captured_logging():
        runner = Runner(sampler)
        setups = []
        for _ in range(workload.setup_repeats):
            start = sampler.clock()
            workload.setup(runner)
            setups.append((start, sampler.clock()))
        runner.take_round()
        hashes = {"corpus": corpus_hash(Path("corpus"))}
        rounds = []
        start = time.perf_counter()
        r = 0
        while True:
            intervals, round_hashes = _run_round(workload, runner, 0 if trace else r)
            rounds.append(intervals)
            if r == 0:
                hashes.update(round_hashes)
                _check_expected(workload, runner, hashes)
            r += 1
            if trace or (r >= workload.rounds and time.perf_counter() - start >= seconds):
                break
        if trace:
            tracer = spans.Tracer(sampler.clock)
            runner.tracer = tracer
            with spans.installed(tracer, preprank):
                traced, traced_hashes = _run_round(workload, runner, 0)
            runner.tracer = None
            if traced_hashes != round_hashes:
                runner.fail("r0/traced", [("TraceChangedOutput", "traced outputs differ from untraced")])
    # the probes after the last operation are in, so every scale is final
    round_s = [runner.scaled(intervals) for intervals in rounds]
    setup_s = [sampler.scaled(*interval) for interval in setups]
    detail = _detail(runner, round_s, setup_s)
    if trace:
        if spans_path is not None:
            tracer.write(spans_path)
        values = spans.layer_metrics(
            tracer.spans, runner.scaled(traced) - round_s[0], sampler.scale
        )
        units = spans.layer_metric_units()
        metrics = {k: (v, units[k]) for k, v in values.items()}
    else:
        metrics = {
            "round_s": (_median(round_s), "s"),
            "setup_s": (_median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return Result(
        correct=not runner.failures,
        attempted=runner.attempted,
        failed=len(runner.failures),
        metrics=metrics,
        detail=detail,
        failures=runner.failures,
        hashes=hashes,
    )


def _detail(runner: Runner, round_s, setup_s) -> dict:
    """Per-operation-kind figures under the names the workloads document.

    ``value`` is seconds at reference speed, ``cpu`` and ``wall`` the raw
    medians; ``probes`` gives the sampler's count and median probe time.
    """
    sampler = runner.sampler
    detail: dict = {
        "rounds": len(round_s),
        "round_s": round_s,
        "setup_s": setup_s,
        "probes": {
            "count": len(sampler.probe_s),
            "median_s": _median(sampler.probe_s),
            "reference_s": speed.REFERENCE_PROBE_S,
        },
    }
    by_kind = defaultdict(list)
    for kind, start, end in runner.timed:
        by_kind[kind].append((start, end))
    for kind, intervals in sorted(by_kind.items()):
        if kind == "setup":
            continue
        times = [sampler.scaled(start, end) for start, end in intervals]
        detail[f"{kind}_p50_s" if kind.startswith("recommend") else f"{kind}_s"] = {
            "value": _median(times),
            "samples": len(times),
            "cpu": _median([end - start for start, end in intervals]),
            "wall": _median(runner.wall[kind]),
        }
        if kind == "recommend_small" and len(times) >= 100:
            detail["recommend_small_p90_s"] = {
                "value": statistics.quantiles(times, n=10)[8],
                "samples": len(times),
            }
    return detail
