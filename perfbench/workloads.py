"""The three workloads, their seeded inputs and their output checks.

Every measured request goes through ``afftalk.cli.main`` in this process, one
at a time: a closed loop with one client and no thread pool.  A run repeats
whole passes over the workload's request list until ``seconds`` have passed,
at least two, so every run sees the same mix.

* ``train``: simulate -> train-bn -> train-hmm at the default config (10k
  trials, 50 trajectories per action).  The offline, write-heavy path;
  kernels do most of their work here and ``bn.query`` is never called.
* ``recognize``: one ``anticipate`` request per held-out gesture.  The
  real-time path: ``hmm.prefix_curve`` plus one fused query per frame, and
  the same query pattern on every frame.
* ``explore``: a seeded mix of interactive requests, mostly ``infer`` with
  and without a gesture, plus ``describe`` and ``sweep`` as the heavy tail.
  The query patterns vary, so a cache keyed on the pattern gets few hits.

The models that ``recognize`` and ``explore`` serve are trained by the code
under test, with the workload seed's EM initialisation, through the same
CLI pipeline before the measured phase, in a child process (see
``train_models.py``) so that the serving process's peak RSS leaves
training out.  No committed model file is ever loaded.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import benchstats
import tracing

WORKLOADS = ("train", "recognize", "explore")
WORK_DIR = ".perfbench_work"
MAX_SEED = 99_999
DATASET_SEED = 1234  # the CLI's default config seed

ACTIONS = ("grasp", "tap", "touch")
AFFORDANCES = ("Action", "Color", "Size", "Shape", "ObjVel", "HandVel", "ObjHandVel", "Contact")
FEATURES = ("Color", "Size", "Shape")
EFFECTS = ("ObjVel", "HandVel", "ObjHandVel", "Contact")

SETUP_REPEATS = 7
# Passes per timed run, at least: two give every request a best-of-two
# latency and, on train, the byte-identical rerun.
MIN_PASSES = 2
# Held-out gestures: one per action and length, so every run sees the same
# spread of lengths and its latency percentiles compare across seeds; 21
# gestures leave ten samples beyond the median.
POOL_LENGTHS = (20, 27, 33, 40, 47, 53, 60)
# The explore mix, 100 requests, enough for a 90th percentile with ten
# samples beyond it.  The shares are round numbers read from the workload's
# description, not from recorded use, which does not exist: most requests
# are infer, split as evenly as 85 allows between requests without and with
# a gesture, and a heavy minority of 15 is split evenly between describe,
# describe with a gesture and sweep.
# The heavy share is held at 15 because each heavy request costs about 40
# infers, and a run's passes must fit the benchmark's time budget.
EXPLORE_MIX = (("infer", 43), ("infer_traj", 42), ("describe", 5), ("describe_traj", 5), ("sweep", 5))
ORACLE_SAMPLES = 10
SUM_TOL = 1e-9
ORACLE_TOL = 1e-9
TRAIN_TIMEOUT_S = 120  # training the served models takes about 20 s
# Speed calibration.  Other tenants of the shared host slow everything in
# this process by up to 1.6 times, in spells from seconds to minutes, so raw
# times move between two sets of runs by more than any bound allows.  The
# times of each phase (the cold starts; the timed passes together) are
# therefore scaled to a reference speed by a fixed Python-and-numpy kernel,
# which does not use afftalk, timed after every operation of the phase: at
# least CAL_MIN_SAMPLES times and for at least CAL_SHARE of the operation's
# time, so the samples spread over the phase in proportion to time.  Their
# median resists the odd sample that stalls.  One factor covers all the
# passes, and brief slowdowns are left to the best-of-passes latencies: a
# factor per pass, with the lowest scaled time kept, would favour the passes
# whose kernel happened to run slow.
CAL_MIN_SAMPLES = 2
CAL_SHARE = 0.02
# The kernel's typical time on the 2.1 GHz Xeon KVM guest the benchmark was
# tuned on, at its quieter times, so scaled times read as seconds there.
CAL_REFERENCE_S = 0.0037


class WorkloadError(RuntimeError):
    """The workload could not produce its inputs, so nothing can be measured."""


def fold_seed(seed: int) -> int:
    """Any integer seed, folded into 0..MAX_SEED, where ``derived_seeds``
    keeps held-out and training seeds apart."""
    return seed % (MAX_SEED + 1)


def derived_seeds(seed: int) -> dict[str, int]:
    """Seeds handed to the program; training and held-out ranges never meet.

    The training data is the default-config dataset for every workload seed:
    EM's iteration count depends on the data (from about 140 to 300 over the
    datasets of ten seeds) and would swamp every other change in training
    time.  The workload seed drives the EM initialisation, which leaves the
    iteration count alone, the held-out gestures and the request mix.
    """
    return {
        "dataset": DATASET_SEED,  # simulate uses 1234 .. 11233
        "hmm": seed,
        "heldout": 1_000_000_000 + 1_000 * seed,
    }


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``{out}`` in an argument is the pass's output directory."""

    kind: str
    args: tuple[str, ...]
    frames: int = 0

    def argv(self, outdir: Path) -> list[str]:
        return [a.replace("{out}", str(outdir)) for a in self.args]

    def option(self, flag: str) -> str:
        return dict(zip(self.args[1::2], self.args[2::2]))[flag]


@dataclass(frozen=True)
class Gesture:
    action: str
    path: str
    frames: int
    ev: str


def _calibration_kernel():
    total = 0
    for i in range(50_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 3600).reshape(60, 60)
    for _ in range(10):
        a = np.tanh(a @ a.T / 60)
    return total, a


def sample_speed(elapsed: float, samples: list[float]) -> None:
    """Time the calibration kernel after an operation that took ``elapsed``."""
    first = len(samples)
    while len(samples) - first < CAL_MIN_SAMPLES or math.fsum(samples[first:]) < CAL_SHARE * elapsed:
        start = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - start)


def speed_factor(samples: list[float], factors: list[float]) -> float:
    """Reference seconds per measured second over one phase's samples.

    The factor is also appended to ``factors`` for the run's notes.
    """
    factors.append(CAL_REFERENCE_S / statistics.median(samples))
    return factors[-1]


class Ledger:
    """Attempted operations and failures, both checks and nonzero exits, and
    the speed calibration's scale factors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.factors: list[float] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.check(ok, what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up: cold start of the package plus the workload's inputs

def cold_start() -> SimpleNamespace:
    """Import afftalk afresh and build the default world (parses the grammar)."""
    for name in [n for n in sys.modules if n == "afftalk" or n.startswith("afftalk.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"afftalk.{m}") for m in ("cli", "world", "serialize", "bn", "hmm")}
    )
    lib.config = lib.world.default_config()
    return lib


def pipeline_requests(seed: int) -> list[Request]:
    seeds = derived_seeds(seed)
    return [
        Request("simulate", ("simulate", "--out", "{out}/dataset", "--seed", str(seeds["dataset"]))),
        Request("train-bn", ("train-bn", "--dataset", "{out}/dataset", "--out", "{out}/models/bn.txt")),
        Request(
            "train-hmm",
            ("train-hmm", "--dataset", "{out}/dataset", "--out", "{out}/models/hmm.txt",
             "--seed", str(seeds["hmm"])),
        ),
    ]


def _assign(lib, rng, names) -> str:
    """``Var=label`` pairs in schema order, each label drawn from ``rng``."""
    schema = lib.config.schema
    pairs = []
    for name in sorted(names, key=schema.index):
        labels = schema.variable(name).labels
        pairs.append(f"{name}={labels[rng.integers(len(labels))]}")
    return ",".join(pairs)


def make_pool(lib, seed: int, directory: Path) -> list[Gesture]:
    """Held-out gestures with a known action and seeded object features.

    The robot sees the object, so every gesture observes all three features
    and every frame of every request has the same query pattern.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((seed, 1))
    heldout = derived_seeds(seed)["heldout"]
    pool = []
    for action in ACTIONS:
        for length in POOL_LENGTHS:
            config = replace(lib.config, t_min=length, t_max=length)
            path = directory / f"g{len(pool):02d}.csv"
            traj = lib.world.sample_trajectory(action, config, seed=heldout + len(pool))
            lib.serialize.save_trajectory(path, traj)
            pool.append(Gesture(action, str(path), length, _assign(lib, rng, FEATURES)))
    return [pool[i] for i in rng.permutation(len(pool))]


def recognition_requests(pool: list[Gesture], models: Path) -> list[Request]:
    return [
        Request(
            "anticipate",
            ("anticipate", "--bn", str(models / "bn.txt"), "--bank", str(models / "hmm.txt"),
             "--traj", g.path, "--ev", g.ev, "--out", f"{{out}}/g{i:02d}.csv"),
            g.frames,
        )
        for i, g in enumerate(pool)
    ]


def explore_requests(lib, seed: int, pool: list[Gesture], models: Path) -> list[Request]:
    rng = np.random.default_rng((seed, 2))
    words = lib.config.schema.word_variables()

    def draw(n: int, exclude) -> list[str]:
        chosen: list[str] = []
        while len(chosen) < n:
            group = AFFORDANCES if rng.random() < 0.5 else words
            name = group[rng.integers(len(group))]
            if name not in chosen and name not in exclude:
                chosen.append(name)
        return chosen

    bn = str(models / "bn.txt")
    requests = []
    kinds = [str(k) for k in rng.permutation([k for k, n in EXPLORE_MIX for _ in range(n)])]
    order = rng.permutation(len(pool))
    with_gesture = 0
    for i, kind in enumerate(kinds):
        out = ("--out", f"{{out}}/r{i:03d}.csv")
        gesture = None
        if kind.endswith("_traj"):
            gesture = pool[order[with_gesture % len(pool)]]
            with_gesture += 1
        soft = ("--bank", str(models / "hmm.txt"), "--traj", gesture.path) if gesture else ()
        frames = gesture.frames if gesture else 0
        hidden = ("Action",) if gesture else ()
        if kind.startswith("infer"):
            infer = draw(int(rng.integers(1, 3)), ())
            ev = _assign(lib, rng, draw(int(rng.integers(1, 4)), infer + list(hidden)))
            args = ("infer", "--bn", bn, "--infer", ",".join(infer), "--ev", ev) + soft + out
        elif kind.startswith("describe"):
            names = [a for a in AFFORDANCES if a not in hidden]
            ev = _assign(lib, rng, rng.choice(names, size=int(rng.integers(1, 3)), replace=False))
            args = ("describe", "--bn", bn, "--ev", ev, "--seed", str(rng.integers(1_000_000)))
            args += soft + out
        else:
            names = list(rng.choice(FEATURES + EFFECTS, size=int(rng.integers(1, 4)), replace=False))
            args = ("sweep", "--bn", bn, "--target", ACTIONS[rng.integers(3)],
                    "--ev", _assign(lib, rng, names))
            free = [e for e in EFFECTS if e not in names]
            if rng.random() < 0.5:
                args += ("--infer", free[rng.integers(len(free))])
            args += out
        requests.append(Request(kind, args, frames))
    return requests


def oracle_sample(seed: int, requests: list[Request]) -> list[int]:
    """Seeded choice of plain ``infer`` requests to check against enumeration."""
    plain = [i for i, r in enumerate(requests) if r.kind == "infer"]
    rng = np.random.default_rng((seed, 3))
    return sorted(int(i) for i in rng.choice(plain, size=min(ORACLE_SAMPLES, len(plain)), replace=False))


def served_models(work: Path) -> Path:
    """Where ``train_models.py`` leaves the models that a run serves."""
    return work / "serving" / "pass0" / "models"


def make_inputs(lib, workload: str, seed: int, work: Path):
    pool = make_pool(lib, seed, work / "inputs")
    if workload == "train":
        requests = pipeline_requests(seed)
    elif workload == "recognize":
        requests = recognition_requests(pool, served_models(work))
    else:
        requests = explore_requests(lib, seed, pool, served_models(work))
    return pool, requests


# ---------------------------------------------------------------------------
# measured passes

def call(lib, argv: list[str]) -> tuple[int, float, str]:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request
            code = exc.code
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def run_pass(lib, requests: list[Request], outdir: Path, ledger: Ledger, samples: list[float]) -> list[float]:
    """One pass over ``requests``; measured latencies, with calibration
    samples appended to ``samples``."""
    outdir.mkdir(parents=True, exist_ok=True)
    latencies: list[float] = []
    for request in requests:
        gc.collect()  # start like a fresh CLI process: no garbage from the last request
        code, elapsed, text = call(lib, request.argv(outdir))
        latencies.append(elapsed)
        sample_speed(elapsed, samples)
        ledger.op(code == 0, f"{request.kind} exited {code}: {text.strip()[-300:]}")
    return latencies


def tree_mismatches(a: Path, b: Path) -> list[str]:
    """Files that differ between two output trees (byte comparison)."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return ["<file lists differ>"]
    return [str(r) for r in files_a if not filecmp.cmp(a / r, b / r, shallow=False)]


# ---------------------------------------------------------------------------
# output checks

def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        header, *body = list(csv.reader(fh))
    return header, body


def table_problem(kind: str, path) -> str | None:
    """Why an output table is wrong, or None; probability tables must sum to 1."""
    try:
        header, body = _read_csv(path)
        if not body:
            return "no rows"
        if kind.startswith("infer"):
            sums = [math.fsum(float(r[-1]) for r in body)]
        elif kind == "anticipate":
            post = [j for j, h in enumerate(header) if h.startswith("post_")]
            effect = [j for j, h in enumerate(header) if "=" in h]
            sums = [math.fsum(float(r[j]) for j in cols) for r in body for cols in (post, effect)]
        elif kind == "sweep":
            sums = [math.fsum(float(v) for v in r[1:]) for r in body]
        else:  # describe: a ranked list, not a distribution
            scores = [float(r[1]) for r in body]
            return None if scores == sorted(scores, reverse=True) else "scores out of rank order"
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable ({exc})"
    worst = max(abs(s - 1.0) for s in sums)
    return None if worst <= SUM_TOL else f"sums to 1 only within {worst:.3g}"


def oracle_problem(lib, request: Request, outdir: Path) -> str | None:
    """Compare an ``infer`` answer with full enumeration on the pruned network."""
    try:
        net = lib.serialize.load_bayesnet(request.option("--bn"))
        infer = tuple(request.option("--infer").split(","))
        labeled = dict(pair.split("=", 1) for pair in request.option("--ev").split(","))
        pruned = lib.bn.prune_barren(net, infer + tuple(labeled))
        obs = lib.bn.Evidence.from_labels(pruned.schema, labeled)
        expected = dict(lib.bn.joint_enumerate(pruned, infer, obs).iter_cells())
        _, body = _read_csv(request.option("--out").replace("{out}", str(outdir)))
        got = {tuple(r[:-1]): float(r[-1]) for r in body}
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"oracle check failed ({exc})"
    if got.keys() != expected.keys():
        return "cells differ from enumeration"
    worst = max(abs(got[k] - expected[k]) for k in expected)
    return None if worst <= ORACLE_TOL else f"differs from enumeration by {worst:.3g}"


def check_outputs(lib, workload: str, seed: int, requests: list[Request], outdir: Path, ledger: Ledger) -> None:
    """Table checks on every served request; the enumeration oracle on explore."""
    if workload == "train":
        return  # trained files are checked by comparing passes byte for byte
    for request in requests:
        path = request.option("--out").replace("{out}", str(outdir))
        problem = table_problem(request.kind, path)
        ledger.check(problem is None, f"{request.kind} {path}: {problem}")
    if workload == "explore":
        for i in oracle_sample(seed, requests):
            problem = oracle_problem(lib, requests[i], outdir)
            ledger.check(problem is None, f"infer request {i}: {problem}")


def recognition_accuracy(pool: list[Gesture], outdir: Path) -> float:
    """Share of gestures whose posterior argmax at the half-way frame is right."""
    correct = 0
    for i, gesture in enumerate(pool):
        try:
            header, body = _read_csv(outdir / f"g{i:02d}.csv")
            row = body[math.ceil(gesture.frames / 2) - 1]
            post = [j for j, h in enumerate(header) if h.startswith("post_")]
            best = max(post, key=lambda j: float(row[j]))
        except (OSError, ValueError, IndexError):
            continue
        correct += header[best] == f"post_{gesture.action}"
    return correct / len(pool)


def bank_accuracy(lib, pool: list[Gesture], models: Path, ledger: Ledger) -> float:
    """The same share, computed from the trained bank directly and untimed."""
    try:
        bank = lib.serialize.load_gesture_bank(models / "hmm.txt")
        correct = 0
        for gesture in pool:
            curve = lib.hmm.prefix_curve(bank, lib.serialize.load_trajectory(gesture.path))
            _, posterior = curve.at(math.ceil(gesture.frames / 2))
            correct += curve.actions[int(np.argmax(posterior))] == gesture.action
    except (OSError, ValueError) as exc:
        ledger.check(False, f"recognition check: {exc}")
        return 0.0
    return correct / len(pool)


def dataset_frames(dataset: Path) -> int:
    """Trajectory frames in a simulated dataset (header lines excluded)."""
    total = 0
    for path in (dataset / "traj").glob("*.csv"):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh) - 1
    return total


# ---------------------------------------------------------------------------
# one benchmark run

def _end_to_end(latencies, frames, setup_s, pipeline_s, accuracy):
    """End-to-end metrics of a timed run; every time is in reference seconds.

    ``latencies`` holds each request's best latency over the passes and
    ``frames`` the trajectory frames one pass consumes, so the rates are per
    second of request time.  ``setup_s`` is the median cold start;
    ``pipeline_s`` is simulate -> train-bn -> train-hmm, the sum of each
    stage's best latency over at least two passes (in ``train_models.py`` on
    the serving workloads).  ``peak_rss_mb`` is this process's peak: training
    on train, set-up and serving elsewhere.

    Both percentiles are reported on every workload, whatever the sample
    size.  Where fewer than ten samples lie beyond one (the run's notes say
    which), the sample is a fixed design, the same kinds of request in every
    run, so the figure compares across runs as an interpolation between two
    fixed requests' latencies rather than as an estimate of a tail.
    """
    busy = math.fsum(latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (pipeline_s, "s"),
        "frames_per_s": (frames / busy, "frames/s"),
        "recognition_acc": (accuracy, "ratio"),
        "requests_per_s": (len(latencies) / busy, "requests/s"),
        "latency_p50_ms": (benchstats.percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (benchstats.percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def timed_passes(lib, requests, work, seconds, ledger) -> list[float]:
    """Whole passes for ``seconds``, at least two; each request's best
    latency in reference seconds.

    The best of the passes is kept because other tenants of a shared machine
    only ever slow a pass down; one speed factor over all the passes scales
    it.  Every pass must write the same bytes as the first, which stays in
    ``work / "pass0"``.
    """
    latencies = [math.inf] * len(requests)
    samples: list[float] = []
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        outdir = work / f"pass{passes}"
        timed = run_pass(lib, requests, outdir, ledger, samples)
        latencies = [min(best, t) for best, t in zip(latencies, timed)]
        if passes:
            mismatched = tree_mismatches(work / "pass0", outdir)
            ledger.check(not mismatched, f"pass {passes} outputs differ from pass 0: {mismatched[:3]}")
            shutil.rmtree(outdir)
        passes += 1
    factor = speed_factor(samples, ledger.factors)
    return [t * factor for t in latencies]


def train_served_models(seed: int, work: Path, ledger: Ledger) -> float:
    """Train the models a serving workload loads in a child process.

    Returns the pipeline's time; the models land in ``served_models(work)``.
    Nothing can be measured without them, so any failure ends the run.
    """
    script = Path(__file__).with_name("train_models.py")
    try:
        proc = subprocess.run(
            [sys.executable, str(script), "--seed", str(seed), "--work", str(work / "serving")],
            stdout=subprocess.PIPE, text=True, timeout=TRAIN_TIMEOUT_S, check=False,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        raise WorkloadError(f"training the served models failed ({exc})") from exc
    if proc.returncode != 0 or result["failed"]:
        raise WorkloadError(f"training the served models failed (exit {proc.returncode}, {result})")
    ledger.attempted += result["attempted"]
    return result["pipeline_s"]


def _traced_metrics(lib, workload, pool, requests, work, ledger):
    """An untraced and a traced pass over the same inputs; per-layer metrics."""
    samples: list[float] = []
    before = math.fsum(run_pass(lib, requests, work / "pass0", ledger, samples))
    before *= speed_factor(samples, ledger.factors)
    samples = []
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        after = math.fsum(run_pass(lib, requests, work / "pass1", ledger, samples))
    after *= speed_factor(samples, ledger.factors)
    mismatched = tree_mismatches(work / "pass0", work / "pass1")
    ledger.check(not mismatched, f"traced outputs differ from untraced: {mismatched[:3]}")
    metrics = tracing.layer_metrics(tracer, 100.0 * (after / before - 1.0))
    calls = {name: value for name, (value, _) in metrics.items() if name.endswith(".calls")}
    if workload == "train":
        ledger.check(calls["bn.query.calls"] == 0, "traced train pass called bn.query")
        ledger.check(calls["kernels.log_forward.calls"] > 0, "traced train pass ran no forward pass")
    elif workload == "recognize":
        frames = sum(g.frames for g in pool)
        ledger.check(
            calls["fusion.fuse_query.calls"] == frames,
            f"fuse_query ran {calls['fusion.fuse_query.calls']} times for {frames} frames",
        )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path):
    """One benchmark run: the result object and notes for the reader."""
    work = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    notes = []
    try:
        setups: list[float] = []
        samples: list[float] = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous cold start's modules, outside the timing
            start = time.perf_counter()
            lib = cold_start()
            pool, requests = make_inputs(lib, workload, seed, work)
            setups.append(time.perf_counter() - start)
            sample_speed(setups[-1], samples)
        setup_s = statistics.median(setups) * speed_factor(samples, ledger.factors)
        if workload != "train":
            pipeline_s = train_served_models(seed, work, ledger)

        if trace:
            metrics = _traced_metrics(lib, workload, pool, requests, work, ledger)
            check_outputs(lib, workload, seed, requests, work / "pass0", ledger)
        else:
            latencies = timed_passes(lib, requests, work, seconds, ledger)
            check_outputs(lib, workload, seed, requests, work / "pass0", ledger)
            if workload == "train":
                pipeline_s = math.fsum(latencies)
                frames = dataset_frames(work / "pass0" / "dataset")
            else:
                frames = sum(r.frames for r in requests)
            if workload == "recognize":
                accuracy = recognition_accuracy(pool, work / "pass0")
            else:
                models = work / "pass0" / "models" if workload == "train" else served_models(work)
                accuracy = bank_accuracy(lib, pool, models, ledger)
            metrics = _end_to_end(latencies, frames, setup_s, pipeline_s, accuracy)
            tail = benchstats.tail_percentile(len(latencies))
            notes = [
                f"latency sample n={len(latencies)}; highest percentile with at least "
                f"{benchstats.MIN_BEYOND} samples beyond it: {'none' if tail is None else f'p{tail:g}'}",
                f"times scaled to a {CAL_REFERENCE_S * 1e3:g} ms calibration reference by factors "
                f"{min(ledger.factors):.3f} to {max(ledger.factors):.3f} over {len(ledger.factors)} phases",
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, notes
