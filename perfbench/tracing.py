"""Timing wrappers around the public functions of each afftalk layer.

The wrappers live here, not in the package: ``installed`` swaps them into
every loaded ``afftalk`` module that binds the original function, because
``cli`` and ``fusion`` import ``query`` by name and patching ``bn.query``
alone would miss their calls.  Spans are kept in memory as
``(name, start, end, parent)`` tuples and reduced to per-layer metrics when
the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# Traced functions per layer.  The metric stem of a function is
# ``<layer>.<function>``; for ``cli`` it is ``cli.<subcommand>``.
LAYERS = {
    "kernels": ("log_forward", "log_backward", "gmm_obs_logprob", "transition_xi_sum"),
    "hmm": ("train_hmm", "prefix_curve", "action_posterior"),
    "bn": ("query", "greedy_structure_fit", "family_bic", "fit_parameters"),
    "fusion": ("fuse_query", "confidence_sweep"),
    "grammar": ("generate_sentences", "nbest"),
    "world": ("generate_trials", "sample_trial"),
    "serialize": (
        "write_dataset",
        "read_dataset",
        "load_trajectory",
        "load_bayesnet",
        "load_gesture_bank",
        "save_bayesnet",
        "save_gesture_bank",
    ),
    "cli": (
        "cmd_simulate",
        "cmd_train_bn",
        "cmd_train_hmm",
        "cmd_infer",
        "cmd_anticipate",
        "cmd_describe",
        "cmd_sweep",
    ),
}

# Stems reported as a call count only, and the cli stems, which report only
# their self time (argument parsing and CSV formatting).
COUNT_ONLY = {"bn.family_bic", "world.sample_trial"}

# Argument that carries the T frames of each kernel call.
_KERNEL_FRAMES_ARG = {
    "gmm_obs_logprob": 0,
    "log_forward": 1,
    "log_backward": 1,
    "transition_xi_sum": 1,
}

EXTRA_COUNTS = ("kernels.frames", "hmm.em_iterations", "hmm.em_capped")
OVERHEAD = "trace.overhead_pct"


def stem(layer: str, function: str) -> str:
    if layer == "cli":
        return "cli." + function.removeprefix("cmd_").replace("_", "-")
    return f"{layer}.{function}"


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for layer, functions in LAYERS.items():
        for function in functions:
            s = stem(layer, function)
            if layer == "cli":
                names.append(s + ".self_s")
            elif s in COUNT_ONLY:
                names.append(s + ".calls")
            else:
                names += [s + ".calls", s + ".busy_s", s + ".self_s"]
    names += list(EXTRA_COUNTS)
    names += [f"{layer}.failed" for layer in LAYERS]
    names.append(OVERHEAD)
    return names


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so parents precede children
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.failed"] += 1
                raise
            finally:
                self.spans[index] = (name, start, self.clock(), parent)
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced


def _kernel_frames(arg: int):
    def after(counts, args, result):
        counts["kernels.frames"] += len(args[arg])

    return after


def _em_history(counts, args, model):
    cap = sys.modules["afftalk.hmm"].MAX_EM_ITERATIONS
    counts["hmm.em_iterations"] += len(model.history)
    counts["hmm.em_capped"] += len(model.history) >= cap


def _hook(layer: str, function: str):
    if layer == "kernels":
        return _kernel_frames(_KERNEL_FRAMES_ARG[function])
    if (layer, function) == ("hmm", "train_hmm"):
        return _em_history
    return None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer`` while the block runs."""
    package = [
        m for name, m in list(sys.modules.items())
        if name == "afftalk" or name.startswith("afftalk.")
    ]
    patched = []
    try:
        for layer, functions in LAYERS.items():
            home = sys.modules[f"afftalk.{layer}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = tracer.wrap(stem(layer, function), original, _hook(layer, function))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict[str, list]:
    """``{name: [calls, busy_s, self_s]}``; self time excludes direct children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - _covered(children[index], start, end)
    return dict(stats)


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``, zero where nothing ran."""
    stats = span_stats(tracer.spans)
    out = {}
    for name in metric_names():
        if name == OVERHEAD:
            out[name] = (overhead_pct, "%")
            continue
        s, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = (stats.get(s, [0])[0], "count")
        elif kind == "busy_s":
            out[name] = (stats.get(s, [0, 0.0])[1], "s")
        elif kind == "self_s":
            out[name] = (stats.get(s, [0, 0.0, 0.0])[2], "s")
        else:
            out[name] = (tracer.counts[name], "count")
    return out
