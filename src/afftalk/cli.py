"""Command-line pipeline: simulate, train, infer, anticipate, describe, sweep.

Every command is deterministic given its config and seeds; all randomness is
routed through explicit seeds.  Evidence is written as ``Var=value`` pairs
using the schema's value labels.  Exit codes: 0 success, 2 usage, 3 a path
that cannot be read or written (a missing file among them), 4 invalid input
or model mismatch, 5 impossible evidence, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fusion, grammar as grammar_mod, hmm, serialize, world
from .bn import (
    BnError,
    Evidence,
    ImpossibleEvidenceError,
    JointTable,
    build_network,
    fit_parameters,
    greedy_structure_fit,
    query,
)
from .fusion import SoftActionEvidence
from .grammar import GrammarError
from .hmm import HmmError
from .schema import ACTION_VAR, default_schema, layered_candidates
from .serialize import SerializeError
from .world import WorldError

CONFIG_VERSION = 1
# An answer written with ``--out`` prints at most this many cells; the file has them all.
_PRINTED_CELLS = 1000

# Range of each numeric config field, and how an error states it.  The upper
# bounds keep one command's memory and time bounded before it starts.
_LIMITS = {
    "seed": (0, math.inf, "a nonnegative integer"),
    "trials": (1, 1_000_000, "a count of at least one trial and at most 1,000,000"),
    "trajectories_per_action": (0, math.inf, "a nonnegative integer"),
    "alpha": (0.0, math.inf, "a finite number >= 0"),
    "max_parents": (0, math.inf, "a nonnegative integer"),
    "states": (1, math.inf, "a count of at least one state"),
    "mixtures": (1, 100, "a count of at least one component and at most 100"),
    "train_per_action": (1, math.inf, "a count of at least one trajectory"),
    "keep": (1, 1_000, "a count of at least one sentence and at most 1,000"),
    "grid_points": (1, 100_000, "a count of at least one point and at most 100,000"),
    "noise_std": (0.0, math.inf, "a finite number >= 0"),
    "t_min": (1, math.inf, "a count of at least one frame"),
    "t_max": (1, 1_000, "a count of at least one frame and at most 1,000"),
}


@dataclass
class RunConfig:
    """Knobs shared by the subcommands; see README for the key reference."""

    version: int = CONFIG_VERSION
    seed: int = 1234
    trials: int = 10000
    trajectories_per_action: int = 50
    alpha: float = 1.0
    max_parents: int = 3
    states: int = 4
    mixtures: int = 2
    train_per_action: int = 50
    keep: int = 10
    grid_points: int = 100
    noise_std: float = 0.05
    t_min: int = 20
    t_max: int = 60

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The keys of a JSON object file; ``validate`` checks their values."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise BnError(f"{path}: not a JSON config file: {exc}") from None
        if not isinstance(raw, dict):
            raise BnError(f"{path}: the config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise BnError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**raw)

    def validate(self) -> None:
        """Check the type and range of every field."""
        if isinstance(self.version, bool) or self.version != CONFIG_VERSION:
            raise BnError(f"unsupported config version {self.version!r}")
        for name, (least, most, rule) in _LIMITS.items():
            value = getattr(self, name)
            kind = int if isinstance(least, int) else (int, float)
            typed = isinstance(value, kind) and not isinstance(value, bool)
            # the comparisons also turn away NaN and infinity
            if not (typed and least <= value <= most and value < math.inf):
                raise BnError(f"{name} must be {rule}, got {value!r}")
        if self.t_min > self.t_max:
            raise BnError(f"t_min {self.t_min} exceeds t_max {self.t_max}")


def _parse_evidence(schema, pairs) -> Evidence:
    labeled = {}
    for chunk in pairs or []:
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise BnError(f"evidence must look like Var=value, got {token!r}")
            name, label = (part.strip() for part in token.split("=", 1))
            if name in labeled:
                raise BnError(f"evidence names {name!r} twice")
            labeled[name] = label
    return Evidence.from_labels(schema, labeled)


def _parse_names(text: str) -> tuple[str, ...]:
    """The variables named in a comma-separated ``--infer`` list, at least one."""
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise BnError(f"--infer must name at least one variable, got {text!r}")
    return names


def _print_table(table: JointTable, out=None) -> None:
    # every combination of labels is a cell, so the widest cell's labels
    # are each variable's longest label
    width = len(" ".join(max(labels, key=len) for labels in table.labels))
    shown = _PRINTED_CELLS if out and table.probs.size > _PRINTED_CELLS else None
    for labels, p in itertools.islice(table.iter_cells(), shown):
        print(f"  {' '.join(labels):<{width}}  {p:.6f}")
    if shown:
        print(f"  ... {table.probs.size - shown} more cells in {out}")


def _load_soft(args) -> SoftActionEvidence | None:
    """The gesture's action posterior, labeled in the bank's order; fusion
    checks the labels against the network's."""
    if not args.traj and not args.bank:
        return None
    if not args.bank:
        raise BnError("--traj needs --bank to score the trajectory")
    if not args.traj:
        raise BnError("--bank needs --traj: the bank scores a trajectory")
    bank = serialize.load_gesture_bank(args.bank)
    return _score(hmm.action_posterior, bank, args.traj)


def _score(scorer, bank, path):
    """``scorer(bank, trajectory)`` on the trajectory file at ``path``; an
    ``HmmError`` from scoring it names the file."""
    traj = serialize.load_trajectory(path)
    try:
        return scorer(bank, traj)
    except HmmError as exc:
        raise HmmError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args, config: RunConfig) -> int:
    wc = world.WorldConfig(noise_std=config.noise_std, t_min=config.t_min, t_max=config.t_max)
    data, trajectories = world.generate_trials(
        wc,
        n=config.trials,
        seed=config.seed,
        trajectories_per_action=config.trajectories_per_action,
    )
    serialize.write_dataset(args.out, data, trajectories, wc.schema)
    print(f"wrote {len(data)} trials ({len(trajectories)} with trajectories) to {args.out}")
    return 0


def cmd_train_bn(args, config: RunConfig) -> int:
    schema = default_schema()
    data, _ = serialize.read_dataset(args.dataset, schema)
    candidates = layered_candidates(schema)
    parents = greedy_structure_fit(data, schema, config.max_parents, candidates)
    net = fit_parameters(build_network(schema, parents), data, alpha=config.alpha)
    serialize.save_bayesnet(args.out, net)
    n_edges = sum(len(p) for p in parents)
    print(f"trained network on {len(data)} rows: {n_edges} edges, alpha={config.alpha}")
    return 0


def _training_trajectories(dataset, per_action: int) -> dict[str, list]:
    """The first ``per_action`` trajectories of each action, in row order.

    The dataset's rows are dropped on return, before any model is trained.
    """
    schema = default_schema()
    data, traj_paths = serialize.read_dataset(dataset, schema)
    action_idx = schema.index(ACTION_VAR)
    labels = schema.variable(ACTION_VAR).labels
    by_action: dict[str, list] = {label: [] for label in labels}
    for row, path in sorted(traj_paths.items()):
        label = labels[data.rows[row, action_idx]]
        if len(by_action[label]) < per_action:
            by_action[label].append(serialize.load_trajectory(path))
    return by_action


def cmd_train_hmm(args, config: RunConfig) -> int:
    by_action = _training_trajectories(args.dataset, config.train_per_action)
    bank = hmm.train_bank(
        by_action, n_states=config.states, n_mix=config.mixtures, seed=config.seed
    )
    serialize.save_gesture_bank(args.out, bank)
    counts = ", ".join(f"{label}:{len(trajs)}" for label, trajs in by_action.items())
    print(f"trained gesture bank ({counts}) with seed {config.seed}")
    for model in bank.models:
        capped = " (capped: stopped before converging)" if model.capped else ""
        print(f"  {model.action_label}: {len(model.history)} EM iterations{capped}")
    return 0


def cmd_infer(args, config: RunConfig) -> int:
    infer_vars = _parse_names(args.infer)
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    soft = _load_soft(args)
    if soft is None:
        table = query(net, infer_vars, obs)
        print(f"P({', '.join(infer_vars)} | evidence):")
    else:
        result = fusion.fuse_query(net, soft, infer_vars, obs)
        table = result.table
        print(
            f"P({', '.join(infer_vars)} | evidence, gesture) "
            f"[consistency {result.consistency:.6f}]:"
        )
    _print_table(table, args.out)
    if args.out:
        serialize.write_table_csv(args.out, table)
        print(f"wrote {args.out}")
    return 0


def cmd_anticipate(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    bank = serialize.load_gesture_bank(args.bank)
    obs = _parse_evidence(net.schema, args.ev)
    curve = _score(hmm.prefix_curve, bank, args.traj)
    predictions = [
        fusion.fuse_query(
            net, SoftActionEvidence(posterior, curve.actions), (args.effect_var,), obs
        ).table
        for posterior in curve.posteriors
    ]
    serialize.write_anticipation_csv(args.out, curve, predictions)
    final = curve.posteriors[-1]
    best = curve.actions[int(final.argmax())]
    print(f"final action posterior: {best} ({final.max():.4f}); wrote {args.out}")
    return 0


def cmd_describe(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    soft = _load_soft(args)
    words = net.schema.word_variables()
    probs = fusion.word_probabilities(net, obs, words, soft)
    word_probs = dict(zip(words, probs.tolist()))
    result = grammar_mod.kbest(grammar_mod.default_grammar(), word_probs, config.keep)
    for rank, (sentence, score) in enumerate(result.entries, 1):
        print(f"{rank:2d}  {score: .5f}  {sentence.text}")
    if args.out:
        serialize.write_nbest_csv(args.out, result)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args, config: RunConfig) -> int:
    infer_vars = None if args.infer is None else _parse_names(args.infer)
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    arity = net.schema.variable(ACTION_VAR).arity
    grid = np.linspace(1.0 / arity, 1.0, config.grid_points)
    sweep = fusion.confidence_sweep(net, obs, args.target, grid, infer_vars=infer_vars)
    serialize.write_sweep_csv(args.out, sweep)
    print(f"swept {config.grid_points} confidence points for {args.target!r}; wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _flag(flag: str, field: str | None = None, **kwargs):
    """A flag; one with a ``field`` overrides that ``RunConfig`` field, typed like its default."""
    if field:
        kwargs.update(dest=field, type=type(getattr(RunConfig, field)))
    return flag, field, kwargs


# Each subcommand's help line and flags, in the order ``--help`` lists them.
# Command ``x-y`` runs ``cmd_x_y``, looked up when it runs, so that a wrapper
# bound to that name (perfbench's tracer binds one) is the one called.
COMMANDS = {
    "simulate": ("generate a synthetic dataset", [
        _flag("--out", required=True, help="dataset directory"),
        _flag("--trials", "trials"),
        _flag("--trajectories-per-action", "trajectories_per_action"),
        _flag("--seed", "seed")]),
    "train-bn": ("fit structure and parameters", [
        _flag("--dataset", required=True),
        _flag("--out", required=True, help="model file"),
        _flag("--alpha", "alpha"),
        _flag("--max-parents", "max_parents")]),
    "train-hmm": ("train the gesture bank", [
        _flag("--dataset", required=True),
        _flag("--out", required=True, help="bank file"),
        _flag("--states", "states"),
        _flag("--mixtures", "mixtures"),
        _flag("--per-action", "train_per_action"),
        _flag("--seed", "seed")]),
    "infer": ("conditional distribution over variables", [
        _flag("--bn", required=True),
        _flag("--infer", required=True, help="comma-separated variable names"),
        _flag("--ev", action="append", help="Var=value (repeatable)"),
        _flag("--bank", help="gesture bank for soft evidence"),
        _flag("--traj", help="trajectory CSV for soft evidence"),
        _flag("--out", help="CSV output path")]),
    "anticipate": ("per-prefix recognition and effect prediction", [
        _flag("--bn", required=True),
        _flag("--bank", required=True),
        _flag("--traj", required=True),
        _flag("--ev", action="append"),
        _flag("--effect-var", default="ObjVel"),
        _flag("--out", required=True)]),
    "describe": ("ranked verbal descriptions", [
        _flag("--bn", required=True),
        _flag("--ev", action="append"),
        _flag("--bank"),
        _flag("--traj"),
        _flag("--k", "keep", help="list size to keep"),
        _flag("--seed", "seed", help="accepted; the ranking is exact and uses no seed"),
        _flag("--out", help="CSV output path")]),
    "sweep": ("posterior versus recognizer confidence", [
        _flag("--bn", required=True),
        _flag("--target", required=True, help="action value to ramp"),
        _flag("--ev", action="append"),
        _flag("--points", "grid_points"),
        _flag("--infer", help="comma-separated variables (default: the action)"),
        _flag("--out", required=True)]),
}


_EXIT_CODES = (
    (ImpossibleEvidenceError, 5),
    # a missing file, a directory where a file should be or a file where a
    # directory should be, an over-long name, a symlink loop, a denied access
    (OSError, 3),
    ((BnError, HmmError, GrammarError, WorldError, SerializeError), 4),
)


def _run_config(args) -> RunConfig:
    """The config file (or the defaults) overridden by the command's config flags.

    It is validated here, once, before any command starts its work.
    """
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    _, flags = COMMANDS[args.command]
    given = {f: getattr(args, f) for _, f, _ in flags if f and getattr(args, f) is not None}
    config = replace(config, **given)
    config.validate()
    return config


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, each with its flags; built once per
    process, since parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="afftalk",
        description="Affordance/word network with gesture fusion and verbal descriptions.",
    )
    parser.add_argument("--config", help="JSON config file (see README for keys)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, _, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, _run_config(args))
    except Exception as exc:  # noqa: BLE001 - single funnel for exit codes
        code = next((c for types, c in _EXIT_CODES if isinstance(exc, types)), 1)
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
