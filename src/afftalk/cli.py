"""Command-line pipeline: simulate, train, infer, anticipate, describe, sweep.

Every command is deterministic given its config and seeds; all randomness is
routed through explicit seeds.  Evidence is written as ``Var=value`` pairs
using the schema's value labels.  Exit codes: 0 success, 2 usage, 3 missing
file, 4 invalid input or model mismatch, 5 impossible evidence, 1 anything
else.
"""

from __future__ import annotations

import argparse
import csv
import json
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
from .fusion import QuerySpec, SoftActionEvidence
from .grammar import GrammarError
from .hmm import HmmError
from .schema import ACTION_VAR, default_schema, layered_candidates
from .serialize import SerializeError
from .world import WorldError

CONFIG_VERSION = 1


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
    n_candidates: int = 10000
    keep: int = 10
    grid_points: int = 100
    noise_std: float = 0.05
    t_min: int = 20
    t_max: int = 60

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise BnError(f"unknown config keys: {', '.join(sorted(unknown))}")
        config = cls(**raw)
        if config.version != CONFIG_VERSION:
            raise BnError(f"unsupported config version {config.version}")
        if config.seed < 0:
            raise BnError("seed must be a nonnegative integer")
        return config


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_evidence(schema, pairs) -> Evidence:
    labeled = {}
    for chunk in pairs or []:
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise BnError(f"evidence must look like Var=value, got {token!r}")
            name, label = token.split("=", 1)
            labeled[name.strip()] = label.strip()
    return Evidence.from_labels(schema, labeled)


def _write_table_csv(path, table: JointTable) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.variables) + ["p"])
        for labels, p in table.iter_cells():
            writer.writerow(list(labels) + [_fmt(p)])


def _print_table(table: JointTable) -> None:
    width = max(len(" ".join(labels)) for labels, _ in table.iter_cells())
    for labels, p in table.iter_cells():
        print(f"  {' '.join(labels):<{width}}  {p:.6f}")


def _world_config(config: RunConfig) -> world.WorldConfig:
    base = world.default_config()
    return replace(
        base,
        noise_std=config.noise_std,
        t_min=config.t_min,
        t_max=config.t_max,
    )


def _load_bank(path, schema) -> hmm.GestureBank:
    """The gesture bank at ``path``, whose actions must be the schema's."""
    bank = serialize.load_gesture_bank(path)
    actions = schema.variable(ACTION_VAR).labels
    if bank.actions != actions:
        raise BnError(
            f"bank actions {bank.actions} do not match the schema {actions}"
        )
    return bank


def _load_soft(args, schema) -> SoftActionEvidence | None:
    if not getattr(args, "traj", None):
        return None
    if not getattr(args, "bank", None):
        raise BnError("--traj needs --bank to score the trajectory")
    bank = _load_bank(args.bank, schema)
    traj = serialize.load_trajectory(args.traj)
    return hmm.action_posterior(bank, traj)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args, config: RunConfig) -> int:
    wc = _world_config(config)
    trials = world.generate_trials(
        wc,
        n=args.trials if args.trials is not None else config.trials,
        seed=args.seed if args.seed is not None else config.seed,
        trajectories_per_action=(
            args.trajectories_per_action
            if args.trajectories_per_action is not None
            else config.trajectories_per_action
        ),
    )
    seed = args.seed if args.seed is not None else config.seed
    serialize.write_dataset(
        args.out, trials, wc.schema, provenance=f"synthetic world seed={seed}"
    )
    n_traj = sum(1 for t in trials if t.trajectory is not None)
    print(f"wrote {len(trials)} trials ({n_traj} with trajectories) to {args.out}")
    return 0


def cmd_train_bn(args, config: RunConfig) -> int:
    schema = default_schema()
    data, _ = serialize.read_dataset(args.dataset, schema)
    candidates = layered_candidates(schema)
    max_parents = args.max_parents if args.max_parents is not None else config.max_parents
    alpha = args.alpha if args.alpha is not None else config.alpha
    parents = greedy_structure_fit(data, schema, max_parents, candidates)
    net = fit_parameters(build_network(schema, parents), data, alpha=alpha)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    serialize.save_bayesnet(args.out, net)
    n_edges = sum(len(p) for p in parents)
    print(f"trained network on {len(data)} rows: {n_edges} edges, alpha={alpha}")
    return 0


def cmd_train_hmm(args, config: RunConfig) -> int:
    schema = default_schema()
    data, traj_paths = serialize.read_dataset(args.dataset, schema)
    action_idx = schema.index(ACTION_VAR)
    labels = schema.variable(ACTION_VAR).labels
    per_action = args.per_action if args.per_action is not None else config.train_per_action
    by_action: dict[str, list] = {label: [] for label in labels}
    for row, path in sorted(traj_paths.items()):
        label = labels[data.rows[row, action_idx]]
        if len(by_action[label]) < per_action:
            by_action[label].append(serialize.load_trajectory(path))
    for label, trajs in by_action.items():
        if not trajs:
            raise HmmError(f"dataset has no trajectories for action {label!r}")
    seed = args.seed if args.seed is not None else config.seed
    bank = hmm.train_bank(
        by_action,
        n_states=args.states if args.states is not None else config.states,
        n_mix=args.mixtures if args.mixtures is not None else config.mixtures,
        seed=seed,
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    serialize.save_gesture_bank(args.out, bank)
    counts = ", ".join(f"{label}:{len(trajs)}" for label, trajs in by_action.items())
    print(f"trained gesture bank ({counts}) with seed {seed}")
    for model in bank.models:
        capped = " (capped: stopped before converging)" if model.capped else ""
        print(f"  {model.action_label}: {len(model.history)} EM iterations{capped}")
    return 0


def cmd_infer(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    infer_vars = tuple(v.strip() for v in args.infer.split(",") if v.strip())
    soft = _load_soft(args, net.schema)
    if soft is None:
        table = query(net, infer_vars, obs)
        print(f"P({', '.join(infer_vars)} | evidence):")
    else:
        spec = QuerySpec(infer_vars=infer_vars, obs=obs)
        result = fusion.fuse_query(net, soft, spec)
        table = result.table
        print(
            f"P({', '.join(infer_vars)} | evidence, gesture) "
            f"[consistency {result.consistency:.6f}]:"
        )
    _print_table(table)
    if args.out:
        _write_table_csv(args.out, table)
        print(f"wrote {args.out}")
    return 0


def cmd_anticipate(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    bank = _load_bank(args.bank, net.schema)
    obs = _parse_evidence(net.schema, args.ev)
    traj = serialize.load_trajectory(args.traj)
    curve = hmm.prefix_curve(bank, traj)
    effect_var = args.effect_var
    effect_labels = net.schema.variable(effect_var).labels
    spec = QuerySpec(infer_vars=(effect_var,), obs=obs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        header += [f"score_{a}" for a in curve.actions]
        header += [f"post_{a}" for a in curve.actions]
        header += [f"{effect_var}={lab}" for lab in effect_labels]
        writer.writerow(header)
        for t in range(1, len(curve) + 1):
            scores, posterior = curve.at(t)
            soft = SoftActionEvidence(posterior, curve.actions)
            predicted = fusion.fuse_query(net, soft, spec).table.vector()
            row = [str(t)]
            row += [_fmt(v) for v in scores]
            row += [_fmt(v) for v in posterior]
            row += [_fmt(v) for v in predicted]
            writer.writerow(row)
    final = curve.posteriors[-1]
    best = curve.actions[int(final.argmax())]
    print(f"final action posterior: {best} ({final.max():.4f}); wrote {args.out}")
    return 0


def cmd_describe(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    soft = _load_soft(args, net.schema)
    observed = dict(obs.items())
    unobserved = [w for w in net.schema.word_variables() if w not in observed]
    inferred = fusion.word_probabilities(net, obs, unobserved, soft)
    word_probs: dict[str, float] = {}
    for word in net.schema.word_variables():
        if word in observed:
            true_idx = net.schema.value_index(word, "true")
            word_probs[word] = 1.0 if observed[word] == true_idx else 0.0
        else:
            word_probs[word] = float(inferred[unobserved.index(word)])
    gram = grammar_mod.default_grammar()
    n = args.n if args.n is not None else config.n_candidates
    k = args.k if args.k is not None else config.keep
    seed = args.seed if args.seed is not None else config.seed
    result = grammar_mod.nbest(gram, word_probs, n=n, k=k, seed=seed)
    for rank, (sentence, score) in enumerate(result.entries, 1):
        print(f"{rank:2d}  {score: .5f}  {sentence.text}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        grammar_mod.write_nbest_csv(args.out, result)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args, config: RunConfig) -> int:
    net = serialize.load_bayesnet(args.bn)
    obs = _parse_evidence(net.schema, args.ev)
    points = args.points if args.points is not None else config.grid_points
    arity = net.schema.variable(ACTION_VAR).arity
    grid = np.linspace(1.0 / arity, 1.0, points)
    infer_vars = None
    if args.infer:
        infer_vars = tuple(v.strip() for v in args.infer.split(",") if v.strip())
    sweep = fusion.confidence_sweep(net, obs, args.target, grid, infer_vars=infer_vars)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    fusion.write_sweep_csv(args.out, sweep)
    print(f"swept {points} confidence points for {args.target!r}; wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afftalk",
        description="Affordance/word network with gesture fusion and verbal descriptions.",
    )
    parser.add_argument("--config", help="JSON config file (see README for keys)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--trials", type=int)
    p.add_argument("--trajectories-per-action", type=int, dest="trajectories_per_action")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-bn", help="fit structure and parameters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-parents", type=int, dest="max_parents")
    p.set_defaults(func=cmd_train_bn)

    p = sub.add_parser("train-hmm", help="train the gesture bank")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="bank file")
    p.add_argument("--states", type=int)
    p.add_argument("--mixtures", type=int)
    p.add_argument("--per-action", type=int, dest="per_action")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_hmm)

    p = sub.add_parser("infer", help="conditional distribution over variables")
    p.add_argument("--bn", required=True)
    p.add_argument("--infer", required=True, help="comma-separated variable names")
    p.add_argument("--ev", action="append", help="Var=value (repeatable)")
    p.add_argument("--bank", help="gesture bank for soft evidence")
    p.add_argument("--traj", help="trajectory CSV for soft evidence")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("anticipate", help="per-prefix recognition and effect prediction")
    p.add_argument("--bn", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--ev", action="append")
    p.add_argument("--effect-var", default="ObjVel", dest="effect_var")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_anticipate)

    p = sub.add_parser("describe", help="ranked verbal descriptions")
    p.add_argument("--bn", required=True)
    p.add_argument("--ev", action="append")
    p.add_argument("--bank")
    p.add_argument("--traj")
    p.add_argument("--n", type=int, help="candidate sentences to sample")
    p.add_argument("--k", type=int, help="list size to keep")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("sweep", help="posterior versus recognizer confidence")
    p.add_argument("--bn", required=True)
    p.add_argument("--target", required=True, help="action value to ramp")
    p.add_argument("--ev", action="append")
    p.add_argument("--points", type=int)
    p.add_argument("--infer", help="comma-separated variables (default: the action)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


_EXIT_CODES = (
    (ImpossibleEvidenceError, 5),
    (FileNotFoundError, 3),
    ((BnError, HmmError, GrammarError, WorldError, SerializeError), 4),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        return args.func(args, config)
    except Exception as exc:  # noqa: BLE001 - single funnel for exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
                return code
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
