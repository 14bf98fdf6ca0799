"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The statistical criteria run on the default synthetic world with
pinned seeds, so they are deterministic.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from afftalk.bn import (
    Evidence,
    fit_parameters,
    build_network,
    joint_enumerate,
    prune_barren,
    query,
)
from afftalk.cli import main
from afftalk.fusion import (
    SoftActionEvidence,
    confidence_sweep,
    fuse_query,
    word_delta,
)
from afftalk.grammar import default_grammar, derivable, kbest, nbest
from afftalk.hmm import forward_loglik, prefix_curve
from afftalk.schema import ACTIONS
from afftalk.world import sample_trajectory

from conftest import (
    brute_force_loglik,
    random_action_net,
    random_binary_net,
    random_left_right_model,
    random_split,
)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


TAP_WORDS = ("taps", "tapped", "tapping", "pushes", "pushed", "pushing")
TOUCH_WORDS = ("touches", "touched", "touching", "pokes", "poked", "poking")

# reference descriptions the grammar must derive
REFERENCE_SENTENCES = [
    "the robot pushed the ball and the ball moves",
    "the robot tapped the sphere and the sphere moves",
    "he is pushing the sphere and the sphere moves",
    "the robot is tapping the yellow ball and the big yellow sphere is moving",
    "he pushed the yellow ball and the sphere is rolling",
    "the robot is poking the ball and the sphere is rolling",
    "he is pushing the ball and the yellow ball moves",
    "he pushes the sphere and the ball is moving",
    "he is tapping the yellow ball and the ball is moving",
    "the robot pokes the sphere and the ball is rolling",
    "the robot is picking the sphere and the sphere is moving",
    "the robot grasps the sphere and the ball is moving",
    "the robot is picking the sphere and the sphere is rising",
    "the robot grasped the sphere and the sphere is rising",
    "the robot picked the ball and the ball is rising",
    "baltazar grasps the sphere and the sphere is moving",
    "the robot has grasped the ball and the ball is rising",
    "the robot picked the ball and the green ball is moving",
    "baltazar grasped the sphere and the ball is moving",
    "baltazar is grasping the ball and the sphere is rising",
    "the robot is picking the cube but the square is still",
    "the robot is grasping the sphere but the box is inert",
    "the robot is grasping the square but the sphere is still",
    "the robot grasped the square but the cube is inert",
    "baltazar is grasping the square but the square is inert",
    "the robot is grasping the cube but the ball is inert",
    "the robot picks the box but the square is inert",
    "baltazar is picking the square but the square is still",
    "he is grasping the square but the cube is inert",
    "the robot grasps the square but the sphere is inert",
    "the robot is grasping the box and the green box is moving",
    "the robot is poking the green square and the cube is inert",
    "the robot picked the ball and the green ball is moving",
    "baltazar is poking the green sphere and the sphere is still",
]


def test_criterion_1_inference_oracle_equivalence(trained_net):
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        net = random_binary_net(rng, int(rng.integers(3, 13)))
        infer, obs = random_split(rng, net)
        a = query(net, infer, Evidence(obs))
        b = joint_enumerate(net, infer, Evidence(obs))
        worst = max(worst, float(np.abs(a.probs - b.probs).max()))

    # the full-vocabulary net is far beyond the enumeration cap, so the
    # oracle runs on the exact barren-pruned subnetwork instead
    schema = trained_net.schema
    cases = [
        (("Action",), {"Size": "small", "Shape": "sphere", "ObjVel": "slow"}),
        (("ObjVel",), {"Shape": "box", "tapped": "true"}),
        (("tapped", "rolling"), {"Action": "tap", "Shape": "sphere"}),
        (("Action", "ObjVel"), {"and": "true", "ball": "true"}),
    ]
    for infer, labeled in cases:
        obs = Evidence.from_labels(schema, labeled)
        a = query(trained_net, infer, obs)
        pruned = prune_barren(trained_net, tuple(infer) + tuple(labeled))
        b = joint_enumerate(pruned, infer, obs)
        worst = max(worst, float(np.abs(a.probs - b.probs).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-9 and elapsed < 30.0,
        f"max |VE - enumeration| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_forward_oracle():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, 7))
        model = random_left_right_model(rng, q, m, d)
        frames = rng.normal(0.0, 1.0, (t, d))
        from afftalk.hmm import Trajectory

        got = forward_loglik(model, Trajectory(frames))
        want = brute_force_loglik(model, frames)
        worst = max(worst, abs(got - want) / abs(want))
    report(2, worst < 1e-9, f"max relative error = {worst:.2e} over 50 models")


def test_criterion_3_fusion_identities():
    rng = np.random.default_rng(3003)
    ab = ("a", "b")
    worst = 0.0
    checked = 0
    while checked < 100:
        net = random_action_net(rng, int(rng.integers(4, 10)))
        infer, obs = random_split(rng, net)
        if "Action" in obs:
            continue
        checked += 1
        # uniform soft evidence changes nothing
        uniform = fuse_query(net, SoftActionEvidence.uniform(ab), infer, Evidence(obs))
        plain = query(net, infer, Evidence(obs))
        worst = max(worst, float(np.abs(uniform.table.probs - plain.probs).max()))
        # a point mass equals hard conditioning when the action is latent
        if "Action" not in infer:
            value = int(rng.integers(2))
            point = fuse_query(
                net, SoftActionEvidence.point_mass(ab, ab[value]), infer, Evidence(obs)
            )
            hard = query(net, infer, Evidence({**obs, "Action": value}))
            worst = max(worst, float(np.abs(point.table.probs - hard.probs).max()))
        # inferring the action jointly then marginalizing matches the
        # latent-action route
        soft = SoftActionEvidence(rng.dirichlet(np.ones(2)), ab)
        rest = [v for v in infer if v != "Action"]
        if rest:
            both = fuse_query(net, soft, ["Action", *rest], Evidence(obs)).table.marginal(rest)
            latent = fuse_query(net, soft, rest, Evidence(obs))
            worst = max(worst, float(np.abs(both.probs - latent.table.probs).max()))
    report(3, worst <= 1e-9, f"max deviation = {worst:.2e} over {checked} specs")


def test_criterion_4_confidence_sweep_flip(trained_net):
    obs = Evidence.from_labels(
        trained_net.schema, {"Size": "small", "Shape": "sphere", "ObjVel": "slow"}
    )
    grid = np.linspace(1.0 / 3.0, 1.0, 100)
    sweep = confidence_sweep(trained_net, obs, "tap", grid)
    labels = sweep.labels[0]
    argmax = [labels[int(np.argmax(row))] for row in sweep.posteriors]
    flips = [
        (argmax[i], argmax[i + 1], sweep.grid[i + 1])
        for i in range(len(argmax) - 1)
        if argmax[i] != argmax[i + 1]
    ]
    tap, touch = labels.index("tap"), labels.index("touch")
    with np.errstate(divide="ignore"):
        odds = np.log(sweep.posteriors[:, tap]) - np.log(sweep.posteriors[:, touch])
    monotone = bool((np.diff(odds) > 0).all())
    ok = (
        argmax[0] == "touch"
        and argmax[-1] == "tap"
        and len(flips) == 1
        and flips[0][:2] == ("touch", "tap")
        and 1.0 / 3.0 < flips[0][2] < 1.0
        and monotone
    )
    detail = f"flip at p*={flips[0][2]:.3f}, odds monotone={monotone}" if flips else "no flip"
    report(4, ok, detail)


def test_criterion_5_velocity_contrast_by_shape(trained_net):
    schema = trained_net.schema
    point_tap = SoftActionEvidence.point_mass(schema.variable("Action").labels, "tap")
    values = {}
    for shape in ("sphere", "box"):
        obs = Evidence.from_labels(schema, {"Shape": shape})
        table = fuse_query(trained_net, point_tap, ("ObjVel",), obs).table
        values[shape] = float(table.probs[schema.value_index("ObjVel", "fast")])
    margin = values["sphere"] - values["box"]
    report(
        5,
        margin >= 0.2,
        f"P(fast|sphere)={values['sphere']:.3f} vs P(fast|box)={values['box']:.3f}",
    )


def test_criterion_6_early_recognition(world_config, trained_bank):
    per_frac = {}
    for frac in (0.5, 1.0):
        correct = 0
        for i, action in enumerate(ACTIONS):
            for j in range(100):
                traj = sample_trajectory(
                    action, world_config, seed=700_000 + 1000 * i + j
                )
                curve = prefix_curve(trained_bank, traj)
                t = math.ceil(frac * len(traj))
                _, posterior = curve.at(t)
                correct += curve.actions[int(np.argmax(posterior))] == action
        per_frac[frac] = correct / 300.0
    ok = per_frac[0.5] >= 0.80 and per_frac[1.0] >= 0.95
    report(
        6,
        ok,
        f"accuracy {per_frac[0.5]:.3f} at half length, {per_frac[1.0]:.3f} at full",
    )


def test_criterion_7_grammar_fidelity():
    grammar = default_grammar()
    vocab_ok = len(grammar.vocabulary) == 49
    failures = [s for s in REFERENCE_SENTENCES if not derivable(grammar, s)]
    report(
        7,
        vocab_ok and not failures,
        f"vocabulary={len(grammar.vocabulary)}, "
        f"{len(REFERENCE_SENTENCES) - len(failures)}/{len(REFERENCE_SENTENCES)} sentences derivable",
    )


def _word_probs(net, labeled_obs):
    obs = Evidence.from_labels(net.schema, labeled_obs)
    probs = {}
    for word in net.schema.word_variables():
        true_idx = net.schema.value_index(word, "true")
        probs[word] = float(query(net, (word,), obs).probs[true_idx])
    return probs


def test_criterion_8_conjunction_choice(trained_net):
    tops = {}
    for objvel in ("medium", "slow"):
        probs = _word_probs(trained_net, {"Action": "grasp", "ObjVel": objvel})
        ranked = nbest(default_grammar(), probs, n=10_000, k=10, seed=5)
        tops[objvel] = ranked.entries[0][0]
    ok = "and" in tops["medium"].words and "but" in tops["slow"].words
    report(
        8,
        ok,
        f"top for medium has 'and': {'and' in tops['medium'].words}; "
        f"top for slow has 'but': {'but' in tops['slow'].words}",
    )


def test_criterion_8_conjunction_choice_on_the_exact_list(trained_net):
    tops = {}
    for objvel in ("medium", "slow"):
        probs = _word_probs(trained_net, {"Action": "grasp", "ObjVel": objvel})
        tops[objvel] = kbest(default_grammar(), probs, k=10).entries[0][0]
    ok = "and" in tops["medium"].words and "but" in tops["slow"].words
    report(
        8,
        ok,
        f"exact top for medium: {tops['medium'].text!r}; "
        f"exact top for slow: {tops['slow'].text!r}",
    )


def test_criterion_9_verb_family_deltas(trained_net):
    schema = trained_net.schema
    obs = Evidence.from_labels(
        schema, {"Size": "big", "Shape": "sphere", "ObjVel": "fast"}
    )
    point_tap = SoftActionEvidence.point_mass(schema.variable("Action").labels, "tap")
    result = word_delta(trained_net, obs, point_tap)
    delta = dict(zip(result.words, result.delta))
    tap_family = sum(delta[w] for w in TAP_WORDS)
    touch_family = sum(delta[w] for w in TOUCH_WORDS)
    report(
        9,
        tap_family > 0 and touch_family <= 0,
        f"tap-family delta={tap_family:+.2e}, touch-family delta={touch_family:+.2e}",
    )


def _run_pipeline(root: Path) -> float:
    started = time.perf_counter()
    dataset = root / "dataset"
    bn_path = root / "models" / "bn.txt"
    hmm_path = root / "models" / "hmm.txt"
    steps = [
        ["simulate", "--out", str(dataset), "--seed", "1234"],
        ["train-bn", "--dataset", str(dataset), "--out", str(bn_path)],
        ["train-hmm", "--dataset", str(dataset), "--out", str(hmm_path), "--seed", "7"],
    ]
    for step in steps:
        assert main(step) == 0, step
    traj = str(sorted((dataset / "traj").glob("*.csv"))[0])
    steps = [
        [
            "infer",
            "--bn",
            str(bn_path),
            "--infer",
            "Action",
            "--ev",
            "Size=small,Shape=sphere,ObjVel=slow",
            "--out",
            str(root / "out" / "infer.csv"),
        ],
        [
            "anticipate",
            "--bn",
            str(bn_path),
            "--bank",
            str(hmm_path),
            "--traj",
            traj,
            "--ev",
            "Shape=sphere",
            "--out",
            str(root / "out" / "anticipate.csv"),
        ],
        [
            "describe",
            "--bn",
            str(bn_path),
            "--ev",
            "Action=grasp,ObjVel=medium",
            "--seed",
            "5",
            "--out",
            str(root / "out" / "describe.csv"),
        ],
        [
            "sweep",
            "--bn",
            str(bn_path),
            "--target",
            "tap",
            "--ev",
            "Size=small,Shape=sphere,ObjVel=slow",
            "--out",
            str(root / "out" / "sweep.csv"),
        ],
    ]
    for step in steps:
        assert main(step) == 0, step
    return time.perf_counter() - started


def test_criterion_10_pipeline_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    seconds_a = _run_pipeline(run_a)
    seconds_b = _run_pipeline(run_b)

    tracked = ["dataset/trials.txt", "models/bn.txt", "models/hmm.txt"]
    tracked += [
        f"out/{name}.csv" for name in ("infer", "anticipate", "describe", "sweep")
    ]
    tracked += sorted(
        str(p.relative_to(run_a)) for p in (run_a / "dataset" / "traj").glob("*.csv")
    )
    mismatched = [
        rel
        for rel in tracked
        if not filecmp.cmp(run_a / rel, run_b / rel, shallow=False)
    ]
    ok = not mismatched and seconds_a < 60.0 and seconds_b < 60.0
    report(
        10,
        ok,
        f"{len(tracked)} files byte-identical, runs took "
        f"{seconds_a:.1f}s / {seconds_b:.1f}s"
        + (f"; mismatched: {mismatched[:3]}" if mismatched else ""),
    )
