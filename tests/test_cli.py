import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afftalk import cli, hmm, serialize, world
from afftalk.cli import COMMANDS, RunConfig, main

from conftest import random_left_right_model


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small trained pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "simulate",
                "--out",
                str(root / "dataset"),
                "--trials",
                "2500",
                "--trajectories-per-action",
                "12",
                "--seed",
                "42",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-bn",
                "--dataset",
                str(root / "dataset"),
                "--out",
                str(root / "models/bn.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-hmm",
                "--dataset",
                str(root / "dataset"),
                "--out",
                str(root / "models/hmm.txt"),
                "--per-action",
                "12",
                "--seed",
                "7",
            ]
        )
        == 0
    )
    return root


def _somewhere_with_traj(root: Path) -> str:
    return str(sorted((root / "dataset" / "traj").glob("*.csv"))[0])


def test_simulate_layout(pipeline_dir):
    assert (pipeline_dir / "dataset" / "trials.txt").exists()
    assert len(list((pipeline_dir / "dataset" / "traj").glob("*.csv"))) == 36


def test_infer_writes_csv_with_labels(pipeline_dir, capsys):
    out = pipeline_dir / "out" / "infer.csv"
    code = main(
        [
            "infer",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--infer",
            "Action",
            "--ev",
            "Size=small,Shape=sphere,ObjVel=slow",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Action,p"
    assert [line.split(",")[0] for line in lines[1:]] == ["grasp", "tap", "touch"]
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-9


def test_infer_with_gesture_evidence(pipeline_dir, capsys):
    code = main(
        [
            "infer",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--bank",
            str(pipeline_dir / "models/hmm.txt"),
            "--traj",
            _somewhere_with_traj(pipeline_dir),
            "--infer",
            "ObjVel",
        ]
    )
    assert code == 0
    assert "consistency" in capsys.readouterr().out


def test_describe_conjunction_contrast(pipeline_dir, capsys):
    for objvel, conj in (("medium", "and"), ("slow", "but")):
        code = main(
            [
                "describe",
                "--bn",
                str(pipeline_dir / "models/bn.txt"),
                "--ev",
                f"Action=grasp,ObjVel={objvel}",
                "--k",
                "10",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 10
        assert f" {conj} " in lines[0]


def test_describe_with_unknown_variable_names_it(pipeline_dir, capsys):
    code = main(
        [
            "describe",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--ev",
            "Sizee=big",
        ]
    )
    assert code == 4
    assert "Sizee" in capsys.readouterr().err


def test_anticipate_csv(pipeline_dir):
    out = pipeline_dir / "out" / "anticipate.csv"
    code = main(
        [
            "anticipate",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--bank",
            str(pipeline_dir / "models/hmm.txt"),
            "--traj",
            _somewhere_with_traj(pipeline_dir),
            "--ev",
            "Shape=sphere",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "post_tap" in header and "ObjVel=fast" in header
    assert len(lines) - 1 >= 20  # one row per frame


def test_anticipate_runs_one_elimination_for_all_frames(pipeline_dir, tmp_path, eliminations):
    config = replace(world.default_config(), t_min=60, t_max=60)
    serialize.save_trajectory(
        tmp_path / "traj.csv", world.sample_trajectory("tap", config, seed=3)
    )
    out = tmp_path / "anticipate.csv"
    code = main(
        [
            "anticipate",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--bank",
            str(pipeline_dir / "models/hmm.txt"),
            "--traj",
            str(tmp_path / "traj.csv"),
            "--ev",
            "Shape=sphere",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 61
    assert len(eliminations) == 1


def _saved_bank(pipeline_dir, path, models) -> str:
    """The pipeline's bank with its models replaced by ``models(bank)``,
    saved at ``path``."""
    bank = serialize.load_gesture_bank(pipeline_dir / "models/hmm.txt")
    serialize.save_gesture_bank(path, hmm.GestureBank(models=models(bank)))
    return str(path)


def _with_push(bank):
    """The bank's models plus a fourth action the network does not have."""
    first = bank.models[0]
    push = hmm.HmmModel("push", first.log_trans, first.weights, first.means, first.variances)
    return bank.models + (push,)


def test_bank_with_other_actions_than_the_schema_exit_code(pipeline_dir, tmp_path, capsys):
    common = [
        "--bn",
        str(pipeline_dir / "models/bn.txt"),
        "--bank",
        _saved_bank(pipeline_dir, tmp_path / "hmm4.txt", _with_push),
        "--traj",
        _somewhere_with_traj(pipeline_dir),
    ]
    code = main(["anticipate", *common, "--out", str(tmp_path / "anticipate.csv")])
    assert code == 4
    assert "push" in capsys.readouterr().err
    assert not (tmp_path / "anticipate.csv").exists()
    assert main(["infer", *common, "--infer", "ObjVel"]) == 4


def test_describe_with_every_word_observed_checks_the_bank(pipeline_dir, tmp_path, capsys):
    net = serialize.load_bayesnet(pipeline_dir / "models/bn.txt")
    every_word = ",".join(f"{w}=false" for w in net.schema.word_variables())
    common = ["describe", "--bn", str(pipeline_dir / "models/bn.txt"), "--ev", every_word]
    traj = ["--traj", _somewhere_with_traj(pipeline_dir)]
    assert main([*common, "--bank", str(pipeline_dir / "models/hmm.txt"), *traj]) == 0
    capsys.readouterr()
    four = _saved_bank(pipeline_dir, tmp_path / "hmm4.txt", _with_push)
    assert main([*common, "--bank", four, *traj]) == 4
    assert "push" in capsys.readouterr().err


def _csv_columns(path) -> dict[str, list[str]]:
    """A result CSV's cells, one list per header name."""
    lines = [line.split(",") for line in Path(path).read_text().splitlines()]
    return {name: column for name, *column in zip(*lines)}


def test_bank_in_another_action_order_serves(pipeline_dir, tmp_path):
    bn = str(pipeline_dir / "models/bn.txt")
    traj = _somewhere_with_traj(pipeline_dir)
    banks = {
        "schema": str(pipeline_dir / "models/hmm.txt"),
        "reversed": _saved_bank(pipeline_dir, tmp_path / "hmm_rev.txt", lambda b: b.models[::-1]),
    }
    for name, bank in banks.items():
        common = ["--bn", bn, "--bank", bank, "--traj", traj, "--ev", "Shape=sphere"]
        out = str(tmp_path / f"infer_{name}.csv")
        assert main(["infer", *common, "--infer", "Action,ObjVel", "--out", out]) == 0
        out = str(tmp_path / f"anticipate_{name}.csv")
        assert main(["anticipate", *common, "--out", out]) == 0
    for kind in ("infer", "anticipate"):
        want = _csv_columns(tmp_path / f"{kind}_schema.csv")
        got = _csv_columns(tmp_path / f"{kind}_reversed.csv")
        assert set(got) == set(want)
        for name, column in want.items():
            if name in ("Action", "ObjVel", "t"):  # labels and frame numbers
                assert got[name] == column
            else:
                diff = np.abs(np.array(got[name], float) - np.array(column, float))
                assert diff.max() <= 1e-12, (kind, name)
    assert list(_csv_columns(tmp_path / "anticipate_reversed.csv"))[1:4] == [
        "score_touch", "score_tap", "score_grasp"
    ]


def test_bank_of_unequal_state_counts_scores_each_model_as_alone(pipeline_dir, tmp_path):
    """Bank scoring pads the 3-state models to 5 states; every prefix still
    scores bitwise as each model does alone, also after a save and load."""
    rng = np.random.default_rng(17)
    models = tuple(
        random_left_right_model(rng, q, 2, 3, label=action)
        for q, action in zip((3, 5, 3), ("grasp", "tap", "touch"))
    )
    path = _saved_bank(pipeline_dir, tmp_path / "hmm353.txt", lambda bank: models)
    bank = serialize.load_gesture_bank(path)
    for loaded, model in zip(bank.models, models):
        assert loaded.action_label == model.action_label
        for name in ("log_trans", "weights", "means", "variances"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
    traj = _somewhere_with_traj(pipeline_dir)
    full = serialize.load_trajectory(traj)
    curve = hmm.prefix_curve(bank, full)
    for t in range(1, len(full) + 1):
        prefix = hmm.Trajectory(full.frames[:t])
        alone = np.array([hmm.forward_loglik(model, prefix) for model in bank.models])
        assert np.array_equal(curve.log_liks[t - 1], alone), t
        weights = hmm.action_posterior(bank, prefix).weights
        assert np.array_equal(weights, hmm._normalise(alone)), t
        assert np.array_equal(weights, curve.posteriors[t - 1]), t
    out = tmp_path / "anticipate.csv"
    bn = str(pipeline_dir / "models/bn.txt")
    assert main(["anticipate", "--bn", bn, "--bank", path, "--traj", traj, "--out", str(out)]) == 0
    columns = _csv_columns(out)
    for k, action in enumerate(bank.actions):
        assert np.array_equal(np.array(columns[f"score_{action}"], float), curve.scores[:, k])
        assert np.array_equal(np.array(columns[f"post_{action}"], float), curve.posteriors[:, k])


def test_train_hmm_without_trajectories_names_the_action(tmp_path, capsys):
    dataset = str(tmp_path / "dataset")
    simulate = ["simulate", "--out", dataset, "--trials", "30", "--trajectories-per-action", "0"]
    assert main(simulate) == 0
    capsys.readouterr()
    assert main(["train-hmm", "--dataset", dataset, "--out", str(tmp_path / "hmm.txt")]) == 4
    assert "action 'grasp': empty training set" in capsys.readouterr().err
    assert not (tmp_path / "hmm.txt").exists()


def test_train_hmm_reports_em_iterations_and_caps(pipeline_dir, tmp_path, capsys, monkeypatch):
    argv = [
        "train-hmm",
        "--dataset",
        str(pipeline_dir / "dataset"),
        "--out",
        str(tmp_path / "hmm.txt"),
        "--per-action",
        "12",
        "--seed",
        "7",
    ]
    monkeypatch.setattr(hmm, "MAX_EM_ITERATIONS", 2)
    assert main(argv) == 0
    report = capsys.readouterr().out.splitlines()[1:]
    assert report == [
        f"  {a}: 2 EM iterations (capped: stopped before converging)"
        for a in ("grasp", "tap", "touch")
    ]
    monkeypatch.setattr(hmm, "MAX_EM_ITERATIONS", 1000)
    assert main(argv) == 0
    report = capsys.readouterr().out.splitlines()[1:]
    assert len(report) == 3
    assert all(line.endswith(" EM iterations") for line in report)


def test_sweep_csv(pipeline_dir):
    out = pipeline_dir / "out" / "sweep.csv"
    code = main(
        [
            "sweep",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--target",
            "tap",
            "--ev",
            "Size=small,Shape=sphere,ObjVel=slow",
            "--points",
            "25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "confidence,Action=grasp,Action=tap,Action=touch"
    assert len(lines) == 26


def test_sweep_runs_one_elimination_for_all_points(pipeline_dir, tmp_path, eliminations):
    out = tmp_path / "sweep.csv"
    common = ["sweep", "--bn", str(pipeline_dir / "models/bn.txt"), "--target", "tap"]
    assert main([*common, "--points", "100", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 101
    assert len(eliminations) == 1


def test_sweep_without_points_exit_code(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    common = ["sweep", "--bn", str(pipeline_dir / "models/bn.txt"), "--target", "tap"]
    assert main([*common, "--points", "0", "--out", str(out)]) == 4
    assert "at least one point" in capsys.readouterr().err
    assert not out.exists()


def test_describe_sample_size_flag_is_retired(pipeline_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--bn", str(pipeline_dir / "models/bn.txt"), "--n", "5"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_describe_runs_one_elimination_with_and_without_a_gesture(
    pipeline_dir, tmp_path, eliminations
):
    common = ["describe", "--bn", str(pipeline_dir / "models/bn.txt")]
    assert main([*common, "--ev", "Action=grasp,ObjVel=medium"]) == 0
    assert len(eliminations) == 1
    gesture = [
        "--bank",
        str(pipeline_dir / "models/hmm.txt"),
        "--traj",
        _somewhere_with_traj(pipeline_dir),
    ]
    out = tmp_path / "describe.csv"
    assert main([*common, "--ev", "Shape=sphere", *gesture, "--out", str(out)]) == 0
    assert len(eliminations) == 2
    assert len(out.read_text().splitlines()) == 11


def test_describe_ignores_the_seed(pipeline_dir, capsys):
    common = ["describe", "--bn", str(pipeline_dir / "models/bn.txt"), "--ev", "Action=tap"]
    assert main([*common, "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main([*common, "--seed", "2"]) == 0
    assert capsys.readouterr().out == first


def test_missing_model_file_exit_code(pipeline_dir, capsys):
    code = main(["infer", "--bn", str(pipeline_dir / "nope.txt"), "--infer", "Action"])
    assert code == 3


def test_impossible_evidence_exit_code(pipeline_dir, tmp_path, capsys):
    # alpha=0 leaves genuinely-impossible rows at zero probability
    code = main(
        [
            "train-bn",
            "--dataset",
            str(pipeline_dir / "dataset"),
            "--out",
            str(tmp_path / "mle.txt"),
            "--alpha",
            "0",
        ]
    )
    if code != 0:  # an unobserved parent configuration is also acceptable
        assert code == 4
        return
    code = main(
        [
            "infer",
            "--bn",
            str(tmp_path / "mle.txt"),
            "--infer",
            "Action",
            "--ev",
            "Action=grasp",  # grasp never yields fast in the generator
        ]
    )
    assert code in (0, 5)


def test_config_file_controls_defaults(pipeline_dir, tmp_path, capsys):
    config = {"version": 1, "keep": 3, "seed": 9}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(
        [
            "--config",
            str(path),
            "describe",
            "--bn",
            str(pipeline_dir / "models/bn.txt"),
            "--ev",
            "Action=tap,ObjVel=fast",
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"keepp": 3}))
    code = main(
        ["--config", str(bad), "describe", "--bn", str(pipeline_dir / "models/bn.txt")]
    )
    assert code == 4
    assert "keepp" in capsys.readouterr().err
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({"n_candidates": 500}))
    code = main(
        ["--config", str(retired), "describe", "--bn", str(pipeline_dir / "models/bn.txt")]
    )
    assert code == 4
    assert "n_candidates" in capsys.readouterr().err


def test_console_entry_point_runs():
    # the child imports afftalk from where this process does
    out = subprocess.run(
        [sys.executable, "-m", "afftalk.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0
    for sub in ("simulate", "train-bn", "train-hmm", "infer", "anticipate", "describe", "sweep"):
        assert sub in out.stdout


# ---------------------------------------------------------------------------
# the command-line surface

SUBCOMMANDS = ["simulate", "train-bn", "train-hmm", "infer", "anticipate", "describe", "sweep"]

# inputs each command requires; the tests below replace its handler
REQUIRED = {
    "simulate": ["--out", "ds"],
    "train-bn": ["--dataset", "ds", "--out", "bn.txt"],
    "train-hmm": ["--dataset", "ds", "--out", "hmm.txt"],
    "describe": ["--bn", "bn.txt"],
    "sweep": ["--bn", "bn.txt", "--target", "tap", "--out", "sweep.csv"],
}

# (command, flag, RunConfig field, value)
CONFIG_FLAGS = [
    ("simulate", "--trials", "trials", "7"),
    ("simulate", "--trajectories-per-action", "trajectories_per_action", "3"),
    ("simulate", "--seed", "seed", "5"),
    ("train-bn", "--alpha", "alpha", "0.5"),
    ("train-bn", "--max-parents", "max_parents", "2"),
    ("train-hmm", "--states", "states", "3"),
    ("train-hmm", "--mixtures", "mixtures", "3"),
    ("train-hmm", "--per-action", "train_per_action", "5"),
    ("train-hmm", "--seed", "seed", "9"),
    ("describe", "--k", "keep", "3"),
    ("describe", "--seed", "seed", "6"),
    ("sweep", "--points", "grid_points", "7"),
]


def _usage(argv, capsys):
    """The exit code and output of a request that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _capture_config(monkeypatch, command) -> list:
    """Replace the command's handler by one that records its arguments and config."""
    seen = []

    def handler(args, config):
        seen.append((args, config))
        return 0

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), handler)
    return seen


def test_help_lists_every_subcommand(capsys):
    code, out, _ = _usage(["--help"], capsys)
    assert code == 0
    assert re.search(r"\{(.*)\}", out).group(1).split(",") == SUBCOMMANDS
    for command in SUBCOMMANDS:
        assert re.search(rf"^    {command} +\w", out, re.M)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_command_help_names_every_flag_of_its_entry(command, capsys):
    code, out, _ = _usage([command, "--help"], capsys)
    assert code == 0
    _, flags = COMMANDS[command]
    assert set(re.findall(r"--[a-z-]+", out)) == {"--help", *(flag for flag, _, _ in flags)}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["infer", "--bn", "bn.txt"], "the following arguments are required: --infer"),
        (["describe", "--bn", "bn.txt", "--points", "3"], "unrecognized arguments: --points"),
        (["describe-all", "--bn", "bn.txt"], "invalid choice: 'describe-all'"),
    ],
    ids=["missing required flag", "unknown flag", "unknown command"],
)
def test_usage_errors_exit_2(argv, message, capsys):
    code, _, err = _usage(argv, capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "command,flag,field,value", CONFIG_FLAGS, ids=[f"{c} {f}" for c, f, _, _ in CONFIG_FLAGS]
)
def test_config_flag_sets_its_field(monkeypatch, command, flag, field, value):
    seen = _capture_config(monkeypatch, command)
    assert main([command, *REQUIRED[command], flag, value]) == 0
    typed = type(getattr(RunConfig, field))(value)
    assert [config for _, config in seen] == [replace(RunConfig(), **{field: typed})]


def test_every_config_flag_of_the_table_has_a_case():
    declared = {
        (command, flag, field)
        for command, (_, flags) in COMMANDS.items()
        for flag, field, _ in flags
        if field
    }
    assert declared == {case[:3] for case in CONFIG_FLAGS}


def test_a_value_named_like_a_command_keeps_the_command_flags(monkeypatch):
    seen = _capture_config(monkeypatch, "describe")
    assert main(["describe", "--bn", "sweep", "--k", "3", "--traj", "infer"]) == 0
    [(args, config)] = seen
    assert (args.bn, args.traj, config.keep) == ("sweep", "infer", 3)
