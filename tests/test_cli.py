import argparse
import gc
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afftalk import cli, fusion, hmm, serialize, world
from afftalk.bn import Dataset, Evidence, JointTable
from afftalk.cli import COMMANDS, RunConfig, main
from afftalk.fusion import SoftActionEvidence

from conftest import random_left_right_model, reference_anticipation_csv, reference_sweep_csv


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


def test_infer_out_prints_its_first_thousand_cells_and_writes_them_all(
    pipeline_dir, tmp_path, capsys
):
    """A 10-word answer (1,024 cells) with ``--out`` prints its first 1,000
    cells in row-major order, then a note; the CSV holds every cell, and
    without ``--out`` every cell prints."""
    bn = str(pipeline_dir / "models/bn.txt")
    words = serialize.load_bayesnet(bn).schema.names[-10:]
    assert all(name.islower() for name in words)  # word variables, not affordances
    out = tmp_path / "words.csv"
    assert main(["infer", "--bn", bn, "--infer", ",".join(words)]) == 0
    every = capsys.readouterr().out.splitlines()
    assert main(["infer", "--bn", bn, "--infer", ",".join(words), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(every) == 1 + 1024
    assert printed == [*every[:1001], f"  ... 24 more cells in {out}", f"wrote {out}"]
    assert len(out.read_text().splitlines()) == 1 + 1024
    # at the limit every cell prints; one cell past it leaves a note
    for size, note in [(1000, []), (1001, ["  ... 1 more cells in t.csv"])]:
        table = JointTable(("V",), (tuple(map(str, range(size))),), np.full(size, 1 / size))
        cli._print_table(table, "t.csv")
        lines = capsys.readouterr().out.splitlines()
        assert lines[1000:] == note and len(lines) == 1000 + len(note)


def _print_table_in_two_walks(table: JointTable) -> None:
    """The table print that walks the cells once for the width, then to print."""
    width = max(len(" ".join(labels)) for labels, _ in table.iter_cells())
    for labels, p in table.iter_cells():
        print(f"  {' '.join(labels):<{width}}  {p:.6f}")


@pytest.mark.parametrize(
    "labels",
    [
        (("slow", "medium", "fast"),),
        (("a", "much longer"), ("mid", "x", "longest here")),
        (("short", "s"), ("x", "a wide label", "yy"), ("no", "forever and a day")),
    ],
    ids=["one variable", "two variables", "three variables"],
)
def test_printed_table_equals_the_print_in_two_walks(capsys, labels):
    shape = tuple(map(len, labels))
    probs = np.random.default_rng(len(shape)).dirichlet(np.ones(np.prod(shape))).reshape(shape)
    table = JointTable(tuple(f"V{i}" for i in range(len(shape))), labels, probs)
    _print_table_in_two_walks(table)
    expected = capsys.readouterr().out
    cli._print_table(table)
    assert capsys.readouterr().out == expected


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


def test_no_dataset_is_alive_while_the_bank_trains(pipeline_dir, tmp_path, monkeypatch):
    def datasets():
        return [o for o in gc.get_objects() if isinstance(o, Dataset)]

    earlier = datasets()  # held, so that no new object takes one of their ids
    known = set(map(id, earlier))
    alive = []
    train_bank = hmm.train_bank

    def spy(*args, **kwargs):
        alive.append([d for d in datasets() if id(d) not in known])
        return train_bank(*args, **kwargs)

    monkeypatch.setattr(hmm, "train_bank", spy)
    dataset = str(pipeline_dir / "dataset")
    argv = ["train-hmm", "--dataset", dataset, "--out", str(tmp_path / "hmm.txt")]
    assert main([*argv, "--per-action", "2", "--states", "2", "--mixtures", "1"]) == 0
    assert alive == [[]]


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


def test_numeric_csvs_of_the_pipeline_equal_csv_writer_with_fmt_per_cell(pipeline_dir, tmp_path):
    bn_path, bank_path = pipeline_dir / "models/bn.txt", pipeline_dir / "models/hmm.txt"
    net, bank = serialize.load_bayesnet(bn_path), serialize.load_gesture_bank(bank_path)
    trajs = sorted((pipeline_dir / "dataset" / "traj").glob("*.csv"))
    out = tmp_path / "result.csv"
    for traj, effect, labeled in [
        (trajs[0], "ObjVel", {}),
        (trajs[17], "Contact", {"Shape": "sphere"}),
        (trajs[-1], "HandVel", {"Size": "small", "Color": "blue"}),
    ]:
        argv = ["anticipate", "--bn", str(bn_path), "--bank", str(bank_path), "--traj", str(traj)]
        argv += [f"--ev={name}={label}" for name, label in labeled.items()]
        assert main([*argv, "--effect-var", effect, "--out", str(out)]) == 0
        obs = Evidence.from_labels(net.schema, labeled)
        curve = hmm.prefix_curve(bank, serialize.load_trajectory(traj))
        predictions = [
            fusion.fuse_query(net, SoftActionEvidence(p, curve.actions), (effect,), obs).table
            for p in curve.posteriors
        ]
        assert len(curve) >= 10
        assert out.read_bytes() == reference_anticipation_csv(curve, predictions)
    for target, infer, points, labeled in [
        ("tap", None, 25, {"Size": "small", "Shape": "sphere", "ObjVel": "slow"}),
        ("grasp", "Action,Contact,ObjVel", 37, {}),
    ]:
        argv = ["sweep", "--bn", str(bn_path), "--target", target, "--points", str(points)]
        argv += [f"--ev={name}={label}" for name, label in labeled.items()]
        assert main([*argv, *(["--infer", infer] if infer else []), "--out", str(out)]) == 0
        obs = Evidence.from_labels(net.schema, labeled)
        infer_vars = infer and infer.split(",")
        sweep = fusion.confidence_sweep(net, obs, target, np.linspace(1 / 3, 1, points), infer_vars)
        assert out.read_bytes() == reference_sweep_csv(sweep)


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


def test_module_run_as_main_exits_with_the_code_main_returns(tmp_path, monkeypatch, capsys):
    """``python -m afftalk.cli``, run in this process: the ``__main__`` line
    hands main's exit code to ``SystemExit``."""
    monkeypatch.delitem(sys.modules, "afftalk.cli")  # runpy warns when it is loaded
    argv = ["afftalk", "infer", "--bn", str(tmp_path / "nope.txt"), "--infer", "Action"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("afftalk.cli", run_name="__main__")
    assert stop.value.code == 3
    assert "nope.txt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module, imports",
    [
        ("afftalk", []),
        ("afftalk.bn", []),
        ("afftalk.kernels", []),
        ("afftalk.grammar", []),
        ("afftalk.cli", ["bn", "fusion", "grammar", "hmm", "kernels", "schema", "serialize", "world"]),
    ],
)
def test_a_module_loads_only_the_package_modules_it_imports(module, imports):
    """The package root imports nothing, so the lower layers load alone.
    Checked in a child, since this process already holds every module."""
    probe = f"import sys, {module}; print(*sorted(n for n in sys.modules if n.startswith('afftalk.')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted({module, *(f"afftalk.{m}" for m in imports)} - {"afftalk"})


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


# Every kind of request the parser ends or hands on: help at both levels, a
# bare call, unknown commands and flags, missing and bad values, abbreviations,
# and flag values named like a command.
ARGV_SURFACE = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "infer"],
    ["--help", "simulate"],
    ["infer", "-h"],
    ["sweep", "--help"],
    ["train-bn", "-h", "simulate"],
    ["describe-all", "--bn", "bn.txt"],
    ["-h", "describe-all"],
    ["-x"],
    ["--config"],
    ["--config", "infer"],
    ["--config", "infer", "infer"],
    ["--config=infer", "infer", "-h"],
    ["--conf", "x", "infer"],
    ["infer", "--inf", "A"],
    ["infer", "--bogus"],
    ["infer", "extra"],
    ["infer", "infer"],
    *([command] for command in SUBCOMMANDS),
    ["describe", "--n", "3"],
    ["describe", "--bn", "bn.txt", "--k", "x"],
    ["describe", "--bn", "bn.txt", "--k"],
    ["train-bn", *REQUIRED["train-bn"], "--alpha", "0.5.1"],
    ["sweep", *REQUIRED["sweep"], "--points", "2.5"],
    ["simulate", "--out", "infer"],
    ["infer", "simulate"],
    ["infer", "--bn", "sweep", "--infer", "describe", "--bogus"],
    ["train-hmm", "--states"],
    ["train-hmm", *REQUIRED["train-hmm"], "--states", "3", "--mixtures", "2"],
    ["--config", "c.json", "describe", "--bn", "bn.txt", "--traj", "anticipate"],
]


SERVED_BEFORE = [
    "--config", "c.json", "infer", "--bn", "b.txt", "--infer", "A", "--ev", "A=1", "--ev", "B=2",
    "--bank", "h.txt", "--traj", "t.csv", "--out", "o.csv",
]


def _reference_parser() -> argparse.ArgumentParser:
    """The parser of all seven commands, each with every flag of its entry."""
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


def _recorded(monkeypatch) -> list:
    """Replace every handler by one that records its arguments."""
    seen = []
    for command in COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda a, c: seen.append(a) or 0)
    monkeypatch.setattr(cli, "_run_config", lambda args: None)
    return seen


@pytest.mark.parametrize("argv", ARGV_SURFACE, ids=lambda argv: " ".join(argv) or "(none)")
def test_argv_surface_matches_the_parser_of_every_command(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    seen = _recorded(monkeypatch)
    # the process's one parser has served a request that set every flag of a
    # command, so a value it left behind would show in the namespace below
    main(SERVED_BEFORE)
    seen.clear()
    try:
        expected = (0, vars(_reference_parser().parse_args(argv)))
    except SystemExit as exc:
        expected = (exc.code, None)
    reference = capsys.readouterr()
    try:
        got = (main(argv), vars(seen[0]) if seen else None)
    except SystemExit as exc:
        got = (exc.code, None)
    out = capsys.readouterr()
    assert got == expected
    assert (out.out, out.err) == (reference.out, reference.err)


# One request per kind the parser sees: a command, flag values named like
# commands, help at the top level, no command, a command's help and a usage error.
FIRST_REQUESTS = {
    "one command": ["infer", "--bn", "bn.txt", "--infer", "ObjVel"],
    "values named like commands": ["describe", "--bn", "sweep", "--traj", "infer"],
    "top-level help": ["--help"],
    "no command": [],
    "command help": ["sweep", "--help"],
    "usage error": ["describe", "--bn", "bn.txt", "--points", "3"],
}


def _request(argv) -> None:
    try:
        main(argv)
    except SystemExit:
        pass


@pytest.mark.parametrize("first", FIRST_REQUESTS.values(), ids=FIRST_REQUESTS)
def test_the_first_request_builds_every_subparser_and_later_ones_none(first, monkeypatch, capsys):
    _recorded(monkeypatch)
    calls = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction,
        "add_parser",
        lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw),
    )
    cli._parser.cache_clear()
    _request(first)
    assert calls == SUBCOMMANDS
    for argv in [*FIRST_REQUESTS.values(), *ARGV_SURFACE]:
        _request(argv)
    assert calls == SUBCOMMANDS
