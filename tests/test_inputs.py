"""The input boundary: malformed files, configs and flags map to exit codes.

The README's contract is 0 success, 3 missing file, 4 invalid input, 5
impossible evidence.  A malformed input must never surface as 1 (an
uncaught error) or 0 (silently accepted).
"""

import contextlib
import io
import itertools
import json
import math
import re
import string
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afftalk.bn import ENUM_CAP, BayesNet, Variable, WorldSchema
from afftalk.cli import _LIMITS, COMMANDS, RunConfig, main
from afftalk.hmm import GestureBank, Trajectory
from afftalk.serialize import (
    load_bayesnet,
    load_gesture_bank,
    load_trajectory,
    read_dataset,
    save_bayesnet,
    save_gesture_bank,
    save_trajectory,
    SerializeError,
    write_dataset,
)
from afftalk.world import default_config, generate_trials, sample_trajectory

from conftest import random_left_right_model

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, trained_net, trained_bank, world_config):
    """Valid model, bank and trajectory files plus a scratch directory."""
    root = tmp_path_factory.mktemp("inputs")
    save_bayesnet(root / "bn.txt", trained_net)
    save_gesture_bank(root / "hmm.txt", trained_bank)
    save_trajectory(root / "traj.csv", sample_trajectory("tap", world_config, seed=3))
    data, trajectories = generate_trials(world_config, 20, seed=1)
    write_dataset(root / "ds", replace(data, provenance="inputs"), trajectories, world_config.schema)
    (root / "bad").mkdir()
    return root


def _argv(kind: str, root: Path, path: Path) -> list:
    """A command that reads ``path`` as its input of the given kind."""
    bn, bank, traj = root / "bn.txt", root / "hmm.txt", root / "traj.csv"
    if kind in ("bn", "bank as bn"):
        return ["infer", "--bn", path, "--infer", "Action"]
    if kind == "bank":
        return ["infer", "--bn", bn, "--bank", path, "--traj", traj, "--infer", "ObjVel"]
    if kind == "traj":
        return ["infer", "--bn", bn, "--bank", bank, "--traj", path, "--infer", "ObjVel"]
    if kind == "config":
        return ["--config", path, "infer", "--bn", bn, "--infer", "Action"]
    if kind == "dataset":
        return ["train-bn", "--dataset", path.parent, "--out", root / "bad" / "trained.txt"]
    raise AssertionError(kind)


def _source(kind: str, root: Path) -> Path:
    names = {
        "bn": "bn.txt",
        "bank": "hmm.txt",
        "bank as bn": "hmm.txt",
        "traj": "traj.csv",
        "dataset": "ds/trials.txt",
    }
    return root / names[kind]


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _cpt_cell(lines):
    i = _first(lines, "cpt ") + 1
    lines[i] = "x " + lines[i].split(" ", 1)[1]
    return i


def _first_table(lines):
    """The header index and row count of the first CPT with two rows or more."""
    return next(
        (i, int(line.split()[2]))
        for i, line in enumerate(lines)
        if line.startswith("cpt ") and int(line.split()[2]) > 1
    )


def _cpt_rows_that_cancel_out(lines):
    """A CPT row with one number too many, then one with one too few."""
    i, _ = _first_table(lines)
    first, (second, moved) = lines[i + 1], lines[i + 2].rsplit(" ", 1)
    lines[i + 1 : i + 3] = [f"{first} {moved}", second]
    return i + 1


def _cpt_header_rows_off(lines):
    """A cpt header that promises one row more than its parents give: the
    next header is read as its last row."""
    i, rows = _first_table(lines)
    _, name, _, arity = lines[i].split()
    lines[i] = f"cpt {name} {rows + 1} {arity}"
    return i + rows + 1


def _cpt_cut_short(lines):
    """A CPT block without its last row: the next header is read in its place."""
    i, rows = _first_table(lines)
    del lines[i + rows]
    return i + rows


def _cut_after_a_whole_cpt(lines):
    """A network cut off where the second CPT would begin."""
    i = _first(lines, "cpt ")
    i += _first(lines[i + 1 :], "cpt ") + 1
    del lines[i:]
    return i


def _huge_cpt_rows(lines):
    """A header promising a billion rows: the next header is read as a row."""
    i = _first(lines, "cpt Action ")
    lines[i] = "cpt Action 1000000000 3"
    return i + 2


def _unsorted_parents(lines):
    """A variable's two parents swapped.  The network is built, and so
    checked, once its ``end`` line is read."""
    i = next(i for i, line in enumerate(lines) if line.startswith("parents ") and line.count(" ") > 2)
    lead, name, first, second, *rest = lines[i].split()
    lines[i] = " ".join([lead, name, second, first, *rest])
    return len(lines) - 1


def _row_off_one(lines):
    i = _first(lines, "cpt ") + 1
    lines[i] = "0.5 " + lines[i].split(" ", 1)[1]
    return len(lines) - 1


def _parent_cycle(lines):
    """The first variable with a parent made a parent of that parent too,
    whose CPT repeats its rows over the new parent's values."""
    names = [line.split()[1] for line in lines if line.startswith("var ")]
    arities = [line.count(" ") - 1 for line in lines if line.startswith("var ")]
    _, child, parent, *_ = next(
        line.split() for line in lines if line.startswith("parents ") and line.count(" ") > 1
    )
    at = _first(lines, f"parents {parent}")
    parents = sorted([*lines[at].split()[2:], child], key=names.index)
    lines[at] = " ".join(["parents", parent, *parents])
    head = _first(lines, f"cpt {parent} ")
    _, _, n_rows, arity = lines[head].split()
    shape = [arities[names.index(p)] for p in parents if p != child] + [int(arity)]
    table = np.array([row.split() for row in lines[head + 1 : head + 1 + int(n_rows)]])
    table = np.expand_dims(table.reshape(shape), parents.index(child))
    table = np.repeat(table, arities[names.index(child)], axis=parents.index(child))
    rows = [" ".join(row) for row in table.reshape(-1, int(arity))]
    lines[head : head + 1 + int(n_rows)] = [f"cpt {parent} {len(rows)} {arity}", *rows]
    return len(lines) - 1


def _blank_after_header(lines):
    lines.insert(1, "")
    return 1


def _variables_word(lines):
    lines[1] = "variables x"
    return 1


def _model_word(lines):
    i = _first(lines, "model ")
    lines[i] = "model grasp x 2 3"
    return i


def _ragged_row(lines):
    lines[3] += ",1.0"
    return 3


def _traj_word(lines):
    t, _, rest = lines[3].split(",", 2)
    lines[3] = f"{t},x,{rest}"
    return 3


def _model_without_dimensions(lines):
    i = _first(lines, "model ")
    lines[i] = lines[i].rsplit(" ", 1)[0] + " 0"
    return i


def _ragged_mean(lines):
    i = _first(lines, "mean ")
    lines[i] += " 1.0"
    return i


def _bank_word(lines):
    i = _first(lines, "var ")
    lines[i] = lines[i].rsplit(" ", 1)[0] + " x"
    return i


def _bank_line_without_lead(lines):
    """A ``var`` line that holds its numbers but not its ``var q c`` lead."""
    i = _first(lines, "var ")
    lines[i] = lines[i].split(" ", 3)[3]
    return i


def _huge_mixture_counts(lines):
    """A model line whose counts would take terabytes; its first mix line is short."""
    i = _first(lines, "model ")
    _, label, states, _, _ = lines[i].split()
    lines[i] = f"model {label} {states} 1000000 100000"
    return _first(lines, "mix ")


def _first_model_value(lines, prefix, value, field=-1):
    """The first ``prefix`` line's number at ``field`` (the last by default)
    replaced by ``value``.  Its model is built, and so checked, once the
    model's last line is read."""
    i = _first(lines, prefix)
    fields = lines[i].split(" ")
    fields[field] = value
    lines[i] = " ".join(fields)
    return i + _first(lines[i:], "model ") - 1


def _nan_mean(lines):
    return _first_model_value(lines, "mean ", "nan")


def _nan_variance(lines):
    return _first_model_value(lines, "var ", "nan")


def _infinite_variance(lines):
    return _first_model_value(lines, "var ", "inf")


def _mixture_row_off_one(lines):
    return _first_model_value(lines, "mix ", "0.5")


def _transition_row_off_one(lines):
    """The first state stays with probability 1 and still moves on."""
    return _first_model_value(lines, "logtrans ", "0", field=2)


def _negative_mixture_weight(lines):
    """The first state's weights -1, 2, 0, ...: they still sum to 1."""
    i = _first(lines, "mix ")
    n_mix = len(lines[i].split()) - 2
    lines[i] = " ".join(["mix", "0", "-1", "2"] + ["0"] * (n_mix - 2))
    return i + _first(lines[i:], "model ") - 1


def _repeated_label(lines):
    i = _first(lines, "var Color ")
    lines[i] = "var Color blue blue green1 green2"
    return i


def _two_models_for_one_action(lines):
    """The second model labelled like the first.  The bank is built, and so
    checked, once its ``end`` line is read."""
    first, second = [i for i, line in enumerate(lines) if line.startswith("model ")][:2]
    _, _, *counts = lines[second].split()
    lines[second] = " ".join(["model", lines[first].split()[1], *counts])
    return _first(lines, "end")


def _time_standing_still(lines):
    lines[4] = lines[3].split(",")[0] + "," + lines[4].split(",", 1)[1]
    return 4


def _no_coordinates(lines):
    lines[:] = ["t"] + [line.split(",")[0] for line in lines[1:]]
    return 0


def _no_frames(lines):
    del lines[1:]
    return 0


def _dataset_version_9(lines):
    lines[0] = "afftalk-model 9 dataset"
    return 0


def _dataset_without_header(lines):
    del lines[0]
    return 0


def _dataset_without_records(lines):
    del lines[3:]
    return None


def _dataset_version_1(lines):
    """The same trials in the version-1 layout of ``name=label`` fields."""
    names = lines[2].split()[:-1]
    records = []
    for i, row in enumerate(lines[3:]):
        *labels, traj = row.split()
        fields = [f"trial={i:05d}", *map("{}={}".format, names, labels)]
        records.append(" ".join(fields + ([] if traj == "-" else [f"traj={traj}"])))
    lines[:] = ["# afftalk-dataset 1", "# provenance: inputs", *records]
    return 0


def _model_version_1(lines):
    """A network in version 1, whose body is the same as version 2's."""
    lines[0] = lines[0].replace(" 2 ", " 1 ")
    return 0


def _bank_version_1(lines):
    """A bank in version 1, which stored transition probabilities."""
    for i, line in enumerate(lines):
        if line.startswith("logtrans "):
            _, q, *values = line.split()
            probabilities = (format(math.exp(float(v)), ".17g") for v in values)
            lines[i] = f"trans {q} " + " ".join(probabilities)
    return _model_version_1(lines)


def _columns_swapped(lines):
    lines[2] = lines[2].replace("Color Size", "Size Color")
    assert lines[2].split()[1] == "Size"
    return 2


def _row_without_traj_field(lines):
    lines[3] = lines[3].rsplit(" ", 1)[0]
    return 3


def _unknown_label(lines):
    lines[3] = "kick " + lines[3].split(" ", 1)[1]
    return 3


def _unchanged(lines):
    return 0


# (id, input kind, edit of the valid file's lines returning the 0-based
# index of the line an error must name, or None for an error about the
# whole file)
FILE_CASES = [
    ("non-numeric CPT cell", "bn", _cpt_cell),
    ("adjacent CPT rows whose field counts cancel out", "bn", _cpt_rows_that_cancel_out),
    ("cpt header whose row count disagrees with the parents", "bn", _cpt_header_rows_off),
    ("CPT block cut one row short", "bn", _cpt_cut_short),
    ("network cut off after a whole CPT", "bn", _cut_after_a_whole_cpt),
    ("cpt header with a huge row count", "bn", _huge_cpt_rows),
    ("network with unsorted parents", "bn", _unsorted_parents),
    ("CPT row that does not sum to 1", "bn", _row_off_one),
    ("network with a parent cycle", "bn", _parent_cycle),
    ("blank line after the bayesnet header", "bn", _blank_after_header),
    ("variables x", "bn", _variables_word),
    ("bank line model grasp x 2 3", "bank", _model_word),
    ("ragged trajectory row", "traj", _ragged_row),
    ("non-numeric trajectory cell", "traj", _traj_word),
    ("model with zero dimensions", "bank", _model_without_dimensions),
    ("ragged bank mean line", "bank", _ragged_mean),
    ("non-numeric bank cell", "bank", _bank_word),
    ("bank line without its lead", "bank", _bank_line_without_lead),
    ("model line with huge mixture counts", "bank", _huge_mixture_counts),
    ("NaN mean in a bank", "bank", _nan_mean),
    ("NaN variance in a bank", "bank", _nan_variance),
    ("infinite variance in a bank", "bank", _infinite_variance),
    ("bank with two models for one action", "bank", _two_models_for_one_action),
    ("bank mixture row that does not sum to 1", "bank", _mixture_row_off_one),
    ("bank transition row that does not sum to 1", "bank", _transition_row_off_one),
    ("negative mixture weight", "bank", _negative_mixture_weight),
    ("network var line that repeats a label", "bn", _repeated_label),
    ("time column standing still", "traj", _time_standing_still),
    ("trajectory without coordinates", "traj", _no_coordinates),
    ("trajectory without frames", "traj", _no_frames),
    ("dataset format version 9", "dataset", _dataset_version_9),
    ("dataset without a header", "dataset", _dataset_without_header),
    ("dataset without trial records", "dataset", _dataset_without_records),
    ("version 1 dataset", "dataset", _dataset_version_1),
    ("version 1 bn.txt", "bn", _model_version_1),
    ("version 1 hmm.txt", "bank", _bank_version_1),
    ("dataset columns that differ from the schema", "dataset", _columns_swapped),
    ("ragged dataset row", "dataset", _row_without_traj_field),
    ("unknown label in a dataset row", "dataset", _unknown_label),
    ("bank file passed as --bn", "bank as bn", _unchanged),
]


@pytest.mark.parametrize("kind,edit", [c[1:] for c in FILE_CASES], ids=[c[0] for c in FILE_CASES])
def test_malformed_file_exits_4_naming_path_and_line(inputs, kind, edit):
    lines = _source(kind, inputs).read_text().splitlines()
    index = edit(lines)
    path = inputs / "bad" / _source(kind, inputs).name
    path.write_text("\n".join(lines) + "\n")
    code, err = _exit_code(_argv(kind, inputs, path))
    assert code == 4, err
    where = path if index is None else f"{path}:{index + 1}"
    assert f"error[SerializeError]: {where}: " in err


# (id, config file text or None, extra flags)
CONFIG_CASES = [
    ("sweep --points -1", None, ["--points", "-1"]),
    ("seed x", '{"seed": "x"}', []),
    ("config [1]", "[1]", []),
    ("config not JSON", "{seed: 1", []),
    ("config trials -5", '{"trials": -5}', []),
    ("simulate --trials -5", None, ["--trials", "-5"]),
    ("simulate --trials 1000001", None, ["--trials", "1000001"]),
    ("sweep --points 100001", None, ["--points", "100001"]),
    ("describe --k 1001", None, ["--k", "1001"]),
    ("train-hmm --mixtures 101", None, ["--mixtures", "101"]),
    ("config t_max 1001", '{"t_max": 1001}', []),
    ("bool for an int", '{"states": true}', []),
    ("NaN alpha", '{"alpha": NaN}', []),
    ("infinite noise", '{"noise_std": Infinity}', []),
    ("float seed", '{"seed": 1.5}', []),
    ("t_min above t_max", '{"t_min": 30, "t_max": 20}', []),
    ("unsupported version", '{"version": 2}', []),
    ("--ev naming a variable twice", None, ["--ev", "Shape=box,Shape=sphere"]),
    ("--ev token without =", None, ["--ev", "Shape"]),
    ("infer --infer naming a variable twice", None, ["--infer", "Color,Color"]),
    ("--bank without --traj", None, ["--bank", "{inputs}/hmm.txt"]),
    ("--traj without --bank", None, ["--traj", "{inputs}/traj.csv"]),
    ("sweep --infer ,", None, ["--infer", ","]),
    ("sweep --infer ''", None, ["--infer", ""]),
    ("infer --infer ,", None, ["--infer", ","]),
]


def _base_argv(command: str, inputs: Path, out: Path) -> list:
    """A valid request of ``command``, which the case's flags then override."""
    bn = inputs / "bn.txt"
    return {
        "simulate": ["simulate", "--out", out],
        "train-hmm": ["train-hmm", "--dataset", inputs / "ds", "--out", out],
        "infer": ["infer", "--bn", bn, "--infer", "ObjVel", "--out", out],
        "describe": ["describe", "--bn", bn, "--out", out],
        "sweep": ["sweep", "--bn", bn, "--target", "tap", "--out", out],
    }[command]


@pytest.mark.parametrize("case", CONFIG_CASES, ids=[c[0] for c in CONFIG_CASES])
def test_bad_config_or_flag_exits_4_before_any_work(inputs, tmp_path, case):
    """A row runs the command its id starts with; the others run ``infer``
    when they pass an input flag, and ``simulate`` otherwise."""
    name, text, flags = case
    command = name.split()[0]
    if command not in COMMANDS:
        command = "infer" if {"--ev", "--bank", "--traj"} & set(flags) else "simulate"
    out = tmp_path / "out"
    argv = []
    if text is not None:
        (tmp_path / "config.json").write_text(text)
        argv = ["--config", tmp_path / "config.json"]
    argv += _base_argv(command, inputs, out)
    code, err = _exit_code(argv + [f.format(inputs=inputs) for f in flags])
    assert code == 4, err
    assert "error[BnError]" in err
    assert not out.exists()


def test_simulate_with_overflowing_noise_exits_4_writing_nothing(tmp_path):
    (tmp_path / "config.json").write_text('{"noise_std": 1e200}')
    out = tmp_path / "out"
    code, err = _exit_code(["--config", tmp_path / "config.json", "simulate", "--out", out])
    assert code == 4, err
    assert "error[HmmError]: trajectory overflows" in err
    assert not out.exists()


def test_simulate_with_large_finite_noise_still_writes_unit_trajectories(tmp_path):
    (tmp_path / "config.json").write_text('{"noise_std": 1e150}')
    out = tmp_path / "out"
    argv = ["--config", tmp_path / "config.json", "simulate", "--out", out, "--trials", "30"]
    assert _exit_code(argv) == (0, "")
    paths = sorted((out / "traj").glob("*.csv"))
    assert len(paths) == 30
    for path in paths:
        frames = load_trajectory(path).frames
        assert np.sqrt((frames * frames).sum(axis=1)).max() == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["infer", "sweep"])
@pytest.mark.parametrize("names", [",", "", " , "])
def test_empty_infer_list_is_rejected_before_the_network_loads(tmp_path, command, names):
    """The network path does not exist: reading it first would exit 3."""
    argv = _base_argv(command, tmp_path, tmp_path / "out") + ["--infer", names]
    code, err = _exit_code(argv)
    assert code == 4, err
    assert f"error[BnError]: --infer must name at least one variable, got {names!r}" in err


@pytest.mark.parametrize(
    "command, n_words, flags, error",
    [
        ("infer", 40, [], "a factor over 30 variables has 1610612736 cells"),
        ("sweep", 18, ["--points", "100000"], "the weighted tables have 78643200000 cells"),
    ],
    ids=["infer 40 words", "sweep 18 words at 100,000 points"],
)
def test_tables_over_the_cap_exit_4_before_they_are_allocated(inputs, tmp_path, command, n_words, flags, error):
    """Answering these would take tables of 12 GiB and 586 GiB: numpy's
    MemoryError would escape as a stray exit 1."""
    words = load_bayesnet(inputs / "bn.txt").schema.word_variables()
    argv = _base_argv(command, inputs, tmp_path / "out") + flags
    code, err = _exit_code(argv + ["--infer", ",".join(words[:n_words])])
    assert code == 4, err
    assert f"error[StateSpaceError]: {error}, more than the cap of {ENUM_CAP}\n" in err
    assert not (tmp_path / "out").exists()


def test_evidence_naming_a_variable_twice_names_it(inputs):
    argv = ["infer", "--bn", inputs / "bn.txt", "--infer", "Action"]
    code, err = _exit_code([*argv, "--ev", "Shape=box", "--ev", "Size=big,Shape=box"])
    assert code == 4
    assert "'Shape' twice" in err


def test_evidence_label_outside_the_schema_and_empty_evidence_tokens(inputs):
    """An unknown label exits 4 listing the variable's labels; empty tokens
    between commas are skipped."""
    argv = ["infer", "--bn", inputs / "bn.txt", "--infer", "ObjVel", "--ev"]
    code, err = _exit_code([*argv, "Color=purple"])
    assert code == 4, err
    choices = "(choices: blue, yellow, green1, green2)"
    assert f"error[EvidenceError]: variable 'Color' has no value 'purple' {choices}" in err
    stdout = []
    for ev in (",Color=blue,", "Color=blue"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in [*argv, ev]]) == 0
        stdout.append(out.getvalue())
    assert stdout[0] == stdout[1]


@pytest.mark.parametrize("kind", ["bn", "bank", "traj", "config"])
@pytest.mark.parametrize("missing", ["absent", ".", "bn.txt/below"])
def test_missing_input_file_exits_3(inputs, kind, missing):
    code, err = _exit_code(_argv(kind, inputs, inputs / missing))
    assert code == 3, err


@pytest.mark.parametrize("kind", ["bn", "bank", "traj"])
def test_file_that_is_not_text_exits_4(inputs, kind):
    path = inputs / "bad" / f"binary-{kind}"
    path.write_bytes(b"\xff\xfe\x00afftalk")
    code, err = _exit_code(_argv(kind, inputs, path))
    assert code == 4, err
    assert f"error[SerializeError]: {path}: not UTF-8 text" in err


@pytest.mark.parametrize("per_action", ["0", "1"])
def test_output_directory_blocked_by_a_file_exits_3(tmp_path, per_action):
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    argv = ["simulate", "--out", blocker, "--trials", "30"]
    code, err = _exit_code(argv + ["--trajectories-per-action", per_action])
    assert code == 3, err
    assert blocker.read_text() == "a file\n"


def _scoring(command: str, inputs: Path, path: Path) -> list:
    """``command`` scoring the trajectory at ``path`` against the bank;
    ``anticipate`` writes its CSV beside it, as ``<stem>-out.csv``."""
    argv = [command, "--bn", inputs / "bn.txt", "--bank", inputs / "hmm.txt", "--traj", path]
    if command == "anticipate":
        return argv + ["--out", path.with_name(f"{path.stem}-out.csv")]
    return argv + ["--infer", "ObjVel"]


@pytest.mark.parametrize("command", ["anticipate", "infer"])
def test_coordinates_that_overflow_the_emissions_exit_4_naming_the_file(inputs, command):
    """Squared distances past the float range: named as the cause, with no
    numpy warning (which the test run turns into an error, and so exit 1)."""
    path = inputs / "bad" / "huge.csv"
    path.write_text("t,x,y,z\n0,1e300,1e300,1e300\n0.1,1e300,1e300,1e300\n")
    code, err = _exit_code(_scoring(command, inputs, path))
    assert code == 4, err
    message = "the trajectory's coordinates overflow the emission densities"
    assert f"error[HmmError]: {path}: {message}" in err
    assert not (inputs / "bad" / "huge-out.csv").exists()


@pytest.mark.parametrize("command", ["anticipate", "infer"])
def test_trajectory_of_another_dimension_than_the_bank_exits_4_naming_the_file(inputs, command):
    path = inputs / "bad" / "flat.csv"
    path.write_text("t,x,y\n0,0.1,0.2\n0.1,0.3,0.4\n0.2,0.5,0.6\n")
    code, err = _exit_code(_scoring(command, inputs, path))
    assert code == 4, err
    message = "trajectory dimension 2 does not match model dimension 3"
    assert f"error[HmmError]: {path}: {message}" in err
    assert not (inputs / "bad" / "flat-out.csv").exists()


def test_alpha_that_overflows_the_smoothed_counts_exits_4_naming_it(inputs, tmp_path):
    out = tmp_path / "bn.txt"
    code, err = _exit_code(["train-bn", "--dataset", inputs / "ds", "--out", out, "--alpha", "1e308"])
    assert code == 4, err
    assert "error[BnError]: alpha=1e+308 overflows the smoothed counts of 'Action'" in err
    assert not out.exists()


def test_missing_dataset_exits_3(inputs, tmp_path):
    code, err = _exit_code(["train-bn", "--dataset", tmp_path, "--out", tmp_path / "bn.txt"])
    assert code == 3, err


def test_flags_override_the_config_file(inputs, tmp_path):
    (tmp_path / "config.json").write_text('{"trials": -5, "seed": 4}')
    argv = ["--config", tmp_path / "config.json", "simulate", "--out", tmp_path / "ds"]
    code, _ = _exit_code(argv + ["--trials", "7"])
    assert code == 0
    data, _ = read_dataset(tmp_path / "ds", default_config().schema)
    assert len(data) == 7
    assert data.provenance == "synthetic world seed=4"


def test_every_config_field_but_the_version_has_a_range():
    RunConfig().validate()
    assert set(_LIMITS) == {f.name for f in fields(RunConfig)} - {"version"}


def test_readme_config_table_matches_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme[readme.index("| key ") :].splitlines()[2:]
    table = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"), rows):
        key, default, _, flag, commands = (cell.strip() for cell in line.strip("|").split("|"))
        name = re.match(r"`(\w+)`", key).group(1)
        table[name] = (default, flag.strip("`"), re.findall(r"`([\w-]+)`", commands))
    assert list(table) == [f.name for f in fields(RunConfig)]
    for f in fields(RunConfig):
        default, flag, commands = table[f.name]
        assert default == str(f.default), f.name
        declared = [
            (command, given)
            for command, (_, flags) in COMMANDS.items()
            for given, field, _ in flags
            if field == f.name
        ]
        assert {given for _, given in declared} == ({flag} if flag else set()), f.name
        assert [command for command, _ in declared] == commands, f.name


def test_dataset_errors_name_the_line_and_variable(tmp_path):
    schema = default_config().schema
    write_dataset(tmp_path, *generate_trials(default_config(), 3, seed=1), schema)
    path = tmp_path / "trials.txt"
    lines = path.read_text().splitlines()
    columns, row = lines[2].split(), lines[3].split()
    assert columns[3] == "Shape"
    for lineno, broken, message in [
        (4, [*row[:3], "cone", *row[4:]], "unknown label 'cone' for variable 'Shape'"),
        (4, row[:-1], "row ends before column 'traj': expected 58 fields, found 57"),
        (4, row[:3] + row[4:], "row ends before column 'traj': expected 58 fields, found 57"),
        (4, [], "row ends before column 'Action': expected 58 fields, found 0"),
        (4, [*row, "junk"], "row runs past the last column 'traj': expected 58 fields, found 59"),
        (3, [*columns[:3], "Form", *columns[4:]], "expected column 'Shape', found 'Form'"),
        (3, columns[:-1], "expected column 'traj', found end of line"),
        (3, [*columns, "Mood"], "unexpected column 'Mood' after 'traj'"),
    ]:
        text = list(lines)
        text[lineno - 1] = " ".join(broken)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SerializeError, match=re.escape(f"{path}:{lineno}: {message}")):
            read_dataset(tmp_path, schema)


def test_dataset_header_and_empty_dataset_errors(tmp_path):
    schema = default_config().schema
    write_dataset(tmp_path, *generate_trials(default_config(), 3, seed=1), schema)
    path = tmp_path / "trials.txt"
    lines = path.read_text().splitlines()
    header = ":1: expected 'afftalk-model <version> dataset' header"
    for text, message in [
        (["afftalk-model 9 dataset", *lines[1:]], ":1: unsupported format version 9"),
        (["# afftalk-dataset 1", *lines[1:]], header),
        (["afftalk-model 2 bayesnet", *lines[1:]], header),
        (lines[1:], header),
        ([], ":1: truncated file"),
        (lines[:1], ":2: truncated file"),
        ([lines[0], "origin x", *lines[2:]], ":2: expected a line starting 'provenance'"),
        (lines[:2], ":3: truncated file"),
        (lines[:3], ": no trial records"),
    ]:
        path.write_text("".join(line + "\n" for line in text))
        with pytest.raises(SerializeError, match=re.escape(f"{path}{message}")):
            read_dataset(tmp_path, schema)


def test_dataset_provenance_after_leading_whitespace(tmp_path):
    schema = default_config().schema
    write_dataset(tmp_path, *generate_trials(default_config(), 3, seed=1), schema)
    path = tmp_path / "trials.txt"
    lines = path.read_text().splitlines()
    for line in ("  provenance synthetic world seed=1", "\tprovenance\tsynthetic world seed=1"):
        path.write_text("\n".join([lines[0], line, *lines[2:]]) + "\n")
        assert read_dataset(tmp_path, schema)[0].provenance == "synthetic world seed=1"


# ---------------------------------------------------------------------------
# round trips


def _assert_same_arrays(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_models(a, b):
    """Two loads of one file hold bitwise equal arrays."""
    if isinstance(a, BayesNet):
        assert a.schema == b.schema and a.parents == b.parents
        pairs = zip(a.cpts, b.cpts, strict=True)
    elif isinstance(a, GestureBank):
        assert a.actions == b.actions
        names = ("log_trans", "weights", "means", "variances")
        pairs = [(getattr(m, k), getattr(n, k)) for m, n in zip(a.models, b.models) for k in names]
    else:
        assert a.frame_period == b.frame_period
        pairs = [(a.frames, b.frames)]
    for x, y in pairs:
        _assert_same_arrays(x, y)


def _spaced(lines: list[str], sep: str | None) -> list[str]:
    """The lines with runs of spaces and tabs around their fields, and the
    counts of ``variables``, ``models``, ``cpt`` and ``model`` lines written
    as ``+2`` and ``02``."""
    pads = [" ", "  ", "\t", " \t "]
    spaced = []
    for k, line in enumerate(lines):
        parts = line.split(sep)
        if parts[0] in ("variables", "models", "cpt", "model"):
            lead = 2 if parts[0] in ("cpt", "model") else 1
            parts[lead:] = [("+" if j % 2 else "0") + p for j, p in enumerate(parts[lead:])]
        if sep is None:
            line = pads[k % 3] * (k % 2) + pads[k % 4].join(parts) + pads[(k + 1) % 4] * (k % 3)
        else:  # spaces and tabs around a trajectory's numbers
            line = sep.join(pads[(k + j) % 4] * (j % 2) + p for j, p in enumerate(parts)) + " "
        spaced.append(line)
    return spaced


def test_spaced_model_files_load_to_the_canonical_arrays(inputs, tmp_path):
    """The default-seed network (10k trials, seed 1234), a bank of the
    default size and a trajectory, respaced and with their counts written
    as ``+2`` or ``02``, load to the arrays of the files as saved."""
    loaders = [
        (load_bayesnet, "bn.txt", None),
        (load_gesture_bank, "hmm.txt", None),
        (load_trajectory, "traj.csv", ","),
    ]
    for load, name, sep in loaders:
        lines = (inputs / name).read_text().splitlines()
        spaced = _spaced(lines, sep)
        assert spaced != lines
        (tmp_path / name).write_text("\n".join(spaced) + "\n")
        _assert_same_models(load(tmp_path / name), load(inputs / name))


_NAME = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=6)


@st.composite
def networks(draw) -> BayesNet:
    n = draw(st.integers(1, 5))
    variables = tuple(
        Variable(f"V{i}", tuple(draw(st.lists(_NAME, min_size=2, max_size=3, unique=True))))
        for i in range(n)
    )
    schema = WorldSchema(variables)
    parents = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, i - 1), max_size=2)))) if i else ()
        for i in range(n)
    )
    cpts = []
    for i, ps in enumerate(parents):
        shape = tuple(schema.arities[p] for p in ps) + (schema.arities[i],)
        cells = draw(
            st.lists(
                st.floats(1e-300, 1.0),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        table = np.array(cells).reshape(shape)
        cpts.append(table / table.sum(axis=-1, keepdims=True))
    return BayesNet(schema, parents, tuple(cpts))


@PROPERTY
@given(net=networks())
def test_bayesnet_round_trip_property(tmp_path, net):
    save_bayesnet(tmp_path / "net.txt", net)
    loaded = load_bayesnet(tmp_path / "net.txt")
    assert loaded.schema == net.schema
    assert loaded.parents == net.parents
    for a, b in zip(loaded.cpts, net.cpts):
        assert a.shape == b.shape and np.array_equal(a, b)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_models=st.integers(1, 3),
    n_states=st.integers(1, 4),
    n_mix=st.integers(1, 3),
    dim=st.integers(1, 3),
)
def test_gesture_bank_round_trip_property(tmp_path, seed, n_models, n_states, n_mix, dim):
    rng = np.random.default_rng(seed)
    bank = GestureBank(
        tuple(
            random_left_right_model(rng, n_states, n_mix, dim, label=f"a{k}")
            for k in range(n_models)
        )
    )
    save_gesture_bank(tmp_path / "bank.txt", bank)
    loaded = load_gesture_bank(tmp_path / "bank.txt")
    assert loaded.actions == bank.actions
    for a, b in zip(loaded.models, bank.models):
        assert np.array_equal(a.log_trans, b.log_trans)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)


@PROPERTY
@given(
    frames=st.integers(1, 12).flatmap(
        lambda t: st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
                min_size=t,
                max_size=t,
            )
        )
    ),
    period=st.floats(1e-6, 10.0),
)
def test_trajectory_round_trip_property(tmp_path, frames, period):
    traj = Trajectory(frames=np.array(frames), frame_period=period)
    save_trajectory(tmp_path / "traj.csv", traj)
    loaded = load_trajectory(tmp_path / "traj.csv")
    assert np.array_equal(loaded.frames, traj.frames)
    if len(traj) > 1:
        assert loaded.frame_period == period


@settings(PROPERTY, max_examples=10)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 30),
    per_action=st.integers(0, 2),
    provenance=st.text(string.ascii_letters + string.digits + " =:-", max_size=20).map(str.strip),
)
def test_dataset_round_trip_property(tmp_path, seed, n, per_action, provenance):
    config = default_config()
    data, trajectories = generate_trials(config, n, seed=seed, trajectories_per_action=per_action)
    with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
        write_dataset(directory, replace(data, provenance=provenance), trajectories, config.schema)
        loaded, traj_paths = read_dataset(directory, config.schema)
        frames = {row: load_trajectory(path).frames for row, path in traj_paths.items()}
    assert loaded.provenance == provenance
    assert np.array_equal(loaded.rows, data.rows)
    assert sorted(traj_paths) == sorted(trajectories)
    for row, loaded_frames in frames.items():
        assert np.array_equal(loaded_frames, trajectories[row].frames)


# ---------------------------------------------------------------------------
# corrupted inputs


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def corruptions(draw, lines: list[str], sep: str | None, last_drop: int, free: int = -1):
    """One corruption of a line-oriented file that leaves it malformed.

    A line up to index ``last_drop`` is dropped, a line is blanked, a field
    is removed, or a number is replaced by a word.  Dropping a trajectory's
    data row leaves a valid shorter trajectory, so a trajectory only drops
    its header, and a dataset only one of its three header lines.  Line
    ``free`` holds free text after its first field (a dataset's provenance),
    so only that first field is removed from it.
    """
    lines = list(lines)
    joiner = " " if sep is None else sep
    op = draw(st.sampled_from(["drop", "blank", "remove field", "word for number"]))
    if op == "drop":
        del lines[draw(st.integers(0, last_drop))]
    elif op == "blank":
        lines[draw(st.integers(0, len(lines) - 1))] = ""
    elif op == "remove field":
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(sep)
        del parts[draw(st.integers(0, 0 if i == free else len(parts) - 1))]
        lines[i] = joiner.join(parts)
    else:
        numeric = [i for i, line in enumerate(lines) if any(map(_is_number, line.split(sep)))]
        i = draw(st.sampled_from(numeric))
        parts = lines[i].split(sep)
        j = draw(st.sampled_from([j for j, p in enumerate(parts) if _is_number(p)]))
        parts[j] = draw(st.sampled_from(["x", "word", "one", "NA"]))
        lines[i] = joiner.join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["bn", "bank", "traj", "dataset"])
@PROPERTY
@given(data=st.data())
def test_corrupted_file_never_exits_0_or_1(inputs, kind, data):
    source = _source(kind, inputs)
    lines = source.read_text().splitlines()
    sep = "," if kind == "traj" else None
    last_drop = {"traj": 0, "dataset": 2}.get(kind, len(lines) - 1)
    free = 1 if kind == "dataset" else -1
    text = data.draw(corruptions(lines, sep, last_drop, free))
    path = inputs / "bad" / kind / source.name
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    code, err = _exit_code(_argv(kind, inputs, path))
    assert code in (3, 4, 5), err


@PROPERTY
@given(data=st.data())
def test_corrupted_config_never_exits_0_or_1(inputs, data):
    """A valid config with one value removed, made a bare word or out of
    type or range, or the text cut short."""
    config = asdict(RunConfig())
    name = data.draw(st.sampled_from(sorted(config)))
    op = data.draw(st.sampled_from(["remove value", "bare word", "bad value", "truncate"]))
    if op == "bad value":
        bad = [True, "x", None, [1], -1, math.nan, math.inf]
        if isinstance(config[name], int):
            bad.append(0.5)
        config[name] = data.draw(st.sampled_from(bad))
    text = json.dumps(config, indent=1)
    if op in ("remove value", "bare word"):
        word = "" if op == "remove value" else data.draw(st.sampled_from(["x", "seed", "one"]))
        text = re.sub(rf'("{name}": )[^,\n]+', rf"\g<1>{word}", text)
    elif op == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    path = inputs / "bad" / "config.json"
    path.write_text(text)
    code, err = _exit_code(_argv("config", inputs, path))
    assert code in (3, 4, 5), err
