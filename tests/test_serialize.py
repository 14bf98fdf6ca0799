import csv
import io
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from afftalk import serialize
from afftalk.bn import (
    BOOL_LABELS,
    Dataset,
    Evidence,
    JointTable,
    WorldSchema,
    build_network,
    fit_parameters,
    query,
)
from afftalk.cli import main
from afftalk.fusion import SweepResult
from afftalk.grammar import NBestList, Sentence
from afftalk.hmm import PrefixCurve, Trajectory, train_bank
from afftalk.serialize import (
    _BLOCK,
    SerializeError,
    _fmt,
    _numeric_rows,
    load_bayesnet,
    load_gesture_bank,
    load_trajectory,
    read_dataset,
    save_bayesnet,
    save_gesture_bank,
    save_trajectory,
    write_anticipation_csv,
    write_dataset,
    write_nbest_csv,
    write_sweep_csv,
    write_table_csv,
)
from afftalk.world import default_config, generate_trials, sample_trajectory

from conftest import random_binary_net, reference_anticipation_csv, reference_sweep_csv


def test_bayesnet_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    net = random_binary_net(rng, 9)
    path = tmp_path / "net.txt"
    save_bayesnet(path, net)
    loaded = load_bayesnet(path)
    assert loaded.schema.names == net.schema.names
    assert loaded.parents == net.parents
    for a, b in zip(loaded.cpts, net.cpts):
        assert np.array_equal(a, b)  # 17 significant digits round-trip doubles


def test_bayesnet_round_trip_default_schema(tmp_path):
    config = default_config()
    data, _ = generate_trials(config, 200, seed=8)
    from afftalk.schema import layered_candidates
    from afftalk.bn import greedy_structure_fit

    parents = greedy_structure_fit(data, config.schema, 2, layered_candidates(config.schema))
    net = fit_parameters(build_network(config.schema, parents), data)
    path = tmp_path / "net.txt"
    save_bayesnet(path, net)
    loaded = load_bayesnet(path)
    ev = Evidence.from_labels(loaded.schema, {"Shape": "sphere"})
    a = query(net, ["ObjVel"], ev)
    b = query(loaded, ["ObjVel"], ev)
    assert np.array_equal(a.probs, b.probs)


def test_bayesnet_header_and_truncation_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(SerializeError, match="header"):
        load_bayesnet(path)
    rng = np.random.default_rng(1)
    net = random_binary_net(rng, 4)
    good = tmp_path / "net.txt"
    save_bayesnet(good, net)
    text = good.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(text[:5]) + "\n")
    with pytest.raises(SerializeError, match="truncated"):
        load_bayesnet(tmp_path / "cut.txt")


def test_gesture_bank_round_trip_is_exact(tmp_path):
    config = default_config()
    trajs = {
        a: [sample_trajectory(a, config, seed=100 * i + j) for j in range(4)]
        for i, a in enumerate(("grasp", "tap", "touch"))
    }
    bank = train_bank(trajs, n_states=3, n_mix=2, seed=0)
    path = tmp_path / "bank.txt"
    save_gesture_bank(path, bank)
    loaded = load_gesture_bank(path)
    assert loaded.actions == bank.actions
    for a, b in zip(loaded.models, bank.models):
        assert np.array_equal(a.log_trans, b.log_trans)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    traj = Trajectory(frames=rng.normal(0, 1, (25, 3)), frame_period=1 / 30)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert path.read_text().splitlines()[0] == "t,x,y,z"
    loaded = load_trajectory(path)
    assert np.array_equal(loaded.frames, traj.frames)
    assert loaded.frame_period == pytest.approx(traj.frame_period, rel=1e-12)


def test_trajectory_bytes_equal_per_value_formatting(tmp_path):
    """One ``%.17g`` template per frame writes what formatting each value did."""
    rng = np.random.default_rng(5)
    frames = rng.normal(0, 1, (7, 3))
    frames[2, 1] = -0.0
    frames[3] = [1e-300, -5e-324, 1.7976931348623157e308]
    cases = [
        Trajectory(frames=frames, frame_period=1 / 30),
        Trajectory(frames=frames[:1], frame_period=1 / 30),
        Trajectory(frames=-frames, frame_period=5e-324),
        Trajectory(frames=frames[:4], frame_period=1e-17),
        Trajectory(frames=rng.normal(0, 1, (3, 5)), frame_period=0.1),
        sample_trajectory("tap", default_config(), seed=3),
    ]
    for traj in cases:
        header = "t," + ",".join("xyz"[d] if traj.dim <= 3 else f"d{d}" for d in range(traj.dim))
        lines = [header] + [
            ",".join(format(v, ".17g") for v in [i * traj.frame_period, *frame])
            for i, frame in enumerate(traj.frames)
        ]
        save_trajectory(tmp_path / "traj.csv", traj)
        assert (tmp_path / "traj.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


# values whose text is easy to get wrong: signs of zero and infinity, NaN,
# the smallest subnormal, the largest double, a rounded sum, whole numbers
SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, 1.0, 10.0, -7.0, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 123456789012345678.0,
]


def test_the_row_template_writes_what_fmt_writes():
    values = SPECIAL_FLOATS + np.random.default_rng(8).normal(0, 1e3, 200).tolist()
    for x in values:
        assert _fmt(x) == "%.17g" % x
        assert _fmt(np.float64(x)) == "%.17g" % np.float64(x) == _fmt(x)
    table = np.array(values).reshape(-1, 3)
    expected = "".join(",".join(map(_fmt, row)) + "\r\n" for row in table)
    assert _numeric_rows(table, "\r\n") == expected


def test_numeric_csvs_equal_csv_writer_with_fmt_per_cell(tmp_path):
    """Hand-built results, with labels csv must quote and ``t`` past 9."""
    rng = np.random.default_rng(13)
    n = 12
    scores = rng.normal(-20, 30, (n, 3))
    scores[0] = [-np.inf, 5e-324, 1e-300]
    scores[9] = [-0.0, -np.inf, 1.7976931348623157e308]
    posteriors = rng.dirichlet(np.ones(3), n)
    posteriors[1] = [1.0, 0.0, 5e-324]
    curve = PrefixCurve(
        actions=("grasp", "a,b", 'say "tap"'),
        log_liks=scores,
        scores=scores,
        posteriors=posteriors,
    )
    effects = rng.dirichlet(np.ones(2), n)
    effects[3] = [1e-300, 1.0]
    predictions = [JointTable(("ObjVel",), (("slow", "a,b"),), p) for p in effects]
    write_anticipation_csv(tmp_path / "anticipate.csv", curve, predictions)
    assert (tmp_path / "anticipate.csv").read_bytes() == reference_anticipation_csv(
        curve, predictions
    )
    header = (tmp_path / "anticipate.csv").read_bytes().split(b"\r\n")[0]
    assert b',"score_a,b","score_say ""tap""",' in header and header.endswith(b',"ObjVel=a,b"')

    grid = (*np.linspace(1 / 3, 1, 10).tolist(), 5e-324, 0.1 + 0.2)
    cells = rng.dirichlet(np.ones(6), len(grid))
    cells[0, :3] = [-np.inf, 1e-300, -0.0]
    sweep = SweepResult(
        grid=grid,
        variables=("Action", "Contact"),
        labels=(("grasp", "a,b", "touch"), ("yes", "no")),
        posteriors=cells.reshape(len(grid), 3, 2),
    )
    write_sweep_csv(tmp_path / "sweep.csv", sweep)
    assert (tmp_path / "sweep.csv").read_bytes() == reference_sweep_csv(sweep)
    assert b',"Action=a,b_Contact=yes",' in (tmp_path / "sweep.csv").read_bytes()


def test_dataset_round_trip(tmp_path):
    config = default_config()
    # more rows than one chunk of the writer, and a short last chunk
    data, trajectories = generate_trials(config, 2500, seed=3, trajectories_per_action=2)
    assert data.provenance == "synthetic world seed=3"
    write_dataset(tmp_path / "ds", replace(data, provenance="seed=3"), trajectories, config.schema)
    loaded, traj_paths = read_dataset(tmp_path / "ds", config.schema)
    assert loaded.provenance == "seed=3"
    assert len(loaded) == 2500
    assert np.array_equal(loaded.rows, data.rows)
    assert sorted(traj_paths) == sorted(trajectories) and len(trajectories) == 6
    for row, path in traj_paths.items():
        assert np.array_equal(load_trajectory(path).frames, trajectories[row].frames)
    # the column line names the schema, and the rows hold labels, not indices
    lines = (tmp_path / "ds" / "trials.txt").read_text().splitlines()
    assert lines[2].split() == [*config.schema.names, "traj"]
    for i, (line, row) in enumerate(zip(lines[3:], data.rows, strict=True)):
        labels = [v.labels[k] for v, k in zip(config.schema.variables, row)]
        traj = f"traj/{i:05d}.csv" if i in trajectories else "-"
        assert line.split() == [*labels, traj]


def _dataset_oracle(data: Dataset, paths: dict[int, str], schema) -> str:
    """``trials.txt`` written one row at a time: its labels, then its path or ``-``."""
    lines = ["afftalk-model 2 dataset", f"provenance {data.provenance}"]
    lines.append(" ".join([*schema.names, "traj"]))
    for i, row in enumerate(data.rows.tolist()):
        labels = [v.labels[k] for v, k in zip(schema.variables, row)]
        lines.append(" ".join([*labels, paths.get(i, "-")]))
    return "".join(line + "\n" for line in lines)


def _around_block_edges(n: int) -> list[int]:
    """Rows on both sides of every block boundary below ``n``, and the last row."""
    return sorted({*(r for b in range(_BLOCK, n, _BLOCK) for r in (b - 1, b)), n - 1})


def _placed(drawn: dict, keys: list[int]) -> dict:
    """The drawn trajectories in turn, keyed by ``keys``."""
    return {row: list(drawn.values())[i % len(drawn)] for i, row in enumerate(keys)}


def test_write_dataset_over_several_blocks_equals_a_per_row_oracle(tmp_path):
    config = default_config()
    data, drawn = generate_trials(config, 2500, seed=11, trajectories_per_action=1)
    keys = _around_block_edges(2500)
    assert keys == [1023, 1024, 2047, 2048, 2499]
    write_dataset(tmp_path, data, _placed(drawn, keys), config.schema)
    paths = {row: f"traj/{row:05d}.csv" for row in keys}
    oracle = _dataset_oracle(data, paths, config.schema).encode()
    assert (tmp_path / "trials.txt").read_bytes() == oracle
    assert sorted(p.name for p in (tmp_path / "traj").iterdir()) == [f"{k:05d}.csv" for k in keys]


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_dataset_round_trip_at_block_edges(tmp_path, n):
    config = default_config()
    data, drawn = generate_trials(config, n, seed=n, trajectories_per_action=1)
    keys = [0, *_around_block_edges(n)]
    write_dataset(tmp_path, data, _placed(drawn, keys), config.schema)
    loaded, traj_paths = read_dataset(tmp_path, config.schema)
    assert loaded.rows.dtype == np.int64 and loaded.rows.shape == (n, len(config.schema))
    assert np.array_equal(loaded.rows, data.rows)
    assert loaded.provenance == data.provenance
    assert traj_paths == {row: os.path.join(str(tmp_path), f"traj/{row:05d}.csv") for row in keys}


def test_dataset_errors_in_the_third_block_name_their_own_line(tmp_path):
    schema = default_config().schema
    write_dataset(tmp_path, *generate_trials(default_config(), 2500, seed=4), schema)
    path = tmp_path / "trials.txt"
    lines = path.read_text().splitlines()
    # row i sits on line i + 4; rows 2048 to 2499 are the third block
    for row, edit, message in [
        (2053, lambda p: [*p[:3], "cone", *p[4:]], "unknown label 'cone' for variable 'Shape'"),
        (2499, lambda p: p[:-1], "row ends before column 'traj': expected 58 fields, found 57"),
        # word columns: each token a naive byte decode of false/true could take
        (2048, lambda p: [*p[:8], "1", *p[9:]], "unknown label '1' for variable 'the'"),
        (2300, lambda p: [*p[:56], "0", *p[57:]], "unknown label '0' for variable 'falling'"),
        (2301, lambda p: [*p[:9], "True", *p[10:]], "unknown label 'True' for variable 'robot'"),
        (2400, lambda p: [*p[:20], "tru", *p[21:]], "unknown label 'tru' for variable 'poking'"),
        (
            2499,
            lambda p: [*p[:30], "truefalse", *p[31:]],
            "unknown label 'truefalse' for variable 'picks'",
        ),
        (2402, lambda p: [*p[:20], "x", *p[21:]], "unknown label 'x' for variable 'poking'"),
        (
            2403,
            lambda p: [*p[:8], "true" * 97, p[-1]],
            "row ends before column 'he': expected 58 fields, found 10",
        ),
    ]:
        text = list(lines)
        text[row + 3] = " ".join(edit(text[row + 3].split()))
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SerializeError, match=re.escape(f"{path}:{row + 4}: {message}")):
            read_dataset(tmp_path, schema)


@pytest.fixture
def walks(monkeypatch):
    """The row count of every block ``read_dataset`` walks one row at a time."""
    calls = []
    walk = serialize._walk_rows
    monkeypatch.setattr(serialize, "_walk_rows", lambda *a: calls.append(len(a[-1])) or walk(*a))
    return calls


def test_the_default_dataset_takes_the_byte_path_in_every_block(tmp_path, walks):
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    loaded, traj_paths = read_dataset(tmp_path, default_config().schema)
    assert len(loaded) == 10000 and len(traj_paths) == 150
    assert walks == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(" ", "\t", 1),
        lambda line: line.replace(" false ", " false  ", 1),
        lambda line: " " + line,
        lambda line: " " + line.replace(" ", "\t", 1).replace(" false ", " false  ", 1),
        lambda line: "{0}\t{2}".format(*line.rpartition(" ")),
        lambda line: line + "\t",
    ],
    ids=[
        "tab",
        "double space",
        "leading space",
        "tab, double space and leading space",
        "tab before the path",
        "tab after the path",
    ],
)
def test_a_line_off_the_byte_path_decodes_as_the_canonical_file(tmp_path, walks, edit):
    config = default_config()
    data, drawn = generate_trials(config, 2500, seed=6, trajectories_per_action=1)
    row = _BLOCK + _BLOCK // 2  # the middle of the second block
    write_dataset(tmp_path, data, _placed(drawn, [row - 1, row]), config.schema)
    canonical, canonical_paths = read_dataset(tmp_path, config.schema)
    assert walks == []
    path = tmp_path / "trials.txt"
    lines = path.read_text().splitlines()
    lines[row + 3] = edit(lines[row + 3])
    path.write_text("\n".join(lines) + "\n")
    loaded, traj_paths = read_dataset(tmp_path, config.schema)
    assert np.array_equal(loaded.rows, canonical.rows) and loaded.provenance == canonical.provenance
    assert traj_paths == canonical_paths and len(traj_paths) == 2
    assert walks == [_BLOCK]  # the second block only


ACTION, SIZE = ("Action", ("grasp", "tap", "touch")), ("Size", ("small", "big"))


@pytest.mark.parametrize(
    "pairs, walked",
    [
        ([("said", BOOL_LABELS), ACTION, ("heard", BOOL_LABELS), SIZE], [_BLOCK, 1500 - _BLOCK]),
        ([ACTION, SIZE], [_BLOCK, 1500 - _BLOCK]),
        ([ACTION, ("said", BOOL_LABELS), ("heard", BOOL_LABELS)], []),
        ([("said", BOOL_LABELS), ("heard", BOOL_LABELS)], []),
    ],
    ids=["boolean columns not last", "no boolean column", "boolean columns last", "only booleans"],
)
def test_other_schemas_round_trip_through_the_path_their_columns_allow(
    tmp_path, walks, pairs, walked
):
    schema = WorldSchema.of(pairs)
    rows = np.random.default_rng(len(pairs)).integers(0, schema.arities, size=(1500, len(schema)))
    write_dataset(tmp_path, Dataset(rows=rows, provenance="other"), {}, schema)
    loaded, traj_paths = read_dataset(tmp_path, schema)
    assert np.array_equal(loaded.rows, rows) and loaded.provenance == "other"
    assert traj_paths == {} and walks == walked


@pytest.mark.parametrize("label", ["", "a b", "a\tb"])
def test_a_label_no_row_can_hold_leaves_the_file_to_the_row_walk(tmp_path, walks, label):
    """A label that is empty or holds whitespace is written, but no row walk
    reads it back; the byte path must not read it either."""
    schema = WorldSchema.of([("Action", (label, "tap")), ("said", BOOL_LABELS)])
    write_dataset(tmp_path, Dataset(rows=[[0, 1]], provenance="blank"), {}, schema)
    found = len(label.split()) + 2
    message = f":4: row {'ends before' if found < 3 else 'runs past'}"
    with pytest.raises(SerializeError, match=re.escape(message)):
        read_dataset(tmp_path, schema)
    assert walks == [1]


@pytest.mark.parametrize("key", [-1, 5, 6])
def test_write_dataset_rejects_trajectory_keys_outside_the_rows(tmp_path, key):
    config = default_config()
    data, drawn = generate_trials(config, 5, seed=2, trajectories_per_action=1)
    trajectory = next(iter(drawn.values()))
    message = f"ds: trajectory key {key} is not a row of the 5-row dataset"
    with pytest.raises(SerializeError, match=re.escape(message)):
        write_dataset(tmp_path / "ds", data, {0: trajectory, key: trajectory}, config.schema)
    assert not (tmp_path / "ds").exists()


def _traced(call):
    """``call()``'s result, and the bytes ``tracemalloc`` saw held after it and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_write_dataset_holds_one_block_whatever_the_row_count(tmp_path):
    config = default_config()
    peaks = []
    for n in (2 * _BLOCK, 16 * _BLOCK):
        data, _ = generate_trials(config, n, seed=5)
        _, (_, peak) = _traced(lambda: write_dataset(tmp_path / str(n), data, {}, config.schema))
        peaks.append(peak)
    # one block's labels as an object table
    assert peaks[1] - peaks[0] < _BLOCK * (len(config.schema) + 1) * 8


def test_read_dataset_holds_one_block_beyond_its_rows_and_text(tmp_path):
    config = default_config()
    beyond = []
    for n in (2 * _BLOCK, 16 * _BLOCK):
        directory = tmp_path / str(n)
        write_dataset(directory, *generate_trials(config, n, seed=5), config.schema)
        trials = directory / "trials.txt"
        _, (text, _) = _traced(lambda: trials.read_text(encoding="utf-8").splitlines())
        (loaded, _), (_, peak) = _traced(lambda: read_dataset(directory, config.schema))
        beyond.append(peak - loaded.rows.nbytes - text)
    # one block of decoded rows as int64
    assert beyond[1] - beyond[0] < _BLOCK * len(config.schema) * 8


def _table_csv_oracle(table: JointTable) -> bytes:
    """``write_table_csv``'s file built in memory by one ``csv.writer``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*table.variables, "p"])
    writer.writerows([*labels, _fmt(p)] for labels, p in table.iter_cells())
    return text.getvalue().encode()


def test_result_csvs_hold_one_block_whatever_the_table_size(tmp_path, monkeypatch):
    # the sweeps below span several pieces, and 1,001 fields are 13 whole pieces
    piece = 77
    monkeypatch.setattr(serialize, "_CELLS", piece)
    beyond = []
    for arity in (10, 20):  # 1,000 and 8,000 cells, and as many sweep points or columns
        cells = np.random.default_rng(arity).dirichlet(np.ones(arity**3))
        labels = ("a,b", "c\nd", *(f"v{k}" for k in range(2, arity)))  # csv quotes both
        table = JointTable(("A", "B", "C"), (labels,) * 3, cells.reshape((arity,) * 3))
        tall = SweepResult(
            grid=tuple(np.linspace(0.5, 1, len(cells)).tolist()),
            variables=("Action",),
            labels=(("grasp", "tap, or not"),),
            posteriors=np.column_stack([cells, 1 - cells]),
        )
        wide = SweepResult((0.5, 1.0), table.variables, table.labels, np.stack([table.probs] * 2))
        peaks = []
        for name, write, result, oracle in [
            ("table", write_table_csv, table, _table_csv_oracle),
            ("tall", write_sweep_csv, tall, reference_sweep_csv),
            ("wide", write_sweep_csv, wide, reference_sweep_csv),
        ]:
            path = tmp_path / f"{name}{arity}.csv"
            _, (_, peak) = _traced(lambda: write(path, result))
            assert path.read_bytes() == oracle(result)
            peaks.append(peak)
        # each sweep's numeric table is stacked, with its grid, before it is written
        stacked = [0, len(cells) * 3 * 8, (len(cells) + 1) * 2 * 8]
        beyond.append(np.subtract(peaks, stacked))
    # no row of the table is held once written, and one piece of a sweep
    # (cells, or header fields of up to 17 characters) as Python objects and text
    table, tall, wide = np.subtract(beyond[1], beyond[0])
    assert table < 4096 and tall < piece * 64 and wide < piece * 128


def test_table_csv_quotes_each_label_as_a_field_of_its_row(tmp_path, monkeypatch):
    # the 6-cell table goes out in two blocks, the second one short
    monkeypatch.setattr(serialize, "_CELLS", 4)
    labels = ("", 'say "hi"', "a,b")  # csv writes nothing for the first, quotes the others
    table = JointTable(("A", "B"), (labels, ("x", "")), np.arange(1, 7).reshape(3, 2) / 21)
    for result in (table, table.marginal(("B",))):
        write_table_csv(tmp_path / "t.csv", result)
        assert (tmp_path / "t.csv").read_bytes() == _table_csv_oracle(result)


def test_nbest_csv_equals_one_csv_writer(tmp_path):
    words = [("the", "robot", "grasps"), ("it", "pokes,", "then"), ('"quoted"', "word")]
    nbest_list = NBestList(tuple((Sentence(w), 0.5**k) for k, w in enumerate(words)), 3)
    write_nbest_csv(tmp_path / "n.csv", nbest_list)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["rank", "score", "sentence"])
    for rank, (sentence, score) in enumerate(nbest_list.entries, 1):
        writer.writerow([rank, _fmt(score), sentence.text])
    assert (tmp_path / "n.csv").read_bytes() == text.getvalue().encode()


def test_read_dataset_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_dataset(tmp_path / "nope", default_config().schema)
