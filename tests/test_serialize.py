import numpy as np
import pytest

from afftalk.bn import Dataset, Evidence, build_network, fit_parameters, query
from afftalk.hmm import Trajectory, train_bank
from afftalk.serialize import (
    SerializeError,
    load_bayesnet,
    load_gesture_bank,
    load_trajectory,
    read_dataset,
    save_bayesnet,
    save_gesture_bank,
    save_trajectory,
    write_dataset,
)
from afftalk.world import default_config, generate_trials, sample_trajectory

from conftest import random_binary_net


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
    trials = generate_trials(config, 200, seed=8)
    from afftalk.world import trials_to_dataset
    from afftalk.schema import layered_candidates
    from afftalk.bn import greedy_structure_fit

    data = trials_to_dataset(trials, config.schema)
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


def test_dataset_round_trip(tmp_path):
    config = default_config()
    trials = generate_trials(config, 50, seed=3, trajectories_per_action=2)
    write_dataset(tmp_path / "ds", trials, config.schema, provenance="seed=3")
    data, traj_paths = read_dataset(tmp_path / "ds", config.schema)
    assert data.provenance == "seed=3"
    assert len(data) == 50
    expected = np.stack([t.to_row(config.schema) for t in trials])
    assert np.array_equal(data.rows, expected)
    for row, path in traj_paths.items():
        loaded = load_trajectory(path)
        assert np.array_equal(loaded.frames, trials[row].trajectory.frames)
    # the column line names the schema, and the rows hold labels, not indices
    lines = (tmp_path / "ds" / "trials.txt").read_text().splitlines()
    assert lines[2].split() == [*config.schema.names, "traj"]
    for line, row in zip(lines[3:], expected, strict=True):
        labels = [v.labels[k] for v, k in zip(config.schema.variables, row)]
        assert line.split()[:-1] == labels


def test_read_dataset_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_dataset(tmp_path / "nope", default_config().schema)
