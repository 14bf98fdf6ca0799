import hashlib
import itertools
import math

import numpy as np
import pytest

from afftalk.bn import build_network, fit_parameters
from afftalk.cli import main
from afftalk.grammar import default_grammar, derivable
from afftalk.schema import ACTIONS, EFFECT_VARS
from afftalk import world
from afftalk.world import (
    AGENT_WEIGHTS,
    AGENTS,
    COLOR_WORDS,
    EFFECT_ROWS,
    SHAPE_WORDS,
    SIZE_WORDS,
    TEMPLATES,
    VERB_FAMILIES,
    VERB_FORMS,
    WorldConfig,
    WorldError,
    conjunction,
    effect_phrases,
    generate_trials,
    sample_description,
    sample_trajectory,
    sample_trial,
    trials_to_dataset,
)


@pytest.fixture()
def config(world_config):
    return world_config


@pytest.fixture()
def many_trials(world_trials):
    return world_trials


def test_trials_are_seed_deterministic(config):
    a = sample_trial(config, seed=99, with_trajectory=True)
    b = sample_trial(config, seed=99, with_trajectory=True)
    assert a.assignment == b.assignment
    assert a.sentence.words == b.sentence.words
    assert np.array_equal(a.trajectory.frames, b.trajectory.frames)
    c = sample_trial(config, seed=100)
    assert (a.assignment != c.assignment) or (a.sentence.words != c.sentence.words)


def test_effect_frequencies_match_config(config, many_trials):
    schema = config.schema
    tap = schema.value_index("Action", "tap")
    sphere = schema.value_index("Shape", "sphere")
    fast = schema.value_index("ObjVel", "fast")
    hits = [
        t
        for t in many_trials
        if t.assignment["Action"] == tap and t.assignment["Shape"] == sphere
    ]
    frac = sum(t.assignment["ObjVel"] == fast for t in hits) / len(hits)
    expected = EFFECT_ROWS["ObjVel"]["tap", "sphere"][fast]
    assert abs(frac - expected) <= 0.02


def test_descriptions_are_derivable_and_consistent(config):
    grammar = default_grammar()
    for seed in range(60):
        trial = sample_trial(config, seed=seed)
        assert derivable(grammar, trial.sentence)
        assert trial.words == frozenset(trial.sentence.words)
        # exactly one conjunction
        assert len({"and", "but"} & trial.words) == 1
        shape = trial.label(config.schema, "Shape")
        if shape == "sphere":
            assert not ({"box", "cube", "square"} & trial.words)
        else:
            assert not ({"sphere", "ball"} & trial.words)


def test_conjunction_rule(config):
    rng = np.random.default_rng(0)
    cases = {
        ("grasp", "medium"): "and",
        ("grasp", "slow"): "but",
        ("tap", "medium"): "and",
        ("tap", "fast"): "and",
        ("tap", "slow"): "but",
        ("touch", "slow"): "and",
        ("touch", "medium"): "but",
    }
    schema = config.schema
    from afftalk.world import Trial

    for (action, objvel), conj in cases.items():
        assignment = {
            "Action": schema.value_index("Action", action),
            "Color": 0,
            "Size": 0,
            "Shape": 0,
            "ObjVel": schema.value_index("ObjVel", objvel),
            "HandVel": 0,
            "ObjHandVel": 0,
            "Contact": 0,
        }
        stub = Trial(assignment=assignment, words=frozenset(), sentence=None)
        sentence, words = sample_description(stub, config, rng)
        assert conj in words
        assert ({"and", "but"} - {conj}).isdisjoint(words)


def test_failed_grasp_description_example(config):
    schema = config.schema
    from afftalk.world import Trial

    assignment = {
        "Action": schema.value_index("Action", "grasp"),
        "Color": schema.value_index("Color", "green2"),
        "Size": 1,
        "Shape": schema.value_index("Shape", "sphere"),
        "ObjVel": schema.value_index("ObjVel", "slow"),
        "HandVel": 0,
        "ObjHandVel": 0,
        "Contact": 1,
    }
    stub = Trial(assignment=assignment, words=frozenset(), sentence=None)
    rng = np.random.default_rng(3)
    sentence, words = sample_description(stub, config, rng)
    assert "but" in words
    assert "green" in words  # seed picked so the color attribute is emitted
    # across many draws: green is common, other colors never appear
    greens = 0
    for seed in range(40):
        _, w = sample_description(stub, config, np.random.default_rng(seed))
        assert not ({"blue", "yellow"} & w)
        greens += "green" in w
    assert greens >= 20


def test_both_green_clusters_map_to_the_same_word(config):
    schema = config.schema
    from afftalk.world import Trial

    for color in ("green1", "green2"):
        assignment = {
            "Action": 0,
            "Color": schema.value_index("Color", color),
            "Size": 0,
            "Shape": 0,
            "ObjVel": 1,
            "HandVel": 0,
            "ObjHandVel": 0,
            "Contact": 0,
        }
        stub = Trial(assignment=assignment, words=frozenset(), sentence=None)
        seen_green = False
        for seed in range(30):
            _, words = sample_description(stub, config, np.random.default_rng(seed))
            assert not ({"blue", "yellow"} & words)
            seen_green |= "green" in words
        assert seen_green


def test_trajectory_geometry(config):
    x_dominant = 0
    for seed in range(200):
        t = sample_trajectory("tap", config, seed=seed)
        net_disp = t.frames[-1] - t.frames[0]
        x_dominant += abs(net_disp[0]) > abs(net_disp[2])
    assert x_dominant >= 0.95 * 200
    for seed in range(200):
        t = sample_trajectory("grasp", config, seed=seed)
        assert t.frames[-1, 2] > t.frames[:, 2].min()  # ends above the lowest point
    for seed in range(50):
        t = sample_trajectory("touch", config, seed=seed)
        assert config.t_min <= len(t) <= config.t_max
    with pytest.raises(WorldError, match="unknown action"):
        sample_trajectory("wave", config, seed=0)


def test_trajectories_are_preprocessed(config):
    t = sample_trajectory("tap", config, seed=4)
    norms = np.sqrt((t.frames**2).sum(axis=1))
    assert norms.max() == pytest.approx(1.0, abs=1e-12)


def test_generate_trials_caps_trajectories_per_action(config):
    trials = generate_trials(config, 60, seed=0, trajectories_per_action=3)
    with_traj = [t for t in trials if t.trajectory is not None]
    per_action = {a: 0 for a in ACTIONS}
    for t in with_traj:
        per_action[t.label(config.schema, "Action")] += 1
    assert all(v <= 3 for v in per_action.values())
    # attaching trajectories must not change the sampled values
    plain = generate_trials(config, 60, seed=0, trajectories_per_action=0)
    assert [t.assignment for t in plain] == [t.assignment for t in trials]
    assert [t.sentence.words for t in plain] == [t.sentence.words for t in trials]


def test_generate_trials_builds_one_generator_per_trial(config, monkeypatch):
    """Each trial draws from one stream: no probe trial is sampled first."""
    expected = generate_trials(config, 40, seed=5, trajectories_per_action=4)
    built = []

    def counting_rng(seed=None):
        built.append(seed)
        return np.random.Generator(np.random.PCG64(seed))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    trials = generate_trials(config, 40, seed=5, trajectories_per_action=4)
    assert built == list(range(5, 45))
    assert sum(t.trajectory is not None for t in trials) == 12
    for a, b in zip(trials, expected):
        assert a.assignment == b.assignment and a.sentence == b.sentence
        assert (a.trajectory is None) == (b.trajectory is None)
        if a.trajectory is not None:
            assert np.array_equal(a.trajectory.frames, b.trajectory.frames)


@pytest.mark.parametrize(
    "weights",
    [AGENT_WEIGHTS] + sorted({row for rows in EFFECT_ROWS.values() for row in rows.values()}),
)
def test_weighted_draws_equal_generator_choice(weights):
    """The cached-CDF draw consumes the stream exactly as ``Generator.choice``."""
    options = range(len(weights))
    for seed in range(1000):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert world._choose(ours, options, weights) == numpy.choice(len(weights), p=weights)
        assert ours.random() == numpy.random()


def test_uniform_draws_equal_generator_choice():
    for seed in range(1000):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (2, 3, 4, 6):
            assert world._choose(ours, range(n)) == numpy.choice(n)
        assert ours.random() == numpy.random()


def test_fitted_net_recovers_generator_tables(config, many_trials):
    """Fitting with the generating structure reproduces the config rows."""
    schema = config.schema
    data = trials_to_dataset(many_trials, schema)
    idx = schema.index
    parents = [() for _ in range(len(schema))]
    parents[idx("ObjVel")] = (idx("Action"), idx("Shape"))
    parents[idx("ObjHandVel")] = (idx("Action"), idx("Shape"))
    parents[idx("HandVel")] = (idx("Action"),)
    parents[idx("Contact")] = (idx("Action"),)
    parents[idx("and")] = (idx("Action"), idx("ObjVel"))
    parents[idx("ball")] = (idx("Shape"),)
    net = fit_parameters(build_network(schema, parents), data, alpha=1.0)

    worst = 0.0
    shapes = schema.variable("Shape").labels
    for name in ("ObjVel", "ObjHandVel"):
        cpt = net.cpts[idx(name)]
        for a, action in enumerate(ACTIONS):
            for s, shape in enumerate(shapes):
                truth = EFFECT_ROWS[name][action, shape]
                worst = max(worst, np.abs(cpt[a, s] - truth).max())
    for name in ("HandVel", "Contact"):
        cpt = net.cpts[idx(name)]
        for a, action in enumerate(ACTIONS):
            truth = EFFECT_ROWS[name][action, shapes[0]]
            worst = max(worst, np.abs(cpt[a] - truth).max())
    assert worst <= 0.03

    # analytic word rows: a sphere mention picks "ball" with prob 1/2, twice
    p_ball = net.cpts[idx("ball")][schema.value_index("Shape", "sphere")][
        schema.value_index("ball", "true")
    ]
    assert abs(p_ball - 0.75) <= 0.03
    # conjunction is deterministic given action and outcome
    p_and = net.cpts[idx("and")][
        schema.value_index("Action", "grasp"), schema.value_index("ObjVel", "medium")
    ][schema.value_index("and", "true")]
    assert abs(p_and - 1.0) <= 0.03


def _foreign_words(labels, shape_words=SHAPE_WORDS):
    """Words the description rules can emit that the grammar does not know."""
    phrases = ["the", *AGENTS, *COLOR_WORDS.values()]
    phrases += [w for w in SIZE_WORDS.values() if w]
    for lemmas in VERB_FAMILIES.values():
        for lemma in lemmas:
            phrases += VERB_FORMS[lemma]
    for words in shape_words.values():
        phrases += words
    for action, objvel, shape in itertools.product(
        ACTIONS, labels["ObjVel"], labels["Shape"]
    ):
        phrases.append(conjunction(action, objvel))
        phrases += effect_phrases(action, objvel, shape)
    emitted = {word for phrase in phrases for word in phrase.split()}
    return emitted - set(default_grammar().vocabulary)


def _bad_effect_rows(labels, effect_rows=EFFECT_ROWS):
    """(variable, (action, shape)) of every row that is not a distribution of the right arity."""
    bad = []
    for name, rows in effect_rows.items():
        for key, row in rows.items():
            sound = len(row) == len(labels[name]) and min(row) >= 0
            if not (sound and math.isclose(sum(row), 1.0, abs_tol=1e-12)):
                bad.append((name, key))
    return bad


def test_rule_constants_are_consistent(config):
    """Every word the rules can emit is grammar vocabulary; rows and templates are sound."""
    schema = config.schema
    labels = {v.name: v.labels for v in schema.variables}
    assert set(VERB_FAMILIES) == set(ACTIONS) == set(TEMPLATES)
    assert set(SHAPE_WORDS) == set(labels["Shape"])
    assert set(COLOR_WORDS) == set(labels["Color"])
    assert set(SIZE_WORDS) == set(labels["Size"])
    assert len(AGENT_WEIGHTS) == len(AGENTS) and math.isclose(sum(AGENT_WEIGHTS), 1.0)

    assert _foreign_words(labels) == set()

    assert set(EFFECT_ROWS) == set(EFFECT_VARS)
    for rows in EFFECT_ROWS.values():
        assert set(rows) == set(itertools.product(ACTIONS, labels["Shape"]))
    assert _bad_effect_rows(labels) == []

    for waypoints, durations in TEMPLATES.values():
        assert waypoints.ndim == 2 and waypoints.shape[1] == 3
        assert len(durations) == len(waypoints) - 1
        assert (durations > 0).all()


def test_config_validation_rejects_foreign_words(config):
    """The vocabulary check on the rule constants flags a word the grammar lacks."""
    labels = {v.name: v.labels for v in config.schema.variables}
    shape_words = dict(SHAPE_WORDS, sphere=("sphere", "orb"))
    assert _foreign_words(labels, shape_words) == {"orb"}


def test_config_validation_rejects_bad_tables(config):
    """The distribution check on the effect rows flags a row that does not sum to 1."""
    labels = {v.name: v.labels for v in config.schema.variables}
    objvel = dict(EFFECT_ROWS["ObjVel"])
    objvel["grasp", "sphere"] = (0.5, 0.5, 0.5)
    rows = dict(EFFECT_ROWS, ObjVel=objvel)
    assert _bad_effect_rows(labels, rows) == [("ObjVel", ("grasp", "sphere"))]
    objvel["grasp", "sphere"] = (0.5, 0.5)
    assert _bad_effect_rows(labels, rows) == [("ObjVel", ("grasp", "sphere"))]


@pytest.mark.parametrize(
    "settings", [{"t_min": 0}, {"t_min": 30, "t_max": 20}, {"noise_std": -0.1}]
)
def test_config_rejects_out_of_range_settings(settings):
    with pytest.raises(WorldError):
        WorldConfig(**settings)


# SHA-256 of ``simulate --trials 300 --trajectories-per-action 2 --seed 1234``.
# ``trials.txt`` is in format version 2; it decodes to the same rows,
# provenance and trajectory paths as the version-1 file it replaced, and the
# trajectory CSVs kept their digests.
SIMULATE_DIGESTS = {
    "trials.txt": "5aebebb5ac5b46429c4464959e8a636e5aaddafc0ef78ff70f840e13501540ef",
    "traj/00000.csv": "73451536317bb8a4cc73750e55f3c0a3aedd991fc32e4456578aa74924587e12",
    "traj/00001.csv": "d8a686977a0bf5fbd36fd804b9d996c60af92b794023bba21365f16939f0bbbb",
    "traj/00002.csv": "fdc8b4ca69448f8bde34a0d9710e51a960ed4c26791341845a175c26b9b56ce4",
    "traj/00004.csv": "d61473f08983bfd9e62b0b1dd5617463f872c68f45d98458016f7d91209e149b",
    "traj/00006.csv": "dfe1f20341ed37f27c3614b1f821e64c97204806345dc41a8f2f8d32e0e80624",
    "traj/00009.csv": "518516fdbc90a63d3042fa6770fbf4481c680aaa6ded4edcf45a20536f52f940",
}


def test_simulate_output_bytes_are_pinned(tmp_path):
    """The generator's draw order and the dataset format produce these exact bytes."""
    out = tmp_path / "ds"
    argv = ["simulate", "--out", str(out), "--trials", "300"]
    assert main(argv + ["--trajectories-per-action", "2", "--seed", "1234"]) == 0
    written = sorted(
        str(path.relative_to(out)) for path in out.rglob("*") if path.is_file()
    )
    assert written == sorted(SIMULATE_DIGESTS)
    for name, digest in SIMULATE_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of ``train-bn`` and ``train-hmm --seed 7`` on that dataset, in
# format version 2.  Against version 1, ``bn.txt`` differs only in its header
# line, and ``hmm.txt`` only in its header and in storing each transition row
# as ``logtrans`` (the logs) where it stored ``trans`` (their exponentials).
TRAIN_DIGESTS = {
    "bn.txt": "18407b4af5fca4e87ce06b5bb6413bc05f4d95d0cb884cdfe03423f30d78a2eb",
    "hmm.txt": "3c97c256902cebf2701f58b43c4f07ff170bc47e1f971baffcdfa24945bdc21a",
}


def test_trained_model_bytes_are_pinned(tmp_path):
    """Dataset reading, the structure search and EM produce these exact bytes."""
    data = tmp_path / "ds"
    argv = ["simulate", "--out", str(data), "--trials", "300"]
    assert main(argv + ["--trajectories-per-action", "2", "--seed", "1234"]) == 0
    bn_path, hmm_path = tmp_path / "bn.txt", tmp_path / "hmm.txt"
    assert main(["train-bn", "--dataset", str(data), "--out", str(bn_path)]) == 0
    argv = ["train-hmm", "--dataset", str(data), "--out", str(hmm_path), "--seed", "7"]
    assert main(argv) == 0
    for path in (bn_path, hmm_path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == TRAIN_DIGESTS[path.name], path.name
