import hashlib
import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest

from afftalk.bn import build_network, fit_parameters
from afftalk.cli import main
from afftalk.grammar import default_grammar, derivable
from afftalk.schema import ACTION_VAR, ACTIONS, EFFECT_VARS, FEATURE_VARS
from afftalk.serialize import save_bayesnet
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
    sample_trajectory,
    sample_trial,
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
    # the trial is row 0 of every run with that seed, its words those of its sentence
    data, trajectories = generate_trials(config, 5, seed=99, trajectories_per_action=1)
    row = data.rows[0]
    assert a.assignment == {name: row[config.schema.index(name)] for name in a.assignment}
    assert a.words == {config.schema.names[j] for j in config.schema.word_columns if row[j]}
    assert a.words == frozenset(a.sentence.words)
    assert np.array_equal(a.trajectory.frames, trajectories[0].frames)


def test_effect_frequencies_match_config(config, many_trials):
    schema = config.schema
    rows = many_trials.rows
    tap = schema.value_index("Action", "tap")
    sphere = schema.value_index("Shape", "sphere")
    fast = schema.value_index("ObjVel", "fast")
    hits = rows[(rows[:, schema.index("Action")] == tap) & (rows[:, schema.index("Shape")] == sphere)]
    frac = np.mean(hits[:, schema.index("ObjVel")] == fast)
    expected = EFFECT_ROWS["ObjVel"]["tap", "sphere"][fast]
    assert abs(frac - expected) <= 0.02


@pytest.fixture(scope="module")
def described(world_config):
    """2,000 trials as (labels, words said, assembled sentence) per row."""
    rows, choices, _ = world._columns(world_config, 2000, 11, 0)
    data, _ = generate_trials(world_config, 2000, seed=11)
    assert np.array_equal(rows, data.rows)
    schema = world_config.schema
    trials = []
    for row, picked in zip(data.rows.tolist(), choices):
        labels = {v.name: v.labels[row[i]] for i, v in enumerate(schema.variables[:8])}
        words = {schema.names[j] for j in schema.word_columns if row[j]}
        trials.append((labels, words, world._sentence(picked)))
    return trials


def test_descriptions_are_derivable_and_consistent(described):
    """On every row the word columns are the assembled sentence's word set."""
    grammar = default_grammar()
    for labels, words, sentence in described:
        assert words == set(sentence.words)
        assert derivable(grammar, sentence)
        # exactly one conjunction, and only the drawn shape's words
        assert len({"and", "but"} & words) == 1
        others = [w for shape, ws in SHAPE_WORDS.items() if shape != labels["Shape"] for w in ws]
        assert not words & set(others)


def test_conjunction_rule(described):
    cases = {
        ("grasp", "medium"): "and",
        ("grasp", "slow"): "but",
        ("tap", "medium"): "and",
        ("tap", "fast"): "and",
        ("tap", "slow"): "but",
        ("touch", "slow"): "and",
        ("touch", "medium"): "but",
    }
    for (action, objvel), conj in cases.items():
        assert conjunction(action, objvel) == conj
    seen = set()
    for labels, words, _ in described:
        conj = conjunction(labels["Action"], labels["ObjVel"])
        assert conj in words and ({"and", "but"} - {conj}).isdisjoint(words)
        seen.add((labels["Action"], labels["ObjVel"]))
    assert set(cases) <= seen


def test_failed_grasp_description_example(described):
    """A failed grasp of a green object says "but" and "is inert" or "is still",
    never another color, and "green" in about three trials of four."""
    failed = [
        (words, sentence)
        for labels, words, sentence in described
        if (labels["Action"], labels["ObjVel"]) == ("grasp", "slow")
        and labels["Color"] in ("green1", "green2")
    ]
    assert len(failed) >= 40
    for words, sentence in failed:
        assert "but" in words and sentence.words[-2:] in (("is", "inert"), ("is", "still"))
        assert not ({"blue", "yellow"} & words)
    # each of the two mentions names the color with probability 1/2
    greens = sum("green" in words for words, _ in failed) / len(failed)
    assert abs(greens - 0.75) <= 0.15


def test_both_green_clusters_map_to_the_same_word(described):
    for color in ("green1", "green2"):
        said = [words for labels, words, _ in described if labels["Color"] == color]
        assert all(not ({"blue", "yellow"} & words) for words in said)
        assert any("green" in words for words in said)


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
    data, trajectories = generate_trials(config, 60, seed=0, trajectories_per_action=3)
    actions = data.rows[:, config.schema.index("Action")]
    # the first three trials of each action get one
    expected = sorted(r for a in range(len(ACTIONS)) for r in np.flatnonzero(actions == a)[:3])
    assert sorted(trajectories) == expected and len(expected) == 9
    for row, trajectory in trajectories.items():
        assert config.t_min <= len(trajectory) <= config.t_max
    # attaching trajectories must not change the sampled values
    for cap, count in ((-1, 0), (0, 0), (1, 3), (100, 60)):
        plain, drawn = generate_trials(config, 60, seed=0, trajectories_per_action=cap)
        assert np.array_equal(plain.rows, data.rows) and len(drawn) == count


def test_generate_trials_prefix_is_the_same_in_every_longer_run(config):
    """The first n trials of a run do not depend on its length."""
    assert 2 * world.BLOCK < 2500
    long, long_trajectories = generate_trials(config, 2500, seed=9, trajectories_per_action=400)
    for n in (1, world.BLOCK - 1, world.BLOCK, world.BLOCK + 1, 1500):
        short, trajectories = generate_trials(config, n, seed=9, trajectories_per_action=400)
        assert np.array_equal(short.rows, long.rows[:n])
        assert sorted(trajectories) == [r for r in sorted(long_trajectories) if r < n]
        for row, trajectory in trajectories.items():
            assert np.array_equal(trajectory.frames, long_trajectories[row].frames)
    # trajectories fall in more than one block at this cap
    assert max(long_trajectories) >= world.BLOCK and len(long_trajectories) == 1200


def test_generate_trials_builds_one_generator_per_block(config, monkeypatch):
    """Each block of trials draws from one stream, seeded by (seed, block)."""
    n = 2 * world.BLOCK + 10
    expected, expected_trajectories = generate_trials(config, n, seed=5, trajectories_per_action=4)
    built = []

    def counting_rng(seed=None):
        built.append(seed)
        return np.random.Generator(np.random.PCG64(seed))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    data, trajectories = generate_trials(config, n, seed=5, trajectories_per_action=4)
    assert built == [(5, 0), (5, 1), (5, 2)]
    assert np.array_equal(data.rows, expected.rows)
    assert sorted(trajectories) == sorted(expected_trajectories) and len(trajectories) == 12
    for row, trajectory in trajectories.items():
        assert np.array_equal(trajectory.frames, expected_trajectories[row].frames)


def _draw_as_choice(weights, seed, n=3):
    """``n`` inverse-CDF draws from the world's weighted-row table, and the
    ``Generator.choice`` draws from the same stream."""
    table = world._table(0, lambda: enumerate(weights))
    ours = world._draw(table, np.zeros((n, 0), dtype=np.int64), np.random.default_rng(seed).random(n))
    numpy = np.random.default_rng(seed)
    return ours.tolist(), [int(numpy.choice(len(weights), p=weights)) for _ in range(n)]


@pytest.mark.parametrize(
    "weights",
    [AGENT_WEIGHTS] + sorted({row for rows in EFFECT_ROWS.values() for row in rows.values()}),
)
def test_weighted_draws_equal_generator_choice(weights):
    """The table draw picks what ``Generator.choice`` picks from the same uniforms."""
    for seed in range(1000):
        ours, numpy = _draw_as_choice(weights, seed)
        assert ours == numpy


def test_uniform_draws_equal_generator_choice():
    """Equal weights, as the verb and effect phrases have, draw as ``choice`` with equal p."""
    for n in (2, 3, 4, 6, 12):
        for seed in range(1000):
            ours, numpy = _draw_as_choice(np.full(n, 1.0 / n), seed)
            assert ours == numpy


def test_context_rows_draw_by_bisection_on_each_row(config):
    """Every effect and phrase table, for every label combination and at the
    CDF's own points, picks what bisecting that combination's row picks."""
    effects, slots, phrases, _ = world._tables()
    arities = [config.schema.variable(name).arity for name in world._NAMES]
    for width, tables in ((world._ROOTS, effects), (world._ROOTS + 1, slots)):
        values = np.array(list(itertools.product(*map(range, arities[:width]))))
        for cdf, entries in tables:
            assert len(cdf) == len(values)
            for u in (0.0, 0.25, 0.5, 0.7, 0.9, 1.0 - 2**-53, *np.unique(cdf[cdf < 1])):
                picked = world._draw((cdf, entries), values, np.full(len(values), u))
                expected = [entries[c, bisect_right(cdf[c].tolist(), u)] for c in range(len(cdf))]
                assert picked.tolist() == expected
    # a small yellow sphere's mentions are exactly the rule's, at equal chances
    cdf, entries = slots[2]
    labels = ("tap", "yellow", "small", "sphere", "slow")
    c = int(np.ravel_multi_index([config.schema.value_index(n, l) for n, l in zip(world._NAMES, labels)], arities[:5]))
    drawable = cdf[c] <= 1
    assert {phrases[e] for e in entries[c][drawable]} == {
        f"the{size}{color} {word}"
        for size in ("", " small")
        for color in ("", " yellow")
        for word in SHAPE_WORDS["sphere"]
    }
    assert np.allclose(np.diff(cdf[c][drawable], prepend=0.0), 1 / 8)


def test_fitted_net_recovers_generator_tables(config, many_trials):
    """Fitting with the generating structure reproduces the config rows."""
    schema = config.schema
    data = many_trials
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
    assert world._NAMES == (ACTION_VAR, *FEATURE_VARS, *EFFECT_VARS) == schema.names[:8]
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
# Pinned when the generator became columnar (one stream per block of trials,
# effects and phrases drawn by inverse CDF), which changed every byte.
SIMULATE_DIGESTS = {
    "trials.txt": "9ee26ccad4bcd75f943f087993aa9db90cc48f182663d4b31cf86379d7111919",
    "traj/00000.csv": "da8f7286009fe66d2a18acc598688f95d9f646d6a87c4713d528d8ee79a7df0a",
    "traj/00001.csv": "9c6d13b4aab369fd1100526240699cf92e15cadbf421c22c7f4a92b0caee9fb1",
    "traj/00002.csv": "e7945971b6a37598eded0601bf78b2896931317267d18305d503fd7db810f840",
    "traj/00003.csv": "9dc8c990be32280f305709df2bab98f2309e4cca0d9f23db6db1d7b49ecef243",
    "traj/00005.csv": "622acf76e1e307528443f12e6e060c33d00c5eb11874c3f9aa83bade521fb1c7",
    "traj/00007.csv": "6fdca4d09e71821ebc799b9b961b0a9c53c858e266f84d57868260d64d40875a",
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
# format version 2, pinned with the columnar generator's dataset.
TRAIN_DIGESTS = {
    "bn.txt": "28ddb1a6dc0abc5e3a59b1cb5db4c5e6c60bc72ffe3b341a84f8f3747919a3fb",
    "hmm.txt": "76c26b8c9bb80ea5df9e8f3d95c16ea6417bcce6c91e3375fb1baafa5466c8df",
}


# SHA-256 of ``train-hmm --seed 7`` on the dataset ``simulate`` writes at the
# defaults: 150 ragged sequences, where grasp and touch reach
# ``MAX_EM_ITERATIONS`` and tap stops at iteration 59.
DEFAULT_BANK_DIGEST = "e9ea3944e8e02d6bd303a031fab8ce416fb928950a4f1a8065f08c3ff7df2552"


def test_default_config_bank_bytes_are_pinned(tmp_path):
    """EM over the default dataset's batch produces these exact bytes."""
    data, bank = tmp_path / "ds", tmp_path / "hmm.txt"
    assert main(["simulate", "--out", str(data)]) == 0
    assert main(["train-hmm", "--dataset", str(data), "--out", str(bank), "--seed", "7"]) == 0
    assert hashlib.sha256(bank.read_bytes()).hexdigest() == DEFAULT_BANK_DIGEST


# SHA-256 of ``save_bayesnet`` of the session ``trained_net``: the 3-parent
# structure search over the 10k-trial default dataset, 61 edges, then the
# Laplace fit.  ``train-bn`` writes the same bytes on the dataset
# ``simulate`` writes at the defaults.
DEFAULT_NETWORK_DIGEST = "59a93b4dd299693532910f353344e9b0e6b86164338e0cf32ed23a69cad23574"


def test_default_network_bytes_are_pinned(trained_net, tmp_path):
    """The default structure search and parameter fit produce these exact bytes."""
    assert sum(len(ps) for ps in trained_net.parents) == 61
    save_bayesnet(tmp_path / "bn.txt", trained_net)
    digest = hashlib.sha256((tmp_path / "bn.txt").read_bytes()).hexdigest()
    assert digest == DEFAULT_NETWORK_DIGEST


@pytest.fixture(scope="module")
def models_300(tmp_path_factory):
    """The 300-trial dataset of ``SIMULATE_DIGESTS`` and the models trained on it."""
    root = tmp_path_factory.mktemp("models_300")
    data = root / "ds"
    argv = ["simulate", "--out", str(data), "--trials", "300"]
    assert main(argv + ["--trajectories-per-action", "2", "--seed", "1234"]) == 0
    assert main(["train-bn", "--dataset", str(data), "--out", str(root / "bn.txt")]) == 0
    argv = ["train-hmm", "--dataset", str(data), "--out", str(root / "hmm.txt"), "--seed", "7"]
    assert main(argv) == 0
    return root


def test_trained_model_bytes_are_pinned(models_300):
    """Dataset reading, the structure search and EM produce these exact bytes."""
    for name, digest in TRAIN_DIGESTS.items():
        assert hashlib.sha256((models_300 / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the result CSVs each command below writes from the models of
# ``TRAIN_DIGESTS``, pinned before the result writers shared one streamed path.
RESULT_DIGESTS = {
    "infer.csv": "bb4f8fc23b0a3b5b371142397677ca5263b51b2d8b35020df27a433154453e60",
    "anticipate.csv": "058bfdf1654dff37b47736c0710fdc20bf5d05f0b630a8e2eaa6fef5b2d2ba51",
    "describe.csv": "dc1fed3c9308457aa2d3a8bf80e17c20c9664306e74d49bffa47390185077141",
    "sweep.csv": "2f37515194a82d0e3f50960a5ba58dc52b68e7684ecd83c36de4271f1459fc96",
}


def test_result_bytes_are_pinned(models_300, tmp_path):
    """``infer``, ``anticipate``, ``describe`` and ``sweep`` write these exact bytes."""
    net = ["--bn", str(models_300 / "bn.txt")]
    traj = str(models_300 / "ds" / "traj" / "00000.csv")
    gesture = ["--bank", str(models_300 / "hmm.txt"), "--traj", traj]
    sweep_ev = "Size=small,Shape=sphere,ObjVel=slow"
    commands = {
        "infer.csv": ["infer", *net, *gesture, "--infer", "Action,ObjVel", "--ev", "Shape=sphere"],
        "anticipate.csv": ["anticipate", *net, *gesture, "--ev", "Shape=sphere"],
        "describe.csv": ["describe", *net, "--ev", "Action=grasp,ObjVel=medium"],
        "sweep.csv": ["sweep", *net, "--target", "tap", "--ev", sweep_ev],
    }
    for name, digest in RESULT_DIGESTS.items():
        assert main([*commands[name], "--out", str(tmp_path / name)]) == 0, name
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
