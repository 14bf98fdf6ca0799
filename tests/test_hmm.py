import math

import numpy as np
import pytest

from afftalk import hmm
from afftalk.hmm import (
    GestureBank,
    HmmError,
    HmmModel,
    Trajectory,
    action_posterior,
    forward_loglik,
    prefix_curve,
    preprocess,
    train_bank,
    train_hmm,
)

from conftest import brute_force_loglik, random_left_right_model


def traj(points) -> Trajectory:
    return Trajectory(frames=np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_degenerate_constant_sequence_is_all_zero():
    raw = traj([[1.0, 2.0, 3.0]] * 5)
    out = preprocess(raw, raw.frames.copy())
    assert np.allclose(out.frames, 0.0)


def test_preprocess_scale_and_translation_invariance():
    rng = np.random.default_rng(0)
    frames = rng.normal(0, 1, (12, 3))
    torso = rng.normal(0, 0.1, (12, 3))
    base = preprocess(traj(frames), torso)
    scaled = preprocess(traj(torso + 3.7 * (frames - torso)), torso)
    assert np.allclose(base.frames, scaled.frames)
    shift = np.array([0.4, -1.0, 2.0])
    moved = preprocess(traj(frames + shift), torso + shift)
    assert np.allclose(base.frames, moved.frames, atol=1e-12)
    assert np.sqrt((base.frames**2).sum(axis=1)).max() == pytest.approx(1.0)


def test_preprocess_is_idempotent():
    rng = np.random.default_rng(1)
    frames = rng.normal(0, 1, (8, 3))
    once = preprocess(traj(frames), np.zeros((8, 3)))
    twice = preprocess(once, np.zeros((8, 3)))
    assert np.abs(once.frames - twice.frames).max() <= 1e-12


def test_preprocess_errors():
    with pytest.raises(HmmError, match="match"):
        preprocess(traj([[0, 0, 0]]), np.zeros((2, 3)))
    with pytest.raises(HmmError):
        Trajectory(frames=np.zeros((0, 3)))
    with pytest.raises(HmmError, match="finite"):
        Trajectory(frames=np.array([[np.nan, 0, 0]]))
    for period in (0.0, -1.0):
        with pytest.raises(HmmError, match="frame_period must be positive"):
            Trajectory(frames=np.zeros((2, 3)), frame_period=period)


def test_preprocess_names_an_overflowing_peak():
    with pytest.raises(HmmError, match="overflows"):
        preprocess(traj(np.full((4, 3), 1e200)), np.zeros((4, 3)))
    # finite frames and torso whose difference overflows
    with pytest.raises(HmmError, match="overflows"):
        preprocess(traj(np.full((4, 3), 1e308)), np.full((4, 3), -1e308))


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_broken_left_to_right_mask():
    good = random_left_right_model(np.random.default_rng(0), 3, 2, 3)
    bad_trans = np.exp(good.log_trans)
    bad_trans[0, 2] = 0.1
    bad_trans[0] /= bad_trans[0].sum()
    with np.errstate(divide="ignore"):
        log_bad = np.log(bad_trans)
    with pytest.raises(HmmError, match="self/next"):
        HmmModel("x", log_bad, good.weights, good.means, good.variances)


def test_model_rejects_variances_below_floor():
    good = random_left_right_model(np.random.default_rng(0), 2, 1, 3)
    with pytest.raises(HmmError, match="floor"):
        HmmModel(
            "x",
            good.log_trans,
            good.weights,
            good.means,
            np.full_like(good.variances, 1e-9),
        )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"log_trans": np.zeros((2, 3))}, "log_trans must be square"),
        ({"weights": np.full((2, 2), 0.5)}, "mixture arrays must share"),
        ({"variances": np.ones((2, 1, 2))}, "mixture arrays must share"),
        (
            {"weights": np.ones((3, 1)), "means": np.zeros((3, 1, 3)), "variances": np.ones((3, 1, 3))},
            "mixture arrays must have one row per state",
        ),
    ],
)
def test_model_rejects_misshapen_arrays(change, message):
    good = random_left_right_model(np.random.default_rng(0), 2, 1, 3)
    fields = {
        "log_trans": good.log_trans,
        "weights": good.weights,
        "means": good.means,
        "variances": good.variances,
        **change,
    }
    with pytest.raises(HmmError, match=message):
        HmmModel("x", **fields)


def test_bank_requires_unique_labels():
    m = random_left_right_model(np.random.default_rng(0), 2, 1, 3, label="tap")
    with pytest.raises(HmmError, match="duplicate"):
        GestureBank(models=(m, m))
    with pytest.raises(HmmError, match="at least one model"):
        GestureBank(models=())


# ---------------------------------------------------------------------------
# training


def _noisy_sequences(rng, n, length, dim=3):
    center = rng.normal(0, 1, dim)
    drift = rng.normal(0, 1, dim)
    out = []
    for _ in range(n):
        t = np.linspace(0, 1, length)[:, None]
        out.append(
            traj(center + t * drift + rng.normal(0, 0.1, (length, dim)))
        )
    return out


def test_em_loglik_is_monotone():
    rng = np.random.default_rng(3)
    model = train_hmm(_noisy_sequences(rng, 8, 30), 4, 2, seed=0, action_label="x")
    assert len(model.history) >= 2
    diffs = np.diff(np.asarray(model.history))
    assert (diffs >= -1e-9).all()


def test_em_cap_is_recorded_only_when_it_ends_training(monkeypatch):
    seqs = _noisy_sequences(np.random.default_rng(3), 6, 20)
    free = train_hmm(seqs, 3, 1, seed=0)
    n = len(free.history)
    assert not free.capped and n < hmm.MAX_EM_ITERATIONS
    # the gain test passing on the last allowed iteration is convergence
    monkeypatch.setattr(hmm, "MAX_EM_ITERATIONS", n)
    at_limit = train_hmm(seqs, 3, 1, seed=0)
    assert not at_limit.capped and at_limit.history == free.history
    monkeypatch.setattr(hmm, "MAX_EM_ITERATIONS", n - 1)
    cut = train_hmm(seqs, 3, 1, seed=0)
    assert cut.capped and cut.history == free.history[:-1]


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(4)
    seqs = _noisy_sequences(rng, 5, 25)
    a = train_hmm(seqs, 3, 2, seed=9)
    b = train_hmm(seqs, 3, 2, seed=9)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(np.exp(a.log_trans), np.exp(b.log_trans))


def test_single_point_sequences_converge_to_that_point():
    point = np.array([0.3, -0.2, 0.9])
    seqs = [traj(np.tile(point, (10, 1))) for _ in range(3)]
    model = train_hmm(seqs, 1, 1, seed=0)
    assert np.abs(model.means[0, 0] - point).max() <= 1e-6


def test_one_frame_per_state_reseeds_empty_clusters_and_components():
    """Four frames for four states of two components: each state's k-means
    sees one point, so its second cluster is reseeded and its second
    component starts empty, with weight 1e-3 and the state's variance."""
    frames = [[0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 1.0]]
    bank = train_bank({"grasp": [traj(frames)]}, n_states=4, n_mix=2, seed=0)
    again = train_bank({"grasp": [traj(frames)]}, n_states=4, n_mix=2, seed=0)
    (model,) = bank.models
    assert np.allclose(model.weights, [[1 / 1.001, 1e-3 / 1.001]] * 4, rtol=0, atol=1e-12)
    assert (model.variances == hmm.VAR_FLOOR).all()
    for name in ("log_trans", "weights", "means", "variances"):
        assert getattr(model, name).tobytes() == getattr(again.models[0], name).tobytes()


def test_left_to_right_zeros_survive_training():
    rng = np.random.default_rng(5)
    model = train_hmm(_noisy_sequences(rng, 6, 20), 4, 2, seed=1)
    trans = np.exp(model.log_trans)
    q = model.n_states
    mask = np.eye(q, dtype=bool) | np.eye(q, k=1, dtype=bool)
    assert (trans[~mask] == 0.0).all()
    assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)


def _reestimate_per_state(model, occupancy, resp_sum, mean_num, sq_num, trans_num):
    """The M-step as a loop over states and components: the reference for
    ``hmm._reestimate``, as (log transitions, weights, means, variances)."""
    trans = np.exp(model.log_trans)
    row_tot = trans_num.sum(axis=1)
    for i in range(model.n_states):
        if row_tot[i] > 0:
            trans[i] = trans_num[i] / row_tot[i]
    weights, means, variances = model.weights.copy(), model.means.copy(), model.variances.copy()
    for q in range(model.n_states):
        if occupancy[q] <= 0:
            continue
        weights[q] = resp_sum[q] / resp_sum[q].sum()
        for m in range(model.n_mixtures):
            if resp_sum[q, m] < 1e-12:
                continue
            mu = mean_num[q, m] / resp_sum[q, m]
            means[q, m] = mu
            variances[q, m] = np.maximum(sq_num[q, m] / resp_sum[q, m] - mu * mu, hmm.VAR_FLOOR)
    with np.errstate(divide="ignore"):
        return np.log(trans), weights, means, variances


@pytest.mark.parametrize("seed", range(6))
def test_reestimate_matches_the_per_state_loop(seed):
    """Expected counts with an unoccupied state, a component with no weight
    and one below 1e-12, and a transition row no transition leaves: every
    refit array is bitwise the loop's, and what the loop keeps is kept."""
    rng = np.random.default_rng(seed)
    n_states, n_mix, dim = 4, 3, 2
    model = random_left_right_model(rng, n_states, n_mix, dim)
    occupancy = rng.uniform(1.0, 20.0, n_states)
    resp_sum = rng.uniform(0.5, 8.0, (n_states, n_mix))
    mean_num = rng.normal(0.0, 3.0, (n_states, n_mix, dim))
    sq_num = rng.uniform(5.0, 40.0, (n_states, n_mix, dim))
    trans_num = np.exp(model.log_trans) * rng.uniform(1.0, 9.0, (n_states, 1))
    occupancy[1] = 0.0
    resp_sum[2, 0], resp_sum[3, 2] = 0.0, 1e-13
    trans_num[2] = 0.0
    counts = (occupancy, resp_sum, mean_num, sq_num, trans_num)
    refit = hmm._reestimate(model, *counts)
    expected = _reestimate_per_state(model, *counts)
    for found, want in zip((refit.log_trans, refit.weights, refit.means, refit.variances), expected):
        assert found.shape == want.shape and np.array_equal(found, want)
    assert np.array_equal(refit.log_trans[2], model.log_trans[2])
    assert np.array_equal(refit.weights[1], model.weights[1])
    assert np.array_equal(refit.means[3, 2], model.means[3, 2])
    assert np.array_equal(refit.variances[2, 0], model.variances[2, 0])


def _three_actions(seed):
    rng = np.random.default_rng(seed)
    return {
        label: _noisy_sequences(rng, int(rng.integers(3, 7)), int(rng.integers(12, 30)))
        for label in ("grasp", "tap", "touch")
    }


def _assert_trained_alone(bank, trajs, n_states, n_mix, seed):
    for offset, (label, model) in enumerate(zip(trajs, bank.models)):
        alone = train_hmm(trajs[label], n_states, n_mix, seed=seed + offset, action_label=label)
        assert model.action_label == alone.action_label == label
        for name in ("log_trans", "weights", "means", "variances"):
            assert np.array_equal(getattr(model, name), getattr(alone, name))
        assert model.history == alone.history and model.capped == alone.capped


@pytest.mark.parametrize("seed", range(3))
def test_bank_models_are_bitwise_the_models_trained_alone(seed, monkeypatch):
    """One forward pass per EM iteration for the whole bank, and each
    model as its action would get it alone."""
    trajs = _three_actions(seed)
    forward = []
    log_forward = hmm.kernels.log_forward
    monkeypatch.setattr(
        hmm.kernels, "log_forward", lambda *a: forward.append(len(a[2])) or log_forward(*a)
    )
    bank = train_bank(trajs, 3, 2, seed=seed)
    iterations = [len(m.history) for m in bank.models]
    assert len(forward) == max(iterations)
    # every sequence of an action that is still training is in the pass
    assert forward[0] == sum(map(len, trajs.values()))
    _assert_trained_alone(bank, trajs, 3, 2, seed)


def test_bank_with_one_action_capped_and_one_converged(monkeypatch):
    trajs = _three_actions(7)
    free = [len(m.history) for m in train_bank(trajs, 3, 2, seed=4).models]
    assert min(free) < max(free) < hmm.MAX_EM_ITERATIONS
    monkeypatch.setattr(hmm, "MAX_EM_ITERATIONS", max(free) - 1)
    bank = train_bank(trajs, 3, 2, seed=4)
    assert {m.capped for m in bank.models} == {True, False}
    _assert_trained_alone(bank, trajs, 3, 2, 4)


def test_bank_checks_every_action_before_any_em(monkeypatch):
    trajs = _three_actions(8)
    trajs["touch"] = trajs["touch"] + [traj(np.zeros((2, 3)))]
    steps = []
    monkeypatch.setattr(hmm, "_bank_statistics", lambda *a: steps.append(a))
    monkeypatch.setattr(hmm, "_initial_model", lambda *a: steps.append(a))
    with pytest.raises(HmmError, match="action 'touch': trajectory of length 2 is shorter than 3 states"):
        train_bank(trajs, 3, 2, seed=0)
    assert steps == []
    trajs["touch"] = []
    with pytest.raises(HmmError, match="action 'touch': empty training set"):
        train_bank(trajs, 3, 2, seed=0)
    trajs["touch"] = [traj(np.zeros((5, 3))), traj(np.zeros((5, 2)))]
    with pytest.raises(HmmError, match="action 'touch': all trajectories must share"):
        train_bank(trajs, 3, 2, seed=0)
    assert steps == []


def test_training_input_validation():
    with pytest.raises(HmmError, match="empty"):
        train_hmm([], 2, 1, seed=0)
    short = [traj(np.zeros((2, 3)))]
    with pytest.raises(HmmError, match="shorter"):
        train_hmm(short, 4, 1, seed=0)
    for n_states, n_mix in ((0, 1), (1, 0)):
        with pytest.raises(HmmError, match="at least one state and one mixture"):
            train_bank({"tap": short}, n_states, n_mix, seed=0)


# ---------------------------------------------------------------------------
# scoring


def test_forward_single_state_single_frame_is_gaussian_logpdf():
    model = HmmModel(
        action_label="x",
        log_trans=np.zeros((1, 1)),
        weights=np.ones((1, 1)),
        means=np.zeros((1, 1, 2)),
        variances=np.full((1, 1, 2), 2.0),
    )
    x = np.array([[0.5, -1.0]])
    expected = -0.5 * (
        2 * math.log(2 * math.pi * 2.0) + (0.25 + 1.0) / 2.0
    )
    assert forward_loglik(model, traj(x)) == pytest.approx(expected, rel=1e-12)


def test_forward_matches_path_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        t = int(rng.integers(1, 7))
        model = random_left_right_model(rng, q, m, d)
        frames = rng.normal(0, 1, (t, d))
        got = forward_loglik(model, traj(frames))
        want = brute_force_loglik(model, frames)
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
def test_forward_matches_path_enumeration_at_the_variance_floor(offset):
    """Variances at ``VAR_FLOOR`` and frames near the means and 4 to 8
    standard deviations away, far from the origin: the differences are
    exact, so no cancellation grows with the offset."""
    rng = np.random.default_rng(17)
    sigma = math.sqrt(hmm.VAR_FLOOR)
    for _ in range(30):
        q, m, d, t = (int(rng.integers(1, k)) for k in (4, 3, 4, 6))
        base = random_left_right_model(rng, q, m, d)
        model = HmmModel(
            "x",
            base.log_trans,
            base.weights,
            offset + rng.normal(0.0, 10 * sigma, (q, m, d)),
            np.full((q, m, d), hmm.VAR_FLOOR),
        )
        # each frame near a component of its state on a left-to-right path
        path = np.minimum(np.cumsum(rng.integers(0, 2, t)) - 1, q - 1).clip(0)
        centres = model.means[path, rng.integers(m, size=t)]
        spread = np.where(rng.random((t, 1)) < 0.5, 0.5, rng.uniform(4.0, 8.0, (t, 1)))
        frames = centres + sigma * spread * rng.choice([-1.0, 1.0], (t, d))
        got = forward_loglik(model, traj(frames))
        want = brute_force_loglik(model, frames)
        assert -600.0 < want and abs(got - want) <= 1e-9 * abs(want)


def test_short_sequences_still_score():
    model = random_left_right_model(np.random.default_rng(7), 3, 2, 3)
    value = forward_loglik(model, traj(np.zeros((1, 3))))
    assert math.isfinite(value)


def test_action_posterior_examples():
    rng = np.random.default_rng(8)

    def fixed_loglik_model(label):
        return random_left_right_model(rng, 2, 1, 3, label=label)

    bank = GestureBank(
        models=(
            fixed_loglik_model("grasp"),
            fixed_loglik_model("tap"),
            fixed_loglik_model("touch"),
        )
    )
    t = traj(rng.normal(0, 1, (10, 3)))
    post = action_posterior(bank, t)
    assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (post.weights >= 0).all()
    # the softmax of (-10, -12, -14), quoted to five decimals
    lls = np.array([-10.0, -12.0, -14.0])
    w = np.exp(lls - lls.max())
    assert np.allclose(w / w.sum(), [0.86681, 0.11731, 0.01587], atol=1e-5)


def test_models_far_from_the_trajectory_leave_no_likelihood_to_normalise():
    """Each frame's log density, about -5e307, is finite, so ``_emissions``
    passes it, but from the fourth frame on the sum is not: every model
    gives those prefixes zero likelihood.  The forward pass's overflow
    warning is silenced so the check that follows it is reached."""

    def far_model(label, mean):
        log_trans = np.array([[math.log(0.5), math.log(0.5)], [-np.inf, 0.0]])
        return HmmModel(label, log_trans, np.ones((2, 1)), np.full((2, 1, 1), mean), np.ones((2, 1, 1)))

    bank = GestureBank(models=(far_model("grasp", 1e154), far_model("tap", -1e154)))
    t = traj(np.zeros((6, 1)))
    for score in (action_posterior, prefix_curve):
        with np.errstate(over="ignore"), pytest.raises(HmmError, match="zero likelihood under every model"):
            score(bank, t)


def test_posterior_invariant_to_constant_loglik_shift():
    """Shifts far past exp's range too: the peak is taken out first."""
    lls = np.array([[-3.0, -5.0, -1.0], [-2.0, -2.0, -2.0]])
    base = np.exp(lls) / np.exp(lls).sum(axis=1, keepdims=True)
    for shift in (0.0, 100.0, -250.0, 1000.0, -2000.0):
        assert np.allclose(hmm._normalise(lls + shift), base, atol=1e-12)
        assert np.allclose(hmm._normalise(lls[0] + shift), base[0], atol=1e-12)


def test_bank_scoring_pads_models_with_fewer_states_exactly():
    rng = np.random.default_rng(10)
    models = tuple(
        random_left_right_model(rng, q, 2, 2, label=f"m{q}") for q in (2, 1, 3)
    )
    t = traj(rng.normal(0, 1, (5, 2)))
    curve = prefix_curve(GestureBank(models=models), t)
    for k, model in enumerate(models):
        want = brute_force_loglik(model, t.frames)
        assert abs(curve.log_liks[-1, k] - want) <= 1e-9 * abs(want)
        assert curve.log_liks[-1, k] == forward_loglik(model, t)


def test_prefix_argmax_on_tap_trajectories(world_config, trained_bank):
    import math

    from afftalk.world import sample_trajectory

    hits = 0
    for seed in range(200):
        t = sample_trajectory("tap", world_config, seed=500_000 + seed)
        curve = prefix_curve(trained_bank, t)
        _, posterior = curve.at(math.ceil(0.6 * len(t)))
        hits += curve.actions[int(np.argmax(posterior))] == "tap"
    assert hits >= 0.9 * 200


def test_prefix_curve_matches_full_forward_and_validates_t():
    rng = np.random.default_rng(9)
    models = tuple(
        random_left_right_model(rng, 3, 2, 3, label=lab)
        for lab in ("grasp", "tap", "touch")
    )
    bank = GestureBank(models=models)
    t = traj(rng.normal(0, 1, (14, 3)))
    curve = prefix_curve(bank, t)
    assert len(curve) == 14
    for k, model in enumerate(bank.models):
        assert curve.scores[-1, k] == pytest.approx(
            forward_loglik(model, t) / 14, rel=1e-12
        )
    scores, posterior = curve.at(14)
    assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(action_posterior(bank, t).weights, posterior)
    with pytest.raises(HmmError):
        curve.at(0)
    with pytest.raises(HmmError):
        curve.at(15)
