import numpy as np
import pytest

from afftalk import kernels
from afftalk.hmm import HmmError, _bank_statistics

from conftest import (
    brute_force_posteriors,
    random_left_right_model,
    reference_gmm_obs_logprob,
    reference_log_backward,
    reference_log_forward,
)


def _batch_statistics(model, seqs):
    """Per-sequence (log-likelihood, gamma) and the summed xi for one batch."""
    frames = np.concatenate(seqs)
    lengths = np.array([len(s) for s in seqs])
    [(logliks, gamma, _, xi)] = _bank_statistics([model], [frames], [lengths])
    return logliks, np.split(gamma, np.cumsum(lengths)[:-1]), xi


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_gamma_and_xi_match_path_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(15):
        q = int(rng.integers(1, 4))
        model = random_left_right_model(rng, q, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        seqs = [
            rng.normal(0.0, 1.0, (int(rng.integers(1, 6)), model.dim))
            for _ in range(int(rng.integers(1, 5)))
        ]
        _, gammas, xi = _batch_statistics(model, seqs)
        want_xi = np.zeros((q, q))
        for seq, gamma in zip(seqs, gammas):
            want_gamma, seq_xi = brute_force_posteriors(model, seq)
            assert np.abs(gamma - want_gamma).max() <= 1e-9
            want_xi += seq_xi
        assert np.abs(xi - want_xi).max() <= 1e-9


def test_sequence_statistics_ignore_batch_companions():
    rng = np.random.default_rng(12)
    model = random_left_right_model(rng, 4, 2, 3)
    seqs = [rng.normal(0.0, 1.0, (n, 3)) for n in (9, 4, 13, 1, 7)]
    batch = _batch_statistics(model, seqs)
    order = [3, 0, 4, 2, 1]
    shuffled = _batch_statistics(model, [seqs[k] for k in order])
    singles = [_batch_statistics(model, [s]) for s in seqs]
    for k, single in enumerate(singles):
        assert np.array_equal(batch[0][k], single[0][0])
        assert np.array_equal(batch[1][k], single[1][0])
        at = order.index(k)
        assert np.array_equal(shuffled[0][at], single[0][0])
        assert np.array_equal(shuffled[1][at], single[1][0])
    assert np.allclose(batch[2], sum(s[2] for s in singles), rtol=1e-12, atol=0.0)
    assert np.allclose(shuffled[2], batch[2], rtol=1e-12, atol=0.0)


def test_backward_of_each_sequence_is_bitwise_its_backward_alone():
    rng = np.random.default_rng(15)
    lengths = rng.permutation([1, 1, 2, 5, 9, 13, 17, 17])
    seqs = [rng.normal(-3.0, 2.0, (n, 4)) for n in lengths]
    models = [random_left_right_model(rng, 4, 1, 1) for _ in lengths]
    log_obs = np.concatenate(seqs)
    shared = kernels.log_backward(models[0].log_trans, log_obs, lengths)
    stacked = np.stack([m.log_trans for m in models])
    own = kernels.log_backward(stacked, log_obs, lengths)
    split = np.cumsum(lengths)[:-1]
    for seq, model, got_shared, got_own in zip(
        seqs, models, np.split(shared, split), np.split(own, split)
    ):
        alone = kernels.log_backward(models[0].log_trans, seq, [len(seq)])
        assert np.array_equal(got_shared, alone)
        assert np.array_equal(got_own, kernels.log_backward(model.log_trans, seq, [len(seq)]))
        assert not got_own[-1].any()  # zero on the last frame


@pytest.mark.parametrize("n_states", [1, 2, 3, 4, 6])
def test_passes_are_bitwise_the_frame_major_reference(n_states):
    # ragged lengths with ones and a tied maximum, shared and per-sequence
    # transitions, and frames (and one whole sequence) no state can emit
    rng = np.random.default_rng(17 + n_states)
    for _ in range(12):
        lengths = rng.permutation([1, 1, *rng.integers(1, 25, 5), 25, 25])
        log_obs = rng.normal(-5.0, 20.0, (lengths.sum(), n_states))
        log_obs[rng.random(len(log_obs)) < 0.1] = -np.inf
        log_obs[rng.random(log_obs.shape) < 0.1] = -np.inf
        log_obs[: lengths[0]] = -np.inf
        models = [random_left_right_model(rng, n_states, 1, 1) for _ in lengths]
        for log_trans in (models[0].log_trans, np.stack([m.log_trans for m in models])):
            for kernel, reference in (
                (kernels.log_forward, reference_log_forward),
                (kernels.log_backward, reference_log_backward),
            ):
                got = kernel(log_trans, log_obs, lengths)
                want = reference(log_trans, log_obs, lengths)
                assert got.shape == want.shape and np.array_equal(got, want)


def test_forward_keeps_wide_emission_ranges_exact():
    # states emit thousands of nats apart, as tight variances can make
    # them; the oracle is the unbanded log-domain recursion, one sequence
    # at a time
    rng = np.random.default_rng(14)
    model = random_left_right_model(rng, 4, 1, 1)
    seqs = [rng.uniform(-3000.0, 0.0, (n, 4)) for n in (30, 12)]
    log_alpha = kernels.log_forward(model.log_trans, np.concatenate(seqs), [30, 12])
    for seq, got in zip(seqs, np.split(log_alpha, [30])):
        want = np.full(seq.shape, -np.inf)
        want[0, 0] = seq[0, 0]
        for t in range(1, len(seq)):
            step = want[t - 1][:, None] + model.log_trans
            want[t] = np.logaddexp.reduce(step, axis=0) + seq[t]
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


def test_forward_handles_all_minus_inf_rows_without_nan():
    model = random_left_right_model(np.random.default_rng(13), 2, 1, 2)
    lengths = np.array([3, 2])  # the second sequence is possible throughout
    with np.errstate(divide="ignore"):
        log_obs = np.log(np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [0.2, 0.7], [0.6, 0.1]]))
    log_alpha = kernels.log_forward(model.log_trans, log_obs, lengths)
    assert not np.isnan(log_alpha).any()
    prefix = np.logaddexp.reduce(log_alpha, axis=1)
    assert np.isfinite(prefix[0]) and np.isneginf(prefix[1:3]).all()
    assert np.isfinite(prefix[3:]).all()
    # a frame no state can emit: its squared distance overflows to inf,
    # which is named as the cause, without a warning
    frames = np.zeros((6, 2))
    frames[2] = 1e200
    with pytest.raises(HmmError, match="coordinates overflow the emission densities"):
        list(_bank_statistics([model], [frames], [np.array([4, 2])]))


def _random_mixtures(rng, dim):
    """Frames and (log weights, means, variances) of a random shape, some
    variances at the floor and coordinates offset far from the origin."""
    q, m, f = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 301))
    offset = rng.choice([0.0, 1e3, 1e5])
    means = offset + rng.normal(0.0, 2.0, (q, m, dim))
    variances = rng.uniform(1e-6, 3.0, (q, m, dim))
    variances[rng.random((q, m, dim)) < 0.2] = 1e-6
    frames = offset + rng.normal(0.0, 3.0, (f, dim))
    log_weights = np.log(rng.dirichlet(np.ones(m), size=q))
    return frames, log_weights, means, variances


def test_emissions_are_bitwise_the_broadcast_kernel_up_to_four_dimensions():
    rng = np.random.default_rng(15)
    for dim in (1, 2, 3, 4):
        for _ in range(60):
            args = _random_mixtures(rng, dim)
            for found, want in zip(kernels.gmm_obs_logprob(*args), reference_gmm_obs_logprob(*args)):
                assert found.shape == want.shape and np.array_equal(found, want)


def test_emissions_match_the_broadcast_kernel_up_to_ten_dimensions():
    # from eight terms on, numpy sums a row pairwise, in another order
    rng = np.random.default_rng(16)
    for dim in range(5, 11):
        for _ in range(20):
            args = _random_mixtures(rng, dim)
            for found, want in zip(kernels.gmm_obs_logprob(*args), reference_gmm_obs_logprob(*args)):
                assert np.allclose(found, want, rtol=1e-12, atol=0.0)


def test_emission_overflow_is_minus_inf_without_a_warning():
    means, variances = np.zeros((2, 2, 3)), np.full((2, 2, 3), 1e-6)
    frames = np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0], [1e200, -1e200, 1e200]])
    log_wcomp, log_b = kernels.gmm_obs_logprob(frames, np.log(np.full((2, 2), 0.5)), means, variances)
    assert np.isfinite(log_wcomp[0]).all() and np.isfinite(log_b[0]).all()
    assert np.isneginf(log_wcomp[1:]).all() and np.isneginf(log_b[1:]).all()
