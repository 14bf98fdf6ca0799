"""Hot numeric kernels for the gesture models.

The passes work on a batch of N sequences stored frame-major: the rows of
all sequences concatenated into one ``(sum(lengths), Q)`` array, with
``lengths`` giving each sequence's frame count.  Inside, they pad to
``(T_max, N, Q)`` and step every sequence at once; the backward pass pads
end-aligned, so that every sequence ends on its last step.  Transitions are
left-to-right (``HmmModel`` validates this), so a step combines each state
only with its neighbour: a diagonal term plus a shifted superdiagonal term,
one two-way ``logaddexp`` per step instead of a Q-way reduction per state.

* ``gmm_obs_logprob`` gives the log density of each frame under each
  mixture component, ``log_wcomp`` (F, Q, M), and under each state,
  ``log_b`` (F, Q).  It adds the squared distances one dimension at a
  time, each as an exact difference ``(x_d - mu_d)^2 / sigma_d^2`` over an
  (F, Q*M) array, so a trajectory far from the origin loses nothing to
  cancellation, and combines the components with one two-way
  ``logaddexp`` per component.
* ``log_forward`` gives log alpha_t(j) = log P(o_1..t, q_t = j), entering
  in state 0; ``logaddexp.reduce`` over its states is the log-likelihood
  of each prefix.
* ``log_backward`` gives log beta_t(i) = log P(o_t+1..T | q_t = i).
* ``transition_xi_sum`` sums the transition posteriors
  xi_t(i, j) = P(q_t = i, q_t+1 = j | o) over all frames and sequences.

Everything stays in the log domain.  A per-frame rescaled linear-domain
alpha (Rabiner 1989, section V.A) flushes a state whose probability falls
more than ~708 nats below the frame's best to zero, which changes the
result when that state later wins; the log domain has no such limit, and
with the band its step costs fewer numpy calls than a rescaled one.  A
frame no state can emit gives ``-inf`` from there on, never NaN.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "backend",
    "gmm_obs_logprob",
    "log_forward",
    "log_backward",
    "transition_xi_sum",
]


def backend() -> str:
    """Name of the kernel implementation, always ``"numpy"``."""
    return "numpy"


def gmm_obs_logprob(frames, log_weights, means, variances):
    """``log_wcomp`` (F, Q, M) and ``log_b`` (F, Q) of (F, D) frames under
    (Q, M[, D]) mixture arrays.  A squared distance past the float range
    is ``inf``, without a warning, which makes its component ``-inf``."""
    n_states, n_mix, dim = means.shape
    mu = means.reshape(-1, dim).T
    var = variances.reshape(-1, dim).T
    quad = np.zeros((len(frames), n_states * n_mix))
    with np.errstate(over="ignore"):
        for d in range(dim):
            term = np.subtract.outer(frames[:, d], mu[d])
            term *= term
            term /= var[d]
            quad += term
    norm = np.log(variances).sum(axis=-1) + dim * _LOG_2PI
    log_wcomp = log_weights - 0.5 * (quad.reshape(-1, n_states, n_mix) + norm)
    log_b = log_wcomp[:, :, 0]
    for m in range(1, n_mix):
        log_b = np.logaddexp(log_b, log_wcomp[:, :, m])
    return log_wcomp, log_b


def _band(log_trans):
    """Log self and log advance probabilities, per state, of a (Q, Q)
    transition matrix or of each one in an (N, Q, Q) stack."""
    return np.diagonal(log_trans, 0, -2, -1), np.diagonal(log_trans, 1, -2, -1)


def _padded(rows, lengths, end_aligned):
    """Frame-major ``rows`` as a zero-padded (T_max, N, Q) array, plus the
    (time, sequence) index of every row, which maps the padding back.
    Every sequence starts on the first step, or, ``end_aligned``, ends on
    the last."""
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    if end_aligned:
        starts -= lengths.max() - lengths
    seq = np.repeat(np.arange(len(lengths)), lengths)
    time = np.arange(len(rows)) - starts[seq]
    out = np.zeros((lengths.max(), len(lengths), rows.shape[1]))
    out[time, seq] = rows
    return out, (time, seq)


def log_forward(log_trans, log_obs, lengths):
    """Log alpha, frame-major.  ``log_trans`` is (Q, Q), or (N, Q, Q) to
    give each sequence its own transitions."""
    stay, advance = _band(log_trans)
    log_b, index = _padded(log_obs, lengths, end_aligned=False)
    log_alpha = np.full_like(log_b, -np.inf)
    log_alpha[0, :, 0] = log_b[0, :, 0]
    for t in range(1, len(log_b)):
        cur = np.add(log_alpha[t - 1], stay, out=log_alpha[t])
        np.logaddexp(cur[:, 1:], log_alpha[t - 1, :, :-1] + advance, out=cur[:, 1:])
        cur += log_b[t]
    del log_b  # before the frame-major copy: a bank-wide pass peaks lower
    return log_alpha[index]


def log_backward(log_trans, log_obs, lengths):
    """Log beta, frame-major; zero on each sequence's last frame.  The
    padding is end-aligned, so every sequence ends on the last step."""
    stay, advance = _band(log_trans)
    log_b, index = _padded(log_obs, lengths, end_aligned=True)
    log_beta = np.zeros_like(log_b)
    for t in range(len(log_b) - 2, -1, -1):
        ahead = log_b[t + 1] + log_beta[t + 1]
        cur = np.add(ahead, stay, out=log_beta[t])
        np.logaddexp(cur[:, :-1], ahead[:, 1:] + advance, out=cur[:, :-1])
    del log_b  # as in log_forward
    return log_beta[index]


def transition_xi_sum(log_trans, log_obs, log_alpha, log_beta, logliks, lengths):
    """(Q, Q) sum of xi_t(i, j) over every frame pair within each sequence;
    ``logliks`` holds each sequence's finite log-likelihood."""
    stay, advance = _band(log_trans)
    here = log_alpha[:-1] - np.repeat(logliks, lengths)[:-1, None]
    ahead = log_obs[1:] + log_beta[1:]
    ahead[np.cumsum(lengths)[:-1] - 1] = -np.inf  # pairs across two sequences
    states = np.arange(len(stay))
    xi = np.zeros((len(stay), len(stay)))
    xi[states, states] = np.exp(here + stay + ahead).sum(axis=0)
    xi[states[:-1], states[1:]] = np.exp(here[:, :-1] + advance + ahead[:, 1:]).sum(axis=0)
    return xi
