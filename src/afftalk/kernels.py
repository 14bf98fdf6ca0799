"""Hot numeric kernels for the gesture models.

The passes work on a batch of N sequences stored frame-major: the rows of
all sequences concatenated into one ``(sum(lengths), Q)`` array, with
``lengths`` giving each sequence's frame count.  Inside, they pad
states-major, to ``(T_max, Q, N)``, and step every sequence at once over
contiguous (Q, N) rows; the backward pass pads end-aligned, so that every
sequence ends on its last step.  Transitions are left-to-right
(``HmmModel`` validates this), so a step combines each state only with its
neighbour: a diagonal term plus a shifted superdiagonal term, one two-way
``logaddexp`` per step instead of a Q-way reduction per state.  A step runs
the same elementwise operations in any layout, so the layout moves no bit.

* ``gmm_obs_logprob`` gives the log density of each frame under each
  mixture component, ``log_wcomp`` (F, Q, M), and under each state,
  ``log_b`` (F, Q).  It adds the squared distances one dimension at a
  time, each as an exact difference ``(x_d - mu_d)^2 / sigma_d^2`` over a
  frames-minor (Q*M, F) array, so a trajectory far from the origin loses
  nothing to cancellation, and combines the components with one two-way
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
    mu = means.reshape(-1, dim)
    var = variances.reshape(-1, dim)
    cols = np.ascontiguousarray(frames.T)
    quad = np.zeros((n_states * n_mix, len(frames)))
    term = np.empty_like(quad)
    with np.errstate(over="ignore"):
        for d in range(dim):
            np.subtract(cols[d], mu[:, d, None], out=term)
            term *= term
            term /= var[:, d, None]
            quad += term
    quad = np.ascontiguousarray(quad.T).reshape(-1, n_states, n_mix)
    norm = np.log(variances).sum(axis=-1) + dim * _LOG_2PI
    log_wcomp = log_weights - 0.5 * (quad + norm)
    log_b = log_wcomp[:, :, 0]
    for m in range(1, n_mix):
        log_b = np.logaddexp(log_b, log_wcomp[:, :, m])
    return log_wcomp, log_b


def _band(log_trans):
    """Log self and log advance probabilities, per state, of a (Q, Q)
    transition matrix or of each one in an (N, Q, Q) stack."""
    return np.diagonal(log_trans, 0, -2, -1), np.diagonal(log_trans, 1, -2, -1)


def _band_rows(log_trans, n_seqs):
    """``_band`` states-major: contiguous (Q, N) self and (Q-1, N) advance
    arrays, one column per sequence."""
    for band in _band(log_trans):
        rows = band.T if band.ndim == 2 else band[:, None]
        yield np.ascontiguousarray(np.broadcast_to(rows, (len(rows), n_seqs)))


def _padded(rows, lengths, end_aligned):
    """Frame-major ``rows`` as a zero-padded states-major (T_max, Q, N)
    array, so that each step's rows of one state across sequences are
    contiguous, plus the (time, sequence) index of every row, which maps
    the padding back.  Every sequence starts on the first step, or,
    ``end_aligned``, ends on the last."""
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    if end_aligned:
        starts -= lengths.max() - lengths
    seq = np.repeat(np.arange(len(lengths)), lengths)
    time = np.arange(len(rows)) - starts[seq]
    out = np.zeros((lengths.max(), rows.shape[1], len(lengths)))
    out[time, :, seq] = rows
    return out, (time, slice(None), seq)


def log_forward(log_trans, log_obs, lengths):
    """Log alpha, frame-major.  ``log_trans`` is (Q, Q), or (N, Q, Q) to
    give each sequence its own transitions."""
    log_b, index = _padded(log_obs, lengths, end_aligned=False)
    stay, advance = _band_rows(log_trans, log_b.shape[2])
    log_alpha = np.full_like(log_b, -np.inf)
    log_alpha[0, 0] = log_b[0, 0]
    moved = np.empty_like(advance)
    for t in range(1, len(log_b)):
        cur = np.add(log_alpha[t - 1], stay, out=log_alpha[t])
        np.add(log_alpha[t - 1, :-1], advance, out=moved)
        np.logaddexp(cur[1:], moved, out=cur[1:])
        cur += log_b[t]
    del log_b  # before the frame-major copy: a bank-wide pass peaks lower
    return log_alpha[index]


def log_backward(log_trans, log_obs, lengths):
    """Log beta, frame-major; zero on each sequence's last frame.  The
    padding is end-aligned, so every sequence ends on the last step."""
    log_b, index = _padded(log_obs, lengths, end_aligned=True)
    stay, advance = _band_rows(log_trans, log_b.shape[2])
    log_beta = np.zeros_like(log_b)
    ahead = np.empty_like(stay)
    moved = np.empty_like(advance)
    for t in range(len(log_b) - 2, -1, -1):
        np.add(log_b[t + 1], log_beta[t + 1], out=ahead)
        cur = np.add(ahead, stay, out=log_beta[t])
        np.add(ahead[1:], advance, out=moved)
        np.logaddexp(cur[:-1], moved, out=cur[:-1])
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
