"""Left-to-right gesture models with Gaussian-mixture emissions.

One model per action, trained with Baum-Welch from a deterministic seeded
initialization (uniform time segmentation plus per-state k-means).  The
actions of a bank train in lockstep: each EM iteration runs one forward and
one backward pass over the sequences of every action still training, while
emissions, posteriors, the convergence test and the M-step stay per action,
so each model is bitwise the one its action would get alone.  States may
only self-loop or advance, the entry state is always the first one, and
scoring works on arbitrary prefixes of a trajectory, which is what makes
early recognition possible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .bn import sums_to_one
from .fusion import SoftActionEvidence

VAR_FLOOR = 1e-6
DEFAULT_STATES = 4
DEFAULT_MIXTURES = 2
MAX_EM_ITERATIONS = 100
EM_REL_TOL = 1e-6

__all__ = [
    "HmmError",
    "Trajectory",
    "HmmModel",
    "GestureBank",
    "PrefixCurve",
    "preprocess",
    "train_hmm",
    "train_bank",
    "forward_loglik",
    "action_posterior",
    "prefix_curve",
]


class HmmError(ValueError):
    """Invalid trajectory, model parameters or unscoreable input."""


@dataclass(frozen=True)
class Trajectory:
    """A time series of D-dimensional hand positions."""

    frames: np.ndarray
    frame_period: float = 1.0 / 30.0

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise HmmError("trajectory needs at least one frame of shape (T, D)")
        if not np.isfinite(frames).all():
            raise HmmError("trajectory contains non-finite values")
        if self.frame_period <= 0:
            raise HmmError("frame_period must be positive")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    def __len__(self):
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def preprocess(raw: Trajectory, torso: np.ndarray) -> Trajectory:
    """Center frames on the torso and divide by the peak distance.

    The result is translation invariant and scale invariant; its largest
    frame norm is exactly one, except for the degenerate case where the hand
    never leaves the torso (all-zero frames, division skipped).  Running the
    function twice (with a zero torso the second time) changes nothing.  A
    peak distance that overflows raises ``HmmError``.
    """
    torso = np.asarray(torso, dtype=np.float64)
    if torso.shape != raw.frames.shape:
        raise HmmError(
            f"torso positions {torso.shape} must match frames {raw.frames.shape}"
        )
    with np.errstate(over="ignore"):
        centered = raw.frames - torso
        peak = float(np.sqrt((centered * centered).sum(axis=1)).max())
    if not np.isfinite(peak):
        raise HmmError("trajectory overflows: its peak distance from the torso is not finite")
    if peak > 0.0:
        centered = centered / peak
    return Trajectory(frames=centered, frame_period=raw.frame_period)


@dataclass(frozen=True)
class HmmModel:
    """Parameters of a single left-to-right model.

    ``log_trans`` is (Q, Q) with finite entries only on the diagonal and the
    first superdiagonal; the entry state is state 0.  Emissions are diagonal
    Gaussian mixtures stored as stacked arrays of shape (Q, M[, D]).
    ``history`` records the per-iteration training log-likelihood, and
    ``capped`` is true when training stopped at ``MAX_EM_ITERATIONS`` before
    the relative-gain test passed; neither is part of the serialized model.
    """

    action_label: str
    log_trans: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    history: tuple[float, ...] = ()
    capped: bool = False

    def __post_init__(self):
        for name in ("log_trans", "weights", "means", "variances"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self._validate()

    def _validate(self) -> None:
        q = self.log_trans.shape[0]
        if self.log_trans.shape != (q, q):
            raise HmmError("log_trans must be square")
        trans = np.exp(self.log_trans)
        band = np.count_nonzero(trans.diagonal()) + np.count_nonzero(trans.diagonal(1))
        if np.count_nonzero(trans) != band:  # a NaN counts as nonzero
            raise HmmError("transitions outside self/next must be exactly zero")
        if not sums_to_one(trans.sum(axis=1)).all():
            raise HmmError("transition rows must sum to 1")
        if self.weights.shape != self.means.shape[:2] or self.means.shape != self.variances.shape:
            raise HmmError("mixture arrays must share (Q, M, D) shapes")
        if self.weights.shape[0] != q:
            raise HmmError("mixture arrays must have one row per state")
        if not sums_to_one(self.weights.sum(axis=1)).all():
            raise HmmError("mixture weights must sum to 1 per state")
        if (self.weights < 0).any():
            raise HmmError("mixture weights must be nonnegative")
        if not np.isfinite(self.means).all():
            raise HmmError("means must be finite")
        if not (np.isfinite(self.variances) & (self.variances >= VAR_FLOOR - 1e-18)).all():
            raise HmmError(f"variances must be finite and stay above the floor {VAR_FLOOR}")

    @property
    def n_states(self) -> int:
        return self.log_trans.shape[0]

    @property
    def n_mixtures(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]


@dataclass(frozen=True)
class GestureBank:
    """One trained model per action, in a fixed label order."""

    models: tuple[HmmModel, ...]

    def __post_init__(self):
        labels = [m.action_label for m in self.models]
        if not labels:
            raise HmmError("bank must contain at least one model")
        if len(set(labels)) != len(labels):
            raise HmmError("duplicate action labels in bank")

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(m.action_label for m in self.models)


def _left_right_log_trans(n_states: int, self_prob: float) -> np.ndarray:
    trans = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        trans[i, i] = self_prob
        trans[i, i + 1] = 1.0 - self_prob
    trans[n_states - 1, n_states - 1] = 1.0
    with np.errstate(divide="ignore"):
        return np.log(trans)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    idx = rng.choice(n, size=k, replace=n < k)
    centroids = points[idx].astype(np.float64)
    assign = np.full(n, -1)
    for _ in range(25):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for c in range(k):
            members = points[new_assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the worst-fitting point
                centroids[c] = points[d2.min(axis=1).argmax()]
        if (new_assign == assign).all():
            break
        assign = new_assign
    return centroids


def _initial_model(
    trajs: Sequence[Trajectory], n_states: int, n_mix: int, seed: int, label: str
) -> HmmModel:
    rng = np.random.default_rng(seed)
    dim = trajs[0].dim
    state_frames: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    for traj in trajs:
        blocks = np.array_split(traj.frames, n_states)
        for q, block in enumerate(blocks):
            state_frames[q].append(block)
    weights = np.zeros((n_states, n_mix))
    means = np.zeros((n_states, n_mix, dim))
    variances = np.zeros((n_states, n_mix, dim))
    for q in range(n_states):
        points = np.concatenate(state_frames[q], axis=0)
        centroids = _kmeans(points, n_mix, rng)
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for m in range(n_mix):
            members = points[assign == m]
            if len(members) == 0:
                weights[q, m] = 1e-3
                means[q, m] = centroids[m]
                variances[q, m] = np.maximum(points.var(axis=0), VAR_FLOOR)
            else:
                weights[q, m] = len(members)
                means[q, m] = members.mean(axis=0)
                variances[q, m] = np.maximum(members.var(axis=0), VAR_FLOOR)
        weights[q] /= weights[q].sum()
    mean_len = sum(len(t) for t in trajs) / len(trajs)
    duration = max(mean_len / n_states, 1.0 + 1e-9)
    self_prob = float(np.clip(1.0 - 1.0 / duration, 0.1, 0.95))
    return HmmModel(
        action_label=label,
        log_trans=_left_right_log_trans(n_states, self_prob),
        weights=weights,
        means=means,
        variances=variances,
    )


def _emissions(model: HmmModel, frames: np.ndarray):
    """``kernels.gmm_obs_logprob`` under one model: component and state log
    densities of every frame.  Model and frames are finite, so an infinite
    squared distance is an overflow, which no likelihood could survive."""
    log_wcomp, log_b = kernels.gmm_obs_logprob(
        frames, np.log(model.weights + 1e-300), model.means, model.variances
    )
    if np.isneginf(log_wcomp).any():
        raise HmmError("the trajectory's coordinates overflow the emission densities")
    return log_wcomp, log_b


def _bank_statistics(models: Sequence[HmmModel], frames, lengths):
    """E-step of models with one state count, each over its own frame-major
    batch of sequences (``frames[k]``, ``lengths[k]``).

    Emissions, posteriors and transition sums are per model; one forward
    and one backward pass cover every sequence, each with its model's
    transitions.  Yields (log-likelihoods, gamma, resp, xi) per model, in
    order, so that one model's posteriors are dropped before the next's.
    """
    log_wcomp, log_b = zip(*map(_emissions, models, frames))
    log_b = np.concatenate(log_b)
    seq_lengths = np.concatenate(lengths)
    log_trans = np.repeat([model.log_trans for model in models], list(map(len, lengths)), axis=0)
    log_alpha = kernels.log_forward(log_trans, log_b, seq_lengths)
    logliks = np.logaddexp.reduce(log_alpha[np.cumsum(seq_lengths) - 1], axis=1)
    if not np.isfinite(logliks).all():
        raise HmmError("sequence has zero likelihood under the current model")
    log_beta = kernels.log_backward(log_trans, log_b, seq_lengths)
    rows = np.cumsum([0] + [len(f) for f in frames])
    seqs = np.cumsum([0] + list(map(len, lengths)))
    for k, model in enumerate(models):
        at = slice(rows[k], rows[k + 1])
        ll = logliks[seqs[k] : seqs[k + 1]]
        gamma = np.exp(log_alpha[at] + log_beta[at] - np.repeat(ll, lengths[k])[:, None])
        resp = gamma[:, :, None] * np.exp(log_wcomp[k] - log_b[at, :, None])
        xi = kernels.transition_xi_sum(
            model.log_trans, log_b[at], log_alpha[at], log_beta[at], ll, lengths[k]
        )
        yield ll, gamma, resp, xi


def _reestimate(model: HmmModel, occupancy, resp_sum, mean_num, sq_num, trans_num) -> HmmModel:
    """The M-step: the model refit to the expected counts of one E-step.

    A transition row no transition leaves, a state no frame occupies and a
    component with almost no weight keep their parameters; the tests are
    written as skip tests, so a NaN count is refit, not kept.
    """
    row_tot = trans_num.sum(axis=1, keepdims=True)
    trans = np.divide(trans_num, row_tot, out=np.exp(model.log_trans), where=row_tot > 0)
    live = ~(occupancy <= 0)[:, None]
    weights = np.divide(
        resp_sum, resp_sum.sum(axis=1, keepdims=True), out=model.weights.copy(), where=live
    )
    fit = (live & ~(resp_sum < 1e-12))[:, :, None]
    count = resp_sum[:, :, None]
    means = np.divide(mean_num, count, out=model.means.copy(), where=fit)
    spread = np.divide(sq_num, count, out=np.zeros_like(sq_num), where=fit) - means * means
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    return HmmModel(
        action_label=model.action_label,
        log_trans=log_trans,
        weights=weights,
        means=means,
        variances=np.where(fit, np.maximum(spread, VAR_FLOOR), model.variances),
    )


def train_hmm(
    trajs: Sequence[Trajectory],
    n_states: int = DEFAULT_STATES,
    n_mix: int = DEFAULT_MIXTURES,
    seed: int = 0,
    action_label: str = "",
) -> HmmModel:
    """One model trained alone: ``train_bank`` with one action, whose seed
    is ``seed`` itself."""
    return train_bank({action_label: trajs}, n_states, n_mix, seed).models[0]


def train_bank(
    trajs_by_action: dict[str, Sequence[Trajectory]],
    n_states: int = DEFAULT_STATES,
    n_mix: int = DEFAULT_MIXTURES,
    seed: int = 0,
) -> GestureBank:
    """Baum-Welch training of one model per action, deterministic for a
    given seed; per-action seeds are offset from ``seed`` in dict order.

    Every action's training set is checked before any EM runs.  The
    actions' EM runs in lockstep: each iteration is one E-step over every
    action still training.  An action stops when its relative
    log-likelihood gain drops below 1e-6, or after ``MAX_EM_ITERATIONS``
    iterations, which its model records as ``capped``.  Each model is
    bitwise the one its action would get trained alone.  Zero entries of
    the left-to-right transition matrix stay zero, and variances never
    fall below the floor.
    """
    if n_states < 1 or n_mix < 1:
        raise HmmError("need at least one state and one mixture component")
    for label, trajs in trajs_by_action.items():
        if not trajs:
            raise HmmError(f"action {label!r}: empty training set")
        for traj in trajs:
            if traj.dim != trajs[0].dim:
                raise HmmError(
                    f"action {label!r}: all trajectories must share the same dimensionality"
                )
            if len(traj) < n_states:
                raise HmmError(
                    f"action {label!r}: trajectory of length {len(traj)} "
                    f"is shorter than {n_states} states"
                )
    sets = list(trajs_by_action.values())
    models = [
        _initial_model(trajs, n_states, n_mix, seed + offset, label)
        for offset, (label, trajs) in enumerate(trajs_by_action.items())
    ]
    frames = [np.concatenate([traj.frames for traj in trajs]) for trajs in sets]
    squares = [f ** 2 for f in frames]
    lengths = [np.array([len(traj) for traj in trajs]) for trajs in sets]
    histories: list[list[float]] = [[] for _ in sets]
    active = list(range(len(sets)))
    for iteration in range(MAX_EM_ITERATIONS):
        if not active:
            break
        stats = _bank_statistics(
            [models[k] for k in active], [frames[k] for k in active], [lengths[k] for k in active]
        )
        training = []
        for k, (logliks, gamma, resp, trans_num) in zip(active, stats):
            history = histories[k]
            history.append(float(logliks.sum()))
            if iteration > 0 and history[-1] - history[-2] < EM_REL_TOL * abs(history[-2]):
                continue
            models[k] = _reestimate(
                models[k],
                occupancy=gamma.sum(axis=0),
                resp_sum=resp.sum(axis=0),
                mean_num=np.einsum("tqm,td->qmd", resp, frames[k]),
                sq_num=np.einsum("tqm,td->qmd", resp, squares[k]),
                trans_num=trans_num,
            )
            training.append(k)
        active = training
    return GestureBank(
        models=tuple(
            replace(model, history=tuple(history), capped=k in active)
            for k, (model, history) in enumerate(zip(models, histories))
        )
    )


def _prefix_logliks(models: Sequence[HmmModel], traj: Trajectory) -> np.ndarray:
    """(T, K) log-likelihoods of every prefix under each of K models, from
    one forward pass.  Models with fewer states are padded with states no
    transition enters, which leaves their scores unchanged."""
    n_states = max(m.n_states for m in models)
    log_trans = np.full((len(models), n_states, n_states), -np.inf)
    log_b = np.zeros((len(models), len(traj), n_states))
    for k, model in enumerate(models):
        if traj.dim != model.dim:
            raise HmmError(
                f"trajectory dimension {traj.dim} does not match model dimension {model.dim}"
            )
        log_trans[k, : model.n_states, : model.n_states] = model.log_trans
        log_b[k, :, : model.n_states] = _emissions(model, traj.frames)[1]
    log_alpha = kernels.log_forward(
        log_trans, log_b.reshape(-1, n_states), [len(traj)] * len(models)
    )
    return np.logaddexp.reduce(log_alpha, axis=1).reshape(len(models), -1).T


def forward_loglik(model: HmmModel, traj: Trajectory) -> float:
    """Log-likelihood of the whole trajectory under one model."""
    return float(_prefix_logliks([model], traj)[-1, 0])


def action_posterior(bank: GestureBank, traj: Trajectory) -> SoftActionEvidence:
    """Posterior over actions from normalized likelihoods (uniform prior)."""
    weights = _normalise(_prefix_logliks(bank.models, traj)[-1])
    return SoftActionEvidence(weights=weights, actions=bank.actions)


def _normalise(log_liks: np.ndarray) -> np.ndarray:
    """Likelihoods scaled to sum to one along the last axis (uniform prior)."""
    peak = log_liks.max(axis=-1, keepdims=True)
    if (peak == -np.inf).any():
        raise HmmError("the trajectory or a prefix of it has zero likelihood under every model")
    weights = np.exp(log_liks - peak)
    return weights / weights.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class PrefixCurve:
    """Per-prefix scores for every action.

    ``log_liks[t-1, k]`` is log L(first t frames | action k); ``scores`` is
    the same divided by t, and ``posteriors`` applies the uniform-prior
    normalization per prefix.
    """

    actions: tuple[str, ...]
    log_liks: np.ndarray
    scores: np.ndarray
    posteriors: np.ndarray

    def __len__(self):
        return self.log_liks.shape[0]

    def at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Scores and posterior after the first ``t`` frames (1-indexed)."""
        if t < 1 or t > len(self):
            raise HmmError(f"prefix length {t} outside 1..{len(self)}")
        return self.scores[t - 1], self.posteriors[t - 1]


def prefix_curve(bank: GestureBank, traj: Trajectory) -> PrefixCurve:
    """Length-normalized prefix log-likelihoods plus per-prefix posteriors."""
    log_liks = _prefix_logliks(bank.models, traj)
    t = np.arange(1, len(traj) + 1)[:, None].astype(np.float64)
    return PrefixCurve(
        actions=bank.actions,
        log_liks=log_liks,
        scores=log_liks / t,
        posteriors=_normalise(log_liks),
    )
