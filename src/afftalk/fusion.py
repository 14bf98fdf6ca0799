"""Combining network inference with soft action evidence.

The gesture recognizer produces a probability vector over actions.  That
vector enters network inference as a likelihood factor on the action
variable (virtual evidence): multiply, then renormalize.  When the action is
itself queried the factor weights the joint directly; when it is latent the
weighted joint is summed over the action.  Both give the same marginals,
and a uniform vector degenerates to the plain network query.  The weighted
joint is linear in the vector, so a confidence sweep weights one query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bn import (
    ENUM_CAP,
    BayesNet,
    BnError,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    JointTable,
    StateSpaceError,
    query,
    sums_to_one,
)
from .schema import ACTION_VAR

__all__ = [
    "SoftActionEvidence",
    "FusionResult",
    "SweepResult",
    "WordDeltaResult",
    "fuse_query",
    "confidence_sweep",
    "word_probabilities",
    "word_delta",
]


@dataclass(frozen=True)
class SoftActionEvidence:
    """A probability vector over the action values, labeled with them."""

    weights: np.ndarray
    actions: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise BnError("soft evidence must be a vector")
        if (w < 0).any():
            raise BnError("soft evidence weights must be nonnegative")
        if not sums_to_one(w.sum()):
            raise BnError("soft evidence weights must sum to 1")
        if len(self.actions) != len(w):
            raise BnError("labels and weights disagree in length")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, actions: tuple[str, ...]) -> "SoftActionEvidence":
        return cls(np.full(len(actions), 1.0 / len(actions)), actions)

    @classmethod
    def point_mass(cls, actions: tuple[str, ...], action: str) -> "SoftActionEvidence":
        w = np.zeros(len(actions))
        w[actions.index(action)] = 1.0
        return cls(w, actions)

    def aligned_to(self, labels: Sequence[str]) -> np.ndarray:
        """The weights in the order of ``labels``.  This is the one check of
        a gesture's labels: ``actions`` must be exactly ``labels``, in any
        order."""
        if self.actions == labels:
            return self.weights
        if sorted(self.actions) != sorted(labels):
            raise BnError(
                f"soft evidence is missing an action label or has an extra one: "
                f"{self.actions} against the action's {tuple(labels)}"
            )
        return self.weights[[self.actions.index(lab) for lab in labels]]


@dataclass(frozen=True)
class FusionResult:
    """Renormalized combined distribution plus the pre-normalization mass.

    ``consistency`` is the total weight the soft evidence and the network put
    on the same actions; near zero means the gesture contradicts the model.
    """

    table: JointTable
    consistency: float


def _fuse(net: BayesNet, infer_vars: tuple[str, ...], obs: Evidence, weights: np.ndarray):
    """P(infer_vars | obs) weighted along the action by ``weights``, renormalized.

    ``weights`` is one vector (K,) in the action's label order, or a stack
    (G, K) of them that all weight the same query.  Returns the variables,
    their labels, the fused table(s) and the mass of each before
    renormalizing.  More than ``ENUM_CAP`` weighted cells raise
    ``StateSpaceError`` before any is allocated; ``query`` checks everything
    else about the request.
    """
    if not infer_vars:
        raise BnError("infer_vars must be nonempty")
    if ACTION_VAR in obs:
        raise EvidenceError(
            f"{ACTION_VAR!r} cannot be observed directly; "
            "feed it through soft evidence instead"
        )
    asked = ACTION_VAR in infer_vars
    # a latent action is queried as the last axis, then summed out
    base = query(net, infer_vars if asked else (*infer_vars, ACTION_VAR), obs)
    lead = weights.shape[:-1]
    cells = math.prod(lead) * base.probs.size
    if cells > ENUM_CAP:
        raise StateSpaceError(
            f"the weighted tables have {cells} cells, more than the cap of {ENUM_CAP}"
        )
    shape = [1] * base.probs.ndim
    shape[base.axis(ACTION_VAR)] = weights.shape[-1]
    combined = base.probs * weights.reshape(lead + tuple(shape))
    mass = combined.reshape(lead + (-1,)).sum(axis=-1)
    if np.count_nonzero(mass) < mass.size:  # a mass is never negative
        raise ImpossibleEvidenceError(
            "soft action evidence is inconsistent with the network"
        )
    if not asked:
        combined = combined.sum(axis=-1)
    probs = combined / mass[(..., *[None] * (combined.ndim - len(lead)))]
    n = len(infer_vars)
    return base.variables[:n], base.labels[:n], probs, mass


def fuse_query(
    net: BayesNet, soft: SoftActionEvidence, infer_vars: Sequence[str], obs: Evidence
) -> FusionResult:
    """Combined inference over ``infer_vars`` given hard and soft evidence.

    The action may be inferred but not observed.
    """
    weights = soft.aligned_to(net.schema.variable(ACTION_VAR).labels)
    variables, labels, probs, mass = _fuse(net, tuple(infer_vars), obs, weights)
    return FusionResult(JointTable(variables, labels, probs), consistency=float(mass))


@dataclass(frozen=True)
class SweepResult:
    """Posterior over ``variables`` for each confidence grid point."""

    grid: tuple[float, ...]
    variables: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    posteriors: np.ndarray  # (len(grid), *table shape)


def confidence_sweep(
    net: BayesNet,
    obs: Evidence,
    target_action: str,
    grid: Sequence[float],
    infer_vars: Sequence[str] | None = None,
) -> SweepResult:
    """Fused inference while ramping the recognizer's confidence.

    Each grid point ``p`` puts mass ``p`` on the target action and splits the
    remainder equally over the other actions, so ``p`` must stay in [1/K, 1]
    (a point within 1e-9 of it is clipped into it, in ``grid`` too).  With
    ``infer_vars`` None the posterior over the action itself is returned; an
    empty ``infer_vars`` is an error.  Every grid point weights the one query.
    """
    actions = net.schema.variable(ACTION_VAR).labels
    if target_action not in actions:
        raise EvidenceError(f"unknown action value {target_action!r}")
    k = len(actions)
    lo = 1.0 / k
    grid = tuple(float(p) for p in grid)
    if not grid:
        raise BnError("confidence grid must hold at least one point")
    for p in grid:
        if not lo - 1e-9 <= p <= 1.0 + 1e-9:  # a NaN fails too
            raise BnError(f"grid value {p} outside [{lo}, 1]")
    infer = (ACTION_VAR,) if infer_vars is None else tuple(infer_vars)
    points = np.clip(grid, lo, 1.0)
    weights = np.repeat(((1.0 - points) / (k - 1))[:, None], k, axis=1)
    weights[:, actions.index(target_action)] = points
    weights /= weights.sum(axis=1, keepdims=True)
    variables, labels, posteriors, _ = _fuse(net, infer, obs, weights)
    return SweepResult(tuple(points.tolist()), variables, labels, posteriors)


@dataclass(frozen=True)
class WordDeltaResult:
    """Per-word change in presence probability caused by the soft evidence."""

    words: tuple[str, ...]
    baseline: np.ndarray
    combined: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.combined - self.baseline


def word_probabilities(
    net: BayesNet,
    obs: Evidence,
    words: Sequence[str],
    soft: SoftActionEvidence | None = None,
) -> np.ndarray:
    """P(word present | obs[, soft]) for each of ``words``, in order.

    An observed word's probability is its evidence: 1.0 if observed
    present, 0.0 if observed absent.  ``soft`` must carry exactly the
    action's labels, in any order, whether or not a query needs it.

    Without ``soft`` this is the plain network query.  A word with no child
    and no word parent depends on the evidence only through its parents, so
    one joint query over the unobserved parents of all such words serves
    them all (``fuse_query`` weights the action in it when ``soft`` is
    given): each word's CPT is contracted against that joint's marginal
    over its own parents.  Any other word gets its own query.
    """
    schema = net.schema
    if soft is not None:
        labels = schema.variable(ACTION_VAR).labels
        soft = SoftActionEvidence(soft.aligned_to(labels), labels)

    def ask(names: tuple[str, ...]) -> np.ndarray:
        """The posterior over ``names``, weighted by ``soft`` when given."""
        if soft is None:
            return query(net, names, obs).probs
        return fuse_query(net, soft, names, obs).table.probs

    observed = dict(obs.items())
    has_child = {p for ps in net.parents for p in ps}
    word_columns = set(schema.word_columns)
    joint_words = {
        w for w, i in zip(words, map(schema.index, words))
        if w not in observed and i not in has_child and word_columns.isdisjoint(net.parents[i])
    }
    free = {
        p for w in joint_words for p in net.parents[schema.index(w)]
        if schema.names[p] not in observed
    }
    if not free:  # nothing to infer jointly; the per-word queries check obs
        joint_words = set()
    axes = sorted(free)  # ascending schema order, like CPT parent axes
    if joint_words:
        joint = ask(tuple(schema.names[v] for v in axes))
    probs = np.empty(len(words))
    for k, word in enumerate(words):
        true_idx = schema.value_index(word, "true")
        if word in observed:
            probs[k] = float(observed[word] == true_idx)
        elif word in joint_words:
            i = schema.index(word)
            ps = net.parents[i]
            slicer = tuple(observed.get(schema.names[p], slice(None)) for p in ps)
            cpt = net.cpts[i][slicer + (true_idx,)]
            kept = {axes.index(p) for p in ps if schema.names[p] not in observed}
            drop = tuple(a for a in range(len(axes)) if a not in kept)
            probs[k] = float((joint.sum(axis=drop) * cpt).sum())
        else:
            probs[k] = ask((word,))[true_idx]
    return probs


def word_delta(
    net: BayesNet,
    obs: Evidence,
    soft: SoftActionEvidence,
    words: Sequence[str] | None = None,
) -> WordDeltaResult:
    """P(word present | obs, soft) minus P(word present | obs) for each word.

    Words that are themselves observed are excluded.
    """
    observed = {name for name, _ in obs.items()}
    if words is None:
        words = [w for w in net.schema.word_variables() if w not in observed]
    else:
        clash = set(words) & observed
        if clash:
            raise EvidenceError(
                f"cannot delta observed words: {', '.join(sorted(clash))}"
            )
    return WordDeltaResult(
        words=tuple(words),
        baseline=word_probabilities(net, obs, words),
        combined=word_probabilities(net, obs, words, soft),
    )
