"""Combining network inference with soft action evidence.

The gesture recognizer produces a probability vector over actions.  That
vector enters network inference as a likelihood factor on the action
variable (virtual evidence): multiply, then renormalize.  When the action is
itself queried the factor weights the joint directly; when it is latent the
weighted joint is summed over the action.  Both give the same marginals,
and a uniform vector degenerates to the plain network query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bn import (
    BayesNet,
    BnError,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    JointTable,
    query,
)

WEIGHT_SUM_TOL = 1e-12
DEFAULT_ACTION_VAR = "Action"

__all__ = [
    "SoftActionEvidence",
    "QuerySpec",
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
    """A probability vector over the action values, optionally labeled."""

    weights: np.ndarray
    actions: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise BnError("soft evidence must be a vector")
        if (w < 0).any():
            raise BnError("soft evidence weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise BnError("soft evidence weights must sum to 1")
        if self.actions is not None and len(self.actions) != len(w):
            raise BnError("labels and weights disagree in length")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, k: int, actions=None) -> "SoftActionEvidence":
        return cls(np.full(k, 1.0 / k), actions)

    @classmethod
    def point_mass(cls, k: int, index: int, actions=None) -> "SoftActionEvidence":
        w = np.zeros(k)
        w[index] = 1.0
        return cls(w, actions)

    def aligned_to(self, labels: Sequence[str]) -> np.ndarray:
        """Weights reordered to the given label order (no-op when unlabeled)."""
        if self.actions is None:
            if len(self.weights) != len(labels):
                raise BnError("soft evidence length does not match action arity")
            return self.weights
        try:
            order = [self.actions.index(lab) for lab in labels]
        except ValueError as exc:
            raise BnError(f"soft evidence is missing an action label: {exc}") from None
        return self.weights[order]


@dataclass(frozen=True)
class QuerySpec:
    """What to infer and what was observed; the action may not be observed."""

    infer_vars: tuple[str, ...]
    obs: Evidence
    action_var: str = DEFAULT_ACTION_VAR

    def validate(self, net: BayesNet) -> None:
        if not self.infer_vars:
            raise BnError("infer_vars must be nonempty")
        self.obs.validate(net.schema)
        if self.action_var in self.obs:
            raise EvidenceError(
                f"{self.action_var!r} cannot be observed directly; "
                "feed it through soft evidence instead"
            )
        overlap = set(self.infer_vars) & {name for name, _ in self.obs.items()}
        if overlap:
            raise EvidenceError(
                f"inference variables also observed: {', '.join(sorted(overlap))}"
            )


@dataclass(frozen=True)
class FusionResult:
    """Renormalized combined distribution plus the pre-normalization mass.

    ``consistency`` is the total weight the soft evidence and the network put
    on the same actions; near zero means the gesture contradicts the model.
    """

    table: JointTable
    consistency: float


def fuse_query(net: BayesNet, soft: SoftActionEvidence, spec: QuerySpec) -> FusionResult:
    """Combined inference over ``spec.infer_vars`` given hard and soft evidence."""
    spec.validate(net)
    action = spec.action_var
    weights = soft.aligned_to(net.schema.variable(action).labels)
    asked = action in spec.infer_vars
    # a latent action is queried as the last axis, then summed out
    base = query(net, tuple(spec.infer_vars) + (() if asked else (action,)), spec.obs)
    shape = [1] * base.probs.ndim
    shape[base.axis(action)] = len(weights)
    combined = base.probs * weights.reshape(shape)
    mass = float(combined.sum())
    if mass <= 0.0:
        raise ImpossibleEvidenceError(
            "soft action evidence is inconsistent with the network"
        )
    if not asked:
        combined = combined.sum(axis=-1)
    n = len(spec.infer_vars)
    return FusionResult(
        table=JointTable(base.variables[:n], base.labels[:n], combined / mass),
        consistency=mass,
    )


@dataclass(frozen=True)
class SweepResult:
    """Posterior over ``variables`` for each confidence grid point."""

    grid: tuple[float, ...]
    variables: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    posteriors: np.ndarray  # (len(grid), *table shape)
    target_action: str


def confidence_sweep(
    net: BayesNet,
    obs: Evidence,
    target_action: str,
    grid: Sequence[float],
    infer_vars: Sequence[str] | None = None,
    action_var: str = DEFAULT_ACTION_VAR,
) -> SweepResult:
    """Fused inference while ramping the recognizer's confidence.

    Each grid point ``p`` puts mass ``p`` on the target action and splits the
    remainder equally over the other actions, so ``p`` must stay in
    [1/K, 1].  By default the posterior over the action itself is returned.
    """
    labels = net.schema.variable(action_var).labels
    k = len(labels)
    target_idx = labels.index(target_action) if target_action in labels else -1
    if target_idx < 0:
        raise EvidenceError(f"unknown action value {target_action!r}")
    lo = 1.0 / k
    grid = tuple(float(p) for p in grid)
    if not grid:
        raise BnError("confidence grid must hold at least one point")
    for p in grid:
        if p < lo - 1e-9 or p > 1.0 + 1e-9:
            raise BnError(f"grid value {p} outside [{lo}, 1]")
    infer = tuple(infer_vars) if infer_vars else (action_var,)
    spec = QuerySpec(infer_vars=infer, obs=obs, action_var=action_var)
    tables = []
    for p in grid:
        weights = np.full(k, (1.0 - p) / (k - 1))
        weights[target_idx] = p
        weights /= weights.sum()
        tables.append(fuse_query(net, SoftActionEvidence(weights, labels), spec).table)
    return SweepResult(
        grid=grid,
        variables=tables[0].variables,
        labels=tables[0].labels,
        posteriors=np.stack([t.probs for t in tables], axis=0),
        target_action=target_action,
    )


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
    action_var: str = DEFAULT_ACTION_VAR,
) -> np.ndarray:
    """P(word present | obs[, soft]) for each of ``words``, in order.

    Without ``soft`` this is the plain network query.  A word with no child
    and no word parent depends on the evidence only through its parents, so
    one joint query over the unobserved parents of all such words serves
    them all (``fuse_query`` weights the action in it when ``soft`` is
    given): each word's CPT is contracted against that joint's marginal
    over its own parents.  Any other word gets its own query.
    """
    schema = net.schema
    observed = dict(obs.items())
    word_vars = set(schema.word_variables())
    has_child = {p for ps in net.parents for p in ps}

    def by_joint(word: str) -> bool:
        i = schema.index(word)
        return (
            word not in observed
            and i not in has_child
            and not any(schema.names[p] in word_vars for p in net.parents[i])
        )

    joint_words = {w for w in words if by_joint(w)}
    free = {
        p for w in joint_words for p in net.parents[schema.index(w)]
        if schema.names[p] not in observed
    }
    if not free:  # nothing to infer jointly; the per-word queries check obs
        joint_words = set()
    axes = sorted(free)  # ascending schema order, like CPT parent axes
    if joint_words:
        names = tuple(schema.names[v] for v in axes)
        if soft is None:
            joint = query(net, names, obs).probs
        else:
            spec = QuerySpec(infer_vars=names, obs=obs, action_var=action_var)
            joint = fuse_query(net, soft, spec).table.probs
    probs = np.empty(len(words))
    for k, word in enumerate(words):
        true_idx = schema.value_index(word, "true")
        if word in joint_words:
            i = schema.index(word)
            ps = net.parents[i]
            slicer = tuple(observed.get(schema.names[p], slice(None)) for p in ps)
            cpt = net.cpts[i][slicer + (true_idx,)]
            kept = {axes.index(p) for p in ps if schema.names[p] not in observed}
            drop = tuple(a for a in range(len(axes)) if a not in kept)
            probs[k] = float((joint.sum(axis=drop) * cpt).sum())
        elif soft is None:
            probs[k] = query(net, (word,), obs).probs[true_idx]
        else:
            spec = QuerySpec(infer_vars=(word,), obs=obs, action_var=action_var)
            probs[k] = fuse_query(net, soft, spec).table.probs[true_idx]
    return probs


def word_delta(
    net: BayesNet,
    obs: Evidence,
    soft: SoftActionEvidence,
    words: Sequence[str] | None = None,
    action_var: str = DEFAULT_ACTION_VAR,
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
        baseline=word_probabilities(net, obs, words, None, action_var),
        combined=word_probabilities(net, obs, words, soft, action_var),
    )
