"""Seeded synthetic stand-in for the tabletop manipulation recordings.

Each trial draws an action and object features uniformly, rolls the motion
effects from explicit conditional rows, writes a congruent verbal
description in the bundled grammar's words, and can attach a noisy 3D hand
trajectory built from per-action waypoint templates.  The effect rows, the
description rules and the templates are module constants; the only settings
are the trajectories' noise and length range (``WorldConfig``).  Everything
is a pure function of (config, seed).
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from .bn import BOOL_LABELS, Dataset, WorldSchema
from .grammar import Sentence
from .hmm import Trajectory, preprocess
from .schema import (
    ACTION_VAR,
    ACTIONS,
    AFFORDANCE_VARIABLES,
    EFFECT_VARS,
    FEATURE_VARS,
    default_schema,
)

__all__ = [
    "WorldError",
    "WorldConfig",
    "Trial",
    "default_config",
    "sample_trial",
    "sample_description",
    "sample_trajectory",
    "generate_trials",
    "trials_to_dataset",
]


class WorldError(ValueError):
    """Out-of-range generator setting or unknown action."""


# ---------------------------------------------------------------------------
# description rules

AGENTS = ("the robot", "he", "baltazar")
AGENT_WEIGHTS = (0.5, 0.25, 0.25)

VERB_FAMILIES = {"grasp": ("grasp", "pick"), "tap": ("tap", "push"), "touch": ("touch", "poke")}


def _verb_forms(stem3: str, past: str, ing: str) -> tuple[str, ...]:
    return (stem3, past, f"has {past}", f"just {past}", f"has just {past}", f"is {ing}")


VERB_FORMS = {
    lemma: _verb_forms(*stems)
    for lemma, stems in {
        "touch": ("touches", "touched", "touching"),
        "poke": ("pokes", "poked", "poking"),
        "tap": ("taps", "tapped", "tapping"),
        "push": ("pushes", "pushed", "pushing"),
        "grasp": ("grasps", "grasped", "grasping"),
        "pick": ("picks", "picked", "picking"),
    }.items()
}

SHAPE_WORDS = {"sphere": ("sphere", "ball"), "box": ("box", "cube", "square")}
COLOR_WORDS = {"blue": "blue", "yellow": "yellow", "green1": "green", "green2": "green"}
SIZE_WORDS = {"small": "small", "medium": None, "big": "big"}
ATTRIBUTE_PROB = 0.5  # chance that each object mention names its size, and its color


def conjunction(action: str, objvel: str) -> str:
    """"and" when the object moved as the action intends, else "but"."""
    if action == "grasp":
        return "and" if objvel == "medium" else "but"
    if action == "tap":
        return "and" if objvel in ("medium", "fast") else "but"
    return "and" if objvel == "slow" else "but"


def effect_phrases(action: str, objvel: str, shape: str) -> tuple[str, ...]:
    """The phrases, drawn uniformly, that describe the object's motion."""
    if objvel == "slow":
        return ("is inert", "is still")
    if action == "grasp":
        return ("rises", "is rising", "moves", "is moving")
    if action == "tap":
        motion = ("rolls", "is rolling") if shape == "sphere" else ("slides", "is sliding")
        return motion + ("moves", "is moving")
    return ("moves", "is moving")


# ---------------------------------------------------------------------------
# effect rows and trajectory templates


def _shape_free(rows: dict[str, tuple[float, ...]]) -> dict[tuple[str, str], tuple[float, ...]]:
    shapes = dict(AFFORDANCE_VARIABLES)["Shape"]
    return {(action, shape): row for action, row in rows.items() for shape in shapes}


# P(effect | Action, Shape), keyed by the labels; no effect depends on Size
EFFECT_ROWS: dict[str, dict[tuple[str, str], tuple[float, ...]]] = {
    "ObjVel": {
        ("tap", "sphere"): (0.1, 0.2, 0.7),
        ("tap", "box"): (0.6, 0.3, 0.1),
        ("grasp", "sphere"): (0.3, 0.7, 0.0),
        ("grasp", "box"): (0.3, 0.7, 0.0),
        ("touch", "sphere"): (0.9, 0.1, 0.0),
        ("touch", "box"): (0.9, 0.1, 0.0),
    },
    "HandVel": _shape_free({"grasp": (0.8, 0.2), "tap": (0.2, 0.8), "touch": (0.7, 0.3)}),
    "ObjHandVel": {
        ("tap", "sphere"): (0.1, 0.3, 0.6),
        ("tap", "box"): (0.5, 0.4, 0.1),
        ("grasp", "sphere"): (0.3, 0.6, 0.1),
        ("grasp", "box"): (0.3, 0.6, 0.1),
        ("touch", "sphere"): (0.8, 0.2, 0.0),
        ("touch", "box"): (0.8, 0.2, 0.0),
    },
    "Contact": _shape_free({"grasp": (0.1, 0.9), "tap": (0.9, 0.1), "touch": (0.3, 0.7)}),
}

# (waypoints, segment durations) per action, in torso-centered meters:
# x lateral, y forward, z up
TEMPLATES: dict[str, tuple[np.ndarray, np.ndarray]] = {
    "grasp": (
        np.array(
            [
                [0.05, 0.15, 0.35],
                [0.14, 0.45, 0.02],
                [0.15, 0.47, 0.02],
                [0.15, 0.45, 0.55],
            ]
        ),
        np.array([0.40, 0.10, 0.50]),
    ),
    "tap": (
        np.array(
            [
                [-0.35, 0.40, 0.10],
                [0.10, 0.45, 0.08],
                [0.55, 0.50, 0.12],
            ]
        ),
        np.array([0.50, 0.50]),
    ),
    "touch": (
        np.array(
            [
                [-0.05, 0.25, 0.50],
                [0.12, 0.45, 0.02],
                [0.13, 0.46, 0.02],
                [0.00, 0.25, 0.45],
            ]
        ),
        np.array([0.35, 0.30, 0.35]),
    ),
}


@dataclass(frozen=True)
class WorldConfig:
    """The generator's settings: trajectory noise and length range.

    Everything else it draws from is a module constant written against the
    default schema, which ``schema`` holds.
    """

    schema: WorldSchema = field(init=False, repr=False)
    noise_std: float = 0.05
    t_min: int = 20
    t_max: int = 60

    def __post_init__(self):
        if not 0 < self.t_min <= self.t_max:
            raise WorldError("need 0 < t_min <= t_max")
        if self.noise_std < 0:
            raise WorldError("noise_std must be nonnegative")
        object.__setattr__(self, "schema", default_schema())


def default_config() -> WorldConfig:
    """The generator's default noise and trajectory lengths."""
    return WorldConfig()


# value index of a word variable, by whether the word was said
_WORD_CODES = (BOOL_LABELS.index("false"), BOOL_LABELS.index("true"))


@dataclass(frozen=True)
class Trial:
    """One synthetic manipulation trial."""

    assignment: Mapping[str, int]  # the eight affordance variables
    words: frozenset[str]
    sentence: Sentence | None
    trajectory: Trajectory | None = None

    def label(self, schema: WorldSchema, name: str) -> str:
        return schema.variable(name).labels[self.assignment[name]]

    def to_row(self, schema: WorldSchema) -> np.ndarray:
        row = np.zeros(len(schema), dtype=np.int64)
        for name, value in self.assignment.items():
            row[schema.index(name)] = value
        names = schema.names
        row[list(schema.word_columns)] = [
            _WORD_CODES[names[j] in self.words] for j in schema.word_columns
        ]
        return row


@functools.cache
def _cdf(weights: tuple[float, ...]) -> list[float]:
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


def _choose(rng: np.random.Generator, options: Sequence, weights=None):
    """The draw ``rng.choice(len(options), p=weights)`` makes, without its
    per-call set-up: one ``integers`` draw, or one ``random`` draw located
    in the weights' cached normalised CDF."""
    if weights is None:
        return options[int(rng.integers(len(options)))]
    return options[bisect_right(_cdf(weights), rng.random())]


def sample_description(
    trial: Trial, config: WorldConfig, rng: np.random.Generator
) -> tuple[Sentence, frozenset[str]]:
    """Surface sentence and word bag for a trial's action, features and effects.

    The verb matches the action family, object words follow the shape, size
    and color maps (with synonyms sampled), the conjunction encodes whether
    the outcome matched the action's intent, and the effect phrase tracks the
    object velocity.
    """
    schema = config.schema
    action = trial.label(schema, ACTION_VAR)
    shape = trial.label(schema, "Shape")
    color = trial.label(schema, "Color")
    size = trial.label(schema, "Size")
    objvel = trial.label(schema, "ObjVel")

    words: list[str] = []
    words.extend(_choose(rng, AGENTS, AGENT_WEIGHTS).split())
    lemma = _choose(rng, VERB_FAMILIES[action])
    words.extend(_choose(rng, VERB_FORMS[lemma]).split())

    def object_phrase() -> list[str]:
        phrase = ["the"]
        size_word = SIZE_WORDS[size]
        if size_word and rng.random() < ATTRIBUTE_PROB:
            phrase.append(size_word)
        if rng.random() < ATTRIBUTE_PROB:
            phrase.append(COLOR_WORDS[color])
        phrase.append(_choose(rng, SHAPE_WORDS[shape]))
        return phrase

    words.extend(object_phrase())
    words.append(conjunction(action, objvel))
    words.extend(object_phrase())
    words.extend(_choose(rng, effect_phrases(action, objvel, shape)).split())
    sentence = Sentence(tuple(words))
    return sentence, frozenset(sentence.words)


def sample_trajectory(
    action: str,
    config: WorldConfig,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Noisy waypoint path for one action, resampled to a random length.

    The template polyline is sampled at T uniformly spaced times (T drawn
    from [t_min, t_max]), perturbed with isotropic Gaussian noise, and run
    through the standard preprocessing so the result is scale normalized.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if action not in TEMPLATES:
        raise WorldError(f"unknown action {action!r}")
    waypoints, durations = TEMPLATES[action]
    knots = np.concatenate([[0.0], np.cumsum(durations)])
    knots /= knots[-1]
    t_frames = int(rng.integers(config.t_min, config.t_max + 1))
    u = np.linspace(0.0, 1.0, t_frames)
    path = np.stack(
        [np.interp(u, knots, waypoints[:, d]) for d in range(waypoints.shape[1])],
        axis=1,
    )
    path = path + rng.normal(0.0, config.noise_std, size=path.shape)
    raw = Trajectory(frames=path)
    return preprocess(raw, np.zeros_like(path))


def sample_trial(
    config: WorldConfig, seed: int, with_trajectory: bool | Collection[str] = False
) -> Trial:
    """One fully specified trial, deterministic for a given seed.

    ``with_trajectory`` is True to attach a trajectory, or the actions whose
    trials get one.  The trajectory is drawn last, so it never changes the
    rest of the trial.
    """
    rng = np.random.default_rng(seed)
    schema = config.schema
    assignment: dict[str, int] = {}
    assignment[ACTION_VAR] = int(rng.integers(schema.variable(ACTION_VAR).arity))
    for name in FEATURE_VARS:
        assignment[name] = int(rng.integers(schema.variable(name).arity))
    action = schema.variable(ACTION_VAR).labels[assignment[ACTION_VAR]]
    shape = schema.variable("Shape").labels[assignment["Shape"]]
    for name in EFFECT_VARS:
        row = EFFECT_ROWS[name][action, shape]
        assignment[name] = _choose(rng, range(len(row)), row)
    stub = Trial(assignment=assignment, words=frozenset(), sentence=None)
    sentence, words = sample_description(stub, config, rng)
    trajectory = None
    if with_trajectory is True or action in (with_trajectory or ()):
        trajectory = sample_trajectory(action, config, rng=rng)
    return replace(stub, words=words, sentence=sentence, trajectory=trajectory)


def generate_trials(
    config: WorldConfig,
    n: int,
    seed: int,
    trajectories_per_action: int = 0,
) -> list[Trial]:
    """Trials with seeds ``seed .. seed+n-1``, one random stream each.

    The first ``trajectories_per_action`` trials of each action get a
    trajectory attached.  Trial ``i`` draws everything from
    ``default_rng(seed + i)`` in one order: the action, the object
    features, the effects, the description and, last, the trajectory when
    the drawn action still needs one.  The trial content before the
    trajectory therefore never depends on the cap.
    """
    counts = dict.fromkeys(ACTIONS, 0)
    open_actions = set(ACTIONS) if trajectories_per_action > 0 else set()
    trials = []
    for i in range(n):
        trial = sample_trial(config, seed + i, with_trajectory=open_actions)
        if trial.trajectory is not None:
            action = trial.label(config.schema, ACTION_VAR)
            counts[action] += 1
            if counts[action] == trajectories_per_action:
                open_actions.discard(action)
        trials.append(trial)
    return trials


def trials_to_dataset(
    trials: Sequence[Trial], schema: WorldSchema, provenance: str = ""
) -> Dataset:
    rows = np.stack([t.to_row(schema) for t in trials], axis=0)
    return Dataset(rows=rows, provenance=provenance)
