"""Seeded synthetic stand-in for the tabletop manipulation recordings.

Each trial draws an action and object features uniformly, rolls the motion
effects from explicit conditional rows, writes a congruent verbal
description in the bundled grammar's words, and can attach a noisy 3D hand
trajectory built from per-action waypoint templates.  Trials are drawn as
array columns, ``BLOCK`` trials per random generator.  The effect rows, the
description rules and the templates are module constants; the only settings
are the trajectories' noise and length range (``WorldConfig``).  Everything
is a pure function of (config, seed).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bn import Dataset, WorldSchema
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
    "sample_trajectory",
    "generate_trials",
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
        np.array([[0.05, 0.15, 0.35], [0.14, 0.45, 0.02], [0.15, 0.47, 0.02], [0.15, 0.45, 0.55]]),
        np.array([0.40, 0.10, 0.50]),
    ),
    "tap": (
        np.array([[-0.35, 0.40, 0.10], [0.10, 0.45, 0.08], [0.55, 0.50, 0.12]]),
        np.array([0.50, 0.50]),
    ),
    "touch": (
        np.array([[-0.05, 0.25, 0.50], [0.12, 0.45, 0.02], [0.13, 0.46, 0.02], [0.00, 0.25, 0.45]]),
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


@dataclass(frozen=True)
class Trial:
    """One synthetic manipulation trial."""

    assignment: Mapping[str, int]  # the eight affordance variables
    words: frozenset[str]
    sentence: Sentence
    trajectory: Trajectory | None = None


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


# ---------------------------------------------------------------------------
# columnar draws

BLOCK = 1024  # trials per random generator

# The affordance columns lead every schema row: the action and the object
# features (the roots), then the effects, ObjVel first.
_LABELS = dict(AFFORDANCE_VARIABLES)
_NAMES = tuple(_LABELS)
_ARITIES = tuple(map(len, _LABELS.values()))
_ROOTS = 1 + len(FEATURE_VARS)


def _table(width: int, rule: Callable[..., Iterable[tuple[int, float]]]):
    """Inverse-CDF rows, one per label combination of the first ``width``
    affordance columns; ``rule(*labels)`` lists a combination's (entry,
    weight) pairs.  The CDF is padded with 2.0, which no uniform reaches."""
    rows = [list(rule(*labels)) for labels in itertools.product(*map(_LABELS.get, _NAMES[:width]))]
    cdf = np.full((len(rows), max(map(len, rows))), 2.0)
    entries = np.zeros(cdf.shape, dtype=np.int64)
    for i, row in enumerate(rows):
        ids, weights = zip(*row)
        cumulative = np.cumsum(weights)
        cdf[i, : len(row)] = cumulative / cumulative[-1]
        entries[i, : len(row)] = ids
    return cdf, entries


def _draw(table, values: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each trial's entry: its uniform located in the CDF row of its labels."""
    cdf, entries = table
    context = np.ravel_multi_index(values.T, _ARITIES[: values.shape[1]])
    return entries[context, (cdf[context] <= uniforms[:, None]).sum(axis=1)]


def _object_phrases(action, color, size, shape, objvel) -> list[tuple[str, float]]:
    """Every mention of the object with its chance: "the", the size word and
    the color word each with ``ATTRIBUTE_PROB``, then one shape word."""

    def optional(word):
        return [(word, ATTRIBUTE_PROB), ("", 1.0 - ATTRIBUTE_PROB)] if word else [("", 1.0)]

    shapes = SHAPE_WORDS[shape]
    mentions = itertools.product(optional(SIZE_WORDS[size]), optional(COLOR_WORDS[color]), shapes)
    return [
        (" ".join(filter(None, ("the", s, c, w))), p_size * p_color / len(shapes))
        for (s, p_size), (c, p_color), w in mentions
    ]


# the description's slots in sentence order; each rule takes the labels of
# the roots and ObjVel
_SLOTS = (
    lambda *labels: zip(AGENTS, AGENT_WEIGHTS),
    lambda action, *_: [(f, 1.0) for lemma in VERB_FAMILIES[action] for f in VERB_FORMS[lemma]],
    _object_phrases,
    lambda action, color, size, shape, objvel: [(conjunction(action, objvel), 1.0)],
    _object_phrases,
    lambda action, color, size, shape, objvel: [
        (p, 1.0) for p in effect_phrases(action, objvel, shape)
    ],
)


@functools.cache
def _tables():
    """Effect tables, phrase tables, the phrases and the words each one says."""
    ids: dict[str, int] = {}

    def phrase_ids(rule):
        return lambda *labels: [(ids.setdefault(p, len(ids)), w) for p, w in rule(*labels)]

    def effect_rows(rows):
        return lambda action, color, size, shape: enumerate(rows[action, shape])

    effects = [_table(_ROOTS, effect_rows(EFFECT_ROWS[name])) for name in EFFECT_VARS]
    slots = [_table(_ROOTS + 1, phrase_ids(rule)) for rule in _SLOTS]
    words = default_schema().word_variables()
    said = np.zeros((len(ids), len(words)), dtype=bool)
    for phrase, i in ids.items():
        said[i, [words.index(word) for word in phrase.split()]] = True
    return effects, slots, tuple(ids), said


def _columns(
    config: WorldConfig, n: int, seed: int, trajectories_per_action: int
) -> tuple[np.ndarray, np.ndarray, dict[int, Trajectory]]:
    """The first ``n`` trials' schema rows and phrase choices, and their
    trajectories keyed by row."""
    effects, slots, _, said = _tables()
    rows = np.empty((n, len(config.schema)), dtype=np.int64)
    choices = np.empty((n, len(slots)), dtype=np.int64)
    trajectories: dict[int, Trajectory] = {}
    left = [trajectories_per_action] * len(ACTIONS)
    for block, start in enumerate(range(0, n, BLOCK)):
        rng = np.random.default_rng((seed, block))
        values = np.empty((BLOCK, len(_NAMES)), dtype=np.int64)
        values[:, :_ROOTS] = rng.integers(_ARITIES[:_ROOTS], size=(BLOCK, _ROOTS))
        for j, table in enumerate(effects, _ROOTS):
            values[:, j] = _draw(table, values[:, :_ROOTS], rng.random(BLOCK))
        uniforms = rng.random((len(slots), BLOCK))
        scene = values[:, : _ROOTS + 1]
        picked = np.stack([_draw(t, scene, u) for t, u in zip(slots, uniforms)], axis=1)
        kept = min(BLOCK, n - start)
        values, picked = values[:kept], picked[:kept]
        rows[start : start + kept, : len(_NAMES)] = values
        # BOOL_LABELS is ("false", "true"): a word's value index is whether it was said
        rows[start : start + kept, list(config.schema.word_columns)] = said[picked].any(axis=1)
        choices[start : start + kept] = picked
        for row, a in enumerate(values[:, 0].tolist() if any(left) else ()):
            if left[a] > 0:
                left[a] -= 1
                trajectories[start + row] = sample_trajectory(ACTIONS[a], config, rng=rng)
    return rows, choices, trajectories


def generate_trials(
    config: WorldConfig, n: int, seed: int, trajectories_per_action: int = 0
) -> tuple[Dataset, dict[int, Trajectory]]:
    """The first ``n`` trials drawn with ``seed``: dataset rows, and the
    trajectories keyed by row.

    The first ``trajectories_per_action`` trials of each action get a
    trajectory.  Block ``b`` of ``BLOCK`` trials draws from
    ``default_rng((seed, b))`` in one order: the action and object-feature
    columns, each effect column by inverse CDF on its (action, shape) row,
    one phrase per description slot and, last, the trajectories of the
    block's trials that still need one.  A short last block is drawn in full
    and then cut.  The trial content therefore never depends on the cap, and
    the first ``n`` trials are the same in every longer run.
    """
    rows, _, trajectories = _columns(config, n, seed, trajectories_per_action)
    return Dataset(rows, provenance=f"synthetic world seed={seed}"), trajectories


def sample_trial(config: WorldConfig, seed: int, with_trajectory: bool = False) -> Trial:
    """Trial 0 of every run drawn with ``seed``, as one object with its sentence.

    ``with_trajectory`` attaches the trajectory it gets in a run that draws any.
    """
    rows, choices, trajectories = _columns(config, 1, seed, int(with_trajectory))
    row, names = rows[0].tolist(), config.schema.names
    return Trial(
        assignment=dict(zip(_NAMES, row)),
        words=frozenset(names[j] for j in config.schema.word_columns if row[j]),
        sentence=_sentence(choices[0]),
        trajectory=trajectories.get(0),
    )


def _sentence(choices: Sequence[int]) -> Sentence:
    """The sentence a trial's phrase choices spell."""
    phrases = _tables()[2]
    return Sentence(tuple(" ".join(phrases[c] for c in choices).split()))
