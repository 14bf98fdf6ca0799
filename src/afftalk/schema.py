"""Default variable schema for the tabletop manipulation world.

Eight affordance variables (one action, three object features, four motion
effects) plus one boolean presence variable per vocabulary word of the
bundled description grammar.
"""

from __future__ import annotations

from .bn import BOOL_LABELS, WorldSchema
from .grammar import default_grammar

ACTION_VAR = "Action"
ACTIONS = ("grasp", "tap", "touch")
FEATURE_VARS = ("Color", "Size", "Shape")
EFFECT_VARS = ("ObjVel", "HandVel", "ObjHandVel", "Contact")

AFFORDANCE_VARIABLES: tuple[tuple[str, tuple[str, ...]], ...] = (
    (ACTION_VAR, ACTIONS),
    ("Color", ("blue", "yellow", "green1", "green2")),
    ("Size", ("small", "medium", "big")),
    ("Shape", ("sphere", "box")),
    ("ObjVel", ("slow", "medium", "fast")),
    ("HandVel", ("slow", "fast")),
    ("ObjHandVel", ("slow", "medium", "fast")),
    ("Contact", ("short", "long")),
)


def default_schema() -> WorldSchema:
    """Affordance variables plus the 49 grammar words as boolean variables."""
    words = [(word, BOOL_LABELS) for word in default_grammar().vocabulary]
    return WorldSchema.of([*AFFORDANCE_VARIABLES, *words])


def layered_candidates(schema: WorldSchema) -> tuple[tuple[int, ...], ...]:
    """Structure-search candidates respecting the causal layering.

    The action and the object features are roots, effects may depend on the
    action and the features, and word variables may depend on any affordance
    variable.  Acyclic by construction, which is what the greedy fit needs.
    """
    action_and_features = [schema.index(ACTION_VAR)] + [
        schema.index(f) for f in FEATURE_VARS
    ]
    effects = [schema.index(e) for e in EFFECT_VARS]
    affordances = action_and_features + effects
    candidates: list[tuple[int, ...]] = []
    for i, var in enumerate(schema.variables):
        if var.name == ACTION_VAR or var.name in FEATURE_VARS:
            candidates.append(())
        elif var.name in EFFECT_VARS:
            candidates.append(tuple(action_and_features))
        else:
            candidates.append(tuple(affordances))
    return tuple(candidates)
