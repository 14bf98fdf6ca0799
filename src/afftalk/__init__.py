"""Affordance/word network, gesture HMMs, probabilistic fusion and descriptions."""

from .bn import (
    BayesNet,
    BnError,
    CycleError,
    Dataset,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    JointTable,
    StateSpaceError,
    Variable,
    WorldSchema,
    build_network,
    fit_parameters,
    greedy_structure_fit,
    joint_enumerate,
    prune_barren,
    query,
)
from .fusion import (
    FusionResult,
    SoftActionEvidence,
    confidence_sweep,
    fuse_query,
    word_delta,
)
from .grammar import (
    Grammar,
    GrammarError,
    NBestList,
    Sentence,
    default_grammar,
    derivable,
    generate_sentences,
    kbest,
    load_grammar,
    nbest,
    score_sentence,
)
from .hmm import (
    GestureBank,
    HmmError,
    HmmModel,
    PrefixCurve,
    Trajectory,
    action_posterior,
    forward_loglik,
    prefix_curve,
    preprocess,
    train_bank,
    train_hmm,
)
from .schema import default_schema, layered_candidates
from .world import (
    Trial,
    WorldConfig,
    default_config,
    generate_trials,
    sample_trajectory,
    sample_trial,
)

__version__ = "0.1.0"
