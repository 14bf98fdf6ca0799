import numpy as np
import pytest

from afftalk.bn import (
    BOOL_LABELS,
    BayesNet,
    BnError,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    WorldSchema,
    build_network,
    query,
)
from afftalk.fusion import (
    QuerySpec,
    SoftActionEvidence,
    confidence_sweep,
    fuse_query,
    word_delta,
    word_probabilities,
)

from conftest import random_binary_net, random_split


@pytest.fixture(scope="module")
def action_net():
    """Random binary net whose first variable plays the action role."""
    rng = np.random.default_rng(2)
    net = random_binary_net(rng, 8)
    return net


def spec_for(net, infer, obs, action="X0"):
    return QuerySpec(infer_vars=tuple(infer), obs=Evidence(obs), action_var=action)


def test_soft_evidence_validation():
    with pytest.raises(BnError, match="sum"):
        SoftActionEvidence(np.array([0.5, 0.6]))
    with pytest.raises(BnError, match="nonnegative"):
        SoftActionEvidence(np.array([1.5, -0.5]))
    uniform = SoftActionEvidence.uniform(3, ("grasp", "tap", "touch"))
    assert np.allclose(uniform.weights, 1 / 3)
    point = SoftActionEvidence.point_mass(3, 1)
    assert point.weights[1] == 1.0
    reordered = SoftActionEvidence(
        np.array([0.2, 0.3, 0.5]), ("tap", "touch", "grasp")
    ).aligned_to(("grasp", "tap", "touch"))
    assert np.allclose(reordered, [0.5, 0.2, 0.3])


def test_action_observed_is_rejected(action_net):
    spec = spec_for(action_net, ["X1"], {"X0": 1})
    with pytest.raises(EvidenceError, match="soft evidence"):
        fuse_query(action_net, SoftActionEvidence.uniform(2), spec)


def test_uniform_soft_equals_plain_query(action_net):
    rng = np.random.default_rng(11)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "X0" in obs:
            continue
        result = fuse_query(
            action_net, SoftActionEvidence.uniform(2), spec_for(action_net, infer, obs)
        )
        plain = query(action_net, infer, Evidence(obs))
        assert np.abs(result.table.probs - plain.probs).max() <= 1e-9


def test_point_mass_soft_equals_hard_conditioning(action_net):
    rng = np.random.default_rng(12)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "X0" in obs or "X0" in infer:
            continue
        value = int(rng.integers(2))
        result = fuse_query(
            action_net,
            SoftActionEvidence.point_mass(2, value),
            spec_for(action_net, infer, obs),
        )
        hard = query(action_net, infer, Evidence({**obs, "X0": value}))
        assert np.abs(result.table.probs - hard.probs).max() <= 1e-9


def test_point_mass_with_action_inferred_is_a_point_mass(action_net):
    result = fuse_query(
        action_net,
        SoftActionEvidence.point_mass(2, 1),
        spec_for(action_net, ["X0", "X3"], {"X5": 0}),
    )
    table = result.table
    axis = table.axis("X0")
    off = table.probs.take(0, axis=axis)
    assert np.allclose(off, 0.0)
    slice_on = table.probs.take(1, axis=axis)
    conditional = query(action_net, ["X3"], Evidence({"X5": 0, "X0": 1}))
    assert np.abs(slice_on - conditional.probs).max() <= 1e-9


def test_both_fusion_routes_agree(action_net):
    rng = np.random.default_rng(13)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "X0" in obs:
            continue
        infer = [v for v in infer if v != "X0"]
        if not infer:
            continue
        w = rng.dirichlet(np.ones(2))
        soft = SoftActionEvidence(w)
        with_action = fuse_query(
            action_net, soft, spec_for(action_net, ["X0"] + infer, obs)
        )
        without_action = fuse_query(action_net, soft, spec_for(action_net, infer, obs))
        marginalized = with_action.table.marginal(infer)
        assert np.abs(marginalized.probs - without_action.table.probs).max() <= 1e-9


def test_fuse_reports_consistency_mass(action_net):
    spec = spec_for(action_net, ["X1"], {})
    uniform = fuse_query(action_net, SoftActionEvidence.uniform(2), spec)
    assert uniform.consistency == pytest.approx(0.5, abs=1e-12)
    point = fuse_query(action_net, SoftActionEvidence.point_mass(2, 0), spec)
    prior = query(action_net, ["X0"], Evidence.empty()).probs[0]
    assert point.consistency == pytest.approx(prior, abs=1e-12)


def test_fuse_product_example():
    # action posterior (.1,.2,.7) times soft (.1,.8,.1), renormalized
    p_bn = np.array([0.1, 0.2, 0.7])
    soft = np.array([0.1, 0.8, 0.1])
    combined = p_bn * soft
    combined /= combined.sum()
    assert np.allclose(combined, [0.01 / 0.24, 0.16 / 0.24, 0.07 / 0.24])
    assert np.allclose(combined, [0.041666666, 0.666666666, 0.291666666], atol=1e-8)


def test_sweep_endpoints_and_monotone_odds(action_net):
    obs = {"X4": 1}
    grid = np.linspace(0.5, 1.0, 21)
    sweep = confidence_sweep(
        action_net, Evidence(obs), "b", grid, action_var="X0"
    )
    plain = query(action_net, ["X0"], Evidence(obs))
    assert np.abs(sweep.posteriors[0] - plain.probs).max() <= 1e-9  # p = 1/K
    assert sweep.posteriors[-1][1] == pytest.approx(1.0, abs=1e-12)  # p = 1
    interior = sweep.posteriors[:-1]
    odds = np.log(interior[:, 1]) - np.log(interior[:, 0])
    assert (np.diff(odds) > 0).all()


def test_sweep_grid_validation(action_net):
    with pytest.raises(BnError, match="outside"):
        confidence_sweep(action_net, Evidence.empty(), "b", [0.1], action_var="X0")
    with pytest.raises(EvidenceError, match="unknown action"):
        confidence_sweep(action_net, Evidence.empty(), "zzz", [0.6], action_var="X0")


def test_word_delta_uniform_soft_is_zero():
    from afftalk.bn import Dataset, build_network, fit_parameters
    from afftalk.schema import default_schema, layered_candidates
    from afftalk.world import default_config, generate_trials

    config = default_config()
    data, _ = generate_trials(config, 400, seed=31)
    from afftalk.bn import greedy_structure_fit

    parents = greedy_structure_fit(data, config.schema, 2, layered_candidates(config.schema))
    net = fit_parameters(build_network(config.schema, parents), data, alpha=1.0)
    obs = Evidence.from_labels(net.schema, {"Shape": "sphere"})
    result = word_delta(net, obs, SoftActionEvidence.uniform(3))
    assert np.abs(result.delta).max() <= 1e-9
    assert len(result.words) == 49
    # boolean complement: P(true) moves exactly opposite to P(false)
    soft = SoftActionEvidence(np.array([0.2, 0.7, 0.1]))
    shifted = word_delta(net, obs, soft, words=("tapped", "rolls"))
    for i, word in enumerate(shifted.words):
        spec = QuerySpec(infer_vars=(word,), obs=obs)
        combined = fuse_query(net, soft, spec).table
        false_idx = net.schema.value_index(word, "false")
        baseline_false = query(net, (word,), obs).probs[false_idx]
        delta_false = combined.probs[false_idx] - baseline_false
        assert delta_false == pytest.approx(-shifted.delta[i], abs=1e-12)


def test_word_delta_rejects_observed_words(action_net):
    from afftalk.schema import default_schema

    schema = default_schema()
    from afftalk.bn import build_network

    net = build_network(schema, [()] * len(schema))
    obs = Evidence.from_labels(schema, {"tapped": "true"})
    with pytest.raises(EvidenceError, match="observed"):
        word_delta(net, obs, SoftActionEvidence.uniform(3), words=("tapped",))
    # by default observed words are simply excluded
    result = word_delta(net, obs, SoftActionEvidence.uniform(3))
    assert "tapped" not in result.words


def test_word_delta_keeps_one_entry_per_requested_word():
    from afftalk.bn import build_network
    from afftalk.schema import default_schema

    schema = default_schema()
    net = build_network(schema, [()] * len(schema))
    words = ("rolls", "tapped", "rolls")
    result = word_delta(net, Evidence.empty(), SoftActionEvidence.uniform(3), words=words)
    assert result.words == words
    assert result.baseline.shape == result.combined.shape == (3,)
    assert result.baseline[0] == result.baseline[2]


def _word_net(rng, word_parents):
    """Net over an action, two affordances and boolean words with the given
    parent names (words may also parent words), with Dirichlet CPT rows."""
    pairs = [("Action", ("grasp", "tap", "touch")), ("A1", ("u", "v")), ("A2", ("p", "q", "r"))]
    pairs += [(w, BOOL_LABELS) for w in word_parents]
    schema = WorldSchema.of(pairs)
    parents = [[], [0], [0, 1]]
    parents += [[schema.index(p) for p in ps] for ps in word_parents.values()]
    skeleton = build_network(schema, parents)
    cpts = []
    for i, ps in enumerate(skeleton.parents):
        shape = tuple(schema.arities[p] for p in ps) + (schema.arities[i],)
        rows = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1], dtype=int)))
        cpts.append(rows.reshape(shape))
    return BayesNet(schema, skeleton.parents, tuple(cpts))


WORD_PARENTS = {
    "w0": ("Action",),
    "w1": ("A1", "A2"),
    "w2": (),
    "w3": ("Action", "A2"),
    "w4": ("w3",),  # a word parent: w4 has its own query, and so has w3
    "w5": ("A1",),
}


def test_word_probabilities_match_one_query_per_word():
    rng = np.random.default_rng(5)
    net = _word_net(rng, WORD_PARENTS)
    words = tuple(WORD_PARENTS)
    cases = [{}, {"A1": 1}, {"A2": 2, "w2": 0}, {"A1": 0, "A2": 1}, {"w4": 1}]
    for labeled in cases:
        obs = Evidence(labeled)
        asked = [w for w in words if w not in labeled]
        soft = SoftActionEvidence(rng.dirichlet(np.ones(3)))
        for weights in (None, soft):
            got = word_probabilities(net, obs, asked, weights)
            for word, p in zip(asked, got):
                if weights is None:
                    table = query(net, (word,), obs)
                else:
                    table = fuse_query(net, soft, QuerySpec((word,), obs)).table
                assert abs(p - table.probs[1]) <= 1e-12, (labeled, word)
        plain = word_probabilities(net, obs, asked)
        uniform = word_probabilities(net, obs, asked, SoftActionEvidence.uniform(3))
        assert np.abs(plain - uniform).max() <= 1e-12


def test_word_probabilities_with_every_parent_observed():
    net = _word_net(np.random.default_rng(6), {"w0": ("A1",), "w1": ("A1", "A2")})
    obs = Evidence({"A1": 1, "A2": 0})
    got = word_probabilities(net, obs, ("w0", "w1"))
    expected = [net.cpts[3][1, 1], net.cpts[4][1, 0, 1]]
    assert np.abs(got - expected).max() <= 1e-12
    # A1 is never v: the per-word queries still see impossible evidence
    cpts = list(net.cpts)
    cpts[1] = np.array([[1.0, 0.0]] * 3)
    impossible = BayesNet(net.schema, net.parents, tuple(cpts))
    with pytest.raises(ImpossibleEvidenceError):
        word_probabilities(impossible, obs, ("w0", "w1"))


def test_word_delta_runs_one_elimination_per_query_pattern(eliminations):
    net = _word_net(np.random.default_rng(7), {"w0": ("A1",), "w1": ("A2",)})
    soft = SoftActionEvidence(np.array([0.2, 0.5, 0.3]))
    word_delta(net, Evidence({"A1": 0}), soft)
    # the baseline joint is over A2; the fused one adds the action
    assert len(eliminations) == 2
    net = _word_net(np.random.default_rng(7), {"w0": ("Action",), "w1": ("A2",)})
    word_delta(net, Evidence({"A1": 0}), soft)
    # the action already parents a word: both joints share one pattern
    assert len(eliminations) == 3
