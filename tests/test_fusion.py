import numpy as np
import pytest

from afftalk import fusion
from afftalk.bn import (
    BOOL_LABELS,
    BayesNet,
    BnError,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    StateSpaceError,
    WorldSchema,
    build_network,
    query,
)
from afftalk.fusion import (
    SoftActionEvidence,
    confidence_sweep,
    fuse_query,
    word_delta,
    word_probabilities,
)
from afftalk.schema import ACTIONS

from conftest import random_action_net, random_split

# the values of the random nets' binary action
AB = ("a", "b")


@pytest.fixture(scope="module")
def action_net():
    """Random binary net whose first variable is the action."""
    rng = np.random.default_rng(2)
    return random_action_net(rng, 8)


def test_soft_evidence_validation():
    with pytest.raises(BnError, match="sum"):
        SoftActionEvidence(np.array([0.5, 0.6]), AB)
    with pytest.raises(BnError, match="sum"):
        SoftActionEvidence(np.array([np.nan, 1.0]), AB)
    with pytest.raises(BnError, match="nonnegative"):
        SoftActionEvidence(np.array([1.5, -0.5]), AB)
    with pytest.raises(BnError, match="must be a vector"):
        SoftActionEvidence(np.full((2, 2), 0.25), AB)
    with pytest.raises(BnError, match="disagree in length"):
        SoftActionEvidence(np.array([0.5, 0.5]), ACTIONS)
    uniform = SoftActionEvidence.uniform(("grasp", "tap", "touch"))
    assert np.allclose(uniform.weights, 1 / 3)
    point = SoftActionEvidence.point_mass(("grasp", "tap", "touch"), "tap")
    assert point.weights[1] == 1.0
    reordered = SoftActionEvidence(
        np.array([0.2, 0.3, 0.5]), ("tap", "touch", "grasp")
    ).aligned_to(("grasp", "tap", "touch"))
    assert np.allclose(reordered, [0.5, 0.2, 0.3])
    with pytest.raises(BnError, match="missing an action label"):
        uniform.aligned_to(("grasp", "kick", "touch"))
    extra = SoftActionEvidence(np.array([0.1, 0.1, 0.1, 0.7]), ("grasp", "tap", "touch", "push"))
    with pytest.raises(BnError, match="extra one"):
        extra.aligned_to(("grasp", "tap", "touch"))


def test_action_observed_is_rejected(action_net):
    with pytest.raises(EvidenceError, match="soft evidence"):
        fuse_query(
            action_net, SoftActionEvidence.uniform(AB), ["X1"], Evidence({"Action": 1})
        )


def test_fused_query_needs_a_variable(action_net):
    with pytest.raises(BnError, match="^infer_vars must be nonempty$"):
        fuse_query(action_net, SoftActionEvidence.uniform(AB), [], Evidence.empty())


def test_uniform_soft_equals_plain_query(action_net):
    rng = np.random.default_rng(11)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "Action" in obs:
            continue
        result = fuse_query(action_net, SoftActionEvidence.uniform(AB), infer, Evidence(obs))
        plain = query(action_net, infer, Evidence(obs))
        assert np.abs(result.table.probs - plain.probs).max() <= 1e-9


def test_point_mass_soft_equals_hard_conditioning(action_net):
    rng = np.random.default_rng(12)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "Action" in obs or "Action" in infer:
            continue
        value = int(rng.integers(2))
        result = fuse_query(
            action_net, SoftActionEvidence.point_mass(AB, AB[value]), infer, Evidence(obs)
        )
        hard = query(action_net, infer, Evidence({**obs, "Action": value}))
        assert np.abs(result.table.probs - hard.probs).max() <= 1e-9


def test_point_mass_with_action_inferred_is_a_point_mass(action_net):
    result = fuse_query(
        action_net,
        SoftActionEvidence.point_mass(AB, "b"),
        ["Action", "X3"],
        Evidence({"X5": 0}),
    )
    table = result.table
    axis = table.axis("Action")
    off = table.probs.take(0, axis=axis)
    assert np.allclose(off, 0.0)
    slice_on = table.probs.take(1, axis=axis)
    conditional = query(action_net, ["X3"], Evidence({"X5": 0, "Action": 1}))
    assert np.abs(slice_on - conditional.probs).max() <= 1e-9


def test_both_fusion_routes_agree(action_net):
    rng = np.random.default_rng(13)
    for _ in range(25):
        infer, obs = random_split(rng, action_net)
        if "Action" in obs:
            continue
        infer = [v for v in infer if v != "Action"]
        if not infer:
            continue
        soft = SoftActionEvidence(rng.dirichlet(np.ones(2)), AB)
        with_action = fuse_query(action_net, soft, ["Action"] + infer, Evidence(obs))
        without_action = fuse_query(action_net, soft, infer, Evidence(obs))
        marginalized = with_action.table.marginal(infer)
        assert np.abs(marginalized.probs - without_action.table.probs).max() <= 1e-9


def test_fuse_reports_consistency_mass(action_net):
    uniform = fuse_query(action_net, SoftActionEvidence.uniform(AB), ["X1"], Evidence.empty())
    assert uniform.consistency == pytest.approx(0.5, abs=1e-12)
    point = fuse_query(
        action_net, SoftActionEvidence.point_mass(AB, "a"), ["X1"], Evidence.empty()
    )
    prior = query(action_net, ["Action"], Evidence.empty()).probs[0]
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
    sweep = confidence_sweep(action_net, Evidence(obs), "b", grid)
    plain = query(action_net, ["Action"], Evidence(obs))
    assert np.abs(sweep.posteriors[0] - plain.probs).max() <= 1e-9  # p = 1/K
    assert sweep.posteriors[-1][1] == pytest.approx(1.0, abs=1e-12)  # p = 1
    interior = sweep.posteriors[:-1]
    odds = np.log(interior[:, 1]) - np.log(interior[:, 0])
    assert (np.diff(odds) > 0).all()


def test_sweep_grid_validation(action_net):
    with pytest.raises(BnError, match="outside"):
        confidence_sweep(action_net, Evidence.empty(), "b", [0.1])
    with pytest.raises(BnError, match="grid value nan outside"):
        confidence_sweep(action_net, Evidence.empty(), "b", [0.7, np.nan])
    with pytest.raises(EvidenceError, match="unknown action"):
        confidence_sweep(action_net, Evidence.empty(), "zzz", [0.6])
    with pytest.raises(BnError, match="at least one point"):
        confidence_sweep(action_net, Evidence.empty(), "b", [])


def test_sweep_points_within_the_tolerance_are_clipped_into_the_range(trained_net):
    """A point just past either end, inside the 1e-9 tolerance, weights the
    query as that end does: no posterior is negative, each row sums to 1."""
    labeled = {"Size": "small", "Shape": "sphere", "ObjVel": "slow"}
    obs = Evidence.from_labels(trained_net.schema, labeled)
    lo = 1.0 / trained_net.schema.variable("Action").arity
    sweep = confidence_sweep(trained_net, obs, "tap", [1.0 + 9e-10, lo - 9e-10])
    assert sweep.grid == (1.0, lo)
    assert (sweep.posteriors >= 0.0).all()
    assert np.abs(sweep.posteriors.sum(axis=1) - 1.0).max() <= 1e-12
    ends = confidence_sweep(trained_net, obs, "tap", [1.0, lo])
    assert np.array_equal(sweep.posteriors, ends.posteriors)


def test_sweep_refuses_weighted_tables_over_the_cap(action_net, monkeypatch):
    """One grid point's table has 2 * 2 cells, the action's and X1's."""
    monkeypatch.setattr(fusion, "ENUM_CAP", 40)
    grid = np.linspace(0.5, 1.0, 10)
    assert confidence_sweep(action_net, Evidence.empty(), "b", grid, ("X1",)).posteriors.shape == (10, 2)
    with pytest.raises(StateSpaceError, match="have 44 cells, more than the cap of 40"):
        confidence_sweep(action_net, Evidence.empty(), "b", np.linspace(0.5, 1.0, 11), ("X1",))


def _fused_at(net, obs, target, p, infer_vars):
    """The fused table at one grid point, built as one soft vector."""
    labels = net.schema.variable("Action").labels
    k = len(labels)
    weights = np.full(k, (1.0 - p) / (k - 1))
    weights[labels.index(target)] = p
    weights /= weights.sum()
    soft = SoftActionEvidence(weights, labels)
    return fuse_query(net, soft, infer_vars or ("Action",), obs).table.probs


def test_sweep_rows_equal_one_fused_query_per_point(trained_net, action_net, monkeypatch):
    queries = []
    monkeypatch.setattr(fusion, "query", lambda *a: queries.append(a) or query(*a))
    cases = [
        (trained_net, {}, "tap", None),
        (trained_net, {"Size": 0, "Shape": 0, "ObjVel": 0}, "tap", None),
        (trained_net, {}, "grasp", ("ObjVel", "Contact")),
        (trained_net, {"Shape": 1}, "touch", ("Action", "ObjVel")),
        (trained_net, {"Color": 2}, "tap", ("tapped", "HandVel")),
        (action_net, {"X4": 1}, "b", ("X3", "Action", "X1")),
        (action_net, {"X2": 0}, "a", ("X6",)),
    ]
    for net, labeled, target, infer_vars in cases:
        obs = Evidence(labeled)
        k = net.schema.variable("Action").arity
        grid = np.linspace(1.0 / k, 1.0, 101)
        queries.clear()
        sweep = confidence_sweep(net, obs, target, grid, infer_vars)
        assert len(queries) == 1
        assert sweep.posteriors.shape[0] == len(grid)
        for p, row in zip(sweep.grid, sweep.posteriors):
            assert np.array_equal(row, _fused_at(net, obs, target, p, infer_vars)), (
                labeled, infer_vars, p,
            )


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
    result = word_delta(net, obs, SoftActionEvidence.uniform(ACTIONS))
    assert np.abs(result.delta).max() <= 1e-9
    assert len(result.words) == 49
    # boolean complement: P(true) moves exactly opposite to P(false)
    soft = SoftActionEvidence(np.array([0.2, 0.7, 0.1]), ACTIONS)
    shifted = word_delta(net, obs, soft, words=("tapped", "rolls"))
    for i, word in enumerate(shifted.words):
        combined = fuse_query(net, soft, (word,), obs).table
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
        word_delta(net, obs, SoftActionEvidence.uniform(ACTIONS), words=("tapped",))
    # by default observed words are simply excluded
    result = word_delta(net, obs, SoftActionEvidence.uniform(ACTIONS))
    assert "tapped" not in result.words


def test_word_delta_keeps_one_entry_per_requested_word():
    from afftalk.bn import build_network
    from afftalk.schema import default_schema

    schema = default_schema()
    net = build_network(schema, [()] * len(schema))
    words = ("rolls", "tapped", "rolls")
    result = word_delta(net, Evidence.empty(), SoftActionEvidence.uniform(ACTIONS), words=words)
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
        soft = SoftActionEvidence(rng.dirichlet(np.ones(3)), ACTIONS)
        for weights in (None, soft):
            got = word_probabilities(net, obs, asked, weights)
            for word, p in zip(asked, got):
                if weights is None:
                    table = query(net, (word,), obs)
                else:
                    table = fuse_query(net, soft, (word,), obs).table
                assert abs(p - table.probs[1]) <= 1e-12, (labeled, word)
        plain = word_probabilities(net, obs, asked)
        uniform = word_probabilities(net, obs, asked, SoftActionEvidence.uniform(ACTIONS))
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


def test_word_probabilities_of_observed_words_are_their_evidence():
    net = _word_net(np.random.default_rng(8), WORD_PARENTS)
    obs = Evidence({"w0": 1, "w3": 0, "A1": 1})
    soft = SoftActionEvidence(np.array([0.2, 0.5, 0.3]), ACTIONS)
    reordered = SoftActionEvidence(np.array([0.3, 0.2, 0.5]), ("touch", "grasp", "tap"))
    for weights in (None, soft, reordered):
        got = word_probabilities(net, obs, ("w0", "w1", "w3", "w5"), weights)
        assert got[0] == 1.0 and got[2] == 0.0
        for word, p in zip(("w1", "w5"), got[[1, 3]]):
            if weights is None:
                table = query(net, (word,), obs)
            else:
                table = fuse_query(net, soft, (word,), obs).table
            assert abs(p - table.probs[1]) <= 1e-12, word
    # the gesture's labels are checked even when every word asked is observed
    stray = SoftActionEvidence(np.array([0.25, 0.25, 0.25, 0.25]), (*ACTIONS, "push"))
    with pytest.raises(BnError, match="push"):
        word_probabilities(net, obs, ("w0", "w3"), stray)


def test_word_delta_runs_one_elimination_per_query_pattern(eliminations):
    net = _word_net(np.random.default_rng(7), {"w0": ("A1",), "w1": ("A2",)})
    soft = SoftActionEvidence(np.array([0.2, 0.5, 0.3]), ACTIONS)
    word_delta(net, Evidence({"A1": 0}), soft)
    # the baseline joint is over A2; the fused one adds the action
    assert len(eliminations) == 2
    net = _word_net(np.random.default_rng(7), {"w0": ("Action",), "w1": ("A2",)})
    word_delta(net, Evidence({"A1": 0}), soft)
    # the action already parents a word: both joints share one pattern
    assert len(eliminations) == 3


def test_soft_evidence_that_the_network_rules_out_raises():
    net = _word_net(np.random.default_rng(8), {"w0": ("Action",)})
    cpts = list(net.cpts)
    cpts[0] = np.array([0.0, 0.5, 0.5])  # grasp never happens
    net = BayesNet(net.schema, net.parents, tuple(cpts))
    grasp = SoftActionEvidence.point_mass(ACTIONS, "grasp")
    with pytest.raises(ImpossibleEvidenceError, match="soft action evidence"):
        fuse_query(net, grasp, ("w0",), Evidence.empty())
    # only the sweep's last point, p = 1, puts all its weight on grasp
    sweep = confidence_sweep(net, Evidence.empty(), "grasp", [1 / 3, 0.9])
    assert sweep.posteriors[:, 0].max() == 0.0
    with pytest.raises(ImpossibleEvidenceError, match="soft action evidence"):
        confidence_sweep(net, Evidence.empty(), "grasp", [1 / 3, 0.9, 1.0])
