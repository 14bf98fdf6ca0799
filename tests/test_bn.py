import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afftalk import bn, serialize
from afftalk.bn import (
    BayesNet,
    BnError,
    CycleError,
    Dataset,
    Evidence,
    EvidenceError,
    ImpossibleEvidenceError,
    StateSpaceError,
    WorldSchema,
    build_network,
    family_bic,
    fit_parameters,
    greedy_structure_fit,
    joint_enumerate,
    prune_barren,
    query,
)
from afftalk.schema import default_schema, layered_candidates

from conftest import (
    full_elimination,
    permute_net,
    random_binary_net,
    random_split,
    rescan_elimination_order,
)


def small_schema():
    return WorldSchema.of([("A", ("a0", "a1")), ("E", ("move", "stay"))])


def two_node_net():
    schema = small_schema()
    skeleton = build_network(schema, [(), (0,)])
    cpts = (np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.1, 0.9]]))
    return BayesNet(schema, skeleton.parents, cpts)


# ---------------------------------------------------------------------------
# schema and construction


def test_schema_validation():
    with pytest.raises(BnError, match="arity"):
        WorldSchema.of([("A", ("only",))])
    with pytest.raises(BnError, match="unique"):
        WorldSchema.of([("A", ("x", "y")), ("A", ("x", "y"))])
    schema = default_schema()
    assert len(schema) == 57
    assert schema.variable("Action").labels == ("grasp", "tap", "touch")
    assert schema.variable("Color").labels == ("blue", "yellow", "green1", "green2")
    assert schema.variable("Size").arity == 3
    assert schema.variable("Shape").labels == ("sphere", "box")
    assert schema.variable("ObjVel").arity == 3
    assert schema.variable("HandVel").arity == 2
    assert schema.variable("ObjHandVel").arity == 3
    assert schema.variable("Contact").labels == ("short", "long")
    assert len(schema.word_variables()) == 49


def test_build_network_uniform_and_validation():
    schema = small_schema()
    net = build_network(schema, [(), ()])
    for cpt in net.cpts:
        assert np.allclose(cpt, 0.5)
    with pytest.raises(CycleError):
        build_network(schema, [(1,), (0,)])
    with pytest.raises(BnError, match="out of range"):
        build_network(schema, [(5,), ()])
    with pytest.raises(BnError, match="one parent list"):
        build_network(schema, [()])


def test_build_full_layered_structure_on_default_schema():
    schema = default_schema()
    action_and_features = [schema.index(n) for n in ("Action", "Color", "Size", "Shape")]
    effects = [schema.index(n) for n in ("ObjVel", "HandVel", "ObjHandVel", "Contact")]
    parents = []
    for i, var in enumerate(schema.variables):
        if i in action_and_features:
            parents.append(())
        elif i in effects:
            parents.append(tuple(action_and_features))
        else:
            parents.append(tuple(action_and_features + effects))
    net = build_network(schema, parents)
    assert net.parent_names("ObjVel") == ("Action", "Color", "Size", "Shape")
    assert len(net.parents[schema.index("tapped")]) == 8


def test_cpt_with_a_nan_cell_is_rejected():
    schema = small_schema()
    skeleton = build_network(schema, [(), (0,)])
    with pytest.raises(BnError, match="sum to 1"):
        BayesNet(
            schema,
            skeleton.parents,
            (np.array([0.5, 0.5]), np.array([[0.8, 0.2], [np.nan, 0.9]])),
        )


def _chain_net_cpts():
    """Schema, parents and valid cpts of a three-variable chain A -> B -> C."""
    schema = WorldSchema.of([("A", ("a0", "a1")), ("B", ("b0", "b1")), ("C", ("c0", "c1", "c2"))])
    parents = ((), (0,), (1,))
    cpts = [
        np.array([0.3, 0.7]),
        np.array([[0.8, 0.2], [0.1, 0.9]]),
        np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]),
    ]
    return schema, parents, cpts


def test_first_faulty_variable_in_schema_order_is_named():
    """A bad row sum at B and a negative entry at C: B is named, as a check
    of one variable after another would name it."""
    schema, parents, cpts = _chain_net_cpts()
    cpts[1] = np.array([[0.8, 0.2], [0.1, 0.8]])
    cpts[2] = np.array([[0.2, 0.3, 0.5], [0.6, -0.2, 0.6]])
    with pytest.raises(BnError, match=r"^cpt rows of 'B' must sum to 1$"):
        BayesNet(schema, parents, tuple(cpts))
    # and a bad row sum at C after a shape fault at B names B
    schema, parents, cpts = _chain_net_cpts()
    cpts[1] = cpts[1].T.copy().reshape(4)
    cpts[2] = cpts[2] * 2
    with pytest.raises(BnError, match=r"^cpt shape \(4,\) for 'B', expected \(2, 2\)$"):
        BayesNet(schema, parents, tuple(cpts))


def test_negative_entry_in_a_row_that_sums_to_one_is_rejected():
    schema, parents, cpts = _chain_net_cpts()
    cpts[2] = np.array([[0.2, 0.3, 0.5], [1.2, -0.4, 0.2]])
    with pytest.raises(BnError, match=r"^negative probability in cpt of 'C'$"):
        BayesNet(schema, parents, tuple(cpts))


def test_all_nan_row_is_rejected_as_not_summing_to_one():
    schema, parents, cpts = _chain_net_cpts()
    cpts[2] = np.array([[0.2, 0.3, 0.5], [np.nan, np.nan, np.nan]])
    with pytest.raises(BnError, match=r"^cpt rows of 'C' must sum to 1$"):
        BayesNet(schema, parents, tuple(cpts))


def test_row_sum_off_by_2e_12_is_rejected():
    schema, parents, cpts = _chain_net_cpts()
    cpts[1] = np.array([[0.8, 0.2], [0.1, 0.9 + 2e-12]])
    assert abs(cpts[1][1].sum() - 1.0) > bn.ROW_SUM_TOL
    with pytest.raises(BnError, match=r"^cpt rows of 'B' must sum to 1$"):
        BayesNet(schema, parents, tuple(cpts))
    cpts[1] = np.array([[0.8, 0.2], [0.1, 0.9 + 5e-13]])
    BayesNet(schema, parents, tuple(cpts))


def _per_variable_fault(schema, parents, cpts):
    """The error, as (type, message), of the checks run one variable at a
    time before all rows were tested at once; the reference for them."""
    n, arities = len(schema), schema.arities
    for i, (ps, cpt) in enumerate(zip(parents, cpts)):
        name = schema.names[i]
        if list(ps) != sorted(set(ps)):
            return BnError, f"parents of {name!r} must be sorted and unique"
        if any(p < 0 or p >= n for p in ps):
            return BnError, f"parent index out of range for {name!r}"
        if i in ps:
            return CycleError, f"{name!r} cannot be its own parent"
        expected = tuple(arities[p] for p in ps) + (arities[i],)
        if cpt.shape != expected:
            return BnError, f"cpt shape {cpt.shape} for {name!r}, expected {expected}"
        if (cpt < 0).any():
            return BnError, f"negative probability in cpt of {name!r}"
        if not (np.abs(cpt.sum(axis=-1) - 1.0) <= bn.ROW_SUM_TOL).all():
            return BnError, f"cpt rows of {name!r} must sum to 1"
    return None


def test_rows_on_the_tolerance_get_the_per_variable_verdict():
    """Rows scaled to sum to 1 +- 1e-12, where the order of the additions
    decides: the network accepts exactly the cpts the reference accepts."""
    rng = np.random.default_rng(3)
    verdicts = set()
    for arity in range(2, 11):
        schema = WorldSchema.of([("A", ("a0", "a1")), ("B", tuple(f"b{k}" for k in range(arity)))])
        for _ in range(40):
            cpts = (np.array([0.5, 0.5]), rng.dirichlet(np.ones(arity), size=2))
            cpts[1][1] *= 1.0 + rng.choice([-1e-12, 1e-12])
            expected = _per_variable_fault(schema, ((), (0,)), cpts)
            try:
                BayesNet(schema, ((), (0,)), cpts)
                found = None
            except BnError as exc:
                found = type(exc), str(exc)
            assert found == expected
            verdicts.add(found)
    assert len(verdicts) == 2  # both sides of the tolerance were met


_FAULTS = [None, None, "negative", "nan", "inf", "near", "scaled", "shape", "unsorted", "self"]


@st.composite
def checked_nets(draw):
    """Schema, parents and cpts of a random DAG, some variables with a fault.

    Arities reach 10, past the 8 where numpy's sums turn pairwise, and a
    "near" fault moves one row's sum to within a few 1e-13 of the
    tolerance on either side."""
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(2, 10), min_size=n, max_size=n))
    schema = WorldSchema.of(
        [(f"V{i}", tuple(f"v{k}" for k in range(a))) for i, a in enumerate(arities)]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents, cpts = [], []
    for i in range(n):
        ps = sorted(draw(st.sets(st.integers(0, i - 1), max_size=2))) if i else []
        shape = tuple(arities[p] for p in ps) + (arities[i],)
        cpt = rng.dirichlet(np.ones(arities[i]), size=math.prod(shape[:-1])).reshape(shape)
        row = tuple(int(rng.integers(k)) for k in shape[:-1])
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "negative":  # the row still sums to 1
            cpt[row + (1,)] += cpt[row + (0,)] + 0.25
            cpt[row + (0,)] = -0.25
        elif fault == "nan":
            cpt[row + (0,)] = np.nan
        elif fault == "inf":
            cpt[row + (0,)] = np.inf
        elif fault == "near":
            step = draw(st.sampled_from([-11e-13, -1e-12, -9e-13, 9e-13, 1e-12, 11e-13, 2e-12]))
            cpt[row] *= 1.0 + step
        elif fault == "scaled":
            cpt[row] *= 2.0
        elif fault == "shape":
            cpt = cpt.reshape(-1)[:-1]
        elif fault == "unsorted" and len(ps) == 2:
            ps = ps[::-1]
        elif fault == "self":
            ps = sorted({*ps, i})
        parents.append(tuple(ps))
        cpts.append(cpt)
    return schema, tuple(parents), tuple(cpts)


@settings(max_examples=300, deadline=None)
@given(case=checked_nets())
def test_one_pass_row_test_agrees_with_the_per_variable_checks(case):
    schema, parents, cpts = case
    expected = _per_variable_fault(schema, parents, cpts)
    try:
        BayesNet(schema, parents, cpts)
        found = None
    except BnError as exc:
        found = type(exc), str(exc)
    assert found == expected


# ---------------------------------------------------------------------------
# parameter fitting


def test_fit_counts_with_laplace_smoothing():
    schema = WorldSchema.of([("Action", ("grasp", "tap", "touch")), ("E", ("x", "y"))])
    net = build_network(schema, [(), ()])
    rows = np.array([[1, 0], [1, 0], [1, 0], [2, 0]])
    fitted = fit_parameters(net, Dataset(rows), alpha=1.0)
    assert np.allclose(fitted.cpts[0], [1 / 7, 4 / 7, 2 / 7])


def test_fit_mle_when_everything_observed():
    schema = small_schema()
    net = build_network(schema, [(), (0,)])
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 0]])
    fitted = fit_parameters(net, Dataset(rows), alpha=0.0)
    assert np.allclose(fitted.cpts[0], [0.5, 0.5])
    assert np.allclose(fitted.cpts[1], [[0.5, 0.5], [1.0, 0.0]])


def test_fit_alpha_zero_rejects_unobserved_configuration():
    schema = small_schema()
    net = build_network(schema, [(), (0,)])
    rows = np.array([[0, 0], [0, 1]])  # A=a1 never seen
    with pytest.raises(BnError, match="unobserved"):
        fit_parameters(net, Dataset(rows), alpha=0.0)
    # smoothing turns the unseen row uniform
    fitted = fit_parameters(net, Dataset(rows), alpha=1.0)
    assert np.allclose(fitted.cpts[1][1], [0.5, 0.5])


def test_fit_rejects_negative_alpha_and_bad_rows():
    schema = small_schema()
    net = build_network(schema, [(), ()])
    with pytest.raises(BnError):
        fit_parameters(net, Dataset(np.array([[0, 0]])), alpha=-1.0)
    with pytest.raises(BnError, match="out-of-range"):
        fit_parameters(net, Dataset(np.array([[0, 5]])), alpha=1.0)


# ---------------------------------------------------------------------------
# inference


def test_query_bayes_rule_example():
    net = two_node_net()
    posterior = query(net, ["A"], Evidence.from_labels(net.schema, {"E": "move"}))
    assert np.allclose(posterior.probs, [8 / 9, 1 / 9])


def test_query_empty_evidence_gives_prior():
    net = two_node_net()
    prior = query(net, ["E"], Evidence.empty())
    assert np.allclose(prior.probs, [0.45, 0.55])


def test_query_validation_errors():
    net = two_node_net()
    with pytest.raises(EvidenceError, match="also observed"):
        query(net, ["A"], Evidence({"A": 0}))
    with pytest.raises(BnError, match="nonempty"):
        query(net, [], Evidence.empty())
    with pytest.raises(EvidenceError, match="unknown variable"):
        query(net, ["A"], Evidence({"Bogus": 0}))
    with pytest.raises(EvidenceError, match="out of range"):
        query(net, ["A"], Evidence({"E": 7}))


def test_impossible_evidence_raises():
    schema = small_schema()
    skeleton = build_network(schema, [(), (0,)])
    net = BayesNet(
        schema,
        skeleton.parents,
        (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.5, 0.5]])),
    )
    with pytest.raises(ImpossibleEvidenceError):
        query(net, ["A"], Evidence({"E": 1}))
    with pytest.raises(ImpossibleEvidenceError):
        joint_enumerate(net, ["A"], Evidence({"E": 1}))


def test_query_output_is_normalized_nonnegative_and_in_caller_order():
    rng = np.random.default_rng(5)
    net = random_binary_net(rng, 8)
    t = query(net, ["X4", "X1"], Evidence({"X0": 1}))
    assert t.variables == ("X4", "X1")
    assert t.probs.shape == (2, 2)
    assert t.probs.min() >= 0
    assert t.probs.sum() == pytest.approx(1.0, abs=1e-9)
    swapped = query(net, ["X1", "X4"], Evidence({"X0": 1}))
    assert np.allclose(t.probs, swapped.probs.T)


def test_enumeration_matches_query_on_random_nets():
    rng = np.random.default_rng(123)
    for _ in range(40):
        net = random_binary_net(rng, int(rng.integers(3, 13)))
        infer, obs = random_split(rng, net)
        a = query(net, infer, Evidence(obs))
        b = joint_enumerate(net, infer, Evidence(obs))
        assert np.abs(a.probs - b.probs).max() <= 1e-9


def test_enumeration_special_cases():
    schema = small_schema()
    skeleton = build_network(schema, [(), (0,)])
    # deterministic tables give a point mass
    net = BayesNet(
        schema,
        skeleton.parents,
        (np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    t = joint_enumerate(net, ["A", "E"], Evidence.empty())
    assert t.probs[1, 1] == pytest.approx(1.0)
    assert t.probs.sum() == pytest.approx(1.0)
    # all-uniform tables stay uniform
    uniform = build_network(schema, [(), (0,)])
    t = joint_enumerate(uniform, ["A", "E"], Evidence.empty())
    assert np.allclose(t.probs, 0.25)


def test_enumeration_respects_state_space_cap():
    rng = np.random.default_rng(1)
    net = random_binary_net(rng, 10)
    with pytest.raises(StateSpaceError):
        joint_enumerate(net, ["X0"], Evidence.empty(), cap=2**9)


def test_query_refuses_a_factor_over_the_cap_before_allocating_it(monkeypatch):
    """The answer and every elimination step are held to ``ENUM_CAP``
    cells: numpy's MemoryError would escape as a stray exit 1."""
    schema = WorldSchema.of([(f"X{i}", ("a", "b")) for i in range(25)])
    roots = build_network(schema, [()] * 25)
    with pytest.raises(StateSpaceError, match="over 25 variables has 33554432 cells"):
        query(roots, schema.names, Evidence.empty())
    monkeypatch.setattr(bn, "ENUM_CAP", 2**12)
    assert query(roots, schema.names[:12], Evidence.empty()).probs.size == 2**12
    with pytest.raises(StateSpaceError, match="has 8192 cells, more than the cap of 4096"):
        query(roots, schema.names[:13], Evidence.empty())
    # a latent hub: summing X0 out of its 12 children takes 2**13 cells,
    # though the answer over the children has 2**12
    hub = build_network(schema, [(), *[(0,)] * 12, *[()] * 12])
    with pytest.raises(StateSpaceError, match="over 13 variables has 8192 cells"):
        query(hub, schema.names[1:13], Evidence.empty())


def test_schema_order_does_not_change_answers():
    rng = np.random.default_rng(77)
    for _ in range(10):
        net = random_binary_net(rng, 9)
        perm = rng.permutation(9).tolist()
        permuted = permute_net(net, perm)
        infer, obs = random_split(rng, net)
        a = query(net, infer, Evidence(obs))
        b = query(permuted, infer, Evidence(obs))
        assert np.abs(a.probs - b.probs).max() <= 1e-9


def test_prune_barren_preserves_queries():
    rng = np.random.default_rng(9)
    for _ in range(10):
        net = random_binary_net(rng, 10)
        infer, obs = random_split(rng, net)
        keep = list(infer) + list(obs)
        pruned = prune_barren(net, keep)
        a = query(net, infer, Evidence(obs))
        b = joint_enumerate(pruned, infer, Evidence(obs))
        assert np.abs(a.probs - b.probs).max() <= 1e-9


def test_query_skips_barren_variables_and_matches_enumeration():
    rng = np.random.default_rng(1990)
    pruned = 0
    for _ in range(60):
        net = random_binary_net(rng, int(rng.integers(4, 14)))
        infer, obs = random_split(rng, net)
        keep = [net.schema.index(v) for v in [*infer, *obs]]
        pruned += len(bn._ancestral_closure(net.parents, keep)) < len(net.schema)
        a = query(net, infer, Evidence(obs))
        b = joint_enumerate(net, infer, Evidence(obs))
        assert np.abs(a.probs - b.probs).max() <= 1e-12
    assert pruned >= 40  # most of these queries leave barren variables out


def test_query_matches_elimination_over_every_variable(trained_net):
    rng = np.random.default_rng(1986)
    for _ in range(300):
        infer, obs = random_split(rng, trained_net, n_obs=4)
        a = query(trained_net, infer, Evidence(obs))
        b = full_elimination(trained_net, infer, Evidence(obs))
        assert np.abs(a.probs - b).max() <= 1e-12


def test_marginal_consistency_of_joint_tables():
    rng = np.random.default_rng(3)
    net = random_binary_net(rng, 7)
    joint = query(net, ["X1", "X2"], Evidence.empty())
    single = query(net, ["X2"], Evidence.empty())
    assert np.allclose(joint.marginal(["X2"]).probs, single.probs)


@pytest.mark.parametrize("arities", [(2, 3, 4), (5,)])
def test_iter_cells_walks_the_cells_as_ndindex_does(arities):
    """Row-major order, whatever the memory layout: the probabilities are
    drawn in reversed shape and transposed, so a table of two or more
    variables holds them in column-major order."""
    probs = np.random.default_rng(11).random(arities[::-1]).T
    table = bn.JointTable(
        variables=tuple(f"V{a}" for a in range(len(arities))),
        labels=tuple(tuple(f"v{a}_{i}" for i in range(n)) for a, n in enumerate(arities)),
        probs=probs / probs.sum(),
    )
    assert table.probs.flags.c_contiguous == (len(arities) == 1)
    oracle = [
        (tuple(table.labels[a][i] for a, i in enumerate(idx)), float(table.probs[idx]))
        for idx in np.ndindex(*table.probs.shape)
    ]
    cells = list(table.iter_cells())
    assert cells == oracle
    assert {type(p) for _, p in cells} == {float}


def _index_split(net, infer, obs):
    return [net.schema.index(v) for v in infer], {
        net.schema.index(n): v for n, v in obs.items()
    }


def test_elimination_order_matches_factor_rescan_on_random_nets():
    rng = np.random.default_rng(404)
    for _ in range(60):
        net = random_binary_net(rng, int(rng.integers(2, 16)))
        infer_idx, obs_idx = _index_split(net, *random_split(rng, net, n_obs=5))
        order = bn._elimination_order(net, infer_idx, obs_idx, range(len(net.schema)))
        assert order == rescan_elimination_order(net, infer_idx, obs_idx)


def test_elimination_order_matches_factor_rescan_on_default_schema(trained_net):
    rng = np.random.default_rng(405)
    for _ in range(25):
        infer, obs = random_split(rng, trained_net, n_obs=6)
        infer_idx, obs_idx = _index_split(trained_net, infer, obs)
        order = bn._elimination_order(trained_net, infer_idx, obs_idx, range(57))
        assert order == rescan_elimination_order(trained_net, infer_idx, obs_idx)
        assert sorted(order + infer_idx + list(obs_idx)) == list(range(57))


def test_repeated_query_is_answered_from_the_memo(eliminations):
    net = random_binary_net(np.random.default_rng(11), 8)
    first = query(net, ["X3", "X1"], Evidence({"X0": 1}))
    again = query(net, ["X3", "X1"], Evidence({"X0": 1}))
    assert np.array_equal(again.probs, first.probs) and len(eliminations) == 1
    assert not again.probs.flags.writeable


def test_impossible_evidence_raises_on_every_call():
    schema = small_schema()
    skeleton = build_network(schema, [(), (0,)])
    net = BayesNet(
        schema,
        skeleton.parents,
        (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.5, 0.5]])),
    )
    for _ in range(2):
        with pytest.raises(ImpossibleEvidenceError):
            query(net, ["A"], Evidence({"E": 1}))
    assert net._last_answer is None


def test_memo_belongs_to_one_network_instance(tmp_path):
    net = two_node_net()
    serialize.save_bayesnet(tmp_path / "bn.txt", net)
    a = serialize.load_bayesnet(tmp_path / "bn.txt")
    b = serialize.load_bayesnet(tmp_path / "bn.txt")
    query(a, ["A"], Evidence({"E": 0}))
    assert a._last_answer is not None and b._last_answer is None
    rows = Dataset(np.array([[0, 0], [1, 1]]))
    query(net, ["E"], Evidence.empty())
    assert fit_parameters(net, rows)._last_answer is None
    assert prune_barren(net, ["A"])._last_answer is None


def test_memo_keeps_only_the_last_answer(eliminations):
    net = random_binary_net(np.random.default_rng(12), 8)
    first = (["X1"], Evidence({"X0": 0}))
    second = (["X1"], Evidence({"X0": 1}))
    for pattern in (first, first, second, second, first):
        query(net, *pattern)
    assert len(eliminations) == 3
    assert net._last_answer[0] == ((1,), ((0, 0),))


# ---------------------------------------------------------------------------
# structure search


def _independent_rows(rng, n, arities):
    return np.stack([rng.integers(a, size=n) for a in arities], axis=1)


def test_greedy_structure_max_parents_zero():
    schema = WorldSchema.of([("A", ("x", "y")), ("B", ("x", "y"))])
    rng = np.random.default_rng(0)
    data = Dataset(_independent_rows(rng, 100, (2, 2)))
    parents = greedy_structure_fit(data, schema, 0, [(), (0,)])
    assert parents == ((), ())


def test_greedy_structure_finds_noisy_copy_edge():
    rng = np.random.default_rng(2024)
    schema = WorldSchema.of(
        [("Action", ("grasp", "tap", "touch")), ("tapped", ("false", "true"))]
    )
    n = 2000
    action = rng.integers(3, size=n)
    copy_ok = rng.random(n) < 0.9
    tapped = np.where(copy_ok, (action == 1).astype(int), rng.integers(2, size=n))
    data = Dataset(np.stack([action, tapped], axis=1))
    parents = greedy_structure_fit(data, schema, 3, [(), (0,)])
    assert parents[1] == (0,)


def test_greedy_structure_leaves_independent_columns_alone():
    rng = np.random.default_rng(7)
    schema = WorldSchema.of([("A", ("x", "y")), ("B", ("x", "y"))])
    data = Dataset(_independent_rows(rng, 2000, (2, 2)))
    parents = greedy_structure_fit(data, schema, 3, [(1,), (0,)])
    assert parents == ((), ())


def test_greedy_structure_respects_layering_on_default_schema():
    # tiny sample, only shape of the result matters here
    from afftalk.world import default_config, generate_trials

    config = default_config()
    data, _ = generate_trials(config, 300, seed=5)
    candidates = layered_candidates(config.schema)
    parents = greedy_structure_fit(data, config.schema, 2, candidates)
    schema = config.schema
    roots = {schema.index(n) for n in ("Action", "Color", "Size", "Shape")}
    affordances = roots | {
        schema.index(n) for n in ("ObjVel", "HandVel", "ObjHandVel", "Contact")
    }
    for i, ps in enumerate(parents):
        assert len(ps) <= 2
        if i in roots:
            assert ps == ()
        elif i in affordances:
            assert set(ps) <= roots
        else:
            assert set(ps) <= affordances


def test_family_bic_by_hand():
    """Log-likelihood sum of c * log(c / row total), minus
    0.5 * log(n) * (parent configurations) * (arity - 1)."""
    schema = WorldSchema.of([("A", ("x", "y")), ("B", ("u", "v", "w"))])
    rows = np.array([[0, 0], [0, 0], [0, 1], [1, 2], [1, 2], [1, 2], [1, 0]])
    data = Dataset(rows)
    a_counts, b_counts = (3, 4), (3, 1, 3)
    ll_a = sum(c * math.log(c / 7) for c in a_counts)
    assert family_bic(data, schema, 0, ()) == pytest.approx(ll_a - 0.5 * math.log(7) * 1 * 1, rel=1e-12)
    ll_b = sum(c * math.log(c / 7) for c in b_counts)
    assert family_bic(data, schema, 1, ()) == pytest.approx(ll_b - 0.5 * math.log(7) * 1 * 2, rel=1e-12)
    given_a = [(2, 3), (1, 3), (1, 4), (3, 4)]  # (count, row total) of the nonzero cells
    ll_ba = sum(c * math.log(c / t) for c, t in given_a)
    assert family_bic(data, schema, 1, (0,)) == pytest.approx(ll_ba - 0.5 * math.log(7) * 2 * 2, rel=1e-12)


def _reference_greedy_fit(data, schema, max_parents, candidate_parents):
    """Greedy forward selection that scores every family with ``family_bic``,
    one count over all rows each: the reference for the table-based search."""
    result = []
    for node in range(len(schema)):
        candidates = sorted(set(candidate_parents[node]))
        chosen, best = [], family_bic(data, schema, node, ())
        while len(chosen) < max_parents:
            scores = [
                (family_bic(data, schema, node, sorted(chosen + [c])), c)
                for c in candidates
                if c not in chosen
            ]
            top = max((score for score, _ in scores), default=-math.inf)
            if not top > best:
                break
            chosen.append(next(c for score, c in scores if score == top))
            best = top
        result.append(tuple(sorted(chosen)))
    return tuple(result)


def _dependent_rows(rng, n, arities):
    """Each column a noisy function of up to three earlier columns."""
    rows = np.zeros((n, len(arities)), dtype=np.int64)
    for j, a in enumerate(arities):
        rows[:, j] = rng.integers(a, size=n)
        sources = rng.permutation(j)[: int(rng.integers(0, 4))]
        if len(sources):
            copied = rows[:, sources].sum(axis=1) % a
            keep = rng.random(n) < rng.uniform(0.3, 0.9)
            rows[keep, j] = copied[keep]
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_table_search_scores_are_bitwise_family_bic(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    arities = tuple(int(a) for a in rng.integers(2, 5, size=7))
    schema = WorldSchema.of([(f"X{i}", tuple(map(str, range(a)))) for i, a in enumerate(arities)])
    data = Dataset(_dependent_rows(rng, int(rng.integers(50, 3000)), arities))
    candidates = [rng.permutation(i)[: int(rng.integers(0, i + 1))].tolist() for i in range(7)]
    scored = []
    scorer = bn._family_scorer

    def recording(rows, arities, node, cands, code):
        score = scorer(rows, arities, node, cands, code)

        def recorded(parents):
            scored.append((node, tuple(parents), score(parents)))
            return scored[-1][2]

        return recorded

    monkeypatch.setattr(bn, "_family_scorer", recording)
    max_parents = int(rng.integers(1, 4))
    parents = greedy_structure_fit(data, schema, max_parents, candidates)
    assert len(scored) > len(schema)
    for node, family, score in scored:
        assert score == family_bic(data, schema, node, family)
    assert parents == _reference_greedy_fit(data, schema, max_parents, candidates)
    assert any(parents)


def test_count_table_over_the_candidates_is_bounded():
    schema = WorldSchema.of([(f"X{i}", ("a", "b")) for i in range(25)])
    data = Dataset(np.zeros((3, 25), dtype=np.int64))
    candidates = [list(range(1, 25))] + [[]] * 24
    with pytest.raises(StateSpaceError, match="'X0' over its candidate parents has 33554432 cells"):
        greedy_structure_fit(data, schema, 1, candidates)


@pytest.mark.parametrize(
    "candidates, name",
    [([(), (0,), (-3,)], "C"), ([(), (-2,), (0,)], "B"), ([(), (0,), (0, 5)], "C")],
)
def test_out_of_range_candidate_parents_name_the_node(candidates, name):
    """A negative index would alias another variable (C copies A, so -3
    would be chosen), the node's own index written negatively would read as
    a cycle, and 5 would index past the columns: each is rejected up front,
    naming the node."""
    schema = WorldSchema.of([("A", ("x", "y")), ("B", ("x", "y")), ("C", ("x", "y"))])
    rows = _independent_rows(np.random.default_rng(0), 50, (2, 2, 2))
    rows[:, 2] = rows[:, 0]
    with pytest.raises(BnError, match=rf"^candidate parent index out of range for '{name}'$"):
        greedy_structure_fit(Dataset(rows), schema, 1, candidates)


@pytest.mark.parametrize("candidates", [(), (0, 1, 2, 3)])
@pytest.mark.parametrize("n_rows", [0, 1, 500])
def test_candidate_tables_equal_family_counts(candidates, n_rows):
    """The table counted from the shared candidate code, and its contiguous
    marginal for every subset of up to 3 candidates, equal
    ``_family_counts`` and the multi-axis sum: same values, shape, dtype
    and C order."""
    rng = np.random.default_rng(n_rows)
    arities = (3, 2, 4, 2, 3)
    rows = np.stack([rng.integers(a, size=n_rows) for a in arities], axis=1)
    node = 4
    code = bn._candidate_code(rows, arities, candidates)
    table = bn._coded_counts(rows, arities, node, candidates, code)
    expected, _ = bn._family_counts(rows, arities, node, candidates)
    assert table.dtype == expected.dtype and table.shape == expected.shape
    assert table.flags.c_contiguous and np.array_equal(table, expected)
    for k in range(min(3, len(candidates)) + 1):
        for kept in itertools.combinations(range(len(candidates)), k):
            marginal = bn._marginal(table, kept)
            parents = tuple(candidates[j] for j in kept)
            counts, _ = bn._family_counts(rows, arities, node, parents)
            summed = table.sum(axis=tuple(j for j in range(len(candidates)) if j not in kept))
            for other in (counts, summed):
                assert marginal.dtype == other.dtype and marginal.shape == other.shape
                assert np.array_equal(marginal, other)
            assert marginal.flags.c_contiguous


@pytest.mark.parametrize("n_parents", [0, 1, 3])
def test_family_counts_equal_scattered_adds(n_parents):
    """The bincount tables equal an ``np.add.at`` scatter cell for cell."""
    rng = np.random.default_rng(n_parents)
    arities = (3, 2, 4, 2, 3)
    for n_rows in (0, 1, 500):
        rows = np.stack([rng.integers(a, size=n_rows) for a in arities], axis=1)
        node, parents = 4, tuple(rng.permutation(4)[:n_parents])
        counts, totals = bn._family_counts(rows, arities, node, parents)
        shape = tuple(arities[p] for p in parents) + (arities[node],)
        expected = np.zeros(shape)
        np.add.at(expected, tuple(rows[:, p] for p in parents) + (rows[:, node],), 1.0)
        assert counts.dtype == expected.dtype and counts.shape == shape
        assert np.array_equal(counts, expected)
        assert np.array_equal(totals, expected.sum(axis=-1, keepdims=True))
        assert totals.sum() == n_rows
