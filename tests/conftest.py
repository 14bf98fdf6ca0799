import csv
import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from afftalk import bn, kernels
from afftalk.bn import (
    BayesNet,
    WorldSchema,
    build_network,
    fit_parameters,
    greedy_structure_fit,
)
from afftalk.hmm import HmmModel, train_bank
from afftalk.schema import ACTION_VAR, ACTIONS, layered_candidates
from afftalk.serialize import _fmt
from afftalk.world import default_config, generate_trials, sample_trajectory


@pytest.fixture(scope="session")
def world_config():
    return default_config()


@pytest.fixture(scope="session")
def world_trials(world_config):
    """The rows of 10k trials from the default generator, shared across modules."""
    data, _ = generate_trials(world_config, 10000, seed=1234)
    return data


@pytest.fixture(scope="session")
def trained_net(world_config, world_trials):
    """Structure-learned, Laplace-fitted network on the 10k-trial dataset."""
    parents = greedy_structure_fit(
        world_trials, world_config.schema, 3, layered_candidates(world_config.schema)
    )
    return fit_parameters(
        build_network(world_config.schema, parents), world_trials, alpha=1.0
    )


@pytest.fixture(scope="session")
def trained_bank(world_config):
    """Gesture bank trained on 50 trajectories per action."""
    trajs = {
        a: [
            sample_trajectory(a, world_config, seed=20_000 + 1000 * i + j)
            for j in range(50)
        ]
        for i, a in enumerate(ACTIONS)
    }
    return train_bank(trajs, seed=0)


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the variable eliminations ``bn.query`` runs."""
    calls = []
    reduced_factors = bn._reduced_factors
    monkeypatch.setattr(
        bn, "_reduced_factors", lambda *a: calls.append(a) or reduced_factors(*a)
    )
    return calls


def random_binary_net(rng: np.random.Generator, n_vars: int) -> BayesNet:
    """Random DAG over binary variables with Dirichlet CPT rows."""
    order = rng.permutation(n_vars)
    pos = {v: i for i, v in enumerate(order)}
    parents = []
    for v in range(n_vars):
        earlier = [u for u in range(n_vars) if pos[u] < pos[v]]
        k = min(len(earlier), int(rng.integers(0, 4)))
        ps = sorted(rng.choice(earlier, size=k, replace=False).tolist()) if k else []
        parents.append(tuple(ps))
    schema = WorldSchema.of([(f"X{i}", ("a", "b")) for i in range(n_vars)])
    skeleton = build_network(schema, parents)
    cpts = []
    for ps in skeleton.parents:
        shape = tuple(2 for _ in ps) + (2,)
        n_rows = int(np.prod(shape[:-1], dtype=int))
        cpts.append(rng.dirichlet(np.ones(2), size=n_rows).reshape(shape))
    return BayesNet(schema, skeleton.parents, tuple(cpts))


def random_action_net(rng: np.random.Generator, n_vars: int) -> BayesNet:
    """``random_binary_net`` whose first variable is the action, ``Action``."""
    net = random_binary_net(rng, n_vars)
    action = replace(net.schema.variables[0], name=ACTION_VAR)
    schema = WorldSchema((action,) + net.schema.variables[1:])
    return BayesNet(schema, net.parents, net.cpts)


def random_split(rng: np.random.Generator, net: BayesNet, n_obs=3, n_inf=3):
    """Random disjoint (infer names, observed evidence dict) for a net."""
    n = len(net.schema)
    names = net.schema.names
    k_obs = int(rng.integers(0, min(n_obs, n - 1) + 1))
    obs_vars = rng.choice(n, size=k_obs, replace=False).tolist()
    rest = [v for v in range(n) if v not in obs_vars]
    k_inf = int(rng.integers(1, min(n_inf, len(rest)) + 1))
    inf_vars = rng.choice(rest, size=k_inf, replace=False).tolist()
    obs = {names[v]: int(rng.integers(net.schema.arities[v])) for v in obs_vars}
    return [names[v] for v in inf_vars], obs


def rescan_elimination_order(net: BayesNet, infer_idx, obs_idx) -> list[int]:
    """Min-degree elimination order found by rescanning every factor scope
    for every latent at every step (the reference for the interaction-graph
    search in ``bn._elimination_order``)."""
    scopes = [
        {v for v in (*ps, i) if v not in obs_idx} for i, ps in enumerate(net.parents)
    ]
    latents = {
        v for v in range(len(net.schema)) if v not in infer_idx and v not in obs_idx
    }
    order = []
    while latents:
        degree = {}
        for v in latents:
            scope = set()
            for f in scopes:
                if v in f:
                    scope.update(f)
            degree[v] = len(scope) - 1
        target = min(latents, key=lambda v: (degree[v], v))
        merged = set().union(*(f for f in scopes if target in f)) - {target}
        scopes = [f for f in scopes if target not in f] + [merged]
        latents.remove(target)
        order.append(target)
    return order


def full_elimination(net: BayesNet, infer_vars, obs) -> np.ndarray:
    """P(infer_vars | obs) by variable elimination over every variable,
    barren ones included, in the rescan's min-degree order: the algorithm
    ``bn.query`` ran before it learned to skip barren variables."""
    infer_idx, obs_idx = bn._validated_query(net, infer_vars, obs)
    arities = net.schema.arities
    factors = []
    for i, ps in enumerate(net.parents):
        axis_vars = [*ps, i]
        table = net.cpts[i][tuple(obs_idx.get(v, slice(None)) for v in axis_vars)]
        remaining = [v for v in axis_vars if v not in obs_idx]
        factors.append(bn._Factor.from_axes(remaining, np.asarray(table)))
    for target in rescan_elimination_order(net, infer_idx, obs_idx):
        prod = bn._product([f for f in factors if target in f.vars], arities)
        summed = prod.table.sum(axis=prod.vars.index(target))
        factors = [f for f in factors if target not in f.vars]
        rest = tuple(v for v in prod.vars if v != target)
        factors.append(bn._Factor(rest, summed / summed.max()))
    result = bn._product(factors, arities)
    return bn._finish(result.table, list(result.vars), infer_idx, net.schema).probs


def permute_net(net: BayesNet, perm) -> BayesNet:
    """Same model with variables stored in a different schema order."""
    n = len(net.schema)
    new_vars = [None] * n
    for i, var in enumerate(net.schema.variables):
        new_vars[perm[i]] = var
    schema = WorldSchema(tuple(new_vars))
    parents = [None] * n
    cpts = [None] * n
    for i, ps in enumerate(net.parents):
        new_ps = [perm[p] for p in ps]
        axis_order = tuple(np.argsort(new_ps, kind="stable").tolist()) + (len(ps),)
        parents[perm[i]] = tuple(sorted(new_ps))
        cpts[perm[i]] = np.ascontiguousarray(np.transpose(net.cpts[i], axis_order))
    return BayesNet(schema, tuple(parents), tuple(cpts))


def random_left_right_model(
    rng: np.random.Generator, n_states: int, n_mix: int, dim: int, label="x"
) -> HmmModel:
    trans = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        p = rng.uniform(0.2, 0.8)
        trans[i, i] = p
        trans[i, i + 1] = 1.0 - p
    trans[n_states - 1, n_states - 1] = 1.0
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    return HmmModel(
        action_label=label,
        log_trans=log_trans,
        weights=rng.dirichlet(np.ones(n_mix), size=n_states),
        means=rng.normal(0.0, 1.0, (n_states, n_mix, dim)),
        variances=rng.uniform(0.5, 2.0, (n_states, n_mix, dim)),
    )


def reference_gmm_obs_logprob(frames, log_weights, means, variances):
    """The emission kernel as one (F, Q, M, D) broadcast: the reference for
    ``kernels.gmm_obs_logprob``, which sums the same terms one dimension at
    a time."""
    diff = frames[:, None, None, :] - means[None, :, :, :]
    quad = (diff * diff / variances[None, :, :, :]).sum(axis=-1)
    norm = np.log(variances).sum(axis=-1) + frames.shape[1] * math.log(2.0 * math.pi)
    log_wcomp = log_weights[None, :, :] - 0.5 * (quad + norm[None, :, :])
    return log_wcomp, np.logaddexp.reduce(log_wcomp, axis=-1)


def _reference_padded(rows, lengths, end_aligned):
    """Frame-major ``rows`` as a zero-padded (T_max, N, Q) array, plus the
    (time, sequence) index of every row, which maps the padding back.
    Every sequence starts on the first step, or, ``end_aligned``, ends on
    the last."""
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    if end_aligned:
        starts -= lengths.max() - lengths
    seq = np.repeat(np.arange(len(lengths)), lengths)
    time = np.arange(len(rows)) - starts[seq]
    out = np.zeros((lengths.max(), len(lengths), rows.shape[1]))
    out[time, seq] = rows
    return out, (time, seq)


def reference_log_forward(log_trans, log_obs, lengths):
    """The forward pass stepping a frame-major (T_max, N, Q) padding: the
    bitwise reference for ``kernels.log_forward``, which steps the same
    terms states-major."""
    stay, advance = kernels._band(log_trans)
    log_b, index = _reference_padded(log_obs, lengths, end_aligned=False)
    log_alpha = np.full_like(log_b, -np.inf)
    log_alpha[0, :, 0] = log_b[0, :, 0]
    for t in range(1, len(log_b)):
        cur = np.add(log_alpha[t - 1], stay, out=log_alpha[t])
        np.logaddexp(cur[:, 1:], log_alpha[t - 1, :, :-1] + advance, out=cur[:, 1:])
        cur += log_b[t]
    return log_alpha[index]


def reference_log_backward(log_trans, log_obs, lengths):
    """The backward pass on a frame-major (T_max, N, Q) padding: the
    bitwise reference for ``kernels.log_backward``."""
    stay, advance = kernels._band(log_trans)
    log_b, index = _reference_padded(log_obs, lengths, end_aligned=True)
    log_beta = np.zeros_like(log_b)
    for t in range(len(log_b) - 2, -1, -1):
        ahead = log_b[t + 1] + log_beta[t + 1]
        cur = np.add(ahead, stay, out=log_beta[t])
        np.logaddexp(cur[:, :-1], ahead[:, 1:] + advance, out=cur[:, :-1])
    return log_beta[index]


def _emission_density(model: HmmModel, q: int, x: np.ndarray) -> float:
    dens = 0.0
    for m in range(model.n_mixtures):
        var = model.variances[q, m]
        diff = x - model.means[q, m]
        dens += (
            model.weights[q, m]
            * math.exp(-0.5 * float(np.sum(diff * diff / var)))
            / math.sqrt(float(np.prod(2.0 * np.pi * var)))
        )
    return dens


def _path_probabilities(model: HmmModel, frames: np.ndarray):
    """Every state path starting in state 0 with its joint probability."""
    trans = np.exp(model.log_trans)
    for path in itertools.product(range(model.n_states), repeat=len(frames)):
        if path[0] != 0:
            continue
        p = _emission_density(model, 0, frames[0])
        for t in range(1, len(frames)):
            p *= trans[path[t - 1], path[t]]
            if p == 0.0:
                break
            p *= _emission_density(model, path[t], frames[t])
        yield path, p


def brute_force_loglik(model: HmmModel, frames: np.ndarray) -> float:
    """Sum over every state path in the linear domain (tests only)."""
    return math.log(sum(p for _, p in _path_probabilities(model, frames)))


def brute_force_posteriors(model: HmmModel, frames: np.ndarray):
    """State posteriors (T, Q) and summed transition posteriors (Q, Q) by
    enumerating every state path (tests only)."""
    q = model.n_states
    gamma = np.zeros((len(frames), q))
    xi = np.zeros((q, q))
    total = 0.0
    for path, p in _path_probabilities(model, frames):
        total += p
        gamma[np.arange(len(frames)), path] += p
        for a, b in zip(path[:-1], path[1:]):
            xi[a, b] += p
    return gamma / total, xi / total


def _reference_csv(header, rows) -> bytes:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue().encode()


def reference_anticipation_csv(curve, predictions) -> bytes:
    """An anticipation CSV as ``csv.writer`` writes it with ``_fmt`` per cell."""
    effect = predictions[0]
    header = ["t", *(f"score_{a}" for a in curve.actions), *(f"post_{a}" for a in curve.actions)]
    header += [f"{effect.variables[0]}={lab}" for lab in effect.labels[0]]
    rows = [
        [str(t), *(_fmt(v) for v in (*scores, *posterior, *table.vector()))]
        for t, (scores, posterior, table) in enumerate(
            zip(curve.scores, curve.posteriors, predictions), 1
        )
    ]
    return _reference_csv(header, rows)


def reference_sweep_csv(sweep) -> bytes:
    """A sweep CSV as ``csv.writer`` writes it with ``_fmt`` per cell."""
    cells = list(np.ndindex(*sweep.posteriors.shape[1:]))
    header = ["confidence"] + [
        "_".join(f"{var}={labels[i]}" for var, labels, i in zip(sweep.variables, sweep.labels, idx))
        for idx in cells
    ]
    rows = [
        [_fmt(p), *(_fmt(float(sweep.posteriors[g][idx])) for idx in cells)]
        for g, p in enumerate(sweep.grid)
    ]
    return _reference_csv(header, rows)
