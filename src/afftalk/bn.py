"""Discrete Bayesian networks: schema, CPTs, exact inference and learning.

The network is a plain DAG over finite variables.  Inference runs in the
linear probability domain with per-step factor renormalization, which is
enough headroom for desk-scale models (a few dozen variables, arities below
ten).  ``joint_enumerate`` is a deliberately naive full-joint summation used
as an independent cross-check for ``query``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

ROW_SUM_TOL = 1e-12
ENUM_CAP = 1 << 24

__all__ = [
    "BnError",
    "CycleError",
    "EvidenceError",
    "ImpossibleEvidenceError",
    "StateSpaceError",
    "Variable",
    "WorldSchema",
    "Evidence",
    "Dataset",
    "BayesNet",
    "JointTable",
    "build_network",
    "fit_parameters",
    "query",
    "sums_to_one",
    "joint_enumerate",
    "prune_barren",
    "greedy_structure_fit",
    "family_bic",
]


class BnError(ValueError):
    """Base class for network construction and inference errors."""


class CycleError(BnError):
    """The requested parent structure contains a directed cycle."""


class EvidenceError(BnError):
    """Evidence references an unknown variable/value or clashes with the query."""


class ImpossibleEvidenceError(BnError):
    """The observed assignment has zero probability under the model."""


class StateSpaceError(BnError):
    """A table the request needs would hold more than ``ENUM_CAP`` cells."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Variable:
    """A named finite variable with one label per value."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise BnError(f"variable {self.name!r} needs arity >= 2")
        if len(set(self.labels)) != len(self.labels):
            raise BnError(f"variable {self.name!r} has duplicate value labels")

    @property
    def arity(self) -> int:
        return len(self.labels)


BOOL_LABELS = ("false", "true")


@dataclass(frozen=True)
class WorldSchema:
    """Ordered variable declarations shared by datasets and networks.

    ``names``, ``arities`` and ``word_columns`` (the indices of the word
    variables) are tuples in schema order, built once at construction
    because loading, inference and dataset rows read them in every loop.
    """

    variables: tuple[Variable, ...]

    def __post_init__(self):
        names = tuple(v.name for v in self.variables)
        if len(set(names)) != len(names):
            raise BnError("variable names must be unique")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "arities", tuple(v.arity for v in self.variables))
        words = tuple(i for i, v in enumerate(self.variables) if v.labels == BOOL_LABELS)
        object.__setattr__(self, "word_columns", words)

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, Sequence[str]]]) -> "WorldSchema":
        return cls(tuple(Variable(name, tuple(labels)) for name, labels in pairs))

    def __len__(self):
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise EvidenceError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def value_index(self, name: str, label: str) -> int:
        var = self.variable(name)
        try:
            return var.labels.index(label)
        except ValueError:
            raise EvidenceError(
                f"variable {name!r} has no value {label!r} (choices: {', '.join(var.labels)})"
            ) from None

    def word_variables(self) -> tuple[str, ...]:
        """Boolean presence variables, recognized by their false/true labels."""
        return tuple(self.names[i] for i in self.word_columns)


@dataclass(frozen=True)
class Evidence:
    """Hard evidence: a map from variable name to a single value index."""

    assignments: Mapping[str, int]

    @classmethod
    def empty(cls) -> "Evidence":
        return cls({})

    @classmethod
    def from_labels(cls, schema: WorldSchema, labeled: Mapping[str, str]) -> "Evidence":
        return cls({name: schema.value_index(name, lab) for name, lab in labeled.items()})

    def validate(self, schema: WorldSchema) -> None:
        for name, value in self.assignments.items():
            var = schema.variable(name)
            if not 0 <= int(value) < var.arity:
                raise EvidenceError(
                    f"value index {value} out of range for variable {name!r}"
                )

    def __contains__(self, name: str) -> bool:
        return name in self.assignments

    def items(self):
        return self.assignments.items()


@dataclass(frozen=True)
class Dataset:
    """Complete assignments over all schema variables, one row per trial."""

    rows: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def validate(self, schema: WorldSchema) -> None:
        if self.rows.ndim != 2 or self.rows.shape[1] != len(schema):
            raise BnError("dataset rows must cover every schema variable")
        arities = np.asarray(schema.arities)
        if (self.rows < 0).any() or (self.rows >= arities[None, :]).any():
            raise BnError("dataset contains out-of-range value indices")

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class BayesNet:
    """Immutable network: schema, per-variable parent indices, CPT arrays.

    ``cpts[i]`` has one axis per parent (ascending schema order) plus a last
    axis over the variable's own values; every row along that last axis is a
    distribution.  Each instance keeps the last answer ``query`` computed
    from it, for ``anticipate``, which asks one network the same fused
    query on every frame; a new network, even one read from the same file,
    starts with none.
    """

    schema: WorldSchema
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "cpts", tuple(_readonly(c) for c in self.cpts))
        self._validate()
        # (query key, answer) of the last successful ``query``, or None
        object.__setattr__(self, "_last_answer", None)

    def _validate(self) -> None:
        n = len(self.schema)
        if len(self.parents) != n or len(self.cpts) != n:
            raise BnError("parents and cpts must match the schema length")
        # the structure of every variable, then the rows of every cpt before
        # the first structure fault at once, so the error names the first
        # faulty variable in schema order
        faults = list(map(self._structure_fault, range(n)))
        first = next((i for i, fault in enumerate(faults) if fault), n)
        faulty = _first_faulty_cpt(self.cpts[:first])
        if faulty is not None:
            name = self.schema.names[faulty]
            if (self.cpts[faulty] < 0).any():
                raise BnError(f"negative probability in cpt of {name!r}")
            raise BnError(f"cpt rows of {name!r} must sum to 1")
        if first < n:
            raise faults[first]
        _toposort(self.parents)

    def _structure_fault(self, i: int) -> BnError | None:
        """What is wrong with variable ``i``'s parents or cpt shape, if anything."""
        ps, cpt, name = self.parents[i], self.cpts[i], self.schema.names[i]
        if list(ps) != sorted(set(ps)):
            return BnError(f"parents of {name!r} must be sorted and unique")
        if ps and (ps[0] < 0 or ps[-1] >= len(self.schema)):  # ps is sorted
            return BnError(f"parent index out of range for {name!r}")
        if i in ps:
            return CycleError(f"{name!r} cannot be its own parent")
        arities = self.schema.arities
        expected = (*map(arities.__getitem__, ps), arities[i])
        if cpt.shape != expected:
            return BnError(f"cpt shape {cpt.shape} for {name!r}, expected {expected}")
        return None

    def parent_names(self, name: str) -> tuple[str, ...]:
        return tuple(self.schema.names[p] for p in self.parents[self.schema.index(name)])


def sums_to_one(sums):
    """Whether each sum, an array or one number, lies within ``ROW_SUM_TOL``
    of 1; a NaN sum does not."""
    return abs(sums - 1.0) <= ROW_SUM_TOL


def _first_faulty_cpt(cpts: Sequence[np.ndarray]) -> int | None:
    """The index of the first cpt with a negative entry or a row that does
    not sum to 1, or None.

    The rows of all cpts of one width are tested at once.  Stacked, each
    row is summed as ``cpt.sum(axis=-1)`` sums it, in the same order.
    """
    by_width: dict[int, list[int]] = {}
    for i, cpt in enumerate(cpts):
        by_width.setdefault(cpt.shape[-1], []).append(i)
    faulty = []
    for width, members in by_width.items():
        rows = np.concatenate([cpts[i] for i in members], axis=None).reshape(-1, width)
        bad = ~sums_to_one(rows.sum(axis=-1)) | (rows < 0).any(axis=-1)
        if bad.any():
            counts = [cpts[i].size // width for i in members]
            per_cpt = np.logical_or.reduceat(bad, np.cumsum(counts) - counts)
            faulty.append(members[int(per_cpt.argmax())])
    return min(faulty, default=None)


def _toposort(parents: Sequence[Sequence[int]]) -> list[int]:
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, ps in enumerate(parents):
        indeg[i] = len(ps)
        for p in ps:
            children[p].append(i)
    ready = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    if len(order) != n:
        raise CycleError("parent structure contains a cycle")
    return order


def build_network(schema: WorldSchema, parents: Sequence[Sequence[int]]) -> BayesNet:
    """Network with the given structure and uniform CPTs.

    Parent lists are canonicalized to ascending schema order; duplicates are
    rejected and cycles raise ``CycleError``.
    """
    n = len(schema)
    if len(parents) != n:
        raise BnError("need one parent list per schema variable")
    canon = []
    for i, ps in enumerate(parents):
        ps = [int(p) for p in ps]
        if any(p < 0 or p >= n for p in ps):
            raise BnError(f"parent index out of range for {schema.names[i]!r}")
        if len(set(ps)) != len(ps):
            raise BnError(f"duplicate parent for {schema.names[i]!r}")
        canon.append(tuple(sorted(ps)))
    arities = schema.arities
    cpts = []
    for i, ps in enumerate(canon):
        shape = tuple(arities[p] for p in ps) + (arities[i],)
        cpts.append(np.full(shape, 1.0 / arities[i]))
    return BayesNet(schema=schema, parents=tuple(canon), cpts=tuple(cpts))


def _family_counter(rows: np.ndarray, arities: Sequence[int]):
    """``count(node, columns)``: the counts of ``node`` over a tuple of
    ``columns``, indexed (column values..., node value) in C order, as floats.

    Each row's configuration of ``columns`` is numbered once, in C order over
    their arities as ``np.ravel_multi_index`` numbers it, and that code is
    shared by every later count over the same tuple, as the word nodes share
    the affordance layer; each count is then one ``bincount``.
    """
    codes: dict[tuple[int, ...], np.ndarray] = {}

    def count(node: int, columns: tuple[int, ...]) -> np.ndarray:
        code = codes.get(columns)
        if code is None:
            code = np.zeros(len(rows), dtype=np.int64)
            for c in columns:
                code = code * arities[c] + rows[:, c]
            codes[columns] = code
        shape = (*(arities[c] for c in columns), arities[node])
        cells = np.bincount(code * arities[node] + rows[:, node], minlength=math.prod(shape))
        return cells.astype(float).reshape(shape)

    return count


def fit_parameters(net: BayesNet, data: Dataset, alpha: float = 1.0) -> BayesNet:
    """Re-estimate every CPT from complete rows with additive smoothing.

    Each cell becomes (count + alpha) / (rows matching the parent config +
    alpha * arity).  With alpha = 0 an unobserved parent configuration has no
    defined row and raises.
    """
    if alpha < 0:
        raise BnError("alpha must be >= 0")
    data.validate(net.schema)
    arities = net.schema.arities
    count = _family_counter(data.rows, arities)
    cpts = []
    for i, ps in enumerate(net.parents):
        counts = count(i, ps)
        totals = counts.sum(axis=-1, keepdims=True)
        if alpha == 0.0 and (totals == 0).any():
            raise BnError(
                f"unobserved parent configuration for {net.schema.names[i]!r}; "
                "use alpha > 0"
            )
        smoothed = totals + alpha * arities[i]
        if not np.isfinite(smoothed).all():
            raise BnError(
                f"alpha={alpha!r} overflows the smoothed counts of {net.schema.names[i]!r}"
            )
        cpts.append((counts + alpha) / smoothed)
    return BayesNet(schema=net.schema, parents=net.parents, cpts=tuple(cpts))


@dataclass(frozen=True)
class JointTable:
    """A normalized joint distribution over a few named variables."""

    variables: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))

    def axis(self, name: str) -> int:
        return self.variables.index(name)

    def vector(self) -> np.ndarray:
        if len(self.variables) != 1:
            raise BnError("vector() needs a single-variable table")
        return self.probs

    def marginal(self, names: Sequence[str]) -> "JointTable":
        keep = [self.axis(n) for n in names]
        drop = tuple(a for a in range(self.probs.ndim) if a not in keep)
        summed = self.probs.sum(axis=drop) if drop else self.probs
        # sum() keeps the remaining axes in original order; reorder to request
        remaining = [a for a in range(self.probs.ndim) if a not in drop]
        perm = [remaining.index(a) for a in keep]
        return JointTable(
            variables=tuple(names),
            labels=tuple(self.labels[a] for a in keep),
            probs=np.ascontiguousarray(np.transpose(summed, perm)),
        )

    def iter_cells(self):
        """(label tuple, probability) pairs in row-major order."""
        return zip(itertools.product(*self.labels), map(float, self.probs.flat))


@dataclass
class _Factor:
    vars: tuple[int, ...]  # ascending schema indices
    table: np.ndarray

    @classmethod
    def from_axes(cls, axis_vars: Sequence[int], table: np.ndarray) -> "_Factor":
        order = np.argsort(axis_vars, kind="stable")
        return cls(
            vars=tuple(axis_vars[k] for k in order),
            table=np.ascontiguousarray(np.transpose(table, order)),
        )


def _product(factors: list[_Factor], arities: Sequence[int]) -> _Factor:
    union: list[int] = sorted({v for f in factors for v in f.vars})
    dims = tuple(arities[v] for v in union)
    cells = math.prod(dims)
    if cells > ENUM_CAP:
        raise StateSpaceError(
            f"a factor over {len(union)} variables has {cells} cells, "
            f"more than the cap of {ENUM_CAP}"
        )
    out = np.ones(dims)
    for f in factors:
        shape = tuple(arities[v] if v in set(f.vars) else 1 for v in union)
        out = out * f.table.reshape(shape)
    return _Factor(vars=tuple(union), table=out)


def _validated_query(net: BayesNet, infer_vars: Sequence[str], obs: Evidence):
    if not infer_vars:
        raise BnError("infer_vars must be nonempty")
    infer_idx = [net.schema.index(v) for v in infer_vars]
    if len(set(infer_idx)) != len(infer_idx):
        raise BnError("infer_vars contains duplicates")
    obs.validate(net.schema)
    obs_idx = {net.schema.index(n): int(v) for n, v in obs.items()}
    overlap = set(infer_idx) & set(obs_idx)
    if overlap:
        names = ", ".join(net.schema.names[i] for i in sorted(overlap))
        raise EvidenceError(f"inference variables also observed: {names}")
    return infer_idx, obs_idx


def _ancestral_closure(parents: Sequence[Sequence[int]], keep: Iterable[int]) -> list[int]:
    """``keep`` and all its ancestors, in ascending schema order.

    Every other variable is barren: it is neither kept nor an ancestor of a
    kept one, so summing it out (children first) multiplies by one.
    """
    needed: set[int] = set()
    stack = list(keep)
    while stack:
        v = stack.pop()
        if v not in needed:
            needed.add(v)
            stack.extend(parents[v])
    return sorted(needed)


def _reduced_factors(
    net: BayesNet, obs_idx: Mapping[int, int], relevant: Sequence[int]
) -> list[_Factor]:
    """The evidence-sliced CPT factor of every variable in ``relevant``."""
    factors = []
    for i in relevant:
        ps = net.parents[i]
        axis_vars = list(ps) + [i]
        slicer = tuple(obs_idx.get(v, slice(None)) for v in axis_vars)
        table = net.cpts[i][slicer]
        remaining = [v for v in axis_vars if v not in obs_idx]
        factors.append(_Factor.from_axes(remaining, np.asarray(table)))
    return factors


def _finish(table: np.ndarray, order_idx, caller_idx, schema) -> JointTable:
    z = float(table.sum())
    if z <= 0.0:
        raise ImpossibleEvidenceError("observed evidence has zero probability")
    probs = table / z
    perm = [order_idx.index(v) for v in caller_idx]
    probs = np.ascontiguousarray(np.transpose(probs, perm))
    return JointTable(
        variables=tuple(schema.names[v] for v in caller_idx),
        labels=tuple(schema.variables[v].labels for v in caller_idx),
        probs=probs,
    )


def _elimination_order(
    net: BayesNet,
    infer_idx: Sequence[int],
    obs_idx: Mapping[int, int],
    relevant: Sequence[int],
) -> list[int]:
    """Latent variables in greedy min-degree order, ties to schema position.

    Works on the interaction graph of the evidence-reduced factors of the
    ``relevant`` variables: two unobserved variables are neighbours when
    some factor holds both, and eliminating a variable joins its neighbours
    into a clique, just as summing it out joins the factors that hold it.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in relevant if v not in obs_idx}
    for i in relevant:
        scope = [v for v in (*net.parents[i], i) if v not in obs_idx]
        for v in scope:
            nbrs[v].update(scope)
    for v, adjacent in nbrs.items():
        adjacent.discard(v)
    latents = set(nbrs) - set(infer_idx)
    order = []
    while latents:
        target = min(latents, key=lambda v: (len(nbrs[v]), v))
        clique = nbrs.pop(target)
        for v in clique:
            nbrs[v] |= clique
            nbrs[v] -= {v, target}
        latents.remove(target)
        order.append(target)
    return order


def query(net: BayesNet, infer_vars: Sequence[str], obs: Evidence) -> JointTable:
    """Exact conditional P(infer_vars | obs) by variable elimination.

    Only the ancestral closure of the query and evidence variables enters
    the elimination; the barren rest sums to one.  Its latent variables are
    eliminated in min-degree order with ties broken by schema position, so
    results are deterministic.  Evidence with zero probability raises
    ``ImpossibleEvidenceError`` rather than returning a silent uniform, and
    a factor of more than ``ENUM_CAP`` cells raises ``StateSpaceError``
    before it is allocated.  The answer is read-only, and ``net`` keeps the
    last one, so asking the same (query variables, evidence) again in a row,
    as ``anticipate``'s fused query does on every frame, costs a lookup.
    """
    infer_idx, obs_idx = _validated_query(net, infer_vars, obs)
    key = (tuple(infer_idx), tuple(sorted(obs_idx.items())))
    last = net._last_answer
    if last is not None and last[0] == key:
        return last[1]
    arities = net.schema.arities
    relevant = _ancestral_closure(net.parents, [*infer_idx, *obs_idx])
    factors = _reduced_factors(net, obs_idx, relevant)
    for target in _elimination_order(net, infer_idx, obs_idx, relevant):
        involved = [f for f in factors if target in f.vars]
        rest = [f for f in factors if target not in f.vars]
        prod = _product(involved, arities)
        summed = prod.table.sum(axis=prod.vars.index(target))
        peak = summed.max() if summed.size else 0.0
        if peak <= 0.0:
            raise ImpossibleEvidenceError("observed evidence has zero probability")
        # per-step renormalization: only the final conditional is reported,
        # so dividing by the peak costs nothing and avoids underflow
        rest.append(_Factor(tuple(v for v in prod.vars if v != target), summed / peak))
        factors = rest
    result = _product(factors, arities)
    table = _finish(result.table, list(result.vars), infer_idx, net.schema)
    # one attribute swap, so threads sharing ``net`` at worst repeat an
    # elimination
    object.__setattr__(net, "_last_answer", (key, table))
    return table


def joint_enumerate(
    net: BayesNet,
    infer_vars: Sequence[str],
    obs: Evidence,
    cap: int = ENUM_CAP,
) -> JointTable:
    """Same contract as ``query`` via exhaustive summation of the full joint.

    Materializes the complete joint array, so the total state space must stay
    under ``cap`` states.  Useful only as an oracle and for small models.
    """
    infer_idx, obs_idx = _validated_query(net, infer_vars, obs)
    arities = net.schema.arities
    if math.prod(arities) > cap:
        raise StateSpaceError(f"joint state space exceeds cap of {cap} states")
    joint = np.ones(arities)
    n = len(net.schema)
    for i, ps in enumerate(net.parents):
        axis_vars = list(ps) + [i]
        f = _Factor.from_axes(axis_vars, net.cpts[i])
        shape = tuple(arities[v] if v in set(f.vars) else 1 for v in range(n))
        joint *= f.table.reshape(shape)
    slicer = tuple(obs_idx.get(v, slice(None)) for v in range(n))
    reduced = joint[slicer]
    remaining = [v for v in range(n) if v not in obs_idx]
    drop = tuple(k for k, v in enumerate(remaining) if v not in infer_idx)
    summed = reduced.sum(axis=drop) if drop else reduced
    kept = [v for v in remaining if v in infer_idx]
    return _finish(summed, kept, infer_idx, net.schema)


def prune_barren(net: BayesNet, keep_vars: Sequence[str]) -> BayesNet:
    """Drop variables that are neither kept nor ancestors of kept variables.

    An unobserved leaf sums to one over its own CPT row, so removing it leaves
    the joint over the remaining variables unchanged; applying that rule
    repeatedly keeps exactly the ancestral closure.  Handy for shrinking a
    model below the enumeration cap before cross-checking inference.
    """
    order = _ancestral_closure(net.parents, [net.schema.index(v) for v in keep_vars])
    remap = {v: k for k, v in enumerate(order)}
    schema = WorldSchema(tuple(net.schema.variables[v] for v in order))
    parents = tuple(tuple(remap[p] for p in net.parents[v]) for v in order)
    cpts = tuple(net.cpts[v] for v in order)
    return BayesNet(schema=schema, parents=parents, cpts=cpts)


def _bic(counts: np.ndarray, n: int) -> float:
    """BIC of a family from its counts, indexed (parent values..., node
    value), over ``n`` rows (maximum-likelihood fit)."""
    totals = counts.sum(axis=-1, keepdims=True)
    # an empty cell's ratio stays 1, so its term is 0 * log(1) = 0.0
    ratios = np.divide(counts, totals, out=np.ones(counts.shape), where=counts > 0)
    q = math.prod(counts.shape[:-1])
    penalty = 0.5 * math.log(max(n, 1)) * q * (counts.shape[-1] - 1)
    return float((counts * np.log(ratios)).sum()) - penalty


def family_bic(
    data: Dataset, schema: WorldSchema, node: int, parents: Sequence[int]
) -> float:
    """BIC score of one node given a parent set (maximum-likelihood fit)."""
    data.validate(schema)
    counts = _family_counter(data.rows, schema.arities)(node, tuple(parents))
    return _bic(counts, len(data.rows))


def _marginal(table: np.ndarray, kept: Sequence[int]) -> np.ndarray:
    """``table`` summed over every leading axis not in the ascending
    ``kept``, its last axis always kept.

    The kept axes are moved to the front, so each output cell sums one
    contiguous run of cells.  The counts are integers, so the sums are
    exact and equal ``table.sum(axis=left_out)`` bit for bit.
    """
    node_axis = table.ndim - 1
    left_out = [k for k in range(node_axis) if k not in kept]
    shape = tuple(table.shape[k] for k in kept) + (table.shape[-1],)
    moved = table.transpose([*kept, node_axis, *left_out])
    return moved.reshape(math.prod(shape), -1).sum(axis=1).reshape(shape)


def _family_scorer(count, n_rows: int, node: int, candidates: tuple[int, ...]):
    """``family_bic`` of ``node`` for any ascending subset of the ascending
    ``candidates``, read from one count table over (candidates, node): a
    family's counts are the ``_marginal`` of that table over the candidates
    it keeps.  ``count`` is the ``_family_counter`` of the ``n_rows`` rows."""
    table = count(node, candidates)

    def score(parents: Sequence[int]) -> float:
        kept = [k for k, c in enumerate(candidates) if c in parents]
        return _bic(_marginal(table, kept), n_rows)

    return score


def greedy_structure_fit(
    data: Dataset,
    schema: WorldSchema,
    max_parents: int,
    candidate_parents: Sequence[Iterable[int]],
) -> tuple[tuple[int, ...], ...]:
    """Per-node greedy forward selection of parents under BIC.

    Candidates are scanned in schema order, so ties resolve to the earliest
    variable.  The caller's candidate sets must be layered (no variable may be
    a candidate of its own ancestors); the assembled structure is verified to
    be acyclic before it is returned.  Each node's families are scored from
    one count table over all its candidates, whose cells may number at most
    ``ENUM_CAP``.  The rows' configuration code over a candidate set is
    computed once and shared by every node with that set, as the word
    nodes share the affordance layer; each node still counts its own table
    and runs its own greedy loop.
    """
    if max_parents < 0:
        raise BnError("max_parents must be >= 0")
    data.validate(schema)
    if len(candidate_parents) != len(schema):
        raise BnError("need one candidate set per schema variable")
    result: list[tuple[int, ...]] = []
    count = _family_counter(data.rows, schema.arities)
    for node in range(len(schema)):
        candidates = tuple(sorted(set(int(c) for c in candidate_parents[node])))
        if candidates and (candidates[0] < 0 or candidates[-1] >= len(schema)):
            raise BnError(f"candidate parent index out of range for {schema.names[node]!r}")
        if node in candidates:
            raise BnError(f"{schema.names[node]!r} cannot be its own candidate parent")
        cells = math.prod(schema.arities[c] for c in candidates) * schema.arities[node]
        if cells > ENUM_CAP:
            raise StateSpaceError(
                f"the count table of {schema.names[node]!r} over its candidate parents "
                f"has {cells} cells, more than the cap of {ENUM_CAP}"
            )
        score = _family_scorer(count, len(data.rows), node, candidates)
        chosen: list[int] = []
        best = score(())
        while len(chosen) < max_parents:
            best_gain_parent = None
            best_score = best
            for c in candidates:
                if c in chosen:
                    continue
                gain_score = score(sorted(chosen + [c]))
                if gain_score > best_score:
                    best_score = gain_score
                    best_gain_parent = c
            if best_gain_parent is None:
                break
            chosen.append(best_gain_parent)
            best = best_score
        result.append(tuple(sorted(chosen)))
    _toposort(result)
    return tuple(result)
