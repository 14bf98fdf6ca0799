"""Versioned text formats for models, datasets, trajectories and results.

Models and datasets are line-oriented documents that open with one
``afftalk-model <version> <kind>`` header.  Models print 17 significant
digits per float, which round-trips IEEE doubles exactly.  A dataset names
its columns once and then holds one row of labels per trial; trajectories
are small CSV files with a ``t,x,y,z`` header.  Results are CSV files with
labeled header columns.  Every reader reports a malformed file as a
``SerializeError`` that names ``path:line``.

The numeric sections (a network's CPTs, each bank model, a trajectory's
rows) are parsed as blocks: their layout follows from what was read before
them, and one ``float`` pass converts every number of a section that fits
it exactly.  A section that does not fit is read again one line at a time,
which names the line at fault.
"""

from __future__ import annotations

import csv
import io
import math
import os
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bn import BayesNet, Dataset, JointTable, Variable, WorldSchema
from .fusion import SweepResult
from .grammar import NBestList
from .hmm import GestureBank, HmmModel, PrefixCurve, Trajectory

MAGIC = "afftalk-model"
FORMAT_VERSION = 2

__all__ = [
    "SerializeError",
    "save_bayesnet",
    "load_bayesnet",
    "save_gesture_bank",
    "load_gesture_bank",
    "save_trajectory",
    "load_trajectory",
    "write_dataset",
    "read_dataset",
    "write_table_csv",
    "write_anticipation_csv",
    "write_sweep_csv",
    "write_nbest_csv",
]


class SerializeError(ValueError):
    """Malformed or mismatching model/dataset file."""


def _fmt(x: float) -> str:
    return format(x, ".17g")


class _Lines:
    """A text file read one line at a time, or a numeric section at a time;
    every failure names ``path:line``.

    Use it as a context manager: a ``ValueError`` raised inside the block,
    by a number conversion or by a model constructor, leaves it as a
    ``SerializeError`` that points at the line read last.
    """

    def __init__(self, path, sep: str | None = None):
        self.path = path
        self.sep = sep
        try:
            with open(path, encoding="utf-8") as text:
                self.lines = text.read().splitlines()
        except UnicodeDecodeError as exc:
            raise SerializeError(f"{path}: not UTF-8 text: {exc}") from None
        self.lineno = 0

    def __enter__(self) -> "_Lines":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, SerializeError):
            raise self.error(str(exc)) from exc

    def error(self, message: str, lineno: int | None = None) -> SerializeError:
        """An error at ``lineno``, by default the line read last."""
        return SerializeError(f"{self.path}:{lineno or self.lineno}: {message}")

    def fields(self, *lead: str, count: int | None = None) -> list[str]:
        """The next line's fields, which must begin with ``lead``.

        ``count``, when given, is the exact number of fields, ``lead``
        included.
        """
        self.lineno += 1
        if self.lineno > len(self.lines):
            raise self.error("truncated file")
        parts = self.lines[self.lineno - 1].split(self.sep)
        if parts[: len(lead)] != list(lead):
            raise self.error(f"expected a line starting {' '.join(lead)!r}")
        if count is not None and len(parts) != count:
            raise self.error(f"expected {count} fields, found {len(parts)}")
        return parts

    def floats(self, *lead: str, count: int) -> list[float]:
        """The ``count`` numbers that follow ``lead`` on the next line."""
        return list(map(float, self.fields(*lead, count=len(lead) + count)[len(lead):]))

    def numbers(self, layout, n_lines: int) -> np.ndarray:
        """The numbers on the next ``n_lines`` lines, flattened in file order.

        ``layout`` gives each line's (lead fields, count of numbers); it may
        be lazy.  Lines that hold exactly that, with single separators, are
        converted in one block; otherwise they are read one at a time, so
        the error names the line at fault.  Nothing is built from the counts
        before the file is known to hold that many lines.
        """
        stop = self.lineno + n_lines
        if stop <= len(self.lines):
            layout = list(layout)
            sep = self.sep or " "
            heads = [sep.join(lead) + sep if lead else "" for lead, _ in layout]
            rows = self.lines[self.lineno : stop]
            if all(map(str.startswith, rows, heads)):
                rows = list(map(str.removeprefix, rows, heads))
                values = _numbers(rows, [count - 1 for _, count in layout], sep)
                if values is not None:
                    self.lineno = stop
                    return values
        return np.array([v for lead, count in layout for v in self.floats(*lead, count=count)])

    def size(self, text: str) -> int:
        """A count read from the current line, which must be positive."""
        n = int(text)
        if n < 1:
            raise self.error(f"expected a positive count, found {n}")
        return n

    def rest(self):
        """The fields of every remaining line."""
        while self.lineno < len(self.lines):
            yield self.fields()


def _numbers(rows: list[str], seps: list[int], sep: str) -> np.ndarray | None:
    """Every number on ``rows``, converted in one ``float`` pass.

    None unless row k holds exactly ``seps[k]`` separators and every field
    between them is a number.  ``float`` accepts no empty field and no
    whitespace inside one, so such rows split into the fields the line
    reader's ``str.split`` finds, and the values are its values.
    """
    if list(map(str.count, rows, repeat(sep))) != seps:
        return None
    try:
        return np.array(list(map(float, sep.join(rows).split(sep))))
    except ValueError:
        return None


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _write_lines(path, lines: Sequence[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def _write_csv(path, header: list[str], rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    _write_text(path, text.getvalue())


def _header(kind: str) -> str:
    return f"{MAGIC} {FORMAT_VERSION} {kind}"


def _check_header(lines: _Lines, kind: str) -> None:
    parts = lines.fields()
    if len(parts) != 3 or parts[0] != MAGIC or parts[2] != kind:
        raise lines.error(f"expected '{MAGIC} <version> {kind}' header")
    if parts[1] != str(FORMAT_VERSION):
        raise lines.error(f"unsupported format version {parts[1]}")


def save_bayesnet(path, net: BayesNet) -> None:
    lines = [_header("bayesnet")]
    lines.append(f"variables {len(net.schema)}")
    for var in net.schema.variables:
        lines.append("var " + " ".join((var.name,) + var.labels))
    names = net.schema.names
    for i, ps in enumerate(net.parents):
        lines.append("parents " + " ".join((names[i],) + tuple(names[p] for p in ps)))
    for i, cpt in enumerate(net.cpts):
        rows = cpt.reshape(-1, cpt.shape[-1])
        lines.append(f"cpt {names[i]} {rows.shape[0]} {rows.shape[1]}")
        for row in rows:
            lines.append(" ".join(_fmt(v) for v in row))
    lines.append("end")
    _write_lines(path, lines)


def load_bayesnet(path) -> BayesNet:
    with _Lines(path) as lines:
        _check_header(lines, "bayesnet")
        n = lines.size(lines.fields("variables", count=2)[1])
        variables = []
        for _ in range(n):
            _, name, *labels = lines.fields("var")
            variables.append(Variable(name, tuple(labels)))
        schema = WorldSchema(tuple(variables))
        names, arities = schema.names, schema.arities
        parents = []
        for i in range(n):
            parts = lines.fields("parents", names[i])
            parents.append(tuple(map(schema.index, parts[2:])))
        shapes = [(*map(arities.__getitem__, ps), arities[i]) for i, ps in enumerate(parents)]
        cpts = _cpt_block(lines, names, shapes)
        if cpts is None:  # the line reader, which names the faulty line
            cpts = []
            for i in range(n):
                n_rows, arity = map(lines.size, lines.fields("cpt", names[i], count=4)[2:])
                table = np.array([lines.floats(count=arity) for _ in range(n_rows)])
                cpts.append(table.reshape(shapes[i]))
        lines.fields("end", count=1)
    return BayesNet(schema=schema, parents=tuple(parents), cpts=tuple(cpts))


def _cpt_block(lines: _Lines, names, shapes) -> list[np.ndarray] | None:
    """The CPTs in one block, or None unless the section is exactly as saved.

    Each CPT is a ``cpt <name> <rows> <arity>`` line, with the rows and
    arity its parents and variable give, then one line of ``arity``
    numbers per row.
    """
    start = lines.lineno
    counts = [math.prod(shape[:-1]) for shape in shapes]
    stop = start + len(shapes) + sum(counts)
    if stop > len(lines.lines):
        return None
    section = lines.lines[start:stop]
    rows: list[str] = []
    seps: list[int] = []
    at = 0
    for name, shape, n_rows in zip(names, shapes, counts):
        if section[at] != f"cpt {name} {n_rows} {shape[-1]}":
            return None
        rows += section[at + 1 : at + 1 + n_rows]
        seps += [shape[-1] - 1] * n_rows
        at += 1 + n_rows
    values = _numbers(rows, seps, " ")
    if values is None:
        return None
    lines.lineno = stop
    cpts, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        cpts.append(values[at : at + size].reshape(shape))
        at += size
    return cpts


def save_gesture_bank(path, bank: GestureBank) -> None:
    lines = [_header("gesturebank")]
    lines.append(f"models {len(bank.models)}")
    for m in bank.models:
        lines.append(f"model {m.action_label} {m.n_states} {m.n_mixtures} {m.dim}")
        for q in range(m.n_states):
            lines.append(f"logtrans {q} " + " ".join(_fmt(v) for v in m.log_trans[q]))
        for q in range(m.n_states):
            lines.append(f"mix {q} " + " ".join(_fmt(v) for v in m.weights[q]))
            for c in range(m.n_mixtures):
                lines.append(f"mean {q} {c} " + " ".join(_fmt(v) for v in m.means[q, c]))
                lines.append(f"var {q} {c} " + " ".join(_fmt(v) for v in m.variances[q, c]))
    lines.append("end")
    _write_lines(path, lines)


def load_gesture_bank(path) -> GestureBank:
    models = []
    with _Lines(path) as lines:
        _check_header(lines, "gesturebank")
        for _ in range(lines.size(lines.fields("models", count=2)[1])):
            _, label, *dims = lines.fields("model", count=5)
            n_states, n_mix, dim = map(lines.size, dims)
            layout = _model_layout(n_states, n_mix, dim)
            values = lines.numbers(layout, n_states * (2 + 2 * n_mix))
            per_state = values[n_states * n_states :].reshape(n_states, -1)
            pairs = per_state[:, n_mix:].reshape(n_states, n_mix, 2, dim)
            models.append(
                HmmModel(
                    action_label=label,
                    log_trans=values[: n_states * n_states].reshape(n_states, n_states),
                    weights=np.ascontiguousarray(per_state[:, :n_mix]),
                    means=np.ascontiguousarray(pairs[:, :, 0]),
                    variances=np.ascontiguousarray(pairs[:, :, 1]),
                )
            )
        lines.fields("end", count=1)
    return GestureBank(models=tuple(models))


def _model_layout(n_states: int, n_mix: int, dim: int):
    """(lead fields, count) of each line after a ``model`` line, lazily, so
    that a model line with huge counts fails on its first short line."""
    for q in range(n_states):
        yield ("logtrans", str(q)), n_states
    for q in range(n_states):
        yield ("mix", str(q)), n_mix
        for c in range(n_mix):
            yield ("mean", str(q), str(c)), dim
            yield ("var", str(q), str(c)), dim


def save_trajectory(path, traj: Trajectory) -> None:
    header = "t," + ",".join("xyz"[d] if traj.dim <= 3 else f"d{d}" for d in range(traj.dim))
    table = np.column_stack([np.arange(len(traj)) * traj.frame_period, traj.frames])
    frame = ",".join(["%.17g"] * table.shape[1])  # what ``_fmt`` writes per value
    _write_lines(path, [header, *(frame % tuple(row) for row in table.tolist())])


def load_trajectory(path) -> Trajectory:
    with _Lines(path, sep=",") as lines:
        width = len(lines.fields("t"))
        if width < 2:
            raise lines.error("expected a coordinate column after 't'")
        n_frames = len(lines.lines) - 1
        table = lines.numbers([((), width)] * n_frames, n_frames).reshape(-1, width)
        if len(table) == 0:
            raise lines.error("trajectory needs a header and one frame")
        steps = np.diff(table[:, 0])
        # written so that a NaN time fails too; frame k sits on line k + 2
        stalled = np.flatnonzero(~(steps > 0))
        if stalled.size:
            raise lines.error("time column must increase", lineno=int(stalled[0]) + 3)
        period = float(steps[0]) if len(steps) else 1.0 / 30.0
        return Trajectory(frames=table[:, 1:].copy(), frame_period=period)


def _columns(schema: WorldSchema) -> list[str]:
    """A dataset's columns: every variable in schema order, then ``traj``."""
    return [*schema.names, "traj"]


def write_dataset(
    directory, data: Dataset, trajectories: Mapping[int, Trajectory], schema: WorldSchema
) -> None:
    """Write ``trials.txt`` plus one CSV per trajectory, keyed by row.

    The file is the header, a ``provenance`` line, the column line, then one
    row per trial: its labels in column order and its trajectory path or ``-``.
    """
    directory = Path(directory)
    labels = np.array([label for v in schema.variables for label in v.labels], dtype=object)
    table = np.full((len(data), len(schema) + 1), "-", dtype=object)
    table[:, :-1] = labels[data.rows + np.cumsum([0, *schema.arities[:-1]])]
    for row, trajectory in trajectories.items():
        table[row, -1] = f"traj/{row:05d}.csv"
        save_trajectory(directory / table[row, -1], trajectory)
    records = [_header("dataset"), f"provenance {data.provenance}", " ".join(_columns(schema))]
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "trials.txt", "w", encoding="utf-8", newline="") as out:
        out.write("\n".join(records) + "\n")
        for start in range(0, len(table), 1024):  # in chunks, which bounds the text held
            out.writelines(" ".join(row) + "\n" for row in table[start : start + 1024].tolist())


def read_dataset(directory, schema: WorldSchema) -> tuple[Dataset, dict[int, str]]:
    """Rows as value indices plus the trajectory paths keyed by row number."""
    codes = [{label: k for k, label in enumerate(v.labels)} for v in schema.variables]
    columns = _columns(schema)
    rows = []
    traj_paths: dict[int, str] = {}
    path = Path(directory) / "trials.txt"
    with _Lines(path) as lines:
        _check_header(lines, "dataset")
        lines.fields("provenance")
        provenance = lines.lines[1][len("provenance ") :]
        header = lines.fields()
        if header != columns:
            raise lines.error(_column_error(header, columns))
        for parts in lines.rest():
            row = list(map(dict.get, codes, parts))
            if len(parts) != len(columns) or None in row:
                raise lines.error(_row_error(parts, row, columns))
            if parts[-1] != "-":
                traj_paths[len(rows)] = os.path.join(str(directory), parts[-1])
            rows.append(row)
    if not rows:
        raise SerializeError(f"{path}: no trial records")
    return Dataset(rows=np.asarray(rows, dtype=np.int64), provenance=provenance), traj_paths


def _column_error(header: list[str], columns: list[str]) -> str:
    """Where a dataset's column line first leaves the schema's columns."""
    pairs = enumerate(zip(header, columns))
    i = next((i for i, (found, want) in pairs if found != want), min(len(header), len(columns)))
    if i == len(header):
        return f"expected column {columns[i]!r}, found end of line"
    if i == len(columns):
        return f"unexpected column {header[i]!r} after {columns[-1]!r}"
    return f"expected column {columns[i]!r}, found {header[i]!r}"


def _row_error(parts: list[str], row: list, columns: list[str]) -> str:
    """Why a dataset row does not decode: its width or its first unknown label."""
    n, found = len(columns), len(parts)
    if found < n:
        return f"row ends before column {columns[found]!r}: expected {n} fields, found {found}"
    if found > n:
        return f"row runs past the last column {columns[-1]!r}: expected {n} fields, found {found}"
    i = row.index(None)
    return f"unknown label {parts[i]!r} for variable {columns[i]!r}"


def write_table_csv(path, table: JointTable) -> None:
    """One row per cell: the variables' labels, then the probability."""
    cells = ([*labels, _fmt(p)] for labels, p in table.iter_cells())
    _write_csv(path, [*table.variables, "p"], cells)


def write_anticipation_csv(path, curve: PrefixCurve, predictions: Sequence[JointTable]) -> None:
    """One row per prefix length: action scores, action posterior, effect prediction.

    ``predictions[t - 1]`` is the fused distribution of one effect variable
    after the first ``t`` frames.
    """
    effect = predictions[0]
    header = ["t"]
    header += [f"score_{a}" for a in curve.actions]
    header += [f"post_{a}" for a in curve.actions]
    header += [f"{effect.variables[0]}={lab}" for lab in effect.labels[0]]
    rows = (
        [str(t)] + [_fmt(v) for v in (*scores, *posterior, *table.vector())]
        for t, (scores, posterior, table) in enumerate(
            zip(curve.scores, curve.posteriors, predictions), 1
        )
    )
    _write_csv(path, header, rows)


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """One row per grid point; probability columns carry value labels."""
    cells = list(np.ndindex(*sweep.posteriors.shape[1:]))
    columns = ["confidence"]
    for idx in cells:
        pairs = zip(sweep.variables, sweep.labels, idx)
        columns.append("_".join(f"{var}={labels[i]}" for var, labels, i in pairs))
    rows = (
        [_fmt(p)] + [_fmt(float(sweep.posteriors[g][idx])) for idx in cells]
        for g, p in enumerate(sweep.grid)
    )
    _write_csv(path, columns, rows)


def write_nbest_csv(path, nbest_list: NBestList) -> None:
    """CSV rows of (rank, score, sentence)."""
    rows = (
        [rank, _fmt(score), sentence.text]
        for rank, (sentence, score) in enumerate(nbest_list.entries, 1)
    )
    _write_csv(path, ["rank", "score", "sentence"], rows)
