"""Versioned text formats for models, datasets, trajectories and results.

Models and datasets are line-oriented documents that open with one
``afftalk-model <version> <kind>`` header.  Models print 17 significant
digits per float, which round-trips IEEE doubles exactly.  A dataset names
its columns once and then holds one row of labels per trial; trajectories
are small CSV files with a ``t,x,y,z`` header.  Results are CSV files with
labeled header columns.  Every reader reports a malformed file as a
``SerializeError`` that names ``path:line``.

The numeric sections (a network's CPTs, each bank model, a trajectory's
rows) are parsed as blocks: their layout follows from the lines before them
and, for the CPTs, from each CPT's own header.  Each line is split as any
other line is, so runs of spaces and tabs are accepted; the field counts and
leads are compared with the layout once, and one ``float`` pass converts
every number.  A section off its layout is walked one line at a time only
to name the first faulty line.
"""

from __future__ import annotations

import csv
import io
import math
import os
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import getitem
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bn import BayesNet, Dataset, JointTable, Variable, WorldSchema
from .fusion import SweepResult
from .grammar import NBestList
from .hmm import GestureBank, HmmModel, PrefixCurve, Trajectory

MAGIC = "afftalk-model"
FORMAT_VERSION = 2
# Dataset rows labelled, or decoded, at a time.
_BLOCK = 1024
# Every float is written with 17 significant digits, so it reads back exactly.
_FLOAT_SPEC = ".17g"

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
    return format(x, _FLOAT_SPEC)


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
        lineno = self.lineno = self.lineno + 1
        try:
            parts = self.lines[lineno - 1].split(self.sep)
        except IndexError:
            raise self.error("truncated file") from None
        if parts[: len(lead)] != [*lead]:
            raise self.error(f"expected a line starting {' '.join(lead)!r}")
        if count is not None and len(parts) != count:
            raise self.error(f"expected {count} fields, found {len(parts)}")
        return parts

    def numbers(self, layout) -> np.ndarray:
        """The numbers of the section ``layout()`` describes, flattened in file order.

        ``layout()`` yields the section's runs of lines, each as (count of
        lines, count of fields per line, the lead fields of each line or
        None).  It is lazy, and may read lines of its own with ``fields``
        between runs, such as a CPT's header.  The lines are split as
        ``fields`` splits them, their field counts and leads are compared
        with the layout in one comparison each, and all their numbers go
        through one ``float`` pass.  A section off its layout is read again
        one line at a time, along a second ``layout()``, only to name its
        first faulty line.
        """
        start, rows, sizes, heads, text = self.lineno, [], [], [], self.lines
        try:
            for n_lines, width, leads in layout():
                at = self.lineno
                self.lineno = stop = at + n_lines
                if stop > len(text):
                    raise ValueError("truncated file")
                rows += text[at:stop]
                sizes += [width] * n_lines
                heads += leads or [[]] * n_lines
            fields = list(map(str.split, rows, repeat(self.sep)))
            if list(map(len, fields)) != sizes:
                raise ValueError("field counts off the layout")
            if any(heads):  # compared, then left out of the numbers
                cuts = list(map(len, heads))
                if list(map(getitem, fields, map(slice, cuts))) != heads:
                    raise ValueError("leads off the layout")
                fields = map(getitem, fields, map(slice, cuts, repeat(None)))
            return np.array(list(map(float, chain.from_iterable(fields))))
        except ValueError as exc:
            fault = exc
        self.lineno = start
        for n_lines, width, leads in layout():
            for lead in leads or repeat((), n_lines):
                for cell in self.fields(*lead, count=width)[len(lead) :]:
                    float(cell)
        raise fault

    def room(self, n_lines: int) -> int:
        """``n_lines``, cut to one past the lines left: a run is never read
        further, so nothing is built from a count the file cannot hold."""
        return min(n_lines, len(self.lines) - self.lineno + 1)

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


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _write_lines(path, lines: Sequence[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def _csv(rows) -> str:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _write_csv(path, header: list[str], rows) -> None:
    _write_text(path, _csv([header, *rows]))


def _write_numeric_csv(path, header: list[str], table) -> None:
    """The header as ``csv.writer`` writes it, quoting labels that need it,
    then the rows of a numeric table, ended with CRLF as ``csv.writer`` does."""
    _write_text(path, _csv([header]) + _numeric_rows(table, "\r\n"))


def _numeric_rows(table, end: str) -> str:
    """The rows of a 2-D numeric table, comma-separated, each ended by ``end``."""
    row = ",".join(["%" + _FLOAT_SPEC] * table.shape[1]) + end
    return "".join(map(row.__mod__, map(tuple, table.tolist())))


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
        sizes = list(map(math.prod, shapes))
        values = lines.numbers(partial(_cpt_layout, lines, names, shapes, sizes))
        ends = list(accumulate(sizes))
        cpts = map(np.ndarray.reshape, map(values.__getitem__, map(slice, [0, *ends], ends)), shapes)
        lines.fields("end", count=1)
        return BayesNet(schema=schema, parents=tuple(parents), cpts=tuple(cpts))


def _cpt_layout(lines: _Lines, names, shapes, sizes):
    """The runs of the CPT section, read from its own headers: each CPT is a
    ``cpt <name> <rows> <arity>`` line, then ``rows`` lines of ``arity``
    numbers, which must fill the CPT's shape.  A header written as saved,
    with the counts the shape gives, is taken as it stands, which is what
    reading its fields would give."""
    text = lines.lines
    for name, shape, size in zip(names, shapes, sizes):
        arity = shape[-1]
        n_rows = size // arity
        if text[lines.lineno : lines.lineno + 1] == [f"cpt {name} {n_rows} {arity}"]:
            lines.lineno += 1
        else:
            n_rows, arity = map(lines.size, lines.fields("cpt", name, count=4)[2:])
        yield n_rows, arity, None
        if n_rows * arity != size:  # in numpy's words for a failed reshape
            dims = ",".join(map(str, shape)) + ("," if len(shape) == 1 else "")
            raise ValueError(f"cannot reshape array of size {n_rows * arity} into shape ({dims})")


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
            values = lines.numbers(partial(_model_layout, lines, n_states, n_mix, dim))
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


def _model_layout(lines: _Lines, n_states: int, n_mix: int, dim: int):
    """The runs of the lines after a ``model`` line, its counts cut by ``room``."""
    states = list(map(str, range(lines.room(n_states))))
    components = list(map(str, range(lines.room(n_mix))))
    yield len(states), 2 + n_states, [["logtrans", q] for q in states]
    for q in states:
        yield 1, 2 + n_mix, [["mix", q]]
        yield 2 * len(components), 3 + dim, [[k, q, c] for c in components for k in ("mean", "var")]


def save_trajectory(path, traj: Trajectory) -> None:
    header = "t," + ",".join("xyz"[d] if traj.dim <= 3 else f"d{d}" for d in range(traj.dim))
    table = np.column_stack([np.arange(len(traj)) * traj.frame_period, traj.frames])
    _write_text(path, header + "\n" + _numeric_rows(table, "\n"))


def load_trajectory(path) -> Trajectory:
    with _Lines(path, sep=",") as lines:
        width = len(lines.fields("t"))
        if width < 2:
            raise lines.error("expected a coordinate column after 't'")
        n_frames = len(lines.lines) - 1
        table = lines.numbers(lambda: [(n_frames, width, None)]).reshape(-1, width)
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
    The rows are labelled and written a block at a time, so the text held
    does not grow with the row count.  A trajectory key that is not a row
    number raises before any file is written.
    """
    directory, n = Path(directory), len(data)
    for row in trajectories:
        if not 0 <= row < n:
            message = f"trajectory key {row} is not a row of the {n}-row dataset"
            raise SerializeError(f"{directory}: {message}")
    paths = {row: f"traj/{row:05d}.csv" for row in trajectories}
    for row, trajectory in trajectories.items():
        save_trajectory(directory / paths[row], trajectory)
    labels = np.array([label for v in schema.variables for label in v.labels], dtype=object)
    offsets = np.cumsum([0, *schema.arities[:-1]])
    records = [_header("dataset"), f"provenance {data.provenance}", " ".join(_columns(schema))]
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "trials.txt", "w", encoding="utf-8", newline="") as out:
        out.write("\n".join(records) + "\n")
        for start in range(0, n, _BLOCK):
            block = labels[data.rows[start : start + _BLOCK] + offsets].tolist()
            out.writelines(
                f"{' '.join(fields)} {paths.get(row, '-')}\n"
                for row, fields in enumerate(block, start)
            )


def read_dataset(directory, schema: WorldSchema) -> tuple[Dataset, dict[int, str]]:
    """Rows as value indices plus the trajectory paths keyed by row number.

    The rows are decoded into an array sized from the file's line count, a
    block at a time, so no list of every row is built.
    """
    codes = [{label: k for k, label in enumerate(v.labels)} for v in schema.variables]
    columns = _columns(schema)
    traj_paths: dict[int, str] = {}
    path = Path(directory) / "trials.txt"
    with _Lines(path) as lines:
        _check_header(lines, "dataset")
        lines.fields("provenance")
        # the text after the field and its one separator
        provenance = lines.lines[1].lstrip()[len("provenance ") :]
        header = lines.fields()
        if header != columns:
            raise lines.error(_column_error(header, columns))
        rows = np.empty((len(lines.lines) - lines.lineno, len(schema)), dtype=np.int64)
        for start in range(0, len(rows), _BLOCK):
            block = []
            for parts in islice(lines.rest(), _BLOCK):
                row = list(map(dict.get, codes, parts))
                if len(parts) != len(columns) or None in row:
                    raise lines.error(_row_error(parts, row, columns))
                if parts[-1] != "-":
                    traj_paths[start + len(block)] = os.path.join(str(directory), parts[-1])
                block.append(row)
            rows[start : start + len(block)] = block
    if not len(rows):
        raise SerializeError(f"{path}: no trial records")
    return Dataset(rows=rows, provenance=provenance), traj_paths


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
    columns = [np.arange(1, len(predictions) + 1), curve.scores, curve.posteriors]
    columns.append([table.vector() for table in predictions])
    _write_numeric_csv(path, header, np.column_stack(columns))


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """One row per grid point; probability columns carry value labels."""
    columns = ["confidence"]
    for idx in np.ndindex(*sweep.posteriors.shape[1:]):
        pairs = zip(sweep.variables, sweep.labels, idx)
        columns.append("_".join(f"{var}={labels[i]}" for var, labels, i in pairs))
    by_point = sweep.posteriors.reshape(len(sweep.grid), -1)  # cells in ``ndindex`` order
    _write_numeric_csv(path, columns, np.column_stack([sweep.grid, by_point]))


def write_nbest_csv(path, nbest_list: NBestList) -> None:
    """CSV rows of (rank, score, sentence)."""
    rows = (
        [rank, _fmt(score), sentence.text]
        for rank, (sentence, score) in enumerate(nbest_list.entries, 1)
    )
    _write_csv(path, ["rank", "score", "sentence"], rows)
