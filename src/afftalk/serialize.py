"""Versioned text formats for models, datasets, trajectories and results.

Models and datasets are line-oriented documents that open with one
``afftalk-model <version> <kind>`` header.  Models print 17 significant
digits per float, which round-trips IEEE doubles exactly.  A dataset names
its columns once and then holds one row of labels per trial; trajectories
are small CSV files with a ``t,x,y,z`` header.  Results are CSV files with
labeled header columns.  Every reader reports a malformed file as a
``SerializeError`` that names ``path:line``.

A network's CPTs and a trajectory's rows are parsed as blocks: each CPT's
layout is read from its own ``cpt`` line, a trajectory's from its header.
Lines are split on runs of spaces and tabs (on commas in a trajectory),
a block's field counts are compared with its layout at once, and one
``float`` pass converts its numbers.  A block off its layout, or longer than
the lines left, is walked one line at a time only to name its first faulty
line.  A gesture bank is read one line at a time, each line's lead
and field count checked as it is read, so nothing is built from a model
line's counts before the lines they describe.  Dataset rows are decoded a
block at a time: a block as ``write_dataset`` writes it is decoded from
bytes, and any other block is walked one row at a time.  Every file is
written as it is formatted, through one open text file; every result CSV
through one writer, its header and then the blocks of rows its caller formats.
"""

from __future__ import annotations

import csv
import math
import os
from itertools import chain, islice, product, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bn import BOOL_LABELS, BayesNet, Dataset, JointTable, Variable, WorldSchema
from .fusion import SweepResult
from .grammar import NBestList
from .hmm import GestureBank, HmmModel, PrefixCurve, Trajectory

MAGIC = "afftalk-model"
FORMAT_VERSION = 2
# Dataset rows labelled, or decoded, at a time.
_BLOCK = 1024
# Result CSV cells formatted, or header fields written, at a time.
_CELLS = 1 << 16
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

    def row(self, width: int, *lead: str) -> list[float]:
        """The numbers of the next line, which must hold ``width`` fields and
        begin with ``lead``; the lead is left out."""
        return list(map(float, self.fields(*lead, count=width)[len(lead) :]))

    def numbers(self, n_lines: int, width: int) -> np.ndarray:
        """The next ``n_lines`` lines of ``width`` numbers each, as an
        (n_lines, width) array.  The lines are split as ``fields`` splits
        them, their field counts are compared at once, and all their numbers
        go through one ``float`` pass.  Lines off that layout, or fewer lines
        left than asked for, are walked one ``row`` at a time only to name
        the first faulty line."""
        at = self.lineno
        if at + n_lines <= len(self.lines):
            fields = list(map(str.split, self.lines[at : at + n_lines], repeat(self.sep)))
            try:
                if list(map(len, fields)) == [width] * n_lines:
                    values = np.array(list(map(float, chain.from_iterable(fields))))
                    self.lineno = at + n_lines
                    return values.reshape(n_lines, width)
            except ValueError:
                pass
        return np.array([self.row(width) for _ in range(n_lines)])

    def size(self, text: str) -> int:
        """A count read from the current line, which must be positive."""
        n = int(text)
        if n < 1:
            raise self.error(f"expected a positive count, found {n}")
        return n


def _open_text(path):
    """``path`` opened to write UTF-8 text with line ends as given, its
    folder made first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _stream_csv(path, header: Iterable[str], blocks: Iterable[str]) -> None:
    """The header as ``csv.writer`` writes it, ``_CELLS`` fields at a time and
    ended with CRLF as it ends rows, then each block of rows as it comes."""
    with _open_text(path) as out:
        labels = iter(header)
        for i, piece in enumerate(iter(lambda: list(islice(labels, _CELLS)), [])):
            out.write(("," if i else "") + _csv_rows([piece])[0][:-2])
        out.write("\r\n")
        out.writelines(blocks)


def _csv_rows(rows: Iterable[list]) -> list[str]:
    """Each of ``rows`` as the one string ``csv.writer`` writes for it, CRLF-ended."""
    written: list[str] = []
    csv.writer(SimpleNamespace(write=written.append)).writerows(rows)
    return written


def _numeric_blocks(columns) -> Iterator[str]:
    """Numeric ``columns`` stacked side by side, as rows ``_CELLS`` cells at a
    time: a block of whole rows, or a row wider than that in pieces."""
    table = np.column_stack(columns)
    width = table.shape[1]
    rows = max(1, _CELLS // width)  # one row at a time when it is wider
    for start in range(0, len(table), rows):
        for cut in range(0, width, _CELLS):
            end = "\r\n" if cut + _CELLS >= width else ","
            yield _numeric_rows(table[start : start + rows, cut : cut + _CELLS], end)


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
    names = net.schema.names
    with _open_text(path) as out:
        out.write(f"{_header('bayesnet')}\nvariables {len(net.schema)}\n")
        for var in net.schema.variables:
            out.write("var " + " ".join((var.name,) + var.labels) + "\n")
        for i, ps in enumerate(net.parents):
            out.write("parents " + " ".join((names[i],) + tuple(names[p] for p in ps)) + "\n")
        for i, cpt in enumerate(net.cpts):
            rows = cpt.reshape(-1, cpt.shape[-1])
            out.write(f"cpt {names[i]} {rows.shape[0]} {rows.shape[1]}\n")
            out.writelines(" ".join(map(_fmt, row)) + "\n" for row in rows)
        out.write("end\n")


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
        parents = [tuple(map(schema.index, lines.fields("parents", name)[2:])) for name in names]
        cpts = []
        for name, ps, arity in zip(names, parents, arities):
            # a ``cpt <name> <rows> <arity>`` line, then rows that fill the shape
            shape = (*map(arities.__getitem__, ps), arity)
            n_rows, width = map(lines.size, lines.fields("cpt", name, count=4)[2:])
            rows, size = lines.numbers(n_rows, width), math.prod(shape)
            if rows.size != size:
                held = f"{n_rows} x {width} = {rows.size}"
                raise ValueError(f"cpt {name!r} holds {held} numbers, its parents give {size}")
            cpts.append(rows.reshape(shape))
        lines.fields("end", count=1)
        return BayesNet(schema=schema, parents=tuple(parents), cpts=tuple(cpts))


def save_gesture_bank(path, bank: GestureBank) -> None:
    with _open_text(path) as out:
        out.write(f"{_header('gesturebank')}\nmodels {len(bank.models)}\n")
        for m in bank.models:
            out.write(f"model {m.action_label} {m.n_states} {m.n_mixtures} {m.dim}\n")
            for q in range(m.n_states):
                out.write(f"logtrans {q} " + " ".join(map(_fmt, m.log_trans[q])) + "\n")
            for q in range(m.n_states):
                out.write(f"mix {q} " + " ".join(map(_fmt, m.weights[q])) + "\n")
                for c in range(m.n_mixtures):
                    out.write(f"mean {q} {c} " + " ".join(map(_fmt, m.means[q, c])) + "\n")
                    out.write(f"var {q} {c} " + " ".join(map(_fmt, m.variances[q, c])) + "\n")
        out.write("end\n")


def load_gesture_bank(path) -> GestureBank:
    models = []
    with _Lines(path) as lines:
        _check_header(lines, "gesturebank")
        for _ in range(lines.size(lines.fields("models", count=2)[1])):
            _, label, *dims = lines.fields("model", count=5)
            n_states, n_mix, dim = map(lines.size, dims)
            log_trans = [lines.row(2 + n_states, "logtrans", str(q)) for q in range(n_states)]
            weights, means, variances = [], [], []
            for q in map(str, range(n_states)):
                weights.append(lines.row(2 + n_mix, "mix", q))
                pairs = [
                    (lines.row(3 + dim, "mean", q, c), lines.row(3 + dim, "var", q, c))
                    for c in map(str, range(n_mix))
                ]
                means.append([mean for mean, _ in pairs])
                variances.append([var for _, var in pairs])
            models.append(HmmModel(label, log_trans, weights, means, variances))
        lines.fields("end", count=1)
        return GestureBank(models=tuple(models))


def save_trajectory(path, traj: Trajectory) -> None:
    header = "t," + ",".join("xyz"[d] if traj.dim <= 3 else f"d{d}" for d in range(traj.dim))
    table = np.column_stack([np.arange(len(traj)) * traj.frame_period, traj.frames])
    with _open_text(path) as out:
        out.write(header + "\n")
        out.write(_numeric_rows(table, "\n"))


def load_trajectory(path) -> Trajectory:
    with _Lines(path, sep=",") as lines:
        width = len(lines.fields("t"))
        if width < 2:
            raise lines.error("expected a coordinate column after 't'")
        table = lines.numbers(len(lines.lines) - 1, width)
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
    with _open_text(directory / "trials.txt") as out:
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
    block at a time, so no list of every row is built.  A block written as
    ``write_dataset`` writes it takes the byte path, ``_decode_rows``; any
    other block is walked one row at a time, which decodes it or names its
    first faulty line.
    """
    codes = [{label: k for k, label in enumerate(v.labels)} for v in schema.variables]
    columns = _columns(schema)
    labeled = _labeled_columns(schema)
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
        first = lines.lineno
        rows = np.empty((len(lines.lines) - first, len(schema)), dtype=np.int64)
        for start in range(0, len(rows), _BLOCK):
            out = rows[start : start + _BLOCK]
            block = lines.lines[first + start : first + start + len(out)]
            trajs = None
            if labeled is not None:
                trajs = _decode_rows(block, codes[:labeled], out)
            if trajs is None:
                trajs = _walk_rows(lines, codes, columns, out)
            else:
                lines.lineno += len(out)
            for row, traj in enumerate(trajs, start):
                if traj != "-":
                    traj_paths[row] = os.path.join(str(directory), traj)
    if not len(rows):
        raise SerializeError(f"{path}: no trial records")
    return Dataset(rows=rows, provenance=provenance), traj_paths


def _labeled_columns(schema: WorldSchema) -> int | None:
    """How many columns precede the schema's last run of boolean columns, or
    None when no byte path fits it: no boolean column is last, or a label of
    an earlier column is empty or holds whitespace, which no row of a
    ``str.split`` walk can hold."""
    labeled = len(schema)
    while labeled and schema.variables[labeled - 1].labels == BOOL_LABELS:
        labeled -= 1
    tokens = [label for v in schema.variables[:labeled] for label in v.labels]
    if labeled == len(schema) or any(label.split() != [label] for label in tokens):
        return None
    return labeled


def _decode_rows(block: list[str], codes: list[dict], out: np.ndarray) -> Sequence[str] | None:
    """The byte path: decode a block written with single spaces into ``out``
    and return its trajectory fields, or None, leaving the block to
    ``_walk_rows``.

    Each line is split only at its labeled fields (``codes``) and at its
    last field, the trajectory path.  The boolean fields between them are
    joined as bytes, one line per row, and each ``false`` or ``true``
    becomes ``0`` or ``1``.  The block is decoded only if those bytes held
    no ``0`` or ``1`` and, once replaced, are one digit per boolean field
    with one space between fields, every byte checked: so a bare ``0`` or
    ``1``, a fused ``truefalse``, a word off by a letter or a non-ASCII
    character is left to the walk.
    """
    labeled, n = len(codes), out.shape[1] - len(codes)
    *labels, rests = zip(*[line.split(" ", labeled) for line in block])
    if len(labels) != labeled:  # zip stops at the line of fewest fields
        return None
    try:
        heads = [list(map(code.__getitem__, column)) for code, column in zip(codes, labels)]
    except KeyError:
        return None
    # each copy of the block's text is dropped once the next one is made
    del labels
    bools, _, trajs = zip(*[rest.rpartition(" ") for rest in rests])
    del rests
    words = "\n".join(bools).encode()  # the file was read as UTF-8
    del bools
    if b"0" in words or b"1" in words:
        return None
    if "\n".join(trajs).split() != list(trajs):
        return None
    digits = words.replace(b"false", b"0").replace(b"true", b"1") + b"\n"
    if len(digits) != 2 * n * len(out):
        return None
    text = np.frombuffer(digits, dtype=np.uint8).reshape(len(out), 2 * n)
    bits = text[:, ::2] - ord("0")
    gaps = np.frombuffer(b" " * (n - 1) + b"\n", dtype=np.uint8)  # what follows each field
    if (bits > 1).any() or (text[:, 1::2] != gaps).any():
        return None
    out[:, :labeled] = np.array(heads, dtype=np.int64).T
    out[:, labeled:] = bits
    return trajs


def _walk_rows(lines: _Lines, codes: list[dict], columns: list[str], out: np.ndarray) -> list[str]:
    """The row walk: decode the next ``len(out)`` lines into ``out`` one row
    at a time, each split at any run of whitespace, and return their
    trajectory fields; the first faulty line raises, named by its number."""
    block, trajs = [], []
    for _ in range(len(out)):
        parts = lines.fields()
        row = list(map(dict.get, codes, parts))
        if len(parts) != len(columns) or None in row:
            raise lines.error(_row_error(parts, row, columns))
        block.append(row)
        trajs.append(parts[-1])
    out[:] = block
    return trajs


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
    """One row per cell: the variables' labels, then the probability.  Each
    label is quoted once, as a field of a row, and the rows' labels are the
    ``product`` of the quoted labels; rows go out ``_CELLS`` at a time."""
    quoted = [[q[:-2] for q in _csv_rows([label, ""] for label in axis)] for axis in table.labels]
    prefixes = map("".join, product(*quoted))
    row = "%s%" + _FLOAT_SPEC + "\r\n"
    blocks = (table.probs.flat[i : i + _CELLS].tolist() for i in range(0, table.probs.size, _CELLS))
    text = ("".join(map(row.__mod__, zip(islice(prefixes, len(block)), block))) for block in blocks)
    _stream_csv(path, [*table.variables, "p"], text)


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
    _stream_csv(path, header, _numeric_blocks(columns))


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """One row per grid point; probability columns carry value labels,
    named as they are written."""
    cells = (
        "_".join(map("{}={}".format, sweep.variables, labels))
        for labels in product(*sweep.labels)
    )
    by_point = sweep.posteriors.reshape(len(sweep.grid), -1)  # cells in ``product`` order
    _stream_csv(path, chain(["confidence"], cells), _numeric_blocks([sweep.grid, by_point]))


def write_nbest_csv(path, nbest_list: NBestList) -> None:
    """CSV rows of (rank, score, sentence), quoted as one block."""
    rows = ([rank, _fmt(score), s.text] for rank, (s, score) in enumerate(nbest_list.entries, 1))
    _stream_csv(path, ["rank", "score", "sentence"], _csv_rows(rows))
