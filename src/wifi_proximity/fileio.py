"""Shared file formats: JSONL, CSV, JSON and .npz layouts, schema tags,
config hashes.

Every file the pipeline writes carries a header that embeds the schema
name+version and the hash of the configuration that produced it, so
downstream stages can refuse to mix incompatible artifacts. Writers
build the file beside its target and rename it into place, so an
artifact is either complete or absent. Inside a ``committed()`` block
the renames wait for the block's end, so a set of files lands together
or not at all.

Logs and the cleaned scans are JSONL; reports and models are JSON. From
``clean`` on, stages hand each other tables in .npz archives (save_table,
load_table): scans.npz, candidates.npz and features.npz. The CSV files,
candidates.csv and features.csv, are readable copies that no stage reads;
write_csv formats them a block of rows at a time, column by column, and
each distinct number in a block's column once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

SCHEMA_WIFI = "wifi.v1"
SCHEMA_BLUETOOTH = "bluetooth.v1"
SCHEMA_GROUND_TRUTH = "ground_truth.v1"
SCHEMA_CANDIDATES = "candidates.v1"
SCHEMA_FEATURES = "features.v1"
SCHEMA_MODEL = "model.v1"
SCHEMA_EVAL = "eval.v1"
SCHEMA_REPORT = "report.v1"
SCHEMA_CLEANING = "cleaning_report.v1"
SCHEMA_HOMES = "home_routers.v1"
SCHEMA_SCANS = "scans.v1"
SCHEMA_CANDIDATE_ARRAYS = "candidate_arrays.v1"
SCHEMA_FEATURE_ARRAYS = "feature_arrays.v1"

BLOCK_ROWS = 4096  # rows a writer formats and writes at a time


class DataError(Exception):
    """Bad or missing input data (CLI exit code 3)."""


def config_hash(values: dict) -> str:
    """Deterministic short hash of a flat config mapping."""
    payload = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def check_schema(found_schema, found_hash, expect_schema, expect_hash=None, path=""):
    if found_schema != expect_schema:
        raise DataError(f"{path}: schema {found_schema!r}, expected {expect_schema!r}")
    if expect_hash is not None and found_hash != expect_hash:
        raise DataError(
            f"{path}: config hash {found_hash!r} does not match {expect_hash!r}"
        )


# temp file -> target of each write finished inside a committed() block
_held: dict[Path, Path] | None = None


@contextmanager
def committed():
    """Make the files written inside the block land together: each
    finished ``<name>.tmp`` is held and renamed onto its target, in write
    order, when the block ends. On any exception the temp files left are
    removed, and only the renames already done have replaced targets."""
    global _held
    _held = held = {}
    try:
        yield
        for tmp, path in held.items():
            os.replace(tmp, path)
    finally:
        _held = None
        for tmp in held:
            tmp.unlink(missing_ok=True)


@contextmanager
def _replacing(path, binary: bool = False):
    """Open ``<path>.tmp`` for writing; on success it replaces path, at
    once or, inside a committed() block, when the block ends.

    On an exception the temp file is removed and path is left as it was,
    so a reader sees a complete artifact or the previous one, never part
    of one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")) as fh:
            yield fh
        if _held is None:
            os.replace(tmp, path)
        else:
            _held[tmp] = path
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def write_jsonl(path, schema: str, cfg_hash: str, rows: Iterable[str]) -> int:
    """Write a JSONL file with a leading header line. Returns the row count.

    ``rows`` yields each row as the str of its JSON text, on one line,
    encoded by the caller. It is iterated once, and written BLOCK_ROWS
    rows per write call.
    """
    n = 0
    rows = iter(rows)
    with _replacing(path) as fh:
        fh.write(json.dumps({"schema": schema, "config_hash": cfg_hash}) + "\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")
            n += len(block)
    return n


def read_jsonl_header(path, expect_schema: str, expect_hash: str | None = None) -> dict:
    """Read and check the header line of a JSONL file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
    try:
        header = json.loads(first)
    except (ValueError, RecursionError):
        raise DataError(f"{path}: missing JSONL header line")
    if not isinstance(header, dict) or "schema" not in header:
        raise DataError(f"{path}: missing JSONL header line")
    check_schema(header.get("schema"), header.get("config_hash"),
                 expect_schema, expect_hash, str(path))
    return header


_JSON_SPACE = " \t\r\n"


def iter_jsonl(path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line) for the data lines of a JSONL file.

    Line numbers are 1-based file positions; the header line is skipped.
    A byte that UTF-8 cannot decode spoils only its line: it comes as a
    lone surrogate, which no decoded text holds, and callers reject it.
    Only JSON's whitespace is stripped from a line's ends, so a line that
    json.loads rejects, such as one ending in a form feed, stays so.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip(_JSON_SPACE)
            if not line:
                continue
            if line_no == 1 and '"schema"' in line:
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError):
                    obj = None
                if isinstance(obj, dict) and "schema" in obj:
                    continue
            yield line_no, line


# ---------------------------------------------------------------------------
# CSV (header comment line + column header + rows)
# ---------------------------------------------------------------------------

def column_blocks(columns, size: int = BLOCK_ROWS) -> Iterator[list]:
    """Cut equal-length column arrays into blocks of at most size rows.

    Yields, per block, the list ``[column[lo:lo + size] for column in
    columns]``: the form write_csv takes.
    """
    for lo in range(0, len(columns[0]), size):
        yield [column[lo:lo + size] for column in columns]


def _cells(column: np.ndarray) -> list[str]:
    """One column's cells: repr for floats, with NaN as an empty cell, and
    str for anything else.

    A number column formats each distinct value once; floats are told
    apart by their bits, so -0.0 and 0.0 keep their own cells. An object
    column holds ids that are text already, which sorting would only slow.
    """
    if column.dtype.kind == "O":
        return list(map(str, column.tolist()))
    if column.dtype.kind == "f":
        bits, inv = np.unique(column.astype(np.float64).view(np.int64),
                              return_inverse=True)
        uniq = bits.view(np.float64)
        text = list(map(repr, uniq.tolist()))
        for i in np.flatnonzero(np.isnan(uniq)).tolist():
            text[i] = ""
    else:
        uniq, inv = np.unique(column, return_inverse=True)
        text = list(map(str, uniq.tolist()))
    return np.array(text, dtype=object)[inv].tolist()


def write_csv(path, schema: str, cfg_hash: str, columns: list[str],
              blocks: Iterable[list]) -> int:
    """Write a CSV with a '#' metadata line before the column header.

    ``blocks`` yields the rows a block at a time, each block a list of
    1-d numpy arrays, one per column and all of one length (see
    column_blocks). It is iterated once. String ids go in object arrays,
    as numpy string arrays drop trailing NUL characters. Returns the row
    count.
    """
    n = 0
    with _replacing(path) as fh:
        fh.write(f"# schema={schema} config_hash={cfg_hash}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            cells = [_cells(column) for column in block]
            rows = len(cells[0])
            if rows:
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
                n += rows
    return n


def read_csv(path, expect_schema: str, expect_hash: str | None = None):
    """Read a pipeline CSV. Returns (header_meta, columns, rows-of-strings)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# "):
            raise DataError(f"{path}: missing CSV metadata line")
        meta = dict(kv.split("=", 1) for kv in meta_line[2:].split(" ") if "=" in kv)
        check_schema(meta.get("schema"), meta.get("config_hash"),
                     expect_schema, expect_hash, str(path))
        columns = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return meta, columns, rows


# ---------------------------------------------------------------------------
# JSON documents (reports, models, ...)
# ---------------------------------------------------------------------------

def _encode_special(obj):
    """Wrap non-finite floats; json.dump rejects them under allow_nan=False."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return {"__float__": repr(obj)}
        return obj
    if isinstance(obj, dict):
        return {key: _encode_special(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_special(value) for value in obj]
    return obj


def _decode_special(obj):
    if set(obj) == {"__float__"}:
        return float(obj["__float__"])
    return obj


def write_json(path, schema: str, cfg_hash: str, payload: dict) -> None:
    doc = {"schema": schema, "config_hash": cfg_hash}
    doc.update(payload)
    with _replacing(path) as fh:
        json.dump(_encode_special(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_json(path, expect_schema: str, expect_hash: str | None = None) -> dict:
    """Read a document written by write_json.

    A missing file, text that is not UTF-8 JSON, or a document that is not
    an object raises DataError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=_decode_special)
    except (ValueError, TypeError, RecursionError) as exc:
        raise DataError(f"{path}: unreadable JSON document ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a JSON object")
    check_schema(doc.get("schema"), doc.get("config_hash"),
                 expect_schema, expect_hash, str(path))
    return doc


# ---------------------------------------------------------------------------
# Array archives (.npz with a JSON header)
# ---------------------------------------------------------------------------

def write_npz(path, schema: str, cfg_hash: str, header: dict, arrays: dict) -> None:
    """Write named arrays as an uncompressed .npz archive.

    The archive also holds a ``header`` array: the UTF-8 bytes of a JSON
    object with the schema, the config hash and ``header``'s entries.
    Strings go there rather than into numpy string arrays, which drop
    trailing NUL characters. Equal inputs give equal bytes.
    """
    doc = json.dumps({"schema": schema, "config_hash": cfg_hash, **header})
    with _replacing(path, binary=True) as fh:
        # a file handle, because np.savez appends .npz to a path
        np.savez(fh, header=np.frombuffer(doc.encode(), dtype=np.uint8), **arrays)


def save_table(path, schema: str, cfg_hash: str, table, header: dict | None = None) -> None:
    """Write a table dataclass with write_npz: a field whose metadata holds
    a ``dtype`` as an array, as it is, and any other field, a string table,
    in the JSON header before ``header``'s entries; both in field order."""
    arrays, strings = {}, {}
    for f in fields(table):
        (arrays if "dtype" in f.metadata else strings)[f.name] = getattr(table, f.name)
    write_npz(path, schema, cfg_hash, {**strings, **(header or {})}, arrays)


def load_table(cls, path, schema: str, expect_hash: str | None = None):
    """Read a table of dataclass cls that save_table wrote. Returns
    (header, table).

    Raises DataError naming the file unless the archive is readable,
    carries the schema and expected hash, holds each string table as a
    list of distinct strings, and holds exactly cls's arrays. Each array
    field's metadata gives its ``dtype``, its ``ndim`` (1 if absent) and
    its length ``group``, whose arrays have one length less their
    ``extra`` (0 if absent).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    try:
        with zipfile.ZipFile(path) as archive:
            arrays = {
                name.removesuffix(".npy"):
                    np.lib.format.read_array(archive.open(name), allow_pickle=False)
                for name in archive.namelist()
            }
        header = json.loads(arrays.pop("header").tobytes())
    # zipfile raises RuntimeError for an encrypted member, and
    # NotImplementedError, a RuntimeError, for an unknown compression method
    except (zipfile.BadZipFile, ValueError, EOFError, KeyError, RuntimeError) as exc:
        raise DataError(f"{path}: unreadable array archive ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: archive header is not a JSON object")
    check_schema(header.get("schema"), header.get("config_hash"), schema, expect_hash, str(path))
    spec = {f.name: f.metadata for f in fields(cls) if "dtype" in f.metadata}
    strings = {f.name: header.get(f.name) for f in fields(cls) if f.name not in spec}
    for name, names in strings.items():
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise DataError(f"{path}: {name} is not a list of strings")
        if len(set(names)) < len(names):
            raise DataError(f"{path}: {name} repeats a string")
    if sorted(arrays) != sorted(spec):
        raise DataError(f"{path}: arrays {sorted(arrays)}, expected {sorted(spec)}")
    lengths = {}
    for name, meta in spec.items():
        array, dtype, ndim = arrays[name], np.dtype(meta["dtype"]), meta.get("ndim", 1)
        if array.dtype != dtype or array.ndim != ndim:
            raise DataError(f"{path}: {name} is not a {ndim}-d {dtype} array")
        n = len(array) - meta.get("extra", 0)
        if lengths.setdefault(meta["group"], n) != n:
            raise DataError(f"{path}: array lengths disagree")
    return header, cls(**strings, **arrays)
