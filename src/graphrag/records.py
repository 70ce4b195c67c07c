"""The JSON-lines record format shared by the text artifacts and input files.

A JSON-lines index artifact is UTF-8 text holding one compact JSON object
per line, keys sorted, with no blank lines. Its first record is a ``meta``
record whose ``format_version`` is ``FORMAT_VERSION``, the version of the
whole index format, which the manifest also carries. Each record after it
holds parallel columns of as many rows as the meta counts, and
``read_columns``, the one reader of artifact records, checks them in bulk.

Input files (a corpus or a benchmark) are either one JSON array or JSON
lines, where blank lines are skipped and a single line is a valid file.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain, islice
from operator import lt
from pathlib import Path
from typing import Callable, Iterable

from .errors import GraphFormatError

FORMAT_VERSION = 5

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def dump_jsonl(records: Iterable[dict]) -> bytes:
    """One compact, key-sorted JSON line per record."""
    return "".join(_encode(record) + "\n" for record in records).encode("utf-8")


def _parse_lines(text: str, source: object, error: type[Exception], *, artifact: bool) -> list:
    """Each line's JSON value, raising ``error`` naming ``source:lineno``.
    An artifact line must hold an object and may not be blank; an input file
    skips blank lines.

    Lines end at a line feed only: the writer leaves U+0085 and U+2028
    unescaped inside strings, where ``str.splitlines`` would break a record
    apart.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            if artifact:
                raise error(f"{source}:{lineno}: blank line")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{source}:{lineno}: unparseable line ({exc.msg})") from exc
        if artifact and not isinstance(record, dict):
            raise error(f"{source}:{lineno}: record is not an object")
        records.append(record)
    return records


# -- column checks: each takes a whole column and holds exactly when it holds
# for each element alone, so a failed check can point at the first bad row.


def _of_type(kind: type) -> Callable[[Iterable], bool]:
    """A column check: every element is exactly a ``kind`` (no bool is an int)."""
    return lambda column: set(map(type, column)) <= {kind}


ints, strs, floats, lists, dicts = map(_of_type, (int, str, float, list, dict))


def lists_of(check: Callable[[Iterable], bool]) -> Callable[[list], bool]:
    """A column check: every element is a list, and their elements taken
    together pass ``check``."""
    return lambda column: lists(column) and check(chain.from_iterable(column))


str_lists = lists_of(strs)


def ascending(values: list) -> bool:
    return all(map(lt, values, islice(values, 1, None)))


def meta_int(meta: dict, key: str, name: str) -> int:
    """Field ``key`` of artifact ``name``'s meta record, which must be a
    non-negative integer."""
    value = meta.get(key)
    if type(value) is not int or value < 0:
        raise GraphFormatError(f"{name}:1: meta {key} must be a non-negative integer, got {value!r}")
    return value


def read_columns(data: bytes, name: str, sections: tuple) -> tuple[dict, list[list[list]]]:
    """The meta record of artifact ``name`` (``data``) and the columns of
    each of ``sections``, failing closed with a ``GraphFormatError`` naming
    the file and, past the meta, its line and column.

    A section is (record kind, the meta field counting its rows, its
    columns), and a column is (key, check over the whole column, what an
    element must be). Section i is the record on line i + 2; each of its
    columns must be a list of the meta count's elements that passes the
    column's check, and no record may follow the last section.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    meta, *records = _parse_lines(text, name, GraphFormatError, artifact=True) or [None]
    if meta is None or meta.get("kind") != "meta":
        raise GraphFormatError(f"{name}: missing meta record")
    if meta.get("format_version") != FORMAT_VERSION:
        raise GraphFormatError(f"{name}: unsupported format version {meta.get('format_version')!r}")
    counts = [meta_int(meta, count_key, name) for _, count_key, _ in sections]
    tables = []
    for i, (kind, count_key, columns) in enumerate(sections):
        where, count = f"{name}:{i + 2}", counts[i]
        record = records[i] if i < len(records) else None
        if record is None or record.get("kind") != kind:
            found = "no record" if record is None else f"record kind {record.get('kind')!r}"
            raise GraphFormatError(f"{where}: expected the {kind} record, found {found}")
        table = []
        for key, check, what in columns:
            column = record.get(key)
            if not isinstance(column, list):
                raise GraphFormatError(f"{where}: column {key!r} is {'missing' if column is None else 'not a list'}")
            if len(column) != count:
                raise GraphFormatError(
                    f"{where}: column {key!r} has {len(column)} elements, the meta {count_key} is {count}"
                )
            if not check(column):
                row = next(row for row, value in enumerate(column) if not check([value]))
                raise GraphFormatError(
                    f"{where}: column {key!r} holds {reprlib.repr(column[row])} in row {row}, not {what}"
                )
            table.append(column)
        tables.append(table)
    if len(records) > len(sections):
        raise GraphFormatError(
            f"{name}:{len(sections) + 2}: unexpected record kind {records[len(sections)].get('kind')!r} "
            f"after the {sections[-1][0]} record"
        )
    return meta, tables


def read_input(path: str | Path, error: type[Exception]) -> list:
    """The records of a JSON-array or JSON-lines input file; any read or
    parse failure raises ``error`` naming the file (and line, when known)."""
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{exc.lineno}: unparseable JSON ({exc.msg})") from exc
    return _parse_lines(text, path, error, artifact=False)
