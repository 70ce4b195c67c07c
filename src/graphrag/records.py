"""The JSON-lines record format shared by the text artifacts and input files.

A JSON-lines index artifact is UTF-8 text holding one compact JSON object
per line, keys sorted, with no blank lines. Its first record is a ``meta``
record whose ``format_version`` is ``FORMAT_VERSION``, the version of the
whole index format, which the manifest also carries. Because no line is
blank, the n-th record after the meta sits on line n + 1.

Input files (a corpus or a benchmark) are either one JSON array or JSON
lines, where blank lines are skipped and a single line is a valid file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .errors import GraphFormatError

FORMAT_VERSION = 4

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def dump_jsonl(records: Iterable[dict]) -> bytes:
    """One compact, key-sorted JSON line per record."""
    return "".join(_encode(record) + "\n" for record in records).encode("utf-8")


def _parse_lines(text: str, source: object, error: type[Exception], *, artifact: bool) -> Iterator:
    """Yield each line's JSON value, raising ``error`` naming ``source:lineno``.
    An artifact line must hold an object and may not be blank; an input file
    skips blank lines.

    Lines end at a line feed only: the writer leaves U+0085 and U+2028
    unescaped inside strings, where ``str.splitlines`` would break a record
    apart.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
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
        yield record


def read_artifact(data: bytes, name: str) -> tuple[dict, Iterator[dict]]:
    """Check the meta record of artifact ``name`` and return it with an
    iterator over the records after it, parsed as they are read. Every
    format error raises ``GraphFormatError`` naming the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    records = _parse_lines(text, name, GraphFormatError, artifact=True)
    meta = next(records, None)
    if meta is None or meta.get("kind") != "meta":
        raise GraphFormatError(f"{name}: missing meta record")
    if meta.get("format_version") != FORMAT_VERSION:
        raise GraphFormatError(f"{name}: unsupported format version {meta.get('format_version')!r}")
    return meta, records


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
    return list(_parse_lines(text, path, error, artifact=False))
