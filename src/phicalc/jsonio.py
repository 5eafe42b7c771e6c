"""Deterministic JSON and CSV output helpers.

All emitted JSON uses sorted keys and Python's shortest-round-trip float
representation, so identical inputs produce byte-identical files and every
emitted document re-parses to the identical value.  Exact fractions are
written as "p/q" strings by the documents themselves
(:func:`phicalc.indexsets.number_to_json`).  Every input file is read by
:func:`load_document`; a document kind's ``from_json`` alone knows its shape.
"""

from __future__ import annotations

import csv
import io
import json
import sys

__all__ = ["dumps", "write_json", "write_csv", "load_json", "load_document", "json_object",
           "json_list", "JsonInputError"]


class JsonInputError(ValueError):
    """Refused input: malformed JSON (with line and column), an invalid document, a bad argument."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(obj, path: str | None) -> str:
    return _write(dumps(obj), path)


def write_csv(rows: list, fieldnames: list, path: str | None) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return _write(buf.getvalue(), path)


def _write(text: str, path: str | None) -> str:
    """Write ``text`` to ``path``, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise JsonInputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise JsonInputError(f"{path}: {exc.strerror or exc}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, bad encoding, huge integer
        raise JsonInputError(f"{path}: unreadable JSON: {exc}") from exc


def load_document(path: str, parse, what: str):
    """``parse(load_json(path))``; a refusal by ``parse``, arithmetic ones ("1/0",
    an integer too large for a float) included, is a :class:`JsonInputError` naming
    the file.  ``AttributeError`` is not caught: parsers check types first."""
    data = load_json(path)
    try:
        return parse(data)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise JsonInputError(f"{path}: not a valid {what} document: {exc}") from exc


def json_object(data, fields: frozenset, what: str) -> dict:
    """``data``, checked to be a JSON object holding no key outside ``fields``."""
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(data).__name__}")
    if not data.keys() <= fields:
        raise ValueError(f"unknown {what} fields {sorted(map(str, data.keys() - fields))}")
    return data


def json_list(value, what: str) -> list:
    """``value``, checked to be a JSON list."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value
