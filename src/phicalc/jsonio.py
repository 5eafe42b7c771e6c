"""Deterministic JSON and CSV output helpers.

All emitted JSON uses sorted keys and Python's shortest-round-trip float
representation, so identical inputs produce byte-identical files and every
emitted document re-parses to the identical value.  Exact fractions are
written as "p/q" strings by the documents themselves
(:func:`phicalc.indexsets.number_to_json`).
"""

from __future__ import annotations

import csv
import io
import json
import sys

__all__ = ["dumps", "write_json", "write_csv", "load_json", "JsonInputError"]


class JsonInputError(ValueError):
    """Malformed JSON input, with a line/column diagnostic."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(obj, path: str | None) -> str:
    text = dumps(obj)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_csv(rows: list, fieldnames: list, path: str | None) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
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
