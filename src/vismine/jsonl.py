"""Line-delimited JSON and atomic-write helpers."""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InputError

# A `\u` escape of a UTF-16 surrogate, the only JSON text that decodes to
# a string no UTF-8 file can hold (when the surrogate is unpaired).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as handle:
        try:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise InputError(f"{path}:{line_number}: not a JSON object")
                if "\\" in line and _SURROGATE_ESCAPE.search(line):
                    # Only a `\uD800`-`\uDFFF` escape can decode to a lone
                    # surrogate, which no UTF-8 output file can hold.  Most
                    # lines hold no backslash, and finding one character is
                    # several times faster than the pattern search.
                    try:
                        json.dumps(record, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise InputError(
                            f"{path}:{line_number}: unpaired surrogate escape in a string"
                        ) from exc
                yield record
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from exc


def _undecodable_line(path: str | Path) -> int:
    """Line of a file's first byte that is not UTF-8.

    A text file is decoded in blocks, so the line being read when decoding
    fails can be an earlier one.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via temp file + rename so interrupts never truncate outputs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    lines = [dumps_stable(row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
