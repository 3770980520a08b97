"""Line-delimited JSON, the typed reader of JSON values, and atomic-write helpers."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Callable, Iterable, Iterator, Union, get_args, get_origin, get_type_hints

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


def read_object(cls, raw, key: str = "", **given):
    """A `cls` (a dataclass, or a type `_reader` knows) read from the JSON value
    `raw` under `key`, a JSON key or a context such as `record 'P01':`.

    Nothing is converted: a value of the wrong JSON type is an `InputError`
    naming its full key.  A field's key is its name or its `JSON_KEYS` entry
    (`section.key` is `key` inside the object `section`; None: not read).  A
    key left out or null, an empty path or list keeps the `given` value, else
    the default; a field with neither is an `InputError` naming its key."""
    if not is_dataclass(cls):
        return _reader(cls)(raw, key)
    raw = _object(raw, key)
    for name, section, part, json_key, as_is, read, required in _readers(cls):
        value = (_object(raw.get(section), _join(key, section)) if section else raw).get(part)
        if type(value) is as_is:
            given[name] = value
        elif value is not None and (value := read(value, _join(key, json_key))) not in (None, ()):
            given[name] = value
        elif required and name not in given:
            raise InputError(f"{_join(key, json_key)}: missing")
    return cls(**given)


@functools.cache
def _readers(cls) -> tuple[tuple[str, str, str, str, type | None, Callable, bool], ...]:
    """(name, section or "", key in it, JSON key, `_AS_IS` type, reader, has no default)
    of each field read."""
    hints, keys = get_type_hints(cls), getattr(cls, "JSON_KEYS", {})
    readers = []
    for f in fields(cls):
        json_key, read = keys.get(f.name, f.name), _reader(hints[f.name])
        if json_key is not None:
            section, _, part = json_key.rpartition(".")
            required = f.default is MISSING and f.default_factory is MISSING
            readers.append((f.name, section, part, json_key, _AS_IS.get(read), read, required))
    return tuple(readers)


@functools.cache
def _reader(tp) -> Callable:
    """The function `(value, key) -> value` reading a JSON value of type `tp`:
    one of `_SCALARS`, a dataclass, `X | None` (read as `X`), `tuple[T, ...]`
    or `tuple[T1, T2]` (a list; its items are read under its key), or
    `Mapping[str, T]` or `dict[str, T]` (an object; values under their keys)."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if is_dataclass(tp):
        return functools.partial(read_object, tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        return _reader(args[args[0] is type(None)])
    if origin is tuple and args[-1] is Ellipsis:
        return functools.partial(_list, _reader(args[0]), _AS_IS.get(_reader(args[0])))
    if origin is tuple:
        return functools.partial(_fixed_list, tuple(map(_reader, args)))
    if origin in (dict, Mapping) and args[0] is str:
        return functools.partial(_mapping, _reader(args[1]), _AS_IS.get(_reader(args[1])))
    raise TypeError(f"no JSON reader for {tp!r}")


def _join(key: str, part: str) -> str:
    """The key of `part` inside the value found under `key`."""
    return f"{key}{' ' if key.endswith(':') else '.'}{part}" if key else part


def _expected(key: str, what: str, value) -> InputError:
    return InputError(f"{key.removesuffix(':')}: expected {what}, got {value!r}")


def _object(value, key: str) -> dict:
    """The JSON object `value`; null is an empty one."""
    if value is None or isinstance(value, dict):
        return value or {}
    raise _expected(key, "an object", value)


def _scalar(json_type: type, what: str) -> Callable:
    def read(value, key: str):
        if type(value) is not json_type:
            raise _expected(key, what, value)
        return value
    return read


def _float(value, key: str) -> float:
    """A JSON integer or fraction, as a float."""
    if type(value) not in (int, float):
        raise _expected(key, "a number", value)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise _expected(key, "a number in the float range", value) from None


# A bare `dict` is any JSON object, as it is, and an empty path is None.
_SCALARS = {bool: _scalar(bool, "true or false"), int: _scalar(int, "an integer"),
            str: _scalar(str, "a string"), float: _float, dict: _object,
            Path: lambda value, key: Path(value) if _SCALARS[str](value, key) else None}
# The JSON type each scalar reader returns unchanged, so a value of that type
# is taken without calling it.
_AS_IS = {_SCALARS[tp]: tp for tp in (bool, int, str, float)}


def _list(read: Callable, as_is: type | None, value, key: str) -> tuple:
    if not isinstance(value, list):
        raise _expected(key, "a list", value)
    return tuple([item if type(item) is as_is else read(item, key) for item in value])


def _fixed_list(reads: tuple[Callable, ...], value, key: str) -> tuple:
    if not isinstance(value, list) or len(value) != len(reads):
        raise _expected(key, f"a list of {len(reads)} values", value)
    return tuple([read(item, key) for read, item in zip(reads, value)])


def _mapping(read: Callable, as_is: type | None, value, key: str) -> dict:
    return {name: item if type(item) is as_is else read(item, _join(key, name))
            for name, item in _object(value, key).items()}


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _write_atomically(path: str | Path, chunks: Iterable[str] | Iterable[bytes],
                      binary: bool = False) -> None:
    """Write `chunks` (UTF-8 text, or bytes when `binary`) to a temp file
    beside `path`, then rename it over `path`.

    Chunks are written as `chunks` yields them.  If a write, the rename or
    `chunks` itself raises, the temp file is deleted and `path` is left as
    it was, so an interrupted write never truncates an output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")) as handle:
            handle.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` via temp file + rename so interrupts never truncate outputs."""
    _write_atomically(path, (text,))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one `dumps_stable` line per row, each as `rows` yields it; returns the row count."""
    count = 0

    def lines() -> Iterator[str]:
        nonlocal count
        for row in rows:
            count += 1
            yield dumps_stable(row) + "\n"

    _write_atomically(path, lines())
    return count


def copy_lines(source: str | Path, path: str | Path) -> int:
    """Copy file `source` over `path` as `_write_atomically` writes; returns its line count.

    A missing `source` raises `FileNotFoundError` before `path` is touched.
    """
    lines = 0
    with open(source, "rb") as handle:

        def blocks() -> Iterator[bytes]:
            nonlocal lines
            for block in iter(lambda: handle.read(65536), b""):
                lines += block.count(b"\n")
                yield block

        _write_atomically(path, blocks(), binary=True)
    return lines


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
