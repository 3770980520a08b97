"""Line-delimited JSON, the typed reader of JSON values, and atomic-write helpers."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
import weakref
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


def unread_keys(cls, raw: dict | None, key: str = "") -> list[str]:
    """The full key of every entry of the JSON object `raw` that
    `read_object(cls, raw, key)` does not read: at its top level, in its
    sections, and inside each value read as a dataclass, also as a
    `Mapping`'s value.  `raw` must be a value `read_object` reads."""
    raw, hints = raw or {}, get_type_hints(cls)
    read: dict[str, set[str]] = {"": set()}
    inner: list[str] = []
    for name, section, part, json_key, *_ in _readers(cls):
        read[""].add(section or part)
        read.setdefault(section, set()).add(part)
        value = (raw.get(section) or {}).get(part) if section else raw.get(part)
        tp, args = hints[name], get_args(hints[name])
        if is_dataclass(tp):
            inner += unread_keys(tp, value, _join(key, json_key))
        elif get_origin(tp) in (dict, Mapping) and is_dataclass(args[1]):
            for name_in, item in (value or {}).items():
                inner += unread_keys(args[1], item, _join(_join(key, json_key), name_in))
    own = [_join(_join(key, section) if section else key, part)
           for section, parts in read.items()
           for part in ((raw.get(section) or {}) if section else raw) if part not in parts]
    return own + inner


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


def _write_atomically(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 text `chunks` to a temp file beside `path`, then
    rename it over `path`.

    Chunks are written as `chunks` yields them.  If a write, the rename or
    `chunks` itself raises, the temp file is deleted and `path` is left as
    it was, so an interrupted write never truncates an output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` via temp file + rename so interrupts never truncate outputs."""
    _write_atomically(path, (text,))


def write_lines(path: str | Path, texts: Iterable[str]) -> int:
    """Write each of `texts`, a run of whole lines, as `texts` yields it; returns the line count."""
    count = 0

    def counted() -> Iterator[str]:
        nonlocal count
        for text in texts:
            count += text.count("\n")
            yield text

    _write_atomically(path, counted())
    return count


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one `dumps_stable` line per row, each as `rows` yields it; returns the row count."""
    return write_lines(path, (dumps_stable(row) + "\n" for row in rows))


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class AppendLog:
    """Key -> text, kept in one append-only log file at `path`.

    The log holds one `json.dumps([key, text])` line per put (ASCII-escaped,
    so any text round-trips).  A put is one `O_APPEND` write and creates no
    file; the line is in the log when `put` returns.  Memory holds only each
    key's `(offset, length)`, built on first use; a miss first indexes the
    complete lines appended since the last scan, so logs sharing the file
    see each other's puts.  A torn last line is never served, and a key's
    last line wins.  Keys hold no `"` or `\\`.
    """

    SCAN_BLOCK = 1 << 20

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._index: dict[str, tuple[int, int]] = {}
        self._scanned = 0  # bytes of the log indexed so far

    def _log(self) -> int:
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            weakref.finalize(self, os.close, self._fd)
        return self._fd

    def _scan(self, fd: int) -> None:
        """Index the complete lines appended since the last scan.

        The log is read in blocks of `SCAN_BLOCK` bytes; a line that does
        not end in its block is read again from its start with the next
        one, which doubles while it holds no line end.  So memory stays at
        a block, or twice the longest line, whatever the log's size.
        """
        size = os.fstat(fd).st_size
        offset, block_size = self._scanned, self.SCAN_BLOCK
        while offset < size:
            data = os.pread(fd, min(block_size, size - offset), offset)
            pos = 0
            while (end := data.find(b"\n", pos)) != -1:
                if data.startswith(b'["', pos):
                    key_end = data.find(b'"', pos + 2, end)
                    if key_end != -1:
                        self._index[data[pos + 2:key_end].decode("latin-1")] = (
                            offset + pos, end + 1 - pos)
                pos = end + 1
            if not pos:
                if offset + len(data) >= size:
                    break  # a torn last line
                block_size *= 2
            offset += pos
        self._scanned = offset

    def get(self, key: str) -> str | None:
        with self._lock:
            fd = self._log()
            entry = self._index.get(key)
            if entry is None:
                self._scan(fd)
                entry = self._index.get(key)
                if entry is None:
                    return None
            offset, length = entry
            line = os.pread(fd, length, offset)
        try:
            stored_key, text = json.loads(line)  # every indexed line starts with '["'
        except ValueError:  # a torn line, or one that is not a [key, text] pair
            return None
        return text if stored_key == key and isinstance(text, str) else None

    def put(self, key: str, text: str) -> None:
        line = (json.dumps([key, text]) + "\n").encode("ascii")
        with self._lock:
            fd = self._log()
            size = os.fstat(fd).st_size
            torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
            data = b"\n" + line if torn else line
            if os.write(fd, data) != len(data):
                return  # a short write leaves a torn line, which is never served
            end = os.lseek(fd, 0, os.SEEK_CUR)
            self._index[key] = (end - len(line), len(line))
            if end - len(data) == self._scanned:
                self._scanned = end
