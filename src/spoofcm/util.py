"""Seed derivation, content hashing, and the toolkit's file I/O.

All randomness in the toolkit flows from one master seed through
``derive_seed``; no function reads ambient entropy.

Every file the toolkit writes goes through ``write_file``, the only code
that writes a file or makes a directory; delimited tables are formatted
by ``table_text`` and parsed by ``read_table``.
"""
from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .errors import DataError, SpoofcmError


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit child seed from a master seed and a purpose path.

    Stable across runs and platforms: the parts are joined as text and
    hashed with SHA-256.
    """
    key = "\x1f".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_utf8(path: Path, what: str, decode_error: type[SpoofcmError] = DataError) -> str:
    """The text of a UTF-8 file. An unreadable file raises DataError naming
    ``what`` and the path; bytes that are not UTF-8 raise ``decode_error``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise decode_error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def read_table(path: Path, what: str, header: str | None, n_fields: int, sep: str):
    """Yield (line number, fields) for each non-blank line of a delimited
    UTF-8 file after its ``header`` line (``None``: the file has none). A
    wrong header or field count raises DataError naming the path and line."""
    lines = read_utf8(path, what).splitlines()
    if header is not None and lines[:1] != [header]:
        raise DataError(f"{path}: expected header {header!r}")
    start = int(header is not None)
    for ln, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(sep)
        if len(fields) != n_fields:
            raise DataError(f"{path}:{ln}: expected {n_fields} fields, got {len(fields)}")
        yield ln, fields


def table_text(rows, sep: str = ",") -> str:
    """Rows as delimited text, one line each, every field written with
    ``str`` (for a Python float, the same text as ``repr``)."""
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path``, creating its directory.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a killed process leaves the old file or the new one, never a part of
    one (no fsync: the threat is a killed process, not a power cut). An
    OSError raises DataError naming the path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
