"""Seed derivation, content hashing and text-file reading.

All randomness in the toolkit flows from one master seed through
``derive_seed``; no function reads ambient entropy.
"""
from __future__ import annotations

import hashlib
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
