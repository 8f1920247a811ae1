"""Seed derivation, content hashing, the toolkit's file I/O, and its one
worker pool.

All randomness in the toolkit flows from one master seed through
``derive_seed``; no function reads ambient entropy.

Every file the toolkit writes goes through ``write_file``, the only code
that writes a file or makes a directory; delimited tables are formatted
by ``table_text`` and parsed by ``read_table``.

``parallel_map`` is ``[fn(item) for item in items]`` over forked worker
processes; its docstring states the schedule. Results come back in input
order and the exception raised is the loop's, so a deterministic ``fn``
gives byte-identical output with any worker count.

Before it forks, ``parallel_map`` moves every object the process tracks
into the collector's permanent generation (``gc.freeze``), the pattern the
``gc`` documentation gives for fork without exec. Why: a collection in a
child then no longer scans, and so copies, the pages of the parent's
objects, and the process skips the exit-time traversal of the objects its
imports made (on a 2-vCPU VM, a process that had imported
``spoofcm.cli`` and ``spoofcm.experiment`` took 0.020 s to exit, 0.005 s
after ``gc.freeze()``; with scipy loaded as well, 0.115 s and 0.016 s). The
cost: cyclic garbage alive at a fork is never reclaimed.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import pickle
import signal
import sys
import threading
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


def write_file(path: str | Path, data) -> None:
    """Write ``data`` to ``path``, creating its directory: text as UTF-8,
    bytes, or an iterable of bytes-like chunks (a C-contiguous array is its
    raw bytes) one after another, so a large file needs no joined copy.

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
            if isinstance(data, (str, bytes)):
                tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            else:
                with tmp.open("wb") as f:
                    f.writelines(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def file_size(path: Path) -> int:
    """Byte size of ``path``, a ``parallel_map`` weight; 0 when it cannot be
    read (the reader of the file reports that)."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def parallel_map(fn, items, weights=None) -> list:
    """``[fn(item) for item in items]``, spread over forked worker processes.

    The worker count is the number of CPUs this process may run on (one
    where the platform cannot say), capped at the number of items. With one
    worker, or while another thread runs (a forked copy of a running
    thread's locks can deadlock), it is that loop in this process.
    Otherwise the items queue heaviest first by ``weights`` (default: all
    equal; ties in input order), and each worker, this process among them,
    takes the next one whenever it is free, so a slow worker runs fewer.
    This process takes the first, then forks one child per other worker,
    here, after every import: children share its loaded pages and read
    ``fn`` and the items from its memory, and only results are pickled
    back. Results come back in input order. Right before the forks, every
    object this process tracks is frozen (``gc.freeze``, never undone):
    cyclic garbage alive at a fork is not reclaimed before exit.

    After its first exception a worker runs only items earlier in input
    order. The exception of the earliest failing item is raised, with its
    type and message: the one the loop would raise. Children ignore SIGINT;
    an interrupt of this process kills them. Every child is reaped before
    this returns or raises, and a child whose parent has gone exits before
    its next item.
    """
    items = list(items)
    weights = [1] * len(items) if weights is None else list(weights)
    if len(weights) != len(items):
        raise ValueError(f"{len(weights)} weights for {len(items)} items")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, len(items))
    if n <= 1 or threading.active_count() > 1:
        return [fn(item) for item in items]
    order = sorted(range(len(items)), key=lambda i: -weights[i])
    size = -(-len(order) // 1024)  # at most 1024 runs: their 4-byte tokens fit the 4 KiB any Linux pipe holds
    runs = [order[p : p + size] for p in range(0, len(order), size)]
    gc.freeze()  # no gc.collect() first: that is a full traversal of every tracked object, per call
    sys.stdout.flush()  # else a child would write this process's buffered text again
    sys.stderr.flush()
    parent, children = os.getpid(), {}  # pid -> read end of its result pipe
    queue, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as tokens:  # every run but 0, this process's; closed before the forks
            tokens.write(b"".join(k.to_bytes(4, "little") for k in range(1, len(runs))))
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # till each child is known
        try:
            for _ in range(n - 1):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, runs, queue, parent, write_end,
                           [read_end, *(p.fileno() for p in children.values())])
                os.close(write_end)
                children[pid] = os.fdopen(read_end, "rb")
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = [_run_queue(fn, items, runs, queue, [0])]
        for pid, pipe in list(children.items()):
            data = pipe.read()
            pipe.close()
            del children[pid]
            status = os.waitpid(pid, 0)[1]
            if not data:
                raise ChildProcessError(f"worker process {pid} ended without a result "
                                        f"(exit status {os.waitstatus_to_exitcode(status)})")
            outcomes.append(pickle.loads(data))  # bytes its own child wrote
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results, failures = [None] * len(items), []
    for done, failure in outcomes:
        for i, result in done:
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _run_queue(fn, items, runs, queue: int, first: list[int], parent: int | None = None):
    """``(done, failure)`` of ``fn`` over the items of the runs ``first``
    names, then of each run taken from ``queue`` till it is empty: ``done``
    lists ``(index, result)``, ``failure`` is the ``(index, exception)`` of
    the earliest item that failed, or None, and after one only items of
    lower index run. In a child (``parent`` given), an interrupt raised by
    ``fn`` is a failure too, and the child exits once its parent has gone."""
    caught = Exception if parent is None else BaseException
    done, failure = [], None
    taken = iter(lambda: int.from_bytes(os.read(queue, 4), "little"), 0)  # run 0 is never queued: b"" reads as 0
    for run in itertools.chain(first, taken):
        for i in runs[run]:
            if failure is not None and i > failure[0]:
                continue
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            try:
                done.append((i, fn(items[i])))
            except caught as exc:
                failure = (i, exc)
    return done, failure


def _child(fn, items, runs, queue: int, parent: int, write_end: int, inherited: list[int]):
    """Run the items this child takes from ``queue``, send its outcome to the
    parent through ``write_end`` and exit; never returns into the caller's code."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # also drops one sent before this
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in inherited:
            os.close(fd)
        data = pickle.dumps(_run_queue(fn, items, runs, queue, [], parent))
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
