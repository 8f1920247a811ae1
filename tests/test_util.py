import ast
import errno
import gc
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spoofcm
from spoofcm.errors import DataError, NumericalError
from spoofcm.util import parallel_map, table_text, write_file

PACKAGE = Path(spoofcm.__file__).parent
WRITE_METHODS = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _called(node: ast.AST) -> str:
    func = node.func if isinstance(node, ast.Call) else None
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _write_calls(tree: ast.AST):
    """(line, call) for each call that writes a file or makes a directory.
    An ``open`` of a name bound to an ``io.BytesIO`` writes to memory."""
    in_memory = {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and _called(node.value) == "BytesIO"
        for target in node.targets if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        name = _called(node)
        if name in WRITE_METHODS:
            yield node.lineno, name
        elif name == "open" and not (node.args and getattr(node.args[0], "id", None) in in_memory):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
            )
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node.lineno, "open in a write mode"


def test_only_util_writes_files():
    """util.write_file is the one place that decides how a file reaches disk."""
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "util.py"
        for line, what in _write_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_guard_sees_each_kind_of_write():
    source = (
        "p.write_text('x')\np.write_bytes(b'x')\np.mkdir()\nos.makedirs(d)\n"
        "open(p, 'w')\nwave.open(p, mode='wb')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\n"
        "buf = io.BytesIO()\nwave.open(buf, 'wb')\nwave.open(p, 'wb')\n"
    )
    assert [line for line, _ in _write_calls(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 7, 12]


def _wave_opens(tree: ast.AST):
    """Lines that call ``wave.open`` or import a name from ``wave``."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.ImportFrom) and node.module == "wave") or (
            isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", "") == "wave"
        ):
            yield node.lineno


def test_only_audio_io_opens_wav_files():
    """audio_io maps every failure of a WAV read to DataError, so no other module opens one."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "audio_io.py"
        for line in _wave_opens(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_wave_guard_sees_each_kind_of_open():
    source = "wave.open(p)\nwave.open(p, 'rb')\nopen(p)\nf.open()\nfrom wave import open as o\nimport wave\n"
    assert sorted(_wave_opens(ast.parse(source))) == [1, 2, 5]


def test_write_file_makes_parents_and_writes_text_as_utf8(tmp_path):
    path = tmp_path / "a" / "b" / "t.txt"
    write_file(path, "é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")
    assert sorted(p.name for p in path.parent.iterdir()) == ["t.txt"]


@pytest.mark.parametrize(
    "failure, raised",
    [(OSError(errno.ENOSPC, "No space left on device"), DataError), (KeyboardInterrupt(), KeyboardInterrupt)],
    ids=["disk-full", "interrupted"],
)
def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch, failure, raised):
    path = tmp_path / "report.csv"
    write_file(path, "old\n")
    real = Path.write_bytes

    def fail_partway(self, data):
        real(self, data[: len(data) // 2])
        raise failure

    monkeypatch.setattr(Path, "write_bytes", fail_partway)
    with pytest.raises(raised):
        write_file(path, "new contents\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_chunks_are_written_in_order_and_a_failed_chunk_keeps_the_old_file(tmp_path):
    path = tmp_path / "rows.bin"
    rows = np.arange(6, dtype="<f4").reshape(3, 2)
    write_file(path, [b"head\n", rows[:1], rows[1:]])
    assert path.read_bytes() == b"head\n" + rows.tobytes()

    def failing():
        yield b"new head\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_file(path, failing())
    assert path.read_bytes() == b"head\n" + rows.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["rows.bin"]


def test_write_under_a_file_is_a_data_error(tmp_path):
    (tmp_path / "afile").touch()
    with pytest.raises(DataError, match="cannot write .*afile"):
        write_file(tmp_path / "afile" / "x.txt", b"x")


def test_table_text_writes_fields_with_str():
    assert table_text([("a", 0.1, 3, 1e-20)], sep="\t") == "a\t0.1\t3\t1e-20\n"
    assert table_text([]) == ""


def _square_and_pid(x):
    return x * x, os.getpid()


def test_parallel_map_returns_results_in_input_order_from_forked_workers(cpus):
    cpus(2)

    def fn(x):
        time.sleep(0.02)  # this process could take every instant item before its child starts
        return _square_and_pid(x)

    out = parallel_map(fn, range(9), weights=[1, 5, 2, 8, 3, 3, 0, 7, 1])
    assert [r for r, _ in out] == [x * x for x in range(9)]
    assert os.getpid() in {pid for _, pid in out} and len({pid for _, pid in out}) == 2


def test_parallel_map_runs_the_heaviest_item_in_this_process(cpus):
    cpus(2)
    assert parallel_map(_square_and_pid, range(9), weights=[1, 5, 2, 8, 3, 3, 0, 7, 1])[3][1] == os.getpid()
    assert parallel_map(_square_and_pid, range(9))[0][1] == os.getpid()  # equal weights: item 0


def test_a_slow_worker_takes_fewer_items(cpus):
    cpus(2)
    parent = os.getpid()

    def fn(x):
        time.sleep(0.03 if os.getpid() == parent else 0.003)
        return os.getpid()

    # shares dealt before the fork would give each worker 20
    assert sum(pid != parent for pid in parallel_map(fn, range(40))) > 20


def _stalled(signum, frame):
    raise TimeoutError("parallel_map stalled")


def test_a_map_longer_than_the_queue_forks_one_child_per_other_cpu(cpus, forks):
    cpus(2)
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.alarm(30)  # a stall fails the test instead of hanging the suite
    try:
        out = parallel_map(abs, range(-20000, 0))  # 80 kB of 4-byte tokens, more than a default pipe holds
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert out == list(range(20000, 0, -1)) and len(forks) == 1


def test_parallel_map_on_one_cpu_is_a_loop_in_this_process(cpus, monkeypatch):
    cpus(1)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_map(_square_and_pid, range(4)) == [(x * x, os.getpid()) for x in range(4)]


def test_parallel_map_freezes_the_collector_only_when_it_forks(cpus):
    frozen = gc.get_freeze_count()
    cpus(1)
    parallel_map(_square_and_pid, range(4))
    assert gc.get_freeze_count() == frozen
    cpus(2)
    parallel_map(_square_and_pid, range(4))
    assert gc.get_freeze_count() > frozen


def _failing_at(failing, exc_type, slow=None):
    def fn(i):
        if i == slow:
            time.sleep(0.5)
        if i in failing:
            raise exc_type(f"item {i}")
        return i
    return fn


# On 2 CPUs this process holds item 0, the heaviest, for 0.5 s; the forked
# worker meanwhile takes item 7, which fails, then 1 to 6, of which 3 fails.
@pytest.mark.parametrize("exc_type", [DataError, NumericalError, KeyboardInterrupt])
def test_parallel_map_raises_a_worker_exception_of_the_earliest_failing_item(cpus, exc_type):
    cpus(2)
    with pytest.raises(exc_type, match=r"^item 3$"):
        parallel_map(_failing_at({3, 7}, exc_type, slow=0), range(8), weights=[9, 0, 0, 0, 0, 0, 0, 1])


# Items 3, 5 and 7 fail. This process takes the heaviest item first; a slow
# item keeps the one who took it busy for 0.5 s while the other takes the
# next items. A worker that has failed still runs the lower items it takes.
@pytest.mark.parametrize("weights, slow", [
    (list(range(8)), 7),  # 7 fails here, late; the worker takes 6 to 0 and fails at 5, then at 3
    (list(range(8)), 6),  # 7 fails here, then 5 and 3, while the worker holds 6
    ([0, 0, 0, 9, 0, 0, 0, 0], None),  # 3 fails here first
], ids=["later-here-earliest-in-worker", "both-here-later-first", "earliest-here-first"])
def test_parallel_map_raises_the_earliest_failure_wherever_it_lands(cpus, weights, slow):
    cpus(2)
    with pytest.raises(DataError, match=r"^item 3$"):
        parallel_map(_failing_at({3, 5, 7}, DataError, slow), range(8), weights=weights)


@pytest.mark.parametrize("exc_type", [DataError, NumericalError])
@pytest.mark.parametrize("failing, first", [({3, 4}, 3), ({2, 5}, 2)], ids=["worker-first", "parent-first"])
def test_parallel_map_raises_what_the_loop_raises(cpus, exc_type, failing, first):
    for n in (1, 2):
        cpus(n)
        with pytest.raises(exc_type, match=rf"^item {first}$"):
            parallel_map(_failing_at(failing, exc_type), range(8))


def test_interrupt_in_the_parent_kills_the_workers(cpus):
    cpus(2)

    def fn(i):
        if i % 2:
            time.sleep(60)  # the worker's share
        raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel_map(fn, range(4))
    assert time.monotonic() - t0 < 30


def test_text_buffered_before_the_fork_is_written_once():
    """Block-buffered stdout (a pipe): the parent's pending text must not be copied
    into the child's buffer, and the child's own text must not be lost at its exit."""
    script = ("import os; os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from spoofcm.util import parallel_map\n"
              "print('before', end='')\n"
              "parallel_map(print, ['a', 'b'])\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert out.count("before") == 1
    assert sorted(out.replace("before", "").split()) == ["a", "b"]
