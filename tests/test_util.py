import ast
import errno
from pathlib import Path

import pytest

import spoofcm
from spoofcm.errors import DataError
from spoofcm.util import table_text, write_file

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


def test_write_under_a_file_is_a_data_error(tmp_path):
    (tmp_path / "afile").touch()
    with pytest.raises(DataError, match="cannot write .*afile"):
        write_file(tmp_path / "afile" / "x.txt", b"x")


def test_table_text_writes_fields_with_str():
    assert table_text([("a", 0.1, 3, 1e-20)], sep="\t") == "a\t0.1\t3\t1e-20\n"
    assert table_text([]) == ""
