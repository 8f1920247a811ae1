"""No spoofcm module imports another spoofcm module's private (underscore) names."""
import ast
from pathlib import Path

import pytest

import spoofcm

PACKAGE_DIR = Path(spoofcm.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name the source imports from spoofcm."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "spoofcm"):
            module = "." * node.level + (node.module or "")
            found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_finds_the_package():
    assert {"dsp.py", "vocoders.py", "training.py"} <= {p.name for p in MODULES}


def test_detects_private_imports():
    source = "from .dsp import _stft_frames, stft\nfrom spoofcm.util import _child\nfrom os import _exit\n"
    assert private_imports(source) == [".dsp._stft_frames", "spoofcm.util._child"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_no_private_name_of_another_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
