"""The runtime package, and each script under tools/, imports nothing
outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "seqsnap").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def imported_modules(path):
    """(top-level module name, relative level) of every import in a file,
    including those inside functions and `if TYPE_CHECKING:` blocks."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], 0
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").partition(".")[0], node.level


def test_sources_are_found():
    assert {"protocol.py", "sim.py", "checker.py"} <= {p.name for p in SOURCES}
    assert "bench_pairs.py" in {p.name for p in TOOLS}


@pytest.mark.parametrize("path", SOURCES + TOOLS, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_the_package(path):
    for module, level in imported_modules(path):
        if level:
            # a tool is a script, outside any package
            assert level == 1 and path in SOURCES, \
                f"{path.name} imports from outside the package"
        else:
            assert module in sys.stdlib_module_names, \
                f"{path.name} imports {module!r}, not a standard module"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
