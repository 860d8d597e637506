"""Source checks that need no linter: every module-level import is used,
every f-string has a placeholder, and importing the package leaves the heavy
optional modules unloaded.

An import marked ``# noqa: F401`` on its line is kept on purpose, as a
linter would read the mark.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spectrunc").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | exported)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\nimport re  # noqa: F401\nfrom typing import Optional, Mapping\n"
        "__all__ = ['Mapping']\nos.sep\n"
    )
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def placeholderless_fstrings(source: str) -> list[int]:
    """Line numbers of f-strings that format no value.

    A format spec such as the ``.3e`` of ``{x:.3e}`` parses as a nested
    f-string of constants; it is part of its placeholder, not an f-string.
    """
    tree = ast.parse(source)
    specs = {
        id(n.format_spec)
        for n in ast.walk(tree)
        if isinstance(n, ast.FormattedValue) and n.format_spec is not None
    }
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.JoinedStr)
        and id(n) not in specs
        and not any(isinstance(v, ast.FormattedValue) for v in n.values)
    )


def test_the_check_finds_a_placeholderless_fstring():
    source = 'a = f"plain"\nb = f"{a:.3e} {a!r:>{8}}"\nc = "x" f"{b}"\nd = f"""\n"""\n'
    assert placeholderless_fstrings(source) == [1, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_placeholderless_fstrings(path):
    assert placeholderless_fstrings(path.read_text()) == []


# Modules that cost start-up time and memory; each is imported where it is used.
LAZY_MODULES = ("numpy.random", "scipy", "scipy.linalg", "scipy.optimize")


def test_importing_the_package_loads_no_lazy_module():
    src = str(SOURCES[0].parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import spectrunc; "
        f"print(sorted(set({LAZY_MODULES!r}) & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
