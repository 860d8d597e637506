"""Source checks that need no linter: every module-level import is used,
every f-string has a placeholder, every module-level private name is read
somewhere in the package, every function reads each of its parameters,
importing the package, and a default ``converge``, ``epsilon`` or
``distance`` run, leave the heavy optional modules unloaded, the package
imports nothing beyond the standard library and numpy, only ``cayley``
knows the packed-key format of ball lookups or reads a ball's enumeration, only
``cayley`` and ``groupalg`` derive a truncation's arrays (double balls, word
lengths by position, inverse tables), only ``groupalg`` calls ``bincount``: every overlap
count and position sum is its truncation's ``counts`` or ``sums``, only
``groupalg`` and ``harness`` name ``_check_radius``, and
only ``cayley.ball`` and the enumeration it extends take an element cap: every
other function reads the cap in force, and no module tells the built-in
groups apart with ``isinstance``: a group is its contract.

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


def lazy_modules_loaded(statement: str) -> list:
    """``LAZY_MODULES`` entries that a fresh interpreter holds after importing the
    package and running ``statement``."""
    src = str(SOURCES[0].parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import spectrunc; {statement}; "
        f"print(sorted(set({LAZY_MODULES!r}) & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_lazy_module():
    assert lazy_modules_loaded("pass") == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["converge", "--group", "z:1", "--lambdas", "2,4"], []),
        (["epsilon", "--group", "heisenberg", "--lambda", "1", "--s", "3"], []),
        # the README pair: a distance is one deterministic solve with no random starts
        (["distance", "--group", "z:1", "--lambda", "1", "--s", "1",
          "--phi", "phi.txt", "--psi", "psi.txt"], []),
        # the positive control: the opt-in ascent draws its starts from numpy.random
        (["converge", "--group", "z:1", "--lambdas", "2,4", "--trials", "1"], ["numpy.random"]),
        (["epsilon", "--group", "heisenberg", "--lambda", "1", "--s", "3", "--trials", "1"],
         ["numpy.random"]),
    ],
    ids=["converge", "epsilon", "distance", "converge-trials", "epsilon-trials"],
)
def test_a_default_run_loads_no_lazy_module(argv, loaded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.txt").write_text("1 0 0\n1 0 1\n")
    (tmp_path / "psi.txt").write_text("1 0 0\n")
    statement = f"from spectrunc import cli; assert cli.run({argv!r}) == 0"
    assert lazy_modules_loaded(statement) == loaded


def third_party_imports(source: str) -> list[str]:
    """Top-level modules imported anywhere in a source, function bodies too,
    that are neither the standard library, numpy nor the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - allowed)


def test_the_check_finds_a_third_party_import():
    source = (
        "import os.path\nimport numpy as np\nfrom . import cayley\n"
        "def f():\n    from scipy import optimize\n    import pytest\n"
    )
    assert third_party_imports(source) == ["pytest", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert third_party_imports(path.read_text()) == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module reads.

    A name counts as read where any module loads it, reads it as an attribute
    or imports it; its own definition does not count.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_finds_an_orphaned_private_name():
    sources = {
        "a": (
            "_USED = 1\n_LEFT: int = 2\n"
            "def _helper():\n    return _USED\nclass _Gone:\n    pass\n"
        ),
        "b": "from a import _helper\n__all__ = []\n",
    }
    assert orphaned_private_names(sources) == ["a._Gone", "a._LEFT"]


def test_no_orphaned_private_names():
    assert orphaned_private_names({p.stem: p.read_text() for p in SOURCES}) == []


def unread_parameters(module: str, source: str) -> list[str]:
    """Parameters, other than ``self`` and ``cls``, that their function's body never loads.

    A load anywhere in the body counts, in a nested function or lambda too.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{module}.{name}.{p}" for p in params if p not in read | {"self", "cls"}
            ]
    return sorted(found)


def test_the_check_finds_an_unread_parameter():
    source = (
        "class A:\n    def m(self, x, y):\n        return x\n"
        "def f(a, *rest, b=1, **extra):\n    g = lambda u, v: u + b\n"
        "    def inner():\n        return a, rest\n    return g, inner\n"
    )
    assert unread_parameters("a", source) == ["a.<lambda>.v", "a.f.extra", "a.m.y"]


# Parameters kept unread on purpose, each with its reason.
UNREAD_BY_DESIGN = {
    "qmetric.epsilon_full.search": "kept for callers that pass a search, as the benchmark's "
    "sweep-heis workload does; eps_full is the Folner epsilon, which no search changes",
}


def test_every_parameter_is_read():
    found = [n for p in SOURCES for n in unread_parameters(p.stem, p.read_text())]
    assert sorted(found) == sorted(UNREAD_BY_DESIGN)


# Names only ``cayley`` uses: the packed-key format behind every ball lookup, which other
# modules reach through ``Ball.positions``, and a ball's enumeration, whose word lengths they
# read through ``Ball.lengths_at``.
PACKED_KEY_NAMES = {"_pack", "_packing"}
ENUMERATION_NAMES = {"_enumeration"}


def cayley_references(source: str, names: set) -> list[str]:
    """Which of ``names`` a source loads, reads as an attribute or imports."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return sorted(found & names)


def test_the_check_finds_a_packed_key_reference():
    source = "from .cayley import _pack\nimport spectrunc.cayley as c\nc._packing(x)\n_packed = 1\n"
    assert cayley_references(source, PACKED_KEY_NAMES) == ["_pack", "_packing"]
    source = "b._enumeration.lengths(p)\n_enumerations = {}\n"
    assert cayley_references(source, ENUMERATION_NAMES) == ["_enumeration"]


OUTSIDE_CAYLEY = [p for p in SOURCES if p.name != "cayley.py"]


@pytest.mark.parametrize("path", OUTSIDE_CAYLEY, ids=lambda p: p.name)
def test_only_cayley_knows_the_packed_key_format(path):
    assert cayley_references(path.read_text(), PACKED_KEY_NAMES) == []


@pytest.mark.parametrize("path", OUTSIDE_CAYLEY, ids=lambda p: p.name)
def test_only_cayley_reads_a_balls_enumeration(path):
    assert cayley_references(path.read_text(), ENUMERATION_NAMES) == []


def truncation_derivations(source: str) -> list[int]:
    """Line numbers of calls that derive a truncation's arrays: ``ball`` with a doubled radius
    (a product by the constant 2 anywhere in it), ``lengths_at`` and ``inverse_array``."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", getattr(n.func, "attr", None))
        radii = n.args[1:2] + [k.value for k in n.keywords if k.arg == "radius"]
        doubled = name == "ball" and any(
            isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult) and 2 in (
                getattr(b.left, "value", None), getattr(b.right, "value", None))
            for r in radii for b in ast.walk(r)
        )
        if doubled or name in ("lengths_at", "inverse_array"):
            found.append(n.lineno)
    return found


def test_the_check_finds_a_truncation_derivation():
    source = (
        "ball(g, 2 * lam)\ncayley.ball(g, radius=lam * 2)\nball(g, 2 * R + 2)\n"
        "b.lengths_at(p)\ng.inverse_array(x)\nball(g, lam + 1)\nb.lengths\nball(g, 2)\n"
    )
    assert truncation_derivations(source) == [1, 2, 3, 4, 5]


# A truncation's double ball, word lengths and inverse table are derived in one place, the
# ``groupalg.Truncation`` that every other module reads.
@pytest.mark.parametrize("path", [p for p in OUTSIDE_CAYLEY if p.name != "groupalg.py"],
                         ids=lambda p: p.name)
def test_only_cayley_and_groupalg_derive_a_truncations_arrays(path):
    assert truncation_derivations(path.read_text()) == []


def test_the_check_finds_a_radius_check():
    # the calls qmetric and truncation made before every object reached its radius check
    # through ``_truncation``: a state constructor's and the operator constructor's
    source = (
        "from .groupalg import _check_order, _check_radius, _truncation\n"
        "def vector_state(group, coeffs, lam):\n    _check_radius(lam)\n"
        "def __init__(self, group, radius, symbol):\n    _check_radius(radius)\n"
    )
    assert cayley_references(source, {"_check_radius"}) == ["_check_radius"]


# A radius is checked as given in ``groupalg._truncation``, which every object on a
# truncation reaches, and in ``harness._row``, whose skip reason names the radius-lam ball.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("groupalg.py", "harness.py")],
                         ids=lambda p: p.name)
def test_only_groupalg_and_harness_check_a_radius(path):
    assert cayley_references(path.read_text(), {"_check_radius"}) == []


def bincount_calls(source: str) -> list[int]:
    """Line numbers of ``bincount`` calls, as ``np.bincount`` or as a bare name, one per call."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    names = [(n.lineno, getattr(n.func, "id", getattr(n.func, "attr", None))) for n in calls]
    return sorted(line for line, name in names if name == "bincount")


def test_the_check_finds_a_bincount_call():
    # the five calls qmetric made before its position sums and overlap counts were its
    # truncation's: two in a position sum, a recount in the solver and two in the witness
    source = (
        "g = np.bincount(bins, w.real, n) + 1j * np.bincount(bins, w.imag, n)\n"
        "share[1:] = 1.0 / np.bincount(idx.ravel(), minlength=slots)[1:]\n"
        "p = (np.bincount(idx.ravel(), sign.ravel())[:m] / np.bincount(idx.ravel())[:m])[1:]\n"
        "bincount(x)\ncounts = trunc.counts\nnp.add.at(g, idx, w)\n"
    )
    assert bincount_calls(source) == [1, 1, 2, 3, 3, 4]


# Overlap counts and position sums have one code path, ``Truncation.counts`` and
# ``Truncation.sums``, and the fiber count that builds the kernel's counts.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "groupalg.py"],
                         ids=lambda p: p.name)
def test_only_groupalg_calls_bincount(path):
    assert bincount_calls(path.read_text()) == []


def cap_parameters(module: str, source: str) -> list[str]:
    """Functions, methods and lambdas with a parameter named ``cap``, by qualified name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                args = child.args
                if "cap" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    found.append(name)
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return sorted(found)


def test_the_check_finds_a_cap_parameter():
    source = (
        "class A:\n    def m(self, cap):\n        pass\n"
        "def f(x, *, cap=None):\n    g = lambda cap: cap\n    return g\n"
        "def h(capacity, caps):\n    return capacity, caps\n"
    )
    assert cap_parameters("a", source) == ["a.A.m", "a.f", "a.f.<lambda>"]


# The only functions that take an element cap: the rest read the cap in force, which
# ``element_cap`` sets, so no cap is handed down a call chain.
CAP_PARAMETERS = ["cayley._Enumeration.extend", "cayley.ball"]


def test_only_ball_and_its_enumeration_take_a_cap():
    found = [n for p in SOURCES for n in cap_parameters(p.stem, p.read_text())]
    assert sorted(found) == CAP_PARAMETERS


def builtin_group_checks(source: str) -> list[int]:
    """Line numbers of ``isinstance`` calls whose class argument names FreeAbelian or Heisenberg."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance":
            names = {getattr(c, "id", getattr(c, "attr", None)) for c in ast.walk(n.args[1])}
            if names & {"FreeAbelian", "Heisenberg"}:
                found.append(n.lineno)
    return found


def test_the_check_finds_a_builtin_group_check():
    source = (
        "isinstance(g, FreeAbelian)\nisinstance(g, (int, cayley.Heisenberg))\n"
        "isinstance(g, tuple)\nHeisenberg()\n"
    )
    assert builtin_group_checks(source) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_tells_the_builtin_groups_apart(path):
    assert builtin_group_checks(path.read_text()) == []
