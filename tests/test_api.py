"""The public surface is what the package uses: the README's API column is
the package's imports, and every other public definition in src/ has a
caller there."""

import ast
from pathlib import Path

import pytest

import covertower

PACKAGE = Path(covertower.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# Public definitions that nothing in src/ calls and the package does not
# export, each with its one reader outside src/.
EXEMPT = {"vauts.vaut_from_automorphism": "perfbench tower job; ROADMAP 1a"}


def package_exports(source: str) -> dict[str, set[str]]:
    """The names an __init__ imports, by the module they come from."""
    exports = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports.setdefault(node.module, set()).update(a.name for a in node.names)
    return exports


def readme_api(text: str) -> dict[str, set[str]]:
    """The module map's public API column: the backticked names of each row's
    last cell, by module, for the rows that list any."""
    section = text[text.index("## Module map") :]
    api = {}
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        cells = row.strip("| ").split(" | ")
        names = set(cells[-1].split("`")[1::2])
        if names:
            api[cells[0].strip("`").removesuffix(".py")] = names
    return api


def unreferenced(sources: dict[str, str], exports: dict[str, set[str]]) -> set[str]:
    """The "module.name" of each public module-level function or class that
    the package does not export and that no other definition names, as a
    name or an attribute, in any module's source (by name alone)."""
    defined, named = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add((module, own))
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    named.add(name)
    return {
        f"{module}.{name}"
        for module, name in defined
        if name not in exports.get(module, ()) and name not in named
    }


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_readme_lists_the_package_exports():
    exports = package_exports((PACKAGE / "__init__.py").read_text())
    assert readme_api(README.read_text()) == exports
    assert all(hasattr(covertower, n) for names in exports.values() for n in names)


def test_every_public_definition_is_exported_or_used():
    """A public function or class with no caller in src/ and no export is
    code that only tests use: it moves into the tests or goes."""
    exports = package_exports((PACKAGE / "__init__.py").read_text())
    assert unreferenced(_sources(), exports) == set(EXEMPT)


@pytest.mark.parametrize("sources, found", [
    ({"m": "def orphan():\n    return 1\n"}, {"m.orphan"}),
    ({"m": "def f(n):\n    return f(n - 1)\n"}, {"m.f"}),
    ({"m": "class C:\n    pass\n", "n": "def g():\n    return m.C()\n"}, {"n.g"}),
    ({"m": "def f():\n    return 1\n\nclass C:\n    def g(self):\n        return f()\n"}, {"m.C"}),
    ({"m": "def f():\n    return 1\n\nif __name__ == '__main__':\n    f()\n"}, set()),
    ({"m": "def _private():\n    return 1\n"}, set()),
    ({"e": "def exported():\n    return 1\n"}, set()),
], ids=["no-caller", "only-itself", "attribute", "from-a-method", "main-guard", "private",
        "exported"])
def test_the_api_guard_sees_a_planted_orphan(sources, found):
    assert unreferenced(sources, {"e": {"exported"}}) == found


def test_the_readme_reader_takes_the_last_cell():
    text = (
        "## Module map\n\n| module | contents | public API |\n| --- | --- | --- |\n"
        "| `a.py` | the `x` helper | `X`, `y` |\n| `b.py` | a `z` and 0 < |x| | — |\n"
    )
    assert readme_api(text) == {"a": {"X", "y"}}
