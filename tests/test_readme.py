"""The README's Quick tour runs as written and gives the values in its
comments, and every name the README puts in backticks exists."""

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import covertower
from covertower.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Names the README uses that no package object carries: the console script,
# the JSON literal and the budget environment variable.
ALLOWED = {"covertower", "null", "COVERTOWER_BUDGET"}

# A name, dotted or hyphenated, optionally followed by a call or a trailing
# "=", as in `SurfaceCover.walk(word, sheet)` or `budget=`.
NAME = re.compile(r"([A-Za-z_][\w-]*(?:\.[A-Za-z_]\w*)*)(?:\(.*\)|=)?")


def quick_tour_block() -> str:
    text = README.read_text()
    section = text[text.index("## Quick tour") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_quick_tour_values():
    ns: dict = {}
    exec(compile(quick_tour_block(), str(README), "exec"), ns)
    assert len(ns["covers"]) == 15
    cx = ns["cx"]
    assert cx.genus == 3
    assert cx.pushforward(ns["t"]) == [2, 0, 0, 0]
    u, v = ns["u"], ns["v"]
    assert ns["normalized_pairing"](u, v) == Fraction(1)
    table = ns["pairing_table"]([u, v], [u, v])
    assert table == [[0, 1], [-1, 0]]
    assert all(type(x) is Fraction for row in table for x in row)
    matrix, track = ns["matrix"], ns["track"]
    assert all(x in (0, 1) for row in matrix.matrix for x in row)
    assert [sum(row[b] for row in matrix.matrix) for b in range(track.n_branches)] == [2, 2, 2]
    lifted = ns["lifted"]
    lifted.track.validate_weights(matrix.apply((2, 1, 1)))


def _package_names():
    """Modules by name; attributes, class members and fields, and function
    parameters of the package."""
    modules = {
        info.name: importlib.import_module(f"covertower.{info.name}")
        for info in pkgutil.iter_modules(covertower.__path__)
    }
    names, classes, functions = set(), {}, []
    for module in modules.values():
        for attr, value in vars(module).items():
            names.add(attr)
            if getattr(value, "__module__", "").startswith("covertower"):
                if inspect.isclass(value):
                    classes[attr] = value
                elif inspect.isfunction(value):
                    functions.append(value)
    members = {}
    for name, cls in classes.items():
        members[name] = set(dir(cls))
        if dataclasses.is_dataclass(cls):  # a field without a default is no class attribute
            members[name] |= {f.name for f in dataclasses.fields(cls)}
        functions += [f for f in vars(cls).values() if inspect.isfunction(f)]
    params = {p for f in functions for p in inspect.signature(f).parameters}
    return modules, names, members, params


def _resolves(name: str, modules, names, members, params) -> bool:
    head, _, rest = name.partition(".")
    if not rest:
        return (
            name in names
            or name in params
            or name in SUITES
            or name in ALLOWED
            or hasattr(builtins, name)
            or any(name in m for m in members.values())
        )
    if head in members:
        return rest in members[head]
    try:
        obj = modules.get(head) or importlib.import_module(head)
    except ImportError:
        return False
    for part in rest.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_exist():
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = set(re.findall(r"`([^`\n]+)`", text))
    package = _package_names()
    missing = []
    for span in sorted(spans):
        if span.endswith(".py"):  # a file: a module or a path from the root
            if not ((ROOT / span).exists() or (ROOT / "src/covertower" / span).exists()):
                missing.append(span)
        elif (m := NAME.fullmatch(span)) and not _resolves(m.group(1), *package):
            missing.append(span)
    assert not missing, f"README names what the package does not have: {missing}"
