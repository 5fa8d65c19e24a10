"""Every top-level name of the package is referred to, and every imported name is used.

A top-level function, class or assignment of a module counts as referred
to when another statement of the package loads it (in its own module, or
in a module that imports it by name), when any module reads it as an
attribute, when it is a word of ``perfbench/*.py`` or when it is a word
of a backticked span of README.md.  Functions registered with
``@_check`` are exempt.  A name that an import binds in a module other
than ``__init__`` must be loaded in that module or listed in its
``__all__``, unless perfbench names the pair in a ``("module", "name"``
tuple: its tracer wraps those names in the importing module.
"""

import ast
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypvol"


def _violations(package: Path) -> list[str]:
    """What the rule above finds in the modules ``package/*.py``, one line each."""
    defs, loads, attrs, imported = [], {}, set(), {}  # loads: name -> {(module, statement index)}
    imports, exported = [], {}  # (module, name) an import binds; module -> its __all__
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    loads.setdefault(n.id, set()).add((module, i))
                elif isinstance(n, ast.Attribute):
                    attrs.add(n.attr)
                elif isinstance(n, (ast.Import, ast.ImportFrom)) and module != "__init__" and getattr(n, "module", "") != "__future__":
                    names = [a.asname or a.name.split(".")[0] for a in n.names]
                    imports += [(module, name) for name in names]
                    if isinstance(n, ast.ImportFrom):
                        imported.setdefault(module, set()).update(names)
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in stmt.targets):
                exported[module] = {e.value for e in stmt.value.elts}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "_check" for d in stmt.decorator_list):
                    defs.append((module, i, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for t in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    defs += [(module, i, n.id) for n in ast.walk(t) if isinstance(n, ast.Name) and not n.id.startswith("__")]
    perfbench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    spans = re.findall(r"```.*?```|`[^`]+`", (ROOT / "README.md").read_text(), re.S)  # code blocks and inline code
    readme = {w for span in spans for w in re.findall(r"[A-Za-z_]\w*", span)}
    unused = [
        f"referred to by nothing outside its definition: {module}.{name}"
        for module, i, name in defs
        if name not in attrs and name not in readme and not re.search(rf"\b{name}\b", perfbench)
        and not any(m == module and j != i or m != module and name in imported.get(m, ()) for m, j in loads.get(name, ()))
    ]
    unloaded = [
        f"imported but never used: {module}.{name}"
        for module, name in imports
        if name not in exported.get(module, ()) and f'("{module}", "{name}"' not in perfbench
        and not any(m == module for m, _ in loads.get(name, ()))
    ]
    return unused + unloaded


def test_every_name_is_used():
    assert _violations(PACKAGE) == []


@pytest.mark.parametrize(
    "module,line,found",
    [
        ("quad", "import json", "imported but never used: quad.json"),
        ("expect", "from .abcore import _closed_form", "imported but never used: expect._closed_form"),
    ],
)
def test_an_unused_import_is_found(tmp_path, module, line, found):
    package = shutil.copytree(PACKAGE, tmp_path / "hypvol")
    path = package / f"{module}.py"
    path.write_text(path.read_text() + f"\n{line}\n")
    assert _violations(package) == [found]
