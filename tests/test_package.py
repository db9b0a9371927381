"""The package surface: it holds only what the command line runs, and the README tour runs."""
import ast
import doctest
import re
from pathlib import Path

import rookposet

SRC = Path(rookposet.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

#: methods that no command reaches and that stay
ALLOWED = {
    "poset.PosetIndex.le",  # read by rookbench/child.py
    "poset.PosetIndex.covers",  # read by rookbench/child.py
}


def _nodes(node):
    """The nodes of one definition; the methods of a class are definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    parts += [s for s in node.body if not isinstance(s, ast.FunctionDef)]
    return (sub for part in parts for sub in ast.walk(part))


def unreached(src):
    """Dotted names in ``src`` that ``cli`` never reaches: definitions, and members of reached classes.

    The roots are every top-level definition of ``cli`` and every module-level
    statement that defines nothing; dunders such as ``__all__`` are no
    definitions.  A name reaches the definition it names in its module or
    imports by ``from .mod import name``, and ``mod.name`` does the same for
    a module imported by ``from . import mod``.  Imports and ``__init__``
    exports reach nothing.  A method is reached when its class is and its
    name is read as an attribute anywhere reached, or is a dunder.  A field
    of a reached class, an annotated name in its body or an attribute that
    one of its methods sets on ``self``, must have its name read the same
    way; an assignment is no read.  Matching is by name alone, so a read of
    any other object's attribute of that name counts.
    """
    defs, methods, fields, imported, modules, todo = {}, {}, set(), {}, {}, []
    for path in sorted(Path(src).glob("*.py")):
        mod = path.stem
        imported[mod], modules[mod] = {}, {}
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    if stmt.module is None:
                        modules[mod][alias.asname or alias.name] = alias.name
                    else:
                        imported[mod][alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, stmt.name] = stmt
                for sub in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        methods[mod, stmt.name, sub.name] = sub
                        fields.update(
                            (mod, stmt.name, t.attr)
                            for t in ast.walk(sub)
                            if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                            and isinstance(t.value, ast.Name) and t.value.id == "self"
                        )
                    elif isinstance(sub, ast.AnnAssign):
                        fields.add((mod, stmt.name, sub.target.id))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    defs[mod, target.id] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append((mod, stmt))

    def resolve(mod, name):
        if (mod, name) in defs:
            return mod, name
        return resolve(*imported[mod][name]) if name in imported[mod] else None

    reached = {key for key in defs if key[0] == "cli"}
    todo += [(mod, defs[mod, name]) for mod, name in reached]
    attrs = set()
    while todo:
        mod, node = todo.pop()
        for sub in _nodes(node):
            key = None
            if isinstance(sub, ast.Name):
                key = resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.ctx, ast.Load):
                    attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name) and sub.value.id in modules[mod]:
                    key = resolve(modules[mod][sub.value.id], sub.attr)
            if key is not None and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key]))
        for key, fn in methods.items():
            if key[:2] in reached and (key[2].startswith("__") or key[2] in attrs) and key not in reached:
                reached.add(key)
                todo.append((key[0], fn))
    missing = [key for key in defs if key not in reached and not key[1].startswith("__")]
    missing += [key for key in methods if key[:2] in reached and key not in reached]
    missing += [key for key in fields if key[:2] in reached and key[2] not in attrs]
    return sorted(".".join(key) for key in missing if ".".join(key) not in ALLOWED)


def test_package_holds_only_what_the_cli_runs():
    assert unreached(SRC) == []


def test_readme_tour_runs():
    text = README.read_text(encoding="utf-8")
    [tour] = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    test = doctest.DocTestParser().get_doctest(tour, {}, "README tour", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples)) and test.examples
