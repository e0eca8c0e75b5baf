"""Every name in a ``gcs`` module's ``__all__`` is reached from ``cli.py``: a
name read there reaches every definition of it (function, constant, method, or
class with its fields and dunder methods), and the names those read in turn."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gcs"


def _reads(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_exported_name_is_reached_from_the_cli():
    defs, exports, reached = {}, {}, set()
    todo = _reads(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:  # a method is reached by its name
                    plain = isinstance(item, ast.FunctionDef) and item.name[:2] != "__"
                    defs.setdefault(item.name if plain else name, []).append(item)
                defs.setdefault(name, []).extend(node.bases + node.decorator_list)
                continue
            targets = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                       if isinstance(t, ast.Name)]
            for key in targets + [name]:
                defs.setdefault(key, []).append(node)
            if "__all__" in targets:
                exports[path.stem] = ast.literal_eval(node.value)
    while todo:
        reached |= todo
        todo = set().union(*(_reads(n) for t in todo for n in defs.get(t, ()))) - reached
    unreached = [f"{m}.{n}" for m, names in exports.items() for n in names
                 if n not in reached]
    assert not unreached, f"exported but not reached from gcs.cli: {unreached}"
