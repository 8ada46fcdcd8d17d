"""Module layering: imports run one way, and no dcnet module reaches into another module's or
object's private names."""
from __future__ import annotations

import ast
from pathlib import Path

import dcnet

SRC = Path(dcnet.__file__).parent


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("dcnet"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def test_no_module_reads_another_objects_private_attribute():
    """Only ``self`` and ``cls`` may be asked for an underscore attribute (dunders aside)."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            offenders.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert offenders == []


def test_only_core_replaces_an_elements_state_object():
    """A network watches the state objects it holds, so a new one goes in through ``set_state``.

    Writing ``.state`` (or ``setattr(..., "state", ...)``) anywhere else would hand
    the network a state whose writes it never sees.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
                while targets:
                    target = targets.pop()
                    if isinstance(target, (ast.Tuple, ast.List)):
                        targets.extend(target.elts)
                    elif isinstance(target, ast.Starred):
                        targets.append(target.value)
                    elif isinstance(target, ast.Attribute) and target.attr == "state":
                        offenders.append(f"{path.name}:{node.lineno} assigns {ast.unparse(target)}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant) and node.args[1].value == "state"):
                offenders.append(f"{path.name}:{node.lineno} calls setattr(..., 'state', ...)")
    assert offenders == []


LAYERS = [
    "trace", "core", "probability", "matching", "growth", "kbio", "lifecycle", "query", "learning", "cli",
    "__main__",
]


def _dcnet_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) for every dcnet module a file imports, relatively or by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").startswith("dcnet."):
                base = node.module.split(".")[1]
            elif node.module == "dcnet":
                base = None
            else:
                continue
            names = [base] if base else [alias.name for alias in node.names]
            found.extend((node.lineno, name) for name in names)
        elif isinstance(node, ast.Import):
            found.extend(
                (node.lineno, alias.name.split(".")[1])
                for alias in node.names
                if alias.name.startswith("dcnet.")
            )
    return found


def test_every_module_imports_only_earlier_layers():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert sorted(LAYERS) == modules  # a new module must be given its place in the order
    offenders = []
    for layer, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for line, imported in _dcnet_imports(tree):
            if imported not in LAYERS[:layer]:
                offenders.append(f"{name}.py:{line} imports {imported}")
    assert offenders == []


def test_every_module_level_import_is_used():
    """A name a module imports at module level is used there, or re-exported through ``__all__``.

    ``__init__`` only re-exports, so it is not checked.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        imported.pop("annotations", None)  # ``from __future__ import annotations`` is a switch
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        offenders.extend(
            f"{path.name}:{line} imports {name}" for name, line in imported.items() if name not in used
        )
    assert offenders == []


def _deepcopy_uses(tree: ast.Module) -> list[str]:
    """The innermost enclosing function (or ``<module>``) of each ``copy.deepcopy`` use."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "copy":
                found.extend(f"{where} imports {a.name}" for a in child.names if a.name == "deepcopy")
            elif isinstance(child, ast.Import):
                found.extend(f"{where} imports copy as {a.asname}" for a in child.names
                             if a.name == "copy" and a.asname)
            elif (isinstance(child, ast.Attribute) and child.attr == "deepcopy"
                  and isinstance(child.value, ast.Name) and child.value.id == "copy"):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_deep_copies_stay_where_they_are_meant_to_be():
    """``copy.deepcopy`` serves only the reference copy, the fork snapshot and the query overlay.

    Whole-network copies on hot paths go through ``CognitiveNetwork.copy()``.  The fork
    snapshot keeps calling ``copy.deepcopy`` through growth's ``copy`` name, which
    ``bench/spans.py`` patches to count forks.
    """
    uses = {
        path.stem: _deepcopy_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: where for name, where in uses.items() if where} == {
        "core": ["__deepcopy__"],
        "growth": ["_process_fragment"],
        "query": ["query_reason"],
    }


def test_knowledge_ids_are_read_from_the_network_not_passed_around():
    """A network owns its knowledge set (``net.knowledge``), so no function takes ``kb_ids``.

    ``FitState.kb_ids`` is a read-only property kept for callers outside the engine;
    nothing in ``src/`` reads it, and it is the only definition of the name.
    """
    offenders, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                params += [p for p in (node.args.vararg, node.args.kwarg) if p is not None]
                offenders.extend(f"{where} takes kb_ids" for p in params if p.arg == "kb_ids")
                if getattr(node, "name", None) == "kb_ids":
                    defined.append((path.stem, [ast.unparse(d) for d in node.decorator_list]))
            elif isinstance(node, ast.Attribute) and node.attr == "kb_ids":
                offenders.append(f"{where} reads {ast.unparse(node)}")
            elif isinstance(node, ast.keyword) and node.arg == "kb_ids":
                offenders.append(f"{where} passes kb_ids=")
            elif isinstance(node, ast.Name) and node.id == "kb_ids":
                offenders.append(f"{where} names kb_ids")
    assert offenders == []
    assert defined == [("growth", ["property"])]
    assert dcnet.FitState.kb_ids.fset is None
