"""Module layering: imports run one way, no dcnet module reaches into another module's or
object's private names, and the public API is stated once, in the modules' ``__all__`` lists."""
from __future__ import annotations

import ast
import importlib
import random
from collections import defaultdict
from pathlib import Path

import dcnet

from scenes import fork_task, step_fork_task

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


STATE_FIELDS = {"input_prob", "result_prob", "status", "launched"}


def _assigned_attributes(node: ast.AST) -> list[ast.Attribute]:
    """The attributes an assignment statement writes, through tuples and starred targets too."""
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return []
    targets = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            found.append(target)
    return found


def test_only_core_replaces_an_elements_state_object():
    """A new state object goes in through ``set_state``, which marks its element touched.

    Writing ``.state`` (or ``setattr(..., "state", ...)``) anywhere else would give
    an element a state that the next settle never reads, or change one a layer shares.
    """
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.extend(
                f"{path.name}:{node.lineno} assigns {ast.unparse(target)}"
                for target in _assigned_attributes(node) if target.attr == "state"
            )
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant) and node.args[1].value == "state"):
                offenders.append(f"{path.name}:{node.lineno} calls setattr(..., 'state', ...)")
    assert offenders == []


def test_only_the_kernel_writes_state_fields():
    """Outside ``core`` and ``probability`` a state's fields are only read, through ``element(id).state``.

    A state is a plain dataclass: no ``__setattr__`` hook and no class swap sees a write,
    so the touched set hears of a write only through ``CognitiveNetwork.state``.
    """
    offenders, calls_state = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            offenders.extend(
                f"{where} assigns {ast.unparse(target)}" for target in _assigned_attributes(node)
                if target.attr == "__class__"
                or (target.attr in STATE_FIELDS and path.stem not in ("core", "probability"))
            )
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                offenders.append(f"{where} defines __setattr__")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "state"):
                calls_state.add(path.stem)
    assert offenders == []
    assert calls_state == {"probability"}  # ``net.state(id)`` is the door to write, and only the kernel writes


ENUMS = {enum.__name__: set(enum.__members__) for enum in (dcnet.Status, dcnet.RelationKind, dcnet.Mode)}


def _enum_member_reads_in_bodies(tree: ast.Module) -> list[str]:
    """Each ``Status.X``, ``RelationKind.X`` or ``Mode.X`` read inside a function or lambda body.

    Default values and decorators run once, where the function is defined, so they do not count.
    """
    found = []

    def visit(node: ast.AST, in_body: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            outer = [node.args, *getattr(node, "decorator_list", []), getattr(node, "returns", None)]
            for child in filter(None, outer):
                visit(child, in_body)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, True)
            return
        if (in_body and isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in ENUMS.get(node.value.id, ())):
            found.append(f"{node.lineno} reads {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(tree, False)
    return found


def test_hot_code_reads_enum_members_from_module_globals():
    """A function reads ``_SUPERPOSED``, bound once at module level, not ``Status.SUPERPOSED``.

    On CPython 3.10 and 3.11 an enum class attribute read goes through
    ``EnumType.__getattr__``, about eight times the cost of a global read,
    and the kernel's loops read members on every step.
    """
    assert [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _enum_member_reads_in_bodies(ast.parse(path.read_text(encoding="utf-8")))
    ] == []


def test_enum_members_hash_by_identity():
    """Members are singletons, so the C identity hash serves, not ``Enum``'s Python hash of the name."""
    for enum in (dcnet.Status, dcnet.RelationKind, dcnet.Mode):
        assert enum.__hash__ is object.__hash__


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
        used.update(_declared_api(tree))
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
    """``copy.deepcopy`` serves only the reference copy and the query overlay.

    A fit task's network and its forks are layers over the knowledge base
    (``CognitiveNetwork.layer``), so neither growth nor learning deep-copies.
    The query overlay stays a deep copy until ROADMAP item 3 replaces it.
    """
    uses = {
        path.stem: _deepcopy_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: where for name, where in uses.items() if where} == {
        "core": ["copy", "__deepcopy__"],
        "query": ["query_reason"],
    }


def test_the_fit_path_copies_no_whole_network(monkeypatch):
    """Fits that fork and a learning run never copy a network element by element."""

    def refuse(*args):
        raise AssertionError("a whole network was copied on the fit path")

    monkeypatch.setattr(dcnet.CognitiveNetwork, "copy", refuse)
    monkeypatch.setattr(dcnet.CognitiveNetwork, "__deepcopy__", refuse)
    forks = 0
    for seed in range(20):
        task = fork_task(random.Random(seed))
        for _ in step_fork_task(task):
            pass
        forks += len(task.states) - 1
    assert forks >= 10
    scenes = []
    for n in range(12):  # triangles of three adjacent parts, one of two patterns
        ids = [f"s{n}.k{n % 2}p{i}" for i in range(3)]
        scenes.append(dcnet.Scene(
            concepts=[dcnet.ConceptSpec(base=i.partition(".")[2], p=1.0, as_id=i) for i in ids],
            relations=[
                dcnet.RelationSpec(rel_id=f"{a}~{b}", kind=dcnet.RelationKind.ADJOINING, a=a, b=b)
                for a, b in zip(ids, ids[1:])
            ],
        ))
    report = dcnet.cnl_run(scenes, dcnet.CognitiveNetwork())
    assert len(report.learned_roots) == 2


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


def _declared_api(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists, or none when it has no ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _module_apis() -> dict[str, list[str]]:
    return {
        path.stem: _declared_api(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def test_the_package_api_is_the_union_of_the_module_apis():
    """``dcnet.__all__`` is stated once, by the modules: each name in one list, and each resolves."""
    owners: dict[str, list[str]] = defaultdict(list)
    unresolved = []
    for stem, names in _module_apis().items():
        module = importlib.import_module(f"dcnet.{stem}")
        for name in names:
            owners[name].append(stem)
            if not hasattr(module, name) or getattr(dcnet, name, None) is not getattr(module, name):
                unresolved.append(f"{stem}.{name}")
    assert {name: stems for name, stems in owners.items() if len(stems) > 1} == {}
    assert unresolved == []
    assert sorted(dcnet.__all__) == sorted(owners)
    assert len(set(dcnet.__all__)) == len(dcnet.__all__)


def test_every_public_name_is_used_or_declared():
    """A public module-level function or class that no code in ``src/dcnet`` refers to is API.

    It must then be in its module's ``__all__``; a name that is neither used
    nor declared is dead code.  A reference inside the name's own definition
    (recursion) does not count; an attribute of the same name does.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used: set[str] = set()
    for tree in trees.values():
        for statement in tree.body:
            found = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    found.update(alias.name for alias in node.names)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.discard(statement.name)
            used |= found
    apis = _module_apis()
    offenders = [
        f"{stem}.{statement.name}"
        for stem, tree in trees.items()
        if stem != "__init__"
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not statement.name.startswith("_")
        and statement.name not in used
        and statement.name not in apis[stem]
    ]
    assert offenders == []


def test_a_star_import_binds_exactly_the_api():
    namespace: dict = {}
    exec("from dcnet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dcnet.__all__)
