"""Reduction, chained reasoning, version iteration, and session persistence.

A fit task is the unit of continuous calculation: everything it owns (networks,
ledgers, configuration, fragment queue, trace position) serializes as one
canonical text payload, so saving, loading and resuming behaves exactly like
never having stopped.  The session's line records are stated once, in the
record table ``_RECORDS``, which both writes and reads every one of them.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from math import isfinite
from typing import Container, Iterable, Optional, Sequence, TextIO, Union

from .core import (
    CognitiveNetwork,
    Concept,
    DcnetError,
    Gaussian,
    KindError,
    RelationKind,
    Status,
    StructureError,
    TreeInstance,
    belongs_to,
    fits,
    is_lateral,
)
from .growth import (
    DeferredGrowth,
    FitState,
    FitTask,
    Fork,
    FragmentRecord,
    grow_concept,
    grow_link,
    grow_relation,
)
from .kbio import ParseError, parse_kb, serialize_kb
from .probability import (
    ContributionLedger,
    EngineConfig,
    LaunchRecord,
    LedgerEntry,
    Mode,
    format_config_value,
    parse_config_value,
)
from .trace import EVENT_KINDS, Trace, TraceEvent

__all__ = [
    "LoadError", "PrunePolicy", "PruneReport", "prune", "prune_task",
    "ChainStep", "reason_chain", "iterate_step", "session_save", "session_load",
]

# Enum members read as globals, as in ``core``: a class attribute read costs far more on 3.10-3.11.
_COLLAPSED = Status.COLLAPSED
_EXACT = Mode.EXACT


class LoadError(DcnetError):
    """A session payload failed to load; carries the offending line offset."""

    def __init__(self, message: str, line: int):
        super().__init__(f"load error at line {line}: {message}")
        self.line = line


SESSION_HEADER = "DCNET-SESSION v1"


# ---------------------------------------------------------------------------
# pruning


@dataclass
class PrunePolicy:
    """Instance elements that pruning must keep, besides the roots it always keeps."""

    keep: set[str] = field(default_factory=set)


@dataclass
class PruneReport:
    removed: list[str] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def prune(
    net: CognitiveNetwork,
    policy: PrunePolicy,
    *,
    ledger: Optional[ContributionLedger] = None,
    trace: Optional[Trace] = None,
) -> PruneReport:
    """Cut the collapsed members of fully collapsed tree instances; roots always stay.

    A member in ``policy.keep`` stays too, with a warning.  Ledger history
    around removed elements is sealed: later undo operations will not touch
    it.  Root probabilities are untouched by construction.
    """
    report = PruneReport()
    for instance in net.tree_instances:
        ids = [e for e in instance.mapping.values() if net.has(e)]
        if not ids or not instance.root or not net.has(instance.root):
            continue
        if any(net.element(e).state.status is not _COLLAPSED for e in ids):
            continue
        removable: list[str] = []
        for inst_el in instance.mapping.values():
            if inst_el == instance.root:
                continue
            if inst_el in policy.keep:
                report.warnings.append(f"{inst_el}: protected from pruning; kept")
                continue
            removable.append(inst_el)
        for inst_el in removable:
            if not net.has(inst_el):
                continue
            for el in net.remove_element(inst_el):
                if trace is not None:
                    trace.record("prune", el, el, 0.0, 0.0)
                report.removed.append(el)
        instance.mapping = {
            b: e for b, e in instance.mapping.items() if net.has(e)
        }
    if ledger is not None and report.removed:
        ledger.seal_elements(report.removed)
    report.kept = [e for e in net.element_ids()]
    return report


def prune_task(task: FitTask, policy: PrunePolicy, state_index: int = 0) -> PruneReport:
    """Prune a fit state, protecting elements still referenced by pending fragments."""
    state = task.states[state_index]
    merged = PrunePolicy(keep=set(policy.keep) | {f.element for f in state.pending()})
    return prune(state.net, merged, ledger=state.ledger, trace=task.trace)


# ---------------------------------------------------------------------------
# chained reasoning


@dataclass
class ChainStep:
    element: str
    relation: str
    prob: float


def lateral_candidates(
    net: CognitiveNetwork,
    current: str,
    kinds: frozenset[RelationKind],
    direction: str,
) -> list[tuple[float, str, bool]]:
    out: list[tuple[float, str, bool]] = []
    for rel in net.relations.values():
        if rel.kind not in kinds or not is_lateral(rel.kind):
            continue
        fwd = rel.cond.forward
        bwd = rel.cond.backward
        if direction in ("forward", "both") and not isinstance(fwd, Gaussian):
            if fits(net, current, rel.a) and float(fwd) > 0.0:
                out.append((float(fwd), rel.id, True))
        if direction in ("backward", "both") and not isinstance(bwd, Gaussian):
            if fits(net, current, rel.b) and float(bwd) > 0.0:
                out.append((float(bwd), rel.id, False))
    out.sort(key=lambda item: (-item[0], item[1], not item[2]))
    return out


def grow_across(
    net: CognitiveNetwork,
    instance: str,
    base_rel_id: str,
    forward: bool,
    *,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> tuple[str, str]:
    """One step of lateral growth; returns (new far instance, connecting relation id).

    Handles both concept endpoints and relation endpoints (tree-network
    conversions): for a relation-valued far end, endpoint instances are reused
    when the start instance already provides them and grown otherwise.
    """
    base_rel = net.relations[base_rel_id]
    far_base = net.element(base_rel.b if forward else base_rel.a)
    if isinstance(far_base, Concept):
        far_instance = grow_concept(net, far_base.id, trace)
    else:
        inst_rel = net.relations.get(instance)
        ends = []
        for end in (far_base.a, far_base.b):
            reuse = None
            if inst_rel is not None:
                for candidate in (inst_rel.a, inst_rel.b):
                    if belongs_to(net, candidate, end):
                        reuse = candidate
                        break
            ends.append(reuse if reuse is not None else grow_concept(net, end, trace))
        far_instance = grow_relation(net, far_base.id, ends[0], ends[1], trace)
    link = grow_link(
        net,
        instance,
        base_rel_id,
        far_instance,
        config=config,
        ledger=ledger,
        trace=trace,
    )
    return far_instance, link


def reason_chain(
    net: CognitiveNetwork,
    start: str,
    kinds: Sequence[RelationKind],
    direction: str = "forward",
    max_steps: int = 1,
    min_prob: float = 0.0,
    *,
    config: Optional[EngineConfig] = None,
    ledger: Optional[ContributionLedger] = None,
    trace: Optional[Trace] = None,
) -> list[ChainStep]:
    """Grow across lateral relations step by step, multiplying conditionals.

    Stops at the step budget or as soon as the running probability would drop
    below ``min_prob``; a direction with too little probability is not reasoned.
    """
    net.element(start)
    config = config or EngineConfig()
    ledger = ledger or ContributionLedger()
    trace = trace or Trace()
    kinds_set = frozenset(kinds)
    chain: list[ChainStep] = []
    current = start
    prob = 1.0
    for _ in range(max_steps):
        candidates = lateral_candidates(net, current, kinds_set, direction)
        if not candidates:
            break
        cond, base_rel_id, forward = candidates[0]
        next_prob = prob * cond
        if next_prob < min_prob:
            break
        far_instance, link = grow_across(
            net, current, base_rel_id, forward, config=config, ledger=ledger, trace=trace
        )
        chain.append(ChainStep(element=far_instance, relation=link, prob=next_prob))
        current = far_instance
        prob = next_prob
    return chain


# ---------------------------------------------------------------------------
# version iteration


def iterate_step(
    net: CognitiveNetwork,
    tree_root: str,
    lateral_kind: RelationKind,
    keep_history: bool = True,
    *,
    config: Optional[EngineConfig] = None,
    ledger: Optional[ContributionLedger] = None,
    trace: Optional[Trace] = None,
) -> str:
    """Grow a structurally identical new version of a tree across a lateral relation.

    With ``keep_history`` false the previous version (and the version link) is
    pruned afterwards: pure iteration conserves the element count.
    """
    config = config or EngineConfig()
    ledger = ledger or ContributionLedger()
    trace = trace or Trace()

    instance = next(
        (inst for inst in net.tree_instances if inst.root == tree_root), None
    )
    if instance is None:
        raise StructureError(f"{tree_root} does not head a recorded tree instance")
    base_rel = None
    for rel in sorted(net.relations.values(), key=lambda r: r.id):
        if rel.kind is not lateral_kind:
            continue
        if belongs_to(net, tree_root, rel.a) or belongs_to(net, tree_root, rel.b):
            base_rel = rel
            break
    if base_rel is None:
        raise KindError(
            f"no {lateral_kind.value} relation applies to the base of {tree_root}"
        )

    old_mapping = dict(instance.mapping)
    new_mapping: dict[str, str] = {}
    for base_el, inst_el in old_mapping.items():
        if base_el not in net.concepts:
            continue
        old = net.concepts[inst_el]
        new_id = grow_concept(net, base_el, trace)
        fresh = net.concepts[new_id]
        fresh.params = dict(old.params)
        fresh.value = old.value
        net.set_state(new_id, old.state.copy())
        new_mapping[base_el] = new_id
    for base_el, inst_el in old_mapping.items():
        if base_el not in net.relations:
            continue
        old_rel = net.relations[inst_el]
        im_a = new_mapping.get(_base_of_endpoint(old_mapping, old_rel.a))
        im_b = new_mapping.get(_base_of_endpoint(old_mapping, old_rel.b))
        if im_a is None or im_b is None:
            continue
        link = grow_link(net, im_a, base_el, im_b, config=config, ledger=ledger, trace=trace)
        net.set_state(link, old_rel.state.copy())
        new_mapping[base_el] = link

    new_root = new_mapping[instance.base_root]
    version_link = grow_link(
        net, tree_root, base_rel.id, new_root, config=config, ledger=ledger, trace=trace
    )
    net.tree_instances.append(
        TreeInstance(base_root=instance.base_root, root=new_root, mapping=new_mapping)
    )

    if not keep_history:
        removed: list[str] = []
        for el in old_mapping.values():
            if not net.has(el):
                continue
            for gone in net.remove_element(el):
                trace.record("prune", gone, gone, 0.0, 0.0)
                removed.append(gone)
        ledger.seal_elements(removed)
        net.tree_instances.remove(instance)
    return new_root


def _base_of_endpoint(mapping: dict[str, str], inst_el: str) -> Optional[str]:
    for base_el, mapped in mapping.items():
        if mapped == inst_el:
            return base_el
    return None


# ---------------------------------------------------------------------------
# sessions

# A session line record is a tag and then its type's fields in the order the
# type declares them.  ``_RECORDS`` gives each field one codec: a write, an
# expression over the field value ``{}`` that makes its text, and a read that
# raises ValueError on any text the write could not make.  The table is the
# one statement of the line format, for writing and reading alike.


def _read_id(text: str) -> str:
    if not text or text == "-" or "=" in text or "," in text:
        raise ValueError(f"bad id {text!r}")
    return text


def _read_int(text: str) -> int:
    if str(value := int(text)) != text:  # only the text a write makes: no sign, space or leading zero
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def _read_float(text: str) -> float:
    value = float(text)
    if not isfinite(value) or repr(value) != text:  # only the text a write makes: the repr
        raise ValueError(f"{text!r} is no finite number as a write makes it")
    return value


def _read_one_of(values: dict):
    """The read of a field whose text must be one of ``values``' keys."""
    def read(text: str):
        if text not in values:
            raise ValueError(f"{text!r} is not one of {sorted(values)}")
        return values[text]
    return read


def _read_pairs(text: str) -> dict[str, str]:
    mapping = {}
    for pair in text.split(","):
        base_el, sep, inst_el = pair.partition("=")
        if not sep or base_el in mapping:
            raise ValueError(f"bad base=instance pair {pair!r}")
        mapping[_read_id(base_el)] = _read_id(inst_el)
    return mapping


def _or_dash(read, empty):
    """The read of a field whose empty value, made by ``empty()``, is written ``-``."""
    return lambda text: empty() if text == "-" else read(text)


_INT = ("{}", _read_int)
_FLOAT = ("{}!r", _read_float)
_FLAG = ("1 if {} else 0", _read_one_of({"0": False, "1": True}))
_ID = ("{}", _read_id)
_KIND = ("{}", _read_one_of({kind: kind for kind in EVENT_KINDS}))
_OPTIONAL_ID = ("{} or '-'", _or_dash(_read_id, lambda: None))
_ROOT = ("{} or '-'", _or_dash(_read_id, str))
_LIST = ("','.join({}) or '-'", _or_dash(lambda text: [_read_id(item) for item in text.split(",")], list))
_PAIRS = ("','.join(map('='.join, {}.items())) or '-'", _or_dash(_read_pairs, dict))


def _record(tag: str, cls, *codecs) -> tuple:
    """A table entry: the line's field count, its writer and its reader.

    Both are compiled once from the codecs, as ``dataclasses`` compiles
    ``__init__``, so a line costs what a hand-written f-string or parse does.
    For ``defer``: ``lambda records: [f"defer {r.instance_index} {r.base_member}"
    for r in records]`` and ``lambda p: cls(read1(p[1]), read2(p[2]))``.
    """
    named = zip(fields(cls), codecs, strict=True)
    writes = " ".join("{%s}" % write.format("r." + f.name) for f, (write, _) in named)
    reads = {f"read{i}": read for i, (_, read) in enumerate(codecs, 1)}
    calls = ", ".join(f"{name}(p[{i}])" for i, name in enumerate(reads, 1))
    write = eval(f'lambda records: [f"{tag} {writes}" for r in records]', {})
    return len(codecs), write, eval(f"lambda p: cls({calls})", {"cls": cls, **reads})


_RECORDS = {tag: _record(tag, *spec) for tag, spec in {
    "instance": (TreeInstance, _ID, _ROOT, _PAIRS),
    "launch": (LaunchRecord, _INT, _ID, _FLOAT, _FLAG),
    "entry": (LedgerEntry, _INT, _ID, _ID, _ID, _FLOAT, _FLAG),
    "fragment": (FragmentRecord, _ID, _FLOAT, _OPTIONAL_ID, _FLAG, _FLAG, _FLAG, _OPTIONAL_ID, _LIST),
    "defer": (DeferredGrowth, _INT, _ID),
    "event": (TraceEvent, _INT, _KIND, _ID, _ID, _FLOAT, _FLOAT),
}.items()}


def _decoded(read, text, line: str, line_no: int):
    """``read(text)``, where a ValueError becomes a LoadError naming the line."""
    try:
        return read(text)
    except ValueError as err:
        raise LoadError(f"{err} in {line!r}", line_no) from None


def _read_record(line: str, line_no: int):
    """The record a line writes; LoadError unless its tag, field count and every field are right."""
    parts = line.split()
    entry = _RECORDS.get(parts[0]) if parts else None
    if entry is None or len(parts) != entry[0] + 1:
        raise LoadError(f"bad record line {line!r}", line_no)
    return _decoded(entry[2], parts, line, line_no)


def _write_block(name: str, lines: Iterable[str] = (), **records: Iterable) -> list[str]:
    """Block ``name``: the given lines, then the records of each tag, one line each."""
    body = [line for tag, items in records.items() for line in _RECORDS[tag][1](items)]
    return [f"begin {name}", *lines, *body, f"end {name}"]


def _state_lines(state: FitState) -> list[str]:
    net, ledger = state.net, state.ledger
    return [
        *_write_block("net", serialize_kb(net, with_state=True).split("\n")[:-1]),  # each line ends in "\n"
        *_write_block("counters", [f"{key}={value}" for key, value in net.counters.items()]),
        *_write_block("instances", instance=net.tree_instances),
        *_write_block(
            "ledger", [f"next_launch_id={ledger.next_launch_id}"],
            launch=ledger.launches, entry=ledger.entries,
        ),
        *_write_block("fragments", fragment=state.fragments),
        *_write_block("deferred", defer=state.deferred),
    ]


def session_save(task: FitTask, sink: Union[str, os.PathLike, TextIO, None] = None) -> str:
    """Serialize a task as one canonical text payload; save-load-save is byte-identical."""
    config = [f"{f.name}={format_config_value(getattr(task.config, f.name))}" for f in fields(task.config)]
    out = [
        SESSION_HEADER,
        *_write_block("config", config),
        *_write_block("task", [f"processed={task.processed}"]),
        *_write_block("kb", serialize_kb(task.kb).split("\n")[:-1]),
        *_write_block("trace", [f"next_step={task.trace.next_step}"], event=task.trace.events),
    ]
    for index, state in enumerate(task.states):
        out += _write_block(f"state {index}", _state_lines(state))
    for fork in task.forks:
        out += [f"begin fork {fork.fragment_index} {fork.base_root}", *_state_lines(fork.state), "end fork"]
    out.append("end session")
    payload = "\n".join(out) + "\n"
    if sink is None:
        return payload
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return payload


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.line_no = 0  # of the line read last

    def next(self) -> str:
        if self.line_no >= len(self.lines):
            raise LoadError("unexpected end of payload", self.line_no + 1)
        self.line_no += 1
        return self.lines[self.line_no - 1]

    def expect(self, token: str) -> None:
        line = self.next()
        if line != token:
            raise LoadError(f"expected {token!r}, found {line!r}", self.line_no)


def _read_block(reader: _Reader, name: str) -> tuple[list[str], int]:
    """The lines between ``begin name`` and ``end name``, and the line number of the first."""
    reader.expect(f"begin {name}")
    start = reader.line_no
    try:
        end = reader.lines.index(f"end {name}", start)
    except ValueError:
        raise LoadError(f"no 'end {name}' line", len(reader.lines) + 1) from None
    reader.line_no = end + 1
    return reader.lines[start:end], start + 1


def _parse_block_kb(reader: _Reader, name: str) -> CognitiveNetwork:
    """A block of KB text; a parse error names its line in the payload."""
    lines, first = _read_block(reader, name)
    try:
        return parse_kb("\n".join(lines))
    except ParseError as err:
        raise LoadError(str(err), first + err.line - 1) from err


def _read_records(reader: _Reader, name: str, *tags: str, keys: Optional[Container[str]] = ()):
    """Block ``name``: its records of the given tags, each as (line number, line, record),
    and its ``key=int`` values; ``keys`` None allows any key."""
    records: list[tuple[int, str, object]] = []
    values: dict[str, int] = {}
    for line_no, line in enumerate(*_read_block(reader, name)):
        if line.partition(" ")[0] in tags:
            records.append((line_no, line, _read_record(line, line_no)))
            continue
        key, sep, value = line.partition("=")
        if not sep or (keys is not None and key not in keys):
            raise LoadError(f"bad {name} line {line!r}", line_no)
        values[key] = _decoded(_read_int, value, line, line_no)
    return records, values


def _load_state(reader: _Reader, mode: Mode) -> FitState:
    begin = reader.line_no + 1
    net = _parse_block_kb(reader, "net")
    if mode is _EXACT:  # only Mode.SIMPLIFIED adds contributions past 1
        for element_id in net.element_ids():
            if net.element(element_id).state.result_prob > 1.0:
                raise LoadError(f"result probability of {element_id} passes 1 in exact mode", begin)
    net.counters.update(_read_records(reader, "counters", keys=None)[1])
    for line_no, line, inst in _read_records(reader, "instances", "instance")[0]:
        named = [*inst.mapping, *inst.mapping.values(), *([inst.root] if inst.root else [])]
        if inst.base_root not in net.trees or not all(map(net.has, named)):
            raise LoadError(f"instance line {line!r} names no tree or element of the state's net", line_no)
        net.tree_instances.append(inst)
    ledger = ContributionLedger()
    records, values = _read_records(reader, "ledger", "launch", "entry", keys={"next_launch_id"})
    ledger.next_launch_id = values.get("next_launch_id", ledger.next_launch_id)
    for _, _, rec in records:
        if isinstance(rec, LaunchRecord):
            ledger.launches.append(rec)
        else:
            ledger.add(rec)
    fragments: list[FragmentRecord] = []
    for line_no, line, frag in _read_records(reader, "fragments", "fragment")[0]:
        if not net.has(frag.element):
            raise LoadError(f"fragment line {line!r} names no element of the state's net", line_no)
        fragments.append(frag)
    deferred: list[DeferredGrowth] = []
    for line_no, line, entry in _read_records(reader, "deferred", "defer")[0]:
        index = entry.instance_index
        if not 0 <= index < len(net.tree_instances):
            raise LoadError(f"deferred line {line!r} names no tree instance of the state", line_no)
        if entry.base_member not in net.trees[net.tree_instances[index].base_root].concepts:
            raise LoadError(f"deferred line {line!r} names no concept of its instance's base tree", line_no)
        deferred.append(entry)
    return FitState(net=net, ledger=ledger, fragments=fragments, deferred=deferred)


def session_load(source: Union[str, os.PathLike, TextIO]) -> FitTask:
    """Parse a saved session; corrupt or truncated payloads fail atomically."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        path = os.fspath(source)
        if "\n" not in path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = path
    reader = _Reader(text)
    reader.expect(SESSION_HEADER)

    config_kw: dict[str, object] = {}
    for line_no, line in enumerate(*_read_block(reader, "config")):
        key, _, value = line.partition("=")
        if key != "discard_floor":  # older sessions write it; it sets nothing now
            config_kw[key] = _decoded(lambda text: parse_config_value(key, text), value, line, line_no)
    try:
        config = EngineConfig(**config_kw)
    except DcnetError as err:
        raise LoadError(f"bad config: {err}", reader.line_no) from err

    processed = _read_records(reader, "task", keys={"processed"})[1].get("processed", 0)
    kb = _parse_block_kb(reader, "kb")
    knowledge = kb.element_set()
    trace = Trace()
    events, values = _read_records(reader, "trace", "event", keys={"next_step"})
    trace.next_step = values.get("next_step", 0)
    trace.events.extend(event for _, _, event in events)

    states: list[FitState] = []
    forks: list[Fork] = []
    while (line := reader.next()) != "end session":
        match line.split():
            case ["begin", "state", index]:
                state = _load_state(reader, config.mode)
                reader.expect(f"end state {index}")
                states.append(state)
            case ["begin", "fork", index, base_root]:
                at = reader.line_no
                fragment_index = _decoded(_read_int, index, line, at)
                state = _load_state(reader, config.mode)
                if not 0 <= fragment_index < len(state.fragments) or base_root not in kb.trees:
                    raise LoadError(f"fork line {line!r} names no fragment of its state or tree of its kb", at)
                reader.expect("end fork")
                forks.append(Fork(state=state, fragment_index=fragment_index, base_root=base_root))
            case _:
                raise LoadError(f"unexpected line {line!r}", reader.line_no)
        state.net.knowledge = knowledge

    return FitTask(
        kb=kb, config=config, trace=trace, states=states, forks=forks, processed=processed
    )
