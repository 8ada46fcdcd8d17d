"""Reduction, chained reasoning, version iteration, and session persistence.

A fit task is the unit of continuous calculation: everything it owns (networks,
ledgers, configuration, fragment queue, trace position) serializes as one
canonical text payload, so saving, loading and resuming behaves exactly like
never having stopped.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, TextIO, Union

from .core import (
    CognitiveNetwork,
    Concept,
    DcnetError,
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
    Gaussian,
    LaunchRecord,
    LedgerEntry,
    Mode,
    format_config_value,
    parse_config_value,
)
from .trace import Trace, TraceEvent


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
    keep_roots: bool = True
    keep: set[str] = field(default_factory=set)
    min_granularity: Optional[int] = None


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
    """Cut collapsed low-level members of fully collapsed trees, keeping roots.

    Ledger history around removed elements is sealed: later undo operations
    will not touch it.  Root probabilities are untouched by construction.
    """
    report = PruneReport()
    for instance in net.tree_instances:
        ids = [e for e in instance.mapping.values() if net.has(e)]
        if not ids or not instance.root or not net.has(instance.root):
            continue
        if any(net.state(e).status is not Status.COLLAPSED for e in ids):
            continue
        levels = _member_levels(net, instance)
        removable: list[str] = []
        for base_el, inst_el in instance.mapping.items():
            if inst_el == instance.root and policy.keep_roots:
                continue
            if policy.min_granularity is not None and levels.get(base_el, 1) < policy.min_granularity:
                if inst_el in policy.keep:
                    report.warnings.append(
                        f"{inst_el}: protected and below the granularity bound; kept"
                    )
                continue
            if inst_el in policy.keep:
                report.warnings.append(f"{inst_el}: protected from pruning; kept")
                continue
            removable.append(inst_el)
        for inst_el in removable:
            if not net.has(inst_el):
                continue
            for el in net.remove_element(inst_el):
                if ledger is not None:
                    ledger.seal_element(el)
                if trace is not None:
                    trace.record("prune", el, el, 0.0, 0.0)
                report.removed.append(el)
        instance.mapping = {
            b: e for b, e in instance.mapping.items() if net.has(e)
        }
    report.kept = [e for e in net.element_ids()]
    return report


def _member_levels(net: CognitiveNetwork, instance: TreeInstance) -> dict[str, int]:
    tree = net.trees.get(instance.base_root)
    levels = {instance.base_root: 0}
    if tree is None:
        return levels
    frontier = [instance.base_root]
    while frontier:
        cur = frontier.pop(0)
        for rel_id in tree.longitudinal:
            rel = net.relations.get(rel_id)
            if rel is None or rel.a != cur or rel.b in levels:
                continue
            levels[rel.b] = levels[cur] + 1
            frontier.append(rel.b)
    return levels


def prune_task(task: FitTask, policy: PrunePolicy, state_index: int = 0) -> PruneReport:
    """Prune a fit state, protecting elements still referenced by pending fragments."""
    state = task.states[state_index]
    merged = PrunePolicy(
        keep_roots=policy.keep_roots,
        keep=set(policy.keep) | {f.element for f in state.pending()},
        min_granularity=policy.min_granularity,
    )
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
        for el in old_mapping.values():
            if not net.has(el):
                continue
            for gone in net.remove_element(el):
                ledger.seal_element(gone)
                trace.record("prune", gone, gone, 0.0, 0.0)
        net.tree_instances.remove(instance)
    return new_root


def _base_of_endpoint(mapping: dict[str, str], inst_el: str) -> Optional[str]:
    for base_el, mapped in mapping.items():
        if mapped == inst_el:
            return base_el
    return None


# ---------------------------------------------------------------------------
# sessions


def _config_lines(config: EngineConfig) -> list[str]:
    return [f"{f.name}={format_config_value(getattr(config, f.name))}" for f in fields(config)]


def _emit_state(state: FitState, out: list[str]) -> None:
    out.append("begin net")
    text = serialize_kb(state.net, with_state=True)
    if text:
        out.extend(text.rstrip("\n").split("\n"))
    out.append("end net")
    out.append("begin counters")
    for key, value in state.net.counters.items():
        out.append(f"{key}={value}")
    out.append("end counters")
    out.append("begin instances")
    for inst in state.net.tree_instances:
        pairs = ",".join(f"{b}={d}" for b, d in inst.mapping.items())
        out.append(f"instance {inst.base_root} {inst.root or '-'} {pairs or '-'}")
    out.append("end instances")
    out.append("begin ledger")
    out.append(f"next_launch_id={state.ledger.next_launch_id}")
    for rec in state.ledger.launches:
        out.append(
            f"launch {rec.launch_id} {rec.source} {rec.delta!r} {1 if rec.sealed else 0}"
        )
    for entry in state.ledger.entries:
        out.append(
            f"entry {entry.launch_id} {entry.source} {entry.target} {entry.via} "
            f"{entry.contribution!r} {1 if entry.sealed else 0}"
        )
    out.append("end ledger")
    out.append("begin fragments")
    for frag in state.fragments:
        out.append(
            "fragment "
            f"{frag.element} {frag.input_prob!r} {frag.base or '-'} "
            f"{1 if frag.var else 0} {1 if frag.consumed else 0} "
            f"{1 if frag.unmatched else 0} {frag.grown_root or '-'} "
            f"{','.join(frag.excluded) or '-'}"
        )
    out.append("end fragments")
    out.append("begin deferred")
    for entry in state.deferred:
        out.append(f"defer {entry.instance_index} {entry.base_member}")
    out.append("end deferred")


def session_save(task: FitTask, sink: Union[str, os.PathLike, TextIO, None] = None) -> str:
    """Serialize a task as one canonical text payload; save-load-save is byte-identical."""
    out: list[str] = [SESSION_HEADER]
    out.append("begin config")
    out.extend(_config_lines(task.config))
    out.append("end config")
    out.append("begin task")
    out.append(f"processed={task.processed}")
    out.append("end task")
    out.append("begin kb")
    kb_text = serialize_kb(task.kb)
    if kb_text:
        out.extend(kb_text.rstrip("\n").split("\n"))
    out.append("end kb")
    out.append("begin trace")
    out.append(f"next_step={task.trace.next_step}")
    for ev in task.trace.events:
        out.append(
            f"event {ev.step} {ev.event} {ev.src} {ev.dst} {ev.value!r} {ev.result!r}"
        )
    out.append("end trace")
    for index, state in enumerate(task.states):
        out.append(f"begin state {index}")
        _emit_state(state, out)
        out.append(f"end state {index}")
    for fork in task.forks:
        out.append(f"begin fork {fork.fragment_index} {fork.base_root}")
        _emit_state(fork.state, out)
        out.append("end fork")
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
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise LoadError("unexpected end of payload", self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, token: str) -> None:
        line = self.next()
        if line != token:
            raise LoadError(f"expected {token!r}, found {line!r}", self.pos)

    def peek(self) -> Optional[str]:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos]


def _read_block(reader: _Reader, name: str) -> list[tuple[int, str]]:
    """The lines between ``begin name`` and ``end name``, each with its line number."""
    reader.expect(f"begin {name}")
    body: list[tuple[int, str]] = []
    terminator = f"end {name}"
    while True:
        line = reader.next()
        if line == terminator:
            return body
        body.append((reader.line_no, line))


def _parse_block_kb(reader: _Reader, name: str) -> CognitiveNetwork:
    """A block of KB text; a parse error names its line in the payload."""
    first = reader.line_no + 2  # the line after ``begin name``
    body = _read_block(reader, name)
    try:
        return parse_kb("\n".join(line for _, line in body))
    except ParseError as err:
        raise LoadError(str(err), first + err.line - 1) from err


def _number(kind, text: str, line: str, line_no: int):
    """``kind(text)`` for an int or float field of a payload line; LoadError if malformed."""
    try:
        return kind(text)
    except ValueError:
        raise LoadError(f"not a number: {text!r} in {line!r}", line_no) from None


def _load_state(reader: _Reader, mode: Mode) -> FitState:
    begin = reader.line_no + 1
    net = _parse_block_kb(reader, "net")
    if mode is Mode.EXACT:  # only Mode.SIMPLIFIED adds contributions past 1
        for element_id in net.element_ids():
            if net.state(element_id).result_prob > 1.0:
                raise LoadError(f"result probability of {element_id} passes 1 in exact mode", begin)
    for line_no, line in _read_block(reader, "counters"):
        key, _, value = line.partition("=")
        net.counters[key] = _number(int, value, line, line_no)
    for line_no, line in _read_block(reader, "instances"):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "instance":
            raise LoadError(f"bad instance line {line!r}", line_no)
        mapping: dict[str, str] = {}
        if parts[3] != "-":
            for pair in parts[3].split(","):
                base_el, _, inst_el = pair.partition("=")
                mapping[base_el] = inst_el
        net.tree_instances.append(
            TreeInstance(
                base_root=parts[1],
                root="" if parts[2] == "-" else parts[2],
                mapping=mapping,
            )
        )
    ledger = ContributionLedger()
    for line_no, line in _read_block(reader, "ledger"):
        parts = line.split()
        if line.startswith("next_launch_id="):
            ledger.next_launch_id = _number(int, line.partition("=")[2], line, line_no)
        elif parts[:1] == ["launch"] and len(parts) == 5:
            ledger.launches.append(
                LaunchRecord(
                    _number(int, parts[1], line, line_no),
                    parts[2],
                    _number(float, parts[3], line, line_no),
                    parts[4] == "1",
                )
            )
        elif parts[:1] == ["launch"]:
            raise LoadError(f"bad launch line {line!r}", line_no)
        elif parts[:1] == ["entry"] and len(parts) == 7:
            ledger.add(
                LedgerEntry(
                    launch_id=_number(int, parts[1], line, line_no),
                    source=parts[2],
                    target=parts[3],
                    via=parts[4],
                    contribution=_number(float, parts[5], line, line_no),
                    sealed=parts[6] == "1",
                )
            )
        else:
            raise LoadError(f"bad ledger line {line!r}", line_no)
    fragments: list[FragmentRecord] = []
    for line_no, line in _read_block(reader, "fragments"):
        parts = line.split()
        if len(parts) != 9 or parts[0] != "fragment":
            raise LoadError(f"bad fragment line {line!r}", line_no)
        if not net.has(parts[1]):
            raise LoadError(f"fragment line {line!r} names no element of the state's net", line_no)
        fragments.append(
            FragmentRecord(
                element=parts[1],
                input_prob=_number(float, parts[2], line, line_no),
                base=None if parts[3] == "-" else parts[3],
                var=parts[4] == "1",
                consumed=parts[5] == "1",
                unmatched=parts[6] == "1",
                grown_root=None if parts[7] == "-" else parts[7],
                excluded=[] if parts[8] == "-" else parts[8].split(","),
            )
        )
    deferred: list[DeferredGrowth] = []
    for line_no, line in _read_block(reader, "deferred"):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "defer":
            raise LoadError(f"bad deferred line {line!r}", line_no)
        index = _number(int, parts[1], line, line_no)
        if not 0 <= index < len(net.tree_instances):
            raise LoadError(f"deferred line {line!r} names no tree instance of the state", line_no)
        tree = net.trees.get(net.tree_instances[index].base_root)
        if tree is None or parts[2] not in tree.concepts:
            raise LoadError(f"deferred line {line!r} names no concept of its instance's base tree", line_no)
        deferred.append(DeferredGrowth(index, parts[2]))
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
    header = reader.next()
    if header != SESSION_HEADER:
        raise LoadError(f"bad header {header!r}; expected {SESSION_HEADER!r}", 1)

    config_kw: dict[str, object] = {}
    for line_no, line in _read_block(reader, "config"):
        key, _, value = line.partition("=")
        try:
            config_kw[key] = parse_config_value(key, value)
        except ValueError as err:
            raise LoadError(f"bad config line {line!r}: {err}", line_no) from err
    try:
        config = EngineConfig(**config_kw)
    except DcnetError as err:
        raise LoadError(f"bad config: {err}", reader.line_no) from err

    processed = 0
    for line_no, line in _read_block(reader, "task"):
        key, _, value = line.partition("=")
        if key == "processed":
            processed = _number(int, value, line, line_no)

    kb = _parse_block_kb(reader, "kb")
    knowledge = kb.element_set()

    trace = Trace()
    for line_no, line in _read_block(reader, "trace"):
        if line.startswith("next_step="):
            trace.next_step = _number(int, line.partition("=")[2], line, line_no)
            continue
        parts = line.split()
        if len(parts) != 7 or parts[0] != "event":
            raise LoadError(f"bad trace line {line!r}", line_no)
        trace.events.append(
            TraceEvent(
                _number(int, parts[1], line, line_no),
                parts[2],
                parts[3],
                parts[4],
                _number(float, parts[5], line, line_no),
                _number(float, parts[6], line, line_no),
            )
        )

    states: list[FitState] = []
    forks: list[Fork] = []
    while True:
        line = reader.peek()
        if line is None:
            raise LoadError("missing end-of-session marker", reader.line_no + 1)
        if line == "end session":
            reader.next()
            break
        parts = line.split()
        if parts[:2] == ["begin", "state"] and len(parts) == 3:
            reader.next()
            state = _load_state(reader, config.mode)
            reader.expect(f"end state {parts[2]}")
            states.append(state)
        elif parts[:2] == ["begin", "fork"] and len(parts) == 4:
            reader.next()
            fragment_index = _number(int, parts[2], line, reader.line_no)
            state = _load_state(reader, config.mode)
            reader.expect("end fork")
            forks.append(Fork(state=state, fragment_index=fragment_index, base_root=parts[3]))
        else:
            raise LoadError(f"unexpected line {line!r}", reader.line_no + 1)
        state.net.knowledge = knowledge

    return FitTask(
        kb=kb, config=config, trace=trace, states=states, forks=forks, processed=processed
    )
