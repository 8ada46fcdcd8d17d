"""Instance growth and the omnidirectional scene-fit loop.

Growth copies knowledge templates into instance elements: single concepts,
links (bidirectional or with an auto-grown far end), and whole trees.  The fit
loop schedules input fragments by their current result probability, matches
them against knowledge trees, grows the winning interpretation, propagates,
collapses, and suppresses losers, until every fragment is consumed.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    Gaussian,
    GrowthBlockedError,
    ProbabilityState,
    Relation,
    RelationKind,
    Status,
    StructureError,
    TreeInstance,
    TreeNetworkView,
    belongs_to,
    down_closure,
    fits,
    kind_compatible,
)
from .matching import MatchResult, match_nested, trees_taking
from .probability import (
    ContributionLedger,
    EngineConfig,
    mean_probability,
    pps_launch,
    settle,
    undo_launch,
)
from .trace import Trace

__all__ = [
    "grow_concept", "grow_link", "grow_tree",
    "FragmentRecord", "FitState", "FitTask", "ConceptSpec", "RelationSpec", "FitReport",
    "make_task", "fit_step", "fit_run",
]

# Enum members read as globals, as in ``core``: a class attribute read costs far more on 3.10-3.11.
_BELONG_TO = RelationKind.BELONG_TO
_XOR = RelationKind.XOR
_SUPERPOSED = Status.SUPERPOSED
_COLLAPSED = Status.COLLAPSED
_SUPPRESSED = Status.SUPPRESSED


# ---------------------------------------------------------------------------
# basic growth operations


def grow_concept(
    net: CognitiveNetwork,
    base: str,
    trace: Optional[Trace] = None,
) -> str:
    """Copy a template concept: fresh id, copied parameters, belong-to edge, zero state."""
    base_el = net.element(base)
    if base_el.state.status is _SUPPRESSED:
        raise GrowthBlockedError(f"growth from suppressed element {base} is blocked")
    new_id = net.next_id(base)
    concept = Concept(id=new_id, name=getattr(base_el, "name", "") or base)
    if isinstance(base_el, Concept):
        concept.params = dict(base_el.params)
    net.add_concept(concept)
    net.add_belong(new_id, base)
    if trace is not None:
        trace.record("grow", base, new_id, 0.0, 0.0)
    return new_id


def grow_relation(net: CognitiveNetwork, base_rel_id: str, a: str, b: str, trace: Trace) -> str:
    """Copy a template relation between two ends: fresh id, copied kind, conditionals and params."""
    base_rel = net.relations[base_rel_id]
    rel_id = net.next_id(base_rel_id)
    net.add_relation(Relation(
        id=rel_id, kind=base_rel.kind, a=a, b=b, cond=base_rel.cond.copy(),
        base=base_rel_id, params=dict(base_rel.params),
    ))
    trace.record("grow", base_rel_id, rel_id, 0.0, 0.0)
    return rel_id


def _find_existing_link(
    net: CognitiveNetwork, a: str, b: str, base_rel: Relation
) -> Optional[Relation]:
    for rel_id in net.incident_view(a):
        rel = net.relations[rel_id]
        if rel.kind is not base_rel.kind:
            continue
        if rel.a == a and rel.b == b and rel.base in (None, base_rel.id):
            return rel
    return None


def grow_link(
    net: CognitiveNetwork,
    a: str,
    base_rel_id: str,
    b: Optional[str] = None,
    *,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> str:
    """Connect two instances by a relation derived from a template.

    Without ``b`` the far endpoint is grown first (unidirectional growth).
    A matching existing relation is reused rather than duplicated.  After the
    connection, launches whose reach the new edge changes are undone and redone
    so probability flows across it in both directions.
    """
    base_rel = net.relations[base_rel_id]
    if net.element(a).state.status is _SUPPRESSED:
        raise GrowthBlockedError(f"growth from suppressed element {a} is blocked")

    if fits(net, a, base_rel.a):
        a_slot, far_base = True, base_rel.b
    elif fits(net, a, base_rel.b):
        a_slot, far_base = False, base_rel.a
    else:
        raise StructureError(
            f"{a} fits neither end of base relation {base_rel_id}"
        )

    if b is None:
        b = grow_concept(net, far_base, trace)
    elif net.element(b).state.status is _SUPPRESSED:
        raise GrowthBlockedError(f"growth from suppressed element {b} is blocked")

    end_a, end_b = (a, b) if a_slot else (b, a)
    existing = _find_existing_link(net, end_a, end_b, base_rel)
    if existing is not None:
        if existing.base is None:
            net.set_base(existing.id, base_rel_id)
        return existing.id

    rel_id = grow_relation(net, base_rel_id, end_a, end_b, trace)
    _exchange_probability(net, a, b, config, ledger, trace)
    return rel_id


def _exchange_probability(
    net: CognitiveNetwork,
    a: str,
    b: str,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> None:
    """Cancel and redo the launches a new connection invalidates."""
    touched = ledger.launches_into((a, b))
    affected = [
        rec
        for rec in ledger.launches
        if not rec.sealed
        and (rec.launch_id in touched or (rec.source in (a, b) and net.element(rec.source).state.launched))
    ]
    if not affected:
        return
    for rec in reversed(affected):
        undo_launch(net, ledger, rec.launch_id, config.mode)
    for rec in affected:
        src_state = net.element(rec.source).state
        if src_state.status is _SUPPRESSED:
            continue
        pps_launch(net, rec.source, rec.delta, config, ledger, trace, launch=rec)


# ---------------------------------------------------------------------------
# tree growth


def _tree_relations(net: CognitiveNetwork, tree: TreeNetworkView) -> list[Relation]:
    return [net.relations[r] for r in tree.longitudinal + tree.additional]


def _projection(
    net: CognitiveNetwork,
    tree: TreeNetworkView,
    member: str,
    mapping: dict[str, str],
) -> float:
    """One-hop inflow estimate for an unmapped member from already-mapped neighbors."""
    best = 0.0
    for rel in _tree_relations(net, tree):
        if rel.a == member and rel.b in mapping:
            spec = rel.cond.backward
            source = mapping[rel.b]
        elif rel.b == member and rel.a in mapping:
            spec = rel.cond.forward
            source = mapping[rel.a]
        else:
            continue
        if isinstance(spec, Gaussian):
            continue
        best = max(best, net.element(source).state.result_prob * float(spec))
    return best


def _existing_instance(
    net: CognitiveNetwork,
    base: str,
    mapped: set[str],
) -> Optional[str]:
    """The first live instance concept of ``base`` (in ``element_ids()`` order) not yet mapped."""
    found = (
        e for e in down_closure(net, base)
        if e in net.concepts and e != base and e not in net.knowledge and e not in mapped
        and net.element(e).state.status is not _SUPPRESSED
    )
    return min(found, key=net.position_key, default=None)


def _place_member(
    net: CognitiveNetwork,
    tree: TreeNetworkView,
    mapping: dict[str, str],
    member: str,
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> bool:
    """Map a base member to an existing or a new instance and link it; False defers it.

    A member is deferred while both its projected inflow and the result
    probability of the instance it would reuse stay below activation.
    """
    existing = _existing_instance(net, member, set(mapping.values()))
    own = net.element(existing).state.result_prob if existing is not None else 0.0
    projected = _projection(net, tree, member, mapping)
    if projected < config.activation_threshold and own < config.activation_threshold:
        return False
    mapping[member] = existing if existing is not None else grow_concept(net, member, trace)
    _link_mapped_relations(net, tree, mapping, config, ledger, trace)
    return True


def grow_tree(
    net: CognitiveNetwork,
    seed_mapping: dict[str, str],
    base_tree: TreeNetworkView,
    config: EngineConfig,
    *,
    ledger: ContributionLedger,
    trace: Trace,
    instance: Optional[TreeInstance] = None,
) -> tuple[TreeInstance, list[str]]:
    """Instantiate a base tree around seed elements.

    Seeds gain belong-to edges to their counterparts; remaining base elements
    are instantiated one by one, except those whose projected probability stays
    below the activation threshold, which are deferred.  Returns the (possibly
    extended) tree instance and the list of deferred base members.
    """
    for base_el, inst_el in seed_mapping.items():
        if base_el in net.relations:
            if not kind_compatible(net, inst_el, base_el):
                raise StructureError(
                    f"seed {inst_el} is kind-incompatible with base relation {base_el}"
                )
        elif not belongs_to(net, inst_el, base_el):
            net.add_belong(inst_el, base_el)

    if instance is None:
        instance = TreeInstance(base_root=base_tree.root, root="", mapping={})
        net.tree_instances.append(instance)
    mapping = instance.mapping
    mapping.update(seed_mapping)

    deferred: list[str] = []
    for member in base_tree.concepts:
        if member not in mapping and not _place_member(
            net, base_tree, mapping, member, config, ledger, trace
        ):
            deferred.append(member)

    _link_mapped_relations(net, base_tree, mapping, config, ledger, trace)
    instance.root = mapping.get(base_tree.root, instance.root)
    return instance, deferred


def _link_mapped_relations(
    net: CognitiveNetwork,
    tree: TreeNetworkView,
    mapping: dict[str, str],
    config: EngineConfig,
    ledger: ContributionLedger,
    trace: Trace,
) -> None:
    for rel in _tree_relations(net, tree):
        if rel.id in mapping:
            continue
        im_a, im_b = mapping.get(rel.a), mapping.get(rel.b)
        if im_a is None or im_b is None:
            continue
        mapping[rel.id] = grow_link(
            net, im_a, rel.id, im_b, config=config, ledger=ledger, trace=trace
        )


# ---------------------------------------------------------------------------
# fit task


@dataclass
class FragmentRecord:
    element: str
    input_prob: float
    base: Optional[str] = None
    var: bool = False
    consumed: bool = False
    unmatched: bool = False
    grown_root: Optional[str] = None
    excluded: list[str] = field(default_factory=list)


@dataclass
class DeferredGrowth:
    instance_index: int
    base_member: str


@dataclass
class FitState:
    net: CognitiveNetwork
    ledger: ContributionLedger = field(default_factory=ContributionLedger)
    fragments: list[FragmentRecord] = field(default_factory=list)
    deferred: list[DeferredGrowth] = field(default_factory=list)

    @property
    def kb_ids(self) -> frozenset[str]:
        """``net.knowledge``, read-only; kept for callers outside the engine."""
        return self.net.knowledge

    def content_ids(self) -> list[str]:
        """Instance elements minus belong-to glue: the scene content proper."""
        out = []
        for e in self.net.instance_ids():
            rel = self.net.relations.get(e)
            if rel is not None and rel.kind is _BELONG_TO:
                continue
            out.append(e)
        return out

    def pending(self) -> list[FragmentRecord]:
        return [f for f in self.fragments if not f.consumed]

    def all_consumed(self) -> bool:
        return all(f.consumed for f in self.fragments)

    def fork(self) -> "FitState":
        """A state that goes on apart from this one.

        Its network is a layer over this one's (``CognitiveNetwork.layer``),
        so a fork costs the scene, not the knowledge; the ledger, the fragments
        and the deferred growth are copied.
        """
        fragments = [copy.copy(frag) for frag in self.fragments]
        for frag in fragments:
            frag.excluded = list(frag.excluded)
        # a DeferredGrowth is never changed in place, so the entries are shared
        return FitState(self.net.layer(), self.ledger.copy(), fragments, list(self.deferred))

    def fully_collapsed(self, content_ids: Optional[Sequence[str]] = None) -> bool:
        """Every content element collapsed or suppressed, and at least one collapsed.

        ``content_ids``, if given, must be what ``content_ids()`` returns now.
        """
        if content_ids is None:
            content_ids = self.content_ids()
        seen = {self.net.element(e).state.status for e in content_ids}
        return _COLLAPSED in seen and seen <= {_COLLAPSED, _SUPPRESSED}


@dataclass
class Fork:
    state: FitState
    fragment_index: int
    base_root: str


@dataclass
class FitTask:
    kb: CognitiveNetwork
    config: EngineConfig
    trace: Trace = field(default_factory=Trace)
    states: list[FitState] = field(default_factory=list)
    forks: list[Fork] = field(default_factory=list)
    processed: int = 0


@dataclass(slots=True)
class ConceptSpec:
    base: Optional[str]
    p: float = 0.0
    as_id: Optional[str] = None
    var: bool = False
    value: Optional[object] = None
    params: dict = field(default_factory=dict)
    line: int = field(default=0, compare=False, repr=False)  # where a scenario declared it


@dataclass(slots=True)
class RelationSpec:
    rel_id: str
    kind: RelationKind
    a: str
    b: str
    pba: object = 1.0
    pab: object = 1.0
    p: float = 0.0
    base: Optional[str] = None
    params: dict = field(default_factory=dict)
    line: int = field(default=0, compare=False, repr=False)  # where a scenario declared it


def make_task(
    kb: CognitiveNetwork,
    config: EngineConfig,
    concepts: Sequence[ConceptSpec] = (),
    relations: Sequence[RelationSpec] = (),
) -> FitTask:
    """Ingest input fragments into a fresh fit task, whose network is a layer over the knowledge.

    The layer (``CognitiveNetwork.layer``) shares the knowledge base's
    elements and indexes and copies in only what the task writes, so making a
    task costs the scene; neither the task nor a later change of ``kb`` sees
    the other's writes.
    """
    kb.validate()
    kb.seed_ready(config.collapse_at)  # so that the settles of the layer read the scene, not the knowledge
    state = FitState(net=kb.layer(knowledge=True))
    task = FitTask(kb=kb, config=config, states=[state])
    ingest(task, concepts, relations)
    return task


def ingest(
    task: FitTask,
    concepts: Sequence[ConceptSpec] = (),
    relations: Sequence[RelationSpec] = (),
    state_index: int = 0,
) -> None:
    """Add input fragments to a running task; the next round will consume them."""
    state = task.states[state_index]
    net = state.net

    for spec in concepts:
        base = spec.base if spec.base is not None and net.has(spec.base) else None
        inst_id = spec.as_id or net.next_id(spec.base or "input")
        if net.has(inst_id):
            raise StructureError(f"instance id {inst_id} already taken")
        # a name equal to the id is left empty, the one form the text formats keep
        name = spec.base if spec.base and spec.base != inst_id else ""
        concept = Concept(
            id=inst_id, name=name, params=dict(spec.params), state=ProbabilityState(spec.p, spec.p)
        )
        if spec.value is not None:
            concept.value = spec.value
        net.add_concept(concept)
        if base is not None:
            net.add_belong(inst_id, base)
        state.fragments.append(
            FragmentRecord(element=inst_id, input_prob=spec.p, base=spec.base, var=spec.var)
        )

    for spec in relations:
        net.add_relation(
            Relation(
                id=spec.rel_id,
                kind=spec.kind,
                a=spec.a,
                b=spec.b,
                cond=ConditionalProbabilityPair(forward=spec.pba, backward=spec.pab),
                base=spec.base,
                params=dict(spec.params),
                state=ProbabilityState(spec.p, spec.p),
            )
        )


# ---------------------------------------------------------------------------
# the fit loop


def _combine_context(state: FitState, element: str) -> list[str]:
    """The fragment element plus instance neighbors within one relation hop."""
    out = [element]
    net = state.net
    for rel_id in net.incident_view(element):
        if rel_id in net.knowledge:
            continue
        rel = net.relations[rel_id]
        if rel.kind in (_BELONG_TO, _XOR):
            continue
        far = rel.other_end(element)
        if far in net.knowledge:
            continue
        out.append(rel_id)
        if far not in out:
            out.append(far)
    return out


def _candidates(state: FitState, frag: FragmentRecord, config: EngineConfig) -> list[MatchResult]:
    """The trees that take the fragment, best first."""
    context = _combine_context(state, frag.element)
    found: list[MatchResult] = []
    # a result counts only if it maps the fragment, so trees that cannot take it are skipped
    for root in trees_taking(state.net, frag.element, config):
        if root in frag.excluded:
            continue
        result = match_nested(state.net, context, state.net.trees[root], config)
        if result.membership < config.activation_threshold:
            continue
        if frag.element not in result.mapping.pairs.values():
            continue
        found.append(result)
    found.sort(key=lambda r: (-r.membership, r.base))
    return found


def _tree_instance_for(state: FitState, base_root: str, mapping_hint: dict[str, str]):
    for inst in state.net.tree_instances:
        if inst.base_root != base_root:
            continue
        if any(inst.mapping.get(b) == d for b, d in mapping_hint.items()):
            return inst
    return None


def _commit(
    task: FitTask, state: FitState, frag: FragmentRecord, candidate: MatchResult
) -> None:
    """Grow the chosen interpretation, launch the fragment's input once and settle."""
    tree = state.net.trees[candidate.base]
    seed = dict(candidate.mapping.pairs)
    instance, deferred = grow_tree(
        state.net,
        seed,
        tree,
        task.config,
        ledger=state.ledger,
        trace=task.trace,
        instance=_tree_instance_for(state, candidate.base, seed),
    )
    idx = state.net.tree_instances.index(instance)
    known = {(d.instance_index, d.base_member) for d in state.deferred}
    for member in deferred:
        if (idx, member) not in known:
            state.deferred.append(DeferredGrowth(idx, member))
    frag.grown_root = candidate.base
    if frag.input_prob > 0.0 and not state.net.element(frag.element).state.launched:
        pps_launch(
            state.net, frag.element, frag.input_prob, task.config, state.ledger, task.trace
        )
    _settle_state(task, state)


def _process_deferred(task: FitTask, state: FitState) -> bool:
    progressed = False
    remaining: list[DeferredGrowth] = []
    for entry in state.deferred:
        instance = state.net.tree_instances[entry.instance_index]
        tree = state.net.trees[instance.base_root]
        member = entry.base_member
        if member in instance.mapping or _place_member(
            state.net, tree, instance.mapping, member, task.config, state.ledger, task.trace
        ):
            progressed = True
        else:
            remaining.append(entry)
    state.deferred = remaining
    return progressed


def _settle_state(task: FitTask, state: FitState) -> None:
    while True:
        settle(state.net, task.config, state.ledger, task.trace)
        if not _process_deferred(task, state):
            break
    # interpretations that lost: put their fragments back in play
    for frag in state.fragments:
        if not frag.consumed or frag.grown_root is None:
            continue
        for inst in state.net.tree_instances:
            if inst.base_root != frag.grown_root or not inst.root:
                continue
            if frag.element not in inst.mapping.values():
                continue
            if state.net.element(inst.root).state.status is _SUPPRESSED:
                if state.net.element(frag.element).state.status is _SUPERPOSED:
                    frag.consumed = False
                    frag.excluded.append(frag.grown_root)
                    frag.grown_root = None
                break


def _next_fragment(state: FitState) -> Optional[FragmentRecord]:
    best: Optional[FragmentRecord] = None
    best_p = -1.0
    for frag in state.fragments:
        if frag.consumed:
            continue
        status = state.net.element(frag.element).state.status
        if status is _SUPPRESSED or status is _COLLAPSED:
            frag.consumed = True
            continue
        p = state.net.element(frag.element).state.result_prob
        if p > best_p:
            best, best_p = frag, p
    return best


def _process_fragment(task: FitTask, state: FitState, frag: FragmentRecord) -> None:
    candidates = _candidates(state, frag, task.config)
    if not candidates:
        frag.unmatched = True
        frag.consumed = True
        return
    frag_index = state.fragments.index(frag)
    budget = task.config.branch_limit - len(task.states) - len(task.forks)
    for alt in candidates[1:]:
        if budget <= 0:
            break
        task.forks.append(Fork(state.fork(), frag_index, alt.base))
        budget -= 1
    frag.consumed = True
    _commit(task, state, frag, candidates[0])


def fit_step(task: FitTask) -> bool:
    """Advance by one fragment; returns False when nothing is pending anywhere."""
    for state in task.states:
        frag = _next_fragment(state)
        if frag is not None:
            _process_fragment(task, state, frag)
            break
    else:
        if not task.forks:
            return False
        # a fork resumes its snapshot with the alternative it was made for
        fork = task.forks.pop(0)
        task.states.append(fork.state)
        frag = fork.state.fragments[fork.fragment_index]
        frag.consumed = True
        for candidate in _candidates(fork.state, frag, task.config):
            if candidate.base == fork.base_root:
                _commit(task, fork.state, frag, candidate)
                break
    task.processed += 1
    return True


@dataclass
class FitReport:
    task: FitTask
    ranking: list[int]
    selected: int
    absolute: bool
    complete: bool
    unmatched: list[str]

    def selected_state(self) -> FitState:
        return self.task.states[self.selected]


def fit_run(task: FitTask, limit: Optional[int] = None) -> FitReport:
    """Run the fit loop to completion (or for ``limit`` fragment steps) and rank results.

    A state whose every instance element collapsed is the absolute optimal
    result; otherwise states rank by mean instance result probability.
    """
    steps = 0
    while limit is None or steps < limit:
        if not fit_step(task):
            break
        steps += 1
    complete = not task.forks and all(s.all_consumed() for s in task.states)

    contents = [s.content_ids() for s in task.states]
    means = [mean_probability(s.net, ids) for s, ids in zip(task.states, contents)]
    collapsed = [s.fully_collapsed(ids) for s, ids in zip(task.states, contents)]
    order = sorted(range(len(task.states)), key=lambda i: (not collapsed[i], -means[i], i))
    selected = order[0] if order else 0
    unmatched = [
        f.element
        for f in task.states[selected].fragments
        if f.unmatched
    ] if task.states else []
    return FitReport(
        task=task,
        ranking=order,
        selected=selected,
        absolute=bool(task.states) and collapsed[selected],
        complete=complete,
        unmatched=unmatched,
    )
