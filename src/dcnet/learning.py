"""Learning new tree networks from unexplained data.

When growth fails, adjacent unexplained instances are clustered into hypothesis
trees: a fresh root, one component relation per member, adjacency relations for
what was observed together, probabilities initialized to certainty and counts
to one.  Applications across later scenes re-estimate the hypotheses'
conditionals, and a hypothesis applied often enough is confirmed; structure
comes from a single sample, probabilities from many.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    Gaussian,
    Relation,
    RelationKind,
    Status,
    declare_tree,
    up_closure,
)
from .growth import ConceptSpec, FitReport, FitState, RelationSpec, fit_run, make_task
from .probability import EngineConfig, gaussian_membership, param_membership

__all__ = [
    "Scene", "KnowledgeCandidate", "DeviationStandard", "LearnReport", "MergeReport",
    "deviation_membership", "single_sample_structure", "cnl_run", "merge_similar",
]

# Enum members read as globals, as in ``core``: a class attribute read costs far more on 3.10-3.11.
_HAS_COMPONENT = RelationKind.HAS_COMPONENT
_ADJOINING = RelationKind.ADJOINING
_COLLAPSED = Status.COLLAPSED


@dataclass
class Scene:
    concepts: list[ConceptSpec] = field(default_factory=list)
    relations: list[RelationSpec] = field(default_factory=list)


@dataclass
class KnowledgeCandidate:
    tree_root: str
    success_count: int = 1
    trial_count: int = 1
    new_knowledge: bool = True
    member_counts: dict[str, int] = field(default_factory=dict)
    pair_counts: dict[tuple[str, str], int] = field(default_factory=dict)


@dataclass
class DeviationStandard:
    threshold: float = 0.5

    def meets(self, membership: float) -> bool:
        return membership >= self.threshold


@dataclass
class LearnReport:
    scenes: int = 0
    learned_roots: list[str] = field(default_factory=list)
    extended_roots: list[str] = field(default_factory=list)
    merged: list[tuple[str, str]] = field(default_factory=list)
    candidates: dict[str, KnowledgeCandidate] = field(default_factory=dict)
    estimates: dict[str, dict[str, tuple[float, float]]] = field(default_factory=dict)
    # estimation rule: P(member|root) = member scenes / root applications;
    # P(root|member) is fixed at 1.0, as every member occurrence counted is one
    # in an application of the root.


@dataclass
class MergeReport:
    merged: list[tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# deviation


def _spec_params(net: CognitiveNetwork, element_id: str) -> dict[str, object]:
    """Declared parameter specs gathered from the element's bases, nearest first."""
    specs: dict[str, object] = {}
    for cur in up_closure(net, element_id):
        if cur != element_id:
            for name, value in net.element(cur).params.items():
                specs.setdefault(name, value)
    return specs


def deviation_membership(
    net: CognitiveNetwork,
    element_ids: Sequence[str],
    reference: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> float:
    """Product of per-parameter memberships of observed values against declared specs.

    ``reference`` supplies observed values per element; without it the
    elements' own scalar parameters serve as the observation.  Parameters with
    no observation contribute factor one.
    """
    degree = 1.0
    for el_id in element_ids:
        specs = _spec_params(net, el_id)
        observed: Mapping[str, object]
        if reference is not None:
            observed = reference.get(el_id, {})
        else:
            observed = {
                k: v
                for k, v in net.element(el_id).params.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
        for name, spec in specs.items():
            value = observed.get(name)
            if value is None:
                continue
            degree *= param_membership(spec, value)
    return degree


# ---------------------------------------------------------------------------
# hypothesis construction


def _adjacency_components(unexplained: list[str], adjoining: Sequence[RelationSpec]) -> list[list[str]]:
    pool = set(unexplained)
    neighbors: dict[str, set[str]] = {e: set() for e in unexplained}
    for spec in adjoining:
        if spec.a in pool and spec.b in pool:
            neighbors[spec.a].add(spec.b)
            neighbors[spec.b].add(spec.a)
    components: list[list[str]] = []
    seen: set[str] = set()
    for el in unexplained:
        if el in seen:
            continue
        component = []
        frontier = [el]
        while frontier:
            cur = frontier.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            component.append(cur)
            frontier.extend(sorted(neighbors[cur] - seen))
        components.append(component)
    return components


def _placements_of(state: FitState) -> dict[str, tuple[str, str]]:
    """fragment element -> (base root, base member) in the selected state."""
    out: dict[str, tuple[str, str]] = {}
    fragment_elements = {f.element for f in state.fragments}
    for instance in state.net.tree_instances:
        for base_el, inst_el in instance.mapping.items():
            if inst_el in fragment_elements:
                out[inst_el] = (instance.base_root, base_el)
    return out


def _select(report: FitReport) -> FitState:
    """The optimization principle: among collapsed results, the smallest wins.

    Falls back to the fit ranking when no result is fully collapsed.
    """
    states = report.task.states
    collapsed = [i for i in report.ranking if states[i].fully_collapsed()]
    best = min(collapsed, key=lambda i: len(states[i].net.instance_ids()), default=report.selected)
    return states[best]


def _unexplained(state: FitState) -> list[str]:
    """Fragments no grown interpretation absorbed; probability flow alone is not an explanation."""
    absorbed: set[str] = set()
    for instance in state.net.tree_instances:
        absorbed.update(instance.mapping.values())
    out: list[str] = []
    for frag in state.fragments:
        if frag.unmatched or frag.element not in absorbed:
            if frag.element not in out:
                out.append(frag.element)
    return out


def _ensure_member_base(
    kb: CognitiveNetwork,
    spec: ConceptSpec,
    standard: Optional[DeviationStandard] = None,
) -> str:
    base_id = spec.base or kb.next_id("part")
    if not kb.has(base_id):
        concept = Concept(id=base_id)
        concept.params = dict(spec.params)
        kb.add_concept(concept)
        return base_id
    if standard is not None and spec.params:
        # an observation violating the existing definition founds a derived
        # variant carrying the observed parameters, rather than polluting it
        existing = kb.concepts.get(base_id)
        if existing is not None:
            degree = 1.0
            for name, declared in existing.params.items():
                value = spec.params.get(name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    degree *= param_membership(declared, value)
            if not standard.meets(degree):
                derived = kb.next_id(base_id)
                variant = Concept(id=derived, params=dict(spec.params))
                kb.add_concept(variant)
                kb.add_belong(derived, base_id)
                return derived
    return base_id


def _add_certain(
    kb: CognitiveNetwork,
    rel_id: str,
    kind: RelationKind,
    a: str,
    b: str,
    params: Optional[dict] = None,
) -> None:
    """Add a relation certain in both directions unless its id is taken."""
    if not kb.has(rel_id):
        cond = ConditionalProbabilityPair(1.0, 1.0)
        kb.add_relation(Relation(id=rel_id, kind=kind, a=a, b=b, cond=cond, params=dict(params or {})))


def _hypothesize(
    kb: CognitiveNetwork,
    scene,
    state: FitState,
    standard: Optional[DeviationStandard],
    registry: Optional[dict[str, KnowledgeCandidate]],
) -> tuple[list[str], list[str]]:
    """Create or extend hypothesis trees for the unexplained instances of a scene's fitted state.

    Returns (new roots, extended roots).  Clusters are connected components
    under the observed adjacency relations; a cluster adjacent to an explained
    instance extends that instance's tree instead of founding a new root.
    """
    unexplained = _unexplained(state)
    if not unexplained:
        return [], []

    spec_by_element: dict[str, ConceptSpec] = {}
    for frag, spec in zip(state.fragments, scene.concepts):
        spec_by_element[frag.element] = spec
    placements = _placements_of(state)
    adjoining = [spec for spec in scene.relations if spec.kind is _ADJOINING]
    new_roots: list[str] = []
    extended: list[str] = []
    for cluster in _adjacency_components(unexplained, adjoining):
        host_root: Optional[str] = None
        bridges: list[tuple[str, str]] = []  # (explained base member, cluster element)
        for spec in adjoining:
            for near, far in ((spec.a, spec.b), (spec.b, spec.a)):
                if near in cluster and far in placements:
                    root, member = placements[far]
                    host_root = host_root or root
                    if root == host_root:
                        bridges.append((member, near))

        if host_root is None:
            root_id = kb.next_id("learned")
            kb.add_concept(Concept(id=root_id))
            new_roots.append(root_id)
        else:
            root_id = host_root
            extended.append(root_id)

        member_bases: dict[str, str] = {}
        for element in cluster:
            spec = spec_by_element.get(element)
            base_id = _ensure_member_base(kb, spec or ConceptSpec(base=None), standard)
            member_bases[element] = base_id
            _add_certain(kb, f"r:{root_id}:{base_id}", _HAS_COMPONENT, root_id, base_id)
        for spec in adjoining:
            if spec.a in member_bases and spec.b in member_bases:
                a, b = member_bases[spec.a], member_bases[spec.b]
                observed = next(s.params for s in scene.relations if {s.a, s.b} == {spec.a, spec.b})
                _add_certain(kb, f"adj:{a}:{b}", _ADJOINING, a, b, observed)
        for member, element in bridges:
            other = member_bases.get(element)
            if other is not None and other != member:
                _add_certain(kb, f"adj:{member}:{other}", _ADJOINING, member, other)
        known = kb.trees[root_id].concepts if root_id in kb.trees else []
        declare_tree(kb, root_id, [*known, *member_bases.values()])

        if registry is not None:
            candidate = registry.setdefault(root_id, KnowledgeCandidate(tree_root=root_id))
            for base_id in member_bases.values():
                candidate.member_counts[base_id] = candidate.member_counts.get(base_id, 0) + 1
            members_now = sorted(member_bases.values())
            for i, m1 in enumerate(members_now):
                for m2 in members_now[i + 1:]:
                    if kb.has(f"adj:{m1}:{m2}") or kb.has(f"adj:{m2}:{m1}"):
                        key = (m1, m2)
                        candidate.pair_counts[key] = candidate.pair_counts.get(key, 0) + 1
    return new_roots, extended


def single_sample_structure(
    kb: CognitiveNetwork,
    scene,
    deviation: Optional[DeviationStandard] = None,
    config: Optional[EngineConfig] = None,
    registry: Optional[dict[str, KnowledgeCandidate]] = None,
) -> list[str]:
    """One scene's hypothesis pipeline: fit, cluster the unexplained, build trees.

    ``deviation`` acts on the hypotheses only: an unexplained observation it
    finds outside its base's definition founds a derived base.  Unlike in
    ``cnl_run``, the fit does not count a deviant instance as unexplained.
    """
    state = _select(fit_run(make_task(kb, config or EngineConfig(), scene.concepts, scene.relations)))
    new_roots, extended = _hypothesize(kb, scene, state, deviation, registry)
    return new_roots + extended


# ---------------------------------------------------------------------------
# the full learning loop


def cnl_run(
    scenes: Sequence,
    kb: CognitiveNetwork,
    deviation: Optional[DeviationStandard] = None,
    config: Optional[EngineConfig] = None,
    registry: Optional[dict[str, KnowledgeCandidate]] = None,
) -> LearnReport:
    """Fit every scene, hypothesizing knowledge wherever growth fails.

    Successful applications are counted per candidate and per member, and
    conditional probabilities are re-estimated as success ratios.  At the end
    each unconfirmed candidate's tree is declared again over its members, a
    candidate tried more than ``confirm_count`` times is confirmed, and similar
    knowledge is merged.  With ``deviation``, a fitted instance whose
    parameters it finds deviant counts as unexplained, and an unexplained
    observation outside its base's definition founds a derived base.
    """
    config = config or EngineConfig()
    registry = registry if registry is not None else {}
    report = LearnReport(candidates=registry)

    for scene in scenes:
        if not scene.concepts:
            report.scenes += 1
            continue
        state = _fit_scene(kb, scene, config, deviation)
        new_roots, extended = _hypothesize(kb, scene, state, deviation, registry)
        if new_roots or extended:
            report.learned_roots.extend(new_roots)
            report.extended_roots.extend(r for r in extended if r not in report.extended_roots)
            state = _fit_scene(kb, scene, config, deviation)
        _count_applications(state, registry, set(new_roots))
        report.scenes += 1

    _reestimate(kb, registry, report)
    for root, candidate in registry.items():
        if candidate.new_knowledge and kb.has(root):
            # a later hypothesis may have added adjacency between this tree's members
            # after it was declared; declaring it again takes that in, so the view is
            # what its ``tree`` statement reads back to
            declare_tree(kb, root, kb.trees[root].concepts)
        if candidate.trial_count > config.confirm_count:
            candidate.new_knowledge = False
    merge = merge_similar(kb, config, registry)
    report.merged = merge.merged
    return report


def _fit_scene(
    kb: CognitiveNetwork,
    scene,
    config: EngineConfig,
    standard: Optional[DeviationStandard],
) -> FitState:
    """Fit a scene and select its result; instances deviating beyond the standard are unmatched."""
    report = fit_run(make_task(kb, config, scene.concepts, scene.relations))
    state = _select(report)
    if standard is not None:
        for frag in state.fragments:
            if frag.unmatched or frag.element in report.unmatched:
                continue
            membership = deviation_membership(state.net, [frag.element])
            if not standard.meets(membership):
                frag.unmatched = True
    return state


def _count_applications(
    state: FitState,
    registry: dict[str, KnowledgeCandidate],
    created_this_scene: set[str],
) -> None:
    fragment_elements = {f.element for f in state.fragments if not f.unmatched}
    applied_roots: set[str] = set()
    for instance in state.net.tree_instances:
        root = instance.base_root
        candidate = registry.get(root)
        if candidate is None or root in created_this_scene or root in applied_roots:
            continue
        realized = [
            base_el
            for base_el, inst_el in instance.mapping.items()
            if inst_el in fragment_elements and base_el in state.net.concepts
        ]
        if not realized:
            continue
        applied_roots.add(root)
        candidate.trial_count += 1
        if state.net.element(instance.root).state.status is _COLLAPSED:
            candidate.success_count += 1
            for base_el in realized:
                if base_el != root:
                    candidate.member_counts[base_el] = (
                        candidate.member_counts.get(base_el, 0) + 1
                    )
            realized_members = sorted(m for m in realized if m != root)
            for i, m1 in enumerate(realized_members):
                for m2 in realized_members[i + 1:]:
                    key = (m1, m2)
                    if key in candidate.pair_counts or (m2, m1) in candidate.pair_counts:
                        key = key if key in candidate.pair_counts else (m2, m1)
                        candidate.pair_counts[key] = candidate.pair_counts[key] + 1


def _reestimate(
    kb: CognitiveNetwork, registry: dict[str, KnowledgeCandidate], report: LearnReport
) -> None:
    for root, candidate in registry.items():
        if not kb.has(root):
            continue
        root_count = candidate.success_count
        estimates: dict[str, tuple[float, float]] = {}
        for member, count in candidate.member_counts.items():
            link_id = f"r:{root}:{member}"
            if link_id not in kb.relations or root_count <= 0 or count <= 0:
                continue
            forward = count / root_count  # P(member | root)
            backward = 1.0  # every member occurrence co-occurred with the root
            rel = kb.writable(link_id)  # a live task keeps the conditional it was made with
            rel.cond = ConditionalProbabilityPair(min(forward, 1.0), backward)
            estimates[member] = (rel.cond.forward, rel.cond.backward)
        for (m1, m2), co in candidate.pair_counts.items():
            adj = kb.relations.get(f"adj:{m1}:{m2}") or kb.relations.get(f"adj:{m2}:{m1}")
            if adj is None:
                continue
            occ1 = candidate.member_counts.get(m1, co)
            occ2 = candidate.member_counts.get(m2, co)
            if occ1 > 0 and occ2 > 0:
                kb.writable(adj.id).cond = ConditionalProbabilityPair(
                    min(co / occ1, 1.0), min(co / occ2, 1.0)
                )
        report.estimates[root] = estimates


# ---------------------------------------------------------------------------
# merging similar knowledge


def _param_overlap(a, b) -> float:
    if isinstance(a, Gaussian) and isinstance(b, Gaussian):
        pooled = a.sigma * a.sigma + b.sigma * b.sigma
        coeff = math.sqrt(2.0 * a.sigma * b.sigma / pooled)
        return coeff * math.exp(-((a.mu - b.mu) ** 2) / (4.0 * pooled))
    if isinstance(a, Gaussian) and isinstance(b, (int, float)):
        return gaussian_membership(float(b), a.mu, a.sigma)
    if isinstance(b, Gaussian) and isinstance(a, (int, float)):
        return gaussian_membership(float(a), b.mu, b.sigma)
    return 1.0 if a == b else 0.0


def _tree_signature(kb: CognitiveNetwork, root: str) -> Optional[dict]:
    view = kb.trees.get(root)
    if view is None:
        return None
    members = sorted(c for c in view.concepts if c != root)
    rel_kinds = sorted(kb.relations[r].kind.value for r in view.longitudinal + view.additional)
    return {"members": members, "rel_kinds": rel_kinds, "view": view}


def _match_members(kb: CognitiveNetwork, sig_a: dict, sig_b: dict) -> Optional[list[tuple[str, str]]]:
    """Pair members of two structure-isomorphic trees, maximizing parameter overlap."""
    if len(sig_a["members"]) != len(sig_b["members"]):
        return None
    if sig_a["rel_kinds"] != sig_b["rel_kinds"]:
        return None
    remaining = list(sig_b["members"])
    pairs: list[tuple[str, str]] = []
    for m_a in sig_a["members"]:
        best = None
        best_score = -1.0
        for m_b in remaining:
            score = _members_overlap(kb, m_a, m_b)
            if score > best_score:
                best, best_score = m_b, score
        if best is None:
            return None
        remaining.remove(best)
        pairs.append((m_a, best))
    return pairs


def _members_overlap(kb: CognitiveNetwork, a: str, b: str) -> float:
    if a == b:
        return 1.0
    pa = kb.concepts[a].params
    pb = kb.concepts[b].params
    degree = 1.0
    for name in set(pa) | set(pb):
        if name in pa and name in pb:
            degree *= _param_overlap(pa[name], pb[name])
    return degree


def merge_similar(
    kb: CognitiveNetwork,
    config: Optional[EngineConfig] = None,
    registry: Optional[dict[str, KnowledgeCandidate]] = None,
) -> MergeReport:
    """Merge structure-isomorphic trees whose parameters overlap enough.

    Counts pool additively; gaussian parameters pool by count-weighted mean and
    variance.  The merged knowledge never has more elements than before.
    """
    config = config or EngineConfig()
    registry = registry if registry is not None else {}
    report = MergeReport()
    roots = list(kb.trees)
    absorbed: set[str] = set()
    for i, root_a in enumerate(roots):
        if root_a in absorbed:
            continue
        for root_b in roots[i + 1:]:
            if root_b in absorbed or root_a == root_b:
                continue
            sig_a = _tree_signature(kb, root_a)
            sig_b = _tree_signature(kb, root_b)
            if sig_a is None or sig_b is None:
                continue
            pairs = _match_members(kb, sig_a, sig_b)
            if pairs is None:
                continue
            overlap = 1.0
            for m_a, m_b in pairs:
                overlap *= _members_overlap(kb, m_a, m_b)
            if overlap < config.merge_overlap:
                continue
            _absorb_tree(kb, root_a, root_b, pairs, registry)
            absorbed.add(root_b)
            report.merged.append((root_a, root_b))
    return report


def _absorb_tree(
    kb: CognitiveNetwork,
    root_a: str,
    root_b: str,
    pairs: list[tuple[str, str]],
    registry: dict[str, KnowledgeCandidate],
) -> None:
    cand_a = registry.get(root_a)
    cand_b = registry.get(root_b)
    weight_a = cand_a.success_count if cand_a else 1
    weight_b = cand_b.success_count if cand_b else 1
    for m_a, m_b in pairs:
        if m_a == m_b:
            continue
        pa = kb.writable(m_a).params
        pb = kb.concepts[m_b].params
        for name in set(pa) & set(pb):
            pa[name] = _pool_params(pa[name], weight_a, pb[name], weight_b)
    view_b = kb.drop_tree(root_b)
    # adjacency ids are named after member bases, so another tree may list one of b's
    still_listed = {r for view in kb.trees.values() for r in view.longitudinal + view.additional}
    for rel_id in view_b.longitudinal + view_b.additional:
        if kb.has(rel_id) and rel_id not in still_listed:
            kb.remove_element(rel_id)
    for m_a, m_b in pairs:
        if m_a != m_b and kb.has(m_b):
            if not kb.incident_view(m_b):
                kb.remove_element(m_b)
    if kb.has(root_b):
        kb.remove_element(root_b)
    if cand_a and cand_b:
        cand_a.success_count += cand_b.success_count
        cand_a.trial_count += cand_b.trial_count
        for member, count in cand_b.member_counts.items():
            target = member
            for m_a, m_b in pairs:
                if m_b == member:
                    target = m_a
                    break
            cand_a.member_counts[target] = cand_a.member_counts.get(target, 0) + count
    registry.pop(root_b, None)


def _pool_params(a, weight_a: int, b, weight_b: int):
    total = weight_a + weight_b
    if isinstance(a, Gaussian) and isinstance(b, Gaussian) and total > 0:
        mean = (a.mu * weight_a + b.mu * weight_b) / total
        second = (
            (a.sigma * a.sigma + a.mu * a.mu) * weight_a
            + (b.sigma * b.sigma + b.mu * b.mu) * weight_b
        ) / total
        variance = max(second - mean * mean, 1e-12)
        return Gaussian(mean, math.sqrt(variance))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and total > 0:
        return (float(a) * weight_a + float(b) * weight_b) / total
    return a
