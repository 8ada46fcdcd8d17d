"""Shared network builders for the test suite."""
from __future__ import annotations

import random

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    Interval,
    Relation,
    RelationKind,
    StructureError,
    classify_tree_network,
)
from dcnet.growth import ConceptSpec, FitTask, make_task
from dcnet.probability import EngineConfig


def concept(net: CognitiveNetwork, cid: str, **kw) -> Concept:
    return net.add_concept(Concept(id=cid, **kw))


def relation(
    net: CognitiveNetwork,
    rid: str,
    kind: RelationKind,
    a: str,
    b: str,
    pba=1.0,
    pab=1.0,
    base=None,
    params=None,
) -> Relation:
    return net.add_relation(
        Relation(
            id=rid,
            kind=kind,
            a=a,
            b=b,
            cond=ConditionalProbabilityPair(forward=pba, backward=pab),
            base=base,
            params=params or {},
        )
    )


def declare_tree(net: CognitiveNetwork, root: str, element_ids: list[str]) -> None:
    net.trees[root] = classify_tree_network(net, root, restrict=set(element_ids) | {root})


def face_kb() -> CognitiveNetwork:
    """Face/egg/cup knowledge: four face members, one cup member, two exclusive readings."""
    kb = CognitiveNetwork()
    for cid in ("face", "eye", "nose", "mouth", "ear", "egg", "cup_handle", "cup"):
        concept(kb, cid)
    relation(kb, "r_fe", RelationKind.HAS_COMPONENT, "face", "eye")
    relation(kb, "r_fn", RelationKind.HAS_COMPONENT, "face", "nose")
    relation(kb, "r_fm", RelationKind.HAS_COMPONENT, "face", "mouth")
    relation(kb, "r_fr", RelationKind.HAS_COMPONENT, "face", "ear")
    relation(kb, "r_ch", RelationKind.HAS_COMPONENT, "cup", "cup_handle")
    relation(kb, "x_fe", RelationKind.XOR, "face", "egg", pba=0.0, pab=0.0)
    relation(kb, "x_ec", RelationKind.XOR, "ear", "cup_handle", pba=0.0, pab=0.0)
    declare_tree(kb, "face", ["face", "eye", "nose", "mouth", "ear", "r_fe", "r_fn", "r_fm", "r_fr"])
    declare_tree(kb, "cup", ["cup", "cup_handle", "r_ch"])
    return kb


FACE_INPUTS = [
    ("eye", 0.6, "eye1"),
    ("nose", 0.5, "nose1"),
    ("mouth", 0.4, "mouth1"),
    ("ear", 0.1, "ear1"),
    ("face", 0.3, "face1"),
    ("egg", 0.5, "egg1"),
    ("cup_handle", 0.4, "ch1"),
]


def face_task(order: list[tuple[str, float, str]] | None = None, **config_kw) -> FitTask:
    kb = face_kb()
    config = EngineConfig(**config_kw)
    specs = [
        ConceptSpec(base=base, p=p, as_id=as_id)
        for base, p, as_id in (order if order is not None else FACE_INPUTS)
    ]
    return make_task(kb, config, specs)


def member_tree_kb(n_members: int = 5, pba=1.0, pab=1.0) -> CognitiveNetwork:
    """One root with n direct members, all conditionals alike."""
    kb = CognitiveNetwork()
    concept(kb, "root")
    ids = ["root"]
    for i in range(1, n_members + 1):
        concept(kb, f"m{i}")
        relation(kb, f"r{i}", RelationKind.HAS_COMPONENT, "root", f"m{i}", pba=pba, pab=pab)
        ids += [f"m{i}", f"r{i}"]
    declare_tree(kb, "root", ids)
    return kb


FLOW_KINDS = (RelationKind.HAS_PART, RelationKind.ADJOINING)


def random_network(rng: random.Random) -> CognitiveNetwork:
    """Concepts with ids numbered out of order, then edges of every kind the closures walk."""
    net = CognitiveNetwork()
    n = rng.randint(4, 11)
    ids = [f"c{i}" for i in rng.sample(range(n), n)]
    for cid in ids:
        roll = rng.random()
        if roll < 0.25:
            concept(net, cid, value=float(rng.randint(0, 6)))
        elif roll < 0.45:
            lo = rng.randint(0, 5)
            concept(net, cid, value=Interval(float(lo), float(lo + rng.randint(1, 4))))
        else:
            concept(net, cid)
    for _ in range(rng.randint(1, n)):  # belong-to chains; an edge that would close a cycle is skipped
        a, b = rng.sample(ids, 2)
        try:
            net.add_belong(a, b, backward=rng.choice([1.0, 0.6]))
        except StructureError:
            pass
    for k in range(rng.randint(0, 2)):  # equal 2-cycles
        a, b = rng.sample(ids, 2)
        relation(net, f"eq{k}", RelationKind.EQUAL, a, b)
        if rng.random() < 0.5:
            relation(net, f"eq{k}r", RelationKind.EQUAL, b, a)
    flows: list[str] = []
    for k in range(rng.randint(2, 2 * n)):
        a, b = rng.sample(ids, 2)
        kind = rng.choice(FLOW_KINDS)
        same_kind = [r for r in flows if net.relations[r].kind is kind]
        base = rng.choice(same_kind) if same_kind and rng.random() < 0.4 else None
        relation(
            net, f"f{k}", kind, a, b,
            pba=rng.choice([1.0, 1.0, 0.95, 0.7, 0.4]),
            pab=rng.choice([1.0, 0.9, 0.5]),
            base=base,
        )
        flows.append(f"f{k}")
    for rel_id in rng.sample(flows, min(2, len(flows))):  # a base set after insertion, as growth does
        rel = net.relations[rel_id]
        earlier = [r for r in flows[: flows.index(rel_id)] if net.relations[r].kind is rel.kind]
        if rel.base is None and earlier:
            net.set_base(rel_id, rng.choice(earlier))
    for _ in range(rng.randint(0, 2)):  # relations that belong to or equal other elements
        a, b = rng.choice(flows), rng.choice(ids + flows)
        try:
            if rng.random() < 0.7:
                net.add_belong(a, b)
            else:
                relation(net, f"eq_{a}_{b}", RelationKind.EQUAL, a, b)
        except StructureError:  # a cycle of belong-to, or an edge from an element to itself
            pass
    for k in range(rng.randint(1, 4)):
        pool = ids if rng.random() < 0.6 else flows if rng.random() < 0.6 else ids + flows
        a, b = rng.sample(pool, 2)
        relation(net, f"x{k}", RelationKind.XOR, a, b, pba=0.0, pab=0.0)
    if rng.random() < 0.4:  # a removal (with every relation ending on what it removes), then late additions
        net.remove_element(rng.choice(flows if rng.random() < 0.5 else net.element_ids()))
        late = [f"late{k}" for k in range(rng.randint(1, 2))]
        for cid in late:
            concept(net, cid)
        live = [c for c in net.concepts if c not in late]
        relation(net, "late_part", RelationKind.HAS_PART, late[0], rng.choice(live))
        relation(net, "late_belong", RelationKind.BELONG_TO, late[-1], rng.choice(live))
        if net.xor_relations() and rng.random() < 0.5:
            relation(net, "late_xor", RelationKind.XOR, late[0], rng.choice(live), pba=0.0, pab=0.0)
    return net
