"""Differential test of the pattern search behind derived-network checks and queries.

A brute-force oracle tries every injective assignment of pattern elements to
network elements that pass the same acceptance rules one by one, keeps those
whose relations join the images of their ends, and is compared with
``check_derived_network`` and ``query_match`` on seeded random networks.
For queries the oracle tests every store element against a template
element with ``belongs_to`` (``element_ok``), where the engine takes the
candidates from the down-closure of the element's base.
Pattern relations may end on other pattern relations, including ones that
sort after them.  A chain pattern of 600 concepts checks that no pattern size
meets the recursion limit.
"""
from __future__ import annotations

import random
from itertools import product

from dcnet.core import (
    CognitiveNetwork,
    Interval,
    RelationKind,
    StructureError,
    belongs_to,
    check_derived_network,
    lineage,
    relation_subsumes,
)
from dcnet.query import (
    QueryTemplate,
    TemplateElement,
    TemplateRelation,
    _relation_ok,
    query_match,
)

from scenes import concept, relation

CASES = 250
KINDS = (RelationKind.ADJOINING, RelationKind.CAUSALITY, RelationKind.EQUAL)
SYMMETRIC = (RelationKind.EQUAL, RelationKind.XOR)


# ---------------------------------------------------------------------------
# the oracle


def _joins(pattern_rel, image, mapping) -> bool:
    """The image relation runs between the images of the pattern relation's ends."""
    im_a, im_b = mapping.get(pattern_rel.a), mapping.get(pattern_rel.b)
    ways = [(image.a, image.b)]
    if pattern_rel.kind in SYMMETRIC:
        ways.append((image.b, image.a))
    return any((im_a in (None, a)) and (im_b in (None, b)) for a, b in ways)


def _mappings(candidates: dict[str, list[str]], relations, net):
    """Every injective assignment from the per-element candidates that keeps topology."""
    keys = list(candidates)
    for images in product(*(candidates[k] for k in keys)):
        if len(set(images)) < len(images):
            continue
        mapping = dict(zip(keys, images))
        if all(_joins(rel, net.relations[mapping[rel.id]], mapping) for rel in relations):
            yield mapping


def _endpoint_first(relations) -> list:
    ids = {r.id for r in relations}
    order: list = []
    while len(order) < len(relations):
        done = {r.id for r in order}
        order.append(next(
            r for r in relations
            if r.id not in done and all(e not in ids or e in done for e in (r.a, r.b))
        ))
    return order


def derived_oracle(net, derived_ids, base_ids, wildcards):
    """All valid mappings, and the one the search must return first."""
    derived = list(dict.fromkeys(derived_ids))
    base = list(dict.fromkeys(base_ids))
    rank = {d: i for i, d in enumerate(derived)}
    concepts = sorted(b for b in base if b in net.concepts)
    relations = _endpoint_first([net.relations[b] for b in sorted(base) if b in net.relations])
    candidates = {
        b: [d for d in derived if d in net.concepts and (b in wildcards or belongs_to(net, d, b))]
        for b in concepts
    }
    for rel in relations:
        b = rel.id
        candidates[b] = [
            d for d in derived
            if d in net.relations
            and (rel.kind is net.relations[d].kind or b in lineage(net, d))
            and (b in wildcards or relation_subsumes(net, d, b) or belongs_to(net, d, b))
        ]
    found = list(_mappings(candidates, relations, net))
    order = concepts + [r.id for r in relations]
    first = min(found, key=lambda m: [rank[m[b]] for b in order], default=None)
    return found, first


def element_ok(net: CognitiveNetwork, element: TemplateElement, image: str) -> bool:
    """A template element accepts an image that belongs to its base (any, for an untyped variable)."""
    if element.var:
        if element.base is None:
            return image in net.concepts or image in net.relations
        return net.has(element.base) and belongs_to(net, image, element.base)
    if element.base is None:
        return False
    if not net.has(element.base):
        return False
    return image == element.base or belongs_to(net, image, element.base)


def query_oracle(template: QueryTemplate, store: CognitiveNetwork) -> list[dict[str, str]]:
    everything = list(store.concepts) + list(store.relations)
    candidates = {}
    for el in template.elements:
        wants_relation = el.base is not None and el.base in store.relations
        candidates[el.id] = [
            d for d in everything
            if ((el.var and el.base is None) or (d in store.relations) == wants_relation)
            and element_ok(store, el, d)
        ]
    for rel in template.relations:
        candidates[rel.id] = [
            r for r in store.relations if _relation_ok(store, rel, store.relations[r])
        ]
    bindings = {
        tuple((v, m[v]) for v in template.variables())
        for m in _mappings(candidates, template.relations, store)
    }
    return [dict(b) for b in sorted(bindings, key=lambda b: tuple(v for _, v in sorted(b)))]


# ---------------------------------------------------------------------------
# generated networks


def _add_relations(rng, net, rid_prefix, count, ends, bases=()):
    """``count`` random relations between ``ends``; each may be an end of later ones.

    Ids are numbered out of order, so a relation can end on one whose id sorts after it.
    """
    made = []
    for i in rng.sample(range(count), count):
        a, b = rng.sample(ends, 2)
        kind = rng.choice(KINDS)
        same_kind = [r for r in bases if net.relations[r].kind is kind]
        base = rng.choice(same_kind) if same_kind and rng.random() < 0.6 else None
        params = {}
        if rng.random() < 0.3:
            params["angle"] = Interval(0.0, 90.0) if not bases else rng.choice([30.0, 30.0, 120.0])
            if base is not None:
                params["angle"] = 30.0
        rid = f"{rid_prefix}{i}"
        relation(net, rid, kind, a, b, base=base, params=params)
        ends.append(rid)
        made.append(rid)
    return made


def derived_case(rng: random.Random):
    net = CognitiveNetwork()
    base_concepts = [f"B{i}" for i in range(rng.randint(2, 3))]
    for cid in base_concepts:
        concept(net, cid)
    base_relations = _add_relations(rng, net, "b", rng.randint(1, 3), list(base_concepts))
    derived_concepts = [f"D{i}" for i in range(rng.randint(2, 4))]
    for cid in derived_concepts:
        concept(net, cid)
        if rng.random() < 0.8:
            net.add_belong(cid, rng.choice(base_concepts))
    derived_relations = _add_relations(
        rng, net, "d", rng.randint(2, 5), list(derived_concepts), bases=base_relations
    )
    derived_ids = derived_concepts + derived_relations
    rng.shuffle(derived_ids)
    base_ids = base_concepts + base_relations
    if rng.random() < 0.2:
        derived_ids += rng.sample(base_ids, 1)
    base_ids = rng.sample(base_ids, rng.randint(1, len(base_ids)))
    wildcards = frozenset(b for b in base_ids if rng.random() < 0.2)
    return net, derived_ids, base_ids, wildcards


def query_case(rng: random.Random):
    """A store of typed instances and facts, and a template loosened from one or two facts."""
    store = CognitiveNetwork()
    types = ["T0", "T1"]
    for cid in types:
        concept(store, cid)
    knowledge = _add_relations(rng, store, "k", 2, list(types))
    instances = [f"i{i}" for i in range(rng.randint(3, 5))]
    for cid in instances:
        concept(store, cid)
        if rng.random() < 0.8:
            store.add_belong(cid, rng.choice(types))
    facts = _add_relations(rng, store, "f", rng.randint(3, 6), list(instances), bases=knowledge)
    while True:
        picked = rng.sample(facts, rng.randint(1, 2))
        names = {f: f"r{n}" for f, n in zip(picked, rng.sample(range(10), len(picked)))}
        elements: dict[str, TemplateElement] = {}
        for fact in picked:
            for end in (store.relations[fact].a, store.relations[fact].b):
                if end in names or end in elements:
                    continue
                eid = f"e{len(elements)}"
                roll = rng.random()
                if roll < 0.4:
                    elements[end] = TemplateElement(id=eid, base=end)
                elif roll < 0.8:
                    elements[end] = TemplateElement(id=eid, var=True, base=rng.choice(types))
                else:
                    elements[end] = TemplateElement(id=eid, var=True)
        ids = {**{x: e.id for x, e in elements.items()}, **names}
        relations = []
        for fact in picked:
            image = store.relations[fact]
            relations.append(TemplateRelation(
                id=names[fact],
                kind=image.kind if rng.random() < 0.8 else rng.choice(KINDS),
                a=ids[image.a],
                b=ids[image.b],
                base=rng.choice(knowledge) if rng.random() < 0.3 else None,
                params={"angle": Interval(0.0, 90.0)} if rng.random() < 0.2 else {},
            ))
        template = QueryTemplate(elements=list(elements.values()), relations=relations)
        try:
            template.validate()
        except StructureError:
            continue
        return store, template


# ---------------------------------------------------------------------------
# the tests


def test_check_derived_network_matches_the_oracle():
    found_some = 0
    for seed in range(CASES):
        net, derived_ids, base_ids, wildcards = derived_case(random.Random(seed))
        valid, first = derived_oracle(net, derived_ids, base_ids, wildcards)
        mapping = check_derived_network(net, derived_ids, base_ids, wildcards=wildcards)
        got = None if mapping is None else mapping.pairs
        assert got == first, f"seed {seed}: {got} != {first} (of {len(valid)} valid)"
        found_some += first is not None
    assert CASES // 10 < found_some < CASES - CASES // 10


def test_query_match_matches_the_oracle():
    answered = 0
    for seed in range(CASES):
        store, template = query_case(random.Random(seed))
        got = [b.values for b in query_match(template, store)]
        expected = query_oracle(template, store)
        assert got == expected, f"seed {seed}: {got} != {expected}"
        answered += bool(expected)
    assert CASES // 10 < answered < CASES - CASES // 10


def _chain(n: int) -> CognitiveNetwork:
    """Base concepts c0..c(n-1) joined by ADJOINING, and a derived chain d0.. under them."""
    net = CognitiveNetwork()
    for i in range(n):
        concept(net, f"c{i}")
        concept(net, f"d{i}")
        net.add_belong(f"d{i}", f"c{i}")
    for i in range(n - 1):
        relation(net, f"cr{i}", RelationKind.ADJOINING, f"c{i}", f"c{i + 1}")
        relation(net, f"dr{i}", RelationKind.ADJOINING, f"d{i}", f"d{i + 1}")
    return net


CHAIN = 600  # well past the 300 concepts at which a search recursing per pattern element overflows


def test_check_derived_network_answers_on_a_long_chain():
    net = _chain(CHAIN)
    base = [f"c{i}" for i in range(CHAIN)] + [f"cr{i}" for i in range(CHAIN - 1)]
    derived = [f"d{i}" for i in range(CHAIN)] + [f"dr{i}" for i in range(CHAIN - 1)]
    mapping = check_derived_network(net, derived, base)
    assert mapping is not None
    want = {f"c{i}": f"d{i}" for i in range(CHAIN)} | {f"cr{i}": f"dr{i}" for i in range(CHAIN - 1)}
    assert mapping.pairs == want


def test_query_match_answers_an_anchored_chain_template():
    """x000 is anchored at d0 and each later variable is typed by its c; only the d chain joins them."""
    net = _chain(CHAIN)
    template = QueryTemplate(
        elements=[TemplateElement(id="x000", base="d0")] + [
            TemplateElement(id=f"x{i:03d}", var=True, base=f"c{i}") for i in range(1, CHAIN)
        ],
        relations=[
            TemplateRelation(id=f"r{i:03d}", kind=RelationKind.ADJOINING, a=f"x{i:03d}", b=f"x{i + 1:03d}")
            for i in range(CHAIN - 1)
        ],
    )
    want = [{f"x{i:03d}": f"d{i}" for i in range(1, CHAIN)}]
    assert [b.values for b in query_match(template, net)] == want
