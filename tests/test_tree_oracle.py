"""Differential test of tree declaration and classification against their list-scanning forms.

``core.declare_tree`` walks the incident lists of its scope from the root and
the members, and ``classify_tree_network`` keeps a set beside each list, so
both cost the tree, not the network.  The forms they replaced are kept here:
``oracle_declare_scope`` reads every relation of the network once, in
insertion order, and ``oracle_classify`` scans lists.  On seeded
``random_network`` networks, with relations that end on relations, XOR
relations among the members, members without a longitudinal path and
members cut off from the root, the declared view must equal the oracle's
field by field and in order, or both must raise the same error.
"""
from __future__ import annotations

import random
import time

import pytest

from dcnet.core import (
    CognitiveNetwork,
    DcnetError,
    Relation,
    RelationKind,
    StructureError,
    classify_tree_network,
    declare_tree,
    is_longitudinal,
)
from dcnet.kbio import parse_kb, serialize_kb

from scenes import random_network, relation

CASES = 300


def oracle_declare_scope(net: CognitiveNetwork, root: str, members) -> set[str]:
    """The scope as the all-relations loop built it: one pass reaches the fixpoint, since a
    relation can only end on a relation inserted before it."""
    scope = {root, *members}
    for rel in net.relations.values():
        if rel.a in scope and rel.b in scope and rel.kind is not RelationKind.XOR:
            scope.add(rel.id)
    return scope


def oracle_component(net: CognitiveNetwork, root: str, restrict) -> list[str]:
    members: list[str] = []
    seen: set[str] = set()
    frontier = [root]
    while frontier:
        cur = frontier.pop(0)
        if cur in seen:
            continue
        seen.add(cur)
        members.append(cur)
        neighbors: list[str] = []
        if cur in net.relations:
            rel = net.relations[cur]
            neighbors.extend((rel.a, rel.b))
        neighbors.extend(net.incident(cur))
        for nxt in neighbors:
            if nxt not in seen and (restrict is None or nxt in restrict):
                frontier.append(nxt)
    if restrict is not None:
        missing = [e for e in restrict if e not in seen and net.has(e)]
        if missing:
            raise StructureError(f"tree rooted at {root}: disconnected elements {sorted(missing)}")
    return members


def oracle_classify(net: CognitiveNetwork, root: str, restrict=None):
    """``(root, longitudinal, additional, concepts)`` by the list-scanning classification."""
    root_el = net.element(root)
    members = oracle_component(net, root, restrict)
    tops = {e for e in (root_el.a, root_el.b) if e in members} if isinstance(root_el, Relation) else {root}
    longitudinal: list[str] = []
    covered = set(tops)
    frontier = list(tops)
    while frontier:
        cur = frontier.pop(0)
        for rel_id in net.incident(cur):
            if rel_id not in members or rel_id in longitudinal:
                continue
            rel = net.relations[rel_id]
            if not is_longitudinal(rel.kind) or rel.a != cur:
                continue
            longitudinal.append(rel_id)
            if rel.b not in covered:
                covered.add(rel.b)
                frontier.append(rel.b)
    additional = [e for e in members if e in net.relations and e not in longitudinal and e != root]
    concepts = [e for e in members if e in net.concepts]
    for cid in concepts:
        if cid not in covered:
            raise StructureError(f"tree rooted at {root}: no longitudinal path defines membership of {cid}")
    for rel_id in additional:
        rel = net.relations[rel_id]
        for end in (rel.a, rel.b):
            if end in members and end in net.concepts and end not in covered:
                raise StructureError(
                    f"tree rooted at {root}: additional relation {rel_id} hangs on uncovered element {end}"
                )
    ordered = [root] if root in net.concepts else []
    for rel_id in longitudinal:
        rel = net.relations[rel_id]
        for end in (rel.a, rel.b):
            if end in net.concepts and end not in ordered:
                ordered.append(end)
    ordered += [c for c in concepts if c not in ordered]
    return root, longitudinal, sorted(additional), ordered


class _Unwalkable(dict):
    """A relation table that answers lookups but refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("the relation table was iterated")

    keys = values = items = __iter__


def _declared(net: CognitiveNetwork, root: str, members):
    """``declare_tree``'s view as a tuple, or its error; the relation table may not be iterated."""
    table, net.relations = net.relations, _Unwalkable(net.relations)
    try:
        declare_tree(net, root, members)
    except DcnetError as err:
        return type(err), str(err)
    finally:
        net.relations = table
    return _view(net.trees[root])


def _view(view):
    return view.root, view.longitudinal, view.additional, view.concepts


def _oracle(run):
    try:
        return run()
    except DcnetError as err:
        return type(err), str(err)


def _below(net: CognitiveNetwork, root: str) -> list[str]:
    """The concepts that longitudinal chains from ``root`` (or its ends, for a relation) reach."""
    el = net.element(root)
    frontier = [el.a, el.b] if isinstance(el, Relation) else [root]
    for cur in frontier:
        for rel_id in net.incident(cur):
            rel = net.relations[rel_id]
            if is_longitudinal(rel.kind) and rel.a == cur and rel.b in net.concepts and rel.b not in frontier:
                frontier.append(rel.b)
    return [c for c in frontier if c != root and c in net.concepts]


def _case(rng: random.Random):
    """A random network, a root and members drawn from it, then relations stacked on relations."""
    net = random_network(rng)
    concepts, relations = list(net.concepts), list(net.relations)
    root = rng.choice(concepts if rng.random() < 0.85 else relations)
    pool = _below(net, root) if rng.random() < 0.6 else concepts  # members of a tree, or any concepts
    members = rng.sample(pool, rng.randint(0, len(pool)))
    if rng.random() < 0.3:
        members += rng.sample(relations, rng.randint(1, min(3, len(relations))))
    for k in range(rng.randint(1, 4)):  # mostly within the scope, so that they join it
        ends = sorted(oracle_declare_scope(net, root, members)) if rng.random() < 0.7 else concepts + relations
        on = [e for e in ends if e in net.relations]
        if not on or len(ends) < 2:
            continue
        b = rng.choice(on)
        a = rng.choice([e for e in ends if e != b])
        kind = rng.choice([RelationKind.HAS_PART, RelationKind.ADJOINING, RelationKind.XOR])
        cond = 0.0 if kind is RelationKind.XOR else 1.0
        relation(net, f"on{k}", kind, a, b, pba=cond, pab=cond)
    return net, root, members


def test_declared_views_match_the_oracle():
    seen = dict.fromkeys(("view", "relation on a relation", "XOR among members", "no path", "disconnected"), 0)
    for seed in range(CASES):
        rng = random.Random(seed)
        net, root, members = _case(rng)
        scope = oracle_declare_scope(net, root, members)
        expected = _oracle(lambda: oracle_classify(net, root, restrict=scope))
        assert _declared(net, root, members) == expected, seed
        assert _oracle(lambda: _view(classify_tree_network(net, root))) == _oracle(
            lambda: oracle_classify(net, root)
        ), seed
        if expected[0] == root:
            seen["view"] += 1
            rels = [net.relations[r] for r in expected[1] + expected[2]]
            seen["relation on a relation"] += any(r.a in net.relations or r.b in net.relations for r in rels)
        else:
            seen["no path"] += "no longitudinal path" in expected[1]
            seen["disconnected"] += "disconnected" in expected[1]
        seen["XOR among members"] += any(
            rel.kind is RelationKind.XOR and rel.a in scope and rel.b in scope for rel in net.relations.values()
        )
    assert min(seen.values()) >= 10, seen


def test_declare_tree_reads_only_the_incident_lists():
    net = parse_kb(
        "concept face\nconcept eye\nconcept nose\nconcept egg\n"
        "relation r_fe kind=HAS_COMPONENT a=face b=eye\nrelation r_fn kind=HAS_COMPONENT a=face b=nose\n"
        "relation adj kind=ADJOINING a=eye b=r_fn\nrelation x kind=XOR a=eye b=nose pba=0.0 pab=0.0\n"
        "relation r_ee kind=HAS_COMPONENT a=egg b=eye\n"
    )
    assert _declared(net, "face", ["eye", "nose"]) == ("face", ["r_fe", "r_fn"], ["adj"], ["face", "eye", "nose"])


def _star_text(n: int) -> str:
    lines = ["concept root"] + [f"concept m{i}" for i in range(n)]
    lines += [f"relation r{i} kind=HAS_PART a=root b=m{i}" for i in range(n)]
    return "\n".join(lines + [f"tree root members={','.join(f'm{i}' for i in range(n))}"]) + "\n"


def _chain_text(n: int) -> str:
    lines = ["concept root"] + [f"concept m{i}" for i in range(n)]
    ends = ["root"] + [f"m{i}" for i in range(n)]
    lines += [f"relation r{i} kind=HAS_PART a={a} b={b}" for i, (a, b) in enumerate(zip(ends, ends[1:]))]
    return "\n".join(lines + [f"tree root members={','.join(ends[1:])}"]) + "\n"


@pytest.mark.parametrize("text", [_star_text, _chain_text], ids=["star", "chain"])
def test_a_20000_member_tree_round_trips_in_linear_time(text):
    n = 20_000
    started = time.perf_counter()
    net = parse_kb(text(n))
    first = serialize_kb(net)
    assert serialize_kb(parse_kb(first)) == first
    elapsed = time.perf_counter() - started
    view = net.trees["root"]
    assert view.concepts == ["root", *(f"m{i}" for i in range(n))]
    assert view.longitudinal == [f"r{i}" for i in range(n)] and view.additional == []
    assert elapsed < 5.0, f"{elapsed:.2f} s: the declaration is no longer linear in the tree"
