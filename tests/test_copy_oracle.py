"""Differential test of ``CognitiveNetwork.layer()`` against ``copy.deepcopy``, the reference copy.

A layer copies only the tables and shares the elements, their states and
the index entries with its source until either side writes them.  On seeded
random networks (with declared trees, tree instances, Gaussian conditionals,
params and counters) and on the networks of fitted tasks with forks, a layer
must equal the deep copy, copy no element when it is made, and stay
independent: launches, collapses, removals, additions, ``set_base`` calls
and writes through ``state`` and ``writable`` on either side leave the other
side as it was.  The comparison takes in the record of the last ready seeding
(touched set, ready set, threshold) and each state's slots, and every state
of either copy must report its writes to its own network alone.

A fit task's network is such a layer over its knowledge base.  Random
launches, collapses, settles, removals, ingests (with scenario relations
ending on knowledge concepts, whose launches spread into the knowledge),
forks and changes of the knowledge base itself are applied to a task's
layer and to a deep copy of it; the two must agree element by element and
index by index after every step, and the knowledge base must read as a deep
copy of it changed alike, so a task never moves the knowledge base and a
later change of the knowledge base never shows in a live task.
"""
from __future__ import annotations

import copy
import random
from enum import Enum

from collections import Counter

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    DcnetError,
    Gaussian,
    Interval,
    ProbabilityState,
    Relation,
    RelationKind,
    TreeInstance,
    declare_tree,
)
from dcnet.growth import ConceptSpec, RelationSpec, make_task
from dcnet.kbio import serialize_kb
from dcnet.probability import ContributionLedger, EngineConfig, collapse_element, pps_launch, settle
from dcnet.trace import Trace

from scenes import assert_same_network, concept, fork_task, random_network, relation, step_fork_task

CASES = 250
FORK_TASKS = 30
TASKS = 150
IMMUTABLE = (str, int, float, bool, type(None), Enum, Interval, Gaussian)


def extended_network(rng: random.Random) -> CognitiveNetwork:
    """``random_network`` plus a declared tree, a tree instance, params, Gaussian conditionals
    and counters."""
    net = random_network(rng)
    param_pool = [0.5, "red", Interval(1.0, 3.0), Gaussian(2.0, 0.5)]
    for el_id in rng.sample(net.element_ids(), min(3, net.element_count())):
        net.element(el_id).params[f"k{rng.randrange(3)}"] = rng.choice(param_pool)
    concept(net, "tr", params={"size": Interval(0.0, 4.0)})
    members = [concept(net, f"tm{i}", value=float(i)).id for i in range(rng.randint(1, 3))]
    for i, member in enumerate(members):
        net.add_relation(
            Relation(
                id=f"th{i}", kind=RelationKind.HAS_COMPONENT, a="tr", b=member,
                cond=ConditionalProbabilityPair(
                    forward=rng.choice([0.9, Gaussian(float(i), 1.0)]), backward=0.8
                ),
                params={"w": rng.choice(param_pool)},
            )
        )
    if len(members) > 1:
        relation(net, "tadj", RelationKind.ADJOINING, members[0], members[1], pba=0.7, pab=0.7)
    declare_tree(net, "tr", members)
    net.tree_instances.append(
        TreeInstance(base_root="tr", root=net.element_ids()[0], mapping={"tr": net.element_ids()[0]})
    )
    net.next_id("tr")
    return net


def attributes(obj) -> dict[str, object]:
    """An object's own attributes: its ``__dict__``, or its slots (a state's id too).

    A state's touched set shows only as whether there is one: a state a layer
    shares reports to the network it came from (``assert_watched`` checks where
    writes go), and that set moves with the writes of that network.
    """
    if hasattr(obj, "__dict__"):
        return vars(obj)
    found = {name: getattr(obj, name) for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}
    if "_touched" in found:
        found["_touched"] = found["_touched"] is not None
    return found


def shape(obj):
    """A comparable form of ``obj`` that keeps types and every dict's and list's order."""
    if isinstance(obj, IMMUTABLE):
        return type(obj).__name__, obj
    if isinstance(obj, dict):
        return "dict", [(shape(k), shape(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, [shape(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return type(obj).__name__, sorted(obj)
    return type(obj).__name__, shape(attributes(obj))


def assert_watched(net: CognitiveNetwork, others: list[CognitiveNetwork]) -> None:
    """A write of each state's result reaches ``net``'s touched set under its element's id,
    and no other network's; the touched sets are left as they were, plus those ids."""
    before = [list(other.touched()) for other in others]
    kept = dict(net.touched())
    for el_id in net.element_ids():
        net.touched().clear()
        state = net.state(el_id)
        state.result_prob = state.result_prob
        assert list(net.touched()) == [el_id], el_id
    net.touched().update(kept | dict.fromkeys(net.element_ids()))
    assert [list(other.touched()) for other in others] == before


def shape_of(net: CognitiveNetwork):
    """``shape(net)`` without the record of which objects ``net`` holds alone."""
    return shape({name: value for name, value in vars(net).items() if name not in CognitiveNetwork._OWNERSHIP})


def check_layer(net: CognitiveNetwork) -> CognitiveNetwork:
    reference = copy.deepcopy(net)
    clone = net.layer()
    assert_same_network(clone, reference)
    assert shape_of(clone) == shape_of(reference)  # the private indexes and the seeding record too, in order
    assert clone.owned_ids() == set() == net.owned_ids()  # every element is shared, none copied
    assert all(clone.element(e) is net.element(e) for e in net.element_ids())
    watched = net.layer()  # writing every state copies every element in, so on a layer of its own
    assert_watched(watched, [net, clone, reference])
    assert set(watched.owned_ids()) == set(net.element_ids())
    return clone


def mutate(net: CognitiveNetwork, rng: random.Random, step: int) -> None:
    """One random engine call or write through the network; an engine error leaves what it did."""
    config, ledger, trace = EngineConfig(), ContributionLedger(), Trace()
    ids = net.element_ids()
    op = rng.randrange(8)
    try:
        if op == 0:
            pps_launch(net, rng.choice(ids), rng.uniform(0.1, 0.9), config, ledger, trace)
        elif op == 1:
            collapse_element(net, rng.choice(ids), config, ledger, trace)
        elif op == 2:
            net.remove_element(rng.choice(ids))
        elif op == 3:
            new = concept(net, f"new{step}", params={"k": 1.0}).id
            net.add_belong(new, rng.choice(ids))
            relation(net, f"newr{step}", RelationKind.HAS_PART, rng.choice(ids), new, pba=0.8)
        elif op == 4 and net.relations:
            rel = net.relations[rng.choice(list(net.relations))]
            same = [r for r in net.relations if net.relations[r].kind is rel.kind and r != rel.id]
            net.set_base(rel.id, rng.choice(same + [None]))
        elif op == 5:
            el = net.writable(rng.choice(ids))
            el.params[f"k{rng.randrange(3)}"] = rng.random()
            net.state(rng.choice(ids)).result_prob = rng.random()
        elif op == 6 and isinstance(net.element(ids[-1]), Relation):
            net.writable(ids[-1]).cond.forward = rng.random()
        elif op == 7:
            for view in list(net.trees.values()):  # a tree view is changed by declaring another
                changed = view.copy()
                changed.concepts.append(f"v{step}")
                changed.longitudinal.clear()
                net.set_tree(changed)
            for inst in net.tree_instances:
                inst.mapping[f"m{step}"] = "x"
            net.counters[f"c{step}"] = step
    except DcnetError:
        pass


def check_independence(net: CognitiveNetwork, rng: random.Random) -> None:
    """Layer ``net``, then change the original or the layer; the other side must not move.

    The side that changes must end as a deep copy changed alike.
    """
    reference = copy.deepcopy(net)
    clone = check_layer(net)
    changed, other = (net, clone) if rng.random() < 0.5 else (clone, net)
    text, before = serialize_kb(other, with_state=True), shape_of(other)
    for step in range(8):
        draw = rng.random()
        mutate(changed, random.Random(draw), step)
        mutate(reference, random.Random(draw), step)
        assert serialize_kb(other, with_state=True) == text
        assert_same_network(changed, reference)
    assert shape_of(other) == before


def test_a_copy_of_a_random_network_equals_its_deep_copy_and_changes_apart():
    for seed in range(CASES):
        rng = random.Random(seed)
        check_independence(extended_network(rng), rng)


def test_a_copy_of_a_fitted_network_equals_its_deep_copy_and_changes_apart():
    forks = 0
    for seed in range(FORK_TASKS):
        rng = random.Random(1000 + seed)
        task = fork_task(rng)
        for _ in step_fork_task(task):
            pass
        forks += len(task.states) - 1
        for state in task.states:
            check_independence(state.net, rng)
    assert forks >= FORK_TASKS  # most tasks forked, and the forks' nets were checked too


# ---------------------------------------------------------------------------
# a task's layer over its knowledge base


def scene(kb: CognitiveNetwork, rng: random.Random, tag: str) -> tuple[list[ConceptSpec], list[RelationSpec]]:
    """Two to four inputs under knowledge concepts, and relations from them, some to knowledge concepts."""
    known = sorted(kb.concepts)
    concepts = [
        ConceptSpec(base=rng.choice(known), p=rng.choice([0.3, 0.6, 0.95]), as_id=f"{tag}{k}")
        for k in range(rng.randint(2, 4))
    ]
    relations = []
    for k in range(rng.randint(1, 3)):
        a = rng.choice(concepts).as_id
        b = rng.choice(known) if rng.random() < 0.6 else rng.choice(concepts).as_id
        if a != b:
            kind = rng.choice([RelationKind.HAS_PART, RelationKind.ADJOINING])
            relations.append(RelationSpec(f"{tag}r{k}", kind, a, b, pba=rng.choice([0.9, 1.0]), p=0.5))
    return concepts, relations


def change_knowledge(kb: CognitiveNetwork, rng: random.Random, step: int) -> None:
    """One change to a knowledge base, of the kinds learning makes."""
    ids = kb.element_ids()
    op = rng.randrange(5)
    try:
        if op == 0:
            new = concept(kb, f"learned{step}").id
            relation(kb, f"lr{step}", RelationKind.HAS_COMPONENT, new, rng.choice(ids), pba=0.7)
        elif op == 1 and kb.relations:
            kb.writable(rng.choice(list(kb.relations))).cond = ConditionalProbabilityPair(0.5, 0.4)
        elif op == 2:
            kb.writable(rng.choice(ids)).params["w"] = float(step)
        elif op == 3:
            kb.remove_element(rng.choice(ids))
        elif kb.trees:
            kb.drop_tree(rng.choice(list(kb.trees)))
    except DcnetError:
        pass


def task_step(world: dict, rng: random.Random, step: int, seen: Counter) -> None:
    """One random change of the task's network, the same on the layer and on its deep copy."""
    draw, kind = rng.random(), rng.choice(["launch", "collapse", "settle", "remove", "ingest", "fork", "kb"])
    seen[kind] += 1
    if kind == "fork":
        if rng.random() < 0.5:  # go on with the fork, or go on with the original and keep the fork
            world["net"] = world["net"].layer()
        else:
            world["forks"].append((world["net"].layer(), copy.deepcopy(world["deep"])))
        world["deep"] = copy.deepcopy(world["deep"])
        return
    if kind == "kb":
        change_knowledge(world["kb"], random.Random(draw), step)
        change_knowledge(world["kb_deep"], random.Random(draw), step)
        return
    for side in ("net", "deep"):
        net, pick = world[side], random.Random(draw)
        ids, config = net.element_ids(), world["config"]
        ledger, trace = world[f"{side} ledger"], world[f"{side} trace"]
        try:
            if kind == "launch":
                pps_launch(net, pick.choice(ids), pick.choice([0.5, 1.0]), config, ledger, trace)
            elif kind == "collapse":
                collapse_element(net, pick.choice(ids), config, ledger, trace)
            elif kind == "settle":
                settle(net, config, ledger, trace)
            elif kind == "remove":
                net.remove_element(pick.choice(ids))
            else:
                concepts, relations = scene(world["kb"], pick, f"in{step}.")
                for spec in concepts:
                    net.add_concept(Concept(id=spec.as_id, state=ProbabilityState(spec.p, spec.p)))
                    net.add_belong(spec.as_id, spec.base)
                for spec in relations:
                    relation(net, spec.rel_id, spec.kind, spec.a, spec.b, pba=spec.pba)
        except DcnetError:
            pass


def test_a_task_layer_and_a_deep_copy_of_it_stay_equal_and_the_knowledge_base_unmoved():
    seen: Counter = Counter()
    for seed in range(TASKS):
        rng = random.Random(f"layer/{seed}")
        kb = extended_network(rng)
        kb.validate()
        config = EngineConfig()
        concepts, relations = scene(kb, rng, "s")
        try:
            task = make_task(kb, config, concepts, relations)
        except DcnetError:
            continue
        net = task.states[0].net
        assert net.knowledge == frozenset(kb.element_ids()) and set(net.owned_ids()) == set(net.instance_ids())
        world = {
            "kb": kb, "kb_deep": copy.deepcopy(kb), "config": config, "forks": [],
            "net": net, "deep": copy.deepcopy(net),
            "net ledger": ContributionLedger(), "deep ledger": ContributionLedger(),
            "net trace": Trace(), "deep trace": Trace(),
        }
        for step in range(rng.randint(6, 14)):
            task_step(world, rng, step, seen)
            layer, deep = world["net"], world["deep"]
            assert_same_network(layer, deep)
            assert layer.instance_ids() == [e for e in deep.element_ids() if e not in deep.knowledge]
            assert serialize_kb(world["kb"], with_state=True) == serialize_kb(world["kb_deep"], with_state=True)
            assert_same_network(world["kb"], world["kb_deep"])
            seen["knowledge written in the task"] += bool(set(layer.owned_ids()) & layer.knowledge)
            for fork, fork_deep in world["forks"]:
                assert_same_network(fork, fork_deep)
    # every kind of step ran, launches wrote knowledge elements into tasks, and so did the steps
    # after a change of the knowledge base
    assert min(seen[k] for k in ("launch", "collapse", "settle", "remove", "ingest", "fork", "kb")) >= 100, seen
    assert seen["knowledge written in the task"] >= 300, seen
