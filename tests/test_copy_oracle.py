"""Differential test of ``CognitiveNetwork.copy()`` against ``copy.deepcopy``, the reference copy.

``copy()`` builds the clone field by field.  On seeded random networks (with
declared trees, tree instances, Gaussian conditionals, params and counters) and on the networks of fitted tasks with forks, it must equal the
deep copy, share no mutable object with the original, and stay independent:
launches, collapses, removals, additions, ``set_base`` calls and direct
writes on either side leave the other side as it was.  The comparison takes
in the record of the last ready seeding (touched set, ready set, threshold)
and each state's slots, and every state of either copy must report its
writes to its own network alone.
"""
from __future__ import annotations

import copy
import random
from enum import Enum

from dcnet.core import (
    CognitiveNetwork,
    ConditionalProbabilityPair,
    DcnetError,
    Gaussian,
    Interval,
    Relation,
    RelationKind,
    TreeInstance,
    declare_tree,
)
from dcnet.kbio import serialize_kb
from dcnet.probability import ContributionLedger, EngineConfig, collapse_element, pps_launch
from dcnet.trace import Trace

from scenes import assert_same_network, concept, fork_task, random_network, relation, step_fork_task

CASES = 250
FORK_TASKS = 30
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
    """An object's own attributes: its ``__dict__``, or its slots (a state's touched set and id too)."""
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return {name: getattr(obj, name) for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}


def mutable_objects(obj, found: dict | None = None) -> dict[int, object]:
    """Every mutable object reachable from ``obj``, by id (tuples are walked, not counted)."""
    found = {} if found is None else found
    if isinstance(obj, IMMUTABLE) or id(obj) in found:
        return found
    if isinstance(obj, (tuple, frozenset)):
        items = obj
    else:
        found[id(obj)] = obj
        if isinstance(obj, dict):
            items = [x for pair in obj.items() for x in pair]
        elif isinstance(obj, (list, set)):
            items = obj
        else:
            items = attributes(obj).values()
    for item in items:
        mutable_objects(item, found)
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


def check_copy(net: CognitiveNetwork) -> CognitiveNetwork:
    clone = net.copy()
    reference = copy.deepcopy(net)
    assert_same_network(clone, reference)
    assert shape(clone) == shape(reference)  # the private indexes and the seeding record too, in order
    shared = mutable_objects(net).keys() & mutable_objects(clone).keys()
    assert not shared, [type(mutable_objects(net)[i]).__name__ for i in shared]
    assert_watched(clone, [net, reference])
    assert_watched(reference, [net, clone])
    return clone


def mutate(net: CognitiveNetwork, rng: random.Random, step: int) -> None:
    """One random engine call or direct write; an engine error leaves what it did."""
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
            el = net.element(rng.choice(ids))
            el.params[f"k{rng.randrange(3)}"] = rng.random()
            el.state.result_prob = rng.random()
        elif op == 6 and isinstance(net.element(ids[-1]), Relation):
            net.element(ids[-1]).cond.forward = rng.random()
        elif op == 7:
            for view in net.trees.values():
                view.concepts.append(f"v{step}")
                view.longitudinal.clear()
            for inst in net.tree_instances:
                inst.mapping[f"m{step}"] = "x"
            net.counters[f"c{step}"] = step
    except DcnetError:
        pass


def check_independence(net: CognitiveNetwork, rng: random.Random) -> None:
    """Copy ``net``, then change the original or the copy; the other side must not move."""
    clone = check_copy(net)
    changed, other = (net, clone) if rng.random() < 0.5 else (clone, net)
    text, before = serialize_kb(other, with_state=True), shape(other)
    for step in range(8):
        mutate(changed, rng, step)
        assert serialize_kb(other, with_state=True) == text
    assert shape(other) == before


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
