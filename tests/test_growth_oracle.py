"""Differential test of growth's existing-instance lookup against the concept scan it replaced.

The oracle is the engine's earlier implementation, kept as it was: every
concept in insertion order, tested with ``belongs_to`` against the base.  The
engine now walks ``down_closure`` of the base instead.  Seeded random
networks (shared with the collapse oracle) mix belong-to chains, equal
2-cycles, relations with base chains, scalar and interval values and removals;
here some elements are also suppressed, some are knowledge and some already
mapped.  Removed ids are never reused, as in the engine, whose ids come from
``next_id``.
"""
from __future__ import annotations

import random
from typing import Optional

from dcnet.core import CognitiveNetwork, Status, belongs_to, up_closure
from dcnet.growth import _existing_instance

from scenes import random_network

CASES = 250


def scan_existing_instance(
    net: CognitiveNetwork, base: str, mapped: set[str], kb_ids: frozenset[str]
) -> Optional[str]:
    for cid in net.concepts:
        if cid in kb_ids or cid in mapped or cid == base:
            continue
        state = net.state(cid)
        if state.status is Status.SUPPRESSED:
            continue
        if belongs_to(net, cid, base):
            return cid
    return None


def test_existing_instance_matches_the_oracle():
    found = by_value = passed_over = 0
    for seed in range(CASES):
        rng = random.Random(f"existing/{seed}")
        net = random_network(rng)
        ids = net.element_ids()
        for el in rng.sample(ids, rng.randint(0, len(ids) // 4)):
            net.state(el).status = Status.SUPPRESSED
        net.knowledge = kb_ids = frozenset(rng.sample(ids, rng.randint(0, len(ids) // 4)))
        for base in ids:
            mapped = set(rng.sample(ids, rng.randint(0, len(ids) // 4)))
            want = scan_existing_instance(net, base, mapped, kb_ids)
            got = _existing_instance(net, base, mapped)
            assert got == want, f"seed {seed}, base {base}"
            if want is not None:
                found += 1
                by_value += base not in up_closure(net, want)
                passed_over += scan_existing_instance(net, base, set(), frozenset()) != want
    # the cases reach answers, answers by value containment alone, and earlier
    # instances passed over because they are mapped or knowledge
    assert found >= 500 and by_value >= 50 and passed_over >= 60
