"""Byte-identity of engine outputs on seeded scenes, pinned as SHA-256 digests.

Each digest was recorded before the fit's placement search was folded into
``core.match_pattern``, so a change of search order, a lost tie-break or a
changed membership shows here as a changed digest.  A digest covers:

* the ``session_save`` text of fit tasks made by ``fork_task`` and of tasks of
  ``tree_scene`` over ``tree_kb``, after ``fit_run`` (or the error it raised);
* the ``serialize_kb`` text of knowledge bases learned by ``cnl_run`` from
  ``pattern_scenes``, with the learned and extended roots;
* the bindings ``query_match`` returns for anchored, typed and chained
  templates over ``random_network`` stores, symmetric kinds included.

Each fit and learning digest is taken twice.  Cold, the fit's match table
(``matching._MEMOS``) is cleared before each task or ``cnl_run``, so every
placement is searched.  Warm, the same task or ``cnl_run`` runs once first,
so every placement it needs is remembered and none is searched.  Both must
give the same digest, whatever order the tests run in.

A change that alters these outputs on purpose records new digests here and
says why.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from dcnet import matching
from dcnet.core import CognitiveNetwork, ConflictError, GrowthBlockedError, RelationKind
from dcnet.growth import fit_run, make_task
from dcnet.kbio import serialize_kb
from dcnet.learning import cnl_run
from dcnet.lifecycle import session_save
from dcnet.probability import EngineConfig
from dcnet.query import QueryTemplate, TemplateElement, TemplateRelation, query_match

from scenes import fork_task, pattern_scenes, random_network, tree_kb, tree_scene

FORK_TASKS = "41a0eed5c1cb1a37a9a47b227868606b55994231e4c267828107b9879298da5b"
TREE_TASKS = "5014f1a36fdac2bd420dbc12ff25224f6349512f3b95836c8031b9a8efbb7b2d"
LEARNED = "593f11d512d8567cce544633ca662d54d291b82c235190ef3bd7dfb55b49449f"
QUERIES = "0272997c459cfa1286784c8987d724f4d62c3c1b7c7bb3972370d625efe68d30"

QUERY_KINDS = (
    RelationKind.HAS_PART, RelationKind.ADJOINING, RelationKind.EQUAL, RelationKind.XOR,
    RelationKind.BELONG_TO,
)


def _digest(chunks) -> str:
    acc = hashlib.sha256()
    for chunk in chunks:
        acc.update(chunk.encode())
        acc.update(b"\0")
    return acc.hexdigest()


MEMO = pytest.mark.parametrize("memo", ["cold", "warm"])


def _run(memo: str, run):
    """``run()``, with the match table cleared before it (cold) or after ``run()`` once (warm)."""
    if memo == "cold":
        matching._MEMOS.clear()
        return run()
    run()
    search = matching._search

    def searched(*args):
        raise AssertionError("a warm run searched for a placement")

    matching._search = searched  # the run before remembered every placement this one needs
    try:
        return run()
    finally:
        matching._search = search


def _fitted(memo: str, make) -> str:
    def run():
        task = make()
        try:
            fit_run(task)
        except (ConflictError, GrowthBlockedError) as exc:
            return f"raise {type(exc).__name__}: {exc}"
        return session_save(task)

    return _run(memo, run)


@MEMO
def test_fork_task_sessions(memo):
    def sessions():
        for seed in range(60):
            yield _fitted(memo, lambda: fork_task(random.Random(f"pinned/fork/{seed}")))

    assert _digest(sessions()) == FORK_TASKS


@MEMO
def test_tree_scene_sessions(memo):
    kb = tree_kb(12)

    def tasks():
        for seed in range(30):
            rng = random.Random(f"pinned/tree/{seed}")
            concepts, relations = tree_scene(rng.sample(range(12), rng.randint(1, 3)))
            yield _fitted(memo, lambda: make_task(kb, EngineConfig(), concepts, relations))

    assert _digest(tasks()) == TREE_TASKS


@MEMO
def test_learned_knowledge(memo):
    def learned():
        for seed in range(6):
            def run():
                kb = CognitiveNetwork()
                report = cnl_run(pattern_scenes(random.Random(f"pinned/learn/{seed}"), 20, two_share=0.1), kb)
                return serialize_kb(kb), repr((report.learned_roots, report.extended_roots, report.merged))

            yield from _run(memo, run)

    assert _digest(learned()) == LEARNED


def _templates(rng: random.Random, net) -> list[QueryTemplate]:
    """Anchored, typed and two-step templates over the store's own elements."""
    concepts = sorted(net.concepts)
    found = []
    for _ in range(6):
        kind = rng.choice(QUERY_KINDS)
        roll = rng.random()
        if roll < 0.4:  # an anchored concept and a free variable
            x = TemplateElement(id="x", base=rng.choice(concepts))
            y = TemplateElement(id="y", var=True)
        elif roll < 0.7:  # two typed variables
            x = TemplateElement(id="x", var=True, base=rng.choice(concepts))
            y = TemplateElement(id="y", var=True, base=rng.choice([None, *concepts]))
        else:  # a chain x -> y -> z
            x = TemplateElement(id="x", var=True, base=rng.choice([None, *concepts]))
            y = TemplateElement(id="y", var=True)
            z = TemplateElement(id="z", var=True)
            found.append(QueryTemplate(
                elements=[x, y, z],
                relations=[
                    TemplateRelation(id="r1", kind=kind, a="x", b="y"),
                    TemplateRelation(id="r2", kind=rng.choice(QUERY_KINDS), a="y", b="z"),
                ],
            ))
            continue
        found.append(QueryTemplate(elements=[x, y], relations=[TemplateRelation(id="r", kind=kind, a="x", b="y")]))
    return found


def test_query_bindings():
    def answers():
        for seed in range(80):
            rng = random.Random(f"pinned/query/{seed}")
            net = random_network(rng)
            for template in _templates(rng, net):
                yield repr([binding.values for binding in query_match(template, net)])

    assert _digest(answers()) == QUERIES
