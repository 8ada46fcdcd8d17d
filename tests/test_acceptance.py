"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail listing; each test also prints an explicit PASS line (visible
with ``-s``) once its assertions hold.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path

import pytest

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    Relation,
    RelationKind,
    Status,
    belongs_to,
)
from dcnet.growth import ConceptSpec, RelationSpec, fit_run, fit_step, make_task
from dcnet.kbio import build_task, check_expectations, parse_kb, parse_scenario
from dcnet.learning import Scene, cnl_run
from dcnet.lifecycle import session_load, session_save
from dcnet.matching import match_tree
from dcnet.probability import (
    ContributionLedger,
    EngineConfig,
    Mode,
    pps_launch,
    settle,
    superpose,
    superpose_n,
    undo_launch,
    unsuperpose,
)
from dcnet.query import QueryTemplate, TemplateElement, TemplateRelation, query_match, query_reason
from dcnet.trace import Trace

from scenes import concept, declare_tree, face_task, member_tree_kb, relation

DATA = Path(__file__).parent / "data"
TOL = 1e-9


def _report(number: int, name: str) -> None:
    print(f"PASS criterion {number}: {name}")


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_golden_trace():
    started = time.monotonic()
    kb = parse_kb((DATA / "face.kb").read_text(encoding="utf-8"))
    doc = parse_scenario((DATA / "face.scenario").read_text(encoding="utf-8"))
    task = build_task(kb, doc)
    net = task.states[0].net

    fit_step(task)  # the highest input, the eyes, launches first
    row1 = {c: net.state(c).result_prob for c in ("face1", "nose1", "mouth1", "ear1")}
    assert row1["face1"] == pytest.approx(0.72, abs=TOL)
    assert row1["nose1"] == pytest.approx(0.8, abs=TOL)
    assert row1["mouth1"] == pytest.approx(0.76, abs=TOL)
    assert row1["ear1"] == pytest.approx(0.64, abs=TOL)

    fit_step(task)  # then the nose
    row2 = {c: net.state(c).result_prob for c in ("eye1", "face1", "mouth1", "ear1")}
    assert row2["eye1"] == pytest.approx(0.8, abs=TOL)
    assert row2["face1"] == pytest.approx(0.86, abs=TOL)
    assert row2["mouth1"] == pytest.approx(0.88, abs=TOL)
    assert row2["ear1"] == pytest.approx(0.82, abs=TOL)

    fit_step(task)  # the mouth pushes the face over the threshold
    events = task.trace.events
    collapse_at = next(i for i, ev in enumerate(events) if ev.event == "collapse" and ev.dst == "face1")
    pre_collapse = {
        ev.dst: ev.result
        for ev in events[:collapse_at]
        if ev.event == "superpose" and ev.dst in ("eye1", "nose1", "ear1", "face1")
    }
    assert pre_collapse["eye1"] == pytest.approx(0.88, abs=TOL)
    assert pre_collapse["nose1"] == pytest.approx(0.88, abs=TOL)
    assert pre_collapse["ear1"] == pytest.approx(0.892, abs=TOL)
    assert pre_collapse["face1"] == pytest.approx(0.916, abs=TOL)

    report = fit_run(task)
    assert report.complete
    for inst in ("eye1", "nose1", "mouth1", "ear1", "face1"):
        assert net.state(inst).status is Status.COLLAPSED
        assert net.state(inst).result_prob == pytest.approx(1.0, abs=TOL)
    assert net.state("egg1").status is Status.SUPPRESSED
    assert net.state("egg1").result_prob == pytest.approx(0.5, abs=TOL)
    assert net.state("ch1").status is Status.SUPPRESSED
    assert net.state("ch1").result_prob == pytest.approx(0.4, abs=TOL)
    assert not any(c.startswith("cup#") for c in net.concepts)
    assert check_expectations(net, doc.expects, tol=TOL) == []

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"golden scene took {elapsed:.3f}s"
    _report(1, "golden trace on the reference scene")


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_superposition_algebra_suite():
    started = time.monotonic()
    rng = random.Random(0)
    cases = 10_000
    for _ in range(cases):
        a, b, c = rng.random(), rng.random(), rng.random()
        assert abs(superpose(a, b) - superpose(b, a)) <= 1e-12
        assert abs(superpose(superpose(a, b), c) - superpose(a, superpose(b, c))) <= 1e-12
        assert abs(unsuperpose(superpose(a, b), b) - a) <= 1e-12

    for _ in range(2_000):
        ps = [rng.random() for _ in range(rng.randint(0, 7))]
        direct = superpose_n(ps)
        complement = 1.0 - math.prod(1.0 - p for p in ps)
        assert abs(direct - complement) <= 1e-12
        inclusion_exclusion = 0.0
        for r in range(1, len(ps) + 1):
            sign = (-1) ** (r + 1)
            for combo in itertools.combinations(ps, r):
                inclusion_exclusion += sign * math.prod(combo)
        assert abs(direct - inclusion_exclusion) <= 1e-12
        shuffled = ps[:]
        rng.shuffle(shuffled)
        assert abs(direct - superpose_n(shuffled)) <= 1e-12

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"algebra suite took {elapsed:.3f}s"
    _report(2, "superposition algebra on 10^4 random cases at 1e-12")


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_simplified_mode_two_contributions_collapse():
    net = CognitiveNetwork()
    concept(net, "root")
    for m in ("m1", "m2", "m3"):
        c = concept(net, m)
        c.state.input_prob = c.state.result_prob = 1.0
        relation(net, f"r_{m}", RelationKind.HAS_COMPONENT, "root", m, params={"k": 0.5})
    config = EngineConfig(mode=Mode.SIMPLIFIED)
    ledger, trace = ContributionLedger(), Trace()

    pps_launch(net, "m1", 1.0, config, ledger, trace)
    assert net.state("root").result_prob < config.collapse_at
    pps_launch(net, "m2", 1.0, config, ledger, trace)
    assert net.state("root").result_prob == pytest.approx(1.0)
    assert net.state("root").result_prob >= config.collapse_at
    assert len([e for e in ledger.entries if e.target == "root"]) == 2

    settle(net, config, ledger, trace)
    assert net.state("root").status is Status.COLLAPSED
    assert net.state("root").result_prob == 1.0
    _report(3, "simplified mode collapses after exactly two contributions")


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_omnidirectionality_over_all_seeds():
    bases = ("root", "m1", "m2", "m3", "m4", "m5")

    def collapsed_bases(report):
        state = report.selected_state()
        out = set()
        for el in state.content_ids():
            if state.net.state(el).status is not Status.COLLAPSED:
                continue
            for base in bases:
                if el in state.net.concepts and belongs_to(state.net, el, base):
                    out.add(base)
                    break
        return out

    expected = set(bases)
    for seed in bases:
        kb = member_tree_kb(5)
        report = fit_run(make_task(kb, EngineConfig(), [ConceptSpec(base=seed, p=1.0)]))
        assert collapsed_bases(report) == expected, f"seed {seed}"
    _report(4, "any single seed reaches the same collapsed network as the root")


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_order_invariance_100_permutations():
    from scenes import FACE_INPUTS

    rng = random.Random(5)
    baseline = None
    for _ in range(100):
        inputs = FACE_INPUTS[:]
        rng.shuffle(inputs)
        report = fit_run(face_task(order=inputs))
        state = report.selected_state()
        snapshot = tuple(
            sorted(
                (el, state.net.state(el).status.value, state.net.state(el).result_prob)
                for el in state.content_ids()
            )
        )
        collapsed = {el for el, status, _ in snapshot if status == "collapsed"}
        suppressed = {el for el, status, _ in snapshot if status == "suppressed"}
        if baseline is None:
            baseline = (snapshot, collapsed, suppressed)
        else:
            assert snapshot == baseline[0]
            assert collapsed == baseline[1]
            assert suppressed == baseline[2]
    _report(5, "100 input permutations settle to identical states")


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_matching_oracle_on_all_subsets():
    net = CognitiveNetwork()
    concept(net, "R")
    ps = {"a": 0.7, "b": 0.5, "c": 0.9}
    ids = ["R"]
    for member, p in ps.items():
        concept(net, member)
        relation(net, f"r_{member}", RelationKind.HAS_COMPONENT, "R", member, pba=1.0, pab=p)
        ids += [member, f"r_{member}"]
    declare_tree(net, "R", ids)
    instances = {}
    for member in ps:
        inst = f"{member}1"
        concept(net, inst)
        net.add_belong(inst, member)
        instances[member] = inst

    config = EngineConfig()
    for r in range(len(ps) + 1):
        for subset in itertools.combinations(sorted(ps), r):
            fragment = [instances[m] for m in subset]
            result = match_tree(net, fragment, net.trees["R"], config)
            expected = superpose_n([ps[m] for m in subset])
            assert result.membership == pytest.approx(expected, abs=TOL), subset
    _report(6, "tree matching equals brute-force superposition on all 8 subsets")


# -- 7 -----------------------------------------------------------------------


def _random_network(rng: random.Random, n_concepts: int = 12, n_relations: int = 8):
    net = CognitiveNetwork()
    names = [f"c{i}" for i in range(n_concepts)]
    for name in names:
        c = net.add_concept(Concept(id=name))
        c.state.input_prob = c.state.result_prob = rng.uniform(0.0, 0.5)
    kinds = [RelationKind.HAS_COMPONENT, RelationKind.ADJOINING, RelationKind.CAUSALITY]
    added = 0
    while added < n_relations:
        a, b = rng.sample(names, 2)
        rel_id = f"r{added}"
        net.add_relation(
            Relation(
                id=rel_id,
                kind=rng.choice(kinds),
                a=a,
                b=b,
                cond=ConditionalProbabilityPair(
                    forward=rng.uniform(0.05, 1.0), backward=rng.uniform(0.05, 1.0)
                ),
            )
        )
        added += 1
    return net, names


def test_criterion_07_ledger_soundness_fuzz():
    rng = random.Random(7)
    config = EngineConfig(decay_epsilon=1e-6)
    for round_no in range(25):
        net, names = _random_network(rng)
        ledger, trace = ContributionLedger(), Trace()
        snapshots = []
        for _ in range(rng.randint(2, 6)):
            source = rng.choice(names)
            delta = rng.uniform(0.05, 1.0)
            pps_launch(net, source, delta, config, ledger, trace)
            snapshots.append({e: net.state(e).result_prob for e in net.element_ids()})
        # replaying each element's ledger over its input reproduces its result
        for el in net.element_ids():
            st = net.state(el)
            assert abs(ledger.replay(st.input_prob, el) - st.result_prob) <= TOL

        # undoing the last launch restores the previous snapshot exactly
        last = ledger.launches[-1]
        undo_launch(net, ledger, last.launch_id, config.mode)
        previous = snapshots[-2] if len(snapshots) > 1 else None
        if previous is not None:
            for el, value in previous.items():
                assert net.state(el).result_prob == value, (round_no, el)

        # collapse purges exactly the collapsing element's history
        target = max(names, key=lambda n: net.state(n).result_prob)
        from dcnet.probability import collapse_element

        collapse_element(net, target, config, ledger, trace)
        assert not [e for e in ledger.entries if e.target == target]
        st = net.state(target)
        assert st.input_prob == 1.0 and st.result_prob == 1.0
        for el in net.element_ids():
            state = net.state(el)
            if state.status is Status.SUPERPOSED:
                assert abs(ledger.replay(state.input_prob, el) - state.result_prob) <= TOL
    _report(7, "ledger replay and collapse undo stay exact under fuzzing")


# -- 8 -----------------------------------------------------------------------


def _triangle_scene(n: int, parts=("p1", "p2", "p3")) -> Scene:
    concepts = [ConceptSpec(base=p, p=1.0, as_id=f"{p}_s{n}") for p in parts]
    ids = [c.as_id for c in concepts]
    relations = [
        RelationSpec(rel_id=f"adj_{a}_{b}", kind=RelationKind.ADJOINING, a=a, b=b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
    ]
    return Scene(concepts=concepts, relations=relations)


def test_criterion_08_cnl_recovery():
    started = time.monotonic()

    kb = CognitiveNetwork()
    report = cnl_run([_triangle_scene(n) for n in range(10)], kb)
    assert report.learned_roots == ["learned#1"]
    assert kb.element_count() == 10
    candidate = report.candidates["learned#1"]
    assert candidate.success_count == 10 and candidate.trial_count == 10
    for member in ("p1", "p2", "p3"):
        assert report.estimates["learned#1"][member] == (1.0, 1.0)

    kb2 = CognitiveNetwork()
    scenes = [
        _triangle_scene(n, ("p1", "p2", "p3") if n < 6 else ("p1", "p2"))
        for n in range(10)
    ]
    report2 = cnl_run(scenes, kb2)
    root = report2.learned_roots[0]
    assert report2.estimates[root]["p3"][0] == 0.6
    assert kb2.has("p3") and kb2.has(f"r:{root}:p3")

    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"learning run took {elapsed:.3f}s"
    _report(8, "knowledge recovery from ten synthetic scenes")


# -- 9 -----------------------------------------------------------------------


def _dialogue_store() -> CognitiveNetwork:
    net = CognitiveNetwork()
    for cid in ("person", "american", "echo_act"):
        concept(net, cid)
    relation(net, "r_nat", RelationKind.HAS_ATTRIBUTE, "person", "american")
    relation(net, "r_echo", RelationKind.HAS_FORM, "person", "echo_act")
    relation(net, "conv", RelationKind.CONVERSION, "r_echo", "r_nat", pba=1.0, pab=1.0)
    for cid in ("tom", "jerry"):
        concept(net, cid)
        net.add_belong(cid, "person")
    concept(net, "american1")
    net.add_belong("american1", "american")
    relation(net, "tom_nat", RelationKind.HAS_ATTRIBUTE, "tom", "american1", base="r_nat")
    concept(net, "echo1")
    net.add_belong("echo1", "echo_act")
    relation(net, "jerry_echo", RelationKind.HAS_FORM, "jerry", "echo1", base="r_echo")
    return net


def test_criterion_09_query_soundness_on_dialogue_facts():
    store = _dialogue_store()

    tom_template = QueryTemplate(
        elements=[TemplateElement(id="qp", base="tom"),
                  TemplateElement(id="qx", var=True, base="american")],
        relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
    )
    bindings = query_match(tom_template, store)
    assert [b.values for b in bindings] == [{"qx": "american1"}]

    jerry_template = QueryTemplate(
        elements=[TemplateElement(id="qp", base="jerry"),
                  TemplateElement(id="qx", var=True, base="american")],
        relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
    )
    assert query_match(jerry_template, store) == []
    outcome = query_reason(jerry_template, store, max_steps=1)
    assert len(outcome.answers) == 1
    answer = outcome.answers[0]
    assert answer.explanation, "the one-hop answer carries its conversion chain"

    zero = query_reason(jerry_template, store, max_steps=0)
    assert [a.binding.values for a in zero.answers] == [
        b.values for b in query_match(jerry_template, store)
    ]
    _report(9, "dialogue-store queries: exact bindings and explained reasoning")


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_session_equivalence_mid_run():
    whole = face_task()
    fit_run(whole)
    full_events = [ev.format() for ev in whole.trace.events]

    partial = face_task()
    fit_run(partial, limit=2)
    cut = len(partial.trace.events)
    payload = session_save(partial)
    resumed = session_load(payload)
    assert session_save(resumed) == payload  # round-trip is byte-identical
    fit_run(resumed)

    suffix_resumed = [ev.format() for ev in resumed.trace.events[cut:]]
    assert suffix_resumed == full_events[cut:]
    net_a, net_b = resumed.states[0].net, whole.states[0].net
    for el in net_b.element_ids():
        assert net_a.state(el).result_prob == net_b.state(el).result_prob
        assert net_a.state(el).status == net_b.state(el).status
    _report(10, "interrupt, save, load, resume equals the uninterrupted run")
