"""Cross-module invariants: circulation, suppression, optimization principle."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcnet.core import (
    CognitiveNetwork,
    GrowthBlockedError,
    RelationKind,
    Status,
    belongs_to,
    check_derived_network,
    element_count,
)
from dcnet.growth import ConceptSpec, fit_run, grow_concept, ingest, make_task
from dcnet.learning import Scene, _select, cnl_run
from dcnet.lifecycle import PrunePolicy, prune_task
from dcnet.probability import EngineConfig, mean_probability
from dcnet.trace import Trace

from scenes import concept, declare_tree, face_kb, face_task, member_tree_kb, relation


class TestElementCounts:
    def test_reference_kb_has_fifteen_elements(self):
        assert element_count(face_kb()) == 15

    def test_small_tree_has_seven(self):
        assert element_count(member_tree_kb(3)) == 7

    def test_mean_probability_placeholder(self):
        net = CognitiveNetwork()
        a = concept(net, "a")
        b = concept(net, "b")
        a.state.result_prob = 0.4
        b.state.result_prob = 0.8
        assert mean_probability(net) == pytest.approx(0.6)
        assert mean_probability(net, []) == 0.0


class TestSuppressionSoundness:
    def test_no_growth_originates_from_suppressed(self):
        report = fit_run(face_task())
        state = report.selected_state()
        assert state.net.state("egg1").status is Status.SUPPRESSED
        with pytest.raises(GrowthBlockedError):
            grow_concept(state.net, "egg1", Trace())
        # nothing in the final network belongs to the suppressed readings
        for el in state.content_ids():
            if el in ("egg1", "ch1"):
                continue
            assert not belongs_to(state.net, el, "egg1")
            assert not belongs_to(state.net, el, "ch1")

    def test_suppressed_fragments_never_launch(self):
        report = fit_run(face_task())
        state = report.selected_state()
        launched_sources = {rec.source for rec in state.ledger.launches}
        assert "egg1" not in launched_sources
        assert "ch1" not in launched_sources


class TestEquivalencePrinciple:
    def test_constructed_belonging_makes_the_check_succeed(self):
        net = CognitiveNetwork()
        for cid in ("R", "m", "R2", "m2"):
            concept(net, cid)
        relation(net, "r", RelationKind.HAS_COMPONENT, "R", "m")
        relation(net, "r2", RelationKind.HAS_COMPONENT, "R2", "m2")
        # topologically matched but unrelated trees do not derive
        assert check_derived_network(net, ["R2", "m2", "r2"], ["R", "m", "r"]) is None
        # constructing belong-to on all pairs makes the check succeed
        net.add_belong("R2", "R")
        net.add_belong("m2", "m")
        net.relations["r2"].base = "r"
        mapping = check_derived_network(net, ["R2", "m2", "r2"], ["R", "m", "r"])
        assert mapping is not None and mapping.pairs["R"] == "R2"


class TestOptimizationPrinciple:
    def _two_size_kb(self):
        kb = CognitiveNetwork()
        for cid in ("blob", "atree", "extra", "ztree"):
            concept(kb, cid)
        relation(kb, "ra_b", RelationKind.HAS_COMPONENT, "atree", "blob")
        relation(kb, "ra_e", RelationKind.HAS_COMPONENT, "atree", "extra")
        relation(kb, "rz_b", RelationKind.HAS_COMPONENT, "ztree", "blob")
        declare_tree(kb, "atree", ["atree", "blob", "extra", "ra_b", "ra_e"])
        declare_tree(kb, "ztree", ["ztree", "blob", "rz_b"])
        return kb

    def test_smaller_collapsed_result_is_selected(self):
        kb = self._two_size_kb()
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="blob", p=1.0, as_id="blob1")])
        report = fit_run(task)
        assert len(task.states) == 2  # both readings explored
        chosen = _select(report)
        roots = {inst.base_root for inst in chosen.net.tree_instances}
        assert roots == {"ztree"}
        bigger = next(s for s in task.states if s is not chosen)
        assert len(chosen.instance_ids()) < len(bigger.instance_ids())

    def test_learning_selection_still_explains_the_scene(self):
        kb = self._two_size_kb()
        scene = Scene(concepts=[ConceptSpec(base="blob", p=1.0, as_id="blob1")])
        report = cnl_run([scene], kb)
        assert report.learned_roots == []
        assert report.scenes == 1


class TestNetworkCirculation:
    def test_two_rounds_build_collapse_prune(self):
        kb = member_tree_kb(2)
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="m1", p=1.0, as_id="m1_r1")])
        fit_run(task)
        prune_task(task, PrunePolicy())
        # a new round of input arrives; the same task keeps circulating
        ingest(task, [ConceptSpec(base="m2", p=1.0, as_id="m2_r2")])
        fit_run(task)
        prune_task(task, PrunePolicy())

        kinds = [ev.event for ev in task.trace.events]
        first_prune = kinds.index("prune")
        assert "grow" in kinds[:first_prune]
        assert "collapse" in kinds[:first_prune]
        tail = kinds[first_prune + 1:]
        assert "grow" in tail and "collapse" in tail and "prune" in tail
        grow_i = tail.index("grow")
        collapse_i = tail.index("collapse", grow_i)
        prune_i = tail.index("prune", collapse_i)
        assert grow_i < collapse_i < prune_i

    def test_pending_fragments_survive_pruning(self):
        kb = member_tree_kb(2)
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="m1", p=1.0, as_id="m1_r1")])
        fit_run(task)
        ingest(task, [ConceptSpec(base="m2", p=1.0, as_id="m2_r2")])
        prune_task(task, PrunePolicy())
        assert task.states[0].net.has("m2_r2")
        report = fit_run(task)
        assert report.complete


HASH_SEED_RUN = """
import random
from dcnet.core import CognitiveNetwork
from dcnet.kbio import serialize_kb
from dcnet.learning import cnl_run
from dcnet.lifecycle import session_save
from scenes import fork_task, pattern_scenes, step_fork_task

task = fork_task(random.Random(7))
for _ in step_fork_task(task):
    pass
print(len(task.states), len(task.trace.events))
print(session_save(task))
kb = CognitiveNetwork()
report = cnl_run(pattern_scenes(random.Random("hash-seed"), 20, two_share=0.2), kb)
print(report.learned_roots, report.merged)
print(serialize_kb(kb, with_state=True))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """A forking fit's session and a learned knowledge base are the same text under any hash seed.

    String hashes change with ``PYTHONHASHSEED`` and enum members hash by
    identity, so any output that followed a set's order would differ here.
    """
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUN], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].startswith("4 500\n")  # four states: the task forked
    assert "learned#" in outputs[0]
    assert outputs[0] == outputs[1]
