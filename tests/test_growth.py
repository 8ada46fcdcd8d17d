"""Growth operations and the probability-driven fit loop."""
from __future__ import annotations

import copy
import random
import re

import pytest

from dcnet.core import (
    CognitiveNetwork,
    GrowthBlockedError,
    RelationKind,
    Status,
    StructureError,
    belongs_to,
    element_count,
)
from dcnet import core, growth
from dcnet.growth import (
    ConceptSpec,
    fit_run,
    fit_step,
    grow_concept,
    grow_link,
    grow_tree,
    make_task,
)
from dcnet.matching import trees_taking
from dcnet.probability import ContributionLedger, EngineConfig, collapse_element, pps_launch
from dcnet.trace import Trace

from scenes import (
    assert_same_state,
    classified_roots,
    concept,
    declare_tree,
    face_kb,
    face_task,
    fork_task,
    tree_kb,
    tree_scene,
    member_tree_kb,
    relation,
    step_fork_task,
)
from test_matching_oracle import oracle_candidates


def _env(net=None):
    return EngineConfig(), ContributionLedger(), Trace()


class TestGrowConcept:
    def test_template_copy(self):
        net = face_kb()
        trace = Trace()
        new_id = grow_concept(net, "eye", trace)
        assert new_id == "eye#1"
        assert belongs_to(net, new_id, "eye")
        assert net.state(new_id).result_prob == 0.0

    def test_ids_are_fresh(self):
        net = face_kb()
        first = grow_concept(net, "eye")
        second = grow_concept(net, "eye")
        assert first != second
        assert belongs_to(net, first, "eye") and belongs_to(net, second, "eye")

    def test_growth_from_suppressed_is_blocked(self):
        net = face_kb()
        inst = grow_concept(net, "egg")
        net.state(inst).status = Status.SUPPRESSED
        with pytest.raises(GrowthBlockedError):
            grow_concept(net, inst)


class TestGrowLink:
    def test_connect_existing_instances(self):
        net = face_kb()
        config, ledger, trace = _env()
        eye1 = grow_concept(net, "eye", trace)
        face1 = grow_concept(net, "face", trace)
        net.state(eye1).input_prob = net.state(eye1).result_prob = 0.6
        pps_launch(net, eye1, 0.6, config, ledger, trace)  # launch before linking
        rel_id = grow_link(net, eye1, "r_fe", face1, config=config, ledger=ledger, trace=trace)
        rel = net.relations[rel_id]
        assert rel.base == "r_fe" and {rel.a, rel.b} == {eye1, face1}
        # the redo carried the earlier launch across the new connection
        assert net.state(face1).result_prob == pytest.approx(0.6, abs=1e-12)

    def test_far_end_grown_when_absent(self):
        net = face_kb()
        config, ledger, trace = _env()
        eye1 = grow_concept(net, "eye", trace)
        before = element_count(net)
        grow_link(net, eye1, "r_fe", config=config, ledger=ledger, trace=trace)
        # one concept, its belong edge, and the connecting relation
        assert element_count(net) == before + 3
        faces = [c for c in net.concepts if c.startswith("face#")]
        assert len(faces) == 1

    def test_repeat_link_is_idempotent(self):
        net = face_kb()
        config, ledger, trace = _env()
        eye1 = grow_concept(net, "eye", trace)
        face1 = grow_concept(net, "face", trace)
        first = grow_link(net, eye1, "r_fe", face1, config=config, ledger=ledger, trace=trace)
        count = element_count(net)
        second = grow_link(net, eye1, "r_fe", face1, config=config, ledger=ledger, trace=trace)
        assert first == second
        assert element_count(net) == count


class TestGrowTree:
    def test_unseeded_low_projection_members_defer(self):
        net = face_kb()
        net.knowledge = frozenset(face_kb().element_ids())
        config, ledger, trace = _env()
        seeds = {}
        for base, inst_id, p in (("eye", "eye1", 0.6), ("nose", "nose1", 0.5), ("mouth", "mouth1", 0.4)):
            concept(net, inst_id)
            net.add_belong(inst_id, base)
            net.state(inst_id).input_prob = net.state(inst_id).result_prob = p
            seeds[base] = inst_id
        instance, deferred = grow_tree(net, seeds, net.trees["face"], config, ledger=ledger, trace=trace)
        assert instance.root.startswith("face#")
        # the freshly created root has probability zero, so the last member waits
        assert deferred == ["ear"]

    def test_total_seed_adds_nothing(self):
        net = face_kb()
        config, ledger, trace = _env()
        net.knowledge = frozenset(net.element_ids())
        seeds = {}
        for base in ("face", "eye", "nose", "mouth", "ear"):
            inst = grow_concept(net, base, trace)
            net.state(inst).result_prob = 1.0
            seeds[base] = inst
        for rel_base, a, b in (
            ("r_fe", "face", "eye"),
            ("r_fn", "face", "nose"),
            ("r_fm", "face", "mouth"),
            ("r_fr", "face", "ear"),
        ):
            seeds[rel_base] = grow_link(
                net, seeds[a], rel_base, seeds[b], config=config, ledger=ledger, trace=trace
            )
        count = element_count(net)
        instance, deferred = grow_tree(net, seeds, net.trees["face"], config, ledger=ledger, trace=trace)
        assert element_count(net) == count
        assert deferred == []
        assert set(instance.mapping) == {"face", "eye", "nose", "mouth", "ear",
                                         "r_fe", "r_fn", "r_fm", "r_fr"}

    def test_pure_generation_from_collapsed_root(self):
        net = face_kb()
        config, ledger, trace = _env()
        net.knowledge = frozenset(face_kb().element_ids())
        root = grow_concept(net, "face", trace)
        collapse_element(net, root, config, ledger, trace)
        instance, deferred = grow_tree(
            net, {"face": root}, net.trees["face"], config, ledger=ledger, trace=trace
        )
        assert deferred == []
        assert set(instance.mapping) >= {"face", "eye", "nose", "mouth", "ear"}
        for member in ("eye", "nose", "mouth", "ear"):
            assert net.state(instance.mapping[member]).result_prob == pytest.approx(1.0)
        from dcnet.probability import settle

        settle(net, config, ledger, trace)
        for member in ("eye", "nose", "mouth", "ear"):
            assert net.state(instance.mapping[member]).status is Status.COLLAPSED


class TestKnowledgeValidation:
    """``make_task`` validates the knowledge once per change of its structure."""

    @staticmethod
    def _task(kb: CognitiveNetwork, k: int = 0):
        return make_task(kb, EngineConfig(), [ConceptSpec(base="eye", p=0.6, as_id=f"eye{k}")])

    def test_tasks_on_an_unchanged_kb_classify_each_tree_once(self, monkeypatch):
        kb = face_kb()
        roots = classified_roots(monkeypatch)
        for k in range(5):
            self._task(kb, k)
        kb.copy().validate()  # a copy is as valid as its original
        assert roots == ["face", "cup"]

    @pytest.mark.parametrize("change", [
        lambda kb: concept(kb, "brow"),
        lambda kb: relation(kb, "r_fb", RelationKind.HAS_COMPONENT, "face", "egg"),
        lambda kb: kb.set_base("r_fn", "r_fe"),
        lambda kb: kb.remove_element("egg"),
        lambda kb: core.declare_tree(kb, "cup", ["cup_handle"]),
        lambda kb: kb.drop_tree("cup"),
    ])
    def test_each_change_of_structure_validates_again(self, monkeypatch, change):
        kb = face_kb()
        roots = classified_roots(monkeypatch)
        self._task(kb)
        change(kb)
        del roots[:]
        self._task(kb, 1)
        self._task(kb, 2)
        assert sorted(roots) == sorted(kb.trees)

    def test_a_tree_that_loses_a_member_link_fails_the_next_task(self):
        kb = face_kb()
        self._task(kb)
        kb.remove_element("r_fe")
        for k in (1, 2):  # a failed validation is not remembered as a pass
            with pytest.raises(
                StructureError, match=re.escape("tree rooted at face: disconnected elements ['eye']")
            ):
                self._task(kb, k)


class TestKnowledgeSet:
    """A task network owns its knowledge ids: copies share the set, deep copies equal it."""

    def test_make_task_gives_the_task_network_the_kb_ids(self):
        kb = face_kb()
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="eye", p=0.6, as_id="eye1")])
        state = task.states[0]
        assert state.net.knowledge == frozenset(kb.element_ids())
        assert "eye1" not in state.net.knowledge and kb.knowledge == frozenset()
        assert state.kb_ids is state.net.knowledge
        with pytest.raises(AttributeError):
            state.kb_ids = frozenset()

    def test_tasks_share_the_set_the_knowledge_base_keeps_per_generation(self):
        kb = face_kb()
        first = make_task(kb, EngineConfig(), [ConceptSpec(base="eye", p=0.6, as_id="eye1")])
        second = make_task(kb, EngineConfig(), [ConceptSpec(base="nose", p=0.6, as_id="nose1")])
        assert first.states[0].net.knowledge is second.states[0].net.knowledge is kb.element_set()
        concept(kb, "brow")
        third = make_task(kb, EngineConfig())
        assert "brow" in third.states[0].net.knowledge and "brow" not in first.states[0].net.knowledge

    def test_copies_and_fork_snapshots_share_the_set(self):
        forks = 0
        for seed in range(10):
            task = fork_task(random.Random(seed))
            fit_step(task)
            knowledge = task.states[0].net.knowledge
            assert knowledge == frozenset(task.kb.element_ids())
            assert task.states[0].net.copy().knowledge is knowledge
            assert copy.deepcopy(task.states[0].net).knowledge == knowledge
            for fork in task.forks:
                assert fork.state.net.knowledge is knowledge
            forks += len(task.forks)
        assert forks >= 5


class TestReferenceScene:
    """The face/egg/cup walkthrough, end to end."""

    def test_final_states(self):
        report = fit_run(face_task())
        state = report.selected_state()
        net = state.net
        for inst in ("eye1", "nose1", "mouth1", "ear1", "face1"):
            assert net.state(inst).status is Status.COLLAPSED
            assert net.state(inst).result_prob == 1.0
        assert net.state("egg1").status is Status.SUPPRESSED
        assert net.state("egg1").result_prob == pytest.approx(0.5, abs=1e-9)
        assert net.state("ch1").status is Status.SUPPRESSED
        assert net.state("ch1").result_prob == pytest.approx(0.4, abs=1e-9)
        # no cup instance was ever created
        assert not any(c.startswith("cup#") for c in net.concepts)
        assert report.absolute and report.complete
        assert not report.learning_trigger

    def test_intermediate_rows(self):
        from dcnet.growth import fit_step

        task = face_task()
        net = task.states[0].net
        fit_step(task)  # highest input launches first
        row1 = {c: net.state(c).result_prob for c in ("face1", "nose1", "mouth1", "ear1")}
        assert row1 == pytest.approx(
            {"face1": 0.72, "nose1": 0.8, "mouth1": 0.76, "ear1": 0.64}, abs=1e-9
        )
        fit_step(task)
        row2 = {c: net.state(c).result_prob for c in ("eye1", "face1", "mouth1", "ear1")}
        assert row2 == pytest.approx(
            {"eye1": 0.8, "face1": 0.86, "mouth1": 0.88, "ear1": 0.82}, abs=1e-9
        )
        fit_step(task)
        assert net.state("ear1").result_prob == pytest.approx(1.0, abs=1e-9)
        assert net.state("face1").status is Status.COLLAPSED

    def test_single_fragment_simple_base(self):
        kb = member_tree_kb(1)
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="m1", p=0.5, as_id="m1x")])
        report = fit_run(task)
        net = report.selected_state().net
        roots = [c for c in net.concepts if c.startswith("root#")]
        assert len(roots) == 1
        assert net.state(roots[0]).result_prob == pytest.approx(0.5, abs=1e-12)

    def test_unmatched_fragment_sets_learning_trigger(self):
        kb = face_kb()
        task = make_task(kb, EngineConfig(), [ConceptSpec(base=None, p=0.5, as_id="mystery")])
        report = fit_run(task)
        assert report.learning_trigger
        assert report.unmatched == ["mystery"]


class TestOmnidirectionality:
    def _collapsed_bases(self, report):
        state = report.selected_state()
        out = set()
        for el in state.content_ids():
            if state.net.state(el).status is not Status.COLLAPSED:
                continue
            for base in ("root", "m1", "m2", "m3", "m4", "m5"):
                if belongs_to(state.net, el, base):
                    out.add(base)
                    break
        return out

    def test_any_seed_reaches_the_same_network(self):
        expected = {"root", "m1", "m2", "m3", "m4", "m5"}
        for seed in ("root", "m1", "m2", "m3", "m4", "m5"):
            kb = member_tree_kb(5)
            task = make_task(kb, EngineConfig(), [ConceptSpec(base=seed, p=1.0)])
            report = fit_run(task)
            assert self._collapsed_bases(report) == expected, f"seed {seed}"


class TestCompetingInterpretations:
    def _two_reading_kb(self):
        kb = CognitiveNetwork()
        for cid in ("oval", "face", "egg"):
            concept(kb, cid)
        relation(kb, "r_fo", RelationKind.HAS_COMPONENT, "face", "oval")
        relation(kb, "r_eo", RelationKind.HAS_COMPONENT, "egg", "oval")
        relation(kb, "x", RelationKind.XOR, "face", "egg", pba=0.0, pab=0.0)
        declare_tree(kb, "face", ["face", "oval", "r_fo"])
        declare_tree(kb, "egg", ["egg", "oval", "r_eo"])
        return kb

    def test_fork_explores_both_and_neither_collapses(self):
        task = make_task(self._two_reading_kb(), EngineConfig(),
                         [ConceptSpec(base="oval", p=0.5, as_id="oval1")])
        report = fit_run(task)
        assert len(task.states) == 2
        assert not report.absolute
        means = report.state_means()
        assert means[0] == pytest.approx(means[1], abs=1e-12)

    def test_a_resumed_fork_commits_the_candidate_it_was_made_for(self, monkeypatch):
        kb = self._two_reading_kb()
        concept(kb, "cup")
        concept(kb, "handle")
        relation(kb, "r_ch", RelationKind.HAS_COMPONENT, "cup", "handle")
        declare_tree(kb, "cup", ["cup", "handle", "r_ch"])
        task = make_task(kb, EngineConfig(), [ConceptSpec(base="oval", p=0.5, as_id="oval1")])
        committed = []
        commit = growth._commit

        def spy(task, state, frag, candidate):
            committed.append((state, frag.element, candidate))
            commit(task, state, frag, candidate)

        monkeypatch.setattr(growth, "_commit", spy)
        assert fit_step(task) and len(task.forks) == 1
        fork = task.forks[0]
        frag = fork.state.fragments[fork.fragment_index]
        # the oval cannot land in the cup tree, so matching skips it
        assert trees_taking(fork.state.net, "oval1", task.config) == ["face", "egg"]
        (want,) = [c for c in oracle_candidates(fork.state, frag, task.config) if c.base == fork.base_root]
        while fit_step(task):
            pass
        assert [(s, e, c.base) for s, e, c in committed] == [
            (task.states[0], "oval1", "egg"), (fork.state, "oval1", "face")
        ]
        got = committed[1][2]
        assert (got.base, list(got.mapping.pairs.items()), got.membership) == (
            want.base, list(want.mapping.pairs.items()), want.membership
        )

    def test_each_fork_keeps_the_snapshot_it_was_made_with(self):
        """The live state runs on after forking; no fork snapshot may change until it resumes."""

        class Forks(list):
            """Deep-copies each fork as it is made; compares it with that copy as it resumes."""

            def __init__(self):
                super().__init__()
                self.made = {}
                self.resumed = 0

            def append(self, fork):
                self.made[id(fork)] = copy.deepcopy(fork.state)
                super().append(fork)

            def pop(self, index=-1):
                fork = super().pop(index)
                assert_same_state(fork.state, self.made.pop(id(fork)))
                self.resumed += 1
                return fork

        many = 0
        for seed in range(10):
            task = fork_task(random.Random(seed))
            task.forks = forks = Forks()
            for _ in step_fork_task(task):
                pass
            for fork in forks:  # left unresumed by an XOR failure
                assert_same_state(fork.state, forks.made.pop(id(fork)))
            assert not forks.made
            many += forks.resumed >= 2
        assert many >= 5

    def test_branch_limit_one_grows_best_only(self):
        task = make_task(self._two_reading_kb(), EngineConfig(branch_limit=1),
                         [ConceptSpec(base="oval", p=0.5, as_id="oval1")])
        report = fit_run(task)
        assert len(task.states) == 1
        net = report.selected_state().net
        grown = [c for c in net.concepts if "#" in c]
        # ties rank lexicographically, so the egg reading wins the single slot
        assert grown and all(c.startswith("egg#") for c in grown)


class TestOrderInvariance:
    def test_random_permutations_settle_identically(self):
        import random

        baseline = None
        rng = random.Random(20100)
        from scenes import FACE_INPUTS

        for _ in range(20):
            inputs = FACE_INPUTS[:]
            rng.shuffle(inputs)
            report = fit_run(face_task(order=inputs))
            state = report.selected_state()
            snapshot = tuple(
                sorted(
                    (el, state.net.state(el).status.value, round(state.net.state(el).result_prob, 12))
                    for el in state.content_ids()
                )
            )
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline


class TestTaskLayer:
    """A task's network is a layer over its knowledge base, so making one costs the scene.

    The counts are of elements, not of time: the layer holds as its own only
    what the task ingested, whatever the size of the knowledge base.
    """

    SHARED = ConceptSpec(base="o3p4", p=0.6, as_id="shared")  # o3's last member is o4's first

    def _task(self, trees: int):
        kb = tree_kb(trees)
        concepts, relations = tree_scene([1, 2, 5])
        return kb, make_task(kb, EngineConfig(), [self.SHARED, *concepts], relations)

    def test_make_task_owns_only_what_it_ingested_whatever_the_knowledge(self):
        concepts, relations = tree_scene([1, 2, 5])
        concepts.append(self.SHARED)
        ingested = [c.as_id for c in concepts] + [f"belong:{c.as_id}:{c.base}" for c in concepts]
        ingested += [r.rel_id for r in relations]
        owned = []
        for trees in (12, 768):
            kb, task = self._task(trees)
            net = task.states[0].net
            assert sorted(net.owned_ids()) == sorted(net.instance_ids()) == sorted(ingested)
            assert not set(net.instance_ids()) & set(kb.element_ids())
            assert kb.owned_ids() == set()  # the knowledge base shares all it holds with the task
            owned.append(len(net.owned_ids()))
        assert owned[0] == owned[1] == 26

    def test_a_fork_owns_no_more_than_the_state_it_was_made_from(self):
        for trees in (12, 768):
            kb, task = self._task(trees)
            while not task.forks and fit_step(task):
                pass
            assert task.forks, "the shared member has two trees to take it"
            state, fork = task.states[0], task.forks[0].state
            assert len(fork.net.owned_ids()) <= len(state.net.owned_ids())
            assert fork.net.instance_ids() and not set(fork.net.instance_ids()) & set(kb.element_ids())
            assert fork.net.knowledge is state.net.knowledge
            fit_run(task)
            for each in task.states:
                assert not set(each.instance_ids()) & set(kb.element_ids())
                assert set(each.instance_ids()) <= set(each.net.element_ids())

    def test_a_fork_equals_a_deep_copy_of_its_state_and_changes_apart(self):
        checked = 0
        for seed in range(20):
            task = fork_task(random.Random(seed))
            for _, _ in zip(range(2), step_fork_task(task)):
                pass
            for state in task.states + [fork.state for fork in task.forks]:
                reference = copy.deepcopy(state)
                fork = state.fork()
                assert_same_state(fork, reference)
                for frag in fork.fragments:
                    frag.excluded.append("elsewhere")
                    frag.consumed = not frag.consumed
                for rec in fork.ledger.launches:
                    rec.sealed = True
                for element in fork.net.element_ids():
                    fork.ledger.seal_element(element)
                fork.deferred.clear()
                assert_same_state(state, reference)
                checked += bool(state.ledger.launches)
        assert checked >= 20
