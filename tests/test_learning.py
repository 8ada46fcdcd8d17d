"""Learning new tree networks from unexplained scenes."""
from __future__ import annotations

import math
import random

import pytest

from dcnet.core import CognitiveNetwork, Gaussian, RelationKind
from dcnet.growth import ConceptSpec, RelationSpec
from dcnet.kbio import parse_kb, serialize_kb
from dcnet.learning import (
    DeviationStandard,
    KnowledgeCandidate,
    Scene,
    cnl_run,
    deviation_membership,
    merge_similar,
    single_sample_structure,
)
from dcnet.probability import EngineConfig

from scenes import concept, declare_tree, pattern_scenes, relation


def _triangle_scene(n: int, parts=("p1", "p2", "p3")) -> Scene:
    """One scene of mutually adjacent parts, certain inputs."""
    concepts = [ConceptSpec(base=p, p=1.0, as_id=f"{p}_s{n}") for p in parts]
    relations = []
    ids = [c.as_id for c in concepts]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            relations.append(
                RelationSpec(
                    rel_id=f"adj_{a}_{b}",
                    kind=RelationKind.ADJOINING,
                    a=a,
                    b=b,
                )
            )
    return Scene(concepts=concepts, relations=relations)


def _learned_tree(kb, root, members, adjacent):
    """A learned tree as hypothesizing builds it: component links, then adjacency."""
    concept(kb, root)
    for member in members:
        if not kb.has(member):
            concept(kb, member)
        relation(kb, f"r:{root}:{member}", RelationKind.HAS_COMPONENT, root, member)
    for a, b in adjacent:
        if not kb.has(f"adj:{a}:{b}"):
            relation(kb, f"adj:{a}:{b}", RelationKind.ADJOINING, a, b)
    declare_tree(kb, root, [root, *members, *(f"r:{root}:{m}" for m in members),
                            *(f"adj:{a}:{b}" for a, b in adjacent)])


class TestDeviationMembership:
    def _net(self):
        net = CognitiveNetwork()
        concept(net, "cat", params={"weight": Gaussian(3.0, 1.0)})
        concept(net, "cat1")
        net.add_belong("cat1", "cat")
        return net

    def test_exact_reference_is_one(self):
        net = self._net()
        assert deviation_membership(net, ["cat1"], {"cat1": {"weight": 3.0}}) == 1.0

    def test_one_sigma_off(self):
        net = self._net()
        got = deviation_membership(net, ["cat1"], {"cat1": {"weight": 4.0}})
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_heavy_outlier_fails_the_standard(self):
        net = self._net()
        standard = DeviationStandard(threshold=0.5)
        got = deviation_membership(net, ["cat1"], {"cat1": {"weight": 50.0}})
        assert got < 1e-100
        assert not standard.meets(got)

    def test_missing_reference_parameter_is_no_evidence(self):
        net = self._net()
        assert deviation_membership(net, ["cat1"], {"cat1": {}}) == 1.0


class TestCnlRecovery:
    def test_ten_identical_scenes_learn_one_tree(self):
        kb = CognitiveNetwork()
        scenes = [_triangle_scene(n) for n in range(10)]
        report = cnl_run(scenes, kb)
        assert report.scenes == 10
        assert report.learned_roots == ["learned#1"]
        view = kb.trees["learned#1"]
        # one root, three members, three component and three adjacency relations
        assert kb.element_count() == 10
        assert set(view.concepts) == {"learned#1", "p1", "p2", "p3"}
        candidate = report.candidates["learned#1"]
        assert candidate.success_count == 10
        assert candidate.trial_count == 10
        assert not candidate.new_knowledge
        for member in ("p1", "p2", "p3"):
            fwd, bwd = report.estimates["learned#1"][member]
            assert fwd == 1.0 and bwd == 1.0

    def test_partial_member_presence_estimates_ratio(self):
        kb = CognitiveNetwork()
        scenes = []
        for n in range(10):
            parts = ("p1", "p2", "p3") if n < 6 else ("p1", "p2")
            scenes.append(_triangle_scene(n, parts))
        report = cnl_run(scenes, kb)
        root = report.learned_roots[0]
        fwd, bwd = report.estimates[root]["p3"]
        assert fwd == 0.6
        assert bwd == 1.0
        # structure is retained: the member and its relation are still there
        assert kb.has("p3") and kb.has(f"r:{root}:p3")

    def test_explained_scenes_learn_nothing(self):
        kb = CognitiveNetwork()
        cnl_run([_triangle_scene(0)], kb)
        count = kb.element_count()
        report = cnl_run([_triangle_scene(1), _triangle_scene(2)], kb)
        assert report.learned_roots == []
        assert kb.element_count() == count

    def test_empty_scene_is_skipped_but_counted(self):
        kb = CognitiveNetwork()
        report = cnl_run([Scene(), _triangle_scene(0)], kb)
        assert report.scenes == 2
        assert len(report.learned_roots) == 1

    def test_count_consistency(self):
        kb = CognitiveNetwork()
        scenes = [_triangle_scene(n) for n in range(7)]
        report = cnl_run(scenes, kb)
        for candidate in report.candidates.values():
            assert candidate.success_count <= candidate.trial_count <= len(scenes)
            for member, count in candidate.member_counts.items():
                assert 1 <= count <= candidate.success_count

    def test_deviation_gate_triggers_new_knowledge(self):
        # knowledge says the part weighs around 3; a 50-weight observation
        # violates the standard and must found new knowledge instead
        kb = CognitiveNetwork()
        concept(kb, "walker")
        concept(kb, "cat", params={"weight": Gaussian(3.0, 1.0)})
        relation(kb, "r_wc", RelationKind.HAS_COMPONENT, "walker", "cat")
        declare_tree(kb, "walker", ["walker", "cat", "r_wc"])
        normal = Scene(concepts=[ConceptSpec(base="cat", p=1.0, as_id="cat_a",
                                             params={"weight": 3.2})])
        giant = Scene(concepts=[ConceptSpec(base="cat", p=1.0, as_id="cat_b",
                                            params={"weight": 50.0})])
        report = cnl_run([normal, giant], kb, deviation=DeviationStandard(threshold=0.5))
        assert len(report.learned_roots) == 1
        # the in-standard scene was explained by the existing tree alone
        candidate = report.candidates[report.learned_roots[0]]
        assert candidate.trial_count >= 1

    def test_a_tree_ignores_adjacency_another_tree_adds_to_its_members(self):
        kb = CognitiveNetwork()
        _learned_tree(kb, "learned#1", ["p0", "p1"], [("p0", "p1")])
        _learned_tree(kb, "learned#2", ["p0", "p1", "p2"], [("p0", "p1"), ("p1", "p2")])
        registry = {
            root: KnowledgeCandidate(tree_root=root, member_counts=dict.fromkeys(members, 1))
            for root, members in (("learned#1", ["p0", "p1"]), ("learned#2", ["p0", "p1", "p2"]))
        }
        cnl_run([], kb, registry=registry)
        assert kb.trees["learned#1"].concepts == ["learned#1", "p0", "p1"]

    def test_learned_trees_read_back_from_their_text(self):
        """A learned tree is what its ``tree`` statement declares; learned elements read back equal.

        A scene of two patterns lets a later hypothesis add adjacency between
        members of a tree declared earlier, which the end of the run takes in.
        """
        trees = 0
        for seed in range(10):
            kb = CognitiveNetwork()
            cnl_run(pattern_scenes(random.Random(f"roundtrip/{seed}"), 20, two_share=0.2), kb)
            back = parse_kb(serialize_kb(kb))
            ids = kb.element_ids()
            assert [back.element(e) for e in ids] == [kb.element(e) for e in ids]
            assert list(back.trees) == list(kb.trees)
            for root, view in kb.trees.items():
                assert back.trees[root] == view, f"seed {seed}, tree {root}"
            trees += len(kb.trees)
        assert trees >= 20

    def test_estimates_are_independent_between_relations(self):
        kb = CognitiveNetwork()
        scenes = []
        for n in range(10):
            parts = ("p1", "p2", "p3") if n < 6 else ("p1", "p2")
            scenes.append(_triangle_scene(n, parts))
        report = cnl_run(scenes, kb)
        root = report.learned_roots[0]
        assert report.estimates[root]["p1"] == (1.0, 1.0)
        assert report.estimates[root]["p2"] == (1.0, 1.0)
        assert report.estimates[root]["p3"][0] == 0.6


class TestSingleSampleStructure:
    def test_left_view_builds_the_tree(self):
        kb = CognitiveNetwork()
        scene = _triangle_scene(0, parts=("left_ear", "left_paw"))
        roots = single_sample_structure(kb, scene)
        assert roots == ["learned#1"]
        assert kb.has("left_ear") and kb.has("left_paw")

    def test_right_view_extends_the_same_tree(self):
        kb = CognitiveNetwork()
        single_sample_structure(kb, _triangle_scene(0, parts=("left_ear", "left_paw")))
        scene = Scene(
            concepts=[
                ConceptSpec(base="left_ear", p=1.0, as_id="le_s1"),
                ConceptSpec(base="right_ear", p=1.0, as_id="re_s1"),
            ],
            relations=[
                RelationSpec(rel_id="adj_lr", kind=RelationKind.ADJOINING, a="le_s1", b="re_s1")
            ],
        )
        roots = single_sample_structure(kb, scene)
        assert roots == ["learned#1"]  # extended, not re-founded
        view = kb.trees["learned#1"]
        assert "right_ear" in view.concepts

    def test_isolated_instance_becomes_a_one_member_tree(self):
        kb = CognitiveNetwork()
        scene = Scene(concepts=[ConceptSpec(base="blob", p=1.0, as_id="blob_s0")])
        roots = single_sample_structure(kb, scene)
        assert len(roots) == 1
        # root + member + one component relation
        assert kb.element_count() == 3

    def test_nothing_unexplained_returns_empty(self):
        kb = CognitiveNetwork()
        single_sample_structure(kb, _triangle_scene(0))
        assert single_sample_structure(kb, _triangle_scene(1)) == []


class TestMergeSimilar:
    def _learned_pair(self, mu_a=1.0, mu_b=1.0):
        kb = CognitiveNetwork()
        registry = {}
        for idx, mu in ((1, mu_a), (2, mu_b)):
            root = f"learned#{idx}"
            concept(kb, root)
            member = f"part{idx}"
            concept(kb, member, params={"size": Gaussian(mu, 0.1)})
            relation(kb, f"r:{root}:{member}", RelationKind.HAS_COMPONENT, root, member)
            declare_tree(kb, root, [root, member, f"r:{root}:{member}"])
            registry[root] = KnowledgeCandidate(tree_root=root, success_count=4, trial_count=4)
        return kb, registry

    def test_identical_trees_merge_and_counts_sum(self):
        kb, registry = self._learned_pair()
        report = merge_similar(kb, EngineConfig(), registry)
        assert report.merged == [("learned#1", "learned#2")]
        assert "learned#2" not in kb.trees and not kb.has("learned#2")
        assert registry["learned#1"].success_count == 8

    def test_gaussians_pool_by_weighted_mean(self):
        kb, registry = self._learned_pair(mu_a=1.0, mu_b=1.2)
        merge_similar(kb, EngineConfig(), registry)
        pooled = kb.concepts["part1"].params["size"]
        assert pooled.mu == pytest.approx(1.1, abs=1e-12)
        assert pooled.sigma == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_kind_mismatch_blocks_merging(self):
        kb, registry = self._learned_pair()
        kb.remove_element("r:learned#2:part2")
        relation(kb, "r:learned#2:part2", RelationKind.HAS_ATTRIBUTE, "learned#2", "part2")
        declare_tree(kb, "learned#2", ["learned#2", "part2", "r:learned#2:part2"])
        report = merge_similar(kb, EngineConfig(), registry)
        assert report.merged == []

    def test_merged_kb_never_grows(self):
        kb, registry = self._learned_pair()
        before = kb.element_count()
        merge_similar(kb, EngineConfig(), registry)
        assert kb.element_count() <= before

    def test_far_apart_distributions_do_not_merge(self):
        kb, registry = self._learned_pair(mu_a=1.0, mu_b=9.0)
        report = merge_similar(kb, EngineConfig(), registry)
        assert report.merged == []

    def test_merge_keeps_relations_another_tree_still_lists(self):
        """Adjacency ids are named after member bases, so trees over the same bases share them."""
        kb = CognitiveNetwork()
        registry = {}
        for member in ("p0", "p1"):
            concept(kb, member)
        relation(kb, "adj:p0:p1", RelationKind.ADJOINING, "p0", "p1")
        for idx in (1, 2, 3):
            root = f"learned#{idx}"
            concept(kb, root)
            links = [f"r:{root}:{m}" for m in ("p0", "p1")]
            for link, member in zip(links, ("p0", "p1")):
                relation(kb, link, RelationKind.HAS_COMPONENT, root, member)
            declare_tree(kb, root, [root, "p0", "p1", *links, "adj:p0:p1"])
            registry[root] = KnowledgeCandidate(tree_root=root, success_count=2, trial_count=2)
        report = merge_similar(kb, EngineConfig(), registry)
        assert report.merged == [("learned#1", "learned#2"), ("learned#1", "learned#3")]
        assert list(kb.trees) == ["learned#1"]
        listed = [r for view in kb.trees.values() for r in view.longitudinal + view.additional]
        assert "adj:p0:p1" in listed
        assert all(kb.has(r) for r in listed)
