"""Fragment membership against base trees: single concepts, trees, nesting."""
from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import random
import weakref
from collections import Counter

import pytest

from dcnet import matching
from dcnet.core import (
    CognitiveNetwork,
    DepthError,
    Gaussian,
    RelationKind,
)
from dcnet.growth import ConceptSpec, fit_run, make_task
from dcnet.kbio import parse_kb, serialize_kb
from dcnet.lifecycle import session_load, session_save
from dcnet.matching import match_complete, match_concept, match_nested, match_tree
from dcnet.probability import EngineConfig, Mode, superpose_n

from scenes import FACE_INPUTS, concept, declare_tree, face_kb, hub_kb, hub_scene, relation
from test_matching_oracle import counting_searches, oracle_match_nested, oracle_match_tree, oracle_membership


def _config(**kw):
    return EngineConfig(**kw)


class TestMatchConcept:
    def test_instance_of_class(self):
        net = CognitiveNetwork()
        concept(net, "fruit")
        concept(net, "apple")
        net.add_belong("apple", "fruit")
        assert match_concept(net, "apple", "fruit") == 1.0
        assert match_concept(net, "fruit", "apple") == 0.0

    def test_identity(self):
        net = CognitiveNetwork()
        concept(net, "x")
        assert match_concept(net, "x", "x") == 1.0

    def test_continuous_class(self):
        net = CognitiveNetwork()
        concept(net, "adult_height", params={"value": Gaussian(1.7, 0.1)})
        assert match_concept(net, 1.8, "adult_height") == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_value_against_discrete_base_is_zero(self):
        net = CognitiveNetwork()
        concept(net, "fruit")
        assert match_concept(net, 3.5, "fruit") == 0.0


def _flat_base(pa=0.7, pb=0.5):
    net = CognitiveNetwork()
    for cid in ("R", "a", "b"):
        concept(net, cid)
    relation(net, "ra", RelationKind.HAS_COMPONENT, "R", "a", pba=1.0, pab=pa)
    relation(net, "rb", RelationKind.HAS_COMPONENT, "R", "b", pba=1.0, pab=pb)
    declare_tree(net, "R", ["R", "a", "b", "ra", "rb"])
    return net


class TestMatchTree:
    def test_single_member_fragment(self):
        net = _flat_base()
        concept(net, "a1")
        net.add_belong("a1", "a")
        result = match_tree(net, ["a1"], net.trees["R"], _config())
        assert result.membership == pytest.approx(0.7, abs=1e-12)
        assert result.mapping.pairs == {"a": "a1"}

    def test_two_member_fragment_superposes(self):
        net = _flat_base()
        for inst, base in (("a1", "a"), ("b1", "b")):
            concept(net, inst)
            net.add_belong(inst, base)
        result = match_tree(net, ["a1", "b1"], net.trees["R"], _config())
        assert result.membership == pytest.approx(0.85, abs=1e-12)

    def test_incompatible_kind_fragment_scores_zero(self):
        net = _flat_base()
        concept(net, "a1")
        concept(net, "b1")
        net.add_belong("a1", "a")
        net.add_belong("b1", "b")
        # a lone relation of a kind the tree does not contain cannot place
        relation(net, "odd", RelationKind.CAUSALITY, "a1", "b1")
        result = match_tree(net, ["odd"], net.trees["R"], _config())
        assert result.membership == 0.0

    def test_relation_parameters_scale_membership(self):
        net = CognitiveNetwork()
        for cid in ("R", "a"):
            concept(net, cid)
        relation(
            net, "ra", RelationKind.HAS_COMPONENT, "R", "a",
            params={"angle": Gaussian(0.0, 10.0)},
        )
        declare_tree(net, "R", ["R", "a", "ra"])
        concept(net, "R1")
        concept(net, "a1")
        net.add_belong("R1", "R")
        net.add_belong("a1", "a")
        relation(net, "ra1", RelationKind.HAS_COMPONENT, "R1", "a1", params={"angle": 10.0})
        result = match_tree(net, ["a1", "ra1", "R1"], net.trees["R"], _config())
        # root evidence 1.0 superposed with the member's flow through the deviant angle
        expected = superpose_n([1.0 * math.exp(-0.5) * 1.0, 1.0])
        assert result.membership == pytest.approx(expected, abs=1e-12)

    def test_a_symmetric_fragment_relation_takes_its_ends_as_written(self):
        """The fit flips no EQUAL or XOR relation: EQUAL s2->s1 on EQUAL m1->m2 maps s2 to m1."""
        net = CognitiveNetwork()
        for cid in ("o", "m1", "m2", "s1", "s2"):
            concept(net, cid)
        relation(net, "h1", RelationKind.HAS_COMPONENT, "o", "m1")
        relation(net, "h2", RelationKind.HAS_COMPONENT, "o", "m2")
        relation(net, "x", RelationKind.EQUAL, "m1", "m2")
        declare_tree(net, "o", ["o", "m1", "m2", "h1", "h2", "x"])
        for inst in ("s1", "s2"):
            net.add_belong(inst, "m1")
            net.add_belong(inst, "m2")
        relation(net, "fx", RelationKind.EQUAL, "s2", "s1")
        ids = ["s1", "s2", "fx"]
        result = match_tree(net, ids, net.trees["o"], _config())
        assert list(result.mapping.pairs.items()) == [("x", "fx"), ("m2", "s1"), ("m1", "s2")]
        assert result == oracle_match_tree(net, ids, net.trees["o"], _config())

    def test_a_relation_sorting_before_the_relation_it_ends_on_stays_unplaced(self):
        """Fragment relations are placed in sorted order, not ends first: COMPARISON aa on
        ADJOINING zz finds zz unplaced at its turn, so it asks for no image and t keeps s3."""
        net = CognitiveNetwork()
        for cid in ("o", "m1", "m2", "t", "s1", "s2", "s3"):
            concept(net, cid)
        relation(net, "h1", RelationKind.HAS_COMPONENT, "o", "m1")
        relation(net, "h2", RelationKind.HAS_COMPONENT, "o", "m2")
        relation(net, "ht", RelationKind.HAS_ATTRIBUTE, "o", "t")
        relation(net, "adj", RelationKind.ADJOINING, "m1", "m2")
        declare_tree(net, "o", ["o", "m1", "m2", "t", "h1", "h2", "ht", "adj"])
        for inst, base in (("s1", "m1"), ("s2", "m2"), ("s3", "t")):
            net.add_belong(inst, base)
        relation(net, "zz", RelationKind.ADJOINING, "s1", "s2")
        relation(net, "aa", RelationKind.COMPARISON, "s3", "zz")
        ids = ["s1", "s2", "s3", "zz", "aa"]
        result = match_tree(net, ids, net.trees["o"], _config())
        want = [("m1", "s1"), ("m2", "s2"), ("t", "s3"), ("adj", "zz")]
        assert list(result.mapping.pairs.items()) == want
        assert result == oracle_match_tree(net, ids, net.trees["o"], _config())

    def test_oracle_equivalence_on_all_subsets(self):
        """Membership equals brute-force superposition of per-member contributions."""
        net = _flat_base()
        ps = {"a": 0.7, "b": 0.5}
        concept(net, "c")
        relation(net, "rc", RelationKind.HAS_COMPONENT, "R", "c", pba=1.0, pab=0.9)
        declare_tree(net, "R", ["R", "a", "b", "c", "ra", "rb", "rc"])
        ps["c"] = 0.9
        for inst, base in (("a1", "a"), ("b1", "b"), ("c1", "c")):
            concept(net, inst)
            net.add_belong(inst, base)
        members = ["a1", "b1", "c1"]
        for r in range(len(members) + 1):
            for subset in itertools.combinations(members, r):
                result = match_tree(net, list(subset), net.trees["R"], _config())
                expected = superpose_n([ps[i[0]] for i in subset])
                assert result.membership == pytest.approx(expected, abs=1e-9), subset

    def test_monotone_in_added_evidence(self):
        net = _flat_base()
        for inst, base in (("a1", "a"), ("b1", "b")):
            concept(net, inst)
            net.add_belong(inst, base)
        small = match_tree(net, ["a1"], net.trees["R"], _config())
        grown = match_tree(net, ["a1", "b1"], net.trees["R"], _config())
        assert grown.membership >= small.membership
        assert grown.membership <= 1.0


def _nested(inner_ps):
    net = CognitiveNetwork()
    concept(net, "outer")
    ids = ["outer"]
    for i, _ in enumerate(inner_ps, 1):
        inner_root = f"in{i}"
        concept(net, inner_root)
        concept(net, f"leaf{i}")
        relation(net, f"ri{i}", RelationKind.HAS_COMPONENT, inner_root, f"leaf{i}",
                 pba=1.0, pab=inner_ps[i - 1])
        relation(net, f"ro{i}", RelationKind.HAS_COMPONENT, "outer", inner_root)
        declare_tree(net, inner_root, [inner_root, f"leaf{i}", f"ri{i}"])
        ids += [inner_root, f"ro{i}"]
    declare_tree(net, "outer", ids)
    return net


class TestMatchNested:
    def test_full_inner_match_reduces_to_flat(self):
        net = _nested([1.0])
        concept(net, "leafx")
        net.add_belong("leafx", "leaf1")
        result = match_nested(net, ["leafx"], net.trees["outer"], _config())
        assert result.membership == pytest.approx(1.0, abs=1e-12)

    def test_partial_inner_membership_composes(self):
        net = _nested([0.8])
        concept(net, "leafx")
        net.add_belong("leafx", "leaf1")
        result = match_nested(net, ["leafx"], net.trees["outer"], _config())
        assert result.membership == pytest.approx(0.8, abs=1e-12)

    def test_two_inner_memberships_superpose(self):
        net = _nested([0.7, 0.5])
        for i in (1, 2):
            concept(net, f"leafx{i}")
            net.add_belong(f"leafx{i}", f"leaf{i}")
        result = match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], _config())
        assert result.membership == pytest.approx(0.85, abs=1e-12)

    def test_depth_limit(self):
        net = _nested([1.0])
        concept(net, "leafx")
        net.add_belong("leafx", "leaf1")
        with pytest.raises(DepthError):
            match_nested(net, ["leafx"], net.trees["outer"], _config(match_depth_limit=0))


def _counted(monkeypatch) -> Counter:
    """Counts of the scratches matching builds and the launches it makes into them from now on."""
    counts: Counter = Counter()
    scratch_tree, pps_launch = matching._scratch_tree, matching.pps_launch

    def counting_scratch(*args):
        counts["scratches"] += 1
        return scratch_tree(*args)

    def counting_launch(*args):
        counts["launches"] += 1
        return pps_launch(*args)

    monkeypatch.setattr(matching, "_scratch_tree", counting_scratch)
    monkeypatch.setattr(matching, "pps_launch", counting_launch)
    return counts


class TestHub:
    """The hub of ``scenes.hub_kb``: every member takes its input, every input relation its ADJOINING."""

    # kind_compatible calls of one match_tree of the whole d=8 scene when each relation's images are
    # taken once, as its last end is placed; taking them again at the relation's own step makes
    # several times as many.  The recursive search before core.match_pattern, which took them once
    # per full assignment, made 1,024.
    KIND_TESTS = 255

    @staticmethod
    def _scene(d: int):
        concepts, relations = hub_scene(d)
        net = make_task(hub_kb(d), EngineConfig(), concepts, relations).states[0].net
        return net, [c.as_id for c in concepts] + [r.rel_id for r in relations]

    @pytest.mark.parametrize("d", range(4, 9))
    def test_match_nested_matches_the_oracle(self, d):
        net, ids = self._scene(d)
        got = match_nested(net, ids, net.trees["o"], EngineConfig())
        assert got == oracle_match_nested(net, ids, net.trees["o"], EngineConfig())
        assert len(got.mapping.pairs) == len(ids)  # the whole scene is placed

    def test_match_tree_takes_each_relations_images_once(self, monkeypatch):
        matching._MEMOS.clear()  # the count measures the search, which a remembered placement skips
        net, ids = self._scene(8)
        calls = Counter()
        kind_compatible = matching.kind_compatible

        def counting(*args):
            calls["kind_compatible"] += 1
            return kind_compatible(*args)

        monkeypatch.setattr(matching, "kind_compatible", counting)
        first = match_tree(net, ids, net.trees["o"], EngineConfig())
        assert 0 < calls["kind_compatible"] <= self.KIND_TESTS, calls
        calls.clear()
        assert match_tree(net, ids, net.trees["o"], EngineConfig()) == first
        assert calls["kind_compatible"] == 0, calls


class TestBestPlacementMemo:
    """The best placement of each fragment shape, kept in the tree's memo and renamed to the caller's ids."""

    def test_a_renamed_fragment_hits_and_keeps_its_own_id_order(self, monkeypatch):
        concepts, relations = hub_scene(4)
        names = {c.as_id: c.as_id.replace("s.", "x.") for c in concepts}
        names.update((r.rel_id, f"z.r{i}") for i, r in enumerate(relations))
        names[relations[0].rel_id] = "a.r0"  # sorts before every concept, as no original relation does
        renamed = [dataclasses.replace(c, as_id=names[c.as_id]) for c in concepts]
        renamed += [dataclasses.replace(r, rel_id=names[r.rel_id], a=names[r.a], b=names[r.b]) for r in relations]
        net = make_task(hub_kb(4), EngineConfig(), concepts + renamed[:5], relations + renamed[5:]).states[0].net
        tree, ids = net.trees["o"], list(names)
        matching._MEMOS.clear()
        searched = counting_searches(monkeypatch)
        first = match_tree(net, ids, tree, EngineConfig())
        assert first == oracle_match_tree(net, ids, tree, EngineConfig())
        got = match_tree(net, [names[f] for f in ids], tree, EngineConfig())
        assert searched["searches"] == 1  # the renamed copy has the same shape
        want = oracle_match_tree(net, [names[f] for f in ids], tree, EngineConfig())
        assert list(got.mapping.pairs.items()) == list(want.mapping.pairs.items())
        assert got.membership == want.membership == first.membership
        pairs = [(base, names[frag]) for base, frag in first.mapping.pairs.items()]
        assert list(got.mapping.pairs.items()) != pairs and sorted(got.mapping.pairs.items()) == sorted(pairs)
        assert next(iter(got.mapping.pairs.values())) == "a.r0"

    def test_an_id_given_twice_is_matched_once(self):
        """Not as the remembered fragment of two concepts that take the same tree concepts."""
        net = CognitiveNetwork()
        concept(net, "o")
        concept(net, "m", params={"value": Gaussian(0.0, 1.0)})
        relation(net, "h", RelationKind.HAS_COMPONENT, "o", "m", pba=0.9, pab=0.8)
        declare_tree(net, "o", ["o", "m", "h"])
        for cid in ("c1", "c2"):  # each takes m at exp(-1/2); placed together they superpose
            concept(net, cid, value=1.0)
        tree, config = net.trees["o"], EngineConfig()
        matching._MEMOS.clear()
        both = match_tree(net, ["c1", "c2"], tree, config)
        assert both == oracle_match_tree(net, ["c1", "c2"], tree, config)
        twice = match_tree(net, ["c1", "c1"], tree, config)
        assert twice == oracle_match_tree(net, ["c1"], tree, config)
        assert twice.membership < both.membership


class TestKnowledgeBaseMemo:
    """Scratches and launches kept in one table keyed by tree content: made once, bounded, holding no network."""

    def _scene(self):
        net = _nested([0.7, 0.5])
        for i in (1, 2):
            concept(net, f"leafx{i}")
            net.add_belong(f"leafx{i}", f"leaf{i}")
        return net

    def test_matching_a_tree_again_builds_and_launches_nothing(self, monkeypatch):
        matching._MEMOS.clear()
        net = self._scene()
        counts = _counted(monkeypatch)
        first = match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], _config())
        assert first == oracle_match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], _config())
        once = dict(counts)
        for _ in range(50):
            assert match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], _config()) == first
            assert match_nested(net.copy(), ["leafx1", "leafx2"], net.trees["outer"], _config()) == first
        # a scratch for each of the three trees; a launch for each (tree, source, input)
        assert counts == once == {"scratches": 3, "launches": 4}
        match_tree(net, ["leafx1"], net.trees["in1"], _config())
        assert counts == once

    def test_tasks_made_from_one_knowledge_base_share_its_memo(self, monkeypatch):
        matching._MEMOS.clear()
        kb = face_kb()
        specs = [ConceptSpec(base=base, p=p, as_id=as_id) for base, p, as_id in FACE_INPUTS]
        counts = _counted(monkeypatch)
        fit_run(make_task(kb, _config(), specs))
        assert counts["scratches"] > 0 and counts["launches"] > 0
        first = dict(counts)
        fit_run(make_task(kb, _config(), specs))
        assert counts == first

    def test_a_base_parsed_or_loaded_again_shares_the_memo(self, monkeypatch):
        matching._MEMOS.clear()
        text = serialize_kb(face_kb())
        specs = [ConceptSpec(base=base, p=p, as_id=as_id) for base, p, as_id in FACE_INPUTS]
        saved = session_save(make_task(parse_kb(text), _config(), specs))
        counts = _counted(monkeypatch)
        want = fit_run(make_task(parse_kb(text), _config(), specs)).task.trace.lines()
        assert counts["scratches"] > 0 and counts["launches"] > 0
        first = dict(counts)
        assert fit_run(make_task(parse_kb(text), _config(), specs)).task.trace.lines() == want
        assert fit_run(session_load(saved)).task.trace.lines() == want
        assert counts == first

    def test_a_thousand_edits_keep_the_table_in_bound(self):
        net = self._scene()
        rng = random.Random(0)
        config = _config()
        for i in range(1000):
            rel = net.relations[rng.choice(["ri1", "ri2", "ro1", "ro2"])]
            rel.cond.backward = rng.choice([0.2, 0.5, 0.9, 1.0, Gaussian(3.0, 1.0)])
            if i % 3 == 0:  # a Gaussian conditional scores the value of the end it reaches
                net.concepts[rng.choice(["in1", "in2", "outer"])].value = rng.choice([None, 3.0, 4.0])
            if i % 7 == 0:
                config = _config(mode=rng.choice(list(Mode)), max_hops=rng.choice([None, 1, 2]))
            if i % 11 == 0:  # the inner tree declared again, with or without its leaf
                declare_tree(net, "in2", rng.choice([["in2"], ["in2", "leaf2", "ri2"]]))
            got = match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], config)
            assert got == oracle_match_nested(net, ["leafx1", "leafx2"], net.trees["outer"], config), i
            if i % 10 == 0:  # a tree under a fresh root, matched and then forgotten, as learning does
                concept(net, f"new{i}")
                relation(net, f"rnew{i}", RelationKind.HAS_PART, f"new{i}", "leaf1")
                declare_tree(net, f"new{i}", ["leaf1", f"rnew{i}"])
                match_nested(net, ["leafx1"], net.trees[f"new{i}"], config)
                net.drop_tree(f"new{i}")
            assert len(matching._MEMOS) <= matching._MEMO_LIMIT

    def test_a_stream_of_trees_keeps_the_table_in_bound(self):
        net = self._scene()
        tree, n = net.trees["in1"], 3 * matching._MEMO_LIMIT
        for i in range(1, n + 1):  # each conditional makes a tree content of its own
            net.relations["ri1"].cond.backward = i / n
            got = match_nested(net, ["leafx1"], tree, _config())
            assert got == oracle_match_nested(net, ["leafx1"], tree, _config()), i
            assert len(matching._MEMOS) <= matching._MEMO_LIMIT

    def test_a_full_table_drops_only_the_key_used_longest_ago(self, monkeypatch):
        matching._MEMOS.clear()
        net = self._scene()
        tree, n = net.trees["in1"], matching._MEMO_LIMIT + 1
        counts = _counted(monkeypatch)

        def match(i: int) -> None:  # each conditional makes a tree content of its own
            net.relations["ri1"].cond.backward = i / n
            assert match_nested(net, ["leafx1"], tree, _config()) == oracle_match_nested(
                net, ["leafx1"], tree, _config()
            ), i

        for i in range(1, n + 1):  # one key more than the table holds
            match(i)
        assert counts["scratches"] == n and len(matching._MEMOS) == matching._MEMO_LIMIT
        for i in range(n, 1, -1):  # the most recent first: every key but the first is kept
            match(i)
            assert counts["scratches"] == n, i
        match(1)  # built again, in place of key n, now the one used longest ago
        assert counts["scratches"] == n + 1
        match(2)
        assert counts["scratches"] == n + 1
        match(n)
        assert counts["scratches"] == n + 2

    def test_a_key_matched_again_outlives_keys_added_after_it(self, monkeypatch):
        matching._MEMOS.clear()
        net = self._scene()
        tree, n = net.trees["in1"], matching._MEMO_LIMIT
        counts = _counted(monkeypatch)

        def match(i: int) -> None:  # each conditional makes a tree content of its own
            net.relations["ri1"].cond.backward = i / (n + 1)
            match_nested(net, ["leafx1"], tree, _config())

        for i in range(1, n + 1):  # a full table
            match(i)
        match(1)
        match(n + 1)  # drops key 2, used longest ago, not key 1, inserted first
        assert counts["scratches"] == n + 1
        match(1)
        assert counts["scratches"] == n + 1

    def test_a_base_of_more_trees_than_the_limit_matches_them_all_again_warm(self, monkeypatch):
        matching._MEMOS.clear()
        net = self._scene()
        roots = [f"big{i}" for i in range(2 * matching._MEMO_LIMIT)]
        for root in roots:
            concept(net, root)
            relation(net, f"r{root}", RelationKind.HAS_PART, root, "leaf1")
            declare_tree(net, root, [root, "leaf1", f"r{root}"])
        counts = _counted(monkeypatch)
        first = [match_nested(net, ["leafx1"], net.trees[root], _config()) for root in roots]
        assert counts == {"scratches": len(roots), "launches": len(roots)}
        assert first[-1] == oracle_match_nested(net, ["leafx1"], net.trees[roots[-1]], _config())
        assert [match_nested(net, ["leafx1"], net.trees[root], _config()) for root in roots] == first
        assert counts == {"scratches": len(roots), "launches": len(roots)}
        assert len(matching._MEMOS) <= 2 * len(net.trees)

    def test_one_key_holds_a_bounded_number_of_launches_and_scratches(self):
        net = self._scene()
        tree, config = net.trees["in1"], _config()
        match = matching._TreeMatch(net, tree, config)
        n = 3 * matching._LAUNCH_LIMIT
        for i in range(1, n + 1):  # a stream of distinct inputs
            want = oracle_membership(net, tree, {"leaf1": i / n}, {}, config)
            assert match.membership({"leaf1": i / n}, {}) == want
            assert len(match.memo.launches) <= matching._LAUNCH_LIMIT
        for i in range(1, 4 * matching._SCRATCH_LIMIT):  # a stream of distinct relation degrees
            degrees = {"ri1": i / (4 * matching._SCRATCH_LIMIT)}
            want = oracle_membership(net, tree, {"leaf1": 0.5}, degrees, config)
            assert match.membership({"leaf1": 0.5}, degrees) == want
            assert len(match.memo.scratches) <= matching._SCRATCH_LIMIT
        relation(net, "rx", RelationKind.HAS_COMPONENT, "in1", "leafx1")
        for i in range(1, 3 * matching._BEST_LIMIT):  # a stream of fragment shapes: one relation's params
            net.relations["rx"].params["d"] = float(i)
            assert match.best(["leafx1", "rx"]) == matching._search(match, ["leafx1"], ["rx"])
            assert len(match.memo.best) <= matching._BEST_LIMIT

    def test_a_dropped_base_and_its_task_are_collected(self, monkeypatch):
        kb = face_kb()
        specs = [ConceptSpec(base=base, p=p, as_id=as_id) for base, p, as_id in FACE_INPUTS]
        fit_run(make_task(kb, _config(), specs))
        monkeypatch.setattr(matching, "_search", None)  # the second fit finds every placement remembered
        task = make_task(kb, _config(), specs)
        fit_run(task)
        assert matching._MEMOS  # the table outlives them
        gone = weakref.ref(kb), weakref.ref(task), weakref.ref(task.states[0].net)
        del kb, task
        gc.collect()
        assert [ref() for ref in gone] == [None, None, None]


class TestMatchComplete:
    def _pairs(self):
        net = _flat_base()
        for inst, base in (("R1", "R"), ("a1", "a"), ("b1", "b")):
            concept(net, inst)
            net.add_belong(inst, base)
        relation(net, "ra1", RelationKind.HAS_COMPONENT, "R1", "a1", base="ra",
                 pba=1.0, pab=0.7)
        relation(net, "rb1", RelationKind.HAS_COMPONENT, "R1", "b1", base="rb",
                 pba=1.0, pab=0.5)
        return net

    def test_exact_copy_matches(self):
        net = self._pairs()
        assert match_complete(
            net, ["R1", "a1", "b1", "ra1", "rb1"], ["R", "a", "b", "ra", "rb"]
        )

    def test_missing_element_fails(self):
        net = self._pairs()
        net.remove_element("b1")
        assert not match_complete(
            net, ["R1", "a1", "ra1"], ["R", "a", "b", "ra", "rb"]
        )

    def test_extras_allowed(self):
        net = self._pairs()
        concept(net, "extra")
        assert match_complete(
            net, ["R1", "a1", "b1", "ra1", "rb1", "extra"], ["R", "a", "b", "ra", "rb"]
        )
