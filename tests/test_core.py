"""Structural substrate: belong-to, tree classification, derived-network check."""
from __future__ import annotations

import copy

import pytest

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    Interval,
    LookupMissing,
    ParameterError,
    Relation,
    RelationKind,
    Status,
    StructureError,
    belongs_to,
    check_derived_network,
    classify_tree_network,
    element_count,
)
from dcnet.probability import ContributionLedger, EngineConfig, collapse_element
from dcnet.trace import Trace


def _concept(net, cid, **kw):
    return net.add_concept(Concept(id=cid, **kw))


def _rel(net, rid, kind, a, b, pba=1.0, pab=1.0, base=None, params=None):
    return net.add_relation(
        Relation(
            id=rid,
            kind=kind,
            a=a,
            b=b,
            cond=ConditionalProbabilityPair(forward=pba, backward=pab),
            base=base,
            params=params or {},
        )
    )


@pytest.fixture
def chain_net():
    net = CognitiveNetwork()
    for cid in ("a", "b", "c"):
        _concept(net, cid)
    net.add_belong("a", "b")
    net.add_belong("b", "c")
    return net


class TestBelongsTo:
    def test_value_containment(self):
        assert belongs_to(None, 25.0, Interval(20, 30))
        assert not belongs_to(None, 35.0, Interval(20, 30))
        assert belongs_to(None, Interval(20, 30), Interval(10, 50))
        assert not belongs_to(None, Interval(5, 30), Interval(10, 50))

    def test_reflexive(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        assert belongs_to(net, "x", "x")

    def test_transitive_chain(self, chain_net):
        assert belongs_to(chain_net, "a", "c")
        assert not belongs_to(chain_net, "c", "a")

    def test_equal_is_symmetric(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        _concept(net, "y")
        _rel(net, "eq", RelationKind.EQUAL, "x", "y")
        assert belongs_to(net, "x", "y")
        assert belongs_to(net, "y", "x")

    def test_unresolved_id_raises(self, chain_net):
        with pytest.raises(LookupMissing):
            belongs_to(chain_net, "a", "nope")

    def test_value_concepts_resolve_through_payloads(self):
        net = CognitiveNetwork()
        _concept(net, "v25", value=25.0)
        _concept(net, "range", value=Interval(20, 30))
        assert belongs_to(net, "v25", "range")

    def test_scalar_interval_boundary_is_open(self):
        # containment agrees with interval arithmetic: lo < s < hi
        assert not belongs_to(None, 20.0, Interval(20, 30))
        assert not belongs_to(None, 30.0, Interval(20, 30))

    def test_belong_cycle_rejected_except_equal(self, chain_net):
        with pytest.raises(StructureError):
            chain_net.add_belong("c", "a")
        # the 2-cycle induced by equal stays legal
        _rel(chain_net, "eq", RelationKind.EQUAL, "a", "c")


class TestTreeClassification:
    def _face_net(self):
        net = CognitiveNetwork()
        for cid in ("face", "eye", "nose"):
            _concept(net, cid)
        _rel(net, "r_fe", RelationKind.HAS_COMPONENT, "face", "eye")
        _rel(net, "r_fn", RelationKind.HAS_COMPONENT, "face", "nose")
        _rel(net, "r_en", RelationKind.ADJOINING, "eye", "nose")
        return net

    def test_face_tree_split(self):
        net = self._face_net()
        view = classify_tree_network(net, "face")
        assert view.root == "face"
        assert set(view.longitudinal) == {"r_fe", "r_fn"}
        assert view.additional == ["r_en"]

    def test_single_concept_tree(self):
        net = CognitiveNetwork()
        _concept(net, "only")
        view = classify_tree_network(net, "only")
        assert view.root == "only"
        assert view.longitudinal == [] and view.additional == []

    def test_lateral_only_pair_is_rejected(self):
        net = CognitiveNetwork()
        _concept(net, "p")
        _concept(net, "q")
        _rel(net, "adj", RelationKind.ADJOINING, "p", "q")
        with pytest.raises(StructureError) as err:
            classify_tree_network(net, "p")
        assert "q" in str(err.value)

    def test_relation_rooted_tree(self):
        # two concepts joined laterally form a tree when the relation is the root
        net = CognitiveNetwork()
        _concept(net, "p")
        _concept(net, "q")
        _rel(net, "adj", RelationKind.ADJOINING, "p", "q")
        view = classify_tree_network(net, "adj")
        assert view.root == "adj"
        assert set(view.concepts) == {"p", "q"}


class TestDerivedNetwork:
    def _base_pair(self):
        net = CognitiveNetwork()
        for cid in ("face", "eye", "face1", "eye1"):
            _concept(net, cid)
        _rel(net, "r", RelationKind.HAS_COMPONENT, "face", "eye")
        net.add_belong("face1", "face")
        net.add_belong("eye1", "eye")
        _rel(net, "r1", RelationKind.HAS_COMPONENT, "face1", "eye1", base="r")
        return net

    def test_binary_relation_derivation(self):
        net = self._base_pair()
        mapping = check_derived_network(net, ["face1", "eye1", "r1"], ["face", "eye", "r"])
        assert mapping is not None
        assert mapping.pairs == {"face": "face1", "eye": "eye1", "r": "r1"}

    def test_empty_base_is_vacuous(self):
        net = self._base_pair()
        mapping = check_derived_network(net, ["face1"], [])
        assert mapping is not None and mapping.pairs == {}

    def test_missing_relation_image_fails(self):
        net = self._base_pair()
        net.remove_element("r1")
        assert check_derived_network(net, ["face1", "eye1"], ["face", "eye", "r"]) is None

    def test_self_derivation_via_reflexivity(self):
        net = self._base_pair()
        ids = ["face", "eye", "r"]
        mapping = check_derived_network(net, ids, ids)
        assert mapping is not None
        assert all(mapping.pairs[e] == e for e in ids)

    def test_mapped_pairs_all_belong(self):
        net = self._base_pair()
        mapping = check_derived_network(net, ["face1", "eye1", "r1"], ["face", "eye", "r"])
        for base_el, derived_el in mapping.pairs.items():
            assert belongs_to(net, derived_el, base_el)

    def test_extras_on_derived_side_are_fine(self):
        net = self._base_pair()
        _concept(net, "stray")
        mapping = check_derived_network(
            net, ["face1", "eye1", "r1", "stray"], ["face", "eye", "r"]
        )
        assert mapping is not None

    def test_relation_on_relation_ends_on_the_mapped_image(self):
        net = CognitiveNetwork()
        for cid in ("X", "Y", "Z", "X1", "Y1", "Z1"):
            _concept(net, cid)
        _rel(net, "r1", RelationKind.ADJOINING, "X", "Y")
        _rel(net, "r0", RelationKind.CAUSALITY, "Z", "r1")
        for cid in ("X", "Y", "Z"):
            net.add_belong(f"{cid}1", cid)
        _rel(net, "r1a", RelationKind.ADJOINING, "X1", "Y1", base="r1")
        _rel(net, "r1b", RelationKind.ADJOINING, "X1", "Y1", base="r1")
        _rel(net, "r0a", RelationKind.CAUSALITY, "Z1", "r1b", base="r0")
        mapping = check_derived_network(
            net, ["X1", "Y1", "Z1", "r1a", "r1b", "r0a"], ["X", "Y", "Z", "r0", "r1"]
        )
        assert mapping is not None
        assert mapping.pairs["r0"] == "r0a" and mapping.pairs["r1"] == "r1b"


class TestCopy:
    def test_a_copy_and_its_indexes_change_apart_from_the_original(self):
        for make_copy in (CognitiveNetwork.layer, CognitiveNetwork.copy, copy.deepcopy):
            net = CognitiveNetwork()
            for cid in ("a", "b", "c"):
                _concept(net, cid)
            _rel(net, "r", RelationKind.HAS_PART, "a", "b")
            _rel(net, "r2", RelationKind.HAS_PART, "b", "c", base="r")
            _rel(net, "x", RelationKind.XOR, "a", "c", pba=0.0, pab=0.0)
            _rel(net, "y", RelationKind.XOR, "b", "c", pba=0.0, pab=0.0)
            clone = make_copy(net)
            clone.remove_element("x")
            clone.remove_element("r2")
            _rel(clone, "s", RelationKind.HAS_PART, "a", "c", base="r")
            assert net.incident("a") == ["r", "x"] and net.incident("c") == ["r2", "x", "y"]
            assert net.xor_relations() == ["x", "y"] and net.relations_based_on("r") == ["r2"]
            assert list(net.xor_relations_at("a")) == ["x"]
            assert list(net.xor_relations_at("c")) == ["x", "y"]
            assert clone.incident("a") == ["r", "s"] and clone.relations_based_on("r") == ["s"]
            assert clone.xor_relations() == ["y"] and set(clone.xor_ends()) == {"b", "c"}
            assert clone.position_key("s") > clone.position_key("r") > clone.position_key("c")
            assert "s" not in net.relations
            # a layer shares what neither side has written; a copy shares nothing
            assert (clone.relations["r"] is net.relations["r"]) is (make_copy is CognitiveNetwork.layer)
            # an XOR relation removed on the original side leaves the copy's index as it was
            net.remove_element("y")
            assert set(net.xor_ends()) == {"a", "c"} and list(net.xor_relations_at("c")) == ["x"]
            assert list(clone.xor_relations_at("b")) == ["y"]
            assert list(clone.xor_relations_at("c")) == ["y"]


class TestRemoval:
    def test_relations_ending_on_a_removed_relation_go_with_it(self):
        net = CognitiveNetwork()
        for cid in ("a", "b", "c", "d"):
            _concept(net, cid)
        _rel(net, "r", RelationKind.HAS_PART, "a", "b")
        _rel(net, "x", RelationKind.XOR, "r", "c", pba=0.0, pab=0.0)
        assert net.remove_element("r") == ["r", "x"]
        net.validate()
        assert net.xor_relations() == [] and net.incident("c") == []
        collapse_element(net, "d", EngineConfig(), ContributionLedger(), Trace())
        assert net.state("d").status is Status.COLLAPSED

    def test_removed_ids_come_element_first_then_in_the_order_reached(self):
        net = CognitiveNetwork()
        for cid in ("a", "b", "c"):
            _concept(net, cid)
        _rel(net, "r1", RelationKind.HAS_PART, "a", "b")
        _rel(net, "r2", RelationKind.HAS_PART, "a", "c")
        _rel(net, "s", RelationKind.ADJOINING, "r1", "c")
        _rel(net, "t", RelationKind.CAUSALITY, "s", "b")
        assert net.remove_element("a") == ["a", "r1", "r2", "s", "t"]
        assert net.element_ids() == ["b", "c"]
        assert net.incident("b") == [] and net.incident("c") == []
        net.validate()

    def test_unknown_element_raises(self):
        with pytest.raises(LookupMissing):
            CognitiveNetwork().remove_element("ghost")


class TestIds:
    @pytest.mark.parametrize("bad", ["", "x=y", "a,b", "a b", "a\tb", "-"])
    def test_an_id_the_text_formats_cannot_hold_is_rejected(self, bad):
        net = CognitiveNetwork()
        with pytest.raises(StructureError, match="bad element id"):
            _concept(net, bad)
        _concept(net, "a")
        _concept(net, "b")
        with pytest.raises(StructureError, match="bad element id"):
            _rel(net, bad, RelationKind.ADJOINING, "a", "b")
        assert net.element_ids() == ["a", "b"]

    def test_hash_colon_dot_and_tilde_are_legal(self):
        net = CognitiveNetwork()
        for cid in ("#ghost", "x#1", "r:a:b", "s0.k1p2", "a~b", "-x"):
            _concept(net, cid)
        _rel(net, "a~b#2", RelationKind.ADJOINING, "x#1", "s0.k1p2")
        assert len(net.element_ids()) == 7


class TestValidation:
    def test_element_count(self, chain_net):
        assert element_count(CognitiveNetwork()) == 0
        # three concepts plus two belong edges
        assert element_count(chain_net) == 5

    def test_relation_endpoints_must_exist(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        with pytest.raises(LookupMissing):
            _rel(net, "r", RelationKind.ADJOINING, "x", "ghost")

    def test_no_self_loop(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        with pytest.raises(StructureError):
            _rel(net, "r", RelationKind.ADJOINING, "x", "x")

    def test_kind_fixed_probabilities(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        _concept(net, "y")
        with pytest.raises(ParameterError):
            _rel(net, "r", RelationKind.BELONG_TO, "x", "y", pba=0.9)
        with pytest.raises(ParameterError):
            _rel(net, "r", RelationKind.XOR, "x", "y", pba=0.5, pab=0.0)
        with pytest.raises(ParameterError):
            _rel(net, "r", RelationKind.EQUAL, "x", "y", pba=1.0, pab=0.7)

    def test_probability_range_checked(self):
        net = CognitiveNetwork()
        _concept(net, "x")
        _concept(net, "y")
        with pytest.raises(ParameterError):
            _rel(net, "r", RelationKind.HAS_COMPONENT, "x", "y", pba=1.5)

    def test_derived_param_outside_base_interval_rejected(self):
        net = CognitiveNetwork()
        for cid in ("x", "y", "x1", "y1"):
            _concept(net, cid)
        _rel(net, "rb", RelationKind.ADJOINING, "x", "y", params={"distance": Interval(0, 5)})
        with pytest.raises(ParameterError):
            _rel(
                net,
                "rd",
                RelationKind.ADJOINING,
                "x1",
                "y1",
                base="rb",
                params={"distance": 7.0},
            )

    def test_derived_kind_must_match_base(self):
        net = CognitiveNetwork()
        for cid in ("x", "y", "x1", "y1"):
            _concept(net, cid)
        _rel(net, "rb", RelationKind.ADJOINING, "x", "y")
        from dcnet.core import KindError

        with pytest.raises(KindError):
            _rel(net, "rd", RelationKind.CAUSALITY, "x1", "y1", base="rb")
