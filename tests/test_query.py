"""Template queries: complete matching plus bounded conversion reasoning."""
from __future__ import annotations

import pytest

from dcnet.core import CognitiveNetwork, RelationKind, StructureError
from dcnet.query import (
    QueryTemplate,
    TemplateElement,
    TemplateRelation,
    query_match,
    query_reason,
)

from scenes import concept, relation


def _age_store():
    net = CognitiveNetwork()
    concept(net, "tom_age")
    concept(net, "n15", value=15.0)
    relation(net, "r_age", RelationKind.EQUAL, "tom_age", "n15")
    return net


def _age_template():
    return QueryTemplate(
        elements=[
            TemplateElement(id="qa", base="tom_age"),
            TemplateElement(id="qx", var=True),
        ],
        relations=[TemplateRelation(id="qr", kind=RelationKind.EQUAL, a="qa", b="qx")],
    )


def _dialogue_store():
    """Two speakers, one explicit nationality fact, one echo act.

    The knowledge layer links the echo act to the nationality fact by a
    conversion relation between the two relation templates, so reasoning can
    supply the missing [jerry has-attribute american] relation.
    """
    net = CognitiveNetwork()
    for cid in ("person", "american", "echo_act"):
        concept(net, cid)
    relation(net, "r_nat", RelationKind.HAS_ATTRIBUTE, "person", "american")
    relation(net, "r_echo", RelationKind.HAS_FORM, "person", "echo_act")
    relation(net, "conv", RelationKind.CONVERSION, "r_echo", "r_nat", pba=1.0, pab=1.0)
    # the store proper
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


class TestQueryMatch:
    def test_variable_binds_to_the_stored_value(self):
        store = _age_store()
        bindings = query_match(_age_template(), store)
        # first binding is the stored value; equality also admits the trivial
        # self-reading since equal-induced belonging runs both ways
        assert bindings[0].values == {"qx": "n15"}
        assert store.concepts["n15"].value == 15.0
        assert all(b.values["qx"] in ("n15", "tom_age") for b in bindings)

    def test_zero_variable_existence_check(self):
        store = _age_store()
        template = QueryTemplate(
            elements=[TemplateElement(id="qa", base="tom_age"),
                      TemplateElement(id="qv", base="n15")],
            relations=[TemplateRelation(id="qr", kind=RelationKind.EQUAL, a="qa", b="qv")],
        )
        bindings = query_match(template, store)
        assert len(bindings) == 1 and bindings[0].values == {}

    def test_absent_pattern_gives_no_bindings(self):
        store = _age_store()
        template = QueryTemplate(
            elements=[TemplateElement(id="qa", base="tom_age"),
                      TemplateElement(id="qx", var=True)],
            relations=[TemplateRelation(id="qr", kind=RelationKind.CAUSALITY, a="qa", b="qx")],
        )
        assert query_match(template, store) == []

    def test_unanchored_variable_rejected(self):
        template = QueryTemplate(elements=[TemplateElement(id="qx", var=True)])
        with pytest.raises(StructureError):
            query_match(template, _age_store())

    def test_typed_variable_restricts_bindings(self):
        store = _dialogue_store()
        template = QueryTemplate(
            elements=[TemplateElement(id="qp", base="tom"),
                      TemplateElement(id="qx", var=True, base="american")],
            relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
        )
        bindings = query_match(template, store)
        assert [b.values for b in bindings] == [{"qx": "american1"}]

    def test_deterministic_ordering(self):
        store = _age_store()
        concept(store, "n15b", value=15.0)
        relation(store, "r_age2", RelationKind.EQUAL, "tom_age", "n15b")
        bindings = query_match(_age_template(), store)
        assert [b.values["qx"] for b in bindings] == ["n15", "n15b", "tom_age"]

    def test_typed_variables_bind_their_type_concepts(self):
        # belong-to is reflexive, so the knowledge relation person->american is
        # itself an instance of the pattern: N facts give N+1 bindings
        store = CognitiveNetwork()
        concept(store, "person")
        concept(store, "american")
        relation(store, "r_nat", RelationKind.HAS_ATTRIBUTE, "person", "american")
        for i in range(3):
            concept(store, f"p{i}")
            store.add_belong(f"p{i}", "person")
            concept(store, f"am{i}")
            store.add_belong(f"am{i}", "american")
            relation(store, f"nat{i}", RelationKind.HAS_ATTRIBUTE, f"p{i}", f"am{i}", base="r_nat")
        template = QueryTemplate(
            elements=[TemplateElement(id="qp", var=True, base="person"),
                      TemplateElement(id="qx", var=True, base="american")],
            relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
        )
        assert [b.values for b in query_match(template, store)] == [
            {"qp": "p0", "qx": "am0"},
            {"qp": "p1", "qx": "am1"},
            {"qp": "p2", "qx": "am2"},
            {"qp": "person", "qx": "american"},
        ]

    def test_relation_ending_on_a_later_relation_is_constrained(self):
        store = CognitiveNetwork()
        for cid in ("a", "b", "b2", "c"):
            concept(store, cid)
        relation(store, "ra1", RelationKind.ADJOINING, "a", "b")
        relation(store, "ra2", RelationKind.ADJOINING, "a", "b2")
        relation(store, "rc", RelationKind.CAUSALITY, "c", "ra2")
        # q0 ends on q1, which sorts after it: q1's image must be the relation rc ends on
        template = QueryTemplate(
            elements=[TemplateElement(id="qa", base="a"), TemplateElement(id="qc", base="c"),
                      TemplateElement(id="qx", var=True)],
            relations=[TemplateRelation(id="q0", kind=RelationKind.CAUSALITY, a="qc", b="q1"),
                       TemplateRelation(id="q1", kind=RelationKind.ADJOINING, a="qa", b="qx")],
        )
        assert [b.values for b in query_match(template, store)] == [{"qx": "b2"}]

    def test_relations_ending_on_each_other_in_a_cycle_are_rejected(self):
        template = QueryTemplate(
            elements=[TemplateElement(id="qa", base="tom_age"), TemplateElement(id="qx", var=True)],
            relations=[TemplateRelation(id="q0", kind=RelationKind.EQUAL, a="qa", b="q1"),
                       TemplateRelation(id="q1", kind=RelationKind.EQUAL, a="qx", b="q0"),
                       TemplateRelation(id="q2", kind=RelationKind.EQUAL, a="qa", b="qx")],
        )
        with pytest.raises(StructureError):
            query_match(template, _age_store())


def _country_template():
    return QueryTemplate(
        elements=[TemplateElement(id="qp", base="jerry"),
                  TemplateElement(id="qx", var=True, base="american")],
        relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
    )


class TestQueryReason:
    def test_one_hop_conversion_answers_the_country_question(self):
        store = _dialogue_store()
        outcome = query_reason(_country_template(), store, max_steps=1)
        assert len(outcome.answers) == 1
        answer = outcome.answers[0]
        bound = answer.binding.values["qx"]
        assert bound != "american1"  # derived on the overlay, not Tom's fact
        assert answer.explanation, "reasoned answers carry their relations"
        assert not outcome.budget_exhausted

    def test_store_is_not_mutated(self):
        store = _dialogue_store()
        count = store.element_count()
        query_reason(_country_template(), store, max_steps=3)
        assert store.element_count() == count

    def test_zero_budget_reduces_to_direct_match(self):
        store = _dialogue_store()
        outcome = query_reason(_country_template(), store, max_steps=0)
        assert outcome.answers == []
        assert not outcome.budget_exhausted
        direct = QueryTemplate(
            elements=[TemplateElement(id="qp", base="tom"),
                      TemplateElement(id="qx", var=True)],
            relations=[TemplateRelation(id="qr", kind=RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")],
        )
        assert [a.binding.values for a in query_reason(direct, store, max_steps=0).answers] == [
            {"qx": "american1"}
        ]

    def test_budget_exhaustion_on_long_chains(self):
        net = CognitiveNetwork()
        for cid in ("s0", "s1", "s2", "s3"):
            concept(net, cid)
        for i in range(3):
            relation(net, f"conv{i}", RelationKind.CONVERSION, f"s{i}", f"s{i + 1}")
        concept(net, "start")
        net.add_belong("start", "s0")
        template = QueryTemplate(
            elements=[TemplateElement(id="qs", base="start"),
                      TemplateElement(id="qx", var=True, base="s3")],
            relations=[TemplateRelation(id="qr", kind=RelationKind.CONVERSION, a="qs", b="qx")],
        )
        short = query_reason(template, net, max_steps=2)
        assert short.answers == [] and short.budget_exhausted

    def test_budget_monotonicity(self):
        store = _dialogue_store()
        template = _country_template()
        for k in range(3):
            smaller = {tuple(sorted(a.binding.values.items()))
                       for a in query_reason(template, store, max_steps=k).answers}
            larger = {tuple(sorted(a.binding.values.items()))
                      for a in query_reason(template, store, max_steps=k + 1).answers}
            assert smaller <= larger

    def test_soundness_of_reasoned_bindings(self):
        store = _dialogue_store()
        outcome = query_reason(_country_template(), store, max_steps=1)
        for answer in outcome.answers:
            bound = answer.binding.values["qx"]
            # binding respects the variable's type bound even on the grown overlay
            assert bound.startswith("american")
