"""Superposition algebra, propagation, collapse and the contribution ledger."""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from dcnet.core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    ConflictError,
    Gaussian,
    Interval,
    ParameterError,
    ProbabilityState,
    Relation,
    RelationKind,
    Status,
)
from dcnet.probability import (
    CertaintyUndo,
    ContributionLedger,
    EngineConfig,
    LedgerCorruption,
    Mode,
    gaussian_membership,
    collapse_element,
    mean_probability,
    param_membership,
    pps_launch,
    relational_membership,
    settle,
    superpose,
    superpose_n,
    unsuperpose,
    _xor_partners,
)
from dcnet import probability
from dcnet.growth import ConceptSpec, fit_run, make_task
from dcnet.kbio import Expectation, check_expectations, serialize_kb
from dcnet.lifecycle import session_save
from dcnet.trace import Trace

from scenes import FACE_INPUTS, face_kb, face_task
from test_collapse_oracle import scan_xor_partners


def _concept(net, cid, p=0.0):
    c = net.add_concept(Concept(id=cid))
    c.state.input_prob = p
    c.state.result_prob = p
    return c


def _rel(net, rid, a, b, pba=1.0, pab=1.0, kind=RelationKind.HAS_COMPONENT, params=None, base=None):
    return net.add_relation(
        Relation(
            id=rid,
            kind=kind,
            a=a,
            b=b,
            cond=ConditionalProbabilityPair(forward=pba, backward=pab),
            params=params or {},
            base=base,
        )
    )


def _tied_chains(n):
    """n pairs of HAS_PART chains h -> t and rh -> rt, each tail XOR-tied to its rival's."""
    net = CognitiveNetwork()
    for i in range(n):
        for cid in (f"h{i}", f"t{i}", f"rh{i}", f"rt{i}"):
            _concept(net, cid)
        _rel(net, f"p{i}", f"h{i}", f"t{i}", kind=RelationKind.HAS_PART)
        _rel(net, f"q{i}", f"rh{i}", f"rt{i}", kind=RelationKind.HAS_PART)
        _rel(net, f"x{i}", f"t{i}", f"rt{i}", pba=0.0, pab=0.0, kind=RelationKind.XOR)
    return net


def _engine(**kw):
    return EngineConfig(**kw)


def _recorded_queues(monkeypatch) -> list:
    """Every ready queue the engine builds from now on, in order."""
    queues = []

    class Recorded(probability._ReadyQueue):
        def __init__(self, *args):
            super().__init__(*args)
            queues.append(self)

    monkeypatch.setattr(probability, "_ReadyQueue", Recorded)
    return queues


def inclusion_exclusion(ps):
    """Independent oracle for n-ary superposition: alternating sum over subsets."""
    total = 0.0
    for r in range(1, len(ps) + 1):
        sign = (-1) ** (r + 1)
        for combo in itertools.combinations(ps, r):
            total += sign * math.prod(combo)
    return total


class TestGaussianMembership:
    def test_peak_at_mean(self):
        assert gaussian_membership(1.7, 1.7, 0.1) == 1.0

    def test_one_sigma_off(self):
        assert gaussian_membership(1.8, 1.7, 0.1) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_table_height_example(self):
        assert gaussian_membership(1.7, 1.0, 0.5) == pytest.approx(math.exp(-0.98), abs=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_membership(1.0, 1.0, 0.0)


class TestSuperposeAlgebra:
    def test_worked_value(self):
        assert superpose(0.3, 0.6) == pytest.approx(0.72, abs=1e-15)

    def test_identity_and_absorbing(self):
        for x in (0.0, 0.25, 0.99, 1.0):
            assert superpose(x, 0.0) == x
            assert superpose(x, 1.0) == 1.0

    def test_range_checked(self):
        with pytest.raises(ParameterError):
            superpose(-0.1, 0.5)
        with pytest.raises(ParameterError):
            superpose(0.5, 1.1)

    def test_unsuperpose_inverts_worked_value(self):
        assert unsuperpose(0.72, 0.6) == pytest.approx(0.3, abs=1e-12)

    def test_unsuperpose_of_zero_is_identity(self):
        assert unsuperpose(0.4, 0.0) == 0.4

    def test_unsuperpose_round_trip(self):
        assert unsuperpose(superpose(0.5, 0.4), 0.4) == pytest.approx(0.5, abs=1e-12)

    def test_undo_of_certainty(self):
        with pytest.raises(CertaintyUndo):
            unsuperpose(1.0, 1.0)

    def test_ledger_corruption(self):
        with pytest.raises(LedgerCorruption):
            unsuperpose(0.3, 0.5)

    def test_n_ary_against_brute_force(self):
        assert superpose_n([0.5, 0.5, 0.5]) == pytest.approx(0.875, abs=1e-12)
        assert superpose_n([0.5, 0.5, 0.5]) == pytest.approx(
            inclusion_exclusion([0.5, 0.5, 0.5]), abs=1e-12
        )

    def test_n_ary_empty(self):
        assert superpose_n([]) == 0.0

    def test_n_ary_reduces_to_binary(self):
        assert superpose_n([0.3, 0.6]) == pytest.approx(0.72, abs=1e-15)

    def test_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(2000):
            a, b, c = rng.random(), rng.random(), rng.random()
            assert superpose(a, b) == pytest.approx(superpose(b, a), abs=1e-15)
            assert superpose(superpose(a, b), c) == pytest.approx(
                superpose(a, superpose(b, c)), abs=1e-12
            )

    def test_any_order_folding_random(self):
        rng = random.Random(11)
        for _ in range(500):
            ps = [rng.random() for _ in range(rng.randint(0, 6))]
            shuffled = ps[:]
            rng.shuffle(shuffled)
            assert superpose_n(ps) == pytest.approx(superpose_n(shuffled), abs=1e-12)
            assert superpose_n(ps) == pytest.approx(inclusion_exclusion(ps), abs=1e-12)


class TestRelationalMembership:
    def _pair(self, base_params, inst_params, derived=True):
        net = CognitiveNetwork()
        for cid in ("x", "y", "x1", "y1"):
            net.add_concept(Concept(id=cid))
        _rel(net, "rb", "x", "y", kind=RelationKind.ADJOINING, params=base_params)
        _rel(
            net,
            "rd",
            "x1",
            "y1",
            kind=RelationKind.ADJOINING,
            params=inst_params,
            base="rb" if derived else None,
        )
        return net

    def test_exact_parameters_give_one(self):
        net = self._pair({"angle": 30.0, "distance": 2.0}, {"angle": 30.0, "distance": 2.0})
        assert relational_membership(net, "rd", "rb") == 1.0

    def test_gaussian_parameter(self):
        net = self._pair({"angle": Gaussian(0.0, 10.0)}, {"angle": 10.0})
        assert relational_membership(net, "rd", "rb") == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_interval_parameter_outside(self):
        # a deviant observation is a same-kind relation, not a claimed derivation
        net = self._pair({"distance": Interval(0, 5)}, {"distance": 7.0}, derived=False)
        assert relational_membership(net, "rd", "rb") == 0.0

    def test_absent_instance_parameter_is_one(self):
        net = self._pair({"angle": Gaussian(0.0, 10.0)}, {})
        assert relational_membership(net, "rd", "rb") == 1.0

    def test_incompatible_lineage(self):
        net = CognitiveNetwork()
        for cid in ("x", "y", "x1", "y1"):
            net.add_concept(Concept(id=cid))
        _rel(net, "rb", "x", "y", kind=RelationKind.ADJOINING)
        _rel(net, "rd", "x1", "y1", kind=RelationKind.CAUSALITY)
        from dcnet.core import KindError

        with pytest.raises(KindError):
            relational_membership(net, "rd", "rb")

    def test_param_membership_point_mismatch(self):
        assert param_membership(3.0, 3.0) == 1.0
        assert param_membership(3.0, 4.0) == 0.0
        assert param_membership("left", "left") == 1.0
        assert param_membership("left", "right") == 0.0


class TestPpsLaunch:
    def _face_net(self):
        """Reference scene: face with four members plus two exclusive readings."""
        net = CognitiveNetwork()
        for cid, p in (
            ("eye", 0.6),
            ("nose", 0.5),
            ("mouth", 0.4),
            ("ear", 0.1),
            ("face", 0.3),
            ("egg", 0.5),
            ("cup_handle", 0.4),
        ):
            _concept(net, cid, p)
        _rel(net, "r_fe", "face", "eye")
        _rel(net, "r_fn", "face", "nose")
        _rel(net, "r_fm", "face", "mouth")
        _rel(net, "r_fr", "face", "ear")
        _rel(net, "x_fe", "face", "egg", pba=0.0, pab=0.0, kind=RelationKind.XOR)
        _rel(net, "x_ec", "ear", "cup_handle", pba=0.0, pab=0.0, kind=RelationKind.XOR)
        return net

    def test_first_launch_matches_worked_table(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "eye", 0.6, _engine(), ledger, trace)
        assert net.state("face").result_prob == pytest.approx(0.72, abs=1e-9)
        assert net.state("nose").result_prob == pytest.approx(0.8, abs=1e-9)
        assert net.state("mouth").result_prob == pytest.approx(0.76, abs=1e-9)
        assert net.state("ear").result_prob == pytest.approx(0.64, abs=1e-9)
        assert net.state("egg").result_prob == pytest.approx(0.5, abs=1e-9)

    def test_three_launches_reach_collapse_threshold(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        for cid, p in (("eye", 0.6), ("nose", 0.5), ("mouth", 0.4)):
            pps_launch(net, cid, p, _engine(), ledger, trace)
        assert net.state("face").result_prob == pytest.approx(0.916, abs=1e-9)
        assert net.state("ear").result_prob == pytest.approx(0.892, abs=1e-9)
        assert net.state("eye").result_prob == pytest.approx(0.88, abs=1e-9)
        assert net.state("nose").result_prob == pytest.approx(0.88, abs=1e-9)

    def test_tiny_delta_changes_nothing(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "eye", 1e-6, _engine(), ledger, trace)
        assert not ledger.entries
        assert net.state("face").result_prob == pytest.approx(0.3)

    def test_chain_decay(self):
        net = CognitiveNetwork()
        for cid in ("a", "b", "c"):
            _concept(net, cid)
        _rel(net, "r_ab", "a", "b", pba=0.5, pab=0.5)
        _rel(net, "r_bc", "b", "c", pba=0.5, pab=0.5)
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "a", 1.0, _engine(), ledger, trace)
        assert net.state("b").result_prob == pytest.approx(0.5, abs=1e-12)
        assert net.state("c").result_prob == pytest.approx(0.25, abs=1e-12)

    def test_single_visit_per_launch(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "eye", 0.6, _engine(), ledger, trace)
        targets = [e.target for e in ledger.entries if e.target in net.concepts]
        assert len(targets) == len(set(targets))

    def test_monotonicity(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        before = {e: net.state(e).result_prob for e in net.element_ids()}
        pps_launch(net, "eye", 0.6, _engine(), ledger, trace)
        after = {e: net.state(e).result_prob for e in net.element_ids()}
        assert all(after[e] >= before[e] - 1e-15 for e in before)

    def test_max_hops_bounds_traversal(self):
        net = CognitiveNetwork()
        for cid in ("a", "b", "c"):
            _concept(net, cid)
        _rel(net, "r_ab", "a", "b")
        _rel(net, "r_bc", "b", "c")
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "a", 1.0, _engine(max_hops=1), ledger, trace)
        assert net.state("b").result_prob == pytest.approx(1.0)
        assert net.state("c").result_prob == 0.0

    def test_belong_edges_do_not_carry_evidence(self):
        net = CognitiveNetwork()
        _concept(net, "inst", 0.9)
        _concept(net, "cls")
        net.add_belong("inst", "cls")
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "inst", 0.9, _engine(), ledger, trace)
        assert net.state("cls").result_prob == 0.0

    def test_ledger_replay_reproduces_results(self):
        net = self._face_net()
        ledger, trace = ContributionLedger(), Trace()
        for cid, p in (("eye", 0.6), ("nose", 0.5), ("mouth", 0.4)):
            pps_launch(net, cid, p, _engine(), ledger, trace)
        for el in net.element_ids():
            expected = ledger.replay(net.state(el).input_prob, el)
            assert net.state(el).result_prob == pytest.approx(expected, abs=1e-9)


class TestCollapse:
    def test_isolated_forced_collapse(self):
        net = CognitiveNetwork()
        _concept(net, "solo", 0.4)
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "solo", _engine(), ledger, trace)
        st = net.state("solo")
        assert st.status is Status.COLLAPSED
        assert st.input_prob == 1.0 and st.result_prob == 1.0

    def test_chain_cascade(self):
        net = CognitiveNetwork()
        for cid in ("a", "b", "c"):
            _concept(net, cid)
        _rel(net, "r_ab", "a", "b")
        _rel(net, "r_bc", "b", "c")
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "a", _engine(), ledger, trace)
        assert net.state("b").status is Status.COLLAPSED
        assert net.state("c").status is Status.COLLAPSED

    def test_deep_cascade_runs_to_the_end_of_the_chain(self):
        """A cascade of 3,000 collapses is a loop, not 3,000 nested calls."""
        net = CognitiveNetwork()
        n = 3000
        for i in range(n):
            _concept(net, f"c{i}")
        for i in range(n - 1):
            _rel(net, f"r{i}", f"c{i}", f"c{i + 1}", kind=RelationKind.HAS_PART)
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "c0", _engine(max_hops=2), ledger, trace)
        assert net.state(f"c{n - 1}").status is Status.COLLAPSED
        assert sum(ev.event == "collapse" for ev in trace.events) == 2 * n - 1

    def test_collapse_suppresses_exclusive_partner(self):
        net = CognitiveNetwork()
        _concept(net, "face", 0.95)
        _concept(net, "egg", 0.5)
        _rel(net, "x", "face", "egg", pba=0.0, pab=0.0, kind=RelationKind.XOR)
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "face", _engine(), ledger, trace)
        egg = net.state("egg")
        assert egg.status is Status.SUPPRESSED
        assert egg.result_prob == pytest.approx(0.5)

    def test_an_unvalued_collapse_reads_only_the_xor_relations_it_reaches(self, monkeypatch):
        """Partners come from the XOR relations at the collapsing element's up-closure,
        whatever the size of the XOR table: 2,000 tied chain pairs, no walk over them."""

        class NoWalk:
            """Membership and size of the XOR ends, but no walk over them."""

            def __init__(self, ends):
                self.ends = ends

            def __contains__(self, element_id):
                return element_id in self.ends

            def __len__(self):
                return len(self.ends)

            def __iter__(self):
                raise AssertionError("walked every XOR end")

        net = _tied_chains(2000)
        ends = net.xor_ends()
        monkeypatch.setattr(net, "xor_ends", lambda: NoWalk(ends))
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "h7", _engine(), ledger, trace)
        changed = [(ev.event, ev.dst) for ev in trace.events if ev.event in ("collapse", "suppress")]
        assert changed == [("collapse", "h7"), ("collapse", "t7"), ("suppress", "rt7"), ("collapse", "p7")]
        assert _xor_partners(net, "t7") == ["rt7"] and _xor_partners(net, "rh7") == []

        small = _tied_chains(20)
        for x in small.element_ids():
            assert _xor_partners(small, x) == scan_xor_partners(small, x), x

    def test_only_an_element_in_the_xor_reach_walks_a_closure_for_partners(self, monkeypatch):
        """In h7's cascade only t7, whose up-closure holds an XOR end, takes closures for
        its partners; an unvalued element outside the XOR reach set takes none.  A valued
        element outside it still finds the partners its value gives it."""
        calls = []
        for name in ("up_closure", "down_closure"):
            def counted(net, element_id, _name=name, _walk=getattr(probability, name)):
                calls.append((_name, element_id))
                return _walk(net, element_id)

            monkeypatch.setattr(probability, name, counted)
        net = _tied_chains(2000)
        collapse_element(net, "h7", _engine(), ContributionLedger(), Trace())
        assert calls == [("up_closure", "t7"), ("down_closure", "rt7")]
        calls.clear()
        assert [_xor_partners(net, x) for x in ("h8", "rh7", "p8", "q7")] == [[]] * 4
        assert calls == []

        small = _tied_chains(20)
        small.add_concept(Concept(id="v", value=0.5))
        small.add_concept(Concept(id="w", value=Interval(0.0, 1.0)))
        _rel(small, "xw", "w", "rt3", pba=0.0, pab=0.0, kind=RelationKind.XOR)
        assert "v" not in small.xor_reach()
        assert _xor_partners(small, "v") == scan_xor_partners(small, "v") == ["rt3"]
        assert ("up_closure", "v") in calls

    def test_collapsing_suppressed_is_conflict(self):
        net = CognitiveNetwork()
        _concept(net, "face", 0.95)
        _concept(net, "egg", 0.5)
        _rel(net, "x", "face", "egg", pba=0.0, pab=0.0, kind=RelationKind.XOR)
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "face", _engine(), ledger, trace)
        with pytest.raises(ConflictError):
            collapse_element(net, "egg", _engine(), ledger, trace)

    def test_collapsed_elements_are_absorbing(self):
        net = CognitiveNetwork()
        for cid in ("a", "b"):
            _concept(net, cid)
        _rel(net, "r", "a", "b", pba=0.5, pab=0.5)
        ledger, trace = ContributionLedger(), Trace()
        collapse_element(net, "b", _engine(), ledger, trace)
        pps_launch(net, "a", 1.0, _engine(), ledger, trace)
        assert net.state("b").result_prob == 1.0

    def test_settle_collapses_threshold_crossers(self):
        net = CognitiveNetwork()
        _concept(net, "hot", 0.95)
        _concept(net, "cold", 0.2)
        collapsed = settle(net, _engine(), ContributionLedger(), Trace())
        assert collapsed == ["hot"]
        assert net.state("cold").status is Status.SUPERPOSED

    def test_a_collapse_examines_as_many_elements_among_8000_chains_as_among_80(self, monkeypatch):
        """The ready queue reads what the collapse changes, not the network.

        Chains shaped like the ``collapse_chain`` workload's (a HAS_PART chain
        whose tail is XOR-tied to a rival), 80 and 8,000 of them: after a
        settle, collapsing one head examines the same elements in both.
        """

        def chains(n):
            net = CognitiveNetwork()
            for c in range(n):
                ids = [f"c{c}n{i}" for i in range(6)]
                for cid in ids:
                    _concept(net, cid)
                _concept(net, f"r{c}", 0.2 + 0.1 * (c % 6))
                for a, b in zip(ids, ids[1:]):
                    _rel(net, f"{a}-{b}", a, b, kind=RelationKind.HAS_PART)
                _rel(net, f"x{c}", ids[-1], f"r{c}", pba=0.0, pab=0.0, kind=RelationKind.XOR)
            return net

        queues = _recorded_queues(monkeypatch)
        examined = []
        for n in (80, 8000):
            net, ledger, trace = chains(n), ContributionLedger(), Trace()
            assert settle(net, _engine(), ledger, trace) == []
            assert queues[-1].examined == net.element_count()  # a new network: every element
            collapse_element(net, "c3n0", _engine(), ledger, trace)
            examined.append(queues[-1].examined)
            assert net.state("c3n5").status is Status.COLLAPSED
            assert net.state("r3").status is Status.SUPPRESSED
        assert examined[0] == examined[1] < 100, examined

    def test_the_settles_of_a_task_read_the_scene_not_the_knowledge(self, monkeypatch):
        """``make_task`` seeds the knowledge base, so a task's settles never read all of it."""
        kb = face_kb()
        for i in range(2000):
            kb.add_concept(Concept(f"noise{i}"))
        queues = _recorded_queues(monkeypatch)
        for _ in range(2):
            specs = [ConceptSpec(base=base, p=p, as_id=as_id) for base, p, as_id in FACE_INPUTS]
            report = fit_run(make_task(kb, _engine(), specs))
            assert report.absolute
        assert queues and max(q.examined for q in queues) < 100, [q.examined for q in queues]


class TestWriteDoor:
    """``net.state(id)`` is the one way to write a stored state; it marks the id touched."""

    def test_reading_a_fitted_task_touches_nothing(self):
        task = face_task()
        fit_run(task)
        state = task.states[0]
        net = state.net
        assert settle(net, task.config, state.ledger, task.trace) == []  # empties the touched set
        assert state.fully_collapsed()
        expects = [Expectation(e, net.element(e).state.result_prob) for e in state.content_ids()]
        assert check_expectations(net, expects) == []
        assert mean_probability(net) > 0.0
        assert "state=" in serialize_kb(net, with_state=True)
        assert session_save(task)
        assert net.touched() == {}

    @pytest.mark.parametrize("layered", [False, True])
    def test_a_write_after_a_settle_is_settled_next(self, layered):
        source = CognitiveNetwork()
        _concept(source, "a", 0.2)
        _concept(source, "b", 0.3)
        _rel(source, "r", "a", "b", pba=0.5, pab=0.5)
        config, ledger, trace = _engine(), ContributionLedger(), Trace()
        assert settle(source, config, ledger, trace) == []
        net = source.layer() if layered else source
        kept = dict(source.touched())
        net.state("a").result_prob = 0.95
        assert settle(net, config, ledger, trace) == ["a"]
        assert net.element("a").state.status is Status.COLLAPSED
        if layered:
            assert source.touched() == kept
            assert source.element("a").state == ProbabilityState(0.2, 0.2)
            assert settle(source, config, ContributionLedger(), Trace()) == []


class TestSimplifiedMode:
    def _unit_members(self, k):
        net = CognitiveNetwork()
        _concept(net, "root")
        for m in ("m1", "m2", "m3"):
            _concept(net, m, 1.0)
            _rel(net, f"r_{m}", "root", m, params={"k": k})
        return net

    def test_two_contributions_reach_collapse(self):
        net = self._unit_members(0.5)
        config = _engine(mode=Mode.SIMPLIFIED)
        ledger, trace = ContributionLedger(), Trace()
        pps_launch(net, "m1", 1.0, config, ledger, trace)
        assert net.state("root").result_prob == pytest.approx(0.5)
        assert net.state("root").result_prob < config.collapse_at
        pps_launch(net, "m2", 1.0, config, ledger, trace)
        assert net.state("root").result_prob == pytest.approx(1.0)
        assert net.state("root").result_prob >= config.collapse_at
        contributions = [e for e in ledger.entries if e.target == "root"]
        assert len(contributions) == 2

    def test_collapse_clamps_display(self):
        net = self._unit_members(0.5)
        config = _engine(mode=Mode.SIMPLIFIED)
        ledger, trace = ContributionLedger(), Trace()
        for m in ("m1", "m2", "m3"):
            pps_launch(net, m, 1.0, config, ledger, trace)
        assert net.state("root").result_prob == pytest.approx(1.5)
        settle(net, config, ledger, trace)
        assert net.state("root").result_prob == 1.0
        assert net.state("root").status is Status.COLLAPSED


class TestCountedEntryPoints:
    """Every ledger row enters through ``ContributionLedger.record`` and every trace event
    through ``Trace.record``: the benchmark's tracer counts those two methods as
    ``probability.ledger_entries`` and ``trace.events``."""

    @staticmethod
    def _counts(monkeypatch) -> tuple[Counter, list[ContributionLedger]]:
        counts: Counter = Counter()

        def count_calls(owner, name: str, key: str) -> None:
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count_calls(ContributionLedger, "record", "record calls")
        count_calls(Trace, "record", "trace record calls")
        # a ledger numbers each row it appends, purged or not, and a copy goes on from its
        # original's number: the rows appended anywhere are the numbers no copy inherited
        original_init, original_copy = ContributionLedger.__init__, ContributionLedger.copy
        ledgers: list[ContributionLedger] = []

        def init(self) -> None:
            original_init(self)
            ledgers.append(self)

        def copy(self) -> ContributionLedger:
            clone = original_copy(self)
            counts["inherited rows"] += clone._next_seq
            return clone

        monkeypatch.setattr(ContributionLedger, "__init__", init)
        monkeypatch.setattr(ContributionLedger, "copy", copy)
        return counts, ledgers

    @staticmethod
    def _check(counts: Counter, ledgers: list[ContributionLedger], trace: Trace) -> None:
        rows = sum(ledger._next_seq for ledger in ledgers) - counts["inherited rows"]
        assert counts["record calls"] == rows > 0
        assert counts["trace record calls"] == len(trace.events) == trace.next_step > 0

    def test_a_launch(self, monkeypatch):
        counts, ledgers = self._counts(monkeypatch)
        net, ledger, trace = face_kb(), ContributionLedger(), Trace()
        pps_launch(net, "eye", 0.8, EngineConfig(), ledger, trace)
        self._check(counts, ledgers, trace)
        assert counts["record calls"] == len(ledger.entries)

    def test_a_collapse(self, monkeypatch):
        counts, ledgers = self._counts(monkeypatch)
        net, ledger, trace = face_kb(), ContributionLedger(), Trace()
        pps_launch(net, "nose", 0.5, EngineConfig(), ledger, trace)
        collapse_element(net, "eye", EngineConfig(), ledger, trace)
        self._check(counts, ledgers, trace)

    def test_a_fit_of_the_face_scene(self, monkeypatch):
        counts, ledgers = self._counts(monkeypatch)
        task = face_task()
        fit_run(task)
        self._check(counts, ledgers, task.trace)
        assert any(ev.event == "collapse" for ev in task.trace.events)
