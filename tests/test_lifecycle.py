"""Reduction, chained reasoning, version iteration, session persistence."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from dcnet.core import (
    CognitiveNetwork,
    KindError,
    RelationKind,
    Status,
    TreeInstance,
    belongs_to,
)
from dcnet.growth import DeferredGrowth, FragmentRecord, fit_run, fit_step
from dcnet.kbio import build_task, parse_kb, parse_scenario, trace_text
from dcnet.lifecycle import (
    _RECORDS,
    LoadError,
    PrunePolicy,
    _read_record,
    iterate_step,
    prune,
    prune_task,
    reason_chain,
    session_load,
    session_save,
)
from dcnet.probability import ContributionLedger, EngineConfig, LaunchRecord, LedgerEntry, Mode
from dcnet.trace import EVENT_KINDS, Trace, TraceEvent

from scenes import (
    assert_same_task,
    classified_roots,
    concept,
    declare_tree,
    face_task,
    fork_task,
    relation,
    step_fork_task,
)


class TestPrune:
    def _collapsed_face(self):
        report = fit_run(face_task())
        return report.task, report.selected_state()

    def test_cut_keeps_only_the_root(self):
        task, state = self._collapsed_face()
        before = state.net.state("face1").result_prob
        report = prune_task(task, PrunePolicy())
        net = state.net
        assert net.has("face1")
        for member in ("eye1", "nose1", "mouth1", "ear1"):
            assert not net.has(member)
        assert "eye1" in report.removed
        assert net.state("face1").result_prob == before

    def test_superposed_tree_is_untouched(self):
        task = face_task()
        fit_step(task)  # only the first fragment has launched; nothing collapsed
        state = task.states[0]
        count = state.net.element_count()
        report = prune(state.net, PrunePolicy(), ledger=state.ledger, trace=task.trace)
        assert report.removed == []
        assert state.net.element_count() == count

    def test_empty_policy_empty_net(self):
        net = CognitiveNetwork()
        report = prune(net, PrunePolicy())
        assert report.removed == [] and report.kept == []

    def test_protected_element_kept_with_warning(self):
        task, state = self._collapsed_face()
        report = prune_task(task, PrunePolicy(keep={"eye1"}))
        assert state.net.has("eye1")
        assert any("eye1" in w for w in report.warnings)
        assert not state.net.has("nose1")

    def test_a_prune_reads_each_entry_and_launch_record_once(self):
        """Sealing after a prune that removes k elements reads the rows and the launch
        records in one pass, not once per removed element: each source is hashed once and
        compared at most once, as one set lookup does."""
        task, state = self._collapsed_face()
        hashes, compares = Counter(), Counter()
        counted = _lookup_counted(hashes, compares)
        ledger = ContributionLedger()
        # the fit purged every row it made; these come from, go into and pass by the members
        for i, r in enumerate(state.ledger.launches):
            target = ("face1", "eye1", "elsewhere")[i % 3]
            ledger.record(r.launch_id, counted(r.source), target, "via", 0.1)
        ledger.launches = [
            LaunchRecord(r.launch_id, counted(r.source), r.delta, r.sealed) for r in state.ledger.launches
        ]
        hashes.clear()
        compares.clear()
        report = prune(state.net, PrunePolicy(), ledger=ledger, trace=task.trace)
        assert len(report.removed) >= 8
        assert any(e.sealed for e in ledger.entries) and any(not e.sealed for e in ledger.entries)
        kept = [e.source for e in ledger.entries] + [r.source for r in ledger.launches]
        assert all(hashes[id(source)] == 1 for source in kept)
        assert max(hashes.values()) == 1 and max(compares.values()) == 1

    def test_sealed_history_survives_replay(self):
        task, state = self._collapsed_face()
        prune_task(task, PrunePolicy())
        # entries about removed elements are gone or sealed; the rest still replays
        for el in state.net.element_ids():
            st = state.net.state(el)
            if st.status is Status.COLLAPSED:
                assert state.ledger.replay(st.input_prob, el) == pytest.approx(1.0)


def _lookup_counted(hashes: Counter, compares: Counter) -> type:
    """``str`` whose instances count each hash and each equality test under their id."""

    class Counted(str):
        def __hash__(self):
            hashes[id(self)] += 1
            return str.__hash__(self)

        def __eq__(self, other):
            compares[id(self)] += 1
            return str.__eq__(self, other)

    return Counted


def _causality_kb():
    kb = CognitiveNetwork()
    for cid in ("ask", "answer", "reply"):
        concept(kb, cid)
    relation(kb, "cause_aa", RelationKind.CAUSALITY, "ask", "answer", pba=0.95, pab=1.0)
    relation(kb, "cause_ar", RelationKind.CAUSALITY, "answer", "reply", pba=0.9, pab=1.0)
    return kb


class TestReasonChain:
    def test_single_hop(self):
        net = _causality_kb()
        concept(net, "ask1")
        net.add_belong("ask1", "ask")
        chain = reason_chain(net, "ask1", [RelationKind.CAUSALITY], "forward", max_steps=1)
        assert len(chain) == 1
        assert chain[0].prob == pytest.approx(0.95, abs=1e-12)
        assert belongs_to(net, chain[0].element, "answer")

    def test_zero_steps_empty(self):
        net = _causality_kb()
        concept(net, "ask1")
        net.add_belong("ask1", "ask")
        assert reason_chain(net, "ask1", [RelationKind.CAUSALITY], max_steps=0) == []

    def test_min_prob_cuts_low_directions(self):
        net = _causality_kb()
        concept(net, "ask1")
        net.add_belong("ask1", "ask")
        chain = reason_chain(
            net, "ask1", [RelationKind.CAUSALITY], "forward", max_steps=5, min_prob=0.9
        )
        # the second step would run at 0.95 * 0.9 = 0.855 < 0.9
        assert len(chain) == 1

    def test_chain_prob_is_product_of_conditionals(self):
        net = _causality_kb()
        concept(net, "ask1")
        net.add_belong("ask1", "ask")
        chain = reason_chain(net, "ask1", [RelationKind.CAUSALITY], "forward", max_steps=5)
        assert [round(s.prob, 12) for s in chain] == [0.95, pytest.approx(0.855, abs=1e-12)]

    def test_each_step_names_its_relation(self):
        net = _causality_kb()
        concept(net, "ask1")
        net.add_belong("ask1", "ask")
        chain = reason_chain(net, "ask1", [RelationKind.CAUSALITY], "forward", max_steps=2)
        for step in chain:
            assert net.has(step.relation)
            assert net.relations[step.relation].kind is RelationKind.CAUSALITY


def _versioned_tree():
    net = CognitiveNetwork()
    for cid in ("thing", "piece", "thing_next"):
        concept(net, cid)
    relation(net, "r_tp", RelationKind.HAS_COMPONENT, "thing", "piece")
    relation(net, "mv", RelationKind.MOVE, "thing", "thing_next", pba=1.0, pab=1.0)
    declare_tree(net, "thing", ["thing", "piece", "r_tp"])
    from dcnet.growth import grow_concept, grow_link
    from dcnet.probability import ContributionLedger

    config, ledger, trace = EngineConfig(), ContributionLedger(), Trace()
    root = grow_concept(net, "thing", trace)
    piece = grow_concept(net, "piece", trace)
    link = grow_link(net, root, "r_tp", piece, config=config, ledger=ledger, trace=trace)
    from dcnet.core import TreeInstance

    net.tree_instances.append(
        TreeInstance(base_root="thing", root=root, mapping={"thing": root, "piece": piece, "r_tp": link})
    )
    return net, root, (config, ledger, trace)


class TestIterateStep:
    def test_move_with_history_adds_one_tree_and_a_link(self):
        net, root, (config, ledger, trace) = _versioned_tree()
        instance = net.tree_instances[0]
        footprint = len(instance.mapping) + sum(
            1 for r in net.relations.values()
            if r.kind is RelationKind.BELONG_TO and r.a in instance.mapping.values()
        )
        before = net.element_count()
        new_root = iterate_step(net, root, RelationKind.MOVE, keep_history=True,
                                config=config, ledger=ledger, trace=trace)
        assert new_root != root
        assert net.element_count() == before + footprint + 1

    def test_pure_iteration_conserves_count(self):
        net, root, (config, ledger, trace) = _versioned_tree()
        before = net.element_count()
        new_root = iterate_step(net, root, RelationKind.MOVE, keep_history=False,
                                config=config, ledger=ledger, trace=trace)
        assert net.element_count() == before
        assert not net.has(root)
        assert net.has(new_root)

    def test_two_moves_form_a_version_chain(self):
        net, root, (config, ledger, trace) = _versioned_tree()
        second = iterate_step(net, root, RelationKind.MOVE, keep_history=True,
                              config=config, ledger=ledger, trace=trace)
        third = iterate_step(net, second, RelationKind.MOVE, keep_history=True,
                             config=config, ledger=ledger, trace=trace)
        links = [r for r in net.relations.values() if r.kind is RelationKind.MOVE and r.base == "mv"]
        assert len(links) == 2
        assert {(links[0].a, links[0].b), (links[1].a, links[1].b)} == {
            (root, second), (second, third)
        }

    def test_pure_iteration_prunes_each_element_once(self):
        net, root, (config, ledger, trace) = _versioned_tree()
        start = len(trace.events)
        existed = set(net.element_ids())
        iterate_step(net, root, RelationKind.MOVE, keep_history=False,
                     config=config, ledger=ledger, trace=trace)
        events = trace.events[start:]
        existed |= {ev.dst for ev in events if ev.event == "grow"}
        pruned = [ev.src for ev in events if ev.event == "prune"]
        assert sorted(pruned) == sorted(existed - set(net.element_ids()))
        assert pruned.count("r_tp#1") == 1

    def test_missing_lateral_template_is_kind_error(self):
        net, root, (config, ledger, trace) = _versioned_tree()
        with pytest.raises(KindError):
            iterate_step(net, root, RelationKind.CHANGE,
                         config=config, ledger=ledger, trace=trace)


class TestSessions:
    def test_save_load_save_is_byte_identical(self):
        task = face_task()
        fit_step(task)
        first = session_save(task)
        second = session_save(session_load(first))
        assert first == second

    def test_every_loaded_state_and_fork_knows_the_knowledge_base(self):
        task = fork_task(random.Random(0))
        fit_step(task)
        loaded = session_load(session_save(task))
        nets = [state.net for state in loaded.states] + [fork.state.net for fork in loaded.forks]
        assert len(nets) == 3
        for net in nets:
            assert net.knowledge == frozenset(loaded.kb.element_ids()) == task.states[0].net.knowledge
        assert loaded.kb.knowledge == frozenset()

    def test_a_load_classifies_each_tree_once_per_parsed_block(self, monkeypatch):
        task = fork_task(random.Random(0))
        fit_step(task)
        text = session_save(task)
        roots = classified_roots(monkeypatch)
        loaded = session_load(text)
        blocks = 1 + len(loaded.states) + len(loaded.forks)  # the kb block and one net block each
        assert sorted(roots) == sorted(list(task.kb.trees) * blocks)

    def test_ids_with_hash_colon_dot_and_tilde_round_trip(self):
        kb = parse_kb(
            "concept top.v~1\n"
            "concept part:a#1\n"
            "relation r#a:b.c~d kind=HAS_PART a=top.v~1 b=part:a#1 pba=0.9 pab=0.9\n"
            "tree top.v~1 members=part:a#1\n"
        )
        task = build_task(kb, parse_scenario("input part:a#1 p=0.8 as=s0.part:a~1\n"))
        fit_run(task)
        first = session_save(task)
        loaded = session_load(first)
        assert session_save(loaded) == first
        net, again = task.states[0].net, loaded.states[0].net
        assert again.element_ids() == net.element_ids()
        assert [i.mapping for i in again.tree_instances] == [i.mapping for i in net.tree_instances]
        assert "s0.part:a~1" in net.tree_instances[0].mapping.values()

    def test_a_loaded_session_equals_the_saved_task_field_by_field(self):
        """Nets, ledgers, fragments, knowledge ids, forks, config and trace come back equal."""
        saved_forks = 0
        for seed in range(20):
            task = fork_task(random.Random(seed))
            for _ in step_fork_task(task):
                assert_same_task(session_load(session_save(task)), task)
                saved_forks += len(task.forks)
            assert_same_task(session_load(session_save(task)), task)
        assert saved_forks >= 20

    def test_empty_session_round_trip(self):
        task = face_task()
        first = session_save(task)
        assert session_save(session_load(first)) == first

    def test_resume_after_two_steps_produces_identical_trace_suffix(self):
        whole = face_task()
        fit_run(whole)
        full = whole.trace.events

        partial = face_task()
        from dcnet.growth import fit_run as run

        run(partial, limit=2)
        cut = len(partial.trace.events)
        payload = session_save(partial)
        resumed = session_load(payload)
        run(resumed)

        suffix_resumed = [ev.format() for ev in resumed.trace.events[cut:]]
        suffix_whole = [ev.format() for ev in full[cut:]]
        assert suffix_resumed == suffix_whole
        # and the final states agree exactly
        net_a = resumed.states[0].net
        net_b = whole.states[0].net
        for el in net_b.element_ids():
            assert net_a.state(el).result_prob == net_b.state(el).result_prob
            assert net_a.state(el).status == net_b.state(el).status

    def test_a_session_with_the_retired_discard_floor_key_still_loads(self):
        """Sessions once wrote ``discard_floor``, a key that no longer sets anything; a load skips it."""
        whole = face_task()
        fit_run(whole)
        partial = face_task()
        fit_run(partial, limit=2)
        cut = len(partial.trace.events)
        current = session_save(partial)
        lines = current.split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("match_depth_limit=")) + 1
        older = "\n".join([*lines[:at], "discard_floor=0.05", *lines[at:]])
        loaded = session_load(older)
        assert session_save(loaded) == current
        fit_run(loaded)
        assert trace_text(loaded.trace).splitlines()[cut:] == trace_text(whole.trace).splitlines()[cut:]
        with pytest.raises(LoadError) as err:
            session_load(older.replace("discard_floor=", "discard_flour="))
        assert "discard_flour" in str(err.value)

    def test_truncated_payload_fails(self):
        task = face_task()
        payload = session_save(task)
        truncated = "".join(payload.splitlines(keepends=True)[:-3])
        with pytest.raises(LoadError):
            session_load(truncated)

    def test_non_default_config_round_trips(self):
        task = face_task()
        task.config = EngineConfig(mode=Mode.SIMPLIFIED, max_hops=3, branch_limit=2, default_k=0.5)
        payload = session_save(task)
        loaded = session_load(payload)
        assert loaded.config == task.config
        assert session_save(loaded) == payload

    @pytest.mark.parametrize(
        "bad", ["branch_limit=x", "", "mode=weird", "max_hops=1.5", "wibble=1", "decay_epsilon=inf"]
    )
    def test_bad_config_line_fails(self, bad):
        payload = session_save(face_task())
        lines = payload.split("\n")
        lines.insert(lines.index("begin config") + 1, bad)
        with pytest.raises(LoadError) as err:
            session_load("\n".join(lines))
        assert repr(bad) in str(err.value)

    def test_bad_header_fails(self):
        with pytest.raises(LoadError) as err:
            session_load("NOT-A-SESSION\n")
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "anchor, bad",
        [
            ("next_launch_id=", "next_launch_id=q"),
            ("launch 1 ", "launch z eye1 0.6 0"),
            ("launch 1 ", "launch 1 eye1 much 0"),
            ("entry ", "entry L1 eye1 face1 r_fe#1 0.5 0"),
            ("entry ", "entry 1 eye1 face1 r_fe#1 half 0"),
            ("launch 1 ", "launch 1 eye1 0.6 7"),  # a flag is 0 or 1
            ("entry ", "entry 1 eye1 face1 r_fe#1 0.5 2"),
            ("fragment ", "fragment eye1 0.6 eye 0 7 0 face -"),
            ("launch 1 ", "launch 1 eye1 nan 0"),  # a number is finite
            ("event ", "event 4 launch eye1 eye1 0.6 inf"),
            ("event ", "event 4 bogus eye1 eye1 0.6 0.6"),  # no trace event kind
            ("entry ", ""),  # a blank ledger line
            ("next_step=", "next_step=x0"),
            ("event ", "event 1 launch eye1 eye1 0.6 high"),
            ("processed=", "processed=zz"),
            ("begin counters", "x=notint"),  # inserted after the marker
            ("fragment ", "fragment eye1 most - 0 0 0 - -"),
            ("fragment ", "fragment fac_1 0.6 eye 0 0 0 - -"),  # no element of the state's net
            ("begin deferred", "defer 7 mouth"),  # no tree instance 7
            ("begin deferred", "defer -1 mouth"),
            ("begin deferred", "defer 0 nope"),  # no concept of instance 0's base tree
            ("begin deferred", "defer 0 egg"),
            ("launch 1 ", "launch +1 eye1 6e-1 0"),  # a number reads only as it is written
            ("launch 1 ", "launch 01 eye1 0.6 0"),
            ("launch 1 ", "launch 1 eye1 0.60 0"),
            ("event ", "event 4 launch eye1 eye1 0.6 1"),
            ("processed=", "processed=+0"),
        ],
    )
    def test_malformed_line_names_its_line(self, anchor, bad):
        task = face_task()
        fit_step(task)
        lines = session_save(task).split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(anchor))
        if anchor.startswith("begin"):
            at += 1
            lines.insert(at, bad)
        else:
            lines[at] = bad
        with pytest.raises(LoadError) as err:
            session_load("\n".join(lines))
        assert err.value.line == at + 1
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_result_above_one_loads_only_in_simplified_mode(self, mode):
        task = face_task(mode=mode)
        fit_step(task)
        task.states[0].net.state("face").result_prob = 1.5  # Mode.SIMPLIFIED adds past 1
        text = session_save(task)
        if mode is Mode.SIMPLIFIED:
            assert session_save(session_load(text)) == text
            return
        with pytest.raises(LoadError) as err:
            session_load(text)
        assert err.value.line == text.split("\n").index("begin net") + 1
        assert "result probability of face passes 1 in exact mode" in str(err.value)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("instance t1 t1#1 ", "instance t1 ghost "),  # a root
            ("instance t1 ", "instance ghost "),  # a base root that is no tree
            ("p4=p4#1", "p4=ghost"),  # a mapped element
            ("p4=p4#1", "ghost=p4#1"),  # a mapped base element
            ("p4=p4#1", "p4"),  # a pair without '='
        ],
    )
    def test_an_instance_naming_no_element_of_its_net_fails_the_load(self, old, new):
        """Not the resumed fit, with ``LookupMissing``, or a silent resave."""
        task = fork_task(random.Random(1))
        fit_step(task)
        lines = session_save(task).split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("instance t1 t1#1 "))
        lines[at] = lines[at].replace(old, new, 1)
        with pytest.raises(LoadError) as err:
            session_load("\n".join(lines))
        assert err.value.line == at + 1
        assert repr(lines[at]) in str(err.value)

    @pytest.mark.parametrize("header", ["begin fork 9 t0", "begin fork 3 t0", "begin fork -1 t0",
                                        "begin fork 02 t0", "begin fork 2 ghost", "begin fork 2 p0"])
    def test_a_fork_naming_no_fragment_of_its_state_or_tree_of_the_kb_fails_the_load(self, header):
        """Not the resumed fit, with ``IndexError``, or a silent fit of another alternative."""
        task = fork_task(random.Random(1))
        fit_step(task)
        lines = session_save(task).split("\n")
        at = lines.index("begin fork 2 t0")
        assert len(task.forks[0].state.fragments) == 3
        lines[at] = header
        with pytest.raises(LoadError) as err:
            session_load("\n".join(lines))
        assert err.value.line == at + 1
        assert repr(header) in str(err.value)

    def test_kb_block_error_names_its_payload_line(self):
        lines = session_save(face_task()).split("\n")
        at = lines.index("begin kb") + 2
        lines[at] = "concept x state=0.1,0.1,bogus,0"
        with pytest.raises(LoadError) as err:
            session_load("\n".join(lines))
        assert err.value.line == at + 1
        assert "unknown status bogus" in str(err.value)


IDS = ["a", "t1#1", "k0.o1p2#12", "s0.part:a~1", "r#a:b.c~d"]
FLOATS = [0.1 + 0.2, 1e-12, 0.0, 1.0, -0.25, 0.6399999999999999]
RECORDS = {
    "instance": lambda rng: TreeInstance(
        rng.choice(IDS), rng.choice(["", *IDS]), dict(zip(rng.sample(IDS, 3), rng.sample(IDS, rng.randint(0, 3))))
    ),
    "launch": lambda rng: LaunchRecord(rng.randint(0, 99), rng.choice(IDS), rng.choice(FLOATS), rng.random() < 0.5),
    "entry": lambda rng: LedgerEntry(
        rng.randint(0, 99), *rng.choices(IDS, k=3), rng.choice(FLOATS), rng.random() < 0.5
    ),
    "fragment": lambda rng: FragmentRecord(
        rng.choice(IDS), rng.choice(FLOATS), rng.choice([None, *IDS]), *rng.choices([False, True], k=3),
        rng.choice([None, *IDS]), rng.sample(IDS, rng.randint(0, 3)),
    ),
    "defer": lambda rng: DeferredGrowth(rng.randint(0, 9), rng.choice(IDS)),
    "event": lambda rng: TraceEvent(
        rng.randint(0, 999), rng.choice(sorted(EVENT_KINDS)), *rng.choices(IDS, k=2), *rng.choices(FLOATS, k=2)
    ),
}


@pytest.mark.parametrize("tag", list(_RECORDS))
def test_every_record_round_trips_through_the_table(tag):
    """Reading a written line gives an equal record; writing a read line gives the same text."""
    _, write, _ = _RECORDS[tag]
    rng = random.Random(tag)
    for _ in range(200):
        record = RECORDS[tag](rng)
        [line] = write([record])
        assert line.split(" ", 1)[0] == tag
        again = _read_record(line, 1)
        assert type(again) is type(record) and again == record, line
        assert write([again]) == [line]
