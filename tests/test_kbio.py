"""Text formats: knowledge documents, scenarios, trace lines."""
from __future__ import annotations

import random

import pytest

from dcnet.core import Gaussian, Interval, LookupMissing, RelationKind, Status
from dcnet.growth import fit_run
from dcnet.probability import ContributionLedger, EngineConfig, Mode, pps_launch
from dcnet.kbio import (
    ParseError,
    build_task,
    check_expectations,
    parse_kb,
    parse_scenario,
    serialize_kb,
    trace_text,
)
from dcnet.trace import Trace, TraceEvent

from scenes import classified_roots, random_network

FACE_KB = """\
# face / egg / cup knowledge
concept face
concept eye
concept nose
concept mouth
concept ear
concept egg
concept cup_handle
concept cup
relation r_fe kind=HAS_COMPONENT a=face b=eye pba=1.0 pab=1.0
relation r_fn kind=HAS_COMPONENT a=face b=nose pba=1.0 pab=1.0
relation r_fm kind=HAS_COMPONENT a=face b=mouth pba=1.0 pab=1.0
relation r_fr kind=HAS_COMPONENT a=face b=ear pba=1.0 pab=1.0
relation r_ch kind=HAS_COMPONENT a=cup b=cup_handle pba=1.0 pab=1.0
relation x_fe kind=XOR a=face b=egg pba=0.0 pab=0.0
relation x_ec kind=XOR a=ear b=cup_handle pba=0.0 pab=0.0
tree face members=eye,nose,mouth,ear
tree cup members=cup_handle
"""

FACE_SCENARIO = """\
config collapse=0.9
input eye p=0.6 as=eye1
input nose p=0.5 as=nose1
input mouth p=0.4 as=mouth1
input ear p=0.1 as=ear1
input face p=0.3 as=face1
input egg p=0.5 as=egg1
input cup_handle p=0.4 as=ch1
expect face1 p=1.0 status=collapsed
expect eye1 p=1.0 status=collapsed
expect egg1 p=0.5 status=suppressed
expect ch1 p=0.4 status=suppressed
"""


class TestParseKb:
    def test_reference_kb(self):
        net = parse_kb(FACE_KB)
        assert len(net.concepts) == 8
        assert len(net.relations) == 7
        assert set(net.trees) == {"face", "cup"}
        rel = net.relations["r_fe"]
        assert rel.kind is RelationKind.HAS_COMPONENT
        assert rel.cond.forward == 1.0 and rel.cond.backward == 1.0

    def test_a_parse_classifies_each_tree_once(self, monkeypatch):
        roots = classified_roots(monkeypatch)
        parse_kb(FACE_KB)
        assert roots == ["face", "cup"]  # each as its tree line declares it

    def test_empty_document(self):
        net = parse_kb("")
        assert net.element_count() == 0

    def test_out_of_range_probability_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_kb("concept a\nconcept b\nrelation r kind=HAS_COMPONENT a=a b=b pba=1.5 pab=1.0\n")
        assert err.value.line == 3
        assert "1.5" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as err:
            parse_kb("concept a\nconcept b\nrelation r kind=WIBBLE a=a b=b\n")
        assert (err.value.line, err.value.column) == (3, 17)
        assert "unknown kind WIBBLE" in str(err.value)
        with pytest.raises(ParseError) as err:  # a kind's text is its name, case and all
            parse_kb("concept a\nconcept b\nrelation r kind=xor a=a b=b\n")
        assert (err.value.line, err.value.column) == (3, 17)

    def test_unknown_state_status_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_kb("concept a\nconcept x state=0.1,0.1,bogus,0\n")
        assert (err.value.line, err.value.column) == (2, 25)
        assert "unknown status bogus" in str(err.value)

    @pytest.mark.parametrize(
        "state, column, message",
        [
            ("0.1,-1.8,superposed,0", 21, "result probability negative or not finite: -1.8"),
            ("-.88,0.1,superposed,0", 17, "input probability out of [0, 1]: -.88"),
            ("nan,0.1,superposed,0", 17, "input probability out of [0, 1]: nan"),
            ("0.1,inf,superposed,0", 21, "result probability negative or not finite: inf"),
            ("0.1,nan,superposed,0", 21, "result probability negative or not finite: nan"),
            ("1.5,0.1,superposed,0", 17, "input probability out of [0, 1]: 1.5"),
            ("0.1,0.1,superposed,2", 36, "launched flag must be 0 or 1: 2"),
            ("0.1,0.1,superposed,", 36, "launched flag must be 0 or 1: "),
        ],
    )
    def test_a_state_out_of_range_is_located(self, state, column, message):
        with pytest.raises(ParseError) as err:
            parse_kb(f"concept a\nconcept x state={state}\n")
        assert (err.value.line, err.value.column) == (2, column)
        assert message in str(err.value)

    def test_a_simplified_result_above_one_round_trips(self):
        # Mode.SIMPLIFIED adds contributions: three k=0.5 launches bring the root to 1.5
        net = parse_kb(
            "concept root\n"
            + "".join(f"concept m{i}\nrelation r{i} kind=HAS_COMPONENT a=root b=m{i} k=0.5\n" for i in range(3))
        )
        config, ledger = EngineConfig(mode=Mode.SIMPLIFIED), ContributionLedger()
        for i in range(3):
            pps_launch(net, f"m{i}", 1.0, config, ledger, Trace())
        assert net.state("root").result_prob == 1.5
        text = serialize_kb(net, with_state=True)
        assert parse_kb(text).state("root").result_prob == 1.5
        assert serialize_kb(parse_kb(text), with_state=True) == text

    def test_an_id_with_an_equals_sign_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_kb("concept a\nconcept x=y\n")
        assert (err.value.line, err.value.column) == (2, 1)
        assert "bad element id 'x=y'" in str(err.value)

    def test_dangling_reference(self):
        with pytest.raises(ParseError) as err:
            parse_kb("concept a\nrelation r kind=HAS_COMPONENT a=a b=ghost\n")
        assert err.value.line == 2

    def test_forward_reference_forbidden(self):
        with pytest.raises(ParseError):
            parse_kb("relation r kind=HAS_COMPONENT a=a b=b\nconcept a\nconcept b\n")

    def test_values_and_params(self):
        net = parse_kb(
            "concept n15 value=15.0\n"
            "concept span interval=20.0,30.0\n"
            "concept adult_height value=gauss:1.7,0.1\n"
        )
        assert net.concepts["n15"].value == 15.0
        assert net.concepts["span"].value == Interval(20.0, 30.0)
        assert net.concepts["adult_height"].params["value"] == Gaussian(1.7, 0.1)

    def test_round_trip_identity(self):
        net = parse_kb(FACE_KB)
        text = serialize_kb(net)
        again = parse_kb(text)
        assert serialize_kb(again) == text

    def test_round_trip_preserves_belong_lines(self):
        source = "concept fruit\nconcept apple\nbelong apple fruit pab=0.2\n"
        net = parse_kb(source)
        text = serialize_kb(net)
        assert "belong apple fruit pab=0.2" in text
        assert serialize_kb(parse_kb(text)) == text


class TestRemovalKeepsTheTextLoadable:
    def test_a_relation_derived_from_a_removed_base_loses_its_base(self):
        net = parse_kb(
            "concept a\nconcept b\nrelation r kind=HAS_PART a=a b=b\n"
            "relation r2 kind=HAS_PART a=a b=b base=r\n"
        )
        assert net.remove_element("r") == ["r"]
        assert net.relations["r2"].base is None and net.relations_based_on("r") == []
        net.validate()
        text = serialize_kb(net)
        assert serialize_kb(parse_kb(text)) == text

    def test_a_base_that_names_no_relation_fails_validation(self):
        net = parse_kb("concept a\nconcept b\nrelation r kind=HAS_PART a=a b=b\n")
        net.set_base("r", "ghost")
        with pytest.raises(LookupMissing, match="unknown base relation ghost"):
            net.validate()

    def test_random_removals_keep_the_text_loadable(self):
        lost_bases = 0
        for seed in range(200):
            rng = random.Random(f"removal/{seed}")
            net = random_network(rng)
            for _ in range(rng.randint(1, 3)):
                if net.element_ids():
                    doomed = rng.choice(net.element_ids())
                    lost_bases += bool(net.relations_based_on(doomed))
                    net.remove_element(doomed)
            net.validate()
            text = serialize_kb(net)
            assert serialize_kb(parse_kb(text)) == text, f"seed {seed}"
        assert lost_bases >= 20


class TestParseScenario:
    def test_reference_scenario(self):
        doc = parse_scenario(FACE_SCENARIO)
        assert doc.config == {"collapse": "0.9"}
        assert len(doc.concepts) == 7
        assert doc.concepts[0].base == "eye" and doc.concepts[0].p == 0.6
        assert len(doc.expects) == 4
        assert doc.expects[0].status is Status.COLLAPSED

    def test_config_only_scenario(self):
        doc = parse_scenario("config collapse=0.95 activation=0.2\n")
        assert not doc.concepts and not doc.expects

    def test_duplicate_config_key_warns_last_wins(self):
        doc = parse_scenario("config collapse=0.8\nconfig collapse=0.95\n")
        assert doc.config["collapse"] == "0.95"
        assert len(doc.warnings) == 1

    def test_unknown_config_key(self):
        with pytest.raises(ParseError):
            parse_scenario("config wibble=1\n")
        with pytest.raises(ParseError) as err:  # a retired key, which only old sessions still hold
            parse_scenario("input eye p=0.5\nconfig activation=0.2 discard_floor=0.05\n")
        assert (err.value.line, err.value.column) == (2, len("config activation=0.2 ") + 1)

    @pytest.mark.parametrize(
        "setting", ["mode=weird", "max_hops=1.5", "k=abc", "collapse=nan", "branch_limit="]
    )
    def test_bad_config_value_is_located(self, setting):
        with pytest.raises(ParseError) as err:
            parse_scenario(f"input eye p=0.5\nconfig activation=0.2 {setting}\n")
        assert err.value.line == 2
        assert err.value.column == len("config activation=0.2 ") + 1

    def test_a_mode_is_read_in_any_case_and_an_unknown_one_is_named(self):
        doc = parse_scenario("input eye p=0.5\nconfig mode=SIMPLIFIED\n")
        assert build_task(parse_kb(FACE_KB), doc).config.mode is Mode.SIMPLIFIED
        with pytest.raises(ParseError) as err:
            parse_scenario("config mode=Weird\n")
        assert "bad config value mode=Weird: 'weird' is not a valid Mode" in str(err.value)

    def test_inconsistent_config_names_its_line(self):
        doc = parse_scenario("config activation=0.2\ninput eye p=0.5\nconfig collapse=0.1\n")
        with pytest.raises(ParseError) as err:
            build_task(parse_kb(FACE_KB), doc)
        assert err.value.line == 3

    def test_config_aliases_and_field_names(self):
        doc = parse_scenario(
            "config collapse=0.8 activation=0.2 epsilon=0.01 k=0.5 depth_limit=3\n"
            "config mode=SIMPLIFIED max_hops=none branch_limit=2 confirm_count=7\n"
        )
        config = build_task(parse_kb(FACE_KB), doc).config
        assert (config.collapse_threshold, config.activation_threshold) == (0.8, 0.2)
        assert (config.decay_epsilon, config.default_k, config.match_depth_limit) == (0.01, 0.5, 3)
        assert config.mode is Mode.SIMPLIFIED and config.max_hops is None
        assert (config.branch_limit, config.confirm_count) == (2, 7)
        with pytest.raises(ParseError):
            parse_scenario("config collapse_threshold=0.8\n")

    def test_inputs_and_relations_parse_like_knowledge_lines(self):
        doc = parse_scenario(
            "input n value=15.0\n"
            "input span interval=20.0,30.0 w=2\n"
            "input h value=gauss:1.7,0.1\n"
            "relation r kind=HAS_PART a=n b=h pba=0.5 pab=gauss:1,2 p=0.3 base=q w=interval:1,2\n"
        )
        n, span, h = doc.concepts
        assert n.value == 15.0
        assert span.value == Interval(20.0, 30.0) and span.params == {"w": 2.0}
        assert h.value is None and h.params == {"value": Gaussian(1.7, 0.1)}
        rel = doc.relations[0]
        assert (rel.rel_id, rel.kind, rel.base) == ("r", RelationKind.HAS_PART, "q")
        assert (rel.a, rel.b) == ("n", "h")
        assert (rel.pba, rel.pab, rel.p) == (0.5, Gaussian(1.0, 2.0), 0.3)
        assert rel.params == {"w": Interval(1.0, 2.0)}

    @pytest.mark.parametrize(
        "parse, text, label",
        [
            (parse_kb, "concept c interval=q,2\n", "interval lo: not a number: q"),
            (parse_kb, "concept c interval=1,z\n", "interval hi: not a number: z"),
            (parse_scenario, "input c interval=q,2\n", "interval lo: not a number: q"),
            (parse_scenario, "input c interval=1,z\n", "interval hi: not a number: z"),
        ],
    )
    def test_bad_interval_bound_is_named_alike(self, parse, text, label):
        with pytest.raises(ParseError, match=label):
            parse(text)

    def test_input_probability_range(self):
        with pytest.raises(ParseError):
            parse_scenario("input eye p=1.5\n")

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("input eye p=1.5\n", "line 1, column 13", "input probability out of range: 1.5"),
            (
                "input f p=0.6 as=f1\ninput e p=0.6 as=e1\nrelation x kind=HAS_PART a=f1 b=e1 p=1.5\n",
                "line 3, column 38", "relation probability out of range: 1.5",
            ),
            ("relation x kind=HAS_PART a=f1 b=e1 p=nan\n", "line 1, column 38", "relation probability out of range: nan"),
            ("relation x kind=HAS_PART a=f1 b=e1 p=-0.1\n", "line 1, column 38", "relation probability out of range"),
        ],
    )
    def test_a_scenario_probability_out_of_range_is_located(self, text, where, message):
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert str(err.value).startswith(f"{where}: {message}")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("input eye p=0.6 as=e1 interval=1,1\n", 1, "interval requires lo < hi"),
            ("input eye p=0.6 as=e1 value=interval:2,1\n", 1, "interval requires lo < hi"),
            ("input eye p=0.6 as=e1 w=gauss:1,0\n", 1, "gaussian sigma must be positive"),
            (
                "input f p=0.6 as=f1\ninput e p=0.6 as=e1\nrelation x kind=HAS_PART a=f1 b=e1 pba=gauss:1,0\n",
                3, "gaussian sigma must be positive",
            ),
        ],
    )
    def test_a_value_the_engine_refuses_is_a_parse_error_of_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (line, 1)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "parse, text, column, message",
        [
            (parse_scenario, "input x p=x\n", 11, "p: not a number: x"),
            (parse_scenario, "relation r kind=HAS_PART a=kind b=y pba=kind\n", 41, "bad probability spec: kind"),
            (parse_kb, "concept kind\nrelation r kind=HAS_PART a=kind b=kind pba=kind\n", 44, "bad probability spec"),
            (parse_scenario, "input i interval=1,i\n", 20, "interval hi: not a number: i"),
            (parse_scenario, "input x w=gauss:1,1,\n", 19, "gauss sigma: not a number: 1,"),
            (parse_kb, "concept x state=0.1,0.1,0,0\n", 25, "unknown status 0"),
            # a token is found by its place in the line, not by its text, and indentation counts
            (parse_kb, "concept x x\n", 11, "expected key=value, got x"),
            (parse_kb, "relation r kind=HAS_PART a=x b=y x\n", 34, "expected key=value, got x"),
            (parse_scenario, "relation r kind=HAS_PART a=x b=y x\n", 34, "expected key=value, got x"),
            (parse_scenario, "input x x\n", 9, "expected key=value, got x"),
            (parse_scenario, "config collapse=0.9 p=1\n", 21, "unknown config key p"),
            (parse_scenario, "  input eye p=1.5\n", 15, "input probability out of range: 1.5"),
            (parse_kb, "  relation r kind=WIBBLE a=x b=y\n", 19, "unknown kind WIBBLE"),
        ],
    )
    def test_a_bad_value_is_located_in_its_own_token(self, parse, text, column, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "text, where, message",
        [
            (
                "input eye p=0.6 as=e1\ninput nose p=0.5 as=e1\n",
                "line 2, column 18", "duplicate id e1, first declared on line 1",
            ),
            (
                "relation r1 kind=ADJOINING a=eye b=nose\nrelation r1 kind=ADJOINING a=nose b=eye\n",
                "line 2, column 10", "duplicate id r1, first declared on line 1",
            ),
            (
                "input eye as=e1\ninput nose as=n1\nrelation e1 kind=ADJOINING a=e1 b=n1\n",
                "line 3, column 10", "duplicate id e1, first declared on line 1",
            ),
        ],
    )
    def test_an_id_declared_twice_is_located(self, text, where, message):
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert str(err.value).startswith(f"{where}: {message}")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("input eye p=0.6 as=eye1\ninput eye p=0.6 as=face\n", "line 2, column 1"),
            ("input eye as=e1\nrelation x_fe kind=ADJOINING a=e1 b=face\n", "line 2, column 1"),
        ],
    )
    def test_an_id_that_names_a_knowledge_element_is_located(self, text, where):
        kb = parse_kb(FACE_KB)
        doc = parse_scenario(text)
        with pytest.raises(ParseError) as err:
            build_task(kb, doc)
        assert str(err.value).startswith(f"{where}: id ")
        assert str(err.value).endswith(" names an element of the knowledge base")

    def test_an_id_unfit_to_be_an_element_id_is_located(self):
        doc = parse_scenario("input eye p=0.6 as=e1\ninput nose as=n,1\n")
        with pytest.raises(ParseError, match=r"^line 2, column 1: bad element id 'n,1'"):
            build_task(parse_kb(FACE_KB), doc)

    def test_expectations_checked_after_fit(self):
        kb = parse_kb(FACE_KB)
        doc = parse_scenario(FACE_SCENARIO)
        task = build_task(kb, doc)
        report = fit_run(task)
        assert check_expectations(report.selected_state().net, doc.expects) == []

    def test_expectation_failures_reported(self):
        kb = parse_kb(FACE_KB)
        doc = parse_scenario(FACE_SCENARIO + "expect nose1 p=0.123\n")
        task = build_task(kb, doc)
        report = fit_run(task)
        failures = check_expectations(report.selected_state().net, doc.expects)
        assert len(failures) == 1 and "nose1" in failures[0]


class TestTraceFormat:
    def test_line_format(self):
        ev = TraceEvent(1, "superpose", "eye", "face", 0.6, 0.72)
        assert ev.format() == (
            "step=1 event=superpose src=eye dst=face "
            "value=0.600000000 result=0.720000000"
        )

    def test_empty_trace(self):
        assert trace_text(Trace()) == ""

    def test_collapse_carries_unit_value(self):
        trace = Trace()
        trace.record("collapse", "face1", "face1", 1.0, 1.0)
        assert "value=1.000000000 result=1.000000000" in trace_text(trace).strip()

    def test_determinism_across_runs(self):
        from scenes import face_task

        first = fit_run(face_task())
        second = fit_run(face_task())
        assert trace_text(first.task.trace) == trace_text(second.task.trace)
        assert trace_text(first.task.trace)  # non-empty
