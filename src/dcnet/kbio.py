"""Bit-exact text formats: knowledge documents, scenarios, trace emission.

Line-oriented grammar, ``#`` comments, whitespace-separated ``key=value``
pairs.  Forward references are forbidden, parse order is declaration order,
and parse -> serialize -> parse is an identity.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Optional, Union

from .core import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    DcnetError,
    Gaussian,
    Interval,
    ParameterError,
    ProbabilityState,
    Relation,
    RelationKind,
    Status,
    StructureError,
    declare_tree,
)
from .growth import ConceptSpec, FitTask, RelationSpec, ingest, make_task
from .probability import EngineConfig, parse_config_value
from .trace import Trace

__all__ = [
    "ParseError", "parse_kb", "serialize_kb", "Expectation", "ScenarioDoc", "parse_scenario",
    "build_task", "check_expectations", "trace_text",
]

# Enum members read as globals, as in ``core``: a class attribute read costs far more on 3.10-3.11.
_BELONG_TO = RelationKind.BELONG_TO
# Text to member by one dict lookup, about a tenth of the cost of calling the enum (``RelationKind(raw)``).
_KIND_OF_TEXT = {kind.value: kind for kind in RelationKind}
_STATUS_OF_TEXT = {status.value: status for status in Status}


class ParseError(DcnetError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# token helpers


def _strip_comment(raw_line: str) -> str:
    """Drop a trailing comment; a hash inside a token (instance ids) is not one."""
    if "#" not in raw_line:
        return raw_line
    if raw_line.lstrip().startswith("#"):
        return ""
    idx = 0
    while True:
        idx = raw_line.find("#", idx)
        if idx == -1:
            return raw_line
        if idx == 0 or raw_line[idx - 1] in " \t":
            return raw_line[:idx]
        idx += 1


def _column(line: str, token: Union[int, str], offset: int = 0) -> int:
    """The column of the character ``offset`` into a token, in the line as written.

    ``token`` is an index into ``line.split()``, or a key, naming the last
    ``key=`` token, the one ``_kv`` keeps; 1 when no token has the key.
    Only error paths call this.
    """
    tokens = [(match.start(), match.group()) for match in re.finditer(r"\S+", line)]  # as ``line.split()``
    if isinstance(token, str):
        keyed = [start for start, text in tokens if text.startswith(token + "=")]
        return keyed[-1] + 1 + offset if keyed else 1
    return tokens[token][0] + 1 + offset


def _value_column(line: str, key: str, offset: int = 0) -> int:
    """The column of the character ``offset`` into the value of the last ``key=`` token."""
    return _column(line, key, len(key) + 1 + offset)


def _parse_float(token: str, line_no: int, line: str, label: str, key: str, offset: int = 0) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{label}: not a number: {token}", line_no, _value_column(line, key, offset))


def parse_param_value(
    raw: str, line_no: int = 0, line: str = "", key: str = ""
) -> Union[float, str, Interval, Gaussian]:
    """A number, ``gauss:mu,sigma``, ``interval:lo,hi`` or else the text; ``key=`` locates an error."""
    if raw.startswith("gauss:"):
        mu, _, sigma = raw[6:].partition(",")
        return Gaussian(_parse_float(mu, line_no, line, "gauss mu", key, 6),
                        _parse_float(sigma, line_no, line, "gauss sigma", key, 7 + len(mu)))
    if raw.startswith("interval:"):
        lo, _, hi = raw[9:].partition(",")
        return Interval(_parse_float(lo, line_no, line, "interval lo", key, 9),
                        _parse_float(hi, line_no, line, "interval hi", key, 10 + len(lo)))
    try:
        return float(raw)
    except ValueError:
        return raw


def format_param_value(value) -> str:
    if isinstance(value, Gaussian):
        return f"gauss:{value.mu!r},{value.sigma!r}"
    if isinstance(value, Interval):
        return f"interval:{value.lo!r},{value.hi!r}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return repr(float(value))
    return str(value)


def _parse_prob_spec(raw: str, line_no: int, line: str, key: str):
    """A conditional probability: a number in [0, 1] or a Gaussian."""
    try:
        value = float(raw)  # what parse_param_value reads any float text as, at a fraction of its cost
    except ValueError:
        value = parse_param_value(raw, line_no, line, key)
        if isinstance(value, Gaussian):
            return value
        raise ParseError(f"bad probability spec: {raw}", line_no, _value_column(line, key))
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"probability out of range: {raw}", line_no, _value_column(line, key))
    return value


def _kind(raw: str, line_no: int, line: str) -> RelationKind:
    kind = _KIND_OF_TEXT.get(raw)
    if kind is None:
        raise ParseError(f"unknown kind {raw}", line_no, _value_column(line, "kind"))
    return kind


def _kv(tokens: list[str], start: int, line_no: int, line: str) -> dict[str, str]:
    """The ``key=value`` tokens from ``tokens[start]`` on; a later key wins."""
    out: dict[str, str] = {}
    for tok in tokens[start:]:
        key, eq, value = tok.partition("=")
        if not eq:  # a token equal to it, earlier, would have failed first: so ``index`` finds this one
            column = _column(line, tokens.index(tok, start))
            raise ParseError(f"expected key=value, got {tok}", line_no, column)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# knowledge documents


def _read_statements(text: str, statements: dict, *target) -> None:
    """Hand each statement to the reader its first token names: ``reader(*target, tokens, line_no, line)``.

    A DcnetError that a reader raises becomes a ParseError of its line.
    """
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw_line)  # indented as written, so that error columns count from its start
        tokens = line.split()
        if not tokens:
            continue
        reader = statements.get(tokens[0])
        if reader is None:
            raise ParseError(f"unknown statement {tokens[0]}", line_no, _column(line, 0))
        try:
            reader(*target, tokens, line_no, line)
        except ParseError:
            raise
        except DcnetError as err:
            raise ParseError(str(err), line_no) from err


def parse_kb(text: str) -> CognitiveNetwork:
    net = CognitiveNetwork()
    _read_statements(text, _KB_STATEMENTS, net)
    return net


def _parse_concept_line(net, tokens, line_no, line) -> Concept:
    if len(tokens) < 2:
        raise ParseError("concept needs an id", line_no)
    concept = Concept(id=tokens[1])
    state = None
    for key, value in _kv(tokens, 2, line_no, line).items():
        if key in ("value", "interval"):
            _set_value(concept, key, value, line_no, line)
        elif key == "name":
            concept.name = value
        elif key == "state":
            state = _parse_state(value, line_no, line)
        else:
            concept.params[key] = parse_param_value(value, line_no, line, key)
    net.add_concept(concept)
    if state is not None:
        net.set_state(concept.id, state)
    return concept


def _parse_belong_line(net, tokens, line_no, line) -> None:
    if len(tokens) < 3:
        raise ParseError("belong needs derived and base ids", line_no)
    backward = 1.0
    state = None
    for key, value in _kv(tokens, 3, line_no, line).items():
        if key == "pab":
            backward = _parse_float(value, line_no, line, "pab", key)
        elif key == "state":
            state = _parse_state(value, line_no, line)
    rel = net.add_belong(tokens[1], tokens[2], backward=backward)
    if state is not None:
        net.set_state(rel.id, state)


def _parse_relation_line(net, tokens, line_no, line) -> Relation:
    kind, a, b, pba, pab, base, kv = _relation_statement(tokens, line_no, line)
    relation = Relation(
        id=tokens[1], kind=kind, a=a, b=b,
        cond=ConditionalProbabilityPair(forward=pba, backward=pab), base=base,
        state=_parse_state(kv.pop("state"), line_no, line) if "state" in kv else ProbabilityState(),
    )
    for key, value in kv.items():
        relation.params[key] = parse_param_value(value, line_no, line, key)
    return net.add_relation(relation)


def _relation_statement(tokens, line_no, line):
    """A relation statement's kind, ends, conditional specs and base, then its other keys raw."""
    if len(tokens) < 2:
        raise ParseError("relation needs an id", line_no)
    kv = _kv(tokens, 2, line_no, line)
    for required in ("kind", "a", "b"):
        if required not in kv:
            raise ParseError(f"relation {tokens[1]} missing {required}=", line_no)
    kind = _kind(kv.pop("kind"), line_no, line)
    pba = _parse_prob_spec(kv.pop("pba", "1.0"), line_no, line, "pba")
    pab = _parse_prob_spec(kv.pop("pab", "1.0"), line_no, line, "pab")
    return kind, kv.pop("a"), kv.pop("b"), pba, pab, kv.pop("base", None), kv


def _set_value(target, key: str, raw: str, line_no: int, line: str) -> None:
    """Apply a ``value=`` or ``interval=`` token; a non-number ``value`` becomes a param."""
    if key == "interval":
        lo, _, hi = raw.partition(",")
        target.value = Interval(
            _parse_float(lo, line_no, line, "interval lo", key),
            _parse_float(hi, line_no, line, "interval hi", key, len(lo) + 1),
        )
        return
    parsed = parse_param_value(raw, line_no, line, key)
    if isinstance(parsed, float):
        target.value = parsed
    else:
        target.params["value"] = parsed


def _parse_tree_line(net, tokens, line_no, line) -> None:
    if len(tokens) < 3:
        raise ParseError("tree needs a root and members=", line_no)
    kv = _kv(tokens, 2, line_no, line)
    declare_tree(net, tokens[1], [m for m in kv.get("members", "").split(",") if m])


_KB_STATEMENTS = {
    "concept": _parse_concept_line,
    "belong": _parse_belong_line,
    "relation": _parse_relation_line,
    "tree": _parse_tree_line,
}


def _parse_state(raw: str, line_no: int, line: str) -> ProbabilityState:
    """``input,result,status,launched``: an input in [0, 1], a result, a status and a 0/1 flag.

    The result must be finite and not negative; it may pass 1, since in
    Mode.SIMPLIFIED contributions add without a clamp (a session checks the
    bound of its own mode).
    """
    parts = raw.split(",")
    if len(parts) != 4:
        raise ParseError(f"bad state spec {raw}", line_no, _value_column(line, "state"))

    def offset(i: int) -> int:  # of part i in the value
        return sum(len(part) + 1 for part in parts[:i])

    input_prob = _parse_float(parts[0], line_no, line, "input", "state")
    if not 0.0 <= input_prob <= 1.0:  # NaN fails this too
        column = _value_column(line, "state")
        raise ParseError(f"input probability out of [0, 1]: {parts[0]}", line_no, column)
    result_prob = _parse_float(parts[1], line_no, line, "result", "state", offset(1))
    if not 0.0 <= result_prob < math.inf:
        column = _value_column(line, "state", offset(1))
        raise ParseError(f"result probability negative or not finite: {parts[1]}", line_no, column)
    status = _parse_status(parts[2], line_no, line, "state", offset(2))
    if parts[3] not in ("0", "1"):
        column = _value_column(line, "state", offset(3))
        raise ParseError(f"launched flag must be 0 or 1: {parts[3]}", line_no, column)
    return ProbabilityState(input_prob, result_prob, status, launched=parts[3] == "1")


def _parse_status(raw: str, line_no: int, line: str, key: str, offset: int = 0) -> Status:
    status = _STATUS_OF_TEXT.get(raw)
    if status is None:
        raise ParseError(f"unknown status {raw}", line_no, _value_column(line, key, offset))
    return status


def _format_state(state) -> str:
    return f"{state.input_prob!r},{state.result_prob!r},{state.status.value},{1 if state.launched else 0}"


def serialize_kb(net: CognitiveNetwork, with_state: bool = False) -> str:
    """Canonical text: concepts, then relations, then trees, in insertion order."""
    out: list[str] = []
    for concept in net.concepts.values():
        parts = [f"concept {concept.id}"]
        if isinstance(concept.value, Interval):
            parts.append(f"interval={concept.value.lo!r},{concept.value.hi!r}")
        elif concept.value is not None:
            parts.append(f"value={concept.value!r}")
        if concept.name and concept.name != concept.id:
            parts.append(f"name={concept.name}")
        for key in concept.params:
            parts.append(f"{key}={format_param_value(concept.params[key])}")
        if with_state:
            parts.append(f"state={_format_state(concept.state)}")
        out.append(" ".join(parts))
    for rel in net.relations.values():
        if rel.kind is _BELONG_TO and rel.id == f"belong:{rel.a}:{rel.b}":
            parts = [f"belong {rel.a} {rel.b}"]
            if rel.cond.backward != 1.0:
                parts.append(f"pab={rel.cond.backward!r}")
            if with_state:
                parts.append(f"state={_format_state(rel.state)}")
            out.append(" ".join(parts))
            continue
        parts = [
            f"relation {rel.id}",
            f"kind={rel.kind.value}",
            f"a={rel.a}",
            f"b={rel.b}",
            f"pba={format_param_value(rel.cond.forward)}",
            f"pab={format_param_value(rel.cond.backward)}",
        ]
        if rel.base is not None:
            parts.append(f"base={rel.base}")
        for key in rel.params:
            parts.append(f"{key}={format_param_value(rel.params[key])}")
        if with_state:
            parts.append(f"state={_format_state(rel.state)}")
        out.append(" ".join(parts))
    for root, view in net.trees.items():
        members = [c for c in view.concepts if c != root]
        out.append(f"tree {root} members={','.join(members)}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class Expectation:
    element: str
    p: float
    status: Optional[Status] = None


@dataclass
class ScenarioDoc:
    config: dict[str, str] = field(default_factory=dict)
    concepts: list[ConceptSpec] = field(default_factory=list)
    relations: list[RelationSpec] = field(default_factory=list)
    expects: list[Expectation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    config_line: int = 0  # line of the last config statement


# short scenario names of config fields; every other field keeps its own name
_CONFIG_ALIASES = {
    "collapse_threshold": "collapse",
    "activation_threshold": "activation",
    "decay_epsilon": "epsilon",
    "default_k": "k",
    "match_depth_limit": "depth_limit",
}
_CONFIG_KEYS = {_CONFIG_ALIASES.get(f.name, f.name): f.name for f in fields(EngineConfig)}


def _duplicate_id(
    declared: dict[str, int], element_id: str, line_no: int, line: str, token: Union[int, str]
) -> ParseError:
    """The error for an id declared again, located at the token that declares it (see ``_column``)."""
    first = declared[element_id]
    column = _column(line, token)
    return ParseError(f"duplicate id {element_id}, first declared on line {first}", line_no, column)


def parse_scenario(text: str) -> ScenarioDoc:
    """Read a scenario; an id declared twice is a ParseError."""
    doc = ScenarioDoc()
    _read_statements(text, _SCENARIO_STATEMENTS, doc, {})  # element id -> the line that declared it
    return doc


def _parse_config_statement(doc, declared, tokens, line_no, line) -> None:
    for key, value in _kv(tokens, 1, line_no, line).items():
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key}", line_no, _column(line, key))
        try:
            parse_config_value(_CONFIG_KEYS[key], value)
        except ValueError as err:
            token = f"{key}={value}"
            raise ParseError(f"bad config value {token}: {err}", line_no, _column(line, key)) from err
        if key in doc.config:
            doc.warnings.append(f"line {line_no}: duplicate config key {key}; last wins")
        doc.config[key] = value
        doc.config_line = line_no


def _parse_input_statement(doc, declared, tokens, line_no, line) -> None:
    if len(tokens) < 2:
        raise ParseError("input needs a base id", line_no)
    kv = _kv(tokens, 2, line_no, line)
    p = _parse_float(kv.pop("p", "0.0"), line_no, line, "p", "p")
    if not 0.0 <= p <= 1.0:
        raise ParseError(f"input probability out of range: {p}", line_no, _value_column(line, "p"))
    as_id = kv.pop("as", None)
    if as_id is not None:
        if as_id in declared:
            raise _duplicate_id(declared, as_id, line_no, line, "as")
        declared[as_id] = line_no
    spec = ConceptSpec(tokens[1], p, as_id, kv.pop("var", "false").lower() == "true", None, {}, line_no)
    if kv:
        for key in ("value", "interval"):
            if key in kv:
                _set_value(spec, key, kv.pop(key), line_no, line)
        for key, value in kv.items():
            spec.params[key] = parse_param_value(value, line_no, line, key)
    doc.concepts.append(spec)


def _parse_relation_statement(doc, declared, tokens, line_no, line) -> None:
    kind, a, b, pba, pab, base, kv = _relation_statement(tokens, line_no, line)
    rel_id = tokens[1]
    if rel_id in declared:
        raise _duplicate_id(declared, rel_id, line_no, line, 1)
    declared[rel_id] = line_no
    p = _parse_float(kv.pop("p", "0.0"), line_no, line, "p", "p")
    if not 0.0 <= p <= 1.0:
        raise ParseError(f"relation probability out of range: {p}", line_no, _value_column(line, "p"))
    spec = RelationSpec(rel_id, kind, a, b, pba, pab, p, base, {}, line_no)
    for key, value in kv.items():
        spec.params[key] = parse_param_value(value, line_no, line, key)
    doc.relations.append(spec)


def _parse_expect_statement(doc, declared, tokens, line_no, line) -> None:
    if len(tokens) < 2:
        raise ParseError("expect needs an element id", line_no)
    kv = _kv(tokens, 2, line_no, line)
    status = None
    if "status" in kv:
        status = _parse_status(kv.pop("status"), line_no, line, "status")
    p = _parse_float(kv.pop("p", "1.0"), line_no, line, "p", "p")
    doc.expects.append(Expectation(element=tokens[1], p=p, status=status))


_SCENARIO_STATEMENTS = {
    "config": _parse_config_statement,
    "input": _parse_input_statement,
    "relation": _parse_relation_statement,
    "expect": _parse_expect_statement,
}


def engine_config(doc: ScenarioDoc, base: Optional[EngineConfig] = None) -> EngineConfig:
    """Scenario overrides applied over engine defaults."""
    try:
        overrides = {
            _CONFIG_KEYS[key]: parse_config_value(_CONFIG_KEYS[key], raw)
            for key, raw in doc.config.items()
        }
        return replace(base if base is not None else EngineConfig(), **overrides)
    except (ValueError, ParameterError) as err:
        raise ParseError(f"bad config: {err}", doc.config_line) from err


def build_task(kb: CognitiveNetwork, doc: ScenarioDoc, base_config: Optional[EngineConfig] = None) -> FitTask:
    """A fit task of the scenario over ``kb``.

    A declared id unfit to be an element id or held by ``kb``, or a spec the task refuses, is a ParseError.
    """
    declared = [(s.as_id, s.line) for s in doc.concepts if s.as_id is not None]
    declared += [(s.rel_id, s.line) for s in doc.relations]
    for element_id, line_no in sorted(declared, key=lambda pair: pair[1]):
        try:
            CognitiveNetwork.check_id(element_id)
        except StructureError as err:
            raise ParseError(str(err), line_no) from None
        if kb.has(element_id):
            raise ParseError(f"id {element_id} names an element of the knowledge base", line_no)
    task = make_task(kb, engine_config(doc, base_config))
    for spec in (*doc.concepts, *doc.relations):  # in the order make_task would ingest them
        try:
            if isinstance(spec, ConceptSpec):
                ingest(task, concepts=[spec])
            else:
                ingest(task, relations=[spec])
        except DcnetError as err:
            raise ParseError(str(err), spec.line) from err
    return task


def check_expectations(net: CognitiveNetwork, expects: Iterable[Expectation], tol: float = 1e-9) -> list[str]:
    failures: list[str] = []
    for exp in expects:
        if not net.has(exp.element):
            failures.append(f"{exp.element}: missing from the result network")
            continue
        state = net.element(exp.element).state
        if abs(state.result_prob - exp.p) > tol:
            failures.append(
                f"{exp.element}: probability {state.result_prob!r} != expected {exp.p!r}"
            )
        if exp.status is not None and state.status is not exp.status:
            failures.append(
                f"{exp.element}: status {state.status.value} != expected {exp.status.value}"
            )
    return failures


# ---------------------------------------------------------------------------
# trace emission


def trace_text(trace: Trace) -> str:
    """One canonical line per event (``TraceEvent.format``), each ending in a newline."""
    return "".join(f"{event.format()}\n" for event in trace.events)
