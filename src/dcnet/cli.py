"""Command-line interface: one verb per algorithm family.

Exit codes: 0 success, 1 expectation failure, 2 parse error, 3 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import CognitiveNetwork, DcnetError
from .growth import fit_run
from .kbio import (
    ParseError,
    build_task,
    check_expectations,
    parse_kb,
    parse_scenario,
    serialize_kb,
    trace_text,
)
from .learning import Scene, cnl_run
from .lifecycle import LoadError, session_load, session_save
from .matching import match_nested
from .query import QueryTemplate, TemplateElement, TemplateRelation, query_reason

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_validate(args) -> int:
    net = parse_kb(_read(args.kb))
    print(f"ok: {len(net.concepts)} concepts, {len(net.relations)} relations, "
          f"{len(net.trees)} trees")
    return EXIT_OK


def _cmd_fit(args) -> int:
    doc = parse_scenario(_read(args.scenario))
    for warning in doc.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.session and os.path.exists(args.session):
        task = session_load(args.session)
    else:
        if not args.kb:
            print("error: --kb is required unless --session points at an existing file",
                  file=sys.stderr)
            return EXIT_PARSE
        kb = parse_kb(_read(args.kb))
        task = build_task(kb, doc)
    report = fit_run(task, limit=args.max_fragments)
    if args.session:
        session_save(task, args.session)
    if args.trace:
        Path(args.trace).write_text(trace_text(task.trace), encoding="utf-8")
    state = report.selected_state()
    for element in state.content_ids():
        st = state.net.element(element).state
        print(f"{element} p={st.result_prob:.9f} status={st.status.value}")
    if not report.complete:
        print("note: interrupted before all fragments were consumed", file=sys.stderr)
        return EXIT_OK
    failures = check_expectations(state.net, doc.expects)
    for failure in failures:
        print(f"expectation failed: {failure}", file=sys.stderr)
    return EXIT_EXPECTATION if failures else EXIT_OK


def _cmd_match(args) -> int:
    kb = parse_kb(_read(args.kb))
    doc = parse_scenario(_read(args.fragment))
    task = build_task(kb, doc)
    state = task.states[0]
    if args.base not in state.net.trees:
        print(f"error: no declared tree rooted at {args.base}", file=sys.stderr)
        return EXIT_PARSE
    fragment = [f.element for f in state.fragments]
    fragment += [r.rel_id for r in doc.relations]
    result = match_nested(state.net, fragment, state.net.trees[args.base], task.config)
    print(f"membership={result.membership:.9f}")
    for base_el in sorted(result.mapping.pairs):
        print(f"placed {result.mapping.pairs[base_el]} -> {base_el}")
    return EXIT_OK


def _cmd_query(args) -> int:
    store = parse_kb(_read(args.kb))
    doc = parse_scenario(_read(args.template))
    template = QueryTemplate()
    for spec in doc.concepts:
        base = spec.base
        if spec.var and base in ("any", "_", "*"):
            base = None  # untyped variable
        template.elements.append(
            TemplateElement(
                id=spec.as_id or spec.base or f"q{len(template.elements)}",
                base=base,
                var=spec.var,
            )
        )
    for spec in doc.relations:
        template.relations.append(
            TemplateRelation(
                id=spec.rel_id,
                kind=spec.kind,
                a=spec.a,
                b=spec.b,
                base=spec.base,
                params=dict(spec.params),
            )
        )
    outcome = query_reason(template, store, max_steps=args.max_steps)
    if not outcome.answers:
        print("no bindings" + (" (budget exhausted)" if outcome.budget_exhausted else ""))
        return EXIT_OK
    for answer in outcome.answers:
        parts = [f"{var}={el}" for var, el in sorted(answer.binding.values.items())]
        line = " ".join(parts) if parts else "(pattern present)"
        if answer.explanation:
            line += " via " + ",".join(answer.explanation)
        print(line)
    return EXIT_OK


def _cmd_learn(args) -> int:
    kb = parse_kb(_read(args.kb)) if args.kb else CognitiveNetwork()
    scenes = []
    for path in sorted(Path(args.scenes).iterdir()):
        if path.suffix not in (".scenario", ".scene", ".txt"):
            continue
        doc = parse_scenario(path.read_text(encoding="utf-8"))
        scenes.append(Scene(concepts=doc.concepts, relations=doc.relations))
    report = cnl_run(scenes, kb)
    Path(args.out).write_text(serialize_kb(kb), encoding="utf-8")
    print(f"scenes={report.scenes} learned={len(report.learned_roots)} "
          f"extended={len(report.extended_roots)} merged={len(report.merged)}")
    for root, candidate in report.candidates.items():
        print(
            f"candidate {root} success={candidate.success_count} "
            f"trials={candidate.trial_count} new={1 if candidate.new_knowledge else 0}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcnet",
        description="Probabilistic cognitive-network inference engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a knowledge file and check invariants")
    p.add_argument("kb")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", help="fit a scenario against a knowledge base")
    p.add_argument("--kb", required=False)
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", help="write the run trace to this file")
    p.add_argument("--session", help="resume from (and save to) this session file")
    p.add_argument("--max-fragments", type=int, default=None,
                   help="stop after this many fragment steps")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("match", help="membership of a fragment against a base tree")
    p.add_argument("--kb", required=True)
    p.add_argument("--fragment", required=True)
    p.add_argument("--base", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("query", help="answer a template query over a store")
    p.add_argument("--kb", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--max-steps", type=int, default=0)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("learn", help="learn tree networks from scene files")
    p.add_argument("--kb", required=False)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, LoadError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except DcnetError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
