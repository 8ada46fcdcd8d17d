"""Continuous calculation: interrupt, resume, prune, and keep going.

A fit task is serializable mid-run.  Resuming produces byte-for-byte the same
trace suffix as never having stopped.  Between rounds, collapsed trees can be
pruned down to their roots while new input keeps arriving into the same task:
build, collapse, prune, repeat.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcnet import (
    ConceptSpec,
    EngineConfig,
    PrunePolicy,
    fit_run,
    make_task,
    parse_kb,
    prune_task,
    session_load,
    session_save,
)
from dcnet.growth import ingest

KB = """
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

INPUTS = [
    ConceptSpec(base="eye", p=0.6, as_id="eye1"),
    ConceptSpec(base="nose", p=0.5, as_id="nose1"),
    ConceptSpec(base="mouth", p=0.4, as_id="mouth1"),
    ConceptSpec(base="ear", p=0.1, as_id="ear1"),
    ConceptSpec(base="face", p=0.3, as_id="face1"),
    ConceptSpec(base="egg", p=0.5, as_id="egg1"),
    ConceptSpec(base="cup_handle", p=0.4, as_id="ch1"),
]


def main():
    print("run the whole scene in one go")
    whole = make_task(parse_kb(KB), EngineConfig(), list(INPUTS))
    fit_run(whole)
    full = [ev.format() for ev in whole.trace.events]
    print("  trace length:", len(full), "events")

    print("\ninterrupt after two fragments, save, load, resume")
    partial = make_task(parse_kb(KB), EngineConfig(), list(INPUTS))
    fit_run(partial, limit=2)
    cut = len(partial.trace.events)
    payload = session_save(partial)
    print("  session payload:", len(payload.splitlines()), "lines,",
          "round-trips byte-identically:", session_save(session_load(payload)) == payload)
    resumed = session_load(payload)
    fit_run(resumed)
    suffix = [ev.format() for ev in resumed.trace.events[cut:]]
    print("  resumed trace suffix equals the uninterrupted one:", suffix == full[cut:])

    print("\nprune the collapsed tree and keep circulating")
    before = resumed.states[0].net.element_count()
    report = prune_task(resumed, PrunePolicy())
    after = resumed.states[0].net.element_count()
    print(f"  removed {len(report.removed)} elements ({before} -> {after});",
          "the root keeps its certainty:",
          resumed.states[0].net.element("face1").state.result_prob == 1.0)

    ingest(resumed, [ConceptSpec(base="eye", p=0.9, as_id="eye_round2")])
    second = fit_run(resumed)
    print("  a new round of input was absorbed:", second.complete)
    kinds = [ev.event for ev in resumed.trace.events]
    print("  lifecycle pattern grow->collapse->prune->grow:",
          kinds.index("grow") < kinds.index("collapse") < kinds.index("prune")
          < len(kinds) - 1 - kinds[::-1].index("grow"))


if __name__ == "__main__":
    main()
