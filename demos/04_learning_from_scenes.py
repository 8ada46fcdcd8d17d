"""Learning tree networks from scenes no existing knowledge explains.

Ten scenes each show three mutually adjacent parts.  With an empty knowledge
base, the first scene founds a hypothesis tree (structure from a single
sample); the remaining scenes confirm it (probability from many samples).
When one part appears in only six of the ten scenes, its conditional
probability settles at exactly 0.6 while the structure is retained.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcnet import (
    CognitiveNetwork,
    ConceptSpec,
    RelationKind,
    RelationSpec,
    Scene,
    cnl_run,
    serialize_kb,
)


def triangle_scene(n, parts=("p1", "p2", "p3")):
    concepts = [ConceptSpec(base=p, p=1.0, as_id=f"{p}_s{n}") for p in parts]
    ids = [c.as_id for c in concepts]
    relations = [
        RelationSpec(rel_id=f"adj_{a}_{b}", kind=RelationKind.ADJOINING, a=a, b=b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
    ]
    return Scene(concepts=concepts, relations=relations)


def main():
    print("ten complete scenes against an empty knowledge base")
    kb = CognitiveNetwork()
    report = cnl_run([triangle_scene(n) for n in range(10)], kb)
    print("  learned roots:", report.learned_roots)
    print("  knowledge size:", kb.element_count(), "elements")
    candidate = report.candidates["learned#1"]
    print("  applications:", candidate.success_count, "of", candidate.trial_count)
    print("  still flagged as new:", candidate.new_knowledge)
    for member, (fwd, bwd) in sorted(report.estimates["learned#1"].items()):
        print(f"  P({member}|root) = {fwd}   P(root|{member}) = {bwd}")

    print("\nthe learned knowledge, as a document")
    print("  " + serialize_kb(kb).replace("\n", "\n  ").rstrip())

    print("\nnow the third part appears in only six of ten scenes")
    kb2 = CognitiveNetwork()
    scenes = [
        triangle_scene(n, ("p1", "p2", "p3") if n < 6 else ("p1", "p2"))
        for n in range(10)
    ]
    report2 = cnl_run(scenes, kb2)
    root = report2.learned_roots[0]
    fwd, bwd = report2.estimates[root]["p3"]
    print(f"  P(p3|root) = {fwd}  (structure retained: {kb2.has('p3')})")

    print("\nscenes already explained learn nothing more")
    before = kb.element_count()
    again = cnl_run([triangle_scene(99)], kb, registry=report.candidates)
    print("  new roots:", again.learned_roots, "| knowledge size unchanged:",
          kb.element_count() == before)


if __name__ == "__main__":
    main()
