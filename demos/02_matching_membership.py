"""Membership degrees: concepts, trees, nesting, parameter deviations.

Matching never mutates anything; it asks how well a fragment of evidence fits
a knowledge tree.  Discrete evidence is crisp (belongs or not), continuous
evidence is scored by its distribution, and structural evidence superposes up
the tree toward the root.
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcnet import (
    CognitiveNetwork,
    Concept,
    ConditionalProbabilityPair,
    EngineConfig,
    Gaussian,
    Relation,
    RelationKind,
    classify_tree_network,
    match_concept,
    match_nested,
    match_tree,
)


def build_store():
    net = CognitiveNetwork()
    net.add_concept(Concept(id="fruit"))
    net.add_concept(Concept(id="apple"))
    net.add_belong("apple", "fruit")
    net.add_concept(Concept(id="adult_height", params={"value": Gaussian(1.7, 0.1)}))

    net.add_concept(Concept(id="person"))
    net.add_concept(Concept(id="face"))
    net.add_concept(Concept(id="eye"))
    net.add_relation(
        Relation(
            id="r_pf",
            kind=RelationKind.HAS_COMPONENT,
            a="person",
            b="face",
            cond=ConditionalProbabilityPair(1.0, 0.8),
        )
    )
    net.add_relation(
        Relation(
            id="r_fe",
            kind=RelationKind.HAS_COMPONENT,
            a="face",
            b="eye",
            cond=ConditionalProbabilityPair(1.0, 1.0),
            params={"angle": Gaussian(0.0, 10.0)},
        )
    )
    net.set_tree(classify_tree_network(net, "face", restrict={"face", "eye", "r_fe"}))
    net.set_tree(classify_tree_network(
        net, "person", restrict={"person", "face", "eye", "r_pf", "r_fe"}
    ))
    return net


def main():
    net = build_store()
    config = EngineConfig()

    print("single concepts")
    print("  apple vs fruit:", match_concept(net, "apple", "fruit"))
    print("  fruit vs apple:", match_concept(net, "fruit", "apple"))
    print("  height 1.8 vs adult height N(1.7, 0.1):",
          round(match_concept(net, 1.8, "adult_height"), 5),
          "(= exp(-1/2) =", round(math.exp(-0.5), 5), ")")

    print("\nperson membership from face and eye evidence at ideal angles")
    net.add_concept(Concept(id="face_obs"))
    net.add_belong("face_obs", "face")
    net.add_concept(Concept(id="eye_obs"))
    net.add_belong("eye_obs", "eye")
    net.add_relation(
        Relation(
            id="r_ideal",
            kind=RelationKind.HAS_COMPONENT,
            a="face_obs",
            b="eye_obs",
            params={"angle": 0.0},
        )
    )
    ideal = match_tree(net, ["face_obs", "eye_obs", "r_ideal"], net.trees["person"], config)
    print("  membership:", round(ideal.membership, 5), "(= 0.8 + 0.8 - 0.64)")

    print("\nthe same evidence with the eye ten degrees off")
    net.remove_element("r_ideal")
    net.add_relation(
        Relation(
            id="r_skew",
            kind=RelationKind.HAS_COMPONENT,
            a="face_obs",
            b="eye_obs",
            params={"angle": 10.0},
        )
    )
    skew = match_tree(net, ["face_obs", "eye_obs", "r_skew"], net.trees["person"], config)
    print("  membership:", round(skew.membership, 5),
          "(the eye's path is scaled by exp(-1/2) before superposing)")

    print("\nnested matching climbs level by level")
    nested = match_nested(net, ["eye_obs"], net.trees["person"], config)
    print("  person membership from a single eye:", round(nested.membership, 5))


if __name__ == "__main__":
    main()
