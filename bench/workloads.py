"""Seeded workload generators and the operations the benchmark times.

Each workload class generates plain text from its seed in ``__init__`` (pure
stdlib, no engine import), turns that text into engine objects in ``build``
(the part ``setup_s`` times; ``setup`` adopts what it built), and exposes one
operation per index in ``op``.
``check`` runs the workload's correctness oracle on a completed operation's
output; it is never inside the timed region.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_engine():
    """Import dcnet from this checkout's ``src/``; exit with code 2 when it is absent."""
    if not (SRC / "dcnet" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'dcnet'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dcnet

    if Path(dcnet.__file__).resolve().parent != (SRC / "dcnet").resolve():
        print(f"error: dcnet imported from {dcnet.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return dcnet


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


class Workload:
    """The hooks ``run.py`` calls; the optional ones default to doing nothing."""

    name = ""
    trace_ops = 0  # operations a traced run times, fixed so its counts repeat exactly

    def build(self, dc):
        """Engine objects made from the generated text; must not change ``self``."""
        raise NotImplementedError

    def setup(self, dc) -> None:
        """Adopt freshly built engine objects before the first operation."""
        raise NotImplementedError

    def inputs(self) -> int:
        """How many distinct generated inputs one pass over the workload covers."""
        raise NotImplementedError

    def input_index(self, i: int) -> int:
        """Which generated input operation ``i`` uses; the inputs repeat once all have run."""
        return i % self.inputs()

    def op(self, i: int):
        """The timed call into the engine; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        """Raise ``oracles.OracleError`` when a completed operation's output is wrong."""
        raise NotImplementedError

    def depends_from(self, i: int) -> int:
        """The first operation whose effects operation ``i`` sees; ``--repro`` replays from it."""
        return i

    def prepare(self, i: int) -> None:
        """Untimed work before operation ``i`` (for example a fresh network)."""

    def after(self, i: int, out) -> None:
        """Untimed work after a completed operation ``i`` has passed its check."""

    def finish(self) -> None:
        """Checks that need the whole run."""

    def extra_metrics(self) -> dict:
        """Workload-specific figures printed after the end-to-end metrics."""
        return {}


# ---------------------------------------------------------------------------
# fit_scenes


def fit_kb_text(trees: int) -> tuple[str, list[list[str]]]:
    """T five-member trees; XOR on every 3rd root pair; every 4th tree shares a member."""
    concepts, relations, tree_lines = [], [], []
    members_of: list[list[str]] = []
    for t in range(trees):
        members = [f"o{t}p{i}" for i in range(5)]
        if t % 4 == 0 and t > 0:
            members[0] = members_of[t - 1][4]  # shared with the previous tree
        members_of.append(members)
        concepts.append(f"concept o{t}")
        concepts.extend(f"concept {m}" for m in members if m.startswith(f"o{t}p"))
        for i, m in enumerate(members):
            relations.append(f"relation h{t}.{i} kind=HAS_COMPONENT a=o{t} b={m} pba=0.9 pab=0.8")
        for i in range(4):
            relations.append(
                f"relation j{t}.{i} kind=ADJOINING a={members[i]} b={members[i + 1]} "
                "pba=0.7 pab=0.7"
            )
        tree_lines.append(f"tree o{t} members={','.join(members)}")
    for t in range(0, trees - 1, 3):
        relations.append(f"relation x{t} kind=XOR a=o{t} b=o{t + 1} pba=0.0 pab=0.0")
    concepts.extend(f"concept noise{k}" for k in range(4))
    return "\n".join(concepts + relations + tree_lines) + "\n", members_of


def fit_scene_text(rng: random.Random, members_of: list[list[str]], objects: int) -> str:
    """2-3 partial objects with their ADJOINING input relations, plus one noise fragment."""
    lines = []
    for k, t in enumerate(rng.sample(range(len(members_of)), objects)):
        size = rng.randint(2, 4)
        start = rng.randint(0, 5 - size)
        members = members_of[t][start:start + size]
        ids = [f"k{k}.{m}" for m in members]
        for m, inst in zip(members, ids):
            lines.append(f"input {m} p={rng.uniform(0.3, 0.9):.3f} as={inst}")
        for a, b in zip(ids, ids[1:]):
            lines.append(f"relation {a}~{b} kind=ADJOINING a={a} b={b}")
    noise = rng.randrange(4)
    lines.append(f"input noise{noise} p={rng.uniform(0.2, 0.6):.3f} as=z.noise{noise}")
    return "\n".join(lines) + "\n"


class FitScenes(Workload):
    """One op: ``make_task`` + ``fit_run`` of one generated scene against a shared KB."""

    name = "fit_scenes"
    trace_ops = 40
    SESSION_OPS = 100  # the first completed tasks, each saved and reloaded once

    def __init__(self, seed: int, trees: int = 12, scenes: int = 300):
        rng = _rng(self.name, seed)
        self.kb_text, members_of = fit_kb_text(trees)
        objects = [2, 3] * (scenes // 2)  # a fixed mix, in seeded order
        rng.shuffle(objects)
        self.scene_texts = [fit_scene_text(rng, members_of, n) for n in objects]
        self.session_save_s = 0.0
        self.session_load_s = 0.0
        self.session_bytes = 0
        self.sessions = 0

    def build(self, dc):
        return dc.parse_kb(self.kb_text), [dc.parse_scenario(text) for text in self.scene_texts]

    def setup(self, dc) -> None:
        self.dc = dc
        self.kb, self.docs = self.build(dc)
        self.config = dc.EngineConfig()

    def inputs(self) -> int:
        return len(self.scene_texts)

    def op(self, i: int):
        doc = self.docs[self.input_index(i)]
        task = self.dc.make_task(self.kb, self.config, doc.concepts, doc.relations)
        self.dc.fit_run(task)
        return task

    def check(self, i: int, task) -> None:
        oracles.check_fit_task(self.dc, task)

    def after(self, i: int, task) -> None:
        """The first ``SESSION_OPS`` scenes' completed tasks are saved and reloaded once each."""
        if i >= self.SESSION_OPS:
            return
        save_s, load_s, size = oracles.check_session_roundtrip(
            self.dc.session_save, self.dc.session_load, task
        )
        self.session_save_s += save_s
        self.session_load_s += load_s
        self.session_bytes += size
        self.sessions += 1

    def extra_metrics(self) -> dict:
        return {
            "session_save_s": (self.session_save_s, "s"),
            "session_load_s": (self.session_load_s, "s"),
            "session_bytes": (self.session_bytes, "bytes"),
            "sessions": (self.sessions, "count"),
        }


# ---------------------------------------------------------------------------
# collapse_chain


def chain_kb_text(rng: random.Random, lengths: list[int]) -> str:
    """Instance chains joined by HAS_PART (pba=pab=1); each tail XOR-tied to its rival."""
    concepts, relations = [], []
    for c, length in enumerate(lengths):
        ids = [f"c{c}n{i}" for i in range(length)]
        concepts.extend(f"concept {x}" for x in ids)
        p = round(rng.uniform(0.2, 0.7), 6)
        concepts.append(f"concept r{c} state={p!r},{p!r},superposed,0")
        for a, b in zip(ids, ids[1:]):
            relations.append(f"relation {a}-{b} kind=HAS_PART a={a} b={b} pba=1.0 pab=1.0")
        relations.append(f"relation x{c} kind=XOR a={ids[-1]} b=r{c} pba=0.0 pab=0.0")
    return "\n".join(concepts + relations) + "\n"


class CollapseChain(Workload):
    """One op: ``collapse_element`` on the head of one chain; a round collapses them all."""

    name = "collapse_chain"
    SHORTEST, LONGEST = 4, 10  # chain lengths, well below the recursion limit

    def __init__(self, seed: int, chains: int = 80):
        rng = _rng(self.name, seed)
        spread = self.LONGEST - self.SHORTEST + 1
        self.lengths = [self.SHORTEST + c % spread for c in range(chains)]  # a fixed length mix
        rng.shuffle(self.lengths)
        self.kb_text = chain_kb_text(rng, self.lengths)
        self.order = list(range(chains))
        rng.shuffle(self.order)
        self.trace_ops = chains

    def build(self, dc):
        return dc.parse_kb(self.kb_text)

    def setup(self, dc) -> None:
        self.dc = dc
        self.config = dc.EngineConfig()
        self._fresh_round()

    def _fresh_round(self) -> None:
        self.net = self.build(self.dc)
        self.ledger = self.dc.ContributionLedger()
        self.trace = self.dc.Trace()

    def inputs(self) -> int:
        return len(self.order)

    def input_index(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def depends_from(self, i: int) -> int:
        return i - i % len(self.order)  # the start of its round

    def prepare(self, i: int) -> None:
        if i > 0 and i % len(self.order) == 0:
            self._fresh_round()

    def op(self, i: int):
        chain = self.input_index(i)
        self.dc.collapse_element(self.net, f"c{chain}n0", self.config, self.ledger, self.trace)
        return chain

    def check(self, i: int, chain: int) -> None:
        length = self.lengths[chain]
        members = [f"c{chain}n{k}" for k in range(length)]
        members += [f"c{chain}n{k}-c{chain}n{k + 1}" for k in range(length - 1)]
        oracles.check_chain(self.dc, self.net, members, f"r{chain}")


# ---------------------------------------------------------------------------
# query_store


QUERY_KNOWLEDGE = (
    "concept person\n"
    "concept american\n"
    "concept echo_act\n"
    "relation r_nat kind=HAS_ATTRIBUTE a=person b=american pba=1.0 pab=1.0\n"
    "relation r_echo kind=HAS_FORM a=person b=echo_act pba=1.0 pab=1.0\n"
    "relation conv kind=CONVERSION a=r_echo b=r_nat pba=1.0 pab=1.0\n"
)


def query_store_text(persons: int, direct: set[int]) -> str:
    """Each person has a direct HAS_ATTRIBUTE fact or an echo-act HAS_FORM fact."""
    lines = []
    for i in range(persons):
        lines += [f"concept p{i}", f"belong p{i} person"]
        if i in direct:
            lines += [
                f"concept am{i}",
                f"belong am{i} american",
                f"relation nat{i} kind=HAS_ATTRIBUTE a=p{i} b=am{i} base=r_nat",
            ]
        else:
            lines += [
                f"concept ec{i}",
                f"belong ec{i} echo_act",
                f"relation echo{i} kind=HAS_FORM a=p{i} b=ec{i} base=r_echo",
            ]
    return QUERY_KNOWLEDGE + "\n".join(lines) + "\n"


class QueryStore(Workload):
    """One op: one query over a read-only dialogue store of N persons."""

    name = "query_store"
    trace_ops = 100

    def __init__(self, seed: int, persons: int = 30, queries: int = 100, enum_every: int = 50):
        rng = _rng(self.name, seed)
        self.direct = sorted(rng.sample(range(persons), persons // 2))
        echo = [i for i in range(persons) if i not in self.direct]
        self.store_text = query_store_text(persons, set(self.direct))
        anchored = queries - queries // enum_every
        # a tenth direct: with more of the fast direct queries the median latency
        # falls near the gap below the slow reasoned ones and jumps from run to run
        kinds = ["direct"] * (anchored // 10) + ["reasoned"] * (anchored - anchored // 10)
        rng.shuffle(kinds)
        picks = iter(kinds)
        self.queries: list[tuple[str, int]] = []
        for q in range(queries):
            if q % enum_every == enum_every - 1:
                self.queries.append(("enumerate", -1))
                continue
            kind = next(picks)
            self.queries.append((kind, rng.choice(self.direct if kind == "direct" else echo)))

    def build(self, dc):
        store = dc.parse_kb(self.store_text)
        return store, [self._template(dc, kind, person) for kind, person in self.queries]

    def setup(self, dc) -> None:
        self.dc = dc
        self.store, self.templates = self.build(dc)
        self.store_serialized = dc.serialize_kb(self.store)
        self.expected_enumeration = [{"qp": f"p{i}", "qx": f"am{i}"} for i in self.direct]
        self.expected_enumeration.append({"qp": "person", "qx": "american"})
        self.expected_enumeration.sort(key=lambda v: tuple(sorted(v.items())))

    @staticmethod
    def _template(dc, kind: str, person: int):
        anchor = dc.TemplateElement(id="qp", var=True, base="person")
        if kind != "enumerate":
            anchor = dc.TemplateElement(id="qp", base=f"p{person}")
        return dc.QueryTemplate(
            elements=[anchor, dc.TemplateElement(id="qx", var=True, base="american")],
            relations=[
                dc.TemplateRelation(id="qr", kind=dc.RelationKind.HAS_ATTRIBUTE, a="qp", b="qx")
            ],
        )

    def inputs(self) -> int:
        return len(self.queries)

    def op(self, i: int):
        index = self.input_index(i)
        if self.queries[index][0] == "enumerate":
            return self.dc.query_match(self.templates[index], self.store)
        return self.dc.query_reason(self.templates[index], self.store, max_steps=2)

    def check(self, i: int, out) -> None:
        kind, person = self.queries[self.input_index(i)]
        if kind == "enumerate":
            oracles.check_enumeration(out, self.expected_enumeration)
        elif kind == "direct":
            oracles.check_anchored(out, reasoned=False, expected={"qx": f"am{person}"})
        else:
            oracles.check_anchored(out, reasoned=True)

    def finish(self) -> None:
        if self.dc.serialize_kb(self.store) != self.store_serialized:
            raise oracles.OracleError("query_store: a query mutated the store")


# ---------------------------------------------------------------------------
# learn_scenes


def pattern_parts(pattern: int) -> list[str]:
    return [f"k{pattern}p{i}" for i in range(3 + pattern % 2)]


def learn_scene_text(scene: int, patterns: list[int], drop: int | None) -> str:
    """Fully adjacent parts of each pattern; ``drop`` removes one part of the first."""
    lines = []
    for n, pattern in enumerate(patterns):
        parts = pattern_parts(pattern)
        if n == 0 and drop is not None:
            parts = parts[:drop] + parts[drop + 1:]
        ids = [f"s{scene}.{part}" for part in parts]
        for part, inst in zip(parts, ids):
            lines.append(f"input {part} p=1.0 as={inst}")
        for x, a in enumerate(ids):
            for b in ids[x + 1:]:
                lines.append(f"relation {a}~{b} kind=ADJOINING a={a} b={b}")
    return "\n".join(lines) + "\n"


class LearnScenes(Workload):
    """One op: ``cnl_run`` over a batch of B generated scenes on a fresh KB."""

    name = "learn_scenes"
    trace_ops = 20
    DROP_SHARE = 0.2  # scenes with one non-first part missing
    TWO_SHARE = 0.02  # scenes holding two disjoint patterns
    PATTERNS = 5

    def __init__(self, seed: int, batches: int = 80, batch: int = 20):
        rng = _rng(self.name, seed)
        total = batches * batch
        two = set(rng.sample(range(total), round(self.TWO_SHARE * total)))
        drops = set(rng.sample(range(total), round(self.DROP_SHARE * total)))
        texts = []
        for s in range(total):
            chosen = rng.sample(range(self.PATTERNS), 2) if s in two else [rng.randrange(self.PATTERNS)]
            drop = rng.randrange(1, len(pattern_parts(chosen[0]))) if s in drops else None
            texts.append(learn_scene_text(s, chosen, drop))
        self.batch_texts = [texts[b * batch:(b + 1) * batch] for b in range(batches)]

    def build(self, dc):
        batches = []
        for texts in self.batch_texts:
            docs = [dc.parse_scenario(text) for text in texts]
            batches.append([dc.Scene(concepts=d.concepts, relations=d.relations) for d in docs])
        return batches

    def setup(self, dc) -> None:
        self.dc = dc
        self.batches = self.build(dc)

    def inputs(self) -> int:
        return len(self.batch_texts)

    def op(self, i: int):
        kb = self.dc.CognitiveNetwork()
        report = self.dc.cnl_run(self.batches[self.input_index(i)], kb)
        return kb, report

    def check(self, i: int, out) -> None:
        kb, report = out
        oracles.check_learning(self.dc, kb, report)


WORKLOADS = {cls.name: cls for cls in (FitScenes, CollapseChain, QueryStore, LearnScenes)}

