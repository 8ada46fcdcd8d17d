"""Element store and structural substrate of the cognitive network.

Concepts and relations are both first-class elements with identities, so a
relation may end on another relation without special cases.  Derivation in
the set dimension (belong-to / equal) is what every other module leans on:
matching, growth and learning all reduce to questions about which elements
belong to which.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Iterable, Iterator, Optional, Protocol, Sequence, Union


class DcnetError(Exception):
    """Base class for all engine errors."""


class LookupMissing(DcnetError):
    """An element id did not resolve."""


class StructureError(DcnetError):
    """A network fragment violates a structural definition."""


class ParameterError(DcnetError):
    """A numeric argument is outside its admissible range."""


class KindError(DcnetError):
    """Relation kinds or lineages are incompatible."""


class ConflictError(DcnetError):
    """Mutually exclusive certainty: collapse requested against a suppressed or opposing fact."""


class GrowthBlockedError(DcnetError):
    """Growth requested from a suppressed element."""


class DepthError(DcnetError):
    """Nested matching exceeded the configured recursion depth."""


# ---------------------------------------------------------------------------
# relation taxonomy


class RelationKind(Enum):
    BELONG_TO = "BELONG_TO"
    EQUAL = "EQUAL"
    HAS_COMPONENT = "HAS_COMPONENT"
    HAS_PART = "HAS_PART"
    HAS_ATTRIBUTE = "HAS_ATTRIBUTE"
    HAS_FORM = "HAS_FORM"
    HAS_CONTENT = "HAS_CONTENT"
    ADJOINING = "ADJOINING"
    COMPARISON = "COMPARISON"
    CONVERSION = "CONVERSION"
    CAUSALITY = "CAUSALITY"
    CHANGE = "CHANGE"
    MOVE = "MOVE"
    XOR = "XOR"

    __hash__ = object.__hash__  # members are singletons: a C identity hash, not Enum's hash of the name


# Hot paths read members from module globals: on 3.10 and 3.11 ``RelationKind.X``
# goes through ``EnumType.__getattr__``, about eight times the cost of a global read.
_BELONG_TO = RelationKind.BELONG_TO
_EQUAL = RelationKind.EQUAL
_XOR = RelationKind.XOR


_LONGITUDINAL = {
    RelationKind.HAS_COMPONENT,
    RelationKind.HAS_PART,
    RelationKind.HAS_ATTRIBUTE,
    RelationKind.HAS_FORM,
    RelationKind.HAS_CONTENT,
}

_LATERAL = {
    RelationKind.ADJOINING,
    RelationKind.COMPARISON,
    RelationKind.CONVERSION,
    RelationKind.CAUSALITY,
    RelationKind.CHANGE,
    RelationKind.MOVE,
    RelationKind.EQUAL,
}

def is_longitudinal(kind: RelationKind) -> bool:
    return kind in _LONGITUDINAL


def is_lateral(kind: RelationKind) -> bool:
    return kind in _LATERAL


LATERAL_KINDS = frozenset(_LATERAL - {RelationKind.EQUAL})


# ---------------------------------------------------------------------------
# values and parameters


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ParameterError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")

    def contains_scalar(self, x: float) -> bool:
        return self.lo < x < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ParameterError(f"gaussian sigma must be positive, got {self.sigma}")


ValueTerm = Union[float, Interval]
ParamValue = Union[float, str, Interval, Gaussian]
ProbSpec = Union[float, Gaussian]


def value_contained(candidate: ValueTerm, base: ValueTerm) -> bool:
    """Containment of value terms: scalar in open interval, interval in interval."""
    if isinstance(base, Interval):
        if isinstance(candidate, Interval):
            return base.contains_interval(candidate)
        return base.contains_scalar(float(candidate))
    if isinstance(candidate, Interval):
        return False
    return float(candidate) == float(base)


# ---------------------------------------------------------------------------
# probability state (element payload; the algebra lives in dcnet.probability)


class Status(Enum):
    SUPERPOSED = "superposed"
    COLLAPSED = "collapsed"
    SUPPRESSED = "suppressed"

    __hash__ = object.__hash__


_SUPERPOSED = Status.SUPERPOSED


# A set of element ids that keeps the order they were added in (a dict of ``None``), so that
# a seeding reads the elements of a new network in the order they were stored.
Touched = dict[str, None]


@dataclass(slots=True)
class ProbabilityState:
    """An element's probability and status.

    A stored state is written through ``CognitiveNetwork.state``, which
    marks its element touched so that the next settle reads it; one read
    through ``element(id).state`` is to read only.
    """

    input_prob: float = 0.0
    result_prob: float = 0.0
    status: Status = Status.SUPERPOSED
    launched: bool = False

    def copy(self) -> "ProbabilityState":
        return ProbabilityState(self.input_prob, self.result_prob, self.status, self.launched)

    def __deepcopy__(self, memo: dict) -> "ProbabilityState":
        return self.copy()


@dataclass
class ConditionalProbabilityPair:
    """forward = P(B|A), backward = P(A|B) of a relation with ends A and B."""

    forward: ProbSpec = 1.0
    backward: ProbSpec = 1.0

    def copy(self) -> "ConditionalProbabilityPair":
        return ConditionalProbabilityPair(self.forward, self.backward)


def _check_prob_spec(spec: ProbSpec, label: str) -> None:
    if isinstance(spec, Gaussian):
        return
    p = float(spec)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{label} must lie in [0, 1], got {p}")


# fixed conditional probabilities demanded by basic kinds
_KIND_FIXED: dict[RelationKind, tuple[Optional[float], Optional[float]]] = {
    RelationKind.BELONG_TO: (1.0, None),
    RelationKind.EQUAL: (1.0, 1.0),
    RelationKind.XOR: (0.0, 0.0),
}


# ---------------------------------------------------------------------------
# elements


@dataclass
class Concept:
    id: str
    name: str = ""
    value: Optional[ValueTerm] = None
    params: dict[str, ParamValue] = field(default_factory=dict)
    state: ProbabilityState = field(default_factory=ProbabilityState)

    def copy(self) -> "Concept":
        return Concept(self.id, self.name, self.value, dict(self.params), self.state.copy())


@dataclass
class Relation:
    id: str
    kind: RelationKind
    a: str
    b: str
    cond: ConditionalProbabilityPair = field(default_factory=ConditionalProbabilityPair)
    base: Optional[str] = None
    params: dict[str, ParamValue] = field(default_factory=dict)
    state: ProbabilityState = field(default_factory=ProbabilityState)

    def copy(self) -> "Relation":
        return Relation(
            self.id, self.kind, self.a, self.b, self.cond.copy(), self.base, dict(self.params),
            self.state.copy(),
        )

    def other_end(self, end: str) -> str:
        if end == self.a:
            return self.b
        if end == self.b:
            return self.a
        raise LookupMissing(f"{end} is not an endpoint of relation {self.id}")


Element = Union[Concept, Relation]


@dataclass
class TreeNetworkView:
    """Rooted view over a connected subnetwork.

    ``longitudinal`` relations lie on top-down chains whose top is the root
    (or a root-relation endpoint); everything else attached is ``additional``.
    """

    root: str
    longitudinal: list[str] = field(default_factory=list)
    additional: list[str] = field(default_factory=list)
    concepts: list[str] = field(default_factory=list)

    def element_ids(self) -> list[str]:
        return self.concepts + self.longitudinal + self.additional

    def copy(self) -> "TreeNetworkView":
        return TreeNetworkView(
            self.root, list(self.longitudinal), list(self.additional), list(self.concepts)
        )


@dataclass
class DerivedMapping:
    """Injective, total-on-base correspondence base element -> derived element."""

    pairs: dict[str, str] = field(default_factory=dict)


@dataclass
class TreeInstance:
    """A grown derived tree: where it came from and which elements realize it."""

    base_root: str
    root: str
    mapping: dict[str, str] = field(default_factory=dict)

    def element_ids(self) -> list[str]:
        return list(self.mapping.values())

    def copy(self) -> "TreeInstance":
        return TreeInstance(self.base_root, self.root, dict(self.mapping))


# ---------------------------------------------------------------------------
# network


_TREE_VERSIONS = itertools.count()  # see CognitiveNetwork.trees_version


def _writable_entry(table: dict, owned: Optional[set[str]], key: str, empty: type):
    """``table[key]``, to change in place: first copied if another network may hold it, new if absent.

    ``owned`` holds the keys whose entries no other network holds, or is None
    when no other network holds any.
    """
    entry = table.get(key)
    if entry is None:
        entry = table[key] = empty()
    elif owned is None or key in owned:
        return entry
    else:
        entry = table[key] = entry.copy()
    if owned is not None:
        owned.add(key)
    return entry


class CognitiveNetwork:
    """Heterogeneous element store with referential integrity.

    Insertion order is preserved and meaningful: it is the deterministic
    tie-break everywhere the engine scans elements.  Besides the incident
    relations of each element, the store indexes what collapse asks about:
    each element's insertion serial, the XOR relations at each end, and the
    relations derived from each base.  Change a stored relation's ``base``
    through ``set_base`` so that the last index stays true.  It also keeps
    the XOR reach set (``xor_reach``): the elements whose up-closure may hold
    an XOR end.  The set may hold more elements than that, as a removal
    leaves it as it was, but it never misses one.

    A generation counter moves with every change of structure: adding or
    removing an element, ``set_base``, ``set_tree`` and ``drop_tree``.
    ``validate`` checks a network once per generation, so declare and forget
    trees through those two methods, not by writing ``trees``.

    The touched set holds the ids whose state may have changed since the
    last ready seeding (``seed_ready``).  ``state`` is the way to write a
    stored state, and it adds the id to the set; adding an element touches
    it too, and ``set_state`` gives a stored element a new state object.  A
    write through a state taken any other way, or held from before a
    seeding, is not seen by the next one.

    ``knowledge`` holds a fit task's knowledge ids, which the fit rules never
    collapse, suppress or reuse as instances; it is empty outside a task.

    ``layer`` makes a copy that shares this network's elements, their states
    and the lists and sets of its indexes; only the tables that hold them are
    copied.  Either side copies a shared element or index entry in on its
    first write, so neither ever sees the other's changes.  The ways to write
    are the methods here: ``add_*``, ``remove_element``, ``set_base``,
    ``set_state``, ``state`` and ``writable``, which hands out an element whose
    fields may be written.  An element taken from ``element``, ``concepts``
    or ``relations`` is to read only.
    """

    _OWNERSHIP = ("_own", "_own_incident", "_own_xor", "_own_derived", "_own_reach")

    def __init__(self) -> None:
        self.concepts: dict[str, Concept] = {}
        self.relations: dict[str, Relation] = {}
        self.trees: dict[str, TreeNetworkView] = {}
        self.tree_instances: list[TreeInstance] = []
        self.counters: dict[str, int] = {}
        self._incident: dict[str, list[str]] = {}
        self._serial: dict[str, int] = {}
        self._next_serial = 0
        self._xor_by_end: dict[str, dict[str, None]] = {}
        self._derived: dict[str, dict[str, None]] = {}
        self._xor_reach: set[str] = set()  # the edge down-closures of the XOR ends, or more
        self._generation = 0
        self._valid_at = -1  # the generation validate() last passed
        self._touched: Touched = {}
        self._ready_before: Touched = {}  # the ids the last seeding found ready
        self._floor = -math.inf  # the collapse_at of the last seeding; none yet, and all touched
        # The element ids, and the keys of each index, whose objects no other network holds;
        # None until a layer first shares them, as until then this network holds them all alone.
        self._own: Optional[set[str]] = None
        self._own_incident: Optional[set[str]] = None
        self._own_xor: Optional[set[str]] = None
        self._own_derived: Optional[set[str]] = None
        self._own_reach: Optional[set[str]] = None  # empty, not None, while a layer shares the reach set
        self._knowledge: frozenset[str] = frozenset()
        self._instance_mark = 0  # the serial from which instance_ids reads
        self._ids: tuple[int, frozenset[str]] = (-1, frozenset())  # element_set() and its generation
        self._trees_version = next(_TREE_VERSIONS)

    @property
    def knowledge(self) -> frozenset[str]:
        return self._knowledge

    @knowledge.setter
    def knowledge(self, ids: frozenset[str]) -> None:
        self._knowledge = ids
        self._instance_mark = 0  # any element may now lie outside it

    # -- element access ----------------------------------------------------

    @staticmethod
    def check_id(element_id: str) -> None:
        """Keep an id one token of the text formats: they split on whitespace, ``=`` and ``,``."""
        if element_id == "-" or "=" in element_id or "," in element_id or element_id.split() != [element_id]:
            raise StructureError(
                f"bad element id {element_id!r}: empty, holds whitespace, '=' or ',', or is '-' (none)"
            )

    def has(self, element_id: str) -> bool:
        return element_id in self.concepts or element_id in self.relations

    def element(self, element_id: str) -> Element:
        el = self.concepts.get(element_id) or self.relations.get(element_id)
        if el is None:
            raise LookupMissing(f"unknown element: {element_id}")
        return el

    def state(self, element_id: str) -> ProbabilityState:
        """The element's state, to write (a shared one is first copied in); its id is touched.

        Read a state through ``element(element_id).state``, which touches nothing.
        """
        state = self.writable(element_id).state
        self._touched[element_id] = None
        return state

    def writable(self, element_id: str) -> Element:
        """The element, to write its fields: one this network shares with a layer is first copied in.

        The copy takes the same place in the tables.  A write of its state
        through it is not seen by the next settle; write states through ``state``.
        """
        table = self.concepts if element_id in self.concepts else self.relations
        element = table.get(element_id)
        if element is None:
            raise LookupMissing(f"unknown element: {element_id}")
        if self._own is not None and element_id not in self._own:
            element = table[element_id] = element.copy()
            self._own.add(element_id)
        return element

    def owned_ids(self) -> Optional[Collection[str]]:
        """The elements whose objects no other network holds, to read only.

        None while no layer shares anything with this network: it then holds
        every element alone.
        """
        return self._own

    def element_ids(self) -> list[str]:
        return list(self.concepts) + list(self.relations)

    def element_set(self) -> frozenset[str]:
        """Every element id, as a frozenset built once per generation."""
        generation, ids = self._ids
        if generation != self._generation:
            ids = frozenset(self.concepts).union(self.relations)
            self._ids = (self._generation, ids)
        return ids

    def instance_ids(self) -> list[str]:
        """The elements outside ``knowledge``, in ``element_ids()`` order.

        A layer over its knowledge (``layer(knowledge=True)``) reads only the
        elements added to it, the last entries of its serial table.
        """
        added = []
        for element_id, serial in reversed(self._serial.items()):
            if serial < self._instance_mark:
                break
            if element_id not in self._knowledge:
                added.append(element_id)
        added.reverse()
        concepts = self.concepts
        return [e for e in added if e in concepts] + [e for e in added if e not in concepts]

    def trees_version(self) -> int:
        """A number that changes whenever a tree is declared or forgotten, or a tree root removed.

        It is unique among all networks, and a layer or a copy shares it with
        its source until either changes its trees.
        """
        return self._trees_version

    def incident(self, element_id: str) -> list[str]:
        """Relations touching an element, in insertion order."""
        return list(self._incident.get(element_id, ()))

    def incident_view(self, element_id: str) -> Sequence[str]:
        """``incident(element_id)`` without the copy: the store's own list, to read only.

        Do not change the network while walking it.
        """
        return self._incident.get(element_id, ())

    def element_count(self) -> int:
        return len(self.concepts) + len(self.relations)

    def position_key(self, element_id: str) -> tuple[bool, int]:
        """Sort key that orders element ids the way ``element_ids()`` lists them."""
        return element_id in self.relations, self._serial[element_id]

    def xor_ends(self) -> Collection[str]:
        """The elements an XOR relation ends on, to read only."""
        return self._xor_by_end.keys()

    def xor_relations_at(self, element_id: str) -> Collection[str]:
        """XOR relations with an end at ``element_id``, in insertion order, to read only."""
        return self._xor_by_end.get(element_id, {}).keys()

    def xor_reach(self) -> Collection[str]:
        """Every element whose up-closure holds an XOR end, and maybe more, to read only.

        An element outside it has no XOR partner unless it holds a value.
        """
        return self._xor_reach

    def relations_based_on(self, base_id: str) -> list[str]:
        """Relations whose ``base`` is ``base_id``, in the order they got it."""
        return list(self._derived.get(base_id, ()))

    # -- ready seeding -----------------------------------------------------

    def touched(self) -> Touched:
        """The ids whose state may have changed since the last seeding: the store's own set.

        ``state`` adds to it; a writer that goes around ``state`` adds its ids here.
        """
        return self._touched

    def seed_ready(self, collapse_at: float) -> tuple[list[str], int]:
        """The superposed elements whose result is at least ``collapse_at``, in no set order.

        Also returns how many elements were read to find them: only the
        touched ones and those the last seeding found ready, or every element
        when ``collapse_at`` is below the last seeding's.  An element that
        was not ready then and whose state has not been written since cannot
        be ready now.  The touched set starts empty again.  When every
        element is a candidate (all touched, as in a network never seeded, or
        a lower ``collapse_at``), the tables are read in storage order, with
        no lookup by id.
        """
        concepts, relations = self.concepts, self.relations
        examined = len(concepts) + len(relations)
        if collapse_at < self._floor or len(self._touched) == examined:
            elements: Iterable[Element] = itertools.chain(concepts.values(), relations.values())
        else:
            candidates = self._touched | self._ready_before
            examined = len(candidates)
            elements = [concepts.get(element_id) or relations[element_id] for element_id in candidates]
        self._floor = collapse_at
        self._touched.clear()
        ready = []
        for element in elements:
            state = element.state
            if state.result_prob >= collapse_at and state.status is _SUPERPOSED:
                ready.append(element.id)
        self._ready_before = dict.fromkeys(ready)
        return ready, examined

    # -- mutation ----------------------------------------------------------

    def add_concept(self, concept: Concept) -> Concept:
        self.check_id(concept.id)
        if self.has(concept.id):
            raise StructureError(f"duplicate element id: {concept.id}")
        self.concepts[concept.id] = concept
        if self._own is not None:
            self._own.add(concept.id)
        self._touched[concept.id] = None
        self._serial[concept.id] = self._next_serial
        self._next_serial += 1
        self._generation += 1
        return concept

    def add_relation(self, relation: Relation) -> Relation:
        self.check_id(relation.id)
        if self.has(relation.id):
            raise StructureError(f"duplicate element id: {relation.id}")
        if not self.has(relation.a):
            raise LookupMissing(f"relation {relation.id}: unknown endpoint {relation.a}")
        if not self.has(relation.b):
            raise LookupMissing(f"relation {relation.id}: unknown endpoint {relation.b}")
        if relation.a == relation.b:
            raise StructureError(f"relation {relation.id} ends on itself")
        self._check_conds(relation)
        if relation.base is not None:
            self._check_derived_overloading(relation)
        if relation.kind is _BELONG_TO and self._would_cycle(relation.a, relation.b):
            raise StructureError(
                f"belong-to relation {relation.id} would make {relation.a} belong to itself"
            )
        self.relations[relation.id] = relation
        if self._own is not None:
            self._own.add(relation.id)
        self._touched[relation.id] = None
        self._serial[relation.id] = self._next_serial
        self._next_serial += 1
        if self._own_incident is None:  # no layer shares a list, so each changes in place
            self._incident.setdefault(relation.a, []).append(relation.id)
            self._incident.setdefault(relation.b, []).append(relation.id)
        else:
            for end in (relation.a, relation.b):
                _writable_entry(self._incident, self._own_incident, end, list).append(relation.id)
        if relation.kind is _XOR:
            for end in (relation.a, relation.b):
                _writable_entry(self._xor_by_end, self._own_xor, end, dict)[relation.id] = None
        if relation.base is not None:
            _writable_entry(self._derived, self._own_derived, relation.base, dict)[relation.id] = None
        if relation.kind is _XOR:
            self._reach_down(relation.a, relation.b)
        elif relation.kind is _BELONG_TO and relation.b in self._xor_reach:
            self._reach_down(relation.a)
        elif relation.kind is _EQUAL and (relation.a in self._xor_reach or relation.b in self._xor_reach):
            self._reach_down(relation.a, relation.b)
        if relation.base in self._xor_reach:
            self._reach_down(relation.id)
        self._generation += 1
        return relation

    def set_base(self, rel_id: str, base_id: Optional[str]) -> None:
        """Point a stored relation at another base relation (or at none)."""
        rel = self.writable(rel_id)
        self._forget_base(rel)
        rel.base = base_id
        if base_id is not None:
            _writable_entry(self._derived, self._own_derived, base_id, dict)[rel_id] = None
            if base_id in self._xor_reach:
                self._reach_down(rel_id)
        self._generation += 1

    def set_state(self, element_id: str, state: ProbabilityState) -> None:
        """Give a stored element ``state`` in place of its own state object."""
        self.writable(element_id).state = state
        self._touched[element_id] = None

    def set_tree(self, view: TreeNetworkView) -> None:
        """Record a classified tree under its root, in place of any tree declared there."""
        self.trees[view.root] = view
        self._generation += 1
        self._trees_version = next(_TREE_VERSIONS)

    def drop_tree(self, root: str) -> TreeNetworkView:
        """Forget the tree declared under ``root`` and return it; KeyError if there is none."""
        view = self.trees.pop(root)
        self._generation += 1
        self._trees_version = next(_TREE_VERSIONS)
        return view

    def add_belong(self, derived: str, base: str, backward: float = 1.0) -> Relation:
        """Belong-to edge derived -> base with the fixed forward probability."""
        rel_id = f"belong:{derived}:{base}"
        if rel_id in self.relations:
            return self.relations[rel_id]
        return self.add_relation(
            Relation(
                id=rel_id,
                kind=_BELONG_TO,
                a=derived,
                b=base,
                cond=ConditionalProbabilityPair(forward=1.0, backward=backward),
            )
        )

    def remove_element(self, element_id: str) -> list[str]:
        """Remove an element and every relation that ends on a removed element.

        Returns the removed ids: the element first, then the relations in the
        order they were reached, each relation's own incident relations after
        it, so no relation is left with a dangling end.  A surviving relation
        derived from a removed one loses its base, so none names a removed id.
        """
        if not self.has(element_id):
            raise LookupMissing(f"unknown element: {element_id}")
        removed = [element_id]
        listed = {element_id}
        for cur in removed:  # the list grows as it is walked
            for rel_id in self._incident.pop(cur, ()):
                if rel_id not in listed:
                    listed.add(rel_id)
                    removed.append(rel_id)
            if self._own_incident is not None:
                self._own_incident.discard(cur)
        for el_id in removed:
            del self._serial[el_id]
            self._touched.pop(el_id, None)
            self._ready_before.pop(el_id, None)
            if el_id in self.trees:
                self._trees_version = next(_TREE_VERSIONS)
            element = self.concepts.pop(el_id, None) or self.relations.pop(el_id)
            if self._own is not None:
                self._own.discard(el_id)
            if isinstance(element, Concept):
                continue
            rel = element
            for end in (rel.a, rel.b):
                if end not in listed:
                    _writable_entry(self._incident, self._own_incident, end, list).remove(el_id)
            if rel.kind is _XOR:
                for end in (rel.a, rel.b):
                    at_end = _writable_entry(self._xor_by_end, self._own_xor, end, dict)
                    del at_end[el_id]
                    if not at_end:
                        del self._xor_by_end[end]
            self._forget_base(rel)
            for derived in self.relations_based_on(el_id):
                if derived not in listed:
                    self.set_base(derived, None)
        self._generation += 1
        return removed

    def _reach_down(self, *element_ids: str) -> None:
        """Add each element's down-closure over edges to the XOR reach set.

        Every edge into a member adds its far end as it is added, so the set
        holds the down-closure of each member and the walk stops at them.
        """
        reach = self._xor_reach
        frontier = [e for e in element_ids if e not in reach]
        if not frontier:
            return
        if self._own_reach is not None:  # a layer shares the set: copy it in first
            reach = self._xor_reach = set(reach)
            self._own_reach = None
        reach.update(frontier)
        while frontier:
            for nxt in _down_neighbors(self, frontier.pop()):
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)

    def _forget_base(self, rel: Relation) -> None:
        if rel.base in self._derived:
            derived = _writable_entry(self._derived, self._own_derived, rel.base, dict)
            derived.pop(rel.id, None)
            if not derived:
                del self._derived[rel.base]

    def next_id(self, base: str) -> str:
        n = self.counters.get(base, 0) + 1
        self.counters[base] = n
        candidate = f"{base}#{n}"
        while self.has(candidate):
            n += 1
            self.counters[base] = n
            candidate = f"{base}#{n}"
        return candidate

    def layer(self, *, knowledge: bool = False) -> "CognitiveNetwork":
        """A copy that shares this network's elements and index entries until either side writes them.

        Only the tables are copied, each one level deep, and the tree
        instances in full; the elements with their states, the incident lists,
        the XOR and derived sets and the XOR reach set stay shared.  From now
        on both networks copy a shared element or entry in on their first
        write to it (see the class docstring), so the cost of a layer and of
        its writes follows what changes, not the size of the network.

        With ``knowledge``, every element of this network is the layer's
        knowledge (``element_set``) and ``instance_ids`` reads only what the
        layer adds: a fit task's network.  Otherwise the layer keeps this
        network's knowledge, as a fork of a task does.
        """
        clone = CognitiveNetwork.__new__(CognitiveNetwork)
        vars(clone).update(vars(self))
        vars(clone).update(
            concepts=dict(self.concepts),
            relations=dict(self.relations),
            trees=dict(self.trees),
            tree_instances=[inst.copy() for inst in self.tree_instances],
            counters=dict(self.counters),
            _incident=dict(self._incident),
            _serial=dict(self._serial),
            _xor_by_end=dict(self._xor_by_end),
            _derived=dict(self._derived),
            _touched=dict(self._touched),
            _ready_before=dict(self._ready_before),
        )
        for owned in self._OWNERSHIP:
            setattr(clone, owned, set())
            setattr(self, owned, set())  # what was this network's alone is shared now
        if knowledge:
            vars(clone).update(_knowledge=self.element_set(), _instance_mark=self._next_serial)
        return clone

    def copy(self) -> "CognitiveNetwork":
        """``copy.deepcopy(self)``: every element, state, index, tree view and tree instance is new.

        ``layer`` is the cheap copy; this one is the reference it is tested against.
        """
        return copy.deepcopy(self)

    def __deepcopy__(self, memo: dict) -> "CognitiveNetwork":
        # The indexes hold only ids and numbers, so one level of copying is a deep copy.
        clone = CognitiveNetwork.__new__(CognitiveNetwork)
        memo[id(self)] = clone
        fields: dict[str, object] = {}
        for name, value in vars(self).items():
            if name in ("_incident", "_xor_by_end", "_derived"):
                value = {key: inner.copy() for key, inner in value.items()}
            elif name in ("_serial", "_touched", "_ready_before", "_xor_reach"):
                value = value.copy()
            elif name in self._OWNERSHIP:
                value = None  # the copy holds every object it has alone
            elif name not in ("_knowledge", "_ids"):  # immutable, so shared
                value = copy.deepcopy(value, memo)
            fields[name] = value
        vars(clone).update(fields)
        return clone

    # -- validation --------------------------------------------------------

    def _check_conds(self, relation: Relation) -> None:
        _check_prob_spec(relation.cond.forward, f"relation {relation.id} pba")
        _check_prob_spec(relation.cond.backward, f"relation {relation.id} pab")
        fixed = _KIND_FIXED.get(relation.kind)
        if fixed is None:
            return
        fwd, bwd = fixed
        if fwd is not None and not isinstance(relation.cond.forward, Gaussian):
            if float(relation.cond.forward) != fwd:
                raise ParameterError(
                    f"relation {relation.id}: kind {relation.kind.value} fixes P(B|A)={fwd}"
                )
        if bwd is not None and not isinstance(relation.cond.backward, Gaussian):
            if float(relation.cond.backward) != bwd:
                raise ParameterError(
                    f"relation {relation.id}: kind {relation.kind.value} fixes P(A|B)={bwd}"
                )
        if relation.kind is _BELONG_TO and not isinstance(
            relation.cond.backward, Gaussian
        ):
            if not 0.0 < float(relation.cond.backward) <= 1.0:
                raise ParameterError(
                    f"relation {relation.id}: belong-to requires 0 < P(A|B) <= 1"
                )

    def _check_derived_overloading(self, relation: Relation) -> None:
        base = self.relations.get(relation.base or "")
        if base is None:
            raise LookupMissing(f"relation {relation.id}: unknown base relation {relation.base}")
        if base.kind is not relation.kind:
            raise KindError(
                f"relation {relation.id}: kind {relation.kind.value} does not match "
                f"base {base.id} kind {base.kind.value}"
            )
        # Overloaded parameter values must stay inside ranges the base declares.
        for name, spec in base.params.items():
            own = relation.params.get(name)
            if own is None or isinstance(own, (Gaussian, Interval)) or isinstance(own, str):
                continue
            if isinstance(spec, Interval) and not spec.contains_scalar(float(own)):
                raise ParameterError(
                    f"relation {relation.id}: parameter {name}={own} outside base range "
                    f"({spec.lo}, {spec.hi})"
                )

    def _would_cycle(self, derived: str, base: str) -> bool:
        # Adding derived -> base closes a cycle iff base already belongs to derived
        # through belong-to edges alone (equal 2-cycles stay legal).  Such a path
        # ends on an edge at derived, so a derived with no relation yet (a fresh
        # instance) closes none, however long base's incident list is.
        if not self._incident.get(derived):
            return False
        seen = {base}
        frontier = [base]
        while frontier:
            cur = frontier.pop()
            if cur == derived:
                return True
            for rel_id in self._incident.get(cur, ()):
                rel = self.relations[rel_id]
                if rel.kind is not _BELONG_TO or rel.a != cur:
                    continue
                if rel.b not in seen:
                    seen.add(rel.b)
                    frontier.append(rel.b)
        return False

    def validate(self) -> None:
        """Check every relation's ends and base, and classify every declared tree.

        A network that passed stays valid until its structure changes, so a
        second call in the same generation returns at once.
        """
        if self._valid_at == self._generation:
            return
        for rel in self.relations.values():
            if not self.has(rel.a) or not self.has(rel.b):
                raise LookupMissing(f"relation {rel.id} has a dangling endpoint")
            if rel.base is not None and rel.base not in self.relations:
                raise LookupMissing(f"relation {rel.id}: unknown base relation {rel.base}")
        for view in self.trees.values():
            classify_tree_network(self, view.root, restrict=set(view.element_ids()))
        self._valid_at = self._generation


# ---------------------------------------------------------------------------
# belong-to


def _as_value(net: Optional[CognitiveNetwork], term: Union[str, ValueTerm]) -> Optional[ValueTerm]:
    if isinstance(term, (float, int)) and not isinstance(term, bool):
        return float(term)
    if isinstance(term, Interval):
        return term
    if net is not None and isinstance(term, str):
        el = net.element(term)
        if isinstance(el, Concept):
            return el.value
    return None


def lineage(net: CognitiveNetwork, rel_id: str) -> list[str]:
    """Base chain of a relation, from itself up to the basic relation."""
    chain = [rel_id]
    seen = {rel_id}
    cur = net.relations.get(rel_id)
    while cur is not None and cur.base is not None and cur.base not in seen:
        chain.append(cur.base)
        seen.add(cur.base)
        cur = net.relations.get(cur.base)
    return chain


def belongs_to(
    net: Optional[CognitiveNetwork],
    candidate: Union[str, ValueTerm],
    base: Union[str, ValueTerm],
) -> bool:
    """Reflexive-transitive belong-to over edges, base chains and value containment."""
    if isinstance(candidate, str) and isinstance(base, str):
        if net is None:
            raise LookupMissing("cannot resolve element ids without a network")
        if candidate == base:
            net.element(candidate)  # raise on unresolved ids even in the trivial case
            return True
        net.element(base)
        seen = {candidate}
        frontier = [candidate]
        while frontier:
            cur = frontier.pop()
            if cur == base:
                return True
            for nxt in _up_neighbors(net, cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        # fall through to value containment between the two payloads
        cval = _as_value(net, candidate)
        bval = _as_value(net, base)
        if cval is not None and bval is not None:
            return value_contained(cval, bval)
        return False

    cval = _as_value(net, candidate)
    bval = _as_value(net, base)
    if cval is None or bval is None:
        return False
    return value_contained(cval, bval)


def up_closure(net: CognitiveNetwork, element_id: str) -> dict[str, None]:
    """The element and every element it reaches over base, belong-to and equal edges.

    Keys come breadth-first, nearest first: the element, then its base, then
    the far ends of its belong-to and equal edges in incidence order, and so on.
    """
    relations, incident = net.relations, net.incident_view
    seen = {element_id: None}
    order = [element_id]
    for cur in order:  # the list grows as it is walked
        rel = relations.get(cur)
        if rel is not None and rel.base is not None and rel.base not in seen:
            seen[rel.base] = None
            order.append(rel.base)
        for rel_id in incident(cur):  # ``_up_neighbors``, inlined
            edge = relations[rel_id]
            if edge.kind is _BELONG_TO:
                if edge.a != cur:
                    continue
                nxt = edge.b
            elif edge.kind is _EQUAL:
                nxt = edge.other_end(cur)
            else:
                continue
            if nxt not in seen:
                seen[nxt] = None
                order.append(nxt)
    return seen


def down_closure(net: CognitiveNetwork, element_id: str) -> set[str]:
    """Every element that belongs to ``element_id``, itself included.

    The converse of ``belongs_to`` on element ids: the edges of
    ``up_closure`` walked backwards, plus the concepts whose value lies in
    the element's value.
    """
    seen = {element_id}
    frontier = [element_id]
    while frontier:
        for nxt in _down_neighbors(net, frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    value = _as_value(net, element_id)
    if value is not None:
        for concept in net.concepts.values():
            if concept.value is not None and value_contained(concept.value, value):
                seen.add(concept.id)
    return seen


def _down_neighbors(net: CognitiveNetwork, element_id: str) -> Iterator[str]:
    """The elements whose ``_up_neighbors`` include ``element_id``.

    Both walks read the store's incident lists in place, so nothing may change
    the network while they run.
    """
    yield from net.relations_based_on(element_id)
    for rel_id in net.incident_view(element_id):
        edge = net.relations[rel_id]
        if edge.kind is _BELONG_TO and edge.b == element_id:
            yield edge.a
        elif edge.kind is _EQUAL:
            yield edge.other_end(element_id)


def _up_neighbors(net: CognitiveNetwork, element_id: str) -> Iterator[str]:
    rel = net.relations.get(element_id)
    if rel is not None and rel.base is not None:
        yield rel.base
    for rel_id in net.incident_view(element_id):
        edge = net.relations[rel_id]
        if edge.kind is _BELONG_TO and edge.a == element_id:
            yield edge.b
        elif edge.kind is _EQUAL:
            yield edge.other_end(element_id)


def kind_compatible(net: CognitiveNetwork, instance_rel_id: str, base_rel_id: str) -> bool:
    """Lineage-ancestor test: same basic kind, honoring explicit base chains."""
    inst = net.relations.get(instance_rel_id)
    base = net.relations.get(base_rel_id)
    if inst is None or base is None:
        return False
    if base_rel_id in lineage(net, instance_rel_id):
        return True
    return inst.kind is base.kind


def relation_subsumes(net: CognitiveNetwork, derived_id: str, base_id: str) -> bool:
    """Implicit relation-level belong-to: lineage, or same kind with contained params."""
    derived = net.relations.get(derived_id)
    base = net.relations.get(base_id)
    if derived is None or base is None:
        return False
    if base_id in lineage(net, derived_id):
        return True
    if derived.kind is not base.kind:
        return False
    for name, spec in base.params.items():
        own = derived.params.get(name)
        if own is None:
            continue
        if isinstance(spec, Gaussian):
            continue
        if isinstance(spec, Interval):
            if isinstance(own, Interval):
                if not spec.contains_interval(own):
                    return False
            elif isinstance(own, (int, float)) and not spec.contains_scalar(float(own)):
                return False
        elif isinstance(spec, (int, float)) and isinstance(own, (int, float)):
            if float(own) != float(spec):
                return False
        elif isinstance(spec, str) and own != spec:
            return False
    return True


def fits(net: CognitiveNetwork, instance: str, base: str) -> bool:
    """Instance-of: ``instance`` belongs to ``base``, or as a relation is subsumed by it."""
    return relation_subsumes(net, instance, base) or belongs_to(net, instance, base)


# ---------------------------------------------------------------------------
# tree networks


def declare_tree(net: CognitiveNetwork, root: str, members: Iterable[str]) -> None:
    """Record the tree over ``root``, ``members`` and every non-XOR relation among them.

    A relation joins when both its ends are already in the scope, so one that
    ends on a joined relation joins too.  The walk reads only the incident
    lists of the scope's elements, so a declaration costs its tree, not the
    network.  This is what a ``tree`` statement declares; raises
    StructureError when the scope is no tree.
    """
    scope = {root, *members}
    worklist = [root, *members]
    for cur in worklist:  # a joined relation is appended, so the walk reaches what ends on it
        for rel_id in net.incident_view(cur):
            if rel_id not in scope:
                rel = net.relations[rel_id]
                if rel.a in scope and rel.b in scope and rel.kind is not _XOR:
                    scope.add(rel_id)
                    worklist.append(rel_id)
    net.set_tree(classify_tree_network(net, root, restrict=scope))


def classify_tree_network(
    net: CognitiveNetwork,
    root: str,
    restrict: Optional[set[str]] = None,
) -> TreeNetworkView:
    """Split a subnetwork's relations into longitudinal chains from the root and the rest.

    ``restrict`` limits the view to the given element ids; by default the whole
    connected component around ``root`` is classified.  Raises StructureError
    when an element has no longitudinal path defining its membership.

    Both walks read the incident lists of the view's elements once each, and
    every membership test is a set lookup, so the cost is linear in the tree.
    """
    root_el = net.element(root)
    members = _component(net, root, restrict)
    member_set = set(members)

    tops: set[str] = set()
    if isinstance(root_el, Relation):
        tops.update(e for e in (root_el.a, root_el.b) if e in member_set)
    else:
        tops.add(root)

    longitudinal: list[str] = []
    longitudinal_set: set[str] = set()
    covered: set[str] = set(tops)
    frontier = list(tops)
    for cur in frontier:  # breadth first: the list grows as it is walked
        for rel_id in net.incident_view(cur):
            if rel_id not in member_set or rel_id in longitudinal_set:
                continue
            rel = net.relations[rel_id]
            if not is_longitudinal(rel.kind) or rel.a != cur:
                continue
            longitudinal.append(rel_id)
            longitudinal_set.add(rel_id)
            if rel.b not in covered:
                covered.add(rel.b)
                frontier.append(rel.b)

    additional: list[str] = []
    for el_id in members:
        if el_id in net.relations and el_id not in longitudinal_set and el_id != root:
            additional.append(el_id)

    concepts = [e for e in members if e in net.concepts]
    for cid in concepts:
        if cid not in covered:
            raise StructureError(
                f"tree rooted at {root}: no longitudinal path defines membership of {cid}"
            )
    for rel_id in additional:
        rel = net.relations[rel_id]
        for end in (rel.a, rel.b):
            if end in member_set and end in net.concepts and end not in covered:
                raise StructureError(
                    f"tree rooted at {root}: additional relation {rel_id} hangs on "
                    f"uncovered element {end}"
                )

    ordered = dict.fromkeys([root] if root in net.concepts else [])  # a set that keeps insertion order
    for rel_id in longitudinal:
        rel = net.relations[rel_id]
        for end in (rel.a, rel.b):
            if end in net.concepts:
                ordered[end] = None
    ordered.update(dict.fromkeys(concepts))

    return TreeNetworkView(
        root=root,
        longitudinal=longitudinal,
        additional=sorted(additional),
        concepts=list(ordered),
    )


def _component(net: CognitiveNetwork, root: str, restrict: Optional[set[str]]) -> list[str]:
    allowed = restrict
    members: list[str] = []
    seen: set[str] = set()
    frontier = [root]
    for cur in frontier:  # breadth first: the list grows as it is walked
        if cur in seen:
            continue
        seen.add(cur)
        members.append(cur)
        neighbors: list[str] = []
        if cur in net.relations:
            rel = net.relations[cur]
            neighbors.extend((rel.a, rel.b))
        neighbors.extend(net.incident_view(cur))
        for nxt in neighbors:
            if nxt in seen:
                continue
            if allowed is not None and nxt not in allowed:
                continue
            frontier.append(nxt)
    if allowed is not None:
        missing = [e for e in allowed if e not in seen and net.has(e)]
        if missing:
            raise StructureError(
                f"tree rooted at {root}: disconnected elements {sorted(missing)}"
            )
    return members


# ---------------------------------------------------------------------------
# pattern matching


_SYMMETRIC_KINDS = (RelationKind.EQUAL, RelationKind.XOR)


class PatternRelation(Protocol):
    """A pattern relation: a base ``Relation`` or a query ``TemplateRelation``."""

    id: str
    kind: RelationKind
    a: str
    b: str


def match_pattern(
    net: CognitiveNetwork,
    nodes: Sequence[tuple[str, Iterable[str]]],
    node_ok: Callable[[str, str], bool],
    relations: Sequence[PatternRelation],
    relation_pool: Sequence[str],
    relation_ok: Callable[[PatternRelation, Relation], bool],
    *,
    partial: bool = False,
) -> Iterator[dict[str, str]]:
    """Every topology-preserving mapping of a pattern into ``net``, yielded in search order.

    ``nodes`` pairs each pattern node with its candidate images and is placed
    first, in the given order; the relations follow.  A relation's images join
    its ends' images and come from the relations incident to a placed end's
    image, in ``relation_pool`` order (a relation with no end in the pattern
    scans the whole pool).  They are taken once, when its last pattern end is
    placed, and a branch that leaves it none is cut there.  The open steps sit
    on an explicit stack, not in recursion, so no pattern size meets the
    recursion limit.  The first mapping is the smallest in placement order and
    pool order.

    By default the mapping is total and injective, each relation is placed
    after the relations it ends on, and a symmetric kind (EQUAL, XOR) may join
    its ends' images either way round; only this mode flips.  ``partial`` is
    the fit's mode:

    * a node may stay unplaced (tried first) and is then absent from the
      mapping;
    * relations keep the given order; one is placed exactly when both its
      ends are pattern elements placed before its turn, and its image joins
      them as written;
    * there is no used set, so pattern elements may share an image.
    """
    ordered = relations if partial else _endpoint_first(relations)
    first_relation = len(nodes)
    keys = [node for node, _ in nodes] + [rel.id for rel in ordered]
    step_of = {key: i for i, key in enumerate(keys)}
    rank = {rel_id: i for i, rel_id in enumerate(relation_pool)}
    flips = () if partial else _SYMMETRIC_KINDS
    triggers: list[list[PatternRelation]] = [[] for _ in keys]  # per step: the relations it completes
    gates: list[Optional[tuple[str, str]]] = []  # per relation: the ends it waits for
    for step, rel in enumerate(ordered, first_relation):
        ends = [step_of[end] for end in (rel.a, rel.b) if end in step_of]
        if ends and not (partial and (len(ends) < 2 or max(ends) > step)):
            triggers[max(ends)].append(rel)
            gates.append((rel.a, rel.b))
        else:
            gates.append(None)  # partial: never placed; total: its images scan the whole pool
    assignment: dict[str, str] = {}
    used: set[str] = set()  # stays empty when partial
    found: dict[str, list[str]] = {}  # relation -> its images, taken when its last end was placed

    def images(rel: PatternRelation) -> list[str]:
        """Unused pool relations joining ``rel``'s ends' images that pass ``relation_ok``, in pool order."""
        im_a, im_b = assignment.get(rel.a), assignment.get(rel.b)
        anchor = im_a if im_a is not None else im_b
        flip = rel.kind in flips
        joining = []
        for rel_id in rank if anchor is None else net.incident_view(anchor):
            if rel_id in rank and rel_id not in used:
                image = net.relations[rel_id]
                if (im_a is None or im_a == image.a) and (im_b is None or im_b == image.b) or flip and (
                    (im_b is None or im_b == image.a) and (im_a is None or im_a == image.b)
                ):
                    joining.append(image)
        joining.sort(key=lambda image: rank[image.id])
        return [image.id for image in joining if relation_ok(rel, image)]

    stack: list[tuple[int, Optional[str], Iterator[Optional[str]]]] = []  # the open steps below the top
    top, key, tried = -1, None, iter(())  # the open step and its options to try; None leaves it unplaced
    step, last = 0, len(keys)  # the step to open next, and the step past the last
    while True:
        while partial and first_relation <= step < last:  # skip the relations left unplaced
            gate = gates[step - first_relation]
            if gate is not None and gate[0] in assignment and gate[1] in assignment:
                break
            step += 1
        if step == last:
            yield dict(assignment)
        else:
            stack.append((top, key, tried))
            top, key = step, keys[step]
            if step < first_relation:
                node, pool = nodes[step]
                ok = functools.partial(node_ok, node)
                if partial:
                    tried = itertools.chain((None,), filter(ok, pool))
                else:
                    tried = filter(ok, itertools.filterfalse(used.__contains__, pool))
            elif gates[step - first_relation] is None:  # no pattern end: its images scan the whole pool
                tried = iter(images(ordered[step - first_relation]))
            else:
                tried = itertools.filterfalse(used.__contains__, found[key])
        while True:  # the top step's next option; a step out of options hands back to the one below
            for image in tried:
                used.discard(assignment.pop(key, None))
                if image is None:  # left unplaced
                    break
                assignment[key] = image
                if not partial:
                    used.add(image)
                for rel in triggers[top]:  # forward checking
                    if not partial or rel.a in assignment and rel.b in assignment:
                        found[rel.id] = images(rel)
                        if not found[rel.id]:
                            break
                else:
                    break  # every relation it completes keeps an image
            else:  # out of options
                used.discard(assignment.pop(key, None))
                if not stack:
                    return
                top, key, tried = stack.pop()
                continue
            break
        step = top + 1


def _endpoint_first(relations: Sequence[PatternRelation]) -> list[PatternRelation]:
    """Pattern relations in the given order, except that each follows those it ends on."""
    pending = list(relations)
    rel_ids = {rel.id for rel in pending}
    ordered: list[PatternRelation] = []
    placed: set[str] = set()
    while pending:
        for rel in pending:
            if all(end not in rel_ids or end in placed for end in (rel.a, rel.b)):
                break
        else:
            raise StructureError(
                f"pattern relations end on each other in a cycle: {sorted(r.id for r in pending)}"
            )
        pending.remove(rel)
        ordered.append(rel)
        placed.add(rel.id)
    return ordered


def check_derived_network(
    net: CognitiveNetwork,
    derived_ids: Iterable[str],
    base_ids: Iterable[str],
    wildcards: frozenset[str] = frozenset(),
) -> Optional[DerivedMapping]:
    """Search for an injective, topology-preserving, belong-to-respecting mapping.

    Every base element must receive an image among ``derived_ids``; extra
    derived elements are allowed.  ``wildcards`` names base elements whose
    belong-to requirement is waived (query variables).  Base concepts are
    placed in id order, then base relations in id order, each after the base
    relations it ends on; the first mapping in ``derived_ids`` order wins.
    """
    derived_pool = list(dict.fromkeys(derived_ids))
    base_pool = list(dict.fromkeys(base_ids))
    for missing in (b for b in base_pool if not net.has(b)):
        raise LookupMissing(f"unknown base element: {missing}")
    derived_concepts = [d for d in derived_pool if d in net.concepts]
    nodes = [(b, derived_concepts) for b in sorted(b for b in base_pool if b in net.concepts)]
    base_relations = [net.relations[b] for b in sorted(b for b in base_pool if b in net.relations)]

    def concept_ok(b: str, d: str) -> bool:
        return b in wildcards or belongs_to(net, d, b)

    def relation_ok(base: PatternRelation, image: Relation) -> bool:
        if not kind_compatible(net, image.id, base.id):
            return False
        return base.id in wildcards or fits(net, image.id, base.id)

    search = match_pattern(
        net,
        nodes,
        concept_ok,
        base_relations,
        [d for d in derived_pool if d in net.relations],
        relation_ok,
    )
    found = next(search, None)
    return None if found is None else DerivedMapping(found)


def element_count(net: CognitiveNetwork) -> int:
    """Total number of concepts and relations."""
    return net.element_count()
