"""Fraisse limits: stage-wise limit building, transcripts, and verifiers.

The classes, their amalgamators and v-formations come from ``classes``.
The limit builder grows a substructure chain by satisfying embedding
extension tasks through the class's amalgamator, recording a replayable
transcript.  The verifiers measure finite stages against the bounded
extension property and the random-graph witness property, reporting
defects instead of failing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb

from .algebra import Chain
from .classes import VFormation, align_v_formation, enumerate_class, get_class, k1_member
from .errors import AmalgamationError, BudgetError, ChainTableError, FileFormatError
from .logic import SIG_LT
from .structure import (
    GradedStructure,
    _trusted,
    canonical_form,
    find_embeddings,
    id_supply,
    structure_from_text,
    structure_to_text,
    substructures,
)

__all__ = [
    "Transcript",
    "build_limit",
    "replay_transcript",
    "check_extension_property",
    "random_weighted_graph",
    "check_random_graph_property",
]


# --- stage-wise limit construction ---


@dataclass
class Event:
    stage: int
    base_ids: tuple[str, ...]
    arm_text: str


_TRANSCRIPT_FIELDS = {"class": str, "chain": dict, "budget": int, "stages": int,
                      "shuffle_seed": (int, type(None)), "initial": str, "events": list}
_CHAIN_FIELDS = {"name": str, "size": int, "one": int, "zero": int, "conj": list}
_EVENT_FIELDS = {"stage": int, "base": list, "arm": str}


def _json_fields(obj, fields: dict, what: str) -> dict:
    """``obj``, checked to be a JSON object holding every key of ``fields``
    with a value of the type given there (never a bool)."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} is not a JSON object")
    for key, kind in fields.items():
        if key not in obj:
            raise FileFormatError(f"{what} has no {key!r} field")
        if isinstance(obj[key], bool) or not isinstance(obj[key], kind):
            raise FileFormatError(f"{what} field {key!r} has the wrong type")
    return obj


@dataclass
class Transcript:
    """Replayable record of one limit build."""

    class_name: str
    chain: Chain
    budget: int
    stages: int
    shuffle_seed: int | None
    initial_text: str
    events: list[Event] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "class": self.class_name,
            "chain": {
                "name": self.chain.name,
                "size": self.chain.size,
                "one": self.chain.one,
                "zero": self.chain.zero,
                "conj": [list(row) for row in self.chain.conj_table],
            },
            "budget": self.budget,
            "stages": self.stages,
            "shuffle_seed": self.shuffle_seed,
            "initial": self.initial_text,
            "events": [
                {"stage": e.stage, "base": list(e.base_ids), "arm": e.arm_text}
                for e in self.events
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Transcript":
        """Parse ``to_json`` output; a missing key, a value of the wrong
        type, a negative ``stages`` or ``budget``, an event outside the
        recorded stages, or a chain that ``Chain`` rejects, such as one of
        more than ``algebra.MAX_RANKS`` ranks, raises ``FileFormatError``."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FileFormatError(str(exc)) from None
        payload = _json_fields(payload, _TRANSCRIPT_FIELDS, "transcript")
        cdata = _json_fields(payload["chain"], _CHAIN_FIELDS, "transcript chain")
        if not all(isinstance(row, list) for row in cdata["conj"]):
            raise FileFormatError("transcript chain field 'conj' is not a list of rows")
        for key in ("stages", "budget"):
            if payload[key] < 0:
                raise FileFormatError(f"transcript field {key!r} is negative")
        for i, e in enumerate(payload["events"]):
            _json_fields(e, _EVENT_FIELDS, f"transcript event {i}")
            if not all(isinstance(b, str) for b in e["base"]):
                raise FileFormatError(f"transcript event {i} field 'base' is not a list of ids")
            if not 0 <= e["stage"] < payload["stages"]:
                raise FileFormatError(f"transcript event {i} stage {e['stage']} is outside "
                                      f"0..{payload['stages'] - 1}")
        try:
            chain = Chain(cdata["size"], cdata["conj"], one=cdata["one"], zero=cdata["zero"],
                          name=cdata["name"])
        except (ValueError, ChainTableError) as exc:
            raise FileFormatError(str(exc)) from None
        return Transcript(
            class_name=payload["class"],
            chain=chain,
            budget=payload["budget"],
            stages=payload["stages"],
            shuffle_seed=payload["shuffle_seed"],
            initial_text=payload["initial"],
            events=[
                Event(e["stage"], tuple(e["base"]), e["arm"])
                for e in payload["events"]
            ],
        )


def _extension_pairs(spec, chain, size_budget, shuffle_seed):
    """Members and the (proper substructure, member) demand pairs, in order."""
    members = enumerate_class(spec, chain, size_budget)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(members)
    pairs = [(n, nprime) for nprime in members for _, n in substructures(nprime)
             if spec.membership(n)]
    return members, pairs


def build_limit(spec, chain: Chain, stages: int, size_budget: int,
                shuffle_seed: int | None = None):
    """Grow a substructure chain satisfying all bounded extension tasks.

    Stage i enumerates every embedding of a member into the current
    structure together with every member extension of its source, then
    satisfies each unsatisfied task by one amalgamation; every task seen
    at stage i is realized in stage i+1.  Deterministic given the
    member enumeration order (permutable via ``shuffle_seed``).  The
    first stage is an enumerated member and every later one an amalgam,
    so the current stage, the first arm of each amalgamation, is a
    member, as the amalgamator's check through the new elements needs.

    Returns (stage structures, transcript).
    """
    if stages < 0:
        raise ValueError("stages must be non-negative")
    if size_budget < 0:
        raise ValueError("budget must be non-negative")
    if spec.amalgamate is None:
        raise ValueError(f"class {spec.name} has no amalgamator")
    members, pairs = _extension_pairs(spec, chain, size_budget, shuffle_seed)
    if not members:
        raise ValueError(f"class {spec.name} has no members within the budget")
    current = members[0]
    transcript = Transcript(
        class_name=spec.name,
        chain=chain,
        budget=size_budget,
        stages=stages,
        shuffle_seed=shuffle_seed,
        initial_text=structure_to_text(current),
    )
    stage_list = [current]
    # One supply of fresh ids for the whole build.  It passes over an id
    # only when the stage or the arm holds it, and an arm, an enumerated
    # member, holds only x-ids; so every n-id it has passed over is in
    # the stage for good, and each event gets the ids a walk from n0
    # would give.
    ids = id_supply("n")
    for stage in range(stages):
        tasks = [
            (f, n, nprime)
            for n, nprime in pairs
            for f in find_embeddings(n, current)
        ]
        for pos, (mapping, n, nprime) in enumerate(tasks):
            if find_embeddings(nprime, current, fixed=mapping, limit=1):
                continue
            v = align_v_formation(current, nprime, {b: a for a, b in mapping.items()}, ids)
            try:
                current = spec.amalgamate(v)
            except AmalgamationError as exc:
                raise AmalgamationError(
                    f"stage {stage}: {exc} ({len(tasks) - pos - 1} tasks pending)"
                ) from exc
            base_ids = tuple(v.arm1.universe[p] for p, _ in v.shared)
            transcript.events.append(Event(stage, base_ids, structure_to_text(v.arm2)))
            if not find_embeddings(nprime, current, fixed=mapping, limit=1):
                raise AmalgamationError(f"stage {stage}: amalgam did not satisfy its task")
        stage_list.append(current)
    return stage_list, transcript


def replay_transcript(transcript: Transcript):
    """Re-run the recorded amalgamation sequence; returns the stages.

    The initial structure is checked here with the full membership
    predicate.  Every later stage is an amalgam of the current stage
    with an arm read from the transcript: the amalgamator checks it
    through the arm's new elements, raising ``AmalgamationError`` when
    that fails, and the rest lies inside the stage, so every stage is a
    member.  An event whose ``base`` ids are not exactly the ids its arm
    shares with the current stage, or whose arm adds no element to it,
    raises ``FileFormatError``: ``build_limit`` writes an event only for
    a task whose member extension has elements the stage lacks.  So does
    an arm that disagrees with the stage on the elements they share,
    which the ``VFormation`` constructor checks, and an arm or initial
    structure whose header names another chain than the transcript's.
    """
    spec = get_class(transcript.class_name)
    chain = transcript.chain
    current = structure_from_text(transcript.initial_text, chain=chain)
    if not spec.membership(current):
        raise FileFormatError(f"transcript initial structure is not a member of {spec.name}")
    stage_list = [current]
    events = list(transcript.events)
    for stage in range(transcript.stages):
        for event in (e for e in events if e.stage == stage):
            arm = structure_from_text(event.arm_text, chain=chain)
            try:
                v = VFormation(current, arm)
            except ValueError as exc:  # another signature, or disagreement on the base
                raise FileFormatError(f"transcript event at stage {stage}: {exc}") from None
            if {current.universe[p] for p, _ in v.shared} != set(event.base_ids):
                raise FileFormatError(f"transcript event at stage {stage}: its base ids are "
                                      "not the ids its arm shares with the stage")
            if len(v.shared) == len(arm.universe):
                raise FileFormatError(f"transcript event at stage {stage}: its arm adds no "
                                      "element to the stage")
            current = spec.amalgamate(v)
        stage_list.append(current)
    return stage_list


# --- verifiers ---


@dataclass(frozen=True)
class ExtensionDefect:
    n_form: bytes
    nprime_form: bytes
    mapping: tuple

    def render(self) -> str:
        nd = hashlib.sha256(self.n_form).hexdigest()[:12]
        pd = hashlib.sha256(self.nprime_form).hexdigest()[:12]
        pairs = " ".join(f"{a}->{b}" for a, b in self.mapping)
        return f"extension defect: {nd} into {pd} at {pairs}"


def check_extension_property(m: GradedStructure, spec, k: int) -> list[ExtensionDefect]:
    """Embeddings of members into m that fail to extend to some member
    extension, for members of at most ``k`` elements, the size budget;
    a negative one raises ``ValueError``."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    _, pairs = _extension_pairs(spec, m.chain, k, None)
    defects = []
    for n, nprime in pairs:
        forms = None  # the pair's canonical forms, computed at its first defect
        for f in find_embeddings(n, m):
            if not find_embeddings(nprime, m, fixed=f, limit=1):
                forms = forms or (canonical_form(n), canonical_form(nprime))
                defects.append(ExtensionDefect(*forms, tuple(sorted(f.items()))))
    return defects


# --- the random weighted graph ---


_RANDGRAPH_CAP = 10**6


def random_weighted_graph(chain: Chain, rounds: int) -> GradedStructure:
    """Deterministic witness construction for the weighted-graph limit.

    Starts from one vertex; round r adds, for every nonempty subset X
    of the existing vertices with |X| <= r and every map from X to the
    chain, one fresh vertex matching that map symmetrically and sitting
    at bottom against everything else.  Vertex ids carry their round:
    ``v0``, then ``r1w0``, ``r2w0``, and so on.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if chain.one == chain.bot:
        raise ValueError("filter contains bottom, so no loopless structures exist")
    bot = chain.bot
    vertices = ["v0"]
    # profiles[k]: the values of vertex k against earlier vertices, by position.
    profiles: list[dict[int, int]] = [{}]
    for r in range(1, rounds + 1):
        existing = len(vertices)
        total = sum(
            comb(existing, s) * chain.size ** s
            for s in range(1, min(r, existing) + 1)
        )
        if total > _RANDGRAPH_CAP:
            raise BudgetError(
                f"round {r} would add {total} vertices, over the cap of {_RANDGRAPH_CAP}"
            )
        counter = 0
        for s in range(1, min(r, existing) + 1):
            for X in itertools.combinations(range(existing), s):
                for fv in itertools.product(range(chain.size), repeat=s):
                    vertices.append(f"r{r}w{counter}")
                    profiles.append(dict(zip(X, fv)))
                    counter += 1
    n = len(vertices)
    table = bytes(profiles[max(i, j)].get(min(i, j), bot) for i in range(n) for j in range(n))
    return _trusted(chain, SIG_LT, tuple(vertices), (table,), "randgraph")


@dataclass(frozen=True)
class WitnessDefect:
    subset: tuple[str, ...]
    wanted: tuple[int, ...]

    def render(self) -> str:
        if not self.subset:
            return "witness defect: no vertex outside the empty set"
        pairs = " ".join(f"{a}:{v}" for a, v in zip(self.subset, self.wanted))
        return f"witness defect: no vertex matching {pairs}"


def _cut(line, gaps):
    """The places of ``line`` inside the (start, stop) ``gaps``, in order."""
    cut = line[:0]
    for lo, hi in gaps:
        cut += line[lo:hi]
    return cut


def check_random_graph_property(m: GradedStructure, max_x: int) -> list[WitnessDefect]:
    """Subset-map demands with no matching witness vertex.

    For every subset X of the universe with at most ``max_x`` elements
    and every map from X to the chain, checks that some vertex outside X
    matches the map symmetrically.  Defects come by size of X, then X in
    universe order, then the map in ``itertools.product`` order.

    A member is symmetric, so the row of a in X holds a's value against
    every vertex; the check reads those rows with X's own places cut out.
    On a chain of k ranks, when X's k ** s maps fit in a byte
    (k ** s <= 256), each vertex's values against a_0, ..., a_(s-1) are
    coded as the base-k numeral of one byte: the code line is
    ``sum(int(row(a_i)) * k ** (s - 1 - i))``, computed as big ints, with
    no lane carrying since every code is below k ** s.  The witnesses
    met are the set of the line's bytes outside X, and a map's code is
    its own numeral, so codes in increasing order are the maps in
    ``itertools.product`` order.  For larger k ** s the witnesses' value
    tuples are ``set(zip(*cols))`` of the cut rows.  Either way a subset
    costs a few passes in C, with the same defects as a loop over every
    vertex outside X.
    """
    if max_x < 0:
        raise ValueError("max_x must be non-negative")
    if not k1_member(m):
        raise ValueError("structure is not a weighted graph (loopless symmetric)")
    k = m.chain.size
    n = len(m.universe)
    total = sum(comb(n, s) * k ** s for s in range(max_x + 1))
    if total > _RANDGRAPH_CAP:
        raise BudgetError(f"{total} demands exceed the cap of {_RANDGRAPH_CAP}")
    lt = m.pred_tables[0]
    rows = [lt[w * n:(w + 1) * n] for w in range(n)]
    # Each row as one int, for the subsets whose maps fit in a byte.
    codes = [int.from_bytes(row, "big") for row in rows]
    defects = []
    for s in range(max_x + 1):
        demands = k ** s
        lanes = demands <= 256
        for xs in itertools.combinations(range(n), s):
            gaps = list(zip((0, *[x + 1 for x in xs]), (*xs, n)))  # the places outside X
            if lanes:
                # The empty X codes every vertex as 0, and a member is
                # nonempty, so some vertex outside it is met.
                code = 0
                for a in xs:
                    code = code * k + codes[a]
                met = set(_cut(code.to_bytes(n, "big"), gaps))
            else:
                met = set(zip(*(_cut(rows[a], gaps) for a in xs)))
            if len(met) == demands:
                continue
            X = tuple(m.universe[a] for a in xs)
            for numeral, fv in enumerate(itertools.product(range(k), repeat=s)):
                if (numeral if lanes else fv) not in met:
                    defects.append(WitnessDefect(X, fv))
    return defects
