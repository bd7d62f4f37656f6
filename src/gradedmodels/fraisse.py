"""Amalgamation constructions, stage-wise limit building, and verifiers.

A v-formation is two structures; its base is the set of ids they share,
on which they must agree.  Every built-in class amalgamates through one
core: the union of the arm universes, built row by row, with each cross
pair set by the class's closed-form rule.  The core checks the second
arm with the class's membership predicate and the amalgam with the
class's cell check from ``classes``, run over the cross cells only.
That is exact only when the first arm is a member, so every
``amalgamate_k*`` takes a member as its first arm; they are reached
through ``get_class(name).amalgamate``.  Either failure raises
``AmalgamationError``.  Joint extension is the amalgam over the empty
base.  The exhaustive ``search_amalgam`` tries only disjoint amalgams;
it serves classes without a construction and the tests as an oracle.
The limit builder grows a substructure chain by satisfying embedding
extension tasks through amalgamation, recording a replayable
transcript.  The verifiers measure finite stages against the
bounded extension property and the random-graph witness property,
reporting defects instead of failing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb

from .algebra import Chain
from .classes import (
    _k0_cells_ok,
    _k1_cells_ok,
    _k2_cells_ok,
    _k3_cells_ok,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
)
from .errors import AmalgamationError, BudgetError, ChainTableError, FileFormatError
from .logic import SIG_LT
from .structure import (
    GradedStructure,
    _pull,
    _require_compatible,
    canonical_form,
    find_embeddings,
    fresh_names,
    is_substructure,
    rename,
    restrict,
    structure_from_text,
    structure_to_text,
)

__all__ = [
    "VFormation",
    "align_v_formation",
    "verify_amalgam",
    "search_amalgam",
    "Transcript",
    "build_limit",
    "replay_transcript",
    "check_extension_property",
    "random_weighted_graph",
    "check_random_graph_property",
]


@dataclass(frozen=True)
class VFormation:
    """Two arms over a shared base: the elements whose ids both arms hold.

    The arms must be on one chain and signature and agree on every tuple
    of shared elements, or the constructor raises ``ValueError``; use
    ``align_v_formation`` to rename an arbitrary second arm into shape.
    ``shared`` lists the (position in arm1, position in arm2) pair of
    each shared element, in arm1's order.
    """

    arm1: GradedStructure
    arm2: GradedStructure
    shared: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arm1, arm2 = self.arm1, self.arm2
        _require_compatible(arm1, arm2)
        where = arm2.positions
        shared = tuple((p, where[e]) for p, e in enumerate(arm1.universe) if e in where)
        pos1, pos2 = [p for p, _ in shared], [q for _, q in shared]
        n1, n2 = len(arm1.universe), len(arm2.universe)
        for (_, arity), t1, t2 in zip(arm1.signature.predicates, arm1.pred_tables, arm2.pred_tables):
            if _pull(t1, pos1, n1, arity) != _pull(t2, pos2, n2, arity):
                raise ValueError("the arms disagree on their shared elements")
        object.__setattr__(self, "shared", shared)


def align_v_formation(arm1: GradedStructure, arm2: GradedStructure, embedding: dict) -> VFormation:
    """Build a v-formation from an embedding of a base of arm1 into arm2.

    ``embedding`` maps ids of arm1 to ids of arm2.  arm2 is renamed so the
    embedding image carries the base's ids and everything else is fresh
    relative to arm1.
    """
    inverse = {y: b for b, y in embedding.items()}
    taken = set(arm1.universe) | set(arm2.universe)
    rest = [e for e in arm2.universe if e not in inverse]
    news = fresh_names("n", len(rest), taken)
    mapping = dict(inverse)
    mapping.update(zip(rest, news))
    return VFormation(arm1, rename(arm2, mapping))


def verify_amalgam(spec, v: VFormation, witness: GradedStructure) -> bool:
    return (
        spec.membership(witness)
        and is_substructure(v.arm1, witness)
        and is_substructure(v.arm2, witness)
    )


def _amalgam_frame(v: VFormation):
    """Union universe, the arms' new elements, and a builder of the union table.

    The union lists the first arm, then the second arm's new elements.
    ``new1`` holds the positions of the first arm's new elements, which
    keep them in the union, and ``ext2`` those of the second arm's, in
    the second arm; ext2[j] sits at union position len(arm1) + j.  The
    cross pairs are (x, y) for x in new1 and y in ext2, listed x-major.
    ``assemble(forward, backward)`` returns the union table given the
    values of (x, y) and of (y, x) for every cross pair, in that order.
    It builds the table by rows: a first-arm row is a slice of the first
    arm's table followed by its cells against the second arm's new
    elements, which are cross values for a new element and second-arm
    values for a base element; a row of a new second-arm element has
    cross values against the first arm's new elements and second-arm
    values everywhere else.
    """
    arm1, arm2 = v.arm1, v.arm2
    if arm1.signature != SIG_LT:
        raise ValueError("amalgamation recipes are defined over the one-binary-predicate signature")
    lt1, lt2 = arm1.pred_tables[0], arm2.pred_tables[0]
    n1, n2 = len(arm1.universe), len(arm2.universe)
    # A first-arm element's position in the second arm; None when it is new.
    in2 = [arm2.positions.get(e) for e in arm1.universe]
    new1 = [x for x, q in enumerate(in2) if q is None]
    ext2 = [y for y, e in enumerate(arm2.universe) if e not in arm1.positions]
    m = len(ext2)
    universe = arm1.universe + tuple(arm2.universe[y] for y in ext2)

    def assemble(forward, backward) -> tuple[int, ...]:
        table = []
        k = 0
        for p, q in enumerate(in2):
            table += lt1[p * n1:(p + 1) * n1]
            if q is None:
                table += forward[k:k + m]
                k += m
            else:
                table += [lt2[q * n2 + y] for y in ext2]
        for j, y in enumerate(ext2):
            row = lt2[y * n2:(y + 1) * n2]
            back = iter(backward[j::m])
            table += [next(back) if q is None else row[q] for q in in2]
            table += [row[z] for z in ext2]
        return tuple(table)

    return universe, new1, ext2, assemble


def _amalgamate(v: VFormation, cross_rule, member, cells_ok) -> GradedStructure:
    """The amalgamation core shared by every built-in class.

    ``cross_rule(x, y)`` gives the values of (x, y) and (y, x) for x new
    in the first arm and y new in the second, both given by their
    positions in their own arm.  ``member`` is the class's membership
    predicate, checked on the second arm.  ``cells_ok(out, xs, ys)`` is
    the class's cell check, the one that ``member`` runs over every
    position; here it runs over the cross cells only, with xs and ys the
    two arms' new elements as positions in the amalgam ``out``, in
    O(n * (n + |cross|)) steps.  That is exact when both arms are
    members, so the first arm must already be one; the callers
    guarantee it.  ``check_ap`` and ``check_jep`` pass enumerated
    members, and ``build_limit`` and ``replay_transcript`` pass the
    current stage, which is a checked initial stage or an amalgam.
    """
    if not member(v.arm2):
        raise AmalgamationError(f"the second arm is not a member ({member.__name__} rejects it)")
    universe, new1, ext2, assemble = _amalgam_frame(v)
    forward = backward = ()
    if new1 and ext2:
        forward, backward = zip(*[cross_rule(x, y) for x in new1 for y in ext2])
    out = GradedStructure(v.arm1.chain, SIG_LT, universe, (assemble(forward, backward),),
                          name="amalgam")
    if forward and not cells_ok(out, new1, range(len(v.arm1.universe), len(universe))):
        raise AmalgamationError(f"cross rule lost membership ({member.__name__} fails on a cross cell)")
    return out


def _composition(v: VFormation):
    """C(x, y) = max over base b of min(v1(x, b), v2(b, y)), both ways.

    Returns a function of (x, y), x in the first arm and y in the second,
    giving (C(x, y), C(y, x)); both are bottom over an empty base.
    """
    lt1, lt2 = v.arm1.pred_tables[0], v.arm2.pred_tables[0]
    n1, n2 = len(v.arm1.universe), len(v.arm2.universe)
    base = v.shared
    bot = v.arm1.chain.bot

    def through(x, y):
        return (
            max((min(lt1[x * n1 + b1], lt2[b2 * n2 + y]) for b1, b2 in base), default=bot),
            max((min(lt2[y * n2 + b2], lt1[b1 * n1 + x]) for b1, b2 in base), default=bot),
        )

    return through


def amalgamate_k0(v: VFormation) -> GradedStructure:
    """Close two graded preorders through their shared base.

    Since ``one`` is neutral, membership is min-transitivity plus loops
    at or above ``one``; each cross pair takes the composition through
    the base, which is the whole sup-min closure of the union.  The
    first arm must be a member (see ``_amalgamate``).
    """
    return _amalgamate(v, _composition(v), k0_member, _k0_cells_ok)


def amalgamate_k1(v: VFormation) -> GradedStructure:
    """Simple union of two weighted graphs over their shared part.

    Mixed pairs get the bottom value in both directions, which keeps
    the result loopless and symmetric.  The first arm must be a member
    (see ``_amalgamate``).
    """
    bot = v.arm1.chain.bot
    return _amalgamate(v, lambda x, y: (bot, bot), k1_member, _k1_cells_ok)


def _k2_key(arm: GradedStructure, base, z: int, levels) -> tuple[int, ...]:
    """(pos_1(z), ..., pos_one(z)): z's place among the base blocks per level.

    pos_a(z) is twice the number of base elements strictly below z at
    level a, plus one when z is tied with some base element there.
    ``base`` and z are positions in ``arm``.
    """
    lt = arm.pred_tables[0]
    n = len(arm.universe)
    key = []
    for a in levels:
        below = sum(1 for b in base if lt[b * n + z] >= a > lt[z * n + b])
        tied = any(lt[b * n + z] >= a and lt[z * n + b] >= a for b in base)
        key.append(2 * below + tied)
    return tuple(key)


def amalgamate_k2(v: VFormation) -> GradedStructure:
    """Interleave two graded total preorders around their shared base.

    Every a-cut (a <= ``one``) of a member is a weak order.  At level a
    a new element sits in a gap between base blocks (even position) or
    inside a block (odd position); x <=_a y when x's key up to level a
    is lexicographically at most y's, so inside a gap the first arm
    goes first, and y <=_a x when y's key is smaller or both sit in the
    same block.  A cross pair takes the largest level at which it holds,
    or the composition through the base when that is larger.  Comparing
    whole key prefixes, not the level's position alone, keeps the cuts
    nested.  The first arm must be a member (see ``_amalgamate``).

    Why the result is a member (proof sketch).  Write R_a for the a-cut
    {(p, q) : v(p, q) >= a}.  A structure is in k2 exactly when its
    loops are at least ``one``, every R_a is transitive and R_one is
    total.  Loops and within-arm values are copied, so:

    1. Inside one arm, p R_a q gives p R_c q for all c <= a, and the
       base position at level c is monotone along the weak order R_c,
       so p's key prefix up to a is at most q's componentwise.  Hence a
       lexicographically smaller prefix forces the strict arm order.
    2. A strictly smaller prefix stays smaller when extended, so the
       levels where "prefix of x <= prefix of y" holds form an initial
       segment: the cross values are well defined and the cuts nest.
    3. For a <= ``one`` the new R_a sorts the union by key prefix; equal
       prefixes ending in a block (odd) are all tied to that block, and
       equal prefixes ending in a gap (even) hold only new elements, the
       first arm's before the second's, each arm in its own order.  A
       lexicographic product of weak orders is a weak order, and by 1 it
       agrees with both arms.  The composition adds nothing at these
       levels: x R_a b R_a y with b in the base gives prefix(x) <=
       prefix(b) <= prefix(y), and y R_a b R_a x gives the reverse,
       where equality puts x in b's block.  So R_one is total and each
       such R_a is transitive.
    4. Above ``one`` a cross pair reaches level a only through the
       composition, and a chain of a-steps that changes arms passes
       through the base, so, as for ``amalgamate_k0``, the composition
       closes the union of the arms' cuts transitively.
    """
    chain = v.arm1.chain
    levels = range(1, chain.one + 1)
    base1, base2 = [p for p, _ in v.shared], [q for _, q in v.shared]
    keys1 = {x: _k2_key(v.arm1, base1, x, levels)
             for x, e in enumerate(v.arm1.universe) if e not in v.arm2.positions}
    keys2 = {y: _k2_key(v.arm2, base2, y, levels)
             for y, e in enumerate(v.arm2.universe) if e not in v.arm1.positions}
    through = _composition(v)

    def rule(x, y):
        kx, ky = keys1[x], keys2[y]
        forward = max((a for a in levels if kx[:a] <= ky[:a]), default=chain.bot)
        backward = max(
            (a for a in levels if ky[:a] < kx[:a] or (ky[:a] == kx[:a] and kx[a - 1] % 2)),
            default=chain.bot,
        )
        cxy, cyx = through(x, y)
        return max(cxy, forward), max(cyx, backward)

    return _amalgamate(v, rule, k2_member, _k2_cells_ok)


def amalgamate_k3(v: VFormation) -> GradedStructure:
    """Cross rule for threshold partial orders.

    A mixed pair takes ``one`` when its composition through the base is
    at least ``one``, that is, when some base element sits between its
    endpoints at the filter level; otherwise it takes the falsum
    constant.  The first arm must be a member (see ``_amalgamate``).
    """
    chain = v.arm1.chain
    one, zero = chain.one, chain.zero
    through = _composition(v)

    def rule(x, y):
        cxy, cyx = through(x, y)
        return (one if cxy >= one else zero), (one if cyx >= one else zero)

    return _amalgamate(v, rule, k3_member, _k3_cells_ok)


_SEARCH_CAP = 10**6


def search_amalgam(v: VFormation, membership) -> GradedStructure | None:
    """Exhaustive search for a disjoint amalgam, first hit wins.

    For classes without a construction, and as the tests' oracle.  Only
    amalgams on the union of the arm universes are tried, in which the
    arms' new elements stay apart; an amalgam that identifies a new
    element of one arm with one of the other is never found, so None
    does not mean that v has no amalgam.  Only the mixed pairs are open;
    every assignment of chain values to them (both directions) is tried
    in rank order.
    """
    universe, new1, ext2, assemble = _amalgam_frame(v)
    chain = v.arm1.chain
    cells = 2 * len(new1) * len(ext2)
    count = chain.size ** cells
    if count > _SEARCH_CAP:
        raise BudgetError(f"{count} cross assignments exceed the cap of {_SEARCH_CAP}")
    for combo in itertools.product(range(chain.size), repeat=cells):
        table = assemble(combo[0::2], combo[1::2])
        out = GradedStructure(chain, SIG_LT, universe, (table,), name="amalgam")
        if membership(out):
            return out
    return None


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
        type, a negative ``stages`` or ``budget``, or an event outside the
        recorded stages raises ``FileFormatError``."""
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
    pairs = []
    for nprime in members:
        for ssize in range(1, len(nprime.universe)):
            for subset in itertools.combinations(nprime.universe, ssize):
                n = restrict(nprime, subset)
                if spec.membership(n):
                    pairs.append((n, nprime))
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
    member, as the check of an amalgam's cross cells needs.

    Returns (stage structures, transcript).
    """
    if stages < 0:
        raise ValueError("stages must be non-negative")
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
    for stage in range(stages):
        tasks = [
            (f, n, nprime)
            for n, nprime in pairs
            for f in find_embeddings(n, current)
        ]
        for pos, (mapping, n, nprime) in enumerate(tasks):
            if find_embeddings(nprime, current, fixed=mapping, limit=1):
                continue
            v = align_v_formation(current, nprime, {b: a for a, b in mapping.items()})
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
    with an arm read from the transcript: the amalgamator checks that
    arm with the full predicate, raising ``AmalgamationError`` for a
    non-member, and the amalgam on its cross cells, so every stage is a
    member.  An event whose ``base`` ids are not exactly the ids its arm
    shares with the current stage raises ``FileFormatError``.
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
            v = VFormation(current, structure_from_text(event.arm_text, chain=chain))
            if {current.universe[p] for p, _ in v.shared} != set(event.base_ids):
                raise FileFormatError(f"transcript event at stage {stage}: its base ids are "
                                      "not the ids its arm shares with the stage")
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
    """Embeddings of members into m that fail to extend to some member extension."""
    _, pairs = _extension_pairs(spec, m.chain, k, None)
    defects = []
    for n, nprime in pairs:
        for f in find_embeddings(n, m):
            if not find_embeddings(nprime, m, fixed=f, limit=1):
                defects.append(ExtensionDefect(canonical_form(n), canonical_form(nprime),
                                               tuple(sorted(f.items()))))
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
    table = tuple(profiles[max(i, j)].get(min(i, j), bot) for i in range(n) for j in range(n))
    return GradedStructure(chain, SIG_LT, tuple(vertices), (table,), name="randgraph")


@dataclass(frozen=True)
class WitnessDefect:
    subset: tuple[str, ...]
    wanted: tuple[int, ...]

    def render(self) -> str:
        if not self.subset:
            return "witness defect: no vertex outside the empty set"
        pairs = " ".join(f"{a}:{v}" for a, v in zip(self.subset, self.wanted))
        return f"witness defect: no vertex matching {pairs}"


def check_random_graph_property(m: GradedStructure, max_x: int) -> list[WitnessDefect]:
    """Subset-map demands with no matching witness vertex.

    For every subset X of the universe with at most ``max_x`` elements
    and every map from X to the chain, checks that some vertex outside X
    matches the map symmetrically.
    """
    if max_x < 0:
        raise ValueError("max_x must be non-negative")
    if not k1_member(m):
        raise ValueError("structure is not a weighted graph (loopless symmetric)")
    chain = m.chain
    n = len(m.universe)
    total = sum(comb(n, s) * chain.size ** s for s in range(max_x + 1))
    if total > _RANDGRAPH_CAP:
        raise BudgetError(f"{total} demands exceed the cap of {_RANDGRAPH_CAP}")
    # A member is symmetric, so row w of the table gives w's values both ways.
    lt = m.pred_tables[0]
    rows = [lt[w * n:(w + 1) * n] for w in range(n)]
    defects = []
    for s in range(max_x + 1):
        for X in itertools.combinations(m.universe, s):
            xs = [m.positions[a] for a in X]
            met = {tuple(row[a] for a in xs) for w, row in enumerate(rows) if w not in xs}
            for fv in itertools.product(range(chain.size), repeat=s):
                if fv not in met:
                    defects.append(WitnessDefect(X, fv))
    return defects
