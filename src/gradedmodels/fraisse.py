"""Amalgamation constructions, stage-wise limit building, and verifiers.

Every built-in class amalgamates through one core: the union of the arm
universes, each cross pair set by the class's closed-form rule, and one
membership check that raises ``AmalgamationError`` on failure.  Joint
extension is the amalgam over the empty base.  The exhaustive
``search_amalgam`` serves classes without a construction and the tests
as an oracle.  The limit builder grows a substructure chain by
satisfying embedding extension tasks through amalgamation, recording a
replayable transcript.  The verifiers measure finite stages against the
extension and homogeneity properties, reporting defects instead of
failing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb

from .algebra import Chain, make_from_table
from .classes import enumerate_class, get_class, k0_member, k1_member, k2_member, k3_member
from .errors import AmalgamationError, BudgetError
from .logic import SIG_LT
from .structure import (
    GradedStructure,
    Morphism,
    _consistent_extension,
    _flat,
    canonical_form,
    extend_embedding,
    find_embeddings,
    fresh_names,
    generated_substructure,
    is_embedding,
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
    "amalgamate_k0",
    "amalgamate_k1",
    "amalgamate_k2",
    "amalgamate_k3",
    "jep_union",
    "Transcript",
    "build_limit",
    "replay_transcript",
    "check_extension_property",
    "check_homogeneity",
    "defect_classes",
    "back_and_forth_isomorphism",
    "random_weighted_graph",
    "check_random_graph_property",
]


@dataclass(frozen=True)
class VFormation:
    """A shared base embedded as a literal substructure of two arms.

    The arms must intersect exactly in the base's elements; use
    ``align_v_formation`` to rename an arbitrary second arm into shape.
    """

    base: GradedStructure
    arm1: GradedStructure
    arm2: GradedStructure

    def __post_init__(self):
        if not is_substructure(self.base, self.arm1):
            raise ValueError("base is not a substructure of the first arm")
        if not is_substructure(self.base, self.arm2):
            raise ValueError("base is not a substructure of the second arm")
        shared = set(self.arm1.universe) & set(self.arm2.universe)
        if shared != set(self.base.universe):
            raise ValueError("arms must intersect exactly in the base")


def align_v_formation(base: GradedStructure, arm1: GradedStructure,
                      arm2: GradedStructure, embedding: dict) -> VFormation:
    """Build a v-formation from an embedding of the base into arm2.

    arm2 is renamed so the embedding image carries the base's ids and
    everything else is fresh relative to arm1.
    """
    inverse = {embedding[b]: b for b in base.universe}
    taken = set(arm1.universe) | set(arm2.universe) | set(base.universe)
    rest = [e for e in arm2.universe if e not in inverse]
    news = fresh_names("y", len(rest), taken)
    mapping = dict(inverse)
    mapping.update(zip(rest, news))
    return VFormation(base, arm1, rename(arm2, mapping))


def verify_amalgam(spec, v: VFormation, witness: GradedStructure) -> bool:
    return (
        spec.membership(witness)
        and is_substructure(v.arm1, witness)
        and is_substructure(v.arm2, witness)
    )


def _amalgam_frame(v: VFormation):
    """Union universe, its table with the within-arm values, the cross pairs.

    The union lists the first arm, then the second arm's new elements;
    ``place`` maps second-arm positions to union positions.  A cross
    pair (x, y) holds the positions of x new in the first arm and y new
    in the second; its two cells in the table are left as None.
    """
    arm1, arm2 = v.arm1, v.arm2
    if arm1.signature != SIG_LT:
        raise ValueError("amalgamation recipes are defined over the one-binary-predicate signature")
    base = v.base.positions
    n1 = len(arm1.universe)
    ext2 = [y for y, e in enumerate(arm2.universe) if e not in base]
    universe = arm1.universe + tuple(arm2.universe[y] for y in ext2)
    place = [arm1.positions.get(e) for e in arm2.universe]
    for k, y in enumerate(ext2):
        place[y] = n1 + k
    size = len(universe)
    table = [None] * size * size
    for arm_place, lt in ((place, arm2.pred_tables[0]), (range(n1), arm1.pred_tables[0])):
        for f, val in zip(_flat([arm_place] * 2, size), lt):
            table[f] = val
    cross = [(x, y) for x, e in enumerate(arm1.universe) if e not in base for y in ext2]
    return universe, table, cross, place


def _amalgamate(v: VFormation, cross_rule, member) -> GradedStructure:
    """The amalgamation core shared by every built-in class.

    ``cross_rule(x, y)`` gives the values of (x, y) and (y, x) for x new
    in the first arm and y new in the second, both given by their
    positions in their own arm; ``member`` is the class's membership
    predicate, checked once on the result.
    """
    universe, table, cross, place = _amalgam_frame(v)
    size = len(universe)
    for x, y in cross:
        j = place[y]
        table[x * size + j], table[j * size + x] = cross_rule(x, y)
    out = GradedStructure(v.arm1.chain, SIG_LT, universe, (tuple(table),), name="amalgam")
    if not member(out):
        raise AmalgamationError(f"cross rule lost membership ({member.__name__} rejects the amalgam)")
    return out


def _base_positions(v: VFormation):
    """The base elements' positions in the first and in the second arm."""
    return ([v.arm1.positions[b] for b in v.base.universe],
            [v.arm2.positions[b] for b in v.base.universe])


def _composition(v: VFormation):
    """C(x, y) = max over base b of min(v1(x, b), v2(b, y)), both ways.

    Returns a function of (x, y), x in the first arm and y in the second,
    giving (C(x, y), C(y, x)); both are bottom over an empty base.
    """
    lt1, lt2 = v.arm1.pred_tables[0], v.arm2.pred_tables[0]
    n1, n2 = len(v.arm1.universe), len(v.arm2.universe)
    base = list(zip(*_base_positions(v)))
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
    the base, which is the whole sup-min closure of the union.
    """
    return _amalgamate(v, _composition(v), k0_member)


def amalgamate_k1(v: VFormation) -> GradedStructure:
    """Simple union of two weighted graphs over their shared part.

    Mixed pairs get the bottom value in both directions, which keeps
    the result loopless and symmetric.
    """
    bot = v.arm1.chain.bot
    return _amalgamate(v, lambda x, y: (bot, bot), k1_member)


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
    nested.
    """
    chain = v.arm1.chain
    levels = range(1, chain.one + 1)
    base1, base2 = _base_positions(v)
    keys1 = {x: _k2_key(v.arm1, base1, x, levels)
             for x, e in enumerate(v.arm1.universe) if e not in v.base.positions}
    keys2 = {y: _k2_key(v.arm2, base2, y, levels)
             for y, e in enumerate(v.arm2.universe) if e not in v.base.positions}
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

    return _amalgamate(v, rule, k2_member)


def amalgamate_k3(v: VFormation) -> GradedStructure:
    """Cross rule for threshold partial orders.

    A mixed pair is pushed into the filter exactly when a base witness
    sits between its endpoints at the filter level; otherwise it takes
    the falsum constant.
    """
    chain = v.arm1.chain
    one = chain.one
    lt1, lt2 = v.arm1.pred_tables[0], v.arm2.pred_tables[0]
    n1, n2 = len(v.arm1.universe), len(v.arm2.universe)
    base = list(zip(*_base_positions(v)))

    def rule(x, y):
        forward = any(lt1[x * n1 + b1] >= one and lt2[b2 * n2 + y] >= one for b1, b2 in base)
        backward = any(lt1[b1 * n1 + x] >= one and lt2[y * n2 + b2] >= one for b1, b2 in base)
        return (one if forward else chain.zero), (one if backward else chain.zero)

    return _amalgamate(v, rule, k3_member)


def search_amalgam(v: VFormation, membership, cap: int = 10**6) -> GradedStructure | None:
    """Exhaustive completion search over the cross values, first hit wins.

    For classes without a construction, and as the tests' oracle.  All
    amalgams here live on the union of the arm universes, so only the
    mixed pairs are open; every assignment of chain values to them (both
    directions) is tried in rank order.
    """
    universe, table, cross, place = _amalgam_frame(v)
    size = len(universe)
    cells = [f for x, y in cross for f in (x * size + place[y], place[y] * size + x)]
    chain = v.arm1.chain
    count = chain.size ** len(cells)
    if count > cap:
        raise BudgetError(f"{count} cross assignments exceed the cap of {cap}")
    for combo in itertools.product(range(chain.size), repeat=len(cells)):
        for f, val in zip(cells, combo):
            table[f] = val
        out = GradedStructure(chain, SIG_LT, universe, (tuple(table),), name="amalgam")
        if membership(out):
            return out
    return None


def _jep_via_amalgam(amalgamator, m1: GradedStructure, m2: GradedStructure) -> GradedStructure:
    """Joint extension: the amalgam over the empty base, m2 renamed apart."""
    taken = set(m1.universe) | set(m2.universe)
    overlap = [e for e in m2.universe if e in set(m1.universe)]
    if overlap:
        news = fresh_names("u", len(overlap), taken)
        m2 = rename(m2, dict(zip(overlap, news)))
    empty = GradedStructure(m1.chain, SIG_LT, (), ((),), name="empty")
    return amalgamator(VFormation(empty, m1, m2))


def jep_union(members, spec, verify: bool = True) -> GradedStructure:
    """Fold a list of members into one structure by iterated joint extension.

    Starting from the first member, each next one is renamed apart and
    joined in; every input then embeds into the result, so the result's
    age at the input sizes covers the inputs.
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one member")
    if spec.amalgamate is None:
        raise ValueError(f"class {spec.name} has no amalgamator")
    current = members[0]
    for m in members[1:]:
        current = _jep_via_amalgam(spec.amalgamate, current, m)
    if verify:
        for i, m in enumerate(members):
            if not find_embeddings(m, current, limit=1):
                raise AmalgamationError(f"input {i} does not embed into the joint union")
    return current


# --- stage-wise limit construction ---


@dataclass
class Event:
    stage: int
    base_ids: tuple[str, ...]
    arm_text: str


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
        payload = json.loads(text)
        cdata = payload["chain"]
        chain = make_from_table(cdata["size"], cdata["conj"], one=cdata["one"],
                                zero=cdata["zero"], name=cdata["name"])
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
    members = list(enumerate_class(spec, chain, size_budget))
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
    member enumeration order (permutable via ``shuffle_seed``).

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
            (f.mapping, n, nprime)
            for n, nprime in pairs
            for f in find_embeddings(n, current)
        ]
        for pos, (mapping, n, nprime) in enumerate(tasks):
            if extend_embedding(nprime, current, mapping, limit=1):
                continue
            base = restrict(current, set(mapping.values()))
            new_elems = [e for e in nprime.universe if e not in n.universe]
            fresh = fresh_names("n", len(new_elems), set(current.universe) | set(nprime.universe))
            ren = {e: mapping[e] for e in n.universe}
            ren.update(zip(new_elems, fresh))
            arm = rename(nprime, ren)
            try:
                current = spec.amalgamate(VFormation(base, current, arm))
            except AmalgamationError as exc:
                raise AmalgamationError(
                    f"stage {stage}: {exc} ({len(tasks) - pos - 1} tasks pending)"
                ) from exc
            transcript.events.append(Event(stage, tuple(base.universe), structure_to_text(arm)))
            if not extend_embedding(nprime, current, mapping, limit=1):
                raise AmalgamationError(f"stage {stage}: amalgam did not satisfy its task")
        stage_list.append(current)
    return stage_list, transcript


def replay_transcript(transcript: Transcript):
    """Re-run the recorded amalgamation sequence; returns the stages."""
    spec = get_class(transcript.class_name)
    chain = transcript.chain
    current = structure_from_text(transcript.initial_text, chain=chain)
    stage_list = [current]
    events = list(transcript.events)
    for stage in range(transcript.stages):
        for event in (e for e in events if e.stage == stage):
            arm = structure_from_text(event.arm_text, chain=chain)
            base = restrict(current, event.base_ids)
            current = spec.amalgamate(VFormation(base, current, arm))
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


def check_extension_property(m: GradedStructure, spec, k: int,
                             within=None) -> list[ExtensionDefect]:
    """Embeddings of members into m that fail to extend to some member extension.

    ``within`` restricts the embeddings' images to a subset of m's
    universe; extensions may still use all of m.
    """
    _, pairs = _extension_pairs(spec, m.chain, k, None)
    allowed = set(within) if within is not None else None
    defects = []
    for n, nprime in pairs:
        for f in find_embeddings(n, m):
            if allowed is not None and any(v not in allowed for v in f.mapping.values()):
                continue
            if not extend_embedding(nprime, m, f.mapping, limit=1):
                defects.append(ExtensionDefect(canonical_form(n), canonical_form(nprime),
                                               tuple(sorted(f.mapping.items()))))
    return defects


@dataclass(frozen=True)
class HomogeneityDefect:
    source_form: bytes
    target_form: bytes
    mapping: tuple

    def render(self) -> str:
        pairs = " ".join(f"{a}->{b}" for a, b in self.mapping)
        return f"homogeneity defect: {pairs} extends to no automorphism"


def check_homogeneity(m: GradedStructure, k: int) -> list[HomogeneityDefect]:
    """Partial isomorphisms between k-generated substructures of m that
    extend to no automorphism.  Exact for finite m."""
    defects = []
    subs = []
    for size in range(1, min(k, len(m.universe)) + 1):
        for subset in itertools.combinations(m.universe, size):
            subs.append(generated_substructure(m, subset))
    for a in subs:
        for b in subs:
            if len(a.universe) != len(b.universe):
                continue
            for g in find_embeddings(a, b):
                if not extend_embedding(m, m, g.mapping, limit=1):
                    defects.append(HomogeneityDefect(
                        canonical_form(a),
                        canonical_form(b),
                        tuple(sorted(g.mapping.items())),
                    ))
    return defects


def defect_classes(defects) -> set:
    """Group defects by the isomorphism types they relate."""
    return {(d.source_form, d.target_form) for d in defects}


def back_and_forth_isomorphism(m: GradedStructure, n: GradedStructure) -> Morphism | None:
    """Isomorphism via alternating extension steps, or None.

    Odd steps pull in the next unmatched element of m, even steps the
    next unmatched element of n, backtracking over partners.
    """
    if len(m.universe) != len(n.universe):
        return None
    size = len(m.universe)

    def grow(mapping, inverse):
        if len(mapping) == size:
            mor = Morphism(m, n, {m.universe[s]: n.universe[d] for s, d in mapping.items()})
            return mor if is_embedding(mor) else None
        if len(mapping) % 2 == 0:
            src = next(s for s in range(size) if s not in mapping)
            options = [(src, d) for d in range(size) if d not in inverse]
        else:
            dst = next(d for d in range(size) if d not in inverse)
            options = [(s, dst) for s in range(size) if s not in mapping]
        for src, dst in options:
            if not _consistent_extension(m, n, mapping, src, dst):
                continue
            mapping[src] = dst
            inverse[dst] = src
            found = grow(mapping, inverse)
            if found:
                return found
            del mapping[src]
            del inverse[dst]
        return None

    return grow({}, {})


# --- the random weighted graph ---


def random_weighted_graph(chain: Chain, rounds: int,
                          max_candidates: int = 10**6) -> GradedStructure:
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
        if total > max_candidates:
            raise BudgetError(
                f"round {r} would add {total} vertices, over the cap of {max_candidates}"
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


def check_random_graph_property(m: GradedStructure, max_x: int, within=None,
                                max_candidates: int = 10**6) -> list[WitnessDefect]:
    """Subset-map demands with no matching witness vertex.

    For every subset X of ``within`` (default: the whole universe) with
    at most ``max_x`` elements and every map from X to the chain,
    checks that some vertex outside X matches the map symmetrically.
    """
    if not k1_member(m):
        raise ValueError("structure is not a weighted graph (loopless symmetric)")
    chain = m.chain
    pool = list(within) if within is not None else list(m.universe)
    for e in pool:
        if e not in m.universe:
            raise ValueError(f"element {e!r} not in universe")
    total = sum(comb(len(pool), s) * chain.size ** s for s in range(max_x + 1))
    if total > max_candidates:
        raise BudgetError(f"{total} demands exceed the cap of {max_candidates}")
    # A member is symmetric, so row w of the table gives w's values both ways.
    lt = m.pred_tables[0]
    n = len(m.universe)
    rows = [lt[w * n:(w + 1) * n] for w in range(n)]
    defects = []
    for s in range(max_x + 1):
        for X in itertools.combinations(pool, s):
            xs = [m.positions[a] for a in X]
            met = {tuple(row[a] for a in xs) for w, row in enumerate(rows) if w not in xs}
            for fv in itertools.product(range(chain.size), repeat=s):
                if fv not in met:
                    defects.append(WitnessDefect(X, fv))
    return defects
