"""Execution: priority scheduling, instantaneous fixpoints, the four
transition semantics, seeded simulation, and bounded breadth-first
state-space exploration with predicate labelling.

States are abstract: successors that are isomorphic are merged, with
probability (pbrs, abrs) or rate (sbrs) mass summed. Instantaneous
classes reduce to a fixpoint before a state is ever stored, so no stored
state has an enabled instantaneous occurrence. The settle stops at the
first normal class that is enabled or that no instantaneous class
follows, and hands its index to the step from the state, which starts
its search there: every class above it is known empty.
A step applies a hit only if no automorphism of the state maps it onto
an earlier hit whose settle fired nothing (``_group_results``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bigraph import Bigraph, exact_fields
from .canon import StateStore, same_orbit
from .elaborate import BrsSpec
from .errors import DivergentInstantaneous, InitNotGround, NonConfluence, RateOverflow
from .matching import _occurrences, check_constraints, find_occurrences, matches_predicate
from .rules import ReactionRule, apply_at

INSTANTANEOUS_BOUND = 10 ** 6
CONFLUENCE_FANOUT = 6          # permute application orders up to this many matches


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    label: object               # None | Fraction prob | float rate | (action, Fraction)
    rule_names: frozenset

    def sort_key(self):
        return (self.src, self.dst)


@dataclass
class TransitionSystem:
    states: list[Bigraph]
    transitions: list[Transition]
    labelling: dict[str, set[int]]
    semantics: str
    predicates: tuple[str, ...]
    actions: tuple[str, ...] = ()
    partial: bool = False
    init_index: int = 0


@dataclass
class SimTrace:
    """steps[0] is the settled initial state; every later entry records the
    rule applied to reach it and the transition's label."""

    steps: list                 # (state, rule name | None, label)
    seed: int
    time: float | None = None   # accumulated dwell time, sbrs only
    times: list | None = None   # cumulative time at each step, sbrs only


def enabled_class(state: Bigraph, spec: BrsSpec, handoff: int | None = None):
    """Highest-priority class with a constraint-passing occurrence, with
    all its applications; None at deadlock. With the handoff of the
    settle that produced state, the search starts at that class: the
    settle showed every class before it empty."""
    return _enabled(state, spec, False, handoff or 0)


def _enabled(state, spec, settling, start=0):
    """enabled_class from class start on, or when settling: the highest
    enabled class and its applications if it is instantaneous, else the
    state is settled and this returns its handoff, the first class the
    step must search. Settling stops at a normal class that no
    instantaneous class follows, unsearched; it searches one that an
    instantaneous class follows only up to its first application."""
    classes = spec.classes
    for ci in range(start, len(classes)):
        cls = classes[ci]
        if settling and not cls.instantaneous:
            if not any(c.instantaneous for c in classes[ci + 1:]) or any(
                    check_constraints(occ, rule.constraints)
                    for rule in cls.rules for occ in _occurrences(state, rule.lhs)):
                return ci
            continue
        # rules with equal left sides share one (elaboration interns them):
        # each left side is searched once, each rule's guards checked
        lhss = {id(rule.lhs): rule.lhs for rule in cls.rules}
        found = {k: find_occurrences(state, lhs) for k, lhs in lhss.items()}
        hits = [(rule, occ) for rule in cls.rules for occ in found[id(rule.lhs)]
                if check_constraints(occ, rule.constraints)]
        if hits:
            return ci, hits
    return len(classes) if settling else None


def reduce_instantaneous(state: Bigraph, spec: BrsSpec,
                         bound: int = INSTANTANEOUS_BOUND) -> Bigraph:
    """Apply instantaneous rules (first occurrence in canonical order)
    until the highest-priority enabled class, if any, is a normal one."""
    return _settle(state, spec, False, bound)[0]


def check_confluent_settle(state: Bigraph, spec: BrsSpec) -> Bigraph:
    """Like reduce_instantaneous, but explores every application order on
    states with at most CONFLUENCE_FANOUT instantaneous matches and
    raises NonConfluence when the settled results disagree."""
    settled = reduce_instantaneous(state, spec)
    terminals = StateStore()
    visited = StateStore()
    stack = [state]
    while stack:
        s = stack.pop()
        _, added = visited.insert(s)
        if not added:
            continue
        res = _enabled(s, spec, True)
        if isinstance(res, int):
            terminals.insert(s)
            continue
        hits = res[1]
        if len(hits) > CONFLUENCE_FANOUT:
            hits = hits[:1]
        for rule, occ in hits:
            stack.append(apply_at(s, rule, occ))
    if len(terminals) > 1:
        raise NonConfluence(
            "instantaneous rules are not confluent: %d distinct settled states"
            % len(terminals))
    return settled


def _settle(state, spec, check, bound=INSTANTANEOUS_BOUND):
    """reduce_instantaneous or, if check, check_confluent_settle; with the
    handoff of the search that found the state settled (None if no
    search ran or the confluence check settled it)."""
    # with no instantaneous class a state is already settled, and trivially
    # confluent
    if not any(cls.instantaneous for cls in spec.classes):
        return state, None
    if check:
        return check_confluent_settle(state, spec), None
    # the settle is a function of the state, so meeting a state again means
    # it cycles; comparing with the state after 2^k - 1 reductions finds
    # any cycle within about three times its start plus its length, in
    # constant memory (Brent)
    for i in range(bound + 1):
        res = _enabled(state, spec, True)
        if isinstance(res, int):
            return state, res
        rule, occ = res[1][0]
        if i & (i + 1) == 0:
            mark = exact_fields(state)
        state = apply_at(state, rule, occ)
        if exact_fields(state) == mark:
            raise DivergentInstantaneous(
                "instantaneous rule %s revisits a state, so the classes never settle"
                % rule.name)
    raise DivergentInstantaneous(
        "instantaneous classes did not settle within %d reductions" % bound)


@dataclass
class Successor:
    dst: Bigraph
    label: object
    rule_names: frozenset
    weight: Fraction | float | None = None   # aggregate mass of the group
    members: list = field(default_factory=list)   # (rule, occ) in canonical order
    handoff: int | None = field(default=None, repr=False)   # dst's settle


def _group_results(state, spec, hits, check_confluence=False):
    """Apply every hit, settle, and merge isomorphic successors in
    first-seen order. Returns the groups, each listing its hits as
    members; labels and weights are left to the caller.

    A head is a hit whose settle fired no instantaneous rule. A later hit
    of the same rule that an automorphism of state maps onto a head
    (``canon.same_orbit``) joins the head's group unapplied: its result
    is isomorphic to the head's, so it too would settle to itself and be
    merged into that group. A settle that fired picks by image index, so
    hits mapped onto its hit may settle elsewhere: they are applied.
    """
    store = StateStore()
    groups = []
    heads: dict = {}            # rule -> [(head occ, group index)]
    for rule, occ in hits:
        gi = next((gi for head, gi in heads.get(id(rule), ())
                   if same_orbit(state, head, occ)), None)
        if gi is None:
            applied = apply_at(state, rule, occ)
            dst, handoff = _settle(applied, spec, check_confluence)
            gi, added = store.insert(dst)
            if added:
                groups.append(Successor(dst=dst, label=None, rule_names=frozenset(),
                                        handoff=handoff))
            if dst is applied:
                heads.setdefault(id(rule), []).append((occ, gi))
        groups[gi].members.append((rule, occ))
    for g in groups:
        g.rule_names = frozenset(r.name for r, _ in g.members)
    return groups


def step_distribution(state: Bigraph, spec: BrsSpec, check_confluence: bool = False,
                      handoff: int | None = None) -> list[Successor]:
    """Successor distribution of an instantaneous-settled state.

    brs: one unlabelled successor per distinct result. pbrs: every
    occurrence of rule r contributes weight w_r, normalised over the
    enabled class. sbrs: rates sum per merged successor (race). abrs:
    weights normalised per (state, action). The handoff is enabled_class's.
    """
    res = enabled_class(state, spec, handoff)
    if res is None:
        return []
    _, hits = res
    sem = spec.semantics
    if sem != "abrs":
        groups = _group_results(state, spec, hits, check_confluence)
        if sem == "pbrs":
            for g, p in zip(groups, _shares(groups)):
                g.label = p
        elif sem == "sbrs":
            for g in groups:
                g.weight = 0.0
                for r, _ in g.members:
                    g.weight += r.label.rate
                g.label = g.weight
            if not math.isfinite(sum(g.weight for g in groups)):
                raise RateOverflow("the rates leaving a state sum beyond the largest float")
        return groups
    # abrs: group per action, in declaration order
    out = []
    for action in spec.actions:
        sub = [(r, o) for r, o in hits if r.label.action == action]
        if sub:
            groups = _group_results(state, spec, sub, check_confluence)
            for g, p in zip(groups, _shares(groups)):
                g.label = (action, p)
            out.extend(groups)
    return out


def _shares(groups):
    """Set each group's weight to its members' summed rule weights and
    return each group's share of the total."""
    for g in groups:
        g.weight = sum((r.label.weight for r, _ in g.members), Fraction(0))
    total = sum((g.weight for g in groups), Fraction(0))
    return [g.weight / total for g in groups]


def simulate(spec: BrsSpec, max_steps: int, seed: int) -> SimTrace:
    """One trace: settle instantaneous rules, then sample one application
    per step (uniform for brs, by weight for pbrs, by rate race for sbrs
    with exponential dwell, uniform action then by weight for abrs)."""
    if not spec.init.is_ground():
        raise InitNotGround("Init bigraph is not ground")
    rng = random.Random(seed)
    sem = spec.semantics
    state, handoff = _settle(spec.init, spec, False)
    steps = [(state, None, None)]
    time = 0.0 if sem == "sbrs" else None
    times = [0.0] if sem == "sbrs" else None
    for _ in range(max_steps):
        if sem == "brs":
            res = enabled_class(state, spec, handoff)
            if res is None:
                break
            _, hits = res
            rule, occ = hits[rng.randrange(len(hits))]
            state, handoff = _settle(apply_at(state, rule, occ), spec, False)
            steps.append((state, rule.name, None))
            continue
        groups = step_distribution(state, spec, handoff=handoff)
        if not groups:
            break
        if sem == "pbrs":
            g = _sample(rng, groups, [float(g.label) for g in groups])
        elif sem == "sbrs":
            total = sum(g.weight for g in groups)
            time += rng.expovariate(total)
            times.append(time)
            g = _sample(rng, groups, [g.weight / total for g in groups])
        else:
            present = []
            for action in spec.actions:
                block = [g for g in groups if g.label[0] == action]
                if block:
                    present.append(block)
            block = present[rng.randrange(len(present))]
            g = _sample(rng, block, [float(x.label[1]) for x in block])
        state, handoff = g.dst, g.handoff
        steps.append((state, g.members[0][0].name, g.label))
    return SimTrace(steps=steps, seed=seed, time=time, times=times)


def _sample(rng, items, probs):
    r = rng.random()
    acc = 0.0
    for item, p in zip(items, probs):
        acc += p
        if r < acc:
            return item
    return items[-1]


def label_states(states: list[Bigraph], spec: BrsSpec) -> dict[str, set[int]]:
    """Indices of the states that match each predicate, per predicate name."""
    return {name: {k for k, s in enumerate(states) if matches_predicate(s, pat)}
            for name, pat in spec.preds.items()}


def explore(spec: BrsSpec, max_states: int,
            check_confluence: bool = False) -> TransitionSystem:
    """Breadth-first state-space construction from the settled initial
    state. New states beyond max_states are dropped (the result is
    marked partial); every stored state is still fully expanded towards
    stored successors. States are deduplicated by ``canon.certificate``;
    a state with none falls back to its canonical key and iso_equal."""
    if not spec.init.is_ground():
        raise InitNotGround("Init bigraph is not ground")
    store = StateStore(max(max_states, 1))     # the initial state is always stored
    init, handoff = _settle(spec.init, spec, check_confluence)
    store.insert(init)
    handoffs = {0: handoff}          # per stored state, until it is expanded
    transitions: list[Transition] = []
    partial = False
    i = 0
    while i < len(store.states):
        state = store.states[i]
        for g in step_distribution(state, spec, check_confluence, handoffs.pop(i)):
            j, added = store.insert(g.dst)
            if j is None:
                partial = True
                continue
            if added:
                handoffs[j] = g.handoff
            transitions.append(Transition(i, j, g.label, g.rule_names))
        i += 1
    return TransitionSystem(states=store.states, transitions=transitions,
                            labelling=label_states(store.states, spec),
                            semantics=spec.semantics, predicates=tuple(spec.preds),
                            actions=tuple(spec.actions), partial=partial)
