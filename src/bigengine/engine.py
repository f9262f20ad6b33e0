"""Execution: priority scheduling, instantaneous fixpoints, the four
transition semantics, seeded simulation, and bounded breadth-first
state-space exploration with predicate labelling.

States are abstract: successors that are isomorphic are merged, with
probability (pbrs, abrs) or rate (sbrs) mass summed. Instantaneous
classes reduce to a fixpoint before a state is ever stored, so no stored
state has an enabled instantaneous occurrence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bigraph import Bigraph
from .canon import StateStore
from .elaborate import BrsSpec
from .errors import DivergentInstantaneous, InitNotGround, NonConfluence
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


def enabled_class(state: Bigraph, spec: BrsSpec):
    """Highest-priority class with a constraint-passing occurrence, with
    all its applications; None at deadlock."""
    return _enabled(state, spec, False)


def _enabled(state, spec, settling):
    """enabled_class, or when settling: the highest enabled class and its
    applications if it is instantaneous, else None (the state is settled).
    Settling stops a normal class at its first application: one shows it
    is enabled."""
    for ci, cls in enumerate(spec.classes):
        first_only = settling and not cls.instantaneous
        hits = []
        for rule in cls.rules:
            for occ in (_occurrences if first_only else find_occurrences)(state, rule.lhs):
                if check_constraints(occ, rule.constraints):
                    if first_only:
                        return None
                    hits.append((rule, occ))
        if hits:
            return ci, hits
    return None


def reduce_instantaneous(state: Bigraph, spec: BrsSpec,
                         bound: int = INSTANTANEOUS_BOUND) -> Bigraph:
    """Apply instantaneous rules (first occurrence in canonical order)
    until the highest-priority enabled class is a normal one, which is
    searched only up to its first constraint-passing occurrence."""
    steps = 0
    while True:
        res = _enabled(state, spec, True)
        if res is None:
            return state
        rule, occ = res[1][0]
        state = apply_at(state, rule, occ)
        steps += 1
        if steps > bound:
            raise DivergentInstantaneous(
                "instantaneous classes did not settle within %d reductions" % bound)


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
        if res is None:
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


def _settle(state, spec, check):
    # with no instantaneous class a state is already settled, and trivially
    # confluent
    if not any(cls.instantaneous for cls in spec.classes):
        return state
    return check_confluent_settle(state, spec) if check else reduce_instantaneous(state, spec)


@dataclass
class Successor:
    dst: Bigraph
    label: object
    rule_names: frozenset
    weight: Fraction | float | None = None   # aggregate mass of the group
    members: list = field(default_factory=list)   # (rule, occ) in canonical order


def _group_results(state, spec, hits, check_confluence=False):
    """Apply every hit, settle, and merge isomorphic successors in
    first-seen order. Returns the groups, each listing its hits as
    members; labels and weights are left to the caller."""
    store = StateStore()
    groups = []
    for rule, occ in hits:
        dst = _settle(apply_at(state, rule, occ), spec, check_confluence)
        gi, added = store.insert(dst)
        if added:
            groups.append(Successor(dst=dst, label=None, rule_names=frozenset()))
        groups[gi].members.append((rule, occ))
    for g in groups:
        g.rule_names = frozenset(r.name for r, _ in g.members)
    return groups


def step_distribution(state: Bigraph, spec: BrsSpec,
                      check_confluence: bool = False) -> list[Successor]:
    """Successor distribution of an instantaneous-settled state.

    brs: one unlabelled successor per distinct result. pbrs: every
    occurrence of rule r contributes weight w_r, normalised over the
    enabled class. sbrs: rates sum per merged successor (race). abrs:
    weights normalised per (state, action).
    """
    res = enabled_class(state, spec)
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
    state = reduce_instantaneous(spec.init, spec)
    steps = [(state, None, None)]
    time = 0.0 if sem == "sbrs" else None
    times = [0.0] if sem == "sbrs" else None
    for _ in range(max_steps):
        if sem == "brs":
            res = enabled_class(state, spec)
            if res is None:
                break
            _, hits = res
            rule, occ = hits[rng.randrange(len(hits))]
            state = reduce_instantaneous(apply_at(state, rule, occ), spec)
            steps.append((state, rule.name, None))
            continue
        groups = step_distribution(state, spec)
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
        state = g.dst
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
    stored successors. States are deduplicated by canonical key with an
    exact isomorphism confirmation."""
    if not spec.init.is_ground():
        raise InitNotGround("Init bigraph is not ground")
    store = StateStore(max(max_states, 1))     # the initial state is always stored
    store.insert(_settle(spec.init, spec, check_confluence))
    transitions: list[Transition] = []
    partial = False
    i = 0
    while i < len(store.states):
        state = store.states[i]
        for g in step_distribution(state, spec, check_confluence):
            j, _ = store.insert(g.dst)
            if j is None:
                partial = True
                continue
            transitions.append(Transition(i, j, g.label, g.rule_names))
        i += 1
    return TransitionSystem(states=store.states, transitions=transitions,
                            labelling=label_states(store.states, spec),
                            semantics=spec.semantics, predicates=tuple(spec.preds),
                            actions=tuple(spec.actions), partial=partial)
