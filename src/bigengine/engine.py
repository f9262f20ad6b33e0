"""Execution: priority scheduling, instantaneous fixpoints, the four
transition semantics, seeded simulation, and bounded breadth-first
state-space exploration with predicate labelling.

States are abstract: successors that are isomorphic are merged, with
probability (pbrs, abrs) or rate (sbrs) mass summed. Instantaneous
classes reduce to a fixpoint (``reduce_instantaneous``, the one settle)
before a state is ever stored or stepped from, so no instantaneous class
above a state's first enabled normal class has an enabled occurrence,
and a step skips the instantaneous classes. It does not apply a hit
with the rule and orbit key (``canon.orbit_key``) of an earlier hit
whose settle fired nothing. A checked settle walks every order from the
first state on its path with a choice.

``explore`` identifies before it works: a hit of a stutter rule
(``ReactionRule.stutter``, sides iso_equal and the identity
instantiation) joins the group of the state it expands, unapplied, and
a rewrite its store already holds is not settled, since every stored
state is settled. ``simulate`` takes neither shortcut: a successor that
is the state itself, not a renumbered rewrite, would change the order
of later hits and so the trace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bigraph import Bigraph, exact_fields
from .canon import StateStore, orbit_key
from .elaborate import BrsSpec
from .errors import DivergentInstantaneous, InitNotGround, NonConfluence, RateOverflow
from .matching import _occurrences, check_constraints, find_occurrences, matches_predicate
from .rules import ReactionRule, apply_at

INSTANTANEOUS_BOUND = 10 ** 6


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
    init_index: int = 0
    # successor groups the state bound dropped: (src, label, rule names)
    dropped: list[tuple[int, object, frozenset]] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """Whether the state bound cut the system off."""
        return bool(self.dropped)


@dataclass
class SimTrace:
    """steps[0] is the settled initial state; every later entry records the
    rule applied to reach it and the transition's label."""

    steps: list                 # (state, rule name | None, label)
    seed: int
    time: float | None = None   # accumulated dwell time, sbrs only
    times: list | None = None   # cumulative time at each step, sbrs only


def enabled_class(state: Bigraph, spec: BrsSpec):
    """Highest-priority normal class with a constraint-passing occurrence,
    with all its applications; None at deadlock. The state is settled, so
    no instantaneous class above that class has one: they are skipped."""
    return _enabled(state, spec, False)


def _enabled(state, spec, settling):
    """enabled_class, or when settling: the highest enabled class and its
    applications if it is instantaneous, else None (the state is
    settled). Settling stops at a normal class that no instantaneous
    class follows, unsearched; it searches one that an instantaneous
    class follows only up to its first application."""
    classes = spec.classes
    for ci, cls in enumerate(classes):
        if cls.instantaneous != settling:
            if settling and (not any(c.instantaneous for c in classes[ci + 1:]) or any(
                    not rule.constraints or check_constraints(occ, rule.constraints)
                    for rule in cls.rules for occ in _occurrences(state, rule.lhs))):
                return None
            continue
        # rules with equal left sides share one (elaboration interns them):
        # each left side is searched once, each guarded rule's guards checked
        lhss = {id(rule.lhs): rule.lhs for rule in cls.rules}
        found = {k: find_occurrences(state, lhs) for k, lhs in lhss.items()}
        hits = [(rule, occ) for rule in cls.rules for occ in found[id(rule.lhs)]
                if not rule.constraints or check_constraints(occ, rule.constraints)]
        if hits:
            return ci, hits
    return None


def check_confluent_settle(state: Bigraph, spec: BrsSpec,
                           bound: int = INSTANTANEOUS_BOUND) -> None:
    """Raise NonConfluence when applying instantaneous rules in other
    orders settles state to non-isomorphic states. The walk follows one
    hit per orbit key (_orbit_heads) from each state, so it is complete; an
    order that does not settle within bound reductions raises
    DivergentInstantaneous, as the settle does."""
    terminals, visited = StateStore(), StateStore()
    stack = [(state, 0)]
    while stack:
        s, depth = stack.pop()
        if not visited.insert(s)[1]:
            continue
        res = _enabled(s, spec, True)
        if res is None:
            terminals.insert(s)
        elif depth == bound:
            raise _unsettled(bound)
        else:
            stack.extend((apply_at(s, rule, occ), depth + 1)
                         for rule, occ in _orbit_heads(s, res[1]))
    if len(terminals) > 1:
        raise NonConfluence(
            "instantaneous rules are not confluent: %d distinct settled states"
            % len(terminals))


def _orbit_heads(state, hits):
    """The first hit per (rule, ``orbit_key``): equal keys give isomorphic results."""
    heads: dict = {}
    for rule, occ in hits:
        heads.setdefault((id(rule), orbit_key(state, occ)), (rule, occ))
    return list(heads.values())


def reduce_instantaneous(state: Bigraph, spec: BrsSpec, check_confluence: bool = False,
                         bound: int = INSTANTANEOUS_BOUND) -> Bigraph:
    """Apply instantaneous rules (first occurrence in canonical order)
    until the highest-priority enabled class, if any, is a normal one,
    and return the settled state. If check_confluence, the first state
    with a choice goes to check_confluent_settle with what is left of the
    bound: every pick before it gives an isomorphic successor, so the
    walk from there covers every order."""
    # the settle is a function of the state, so meeting a state again means
    # it cycles; comparing with the state after 2^k - 1 reductions finds
    # any cycle within about three times its start plus its length, in
    # constant memory (Brent)
    for i in range(bound + 1):
        res = _enabled(state, spec, True)
        if res is None:
            return state
        if check_confluence and len(_orbit_heads(state, res[1])) > 1:      # a choice
            check_confluent_settle(state, spec, bound - i)
            check_confluence = False
        rule, occ = res[1][0]
        if i & (i + 1) == 0:
            mark = exact_fields(state)
        state = apply_at(state, rule, occ)
        if exact_fields(state) == mark:
            raise DivergentInstantaneous(
                "instantaneous rule %s revisits a state, so the classes never settle"
                % rule.name)
    raise _unsettled(bound)


def _unsettled(bound):
    return DivergentInstantaneous(
        "instantaneous classes did not settle within %d reductions" % bound)


@dataclass
class Successor:
    dst: Bigraph
    label: object
    rule_names: frozenset
    weight: Fraction | float | None = None   # aggregate mass of the group
    members: list = field(default_factory=list)   # (rule, occ) in canonical order


def _group_results(state, spec, hits, check_confluence=False, store=None):
    """Apply every hit, settle, and merge isomorphic successors in
    first-seen order. Returns the groups, each listing its hits as
    members; labels and weights are left to the caller.

    A head is a hit whose settle fired no instantaneous rule. A later hit
    of the same rule with the head's orbit key (``canon.orbit_key``)
    joins the head's group unapplied: its result is isomorphic to the
    head's, so it too would settle to itself and be merged into that
    group. A settle that fired picks by image index, so its orbit-mates
    may settle elsewhere: they are applied. Hits of one orbit may have
    other keys: each is applied, and the step's own store merges the
    results.

    With the store of the states found so far (``explore``'s), a hit
    takes one of two shortcuts. A hit of a stutter rule
    (``ReactionRule.stutter``) would rewrite state to an isomorphic one,
    so it joins state's own group unapplied, with no orbit key. Any other
    rewrite the store holds is not settled: every stored state is
    settled, and isomorphism keeps whether an instantaneous occurrence
    is enabled, so its settle would fire nothing, checked or not.
    ``simulate`` passes no store: a group of state itself, not of a
    renumbered rewrite, would change the order of later hits.
    """
    seen = StateStore()
    groups = []
    heads: dict = {}            # (rule, orbit key) -> head's group index
    for rule, occ in hits:
        stutter = store is not None and rule.stutter
        key = None if stutter else (id(rule), orbit_key(state, occ))
        gi = heads.get(key)
        if gi is None:
            if stutter:
                dst = state
            else:
                applied = apply_at(state, rule, occ)
                if store is not None and store.lookup(applied) is not None:
                    dst = applied
                else:
                    dst = reduce_instantaneous(applied, spec, check_confluence)
            gi, added = seen.insert(dst)
            if added:
                groups.append(Successor(dst=dst, label=None, rule_names=frozenset()))
            if key is not None and dst is applied:
                heads[key] = gi
        groups[gi].members.append((rule, occ))
    for g in groups:
        g.rule_names = frozenset(r.name for r, _ in g.members)
    return groups


def step_distribution(state: Bigraph, spec: BrsSpec, check_confluence: bool = False,
                      store: StateStore | None = None) -> list[Successor]:
    """Successor distribution of an instantaneous-settled state.

    brs: one unlabelled successor per distinct result. pbrs: every
    occurrence of rule r contributes weight w_r, normalised over the
    enabled class. sbrs: rates sum per merged successor (race). abrs:
    weights normalised per (state, action). A store that holds state lets
    the grouping skip work (``_group_results``).
    """
    res = enabled_class(state, spec)
    if res is None:
        return []
    _, hits = res
    sem = spec.semantics
    if sem != "abrs":
        groups = _group_results(state, spec, hits, check_confluence, store)
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
            groups = _group_results(state, spec, sub, check_confluence, store)
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
            steps[-1][0].shed()
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
        steps[-1][0].shed()
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
    matched = [_matched(s, spec) for s in states]
    return {name: {k for k, m in enumerate(matched) if name in m} for name in spec.preds}


def _matched(state: Bigraph, spec: BrsSpec) -> set[str]:
    """The names of the predicates that state matches."""
    return {name for name, pat in spec.preds.items() if matches_predicate(state, pat)}


def explore(spec: BrsSpec, max_states: int,
            check_confluence: bool = False) -> TransitionSystem:
    """Breadth-first state-space construction from the settled initial
    state. New states beyond max_states are dropped, each successor group
    that leads to one recorded in ``dropped`` (the result is partial);
    every stored state is still expanded towards stored successors, then
    labelled and shed. States are deduplicated by ``canon.certificate``,
    confirmed by iso_equal only when it is not exact."""
    if not spec.init.is_ground():
        raise InitNotGround("Init bigraph is not ground")
    store = StateStore(max(max_states, 1))     # the initial state is always stored
    store.insert(reduce_instantaneous(spec.init, spec, check_confluence))
    transitions: list[Transition] = []
    dropped = []
    labelling: dict[str, set[int]] = {name: set() for name in spec.preds}
    names: dict = {}                 # each distinct set of rule names, to itself
    for i, state in enumerate(store.states):   # the store grows as it is walked
        for g in step_distribution(state, spec, check_confluence, store):
            j = store.insert(g.dst)[0]
            g.rule_names = names.setdefault(g.rule_names, g.rule_names)
            if j is None:
                dropped.append((i, g.label, g.rule_names))
                continue
            transitions.append(Transition(i, j, g.label, g.rule_names))
        for name in _matched(state, spec):
            labelling[name].add(i)
        state.shed()
    return TransitionSystem(states=store.states, transitions=transitions, labelling=labelling,
                            semantics=spec.semantics, predicates=tuple(spec.preds),
                            actions=tuple(spec.actions), dropped=dropped)
