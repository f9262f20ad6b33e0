import dataclasses
from fractions import Fraction

import pytest

from bigengine import canon, engine, iso_equal, make_atom, matching, merge, nest, one
from bigengine.elaborate import load, load_file
from bigengine.engine import (
    check_confluent_settle,
    enabled_class,
    explore,
    reduce_instantaneous,
    simulate,
    step_distribution,
)
from bigengine.errors import DivergentInstantaneous, NonConfluence
from bigengine.matching import check_constraints, find_occurrences, matches_predicate
from bigengine.printing import print_bigraph
from bigengine.rules import apply_at

from conftest import MODELS
from genutil import all_applications, take_one_colour

BLOCK_TAIL = "end\n"


def test_priority_scan_vault():
    spec = load_file(MODELS / "vault.big")
    # initial state: only tryOpen's class is enabled
    ci, hits = enabled_class(spec.init, spec)
    assert ci == 1
    assert {r.name for r, _ in hits} == {"tryOpen"}


def test_deadlock_is_none():
    spec = load("ctrl A = 0;\nbig s = A.1;\nbegin brs init s; rules = []; end\n")
    assert enabled_class(spec.init, spec) is None


def test_no_instantaneous_identity():
    spec = load_file(MODELS / "vault.big")
    assert reduce_instantaneous(spec.init, spec) is spec.init


def test_instantaneous_fixpoint():
    src = """
atomic ctrl A = 0;
atomic ctrl B = 0;
react step = A --> B;
big s0 = A | A;
begin brs
  init s0;
  rules = [ (step) ];
end
"""
    spec = load(src)
    settled = reduce_instantaneous(spec.init, spec)
    assert sorted(settled.ctrl) == ["B", "B"]
    ts = explore(spec, 10)
    assert len(ts.states) == 1 and len(ts.transitions) == 0


PING_PONG = """
atomic ctrl A = 0;
atomic ctrl B = 0;
react ping = A --> B;
react pong = B --> A;
big s0 = A;
begin brs
  init s0;
  rules = [ (ping, pong) ];
end
"""

SPIN = """
atomic ctrl A = 0;
atomic ctrl B = 0;
react spin = A --> A;
react grow = B --> A | B;
big s0 = A | B;
begin brs
  init s0;
  rules = [ (spin), {grow} ];
end
"""


def test_instantaneous_divergence():
    spec = load(PING_PONG)
    with pytest.raises(DivergentInstantaneous):
        reduce_instantaneous(spec.init, spec, bound=50)


@pytest.mark.parametrize("src", [SPIN, PING_PONG], ids=["spin", "ping-pong"])
def test_settle_stops_at_a_revisited_state(monkeypatch, src):
    # a settle is a function of its state, so once it meets a state again
    # it cannot end: it stops a few reductions later, not at the default
    # reduction bound
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 100, "the settle ran past a revisited state"
        return apply_at(*args)

    monkeypatch.setattr(engine, "apply_at", counted)
    spec = load(src)
    with pytest.raises(DivergentInstantaneous, match="revisits a state"):
        reduce_instantaneous(spec.init, spec)
    assert len(calls) <= 3


SPLIT = """
atomic ctrl A = 2;
atomic ctrl B = 1;
atomic ctrl C = 1;
atomic ctrl M = 1;
atomic ctrl N = 1;
react split = A{x,y} --> M{x} | N{y};
big s0 = %s;
begin brs
  init s0;
  rules = [ {split} ];
end
"""


def test_isomorphic_states_have_isomorphic_successors():
    # the inits differ only in how their closed edges are numbered; x may
    # land on the B link or on the C link, and both rewrites are kept
    a, b = (load(SPLIT % init) for init in ("/b/c (A{b,c} | B{b} | C{c})",
                                            "/c/b (A{b,c} | B{b} | C{c})"))
    assert iso_equal(a.init, b.init)
    succ_a, succ_b = ([g.dst for g in step_distribution(s.init, s)] for s in (a, b))
    assert len(succ_a) == len(succ_b) == 2
    assert not iso_equal(*succ_a)
    assert all(sum(iso_equal(x, y) for y in succ_b) == 1 for x in succ_a)


def test_confluence_check_accepts_commuting():
    src = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
atomic ctrl D = 0;
react r1 = A --> B;
react r2 = C --> D;
big s0 = A | C;
begin brs
  init s0;
  rules = [ (r1, r2) ];
end
"""
    spec = load(src)
    assert check_confluent_settle(spec.init, spec) is None
    assert sorted(reduce_instantaneous(spec.init, spec).ctrl) == ["B", "D"]


def test_confluence_check_rejects_divergent():
    src = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
react left = A --> B;
react right = A --> C;
big s0 = A;
begin brs
  init s0;
  rules = [ (left, right) ];
end
"""
    spec = load(src)
    with pytest.raises(NonConfluence):
        check_confluent_settle(spec.init, spec)


def test_instantaneous_settles_before_storage():
    spec = load_file(MODELS / "fix_leave_inst.big")
    ts = explore(spec, 50)
    assert len(ts.states) == 3
    assert ts.labelling["insecure"] == set()
    for state in ts.states:
        assert reduce_instantaneous(state, spec) is state
    # the check can fail: a hit's raw rewrite leaves the panel linked
    # across rooms, and fix_secure fires on it
    _, hits = enabled_class(ts.states[0], spec)
    raw = apply_at(ts.states[0], *hits[0])
    assert reduce_instantaneous(raw, spec) is not raw


def test_pbrs_distribution():
    spec = load_file(MODELS / "pbrs_detect_capped.big")
    groups = step_distribution(spec.init, spec)
    by_rule = {tuple(sorted(g.rule_names)): g.label for g in groups}
    assert by_rule[("detect",)] == Fraction(4, 5)
    assert by_rule[("avoid_detect",)] == Fraction(1, 5)


def test_pbrs_two_matches_vs_one():
    spec = load_file(MODELS / "pbrs_detect_two.big")
    groups = step_distribution(spec.init, spec)
    by_rule = {tuple(sorted(g.rule_names)): g.label for g in groups}
    assert by_rule[("detect",)] == Fraction(8, 9)
    assert by_rule[("avoid_detect",)] == Fraction(1, 9)


def test_sbrs_rates():
    spec = load_file(MODELS / "sbrs_entrance.big")
    groups = step_distribution(spec.init, spec)
    rates = {tuple(sorted(g.rule_names)): g.label for g in groups}
    assert rates[("enter",)] == 0.2
    assert rates[("enter_intruder",)] == 0.01
    assert ("exit",) not in rates


def test_probabilities_sum_to_one():
    for name in ("pbrs_detect_capped.big", "pbrs_detect_two.big"):
        spec = load_file(MODELS / name)
        ts = explore(spec, 50)
        for i in range(len(ts.states)):
            out = [t for t in ts.transitions if t.src == i]
            if out:
                assert sum(t.label for t in out) == 1


def test_abrs_per_action_normalisation():
    spec = load_file(MODELS / "abrs_guards.big")
    groups = step_distribution(spec.init, spec)
    per_action = {}
    for g in groups:
        action, p = g.label
        per_action.setdefault(action, Fraction(0))
        per_action[action] += p
    assert per_action == {"move": Fraction(1), "check": Fraction(1)}
    move = [g for g in groups if g.label[0] == "move"]
    assert sorted(float(g.label[1]) for g in move) == [1 / 6, 5 / 6]


def test_priority_blocks_lower_class():
    spec = load_file(MODELS / "fix_leave.big")
    ts = explore(spec, 50)
    # from the state where fix_secure applies, leave_room is never taken
    rules = {r.name: r for r in spec.rules()}
    for i, state in enumerate(ts.states):
        res = enabled_class(state, spec)
        if res is None:
            continue
        ci, hits = res
        taken = set()
        for t in ts.transitions:
            if t.src == i:
                taken |= t.rule_names
        class_rules = {r.name for r in spec.classes[ci].rules}
        assert taken <= class_rules


def test_simulate_reproducible():
    spec = load_file(MODELS / "secure_building.big")
    t1 = simulate(spec, 25, seed=7)
    t2 = simulate(spec, 25, seed=7)
    assert [s[1] for s in t1.steps] == [s[1] for s in t2.steps]
    assert all(iso_equal(a[0], b[0]) for a, b in zip(t1.steps, t2.steps))
    t3 = simulate(spec, 25, seed=8)
    assert len(t3.steps) == 26


def test_simulate_zero_steps():
    spec = load_file(MODELS / "vault.big")
    trace = simulate(spec, 0, seed=1)
    assert len(trace.steps) == 1
    assert iso_equal(trace.steps[0][0], spec.init)


def test_simulate_vault_reaches_open():
    spec = load_file(MODELS / "vault.big")
    trace = simulate(spec, 40, seed=3)
    assert any(matches_predicate(s, spec.preds["vaultOpen"])
               for s, _, _ in trace.steps)


def test_simulate_sbrs_time_accumulates():
    spec = load_file(MODELS / "sbrs_entrance.big")
    trace = simulate(spec, 10, seed=11)
    assert trace.time is not None and trace.time > 0
    assert trace.times == sorted(trace.times)


def test_simulate_secure_building_placements():
    spec = load_file(MODELS / "secure_building.big")
    ts = explore(spec, 10)
    trace = simulate(spec, 30, seed=5)
    for state, _, _ in trace.steps:
        # each trace state is one of the four reachable placements
        count = sum(
            1 for p in ("entrance", "seen", "serverRoom")
            if matches_predicate(state, spec.preds[p]))
        assert count <= 1
        assert any(iso_equal(state, s) for s in ts.states)


def test_explore_secure_building():
    spec = load_file(MODELS / "secure_building.big")
    ts = explore(spec, 100)
    assert len(ts.states) == 4
    assert len(ts.transitions) == 10
    assert not ts.partial
    for p in ("seen", "entrance", "serverRoom"):
        assert len(ts.labelling[p]) == 1
    assert ts.labelling["entrance"] == {0}


def test_explore_no_rules():
    spec = load("ctrl A = 0;\nbig s = A.1;\nbegin brs init s; rules = []; end\n")
    ts = explore(spec, 10)
    assert len(ts.states) == 1 and ts.transitions == []


def test_explore_partial_flag():
    spec = load_file(MODELS / "sbrs_entrance.big")
    ts = explore(spec, 5)
    assert ts.partial and len(ts.states) == 5
    # each stored state's successor groups are kept or listed as dropped
    assert ts.dropped
    for i, state in enumerate(ts.states):
        want = sorted((g.label, sorted(g.rule_names)) for g in step_distribution(state, spec))
        kept = [(t.label, sorted(t.rule_names)) for t in ts.transitions if t.src == i]
        cut = [(label, sorted(rules)) for src, label, rules in ts.dropped if src == i]
        assert sorted(kept + cut) == want


def test_certifying_builds_no_derived_maps():
    # the certificate reads the parent sets and ports itself: on a fresh
    # copy it leaves only itself, the labels and its twin data (a class
    # per node, a colour per class and per edge, a port class per port),
    # and no children or link_points map on a successor that may merge
    # away
    for path in sorted(MODELS.glob("*.big")):
        for b in explore(load_file(path), 8).states:
            fresh = dataclasses.replace(b, _cache={})
            canon.certificate(fresh)
            assert sorted(fresh._cache) == ["certificate", "labels", "twins"]
            cls, ccol, ecol, ends = fresh._cache["twins"]
            assert len(cls) == b.n and set(cls) == set(range(len(ccol)))
            assert len(ecol) == len(ends) == b.edges
            assert sorted(c for cs in ends for c in cs) == sorted(
                cls[i] for i, hs in enumerate(b.ports) for h in hs if h[0] == "e")


def test_explore_spawn_chain():
    spec = load_file(MODELS / "spawn.big")
    ts = explore(spec, 100)
    assert len(ts.states) == 7          # Proc(0) .. Proc(0..6)
    assert len(ts.transitions) == 6
    assert not ts.partial


def test_trace_steps_are_single_applications():
    spec = load_file(MODELS / "secure_building.big")
    trace = simulate(spec, 12, seed=2)
    rules = {r.name: r for r in spec.rules()}
    for (prev, _, _), (cur, rule_name, _) in zip(trace.steps, trace.steps[1:]):
        results = [res for _, res in all_applications(prev, rules[rule_name])]
        assert any(iso_equal(res, cur) for res in results)


def test_vault_clean_has_priority_over_tryopen():
    # state after a failed login attempt: the cleanup class wins even
    # though the start rule also matches
    spec = load_file(MODELS / "vault_one.big")
    ts = explore(spec, 100)
    cleaned = 0
    for i, state in enumerate(ts.states):
        res = enabled_class(state, spec)
        if res is not None and res[0] == 0:
            taken = set()
            for t in ts.transitions:
                if t.src == i:
                    taken |= t.rule_names
            assert taken == {"clean"}
            cleaned += 1
    assert cleaned >= 1


def test_turntaking_phases_alternate():
    spec = load_file(MODELS / "turntaking.big")
    ts = explore(spec, 12)
    from bigengine import make_atom, nest
    sig = spec.signature
    movement = nest(make_atom(sig, "Control"), make_atom(sig, "Movement"))
    sensing = nest(make_atom(sig, "Control"), make_atom(sig, "Sensing"))
    for state in ts.states:
        in_move = matches_predicate(state, movement)
        in_sense = matches_predicate(state, sensing)
        assert in_move != in_sense          # exactly one phase at a time
    # sensing with a camera present raises an alarm eventually
    alarmed = make_atom(sig, "Alarm")
    assert any(matches_predicate(s, alarmed) for s in ts.states)


def test_sense_requires_ctx_phase():
    spec = load_file(MODELS / "turntaking.big")
    rules = {r.name: r for r in spec.rules()}
    from bigengine import make_atom, merge, nest
    sig = spec.signature
    room = nest(make_atom(sig, "Room"),
                merge(make_atom(sig, "Camera"),
                      nest(make_atom(sig, "Person"), make_atom(sig, "Sense"))))
    for phase, expected in (("Sensing", 1), ("Movement", 0)):
        state = merge(room, nest(make_atom(sig, "Control"), make_atom(sig, phase)))
        assert len(all_applications(state, rules["sense"])) == expected


PRIORITY_MODEL = """
atomic ctrl Intruder = 0;
atomic ctrl Camera = 0;
atomic ctrl Alarm = 0;
ctrl Room = 0;
react move = Room.(Intruder | id) || Room.id --> Room.id || Room.(Intruder | id);
react detect = Room.(Intruder | Camera | id) --> Room.(Intruder | Camera | Alarm | id)
  if !Alarm in param;
big s0 = Room.(Intruder | Camera) || Room.1;
begin brs
  init s0;
  rules = [ %s ];
end
"""


def test_normal_class_above_enabled_instantaneous_settles_nothing():
    # settling searches a normal class only for its first application;
    # ranked above an enabled instantaneous class, it leaves the state as
    # it is, while ranked below it lets the instantaneous rule fire
    for classes, detected in (("{move}, (detect)", False), ("(detect), {move}", True)):
        spec = load(PRIORITY_MODEL % classes)
        alarm = make_atom(spec.signature, "Alarm")
        settled = reduce_instantaneous(spec.init, spec)
        assert (settled is spec.init) is not detected
        assert matches_predicate(settled, alarm) is detected
        assert iso_equal(explore(spec, 20, check_confluence=True).states[0], settled)
        assert iso_equal(simulate(spec, 0, seed=1).steps[0][0], settled)
        ts = explore(spec, 20)
        assert iso_equal(ts.states[0], settled)
        assert any(matches_predicate(s, alarm) for s in ts.states) is detected


def test_pbrs_merges_after_instantaneous_settling():
    # two distinct applications settle to isomorphic states: one merged
    # successor carrying the summed probability
    src = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl Raw = 0;
ctrl Box = 0;
react pick_a = Box.(A | id) -[1]-> Box.(Raw | id);
react pick_b = Box.(B | id) -[3]-> Box.(Raw | id);
react cook = Raw -[1]-> A;
big s0 = Box.(A | B);
begin pbrs
  init s0;
  rules = [ (cook), {pick_a, pick_b} ];
end
"""
    spec = load(src)
    groups = step_distribution(spec.init, spec)
    # both picks settle, via the instantaneous cook, to Box.(A | ...) shapes
    labels = sorted(float(g.label) for g in groups)
    assert sum(labels) == 1.0
    ts = explore(spec, 20)
    for state in ts.states:
        assert "Raw" not in state.ctrl      # never stored unsettled


def _hits_view(res):
    if res is None:
        return None
    ci, hits = res
    return ci, [(rule, occ.sort_key(), occ.node_map, occ.link_map) for rule, occ in hits]


# After cook, the search of `pair` yields each image twice (its two A are
# interchangeable) and not in image order, so a step after a settle must
# still dedupe and sort.
SYMMETRIC_PAIRS = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
react cook = C --> A;
react pair = B | A | A --> B | C;
big s0 = A | B | B | A | C;
begin brs
  init s0;
  rules = [ (cook), {pair} ];
end
"""


# A normal class above an instantaneous one: the settle must search go,
# and reduce tidy only once go is disabled; the step searches go again.
NORMAL_ABOVE_INSTANTANEOUS = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
react go = A --> B;
react tidy = B --> C;
big s0 = A | A;
begin brs
  init s0;
  rules = [ {go}, (tidy) ];
end
"""


def _priority_scan(state, spec):
    """The first class, instantaneous or not, with a guard-passing hit,
    and all its hits: every class is searched, none skipped."""
    for ci, cls in enumerate(spec.classes):
        hits = [(rule, occ) for rule in cls.rules for occ in find_occurrences(state, rule.lhs)
                if check_constraints(occ, rule.constraints)]
        if hits:
            return ci, hits
    return None


def test_steps_skip_only_empty_instantaneous_classes(monkeypatch):
    # every state a step runs on is settled, so skipping the instantaneous
    # classes loses nothing: the step gets the class and hits of a full
    # priority scan of a cache-free copy of the state
    step = engine.enabled_class
    steps = 0

    def checked(state, spec):
        nonlocal steps
        steps += 1
        res = step(state, spec)
        assert _hits_view(res) == _hits_view(
            _priority_scan(dataclasses.replace(state, _cache={}), spec))
        return res

    monkeypatch.setattr(engine, "enabled_class", checked)
    models = sorted(MODELS.glob("*.big"))
    assert len(models) == 22
    for path in models + [SYMMETRIC_PAIRS, NORMAL_ABOVE_INSTANTANEOUS]:
        spec = load_file(path) if path in models else load(path)
        steps = 0
        for seed in (1, 2, 3):
            simulate(spec, 30, seed)
        explore(spec, 60)
        assert steps > 0, path


# Models where a careless orbit skip would merge successors that differ.
# K under a 3-cycle or a 4-cycle of C: colour refinement cannot tell the
# cycles apart, so only the pinned search keeps the two kinds of hit apart.
CYCLES = """
ctrl C = 2;
atomic ctrl K = 0;
atomic ctrl L = 0;
react mark = K --> L;
big s0 = /a/b/c (C{a,b}.K | C{b,c}.K | C{c,a}.K)
       | /d/e/f/g (C{d,e}.K | C{e,f}.K | C{f,g}.K | C{g,d}.K);
begin brs
  init s0;
  rules = [ {mark} ];
end
"""

# The two A are interchangeable, but the search gives x the lower
# numbered of the links on A: the C link of one A and the B link of the
# other. Only the link images tell the two hits apart.
PORT_ORDER = """
atomic ctrl A = 2;
atomic ctrl B = 1;
atomic ctrl C = 1;
atomic ctrl M = 1;
atomic ctrl N = 1;
react split = A{x,y} --> M{x} | N{y};
big s0 = /b1/c1 (A{b1,c1} | B{b1} | C{c1}) | /c2/b2 (A{b2,c2} | B{b2} | C{c2});
begin brs
  init s0;
  rules = [ {split} ];
end
"""

# The two go hits are interchangeable, but take then picks the lower
# numbered B, which is linked to the untouched A after one hit and to
# the new X after the other: the settled results differ.
SETTLE_PICKS = """
ctrl Room = 0;
atomic ctrl A = 1;
atomic ctrl B = 1;
atomic ctrl D = 1;
atomic ctrl X = 1;
atomic ctrl Tok = 0;
react go = A{x} --> X{x} | Tok;
react take = B{x} | Tok --> D{x};
big s0 = Room.(/l1/l2 (A{l1} | A{l2} | B{l2} | B{l1}));
begin brs
  init s0;
  rules = [ (take), {go} ];
end
"""

# Two interchangeable atoms: the second hit is never applied.
TWINS = """
ctrl Room = 0;
atomic ctrl A = 0;
atomic ctrl B = 0;
react go = A --> B;
big s0 = Room.(A | A);
begin brs
  init s0;
  rules = [ {go} ];
end
"""

# Two rooms of two A each: colour refinement gives every A one colour,
# but a same-room pair and a cross-room pair lie in different orbits.
ROOM_PAIRS = """
ctrl R = 0;
atomic ctrl A = 0;
atomic ctrl B = 0;
react r = A || A --> B || B;
big s0 = R.(A | A) | R.(A | A);
begin brs
  init s0;
  rules = [ {r} ];
end
"""


def _counting_apply(monkeypatch):
    """Count engine.apply_at calls per rule name."""
    counts = {}
    real = engine.apply_at

    def counted(state, rule, occ):
        counts[rule.name] = counts.get(rule.name, 0) + 1
        return real(state, rule, occ)

    monkeypatch.setattr(engine, "apply_at", counted)
    return counts


@pytest.mark.parametrize("refined", [True, False], ids=["refined", "one-colour"])
def test_orbit_skipping_is_invisible(monkeypatch, refined):
    # every member of every group, applied and settled afresh, lands in
    # its group's state, whether or not the step applied it. Orbit keys
    # read twin and port classes, no colour and no certificate, so hits
    # are skipped either way; with one colour and no certificate exact,
    # iso_equal's exact check alone must keep the inline models right
    real_apply, real_settle, real_step = (engine.apply_at, engine.reduce_instantaneous,
                                          engine.step_distribution)
    expanding = None
    applied = members = 0

    def counted(state, rule, occ):
        nonlocal applied
        applied += state is expanding         # a hit, not a settle's reduction
        return real_apply(state, rule, occ)

    def checked(state, spec, check_confluence=False, store=None):
        nonlocal expanding, members
        expanding = state
        groups = real_step(state, spec, check_confluence, store)
        expanding = None
        for g in groups:
            for rule, occ in g.members:
                members += not rule.stutter   # a stutter hit is never applied
                dst = real_settle(real_apply(state, rule, occ), spec)
                assert iso_equal(dst, g.dst), rule.name
        return groups

    monkeypatch.setattr(engine, "apply_at", counted)
    monkeypatch.setattr(engine, "step_distribution", checked)
    models = sorted(MODELS.glob("*.big"))
    assert len(models) == 22
    inline = [TWINS, CYCLES, PORT_ORDER, SETTLE_PICKS, ROOM_PAIRS]
    if not refined:             # CYCLES gains nothing here, as refinement cannot split it
        take_one_colour(monkeypatch)
        models, inline = [], [TWINS, PORT_ORDER, SETTLE_PICKS, ROOM_PAIRS]
    for path in models + inline:
        spec = load_file(path) if path in models else load(path)
        explore(spec, 60)
    assert applied < members


def test_orbit_mates_are_not_applied(monkeypatch):
    # two identical atoms in one room: one application, one group of two
    spec = load(TWINS)
    applied = _counting_apply(monkeypatch)
    groups = step_distribution(spec.init, spec)
    assert [len(g.members) for g in groups] == [2]
    assert applied == {"go": 1}
    applied.clear()
    assert len(explore(spec, 10).states) == 3
    assert applied == {"go": 2}               # of 2 + 1 hits


def test_orbit_keys_read_no_certificate(monkeypatch):
    # R.(A | A) | R.(A | A): six hits in two orbits, the two same-room
    # pairs and the four cross-room ones. Every A has one colour, so the
    # certificate is not exact, yet the twin keys skip three hits; and
    # with the certificate taken as exact, where colour keys would merge
    # all six, the groups are the same
    spec = load(ROOM_PAIRS)
    assert not canon.certificate(spec.init)[0]
    applied = _counting_apply(monkeypatch)
    groups = step_distribution(spec.init, spec)
    assert sorted(len(g.members) for g in groups) == [2, 4]
    assert applied == {"r": 3}
    real = canon.certificate
    monkeypatch.setattr(canon, "certificate", lambda b: (True, *real(b)[1:]))
    assert sorted(len(g.members) for g in step_distribution(spec.init, spec)) == [2, 4]


def test_orbit_mates_of_settling_heads_are_applied(monkeypatch):
    # a head whose settle fired an instantaneous rule vouches for nothing:
    # its orbit-mate is applied and here settles elsewhere
    spec = load(SETTLE_PICKS)
    applied = _counting_apply(monkeypatch)
    groups = step_distribution(spec.init, spec)
    assert applied["go"] == 2 == sum(len(g.members) for g in groups)
    assert len(groups) == 2


def test_equal_left_sides_are_searched_once(monkeypatch):
    # detect and avoid_detect share Room.(Intruder | Camera | id): one
    # search per expanded state serves both rules
    spec = load_file(MODELS / "pbrs_detect.big")
    calls = 0
    real = engine.find_occurrences

    def counted(state, pattern):
        nonlocal calls
        calls += 1
        return real(state, pattern)

    monkeypatch.setattr(engine, "find_occurrences", counted)
    ts = explore(spec, 40)
    assert len(ts.states) == 40
    assert calls == 40
    detect, avoid = spec.classes[0].rules
    assert detect.lhs is avoid.lhs


STUTTERS = {("abrs_guards.big", "check_room_safe"), ("abrs_guards.big", "move_stay"),
            ("pbrs_detect.big", "avoid_detect"), ("pbrs_detect_capped.big", "avoid_detect"),
            ("pbrs_detect_two.big", "avoid_detect")}


def test_stutter_rules_are_flagged():
    # the rules whose sides are iso_equal, with the identity instantiation
    flagged = {(path.name, rule.name) for path in sorted(MODELS.glob("*.big"))
               for rule in load_file(path).rules() if rule.stutter}
    assert flagged == STUTTERS


@pytest.mark.parametrize("inst, stutter", [("", True), ("@[1,0]", False), ("@[0,1]", True)],
                         ids=["implicit", "swapped", "identity"])
def test_swapping_parameters_is_no_stutter(inst, stutter):
    # equal sides, but @[1,0] puts each parameter under the other node:
    # from A.X | B.Y the swap gives A.Y | B.X, a new state
    spec = load("""
ctrl A = 0; ctrl B = 0; atomic ctrl X = 0; atomic ctrl Y = 0;
react swap = A.id | B.id --> A.id | B.id %s;
begin brs init A.X | B.Y; rules = [ {swap} ]; end
""" % inst)
    rule, = spec.rules()
    assert rule.stutter is stutter
    assert len(explore(spec, 10).states) == (1 if stutter else 2)


def test_stutter_hits_rewrite_to_their_state():
    # the property the shortcut rests on: every guard-passing hit of a
    # stutter rule on a stored state rewrites to a state iso_equal to it
    hits = 0
    for path in sorted(MODELS.glob("*.big")):
        spec = load_file(path)
        stutters = [rule for rule in spec.rules() if rule.stutter]
        for state in explore(spec, 60).states if stutters else ():
            for rule in stutters:
                for _, result in all_applications(state, rule):
                    assert iso_equal(result, state), (path.name, rule.name)
                    hits += 1
    assert hits == 153


def test_stutter_hits_are_not_applied(monkeypatch):
    # explore adds a stutter hit to the group of the state it expands,
    # unapplied: a self-loop that the other rules' hits may share
    applied = _counting_apply(monkeypatch)
    for name in ("pbrs_detect.big", "abrs_guards.big"):
        stutters = {rule for model, rule in STUTTERS if model == name}
        applied.clear()
        ts = explore(load_file(MODELS / name), 60)
        assert applied and not stutters & applied.keys(), name
        loops = [t for t in ts.transitions if t.rule_names & stutters]
        assert loops and all(t.src == t.dst for t in loops), name


# A generated 4-room building (16 states): intruders move through doors,
# and an instantaneous class raises an alarm in a camera room.
ROOMS = """
atomic ctrl Intruder = 0;
atomic ctrl Camera = 0;
atomic ctrl Alarm = 0;
atomic ctrl Server = 0;
atomic ctrl Door = 1;
ctrl Room = 0;
react move =
  Room.(Intruder | Door{x} | id) || Room.(id | Door{x})
  --> Room.(Door{x} | id) || Room.(Intruder | id | Door{x});
react detect =
  Room.(Intruder | Camera | id) --> Room.(Intruder | Camera | Alarm | id)
  if !Alarm in param;
big building = /d0/d1/d2/d3/d4 (
   Room.(Intruder | Door{d0} | Door{d1} | Door{d2})
|| Room.(Intruder | Door{d0} | Door{d3})
|| Room.(Camera | Door{d1} | Door{d4})
|| Room.(Server | Door{d2} | Door{d3} | Door{d4}));
begin brs
  init building;
  rules = [ (detect), {move} ];
end
"""


@pytest.mark.parametrize("src", [ROOMS, (MODELS / "fix_leave_inst.big").read_text(),
                                 (MODELS / "secure_building.big").read_text()],
                         ids=["rooms", "fix-leave-inst", "secure-building"])
@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
def test_known_rewrites_are_not_settled(monkeypatch, src, check):
    # a rewrite that explore's store already holds is settled, so only
    # the others are settled; the artifacts stay those of settling all
    real_store, real_settle = engine.StateStore, engine.reduce_instantaneous
    stores, settled = [], []

    def store(*args):
        stores.append(real_store(*args))
        return stores[-1]

    def counted(state, spec, *rest):
        assert not any(iso_equal(s, state) for s in stores[0].states)   # explore's store
        settled.append(state)
        return real_settle(state, spec, *rest)

    spec = load(src)
    want = explore(spec, 60, check_confluence=check)
    monkeypatch.setattr(engine, "StateStore", store)
    monkeypatch.setattr(engine, "reduce_instantaneous", counted)
    got = explore(spec, 60, check_confluence=check)
    # settling every applied hit would take the init's settle and at
    # least one per transition
    assert 1 < len(settled) <= len(got.transitions)
    assert len(got.states) == len(want.states)
    assert all(iso_equal(a, b) for a, b in zip(got.states, want.states))
    assert got.transitions == want.transitions


# One X that two instantaneous rules rewrite apart, beside twin D that
# settle one way; the normal class {k} keeps every settled state live.
CHOICE = """
atomic ctrl X = 0;
atomic ctrl Y = 0;
atomic ctrl Z = 0;
atomic ctrl D = 0;
atomic ctrl E = 0;
ctrl K = 0;
react x = X --> Y;
react y = X --> Z;
react d = D --> E;
react k = K.1 --> K.1;
big s0 = %s | K.1;
begin brs
  init s0;
  rules = [ (%s), {k} ];
end
"""


@pytest.mark.parametrize("ds", [6, 4])
def test_confluence_check_counts_orbits_not_hits(ds):
    # X | D x 6 has eight instantaneous hits but three orbits (x, y and
    # any one d), within the check's fan-out: both picks at X are followed
    spec = load(CHOICE % (" | ".join(["X"] + ["D"] * ds), "x, y, d"))
    with pytest.raises(NonConfluence):
        check_confluent_settle(spec.init, spec)
    with pytest.raises(NonConfluence):
        explore(spec, 10, check_confluence=True)


def test_confluence_check_applies_one_hit_per_orbit(monkeypatch):
    # six twin D: each state from D x 6 to D | E x 5 has one orbit of d
    # hits, so the check applies one hit there, six in all
    spec = load(CHOICE % (" | ".join(["D"] * 6), "d"))
    applied = _counting_apply(monkeypatch)
    assert check_confluent_settle(spec.init, spec) is None
    assert applied == {"d": 6}


# seven orbits at the init: x and y pick X apart, and five d rules each
# rewrite a control of their own
SEVEN = """
atomic ctrl X = 0;
atomic ctrl Y = 0;
atomic ctrl Z = 0;
atomic ctrl D1 = 0;
atomic ctrl D2 = 0;
atomic ctrl D3 = 0;
atomic ctrl D4 = 0;
atomic ctrl D5 = 0;
atomic ctrl E = 0;
ctrl K = 0;
react x = X --> Y;
react y = X --> Z;
react d1 = D1 --> E;
react d2 = D2 --> E;
react d3 = D3 --> E;
react d4 = D4 --> E;
react d5 = D5 --> E;
react k = K.1 --> K.1;
big s0 = X | D1 | D2 | D3 | D4 | D5 | K.1;
begin brs
  init s0;
  rules = [ (x, y, d1, d2, d3, d4, d5), {k} ];
end
"""


def test_confluence_check_is_complete_past_six_orbits():
    # no fan-out cap: the walk follows both picks at X among seven orbits
    spec = load(SEVEN)
    with pytest.raises(NonConfluence):
        check_confluent_settle(spec.init, spec)
    with pytest.raises(NonConfluence):
        explore(spec, 10, check_confluence=True)


def test_checked_settle_obeys_the_reduction_bound():
    # five twin D are one orbit, so no walk runs and the settle's own
    # loop counts its reductions
    spec = load(CHOICE % (" | ".join(["D"] * 5), "d"))
    with pytest.raises(DivergentInstantaneous, match="did not settle within 3 reductions"):
        reduce_instantaneous(spec.init, spec, True, 3)


# more grows the state at every reduction, so no order settles; x and y
# pick X apart, so a checked settle walks from the init
GROWING_CHOICE = """
atomic ctrl A = 0;
atomic ctrl X = 0;
atomic ctrl Y = 0;
atomic ctrl Z = 0;
ctrl K = 0;
react more = A --> A | A;
react x = X --> Y;
react y = X --> Z;
react k = K.1 --> K.1;
big s0 = A | X | K.1;
begin brs
  init s0;
  rules = [ (more, x, y), {k} ];
end
"""


@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
def test_confluence_walk_obeys_the_reduction_bound(check):
    # the walk gets what is left of the settle's bound, and stops an
    # order that passes it as the settle stops its own
    spec = load(GROWING_CHOICE)
    with pytest.raises(DivergentInstantaneous, match="did not settle within 5 reductions"):
        reduce_instantaneous(spec.init, spec, check, 5)


# x and d are parallel-independent at the init X | D, yet firing d first
# lets z take X: one order of the two hits is not enough
XDZ = """
atomic ctrl X = 0;
atomic ctrl Y = 0;
atomic ctrl D = 0;
atomic ctrl E = 0;
atomic ctrl W = 0;
ctrl K = 0;
react x = X --> Y;
react d = D --> E;
react z = E | X --> W;
react k = K.1 --> K.1;
big s0 = X | D | K.1;
begin brs
  init s0;
  rules = [ (x, d, z), {k} ];
end
"""


@pytest.mark.parametrize("src, walks", [
    ((MODELS / "fix_leave_inst.big").read_text(), 0),
    (CHOICE % (" | ".join(["D"] * 6), "d"), 0),
    (CHOICE % (" | ".join(["X"] + ["D"] * 6), "x, y, d"), 1),
    (XDZ, 1),
], ids=["fix-leave-inst", "twin-d", "x-d6", "x-d-z"])
def test_checked_settle_walks_only_at_a_choice(monkeypatch, src, walks):
    # the walk starts at the first state whose hits fall into two or more
    # orbits, once; a settle with no such state never walks, and builds
    # no store beyond those the unchecked run builds
    real = engine.check_confluent_settle
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    real_store = engine.StateStore
    stores = []

    def store(*args):
        stores.append(args)
        return real_store(*args)

    monkeypatch.setattr(engine, "check_confluent_settle", counted)
    spec = load(src)
    if walks:
        with pytest.raises(NonConfluence):
            explore(spec, 10, check_confluence=True)
        with pytest.raises(NonConfluence):
            real(spec.init, spec)
    else:
        monkeypatch.setattr(engine, "StateStore", store)
        counts = []
        for check in (False, True):
            stores.clear()
            explore(spec, 10, check_confluence=check)
            counts.append(len(stores))
        assert counts[0] == counts[1]
    assert calls == walks


def test_checked_settle_steps_each_state_once(monkeypatch):
    # under the confluence check a settle still ends in its own loop, and
    # each stored state, settled, is stepped from once
    real = engine.enabled_class
    stepped = []

    def recorded(state, spec):
        stepped.append(state)
        return real(state, spec)

    monkeypatch.setattr(engine, "enabled_class", recorded)
    spec = load_file(MODELS / "fix_leave_inst.big")
    assert any(cls.instantaneous for cls in spec.classes)
    ts = explore(spec, 50, check_confluence=True)
    assert len(stepped) == len(ts.states) == 3
    assert all(reduce_instantaneous(s, spec) is s for s in stepped)


def test_checked_settle_searches_its_path_once(monkeypatch):
    # no settle here has a choice, so the check never walks, and each
    # settle searches its path once, as it does unchecked
    real = engine._enabled
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_enabled", counted)
    spec = load_file(MODELS / "fix_leave_inst.big")
    counts = []
    for check in (False, True):
        calls.clear()
        explore(spec, 60, check_confluence=check)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("src", [SPIN, PING_PONG], ids=["spin", "ping-pong"])
def test_checked_settle_raises_on_a_revisit(src):
    # a settle with one hit at each state never walks, and its loop stops
    # at the revisit as it does unchecked
    spec = load(src)
    with pytest.raises(DivergentInstantaneous, match="revisits a state"):
        explore(spec, 10, check_confluence=True)


DERIVED_MAPS = ("children", "link_points", "link_partners")


def test_explored_states_shed_their_maps():
    # a stored state, once expanded and labelled, keeps nothing derived:
    # no map, labels, certificate, twin data or anchor table (iso_equal's
    # search on CYCLES builds those, and on its reversible copy a lookup
    # confirms hits on expanded states), and rebuilds each map and its
    # certificate as a fresh copy builds them; equal sets of rule names
    # are one object; the labelling is label_states'
    checked = 0
    back = CYCLES.replace("react mark = K --> L;", "react mark = K --> L;\nreact back = L --> K;")
    back = back.replace("{mark}", "{mark, back}")
    for source in sorted(MODELS.glob("*.big")) + [CYCLES, back]:
        name = getattr(source, "name", "CYCLES" if source is CYCLES else "CYCLES back")
        spec = load_file(source) if hasattr(source, "name") else load(source)
        ts = explore(spec, 60)
        for s in ts.states:
            assert not s._cache, (name, sorted(map(str, s._cache)))
            fresh = dataclasses.replace(s, _cache={})
            for k in DERIVED_MAPS:
                assert getattr(s, k)() == getattr(fresh, k)(), (name, k)
            assert canon.certificate(s) == canon.certificate(fresh), name
            checked += 1
        names = [t.rule_names for t in ts.transitions]
        assert len({id(x) for x in names}) == len(set(names)), name
        assert ts.labelling == engine.label_states(ts.states, spec), name
    assert checked > 300


def test_explored_states_share_equal_rows():
    # every parent set and port row a rewrite lays is the one matching's
    # bounded cache holds, so equal rows are one object across the whole
    # run, not only inside one result (state 0 is elaborated, not laid)
    matching._shared.cache_clear()
    ts = explore(load(ROOMS), 60)
    assert len(ts.states) > 2
    for name in ("node_parents", "ports"):
        rows = [row for s in ts.states[1:] for row in getattr(s, name)]
        assert len({id(row) for row in rows}) == len(set(rows)), name


REGION_SWAP = """
atomic ctrl A = 0; atomic ctrl B = 0; atomic ctrl C = 0; atomic ctrl K = 0;
react r = A || A --> B || C;
react k = K --> K;
begin brs init A || A || K; rules = [ {r, k} ]; end
"""


@pytest.mark.xfail(strict=True, reason="find_occurrences keys an image without its region "
                   "positions, so the node map that swaps the two A regions is dropped")
def test_region_swapping_hits_reach_both_states():
    # the two node maps of A || A put B in either region, and they
    # rewrite to different states
    ts = explore(load(REGION_SWAP), 60)
    assert {print_bigraph(s) for s in ts.states} == {"A || A || K", "B || C || K", "C || B || K"}


def test_trace_states_shed_their_maps():
    # every trace state but the last keeps nothing derived
    semantics = set()
    for path in sorted(MODELS.glob("*.big")):
        spec = load_file(path)
        steps = simulate(spec, 20, 3).steps
        if len(steps) > 2:
            semantics.add(spec.semantics)
        for s, _, _ in steps[:-1]:
            assert not s._cache, path.name
    assert semantics == {"brs", "pbrs", "sbrs", "abrs"}
