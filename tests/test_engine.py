import dataclasses
from fractions import Fraction

import pytest

from bigengine import canon, engine, iso_equal, make_atom, merge, nest, one
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
from bigengine.matching import matches_predicate
from bigengine.rules import apply_at

from conftest import MODELS
from genutil import all_applications

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
    settled = check_confluent_settle(spec.init, spec)
    assert sorted(settled.ctrl) == ["B", "D"]


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
        res = enabled_class(state, spec)
        assert res is None or not spec.classes[res[0]].instantaneous


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
        assert iso_equal(check_confluent_settle(spec.init, spec), settled)
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
# interchangeable) and not in image order, so a step started from the
# settle's handoff must still dedupe and sort.
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
# and reduce tidy only once go is disabled.
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


def test_settle_handoff_is_invisible(monkeypatch):
    # every step that starts from a settle's handoff, the first class the
    # settle did not show empty, gets exactly the hits a fresh search of a
    # cache-free copy of the state gets, and they are never instantaneous
    fresh = engine.enabled_class
    handed = 0

    def checked(state, spec, handoff=None):
        nonlocal handed
        res = fresh(state, spec, handoff)
        if handoff is not None:
            handed += 1
            want = fresh(dataclasses.replace(state, _cache={}), spec)
            assert _hits_view(res) == _hits_view(want)
            assert res is None or not spec.classes[res[0]].instantaneous
        return res

    monkeypatch.setattr(engine, "enabled_class", checked)
    models = sorted(MODELS.glob("*.big"))
    assert len(models) == 22
    for path in models + [SYMMETRIC_PAIRS, NORMAL_ABOVE_INSTANTANEOUS]:
        spec = load_file(path) if path in models else load(path)
        handed = 0
        for seed in (1, 2, 3):
            simulate(spec, 30, seed)
        explore(spec, 60)
        # only a settle that searched hands off
        assert (handed > 0) == any(cls.instantaneous for cls in spec.classes), path


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
    # its group's state, whether or not the step applied it; with one
    # colour class the exact check alone must keep the inline models right
    real_apply, real_settle, real_step = engine.apply_at, engine._settle, engine.step_distribution
    settles = members = applied = 0

    def counted(*args):
        nonlocal settles
        settles += 1
        return real_settle(*args)

    def checked(state, spec, check_confluence=False, handoff=None):
        nonlocal members, applied
        before = settles
        groups = real_step(state, spec, check_confluence, handoff)
        applied += settles - before           # one settle per applied hit
        for g in groups:
            for rule, occ in g.members:
                members += 1
                dst = real_settle(real_apply(state, rule, occ), spec, False)[0]
                assert iso_equal(dst, g.dst), rule.name
        return groups

    monkeypatch.setattr(engine, "_settle", counted)
    monkeypatch.setattr(engine, "step_distribution", checked)
    models = sorted(MODELS.glob("*.big"))
    assert len(models) == 22
    inline = [TWINS, CYCLES, PORT_ORDER, SETTLE_PICKS]
    if not refined:             # CYCLES gains nothing here, as refinement cannot split it
        monkeypatch.setattr(canon, "_refine", lambda b: ([0] * b.n, [0] * b.edges, False))
        models, inline = [], [TWINS, PORT_ORDER, SETTLE_PICKS]
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
