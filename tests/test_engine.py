from fractions import Fraction

import pytest

from bigengine import iso_equal, make_atom, merge, nest, one
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

from conftest import MODELS

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


def test_instantaneous_divergence():
    src = """
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
    spec = load(src)
    with pytest.raises(DivergentInstantaneous):
        reduce_instantaneous(spec.init, spec, bound=50)


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
    from bigengine.rules import all_applications
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
    from bigengine.rules import all_applications
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
