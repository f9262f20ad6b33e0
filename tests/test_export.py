import pytest

from bigengine.elaborate import load, load_file
from bigengine.engine import explore, step_distribution
from bigengine.errors import PartialSystem
from bigengine.export import write_dot, write_labels, write_tra

from genutil import read_tra

from conftest import MODELS


def test_ruleless_brs_gets_self_loop():
    spec = load("ctrl A = 0;\nbig s = A.1;\nbegin brs init s; rules = []; end\n")
    ts = explore(spec, 10)
    assert write_tra(ts).decode().splitlines() == ["1 1", "0 0 1"]


def test_brs_uniform_values():
    spec = load_file(MODELS / "secure_building.big")
    ts = explore(spec, 100)
    text = write_tra(ts).decode().splitlines()
    assert text[0] == "4 10"
    n, rows = read_tra(write_tra(ts), "brs")
    assert n == 4 and len(rows) == 10
    outdeg = {}
    for src, dst, value in rows:
        outdeg.setdefault(src, []).append(value)
    for src, values in outdeg.items():
        assert abs(sum(values) - 1.0) < 1e-12
    # sorted src-major dst-minor
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


def test_pbrs_contains_detect_edge():
    spec = load_file(MODELS / "pbrs_detect_capped.big")
    ts = explore(spec, 10)
    lines = write_tra(ts).decode().splitlines()
    assert "0 1 0.8" in lines
    assert "0 0 0.2" in lines
    assert "1 1 1" in lines             # avoid_detect self-loop


def test_pbrs_deadlock_self_loop():
    spec = load_file(MODELS / "pbrs_detect_two.big")
    ts = explore(spec, 10)
    lines = write_tra(ts).decode().splitlines()
    # alarmed state deadlocks: exporter adds the required self-loop
    assert lines[0] == "2 3"
    assert "1 1 1" in lines


def test_partial_requires_flag():
    spec = load_file(MODELS / "sbrs_entrance.big")
    ts = explore(spec, 4)
    with pytest.raises(PartialSystem):
        write_tra(ts)
    assert write_tra(ts, allow_partial=True)


def test_labels_format():
    spec = load_file(MODELS / "secure_building.big")
    ts = explore(spec, 100)
    lines = write_labels(ts).decode().splitlines()
    assert lines[0] == '0="init" 1="seen" 2="entrance" 3="serverRoom"'
    assert lines[1] == "0: 0 2"
    assert len(lines) == 1 + 3          # three labelled states after init line


def test_labels_no_predicates():
    spec = load("ctrl A = 0;\nbig s = A.1;\nbegin brs init s; rules = []; end\n")
    ts = explore(spec, 10)
    assert write_labels(ts).decode().splitlines() == ['0="init"', "0: 0"]


def test_state_with_two_labels():
    src = """
atomic ctrl Camera = 0;
atomic ctrl Server = 0;
atomic ctrl Intruder = 0;
ctrl Room = 0;

big seen = Room.(Intruder | Camera | id);
big serverRoom = Room.(Server | Intruder | id);
big s0 = Room.(Intruder | Camera | Server);

begin brs
  init s0;
  rules = [];
  preds = {seen, serverRoom};
end
"""
    ts = explore(load(src), 10)
    lines = write_labels(ts).decode().splitlines()
    assert lines[1] == "0: 0 1 2"


def test_dot_output():
    spec = load_file(MODELS / "secure_building.big")
    ts = explore(spec, 100)
    dot = write_dot(ts)
    assert dot.count("->") == 10
    assert 'style=bold' in dot
    assert '0 [label="0: entrance", style=bold];' in dot


def test_dot_empty_model():
    spec = load("ctrl A = 0;\nbig s = A.1;\nbegin brs init s; rules = []; end\n")
    dot = write_dot(explore(spec, 10))
    assert dot.count("->") == 0 and "style=bold" in dot


def test_dot_probability_annotations():
    spec = load_file(MODELS / "pbrs_detect_capped.big")
    dot = write_dot(explore(spec, 10))
    assert '[label="0.8"]' in dot and '[label="0.2"]' in dot


def test_abrs_tra_shape():
    spec = load_file(MODELS / "abrs_guards.big")
    ts = explore(spec, 8)
    data = write_tra(ts, allow_partial=True)
    n, rows = read_tra(data, "abrs")
    assert n == 8 + 1                   # and the truncated sink
    for src, choice, dst, prob, action in rows:
        assert action in ("move", "check", None)
    # per (state, choice) probabilities sum to one
    sums = {}
    for src, choice, dst, prob, action in rows:
        sums[(src, choice)] = sums.get((src, choice), 0.0) + prob
    assert all(abs(v - 1.0) < 1e-9 for v in sums.values())


def test_abrs_tra_skips_actions_without_transitions():
    # at Y | K action a has no transition: b is that state's choice 0
    spec = load("""
atomic ctrl X = 0; atomic ctrl Y = 0; atomic ctrl K = 0;
react ra = X -[1]-> Y;
react rb = K -[1]-> K;
big s0 = X | K;
begin abrs
  init s0;
  rules = [ {ra, rb} ];
  actions = [ a = {ra}, b = {rb} ];
end
""")
    assert write_tra(explore(spec, 10)) == b"2 3 3\n0 0 1 1 a\n0 1 0 1 b\n1 0 1 1 b\n"


def test_roundtrip_reader_multiset():
    spec = load_file(MODELS / "vault.big")
    ts = explore(spec, 100)
    data = write_tra(ts)
    n, rows = read_tra(data, "brs")
    assert n == len(ts.states)
    from collections import Counter
    got = Counter((s, d) for s, d, _ in rows)
    want = Counter((t.src, t.dst) for t in ts.transitions)
    for s in range(len(ts.states)):
        if not any(t.src == s for t in ts.transitions):
            want[(s, s)] += 1
    assert got == want


# the bundled models whose state space -M 60 cuts off
CUT_AT_60 = ("abrs_guards", "copy", "pbrs_detect", "sbrs_entrance", "turntaking")


def test_bounded_frontier_is_no_deadlock():
    # turntaking's state 4 has a successor the bound drops: it goes to the
    # truncated sink, state 5, and does not get a deadlock loop
    ts = explore(load_file(MODELS / "turntaking.big"), 5)
    lines = write_tra(ts, allow_partial=True).decode().splitlines()
    assert "4 4 1" not in lines
    assert lines == ["6 6", "0 1 1", "1 2 1", "2 3 1", "3 4 1", "4 5 1", "5 5 1"]


def test_bounded_pbrs_rows_sum_to_one():
    ts = explore(load_file(MODELS / "pbrs_detect.big"), 5)
    n, rows = read_tra(write_tra(ts, allow_partial=True), "pbrs")
    sums = [0.0] * n
    for src, _, p in rows:
        sums[src] += p
    assert n == 6 and all(abs(x - 1) < 1e-12 for x in sums)
    assert (4, 5, 0.8) in rows and rows[-1] == (5, 5, 1)


@pytest.mark.parametrize("name", CUT_AT_60)
def test_bounded_exports_keep_every_rows_mass(name):
    # every state's rows (each abrs choice's) sum to 1, sbrs rates to the
    # state's exit rate, the dropped mass going to the sink; the .csl and
    # .dot name the sink with a label no predicate can take
    spec = load_file(MODELS / (name + ".big"))
    ts = explore(spec, 60)
    sink = len(ts.states)
    abrs = spec.semantics == "abrs"
    n, rows = read_tra(write_tra(ts, allow_partial=True), spec.semantics)
    sums: dict = {}
    for row in rows:
        key, value = (row[:2], row[3]) if abrs else (row[0], row[2])
        sums[key] = sums.get(key, 0.0) + value
    if spec.semantics == "sbrs":
        for s in range(sink):
            sums[s] /= sum(g.weight for g in step_distribution(ts.states[s], spec))
    assert n == sink + 1 and ts.partial
    assert ((sink, 0, sink, 1.0, None) if abrs else (sink, sink, 1.0)) in rows
    assert {key[0] if abrs else key for key in sums} == set(range(n))
    assert all(abs(x - 1) < 1e-9 for x in sums.values())
    into = {row[0] for row in rows if row[2 if abrs else 1] == sink and row[0] != sink}
    assert into == {src for src, _, _ in ts.dropped}
    labels = write_labels(ts).decode().splitlines()
    k = len(ts.predicates) + 1
    assert labels[0].endswith(' %d="_truncated"' % k) and labels[-1] == "%d: %d" % (sink, k)
    assert '  %d [label="%d: _truncated"];' % (sink, sink) in write_dot(ts)
