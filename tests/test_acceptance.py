"""Acceptance suite: one test per shipped criterion, each printing a
PASS line and enforcing its stated tolerance and runtime budget."""

import random
import subprocess
import sys
import time
from fractions import Fraction

from bigengine import close, iso_equal, make_atom, merge, one, parallel
from bigengine.cli import run_cli
from bigengine.elaborate import load_file
from bigengine.engine import explore, reduce_instantaneous
from bigengine.errors import BigraphError
from bigengine.matching import find_occurrences, matches_predicate
from bigengine.printing import print_bigraph

from conftest import MODELS
from genutil import (
    DEFAULT_CONTROLS,
    all_applications,
    brute_images,
    make_sig,
    matcher_images,
    random_ground,
    random_solid_pattern,
    read_tra,
    rename_outer,
)

LISTED_MODELS = [
    "buildings.big", "sharing.big", "comms.big", "building_links.big",
    "leave_secure.big", "copy.big", "delete.big", "spawn.big",
    "fix_leave.big", "connect_server.big", "vault.big", "turntaking.big",
    "pbrs_detect.big", "sbrs_entrance.big", "abrs_guards.big",
    "secure_building.big",
]


def test_criterion_01_corpus_parses_and_validates():
    start = time.monotonic()
    for name in LISTED_MODELS:
        assert (MODELS / name).exists(), name
    for path in sorted(MODELS.glob("*.big")):
        assert run_cli(["validate", str(path)]) == 0, path.name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "corpus validation took %.2fs" % elapsed
    print("criterion 01 (corpus parse/elaborate/validate, %.2fs): PASS" % elapsed)


def test_criterion_02_secure_building(tmp_path):
    start = time.monotonic()
    tra_path = tmp_path / "t.tra"
    lbl_path = tmp_path / "p.csl"
    rc = run_cli(["full", "-M", "100", "-p", str(tra_path), "-l", str(lbl_path),
                  str(MODELS / "secure_building.big")])
    assert rc == 0
    n, rows = read_tra(tra_path.read_bytes(), "brs")
    assert n == 4
    assert len(rows) == 10
    # parse the label file back
    lines = lbl_path.read_text().splitlines()
    decl = {}
    for part in lines[0].split():
        idx, name = part.split("=")
        decl[name.strip('"')] = int(idx)
    labels_of = {}
    for line in lines[1:]:
        state, idxs = line.split(":")
        labels_of[int(state)] = {int(i) for i in idxs.split()}
    for pred in ("seen", "entrance", "serverRoom"):
        states = [s for s, ls in labels_of.items() if decl[pred] in ls]
        assert len(states) == 1, pred
    # explicit graph search over the exported files: a path from init to the
    # serverRoom-labelled state that never visits a seen-labelled state
    seen_states = {s for s, ls in labels_of.items() if decl["seen"] in ls}
    goal_states = {s for s, ls in labels_of.items() if decl["serverRoom"] in ls}
    succ = {}
    for src, dst, _ in rows:
        if src != dst:
            succ.setdefault(src, set()).add(dst)
    frontier, reached = [0], {0}
    assert 0 not in seen_states
    found = False
    while frontier:
        s = frontier.pop()
        if s in goal_states:
            found = True
            break
        for d in succ.get(s, ()):
            if d not in reached and d not in seen_states:
                reached.add(d)
                frontier.append(d)
    assert found, "no camera-avoiding path to the server room"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print("criterion 02 (secure building 4 states / 10 transitions / safe path): PASS")


def test_criterion_03_probabilistic_normalisation():
    spec = load_file(MODELS / "pbrs_detect_capped.big")
    ts = explore(spec, 10)
    detect_edges = [t for t in ts.transitions
                    if t.src == 0 and "detect" in t.rule_names]
    assert len(detect_edges) == 1
    assert abs(detect_edges[0].label - Fraction(4, 5)) <= Fraction(1, 10 ** 9)

    spec2 = load_file(MODELS / "pbrs_detect_two.big")
    ts2 = explore(spec2, 10)
    mass = sum(t.label for t in ts2.transitions
               if t.src == 0 and "detect" in t.rule_names)
    assert abs(mass - Fraction(8, 9)) <= Fraction(1, 10 ** 9)
    print("criterion 03 (detect probability 0.8; two-camera mass 8/9): PASS")


def test_criterion_04_stochastic_export(tmp_path):
    spec = load_file(MODELS / "sbrs_entrance.big")
    ts = explore(spec, 21)          # levels 0..5: every state with <= 5 occupants
    assert ts.partial and len(ts.states) == 21

    def occupants(state):
        return (state.ctrl.count("Person"), state.ctrl.count("Intruder"))

    pop = [occupants(s) for s in ts.states]
    assert sorted(pop) == sorted((n, m) for k in range(6)
                                 for n in range(k + 1) for m in [k - n])
    from bigengine.export import write_tra
    nstates, rows = read_tra(write_tra(ts, allow_partial=True), "sbrs")
    sink = len(ts.states)           # the truncated sink the exporter adds
    assert nstates == sink + 1
    for src, dst, value in rows:
        if src == sink:
            assert (dst, value) == (sink, 1)
            continue
        n, m = pop[src]
        if dst == sink:             # level 6, cut off: both arrival rates
            assert n + m == 5 and abs(value - 0.21) < 1e-12
        elif pop[dst] == (n + 1, m):
            assert value == 0.2
        elif pop[dst] == (n, m + 1):
            assert value == 0.01
        elif pop[dst] == (n - 1, m):
            assert value == sum(0.3 for _ in range(n))
        else:
            raise AssertionError("unexpected edge %s -> %s" % (pop[src], pop[dst]))
    print("criterion 04 (sbrs rates 0.2 / 0.3 summed / 0.01 exact): PASS")


def test_criterion_05_vault_tagging():
    start = time.monotonic()
    spec2 = load_file(MODELS / "vault.big")
    ts2 = explore(spec2, 500)
    assert ts2.labelling["vaultOpen"], "vault never opens with two people"

    spec1 = load_file(MODELS / "vault_one.big")
    ts1 = explore(spec1, 500)
    assert not ts1.labelling["vaultOpen"], "vault opened with one person"
    terminals = [i for i in range(len(ts1.states))
                 if not any(t.src == i for t in ts1.transitions)]
    for i in terminals:
        state = ts1.states[i]
        assert matches_predicate(state, spec1.preds["vaultClosed"])
        vault = state.ctrl.index("Vault")
        kids = state.children()[("n", vault)]
        assert all(state.ctrl[c[1]] != "LoginT" for c in kids)
    # cleanup invariant: settled (deadlock-free cycle) states carry no
    # LoginT under the vault once no login sequence is running
    for state in ts1.states:
        vault = state.ctrl.index("Vault")
        kids = [state.ctrl[c[1]] for c in state.children()[("n", vault)]]
        if "Login" not in kids:
            assert "LoginT" not in kids
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("criterion 05 (vault opens with 2, never with 1, cleanup holds): PASS")


def test_criterion_06_instantiation_maps():
    spec_c = load_file(MODELS / "copy.big")
    copy = next(spec_c.rules())
    result = all_applications(spec_c.init, copy)[0][1]
    kids = result.children()
    server = result.ctrl.index("Server")
    db = result.ctrl.index("Database")
    server_data = [c for c in kids[("n", server)] if result.ctrl[c[1]] == "Data"]
    db_data = [c for c in kids[("n", db)] if result.ctrl[c[1]] == "Data"]
    assert len(server_data) == 2 and len(db_data) == 1

    spec_d = load_file(MODELS / "delete.big")
    delete = next(spec_d.rules())
    result_d = all_applications(spec_d.init, delete)[0][1]
    db_d = result_d.ctrl.index("Database")
    assert result_d.children()[("n", db_d)] == ()

    # duplicating open-linked content: both copies stay on one link
    from bigengine.bigraph import Control, Signature
    from bigengine.rules import InstMap, ReactionRule, validate_rule
    from bigengine import identity, nest
    sig = Signature([
        Control("Server", 2), Control("Database", 1),
        Control("Adult", 1, atomic=True), Control("Item", 1, atomic=True),
    ])

    def side(server_holes, db_hole):
        adult = make_atom(sig, "Adult", names=["x"])
        srv = nest(make_atom(sig, "Server", names=["x", "y"]), server_holes)
        db = nest(make_atom(sig, "Database", names=["y"]), db_hole)
        return close("y", parallel(close("x", merge(adult, srv)), db))

    lhs = side(identity(sig), identity(sig))
    rhs = side(merge(identity(sig), identity(sig)), identity(sig))
    rule = ReactionRule("copy", lhs, rhs, InstMap((0, 1, 1)))
    validate_rule(rule)
    state = side(one(sig), make_atom(sig, "Item", names=["w"]))
    out = all_applications(state, rule)[0][1]
    assert out.ctrl.count("Item") == 2
    assert out.port_count(("o", "w")) == 2
    print("criterion 06 (instantiation maps copy/discard; links stay connected): PASS")


def test_criterion_07_matcher_oracle_equivalence():
    start = time.monotonic()
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(777)
    matches_seen = 0
    for case in range(500):
        target = random_ground(rng, sig, max_nodes=8)
        pattern = random_solid_pattern(rng, sig, max_nodes=4)
        got = matcher_images(find_occurrences(target, pattern))
        want = brute_images(target, pattern)
        assert got == want, "disagreement on case %d" % case
        matches_seen += len(got)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "oracle comparison took %.1fs" % elapsed
    assert matches_seen > 100
    print("criterion 07 (matcher = brute force on 500 cases, %d matches, %.1fs): PASS"
          % (matches_seen, elapsed))


def _reparse(b):
    from bigengine.elaborate import load
    decls = []
    for c in b.sig.controls():
        head = "atomic ctrl" if c.atomic else "ctrl"
        decls.append("%s %s = %d;" % (head, c.name, c.arity))
    src = "\n".join(decls) + "\nbig probe = %s;\nbig start = 1;\n" % print_bigraph(b)
    src += "begin brs init start; rules = []; end\n"
    return load(src).bigs["probe"]


def test_criterion_08_algebraic_property_suite():
    start = time.monotonic()
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(2025)
    cases = 1000

    for _ in range(cases):      # merge commutativity
        a = random_ground(rng, sig, max_nodes=5)
        b = random_ground(rng, sig, max_nodes=5)
        assert iso_equal(merge(a, b), merge(b, a))

    for _ in range(cases):      # merge associativity
        a = random_ground(rng, sig, max_nodes=4)
        b = random_ground(rng, sig, max_nodes=4)
        c = random_ground(rng, sig, max_nodes=4)
        assert iso_equal(merge(a, merge(b, c)), merge(merge(a, b), c))

    for _ in range(cases):      # merge unit at width one
        a = random_ground(rng, sig, max_nodes=5, max_regions=1)
        assert iso_equal(merge(a, one(sig)), a)

    for _ in range(cases):      # parallel associativity and width law
        a = random_ground(rng, sig, max_nodes=4)
        b = random_ground(rng, sig, max_nodes=4)
        c = random_ground(rng, sig, max_nodes=4)
        assert iso_equal(parallel(a, parallel(b, c)), parallel(parallel(a, b), c))
        assert parallel(a, one(sig)).regions == a.regions + 1

    done = 0
    while done < cases:         # closure commutation
        b = random_ground(rng, sig, max_nodes=6, close_prob=0.0)
        points = b.link_points()
        live = [x for x in sorted(b.outer) if points[("o", x)]]
        if len(live) < 2:
            continue
        x, y = live[0], live[1]
        assert iso_equal(close(x, close(y, b)), close(y, close(x, b)))
        done += 1

    done = 0
    while done < cases:         # alpha-irrelevance of closed-edge identifiers
        b = random_ground(rng, sig, max_nodes=6, close_prob=0.0)
        points = b.link_points()
        live = [x for x in sorted(b.outer) if points[("o", x)]]
        if not live:
            continue
        x = live[rng.randrange(len(live))]
        renamed = rename_outer(b, {x: "fresh_name"})
        assert iso_equal(close(x, b), close("fresh_name", renamed))
        done += 1

    for _ in range(cases):      # parse . print round trip
        b = random_ground(rng, sig, max_nodes=6)
        assert iso_equal(_reparse(b), b)

    elapsed = time.monotonic() - start
    print("criterion 08 (6 algebraic properties x 1000 cases, %.1fs): PASS" % elapsed)


def test_criterion_09_priority_and_instantaneous():
    spec = load_file(MODELS / "fix_leave_inst.big")
    ts = explore(spec, 100, check_confluence=True)
    insecure = spec.bigs["insecure"]
    for state in ts.states:
        assert not matches_predicate(state, insecure)
        assert reduce_instantaneous(state, spec) is state
    assert ts.labelling["insecure"] == set()
    print("criterion 09 (fix fires first; instantaneous never enabled in store): PASS")


def test_criterion_10_error_surface(tmp_path, capsys):
    cases = [
        ("ctrl A = 0;\nbig s0 = A;\nbegin brs init s0; rules = []; end\n",
         "Init bigraph is not ground"),
        ("ctrl A = 0;\nreact r = A.1 --> A.(id | id);\nbig s0 = A.1;\n"
         "begin brs init s0; rules = [ {r} ]; end\n",
         "Inner interfaces"),
        ("atomic ctrl A = 1;\nreact r = A{x} --> /y A{y} | 1;\nbig s0 = /x A{x};\n"
         "begin brs init s0; rules = [ {r} ]; end\n",
         "Outer interfaces"),
        ("ctrl A = 0;\nreact r = A.id --> A.id @[5];\nbig s0 = A.1;\n"
         "begin brs init s0; rules = [ {r} ]; end\n",
         "Instantiation map is not valid"),
    ]
    for i, (src, phrase) in enumerate(cases):
        path = tmp_path / ("bad%d.big" % i)
        path.write_text(src)
        rc = run_cli(["validate", str(path)])
        err = capsys.readouterr().err
        assert rc != 0, phrase
        assert phrase in err, (phrase, err)
    print("criterion 10 (four documented diagnostics verbatim): PASS")


def _full_artifacts(model, tmp_path, tag, extra=()):
    tra = tmp_path / ("%s.tra" % tag)
    lbl = tmp_path / ("%s.csl" % tag)
    dot = tmp_path / ("%s.dot" % tag)
    rc = run_cli(["full", "-M", "100", "-p", str(tra), "-l", str(lbl),
                  "--dot", str(dot), *extra, str(model)])
    assert rc == 0
    return tra.read_bytes(), lbl.read_bytes(), dot.read_bytes()


def test_criterion_11_determinism(tmp_path, capsys):
    finite = ["secure_building.big", "vault.big", "fix_leave_inst.big",
              "pbrs_detect_capped.big", "pbrs_detect_two.big", "spawn.big",
              "delete.big", "leave_secure.big", "buildings.big"]
    for name in finite:
        a = _full_artifacts(MODELS / name, tmp_path, name + ".a")
        b = _full_artifacts(MODELS / name, tmp_path, name + ".b")
        assert a == b, name
    for name in ["sbrs_entrance.big", "abrs_guards.big", "turntaking.big"]:
        extra = ("--allow-partial",)
        a = _full_artifacts(MODELS / name, tmp_path, name + ".a", extra)
        b = _full_artifacts(MODELS / name, tmp_path, name + ".b", extra)
        assert a == b, name
    capsys.readouterr()
    # equal seeds give byte-identical traces
    for name, seed in [("secure_building.big", 5), ("sbrs_entrance.big", 6),
                       ("abrs_guards.big", 7), ("vault.big", 8)]:
        run_cli(["sim", "-S", "20", "--seed", str(seed), str(MODELS / name)])
        first = capsys.readouterr().out
        run_cli(["sim", "-S", "20", "--seed", str(seed), str(MODELS / name)])
        second = capsys.readouterr().out
        assert first == second, name
    # cross-process determinism of the exported artifacts
    outs = []
    for tag in ("x", "y"):
        tra = tmp_path / ("proc_%s.tra" % tag)
        proc = subprocess.run(
            [sys.executable, "-m", "bigengine", "full", "-M", "100",
             "-p", str(tra), str(MODELS / "secure_building.big")],
            capture_output=True)
        assert proc.returncode == 0
        outs.append(tra.read_bytes())
    assert outs[0] == outs[1]
    print("criterion 11 (byte-identical reruns, in and across processes): PASS")
