import random
import re
import signal
import subprocess
import sys
import time

import pytest

from bigengine.cli import run_cli

from conftest import MODELS


def test_validate_ok(capsys):
    assert run_cli(["validate", str(MODELS / "secure_building.big")]) == 0
    assert "ok" in capsys.readouterr().out


def test_full_writes_artifacts(tmp_path, capsys):
    tra = tmp_path / "t.tra"
    labels = tmp_path / "p.csl"
    dot = tmp_path / "g.dot"
    rc = run_cli(["full", "-M", "100", "-l", str(labels), "-p", str(tra),
                  "--dot", str(dot), str(MODELS / "secure_building.big")])
    assert rc == 0
    assert tra.read_bytes().startswith(b"4 10\n")
    assert labels.read_text().startswith('0="init"')
    assert "digraph" in dot.read_text()


def test_full_partial_needs_flag(tmp_path, capsys):
    tra = tmp_path / "t.tra"
    rc = run_cli(["full", "-M", "5", "-p", str(tra),
                  str(MODELS / "sbrs_entrance.big")])
    assert rc != 0
    assert "partial" in capsys.readouterr().err
    rc = run_cli(["full", "-M", "5", "-p", str(tra), "--allow-partial",
                  str(MODELS / "sbrs_entrance.big")])
    assert rc == 0 and tra.exists()


@pytest.mark.parametrize("flag", ["-p", "-l", "--dot"])
def test_partial_export_refused_before_writing(tmp_path, capsys, flag):
    # every export of a partial system needs the flag, and a refused one
    # neither creates its file nor empties one that is there
    new, old = tmp_path / "new.out", tmp_path / "old.out"
    old.write_bytes(b"earlier contents\n")
    for path in (new, old):
        assert run_cli(["full", "-M", "3", flag, str(path), str(MODELS / "pbrs_detect.big")]) == 1
        assert "partial" in capsys.readouterr().err
    assert not new.exists() and old.read_bytes() == b"earlier contents\n"


def test_check_confluence_flag(tmp_path, capsys):
    rc = run_cli(["full", "-M", "50", "--check-confluence",
                  str(MODELS / "fix_leave_inst.big")])
    assert rc == 0


def test_sim_trace_format(capsys):
    rc = run_cli(["sim", "-S", "5", "--seed", "1",
                  str(MODELS / "secure_building.big")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    first = lines[0].split("\t")
    assert first == ["0", "-", "-", "-"]
    step = lines[1].split("\t")
    assert step[0] == "1" and step[1] == "move"


def test_sim_sbrs_has_time(capsys):
    rc = run_cli(["sim", "-S", "4", "--seed", "2",
                  str(MODELS / "sbrs_entrance.big")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t")[3] == "0.0"
    assert float(lines[-1].split("\t")[3]) > 0


def test_sim_labels_file(tmp_path, capsys):
    labels = tmp_path / "trace.csl"
    rc = run_cli(["sim", "-S", "8", "--seed", "1", "-l", str(labels),
                  str(MODELS / "secure_building.big")])
    assert rc == 0
    assert labels.read_text().startswith('0="init" 1="seen"')


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("BIGENGINE_SEED", "9")
    run_cli(["sim", "-S", "10", str(MODELS / "secure_building.big")])
    out_env = capsys.readouterr().out
    run_cli(["sim", "-S", "10", "--seed", "9", str(MODELS / "secure_building.big")])
    out_seed = capsys.readouterr().out
    assert out_env == out_seed


def test_bad_seed_env_gives_diagnostic(monkeypatch, capsys):
    monkeypatch.setenv("BIGENGINE_SEED", "abc")
    assert run_cli(["sim", "-S", "10", str(MODELS / "vault.big")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: BIGENGINE_SEED is not an integer: 'abc'\n"
    assert captured.out == ""


def test_error_exit_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.big"
    bad.write_text("ctrl A = 0;\nbig s0 = A;\nbegin brs init s0; rules = []; end\n")
    rc = run_cli(["validate", str(bad)])
    assert rc != 0
    assert "Init bigraph is not ground" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (b"ctrl R = 0;\nbig b = " + b"R.(" * 5000 + b"\n",
     "error: line 2, column "),
    (b"\xff\xfe ctrl",
     "error: line 1, column 1: byte 0xff is not valid UTF-8"),
    (b"fun ctrl P(x) = 0;\nbig b = P(1.0/0.0);\nbegin brs init b; rules = []; end\n",
     "error: 1.0 / 0.0 is not a number"),
], ids=["deep-paren", "not-utf8", "float-div-zero"])
def test_hostile_model_gives_diagnostic(tmp_path, capsys, data, message):
    model = tmp_path / "hostile.big"
    model.write_bytes(data)
    assert run_cli(["validate", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


HUGE = "7" * 3000
P_MODEL = "atomic fun ctrl P(x) = 0;\nbig b = P(%s);\nbegin brs init b; rules = []; end\n"


@pytest.mark.parametrize("command, source, message", [
    ("validate", "ctrl R = %s;\nbig b = R.1;\n" % ("1" * 4301),
     "error: line 1, column 10: number with more than 4300 digits\n"),
    ("full", P_MODEL % ("%s * %s" % (HUGE, HUGE)),
     "error: integer result with more than 4300 digits\n"),
    ("validate", P_MODEL % ("%s * %s / 2" % (HUGE, HUGE)),
     "error: integer result with more than 4300 digits\n"),
], ids=["literal", "product", "product-divided"])
def test_huge_integer_gives_diagnostic(tmp_path, capsys, command, source, message):
    # Python 3.11 and later refuse to convert an int of more than 4300
    # digits to or from text, which ended these in a ValueError; the
    # limit is the language's own, so every Python version says the same
    model = tmp_path / "huge.big"
    model.write_text(source)
    assert run_cli([command, str(model)]) == 1
    assert capsys.readouterr().err == message
    model.write_text(P_MODEL % ("9" * 4300))          # the largest number allowed
    assert run_cli(["full", str(model)]) == 0
    assert capsys.readouterr().err == ""


def test_long_nest_chain_validates(tmp_path, capsys):
    # 990 levels of `R.` once ran out of frames; a `.` chain is now one
    # builder, so the same model validates
    model = tmp_path / "chain.big"
    model.write_bytes(b"ctrl R = 0;\nbig b = " + b"R." * 990 + b"1;\n"
                      b"begin brs init b; rules = []; end\n")
    assert run_cli(["validate", str(model)]) == 0
    captured = capsys.readouterr()
    assert "ok" in captured.out and captured.err == ""


# each form nests one bracket per level: parentheses, a nest into
# parentheses, the host of a `share ... in`, a closure's parenthesised
# body, and parenthesised parameter arithmetic
BRACKETS = {
    "paren": lambda d: "(" * d + "1" + ")" * d,
    "nest-paren": lambda d: "R.(" * d + "1" + ")" * d,
    "share": lambda d: "share id by ([{0}], 1) in " * d + "R",
    "closure": lambda d: "".join("/x%d (L{x%d} | " % (k, k) for k in range(d)) + "1" + ")" * d,
    "arith": lambda d: "P(" + "(1 + " * d + "1" + ")" * d + ")",
}


@pytest.mark.parametrize("form", BRACKETS)
def test_bracket_depth_has_one_guard(tmp_path, capsys, form):
    # chains have no length limit, so bracket depth is the only one, and
    # the parser's guard reports it before elaboration can run out of frames
    model = tmp_path / "deep.big"
    for depth, rc in ((100, 0), (5000, 1)):
        model.write_text("ctrl R = 0;\natomic ctrl L = 1;\natomic fun ctrl P(x) = 0;\n"
                         "big b = %s;\nbig start = 1;\nbegin brs init start; rules = []; end\n"
                         % BRACKETS[form](depth))
        assert run_cli(["validate", str(model)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert re.fullmatch(r"error: line 4, column \d+: expression nested too deeply\n", err)
        else:
            assert err == ""


def test_many_names_match_without_recursion(tmp_path, capsys):
    # a 1,200-node predicate on 1,200 links: the node order scans no lists
    # and the link assignment keeps an explicit stack, not a frame per link
    n = 1200
    model = tmp_path / "names.big"
    model.write_text("atomic ctrl L = 1;\nbig p = %s;\nbig s = %s;\n"
                     "begin brs\n  init s;\n  rules = [];\n  preds = {p};\nend\n"
                     % (" | ".join("L{x%d}" % i for i in range(n)),
                        " | ".join("L{y%d}" % i for i in range(n))))
    labels = tmp_path / "names.csl"
    assert run_cli(["full", "-M", "2", "-l", str(labels), str(model)]) == 0
    assert labels.read_text() == '0="init" 1="p"\n0: 0 1\n'
    capsys.readouterr()


def test_fuzzed_models_exit_0_or_1(tmp_path, capsys):
    """Mutated corpus models must validate or fail with a diagnostic."""
    rng = random.Random(4)
    corpus = [p.read_bytes() for p in sorted(MODELS.glob("*.big"))]
    model = tmp_path / "fuzz.big"
    for case in range(300):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(data) + 1)
            j = min(len(data), i + rng.randint(0, 12))
            op = rng.randrange(4)
            if op == 0:                   # cut
                del data[i:j]
            elif op == 1:                 # repeat a span, up to deep nesting
                data[i:i] = data[i:j] * rng.randint(2, 400)
            elif op == 2:                 # insert punctuation
                data[i:i] = bytes(rng.choice(b"().|/{}[];,=-+*@!")
                                  for _ in range(rng.randint(1, 8)))
            else:                         # overwrite with random bytes
                data[i:j] = bytes(rng.randrange(256) for _ in range(j - i))
        model.write_bytes(bytes(data))
        try:
            rc = run_cli(["validate", str(model)])
        except Exception as exc:
            pytest.fail("case %d raised %r on %r" % (case, exc, bytes(data)[:200]))
        assert rc in (0, 1), case
    capsys.readouterr()


def test_missing_file(capsys):
    assert run_cli(["validate", "no_such_model.big"]) != 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bigengine", "validate",
         str(MODELS / "buildings.big")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


# the instantaneous class grows the state by one A per reduction and never
# settles, so full and sim run until they are stopped
GROWING_SETTLE = """atomic ctrl A = 0; atomic ctrl K = 0;
react more = A --> A | A; react k = K --> K;
begin brs init A | K; rules = [ (more), {k} ]; end
"""


def test_interrupt_gives_one_line_diagnostic(tmp_path):
    # Ctrl-C in the middle of a settle ends full and sim with one error
    # line, no traceback and no transition file
    model = tmp_path / "grow.big"
    model.write_text(GROWING_SETTLE)
    tra = tmp_path / "grow.tra"
    procs = [subprocess.Popen([sys.executable, "-m", "bigengine", *argv, str(model)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in (["full", "-M", "10", "-p", str(tra)], ["sim", "-S", "5"])]
    try:
        time.sleep(1.5)                       # well past start-up and loading
        for proc in procs:
            assert proc.poll() is None        # still settling
            proc.send_signal(signal.SIGINT)
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode != 0
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert "Traceback" not in err
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    assert not tra.exists()


OVERFLOWING_RATES = b"""atomic ctrl A = 0;
atomic ctrl B = 0;
react r = A -[1.0e308]-> B;
react s = A -[1.0e308]-> A | A;
big start = A;
begin sbrs
  init start;
  rules = [ {r, s} ];
end
"""


@pytest.mark.parametrize("argv", [["sim", "-S", "3", "--seed", "1"],
                                  ["full", "-M", "4", "--allow-partial", "-p", "{tra}"]],
                         ids=["sim", "full"])
def test_overflowing_rates_give_diagnostic(tmp_path, capsys, argv):
    # each rate is finite, their sum is not: no trace or .tra may show `inf`
    model = tmp_path / "rates.big"
    model.write_bytes(OVERFLOWING_RATES)
    argv = [a.format(tra=tmp_path / "t.tra") for a in argv]
    assert run_cli(argv + [str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "inf" not in captured.out
    assert not (tmp_path / "t.tra").exists()


@pytest.mark.parametrize("argv", [["full", "-M", "-3"], ["full", "-M", "0"],
                                  ["sim", "-S", "-1"]],
                         ids=["full-negative", "full-zero", "sim-negative"])
def test_senseless_bounds_are_usage_errors(capsys, argv):
    # a bound that admits no run is refused before the model is read
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + [str(MODELS / "secure_building.big")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and argv[1] in captured.err


def test_smallest_bounds_run(capsys):
    assert run_cli(["full", "-M", "1", "--allow-partial",
                    str(MODELS / "secure_building.big")]) == 0
    assert "1 state(s)" in capsys.readouterr().out
    assert run_cli(["sim", "-S", "0", str(MODELS / "secure_building.big")]) == 0
    assert capsys.readouterr().out == "0\t-\t-\t-\n"


def test_settle_that_revisits_a_state_gives_diagnostic(tmp_path, capsys):
    # an instantaneous rule that rewrites a state to itself never settles
    model = tmp_path / "spin.big"
    model.write_text("atomic ctrl A = 0;\natomic ctrl B = 0;\nreact spin = A --> A;\n"
                     "react grow = B --> A | B;\nbig s0 = A | B;\n"
                     "begin brs init s0; rules = [ (spin), {grow} ]; end\n")
    assert run_cli(["sim", "-S", "3", "--seed", "1", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "revisits a state" in captured.err
    assert captured.out == ""


# pos's P(0.0) and neg's P(-0.0) compare equal, but print apart
SIGNED_ZEROS = """atomic fun ctrl P(x) = 0;
atomic ctrl Q = 0;
react pos = P(0.0) --> Q;
react neg = P(-0.0) --> Q | Q;
big s0 = P(-0.0);
begin brs init s0; rules = [ {pos, neg} ]; end
"""

# flip's result is P(-0.0): a new state, which flip no longer matches
FLIP_ZERO = """atomic fun ctrl P(x) = 0;
atomic ctrl Q = 0;
react flip = P(0.0) --> P(-0.0);
react go = P(-0.0) --> Q;
big s0 = P(0.0);
begin brs init s0; rules = [ (flip), {go} ]; end
"""


@pytest.mark.parametrize("source", [SIGNED_ZEROS, FLIP_ZERO], ids=["match", "settle"])
def test_labels_match_as_printed(tmp_path, capsys, source):
    # a pattern P(0.0) does not match P(-0.0), and a settle that leaves
    # P(0.0) for P(-0.0) has not revisited a state
    model = tmp_path / "zeros.big"
    model.write_text(source)
    assert run_cli(["full", str(model)]) == 0
    assert capsys.readouterr().out.endswith(": 2 state(s), 1 transition(s)\n")


@pytest.mark.parametrize("value", ["1.0e999", "1.0e308 * 10.0", "1.0e999 - 1.0e999"],
                         ids=["literal", "product", "difference"])
def test_non_finite_parameters_give_diagnostic(tmp_path, capsys, value):
    # inf and nan would print as P(inf) and P(nan), which do not re-parse
    model = tmp_path / "inf.big"
    model.write_text("atomic fun ctrl P(x) = 0;\nbig s0 = P(%s);\n"
                     "begin brs init s0; rules = []; end\n" % value)
    assert run_cli(["full", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "parameter" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


WEIGHTED = """atomic ctrl A = 0;
atomic ctrl B = 0;
react r = A -[%s]-> B;
react s = A -[1.0]-> A;
big start = A;
begin %s
  init start;
  rules = [ {r, s} ];%s
end
"""


@pytest.mark.parametrize("weight", ["1.0e999", "1.0e-400"], ids=["huge", "tiny"])
@pytest.mark.parametrize("semantics", ["pbrs", "abrs"])
def test_unrepresentable_weights_give_diagnostic(tmp_path, capsys, semantics, weight):
    # 1.0e999 is no float and 1.0e-400 rounds to 0: a .tra would show a
    # positive weight's transition with probability 0
    model = tmp_path / "weights.big"
    actions = "\n  actions = [ go = {r, s} ];" if semantics == "abrs" else ""
    model.write_text(WEIGHTED % (weight, semantics, actions))
    assert run_cli(["full", "-p", str(tmp_path / "t.tra"), str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "positive and finite" in captured.err
    assert "Traceback" not in captured.err and not (tmp_path / "t.tra").exists()


def test_full_on_a_20000_atom_state(tmp_path, capsys):
    # a flat state of 20,000 siblings loads, and every stored state is
    # matched, rewritten and identified
    model = tmp_path / "flat.big"
    model.write_text("ctrl R = 0;\natomic ctrl A = 0;\natomic ctrl B = 0;\n"
                     "atomic ctrl C = 0;\natomic ctrl D = 0;\nreact r = B --> C;\n"
                     "react s = C --> D;\nreact t = D --> B;\nbig start = R.(%s) | B;\n"
                     "begin brs init start; rules = [ {r, s, t} ]; end\n"
                     % " | ".join(["A"] * 20000))
    assert run_cli(["full", "-M", "3", str(model)]) == 0
    assert capsys.readouterr().out.endswith(": 3 state(s), 3 transition(s)\n")
