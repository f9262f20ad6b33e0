import random
import subprocess
import sys

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
    (b"ctrl R = 0;\nbig b = " + b"R." * 990 + b"1;\n",
     "error: line 2, column "),
    (b"ctrl R = 0;\nbig b = " + b"R.(" * 200 + b"\n",
     "error: line 2, column "),
    (b"\xff\xfe ctrl",
     "error: line 1, column 1: byte 0xff is not valid UTF-8"),
    (b"ctrl R = 0;\nbig b = " + b"R | " * 1500 + b"R;\nbegin brs init b; rules = []; end\n",
     "error: expression nested too deeply"),
    (b"fun ctrl P(x) = 0;\nbig b = P(1.0/0.0);\nbegin brs init b; rules = []; end\n",
     "error: 1.0 / 0.0 is not a number"),
], ids=["deep-nest", "deep-paren", "not-utf8", "long-merge", "float-div-zero"])
def test_hostile_model_gives_diagnostic(tmp_path, capsys, data, message):
    model = tmp_path / "hostile.big"
    model.write_bytes(data)
    assert run_cli(["validate", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


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
