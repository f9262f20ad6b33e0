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
], ids=["deep-nest", "deep-paren", "not-utf8", "long-merge"])
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
