"""Differential check of the front end: the same model files through two
checkouts' ``src/`` directories, reporting every case whose outcome
differs.

    python tools/frontdiff.py OLD_SRC NEW_SRC [--mutants N] [--seed S]

The cases are the bundled models, hand-written hostile cases (deep and
long expressions, bad bytes, failing arithmetic) and N seeded mutants of
the bundled models, made as ``tests/test_cli.py``'s fuzz test makes them
(``--seed 4 --mutants 300`` gives that test's cases). Each case goes
through ``bigengine validate``; a case that loads is also printed with
``print_spec``, and so is every state that ``explore -M 60`` stores.
Each side runs every case in one subprocess. The check prints each case
whose exit code, stderr or printed text differs, then a count, and exits
1 when any case differs. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = Path(__file__).resolve().parent.parent / "models"
MAX_STATES = 60
CASE_SECONDS = 30

HEAD = "ctrl R = 0;\natomic ctrl A = 0;\natomic ctrl L = 1;\natomic fun ctrl P(x) = 0;\n"
BLOCK = "\nbegin brs\n  init start;\n  rules = [];\nend\n"


def _model(big: str = "1", init: str = "1") -> bytes:
    return (HEAD + "big probe = %s;\nbig start = %s;%s" % (big, init, BLOCK)).encode()


def _brackets(d: int) -> dict:
    """One bracket form per entry, nested d deep."""
    return {
        "paren": "(" * d + "1" + ")" * d,
        "nest-paren": "R.(" * d + "1" + ")" * d,
        "share": "share id by ([{0}], 1) in " * d + "R",
        "closure": "".join("/x%d (L{x%d} | " % (k, k) for k in range(d)) + "1" + ")" * d,
        "arith": "P(" + "(1 + " * d + "1" + ")" * d + ")",
    }


def hostile_cases() -> dict:
    cases = {
        "deep-nest-990": _model(init="R." * 990 + "A"),
        "deep-nest-600-printed": _model(init="R." * 600 + "1"),
        "deep-nest-20000": _model(big="R." * 20000 + "A"),
        "deep-paren-200-open": b"ctrl R = 0;\nbig b = " + b"R.(" * 200 + b"\n",
        "deep-paren-5000-open": b"ctrl R = 0;\nbig b = " + b"R.(" * 5000 + b"\n",
        "long-merge-20000": _model(big=" | ".join(["A"] * 20000)),
        "long-parallel-1000": _model(big=" || ".join(["A"] * 1000)),
        "long-closure-800": _model(init="".join("/x%d " % i for i in range(800))
                                   + " | ".join("L{x%d}" % i for i in range(800))),
        "long-sum-3000": _model(init="P(%s)" % " + ".join(["1"] * 3000)),
        "long-product-3000": _model(init="P(7%s)" % (" * 2 / 2" * 1500)),
        "minus-run-3000": _model(init="P(%s5)" % ("-" * 3000)),
        "minus-run-string": _model(init='P(- - "s")'),
        "string-in-chain": _model(init='P(1 + "s" + y)'),
        "int-division": _model(init="P(1 + 2 / 0 + 3)"),
        "float-div-zero": _model(init="P(1.0 / 0.0)"),
        "overflow": _model(init="P(%s * 1.5)" % ("9" * 400)),
        "not-utf8": b"\xff\xfe ctrl",
        "empty": b"",
        "no-block": HEAD.encode(),
        "open-block": HEAD.encode() + b"begin brs init start;",
        "atomic-nest": _model(init="A.R"),
        "width": _model(init="R.(A || A)"),
        "shared-sites": _model(init="share (A || A) by ([{0,1}, {1}], 2) in (R.(id | R.id))"),
    }
    for d in (100, 5000):
        for form, text in _brackets(d).items():
            cases["bracket-%s-%d" % (form, d)] = _model(big=text)
    return cases


def mutants(n: int, seed: int) -> dict:
    """n mutants of the bundled models, drawn as the fuzz test draws them."""
    rng = random.Random(seed)
    corpus = [p.read_bytes() for p in sorted(MODELS.glob("*.big"))]
    out = {}
    for case in range(n):
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
        out["mutant-%04d" % case] = bytes(data)
    return out


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_case(path: str) -> dict:
    """Exit code and stderr of ``validate``, then the printed model and
    stored states of a case that loads. Runs in the worker process."""
    from bigengine.cli import run_cli
    from bigengine.elaborate import load_file
    from bigengine.engine import explore
    from bigengine.printing import print_bigraph, print_spec

    def outcome(work):
        try:
            return work()
        except _Timeout:
            return "timeout after %d s" % CASE_SECONDS
        except Exception as exc:          # a crash is an outcome here
            return "%s: %s" % (type(exc).__name__, exc)

    err = io.StringIO()
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = outcome(lambda: run_cli(["validate", path]))
        row = {"rc": rc, "stderr": err.getvalue()}
        if rc == 0:
            spec = load_file(path)
            row["spec"] = outcome(lambda: print_spec(spec))
            row["states"] = outcome(lambda: [print_bigraph(s)
                                             for s in explore(spec, MAX_STATES).states])
    finally:
        signal.alarm(0)
    return row


def worker(case_dir: str) -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for path in sorted(Path(case_dir).iterdir()):
        row = run_case(str(path))
        print(json.dumps({"case": path.stem, **row}), flush=True)


def run_side(src: str, case_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, __file__, "--worker", case_dir], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return {row.pop("case"): row for row in rows}


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 160 else text[:150] + "... (%d chars)" % len(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--mutants", type=int, default=300)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args(argv)
    cases = {"model-" + p.stem: p.read_bytes() for p in sorted(MODELS.glob("*.big"))}
    cases.update(("hostile-" + name, data) for name, data in hostile_cases().items())
    cases.update(mutants(args.mutants, args.seed))
    with tempfile.TemporaryDirectory() as case_dir:
        for name, data in cases.items():
            (Path(case_dir) / (name + ".big")).write_bytes(data)
        old, new = run_side(args.old_src, case_dir), run_side(args.new_src, case_dir)
    differ = 0
    for name in sorted(cases):
        fields = [k for k in ("rc", "stderr", "spec", "states")
                  if old[name].get(k) != new[name].get(k)]
        if fields:
            differ += 1
            print("%s differs in %s" % (name, ", ".join(fields)))
            for k in fields:
                print("  old %s: %s" % (k, _short(old[name].get(k))))
                print("  new %s: %s" % (k, _short(new[name].get(k))))
    loaded = sum(row["rc"] == 0 for row in new.values())
    states = sum(len(row["states"]) for row in new.values() if isinstance(row.get("states"), list))
    print("%d cases (%d load on the new side, %d stored states printed), %d differ"
          % (len(cases), loaded, states, differ))
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
