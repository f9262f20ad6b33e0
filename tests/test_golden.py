"""Golden artifacts: SHA-256 digests of what the CLI writes for every
bundled model.

Per model it runs ``full -M 60 --allow-partial -p -l --dot``, with and
without ``--check-confluence``, and ``sim -S 30 --seed N -l`` for seeds
1 to 3, and hashes each written file, stdout, stderr and the exit code.
A change that must not alter behaviour keeps every digest. After an
intended change of output, regenerate the digest file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from bigengine.cli import run_cli

from conftest import MODELS

DIGESTS = pathlib.Path(__file__).resolve().parent / "golden_digests.json"

RUNS = {
    "full": ["full", "-M", "60", "--allow-partial"],
    "full-confluence": ["full", "-M", "60", "--allow-partial", "--check-confluence"],
    "sim-1": ["sim", "-S", "30", "--seed", "1"],
    "sim-2": ["sim", "-S", "30", "--seed", "2"],
    "sim-3": ["sim", "-S", "30", "--seed", "3"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], model: pathlib.Path) -> dict:
    """One CLI run; the model path is replaced by its file name in the
    captured streams so digests do not depend on the checkout's location."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        files = {"csl": out / "out.csl"}
        if argv[0] == "full":
            files.update(tra=out / "out.tra", dot=out / "out.dot")
        args = list(argv) + ["-l", str(files["csl"])]
        if argv[0] == "full":
            args += ["-p", str(files["tra"]), "--dot", str(files["dot"])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run_cli(args + [str(model)])
        got = {"exit": rc}
        for name, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            got[name] = _sha(text.replace(str(model), model.name).encode())
        for name, path in sorted(files.items()):
            got[name] = _sha(path.read_bytes()) if path.exists() else None
    return got


def current_digests() -> dict:
    return {"%s %s" % (model.name, run): _run(argv, model)
            for model in sorted(MODELS.glob("*.big"))
            for run, argv in RUNS.items()}


def test_artifacts_match_golden_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = current_digests()
    assert sorted(got) == sorted(want)
    changed = ["%s: %s" % (run, ", ".join(k for k in want[run] if got[run].get(k) != want[run][k]))
               for run in want if got[run] != want[run]]
    assert not changed, "outputs differ from the golden digests:\n" + "\n".join(changed)


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
