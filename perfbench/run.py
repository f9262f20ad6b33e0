"""bigengine benchmark.

    python3 perfbench/run.py --workload grow|rooms|sim --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout; the engine is imported from ``src/``.
The inputs are made from the seed, then whole passes of the workload
run until S seconds have passed (at least two). Timings are given in
reference seconds, which cancel the host's speed drift (speed.py).
Every operation is
checked against a reference that does not come from bigengine, and
every pass must rebuild the first pass's artifacts byte for byte.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, medians over passes; with
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones. ``--workload all`` runs every workload in its own
process and prints a table. Inputs, results and spans are written under
``.bench_out/``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3            # per pass
MIN_PASSES = 2
WORKLOAD_NAMES = ("grow", "rooms", "sim")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "states_per_s": "1/s", "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_engine():
    sys.path.insert(0, str(ROOT / "src"))
    import bigengine
    found = Path(bigengine.__file__).resolve().parent
    if found != ROOT / "src" / "bigengine":
        raise ImportError("bigengine imported from %s, not from this checkout" % found)


def _validates(path) -> bool:
    """`bigengine validate` accepts the file."""
    from bigengine import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.run_cli(["validate", str(path)]) == 0
        except Exception:
            traceback.print_exc()
            return False


def _setup_time(wl) -> float:
    from workloads import elaborate
    start = perf_counter()
    for path in wl.inputs:
        elaborate.load_file(path)
    return perf_counter() - start


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def run_passes(wl, seconds, tracer):
    """Passes until `seconds` have passed. With a tracer, untraced and
    traced passes alternate, starting untraced, at least two of each.

    SETUP_ROUNDS set-ups are timed before each pass, so that set-up is
    sampled over the whole run like the passes are. The speed probe runs
    before the first pass and after every unit of work; each unit is
    scaled to reference seconds by the two probes around it, and the
    set-ups by those around the pass's first unit.

    Returns (set-up reference seconds, passes, layer rows of the traced
    passes, attempted, failed, probe seconds).
    """
    import speed
    from workloads import attempt
    setup, passes, rows = [], [], []
    baseline = None
    attempted = failed = 0
    start = perf_counter()
    need = 2 * MIN_PASSES if tracer else MIN_PASSES
    probes = [speed.probe()]
    while len(passes) < need or perf_counter() - start < seconds or (tracer and len(passes) % 2):
        setups = [t for t in (attempt(_setup_time, wl) for _ in range(SETUP_ROUNDS)) if t]
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        first = len(probes) - 1
        try:
            p = wl.run_pass(lambda: probes.append(speed.probe()))
        finally:
            if traced:
                tracer.remove()
        p.traced = traced
        scales = [speed.scale(a, b) for a, b in zip(probes[first:], probes[first + 1:])]
        p.wall_s = sum(w * s for (w, _), s in zip(p.units, scales))
        p.engine_s = sum(e * s for (_, e), s in zip(p.units, scales))
        p.scale = p.wall_s / sum(w for w, _ in p.units)
        setup += [t * scales[0] for t in setups]
        if traced:
            rows.append(tracer.collect())
        artifacts = []
        for op, output in enumerate(p.outputs):
            ok, artifact = (False, None) if output is None else wl.check(op, output)
            artifacts.append(artifact)
            if baseline is not None and artifact != baseline[op]:
                print("pass %d operation %d: artifact differs from the first pass"
                      % (len(passes), op), file=sys.stderr)
                ok = False
            attempted += 1
            failed += not (ok and artifact is not None)
        if baseline is None:
            baseline = artifacts
        p.outputs = None          # keep memory flat however many passes run
        passes.append(p)
    return setup, passes, rows, attempted, failed, probes


def end_to_end(setup, passes):
    """Medians over passes, in reference seconds."""
    return {
        "setup_s": median(setup or [0.0]),
        "wall_s": median(p.wall_s for p in passes),
        "states_per_s": median(_rate(p.states, p.engine_s) for p in passes),
        "steps_per_s": median(_rate(p.steps, p.engine_s) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _counts(row):
    return {name: (r["calls"], r["outcome"]) for name, r in sorted(row.items())}


def per_layer(passes, rows):
    """Per-layer metrics: counts of one traced pass (they repeat exactly),
    self seconds as the median over traced passes, in reference seconds."""
    first = rows[0]
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    def outcome(name):
        return first.get(name, {}).get("outcome", 0)

    def self_s(name):
        return median(r.get(name, {}).get("self_s", 0.0) * p.scale
                      for r, p in zip(rows, traced))

    m = {}
    m["elaborate.load_file.self_s"] = (self_s("elaborate.load_file"), "s")
    for name in ("matching.find_occurrences", "matching.check_constraints",
                 "matching.matches_predicate", "rules.apply_at", "engine.enabled_class",
                 "engine.reduce_instantaneous", "engine.step_distribution",
                 "canon.canonical_key", "canon.iso_equal"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("engine.explore", "engine.simulate"):
        m[name + ".self_s"] = (self_s(name), "s")
    occurrences = outcome("matching.find_occurrences")
    m["matching.find_occurrences.occurrences"] = (occurrences, "count")
    m["matching.occ_used_ratio"] = (_ratio(calls("rules.apply_at"), occurrences), "ratio")
    m["matching.check_constraints.pass_ratio"] = (
        _ratio(outcome("matching.check_constraints"), calls("matching.check_constraints")), "ratio")
    m["engine.step_distribution.successors"] = (outcome("engine.step_distribution"), "count")
    m["canon.iso_equal.true_ratio"] = (
        _ratio(outcome("canon.iso_equal"), calls("canon.iso_equal")), "ratio")
    m["canon.keys_per_state"] = (_ratio(calls("canon.canonical_key"), traced[0].states), "ratio")
    m["canon.StateStore.insert.calls"] = (calls("canon.StateStore.insert"), "count")
    m["canon.StateStore.lookup.calls"] = (calls("canon.StateStore.lookup"), "count")
    for name in ("export.write_tra", "export.write_labels", "export.write_dot"):
        m[name + ".self_s"] = (self_s(name), "s")
        m[name + ".bytes"] = (outcome(name), "bytes")
    untraced_wall = median(p.wall_s for p in untraced)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (median(p.wall_s for p in traced) - untraced_wall, "s")
    return m


def run_workload(args) -> int:
    try:
        _import_engine()
    except ImportError as exc:
        print("perfbench: cannot import bigengine: %s" % exc, file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    out = ROOT / ".bench_out" / ("%s-seed%d" % (args.workload, args.seed))
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, out)
    inputs = hashlib.sha256()
    for path in wl.inputs:
        inputs.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    print("workload %s  seed %d  inputs sha256 %s" % (args.workload, args.seed, inputs.hexdigest()))

    valid = all(_validates(path) for path in wl.inputs)
    tracer = tracing.Tracer() if args.trace else None
    setup, passes, rows, attempted, failed, probes = run_passes(wl, args.seconds, tracer)
    correct = valid and failed == 0
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs_sha256": inputs.hexdigest(), "passes": len(passes),
              "fail_share": failed / attempted, "probe_s": median(probes),
              "pass_plain_s": [sum(w for w, _ in p.units) for p in passes]}

    if tracer is None:
        values = end_to_end(setup, passes)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        repeat = all(_counts(r) == _counts(rows[0]) for r in rows)
        if not repeat:
            print("tracer self-check: call counts differ between traced passes", file=sys.stderr)
        correct = correct and repeat
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(passes, rows).items()}
        result["counts_sha256"] = hashlib.sha256(
            json.dumps(_counts(rows[0])).encode()).hexdigest()
        result["counts_repeat"] = repeat
        tracer.write_spans(out / "spans.jsonl")
        print("tracer self-check: artifacts %s, call counts %s (sha256 %s), overhead %+.4f s"
              % ("identical" if failed == 0 else "DIFFER OR FAIL",
                 "repeat" if repeat else "DIFFER", result["counts_sha256"],
                 metrics["trace.overhead_s"]["value"]))

    for name, m in metrics.items():
        print("%s  %-40s %14.6g %s" % (args.workload, name, m["value"], m["unit"]))
    print("%s  fail_share %d/%d = %g   passes %d   median probe %.4f s (reference %.4f s)"
          % (args.workload, failed, attempted, failed / attempted, len(passes),
             median(probes), speed.REFERENCE_S))
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result["result"] = final
    (out / ("result-trace%d.json" % args.trace)).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d" % (name, proc.returncode))
            status = 1
            continue
        final = json.loads(lines[-1])
        for metric, m in final["metrics"].items():
            print("%-6s %-40s %14.6g %s" % (name, metric, m["value"], m["unit"]))
        print("%-6s %-40s %14.6g   (%d/%d, correct %s)"
              % (name, "fail_share", final["failed"] / final["attempted"],
                 final["failed"], final["attempted"], final["correct"]))
        status |= not final["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
