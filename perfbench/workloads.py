"""The benchmark's workloads.

Each workload writes its inputs as ``.big`` files made from the seed,
and then runs passes. A pass loads every input and runs every operation
on it (one ``explore`` or one ``simulate`` trace), building the same
artifacts a user of ``bigengine full`` or ``bigengine sim`` gets.
``check`` then compares one operation's output with a reference that
does not come from bigengine, and returns the artifact bytes that every
later pass must reproduce exactly.

The engine is reached through module attributes (``engine.explore``,
not a name imported here) so that the layer tracer sees every call.
"""

from __future__ import annotations

import importlib
import random
import re
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import building
from bigengine import engine, export

# The package binds the name `elaborate` to the function of that name.
elaborate = importlib.import_module("bigengine.elaborate")

# Explored bound for `grow`. Explore time grows about cubically with it
# in the engine the benchmark was written against; at 40 a pass took
# about 1.3 s there, on a 2.1 GHz Xeon.
GROW_BOUND = 40

# Every `rooms` and `sim` building has this shape and, in the tuple
# model, exactly BUILDING_SIZE (states, transitions): the seed varies
# the layout but not the size of the state space. How much matching a
# trace needs still follows the layout (about 10% between seeds with
# two buildings), so `sim` averages over SIM_BUILDINGS of them.
BUILDING_SHAPE = {"rooms": 4, "extra_doors": 2, "intruders": 2, "cameras": 1}
BUILDING_SIZE = (16, 64)
ROOMS_BUILDINGS = 2
# Four times the states a building has: a correct engine explores it
# completely, a broken one stops soon and fails the check.
ROOMS_MAX_STATES = 4 * BUILDING_SIZE[0]
SIM_BUILDINGS = 6
SIM_TRACES = 2                 # trace seeds per building
SIM_STEPS = 30


@dataclass
class Pass:
    units: list = field(default_factory=list)     # [seconds, engine seconds] per unit of work
    states: int = 0            # stored states (explore) or trace states (simulate)
    steps: int = 0             # transitions (explore) or simulated steps
    outputs: list = field(default_factory=list)   # one per operation; None if it raised
    traced: bool = False
    # Set by run.py from `units` and the speed probes between them.
    wall_s: float = 0.0        # first load to last artifact, in reference seconds
    engine_s: float = 0.0      # inside explore / simulate, in reference seconds
    scale: float = 1.0         # reference seconds per second over the pass


def attempt(fn, *args):
    """fn(*args), or None after printing the traceback: an operation that
    raises counts as failed and the pass goes on."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def _unit(p, between, work):
    """Time one unit of work, then call `between` (the speed probe)
    outside the timed span."""
    p.units.append([0.0, 0.0])
    start = perf_counter()
    work()
    p.units[-1][0] = perf_counter() - start
    between()


def _explore_pass(inputs, bound, exports, between) -> Pass:
    """Load, explore and export every input once; one input is one unit."""
    p = Pass()
    for path in inputs:
        _unit(p, between, lambda: p.outputs.append(attempt(_explore, path, bound, exports, p)))
    return p


def _explore(path, bound, exports, p):
    spec = elaborate.load_file(path)
    t = perf_counter()
    ts = engine.explore(spec, bound)
    p.units[-1][1] += perf_counter() - t
    p.states += len(ts.states)
    p.steps += len(ts.transitions)
    return ts, exports(ts)


def _write(out, name, text):
    path = out / name
    path.write_text(text, encoding="utf-8")
    return path


class Grow:
    """Bundled ``pbrs_detect`` and ``copy``: each stored state is one
    entity larger than the last, so state identity dominates."""

    def __init__(self, seed, root, out):
        # The seed renames every control, so the engine sees seed-made text.
        suffix = "_s%04x" % random.Random(seed).getrandbits(16)
        self.inputs = []
        for name in ("pbrs_detect", "copy"):
            text = (root / "models" / (name + ".big")).read_text(encoding="utf-8")
            controls = re.findall(r"\bctrl\s+([A-Za-z]\w*)", text)
            text = re.sub(r"\b(%s)\b" % "|".join(controls), r"\g<1>" + suffix, text)
            self.inputs.append(_write(out, name + ".big", text))
        # (control that grows, its count in state 0, closed-form transitions)
        m = GROW_BOUND
        self.expected = [
            ("Alarm" + suffix, 0,
             Counter([(k, k, Fraction(1, 5)) for k in range(m)]
                     + [(k, k + 1, Fraction(4, 5)) for k in range(m - 1)])),
            ("Data" + suffix, 2, Counter((k, k + 1, None) for k in range(m - 1))),
        ]

    def run_pass(self, between) -> Pass:
        return _explore_pass(self.inputs, GROW_BOUND,
                             lambda ts: export.write_tra(ts, allow_partial=True), between)

    def check(self, op, output):
        """Only states below the bound and transitions between them are
        checked; what a partial system shows at its frontier is not."""
        ts, tra = output
        grows, base, transitions = self.expected[op]
        m = GROW_BOUND
        sizes = [s.ctrl.count(grows) for s in ts.states[:m]]
        inside = Counter((t.src, t.dst, t.label) for t in ts.transitions
                         if t.src < m and t.dst < m)
        return sizes == [base + k for k in range(m)] and inside == transitions, tra


class Rooms:
    """Generated buildings explored completely and exported: many small
    states, so matching, settling, guards, labels and the store all work."""

    def __init__(self, seed, root, out):
        rng = random.Random(seed)
        self.buildings = [building.draw_sized(rng, BUILDING_SHAPE, *BUILDING_SIZE)
                          for _ in range(ROOMS_BUILDINGS)]
        self.inputs = [_write(out, "rooms%d.big" % i, building.big_text(b))
                       for i, b in enumerate(self.buildings)]
        self.reference = [building.reachable(b) for b in self.buildings]

    def run_pass(self, between) -> Pass:
        return _explore_pass(self.inputs, ROOMS_MAX_STATES, lambda ts: (
            export.write_tra(ts), export.write_labels(ts), export.write_dot(ts).encode()),
            between)

    def check(self, op, output):
        ts, artifacts = output
        b = self.buildings[op]
        init, order, transitions = self.reference[op]
        try:
            numbering = [building.decode(b, s) for s in ts.states]
        except ValueError:
            traceback.print_exc()
            return False, None
        blob = b"\0".join(artifacts)
        if (ts.partial or len(numbering) != len(order) or set(numbering) != set(order)
                or numbering[0] != init):
            return False, blob
        got = Counter((numbering[t.src], numbering[t.dst]) for t in ts.transitions)
        if got != Counter(transitions):
            return False, blob
        for name in building.PREDICATES:
            want = {i for i, s in enumerate(numbering) if name in building.labels(b, s)}
            if ts.labelling.get(name) != want:
                return False, blob
        return artifacts == building.expected_exports(b, numbering), blob


class Sim:
    """Seeded brs traces on generated buildings: all matching and
    settling, no state identity."""

    def __init__(self, seed, root, out):
        rng = random.Random(seed)
        self.buildings = [building.draw_sized(rng, BUILDING_SHAPE, *BUILDING_SIZE)
                          for _ in range(SIM_BUILDINGS)]
        self.inputs = [_write(out, "sim%d.big" % i, building.big_text(b))
                       for i, b in enumerate(self.buildings)]
        self.trace_seeds = [rng.randrange(2 ** 31) for _ in range(SIM_TRACES)]

    def run_pass(self, between) -> Pass:
        """One building, loaded once and traced with every seed, is one unit."""
        p = Pass()
        for path in self.inputs:
            _unit(p, between, lambda: self._building(path, p))
        return p

    def _building(self, path, p):
        spec = attempt(elaborate.load_file, path)
        for seed in self.trace_seeds:
            p.outputs.append(None if spec is None else attempt(self._trace, spec, seed, p))

    def _trace(self, spec, seed, p):
        t = perf_counter()
        trace = engine.simulate(spec, SIM_STEPS, seed)
        p.units[-1][1] += perf_counter() - t
        p.states += len(trace.steps)
        p.steps += len(trace.steps) - 1
        return trace

    def check(self, op, trace):
        """Every step is a legal move of the tuple model; the artifact is
        the trace as lines of step, rule and decoded state."""
        b = self.buildings[op // SIM_TRACES]
        try:
            states = [building.decode(b, s) for s, _, _ in trace.steps]
        except ValueError:
            traceback.print_exc()
            return False, None
        rules = [rule for _, rule, _ in trace.steps]
        lines = "".join("%d\t%s\t%s\n" % (i, rule or "-", state)
                        for i, (rule, state) in enumerate(zip(rules, states)))
        ok = (len(states) == SIM_STEPS + 1 and states[0] == building.initial(b)
              and rules[0] is None and all(r == "move" for r in rules[1:])
              and all(label is None for _, _, label in trace.steps)
              and all(t in building.successors(b, s) for s, t in zip(states, states[1:])))
        return ok, lines.encode()


WORKLOADS = {"grow": Grow, "rooms": Rooms, "sim": Sim}
