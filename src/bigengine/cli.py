"""Command-line driver.

    bigengine validate model.big
    bigengine sim  -S 100 [-l labels.csl] [--seed N] model.big
    bigengine full -M 1000 [-l labels.csl] [-p out.tra] [--dot out.dot]
                   [--allow-partial] [--check-confluence] model.big

``sim`` writes the trace to stdout, one line per step:
``step<TAB>rule<TAB>label<TAB>time`` (label and time are ``-`` where not
applicable). ``full`` explores breadth-first and writes the transition
table (-p), the label map (-l) and a dot rendering (--dot). The seed
falls back to the BIGENGINE_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .canon import StateStore
from .elaborate import load_file
from .engine import SimTrace, TransitionSystem, explore, label_states, simulate
from .errors import BigraphError, PartialSystem
from .export import fmt_label, write_dot, write_labels, write_tra


def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %s" % (low, text))
        return int(text)
    parse.__name__ = "int"                # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigengine",
        description="Build, simulate, and explore bigraphical reactive systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse, elaborate and validate a model")
    p_val.add_argument("model")

    p_sim = sub.add_parser("sim", help="run a single simulation trace")
    p_sim.add_argument("-S", "--max-steps", type=_at_least(0), default=1000,
                       help="maximum number of steps, at least 0 (default 1000)")
    p_sim.add_argument("-l", "--labels", metavar="PATH",
                       help="write the predicate label map for the trace states")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("model")

    p_full = sub.add_parser("full", help="explore the full transition system")
    p_full.add_argument("-M", "--max-states", type=_at_least(1), default=10000,
                        help="maximum number of stored states, at least 1 (default 10000)")
    p_full.add_argument("-l", "--labels", metavar="PATH")
    p_full.add_argument("-p", "--transitions", metavar="PATH",
                        help="write the transition table")
    p_full.add_argument("--dot", metavar="PATH",
                        help="write a dot rendering of the transition system")
    p_full.add_argument("--allow-partial", action="store_true",
                        help="export even when the state bound was hit")
    p_full.add_argument("--check-confluence", action="store_true",
                        help="verify instantaneous rules settle independently of order "
                             "(every order from the first state with a choice, one match "
                             "per orbit key)")
    p_full.add_argument("model")
    return parser


def _trace_lines(trace: SimTrace):
    for step, (state, rule, label) in enumerate(trace.steps):
        t = "-" if trace.times is None else repr(trace.times[step])
        label = "-" if label is None else fmt_label(label, ":")
        yield "%d\t%s\t%s\t%s" % (step, rule or "-", label, t)


def _trace_label_file(spec, trace: SimTrace) -> bytes:
    """Label map over the distinct states of a trace, in first-visit order."""
    store = StateStore()
    for state, _, _ in trace.steps:
        store.insert(state)
    ts = TransitionSystem(states=store.states, transitions=[],
                          labelling=label_states(store.states, spec),
                          semantics=spec.semantics, predicates=tuple(spec.preds))
    return write_labels(ts)


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_file(args.model)
        if args.command == "validate":
            print("%s: ok" % args.model)
            return 0
        if args.command == "sim":
            seed = args.seed
            if seed is None:
                env = os.environ.get("BIGENGINE_SEED", "0")
                try:
                    seed = int(env)
                except ValueError:
                    print("error: BIGENGINE_SEED is not an integer: %r" % env, file=sys.stderr)
                    return 1
            trace = simulate(spec, args.max_steps, seed)
            sys.stdout.write("\n".join(_trace_lines(trace)) + "\n")
            if args.labels:
                with open(args.labels, "wb") as fh:
                    fh.write(_trace_label_file(spec, trace))
            return 0
        ts = explore(spec, args.max_states, check_confluence=args.check_confluence)
        if ts.partial and not args.allow_partial and (args.transitions or args.labels or args.dot):
            # refused before any output file is opened, so none is created or emptied
            raise PartialSystem("transition system is partial (state bound %d hit); pass "
                                "--allow-partial to export anyway" % args.max_states)
        if args.transitions:
            with open(args.transitions, "wb") as fh:
                fh.write(write_tra(ts, allow_partial=args.allow_partial))
        if args.labels:
            with open(args.labels, "wb") as fh:
                fh.write(write_labels(ts))
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(write_dot(ts))
        print("%s: %d state(s), %d transition(s)%s"
              % (args.model, len(ts.states), len(ts.transitions),
                 " (partial)" if ts.partial else ""))
        return 0
    except (BigraphError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run_cli())
