"""File emitters: PRISM transition files per semantics, predicate label
files, and a dot rendering of the transition system.

All output is byte-deterministic for a fixed model: states are indexed
in discovery order and lines are sorted source-major, destination-minor.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import Transition, TransitionSystem
from .errors import PartialSystem


def fmt_number(value) -> str:
    """Integral values without a decimal point, others as repr(float)."""
    v = float(value)
    if v.is_integer():
        return str(int(v))
    return repr(v)


def fmt_label(label, sep: str) -> str:
    """A transition label that is not None: a number (probability or
    rate), or an abrs ``action<sep>probability`` pair."""
    if isinstance(label, tuple):
        return "%s%s%s" % (label[0], sep, fmt_number(label[1]))
    return fmt_number(label)


TRUNCATED = "_truncated"       # the sink's label: no predicate name starts with "_"


def write_tra(ts: TransitionSystem, allow_partial: bool = False) -> bytes:
    """Transition table. brs/pbrs/sbrs: ``numStates numTransitions`` then
    ``src dst value`` lines (uniform probability for brs, probability for
    pbrs, rate for sbrs); deadlock states get a probability-1 self-loop.
    abrs: ``numStates numChoices numTransitions`` then
    ``src choice dst prob action`` lines, one choice per enabled action.

    A partial system gets one more state, the absorbing sink numbered
    ``len(ts.states)`` with a probability-1 self-loop. Each state the
    bound cut off goes to it with the mass of its dropped successor
    groups: their share of the uniform choice (brs), their summed
    probabilities (pbrs) or rates (sbrs), or, in each action's choice,
    that action's dropped probability (abrs).
    """
    if ts.partial and not allow_partial:
        raise PartialSystem(
            "transition system is partial; pass allow_partial to export anyway")
    n = len(ts.states)
    total = n + ts.partial               # states written, the sink included
    mass = [(t.src, t.dst, t.label) for t in ts.transitions]
    mass += [(src, n, label) for src, label, _ in ts.dropped]
    lines = []
    if ts.semantics in ("brs", "pbrs", "sbrs"):
        outdeg = [0] * total
        for src, _, _ in mass:
            outdeg[src] += 1
        values: dict = {}                # (src, dst) -> value
        for src, dst, label in mass:
            value = Fraction(1, outdeg[src]) if ts.semantics == "brs" else label
            values[src, dst] = values.get((src, dst), 0) + value
        for s in range(total):
            if outdeg[s] == 0:
                values[s, s] = 1
        lines.append("%d %d" % (total, len(values)))
        for (src, dst), value in sorted(values.items()):
            lines.append("%d %d %s" % (src, dst, fmt_number(value)))
    else:
        per_state: dict[int, dict[str, dict]] = {}    # src -> action -> dst -> probability
        for src, dst, (action, prob) in mass:
            dsts = per_state.setdefault(src, {}).setdefault(action, {})
            dsts[dst] = dsts.get(dst, 0) + prob
        rows = []
        nchoices = 0
        for s in range(total):
            actions = per_state.get(s)
            if not actions:
                rows.append((s, 0, s, 1, None))
                nchoices += 1
                continue
            ci = 0
            for action in ts.actions:
                if action not in actions:
                    continue
                for dst, prob in sorted(actions[action].items()):
                    rows.append((s, ci, dst, prob, action))
                ci += 1
            nchoices += ci
        lines.append("%d %d %d" % (total, nchoices, len(rows)))
        for src, ci, dst, prob, action in rows:
            row = "%d %d %d %s" % (src, ci, dst, fmt_number(prob))
            if action is not None:
                row += " %s" % action
            lines.append(row)
    return ("\n".join(lines) + "\n").encode()


def write_labels(ts: TransitionSystem) -> bytes:
    """PRISM label map. The first line declares label indices with
    ``init`` always 0; then one ``state: idx...`` line per labelled state.
    A partial system's sink (``write_tra``) is labelled ``_truncated``."""
    decls = ['0="init"']
    index = {}
    for i, p in enumerate(ts.predicates):
        decls.append('%d="%s"' % (i + 1, p))
        index[p] = i + 1
    if ts.partial:
        decls.append('%d="%s"' % (len(decls), TRUNCATED))
    lines = [" ".join(decls)]
    for s in range(len(ts.states)):
        labs = []
        if s == ts.init_index:
            labs.append(0)
        for p in ts.predicates:
            if s in ts.labelling.get(p, ()):
                labs.append(index[p])
        if labs:
            lines.append("%d: %s" % (s, " ".join(str(x) for x in sorted(labs))))
    if ts.partial:
        lines.append("%d: %d" % (len(ts.states), len(decls) - 1))
    return ("\n".join(lines) + "\n").encode()


def write_dot(ts: TransitionSystem) -> str:
    """Directed graph of the transition system: node label is the state
    index plus its predicate names, the initial state is bold, edges are
    annotated with their probability/rate/action label. A partial
    system's sink (``write_tra``) is labelled ``_truncated`` and takes
    one edge per dropped successor group."""
    n = len(ts.states)
    lines = ["digraph transition_system {"]
    for s in range(n):
        preds = [p for p in ts.predicates if s in ts.labelling.get(p, ())]
        label = str(s) if not preds else "%d: %s" % (s, " ".join(preds))
        style = ', style=bold' if s == ts.init_index else ""
        lines.append('  %d [label="%s"%s];' % (s, label, style))
    if ts.partial:
        lines.append('  %d [label="%d: %s"];' % (n, n, TRUNCATED))
    cut = [Transition(src, n, label, rules) for src, label, rules in ts.dropped]
    for t in sorted(ts.transitions + cut, key=lambda t: t.sort_key()):
        attr = "" if t.label is None else ' [label="%s"]' % fmt_label(t.label, ": ")
        lines.append("  %d -> %d%s;" % (t.src, t.dst, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"
