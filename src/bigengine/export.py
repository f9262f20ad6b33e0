"""File emitters: PRISM transition files per semantics, predicate label
files, and a dot rendering of the transition system, plus a reader for
the transition format used by tests.

All output is byte-deterministic for a fixed model: states are indexed
in discovery order and lines are sorted source-major, destination-minor.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import TransitionSystem
from .errors import PartialSystem


def fmt_number(value) -> str:
    """Integral values without a decimal point, others as repr(float)."""
    v = float(value)
    if v.is_integer():
        return str(int(v))
    return repr(v)


def write_tra(ts: TransitionSystem, allow_partial: bool = False) -> bytes:
    """Transition table. brs/pbrs/sbrs: ``numStates numTransitions`` then
    ``src dst value`` lines (uniform probability for brs, probability for
    pbrs, rate for sbrs); deadlock states get a probability-1 self-loop.
    abrs: ``numStates numChoices numTransitions`` then
    ``src choice dst prob action`` lines, one choice per enabled action.
    """
    if ts.partial and not allow_partial:
        raise PartialSystem(
            "transition system is partial; pass allow_partial to export anyway")
    n = len(ts.states)
    lines = []
    if ts.semantics in ("brs", "pbrs", "sbrs"):
        outdeg = [0] * n
        for t in ts.transitions:
            outdeg[t.src] += 1
        rows = []
        for t in ts.transitions:
            if ts.semantics == "brs":
                value = Fraction(1, outdeg[t.src])
            else:
                value = t.label
            rows.append((t.src, t.dst, value))
        for s in range(n):
            if outdeg[s] == 0:
                rows.append((s, s, 1))
        rows.sort(key=lambda r: (r[0], r[1]))
        lines.append("%d %d" % (n, len(rows)))
        for src, dst, value in rows:
            lines.append("%d %d %s" % (src, dst, fmt_number(value)))
    else:
        per_state: dict[int, dict[str, list]] = {}
        for t in ts.transitions:
            action, prob = t.label
            per_state.setdefault(t.src, {}).setdefault(action, []).append(
                (t.dst, prob))
        rows = []
        nchoices = 0
        for s in range(n):
            actions = per_state.get(s)
            if not actions:
                rows.append((s, 0, s, 1, None))
                nchoices += 1
                continue
            ci = 0
            for action in ts.actions:
                if action not in actions:
                    continue
                for dst, prob in sorted(actions[action]):
                    rows.append((s, ci, dst, prob, action))
                ci += 1
            nchoices += ci
        lines.append("%d %d %d" % (n, nchoices, len(rows)))
        for src, ci, dst, prob, action in rows:
            row = "%d %d %d %s" % (src, ci, dst, fmt_number(prob))
            if action is not None:
                row += " %s" % action
            lines.append(row)
    return ("\n".join(lines) + "\n").encode()


def write_labels(ts: TransitionSystem) -> bytes:
    """PRISM label map. The first line declares label indices with
    ``init`` always 0; then one ``state: idx...`` line per labelled state."""
    decls = ['0="init"']
    index = {}
    for i, p in enumerate(ts.predicates):
        decls.append('%d="%s"' % (i + 1, p))
        index[p] = i + 1
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
    return ("\n".join(lines) + "\n").encode()


def write_dot(ts: TransitionSystem) -> str:
    """Directed graph of the transition system: node label is the state
    index plus its predicate names, the initial state is bold, edges are
    annotated with their probability/rate/action label."""
    lines = ["digraph transition_system {"]
    for s in range(len(ts.states)):
        preds = [p for p in ts.predicates if s in ts.labelling.get(p, ())]
        label = str(s) if not preds else "%d: %s" % (s, " ".join(preds))
        style = ', style=bold' if s == ts.init_index else ""
        lines.append('  %d [label="%s"%s];' % (s, label, style))
    def edge_text(label):
        if label is None:
            return None
        if isinstance(label, tuple):
            return "%s: %s" % (label[0], fmt_number(label[1]))
        return fmt_number(label)
    for t in sorted(ts.transitions, key=lambda t: t.sort_key()):
        txt = edge_text(t.label)
        attr = ' [label="%s"]' % txt if txt is not None else ""
        lines.append("  %d -> %d%s;" % (t.src, t.dst, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_tra(data: bytes, semantics: str):
    """Parse a transition file back into (num_states, rows); rows are
    (src, dst, value) or (src, choice, dst, prob, action|None)."""
    lines = data.decode().splitlines()
    header = lines[0].split()
    rows = []
    if semantics in ("brs", "pbrs", "sbrs"):
        n, m = int(header[0]), int(header[1])
        for line in lines[1:]:
            src, dst, value = line.split()
            rows.append((int(src), int(dst), float(value)))
        assert len(rows) == m
        return n, rows
    n, _, m = int(header[0]), int(header[1]), int(header[2])
    for line in lines[1:]:
        parts = line.split()
        action = parts[4] if len(parts) > 4 else None
        rows.append((int(parts[0]), int(parts[1]), int(parts[2]),
                     float(parts[3]), action))
    assert len(rows) == m
    return n, rows
