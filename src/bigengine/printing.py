"""Pretty printer: bigraphs, rules and whole models back to source text.

The output re-parses to an iso-equal structure. Closed edges are printed
as fresh bound identifiers closed at the outermost level (the chosen
identifiers are irrelevant). Every walk keeps an explicit stack, so any
depth prints. Place DAGs are printed by peeling the deepest layer of
shared vertices into a ``share ... by ... in ...`` expression, layer by
layer in a loop, until the upper part is a forest; a permuting share
wrapper is added when site indices cannot be emitted in increasing
textual order.
"""

from __future__ import annotations

import re

from .bigraph import Bigraph
from .errors import UnprintableBigraph
from .export import fmt_number
from .language import KEYWORDS


def _point(text: str) -> str:
    """A number's text with a decimal point before its exponent, which
    the lexer's float token needs: repr's ``1e-05`` as ``1.0e-05``."""
    mantissa, e, exponent = text.partition("e")
    return "%s.0e%s" % (mantissa, exponent) if e and "." not in mantissa else text


def _render_value(v) -> str:
    if isinstance(v, str):
        return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(v, float):
        return _point(repr(v))
    return str(v)


def _edges_to_names(b: Bigraph):
    """Replace every closed edge by a fresh outer name; returns the new
    bigraph and the chosen identifiers in edge order."""
    taken = set(b.outer) | KEYWORDS | {c.name for c in b.sig.controls()}
    fresh = []
    i = 0
    for _ in range(b.edges):
        while "e%d" % i in taken:
            i += 1
        fresh.append("e%d" % i)
        taken.add("e%d" % i)
    repl = lambda h: ("o", fresh[h[1]]) if h[0] == "e" else h
    ports = tuple(tuple(repl(h) for h in hs) for hs in b.ports)
    inner = tuple((x, repl(h)) for x, h in b.inner)
    b2 = Bigraph(b.sig, b.regions, b.sites, b.ctrl, b.params, b.node_parents,
                 b.site_parents, ports, inner, b.outer | frozenset(fresh), 0)
    return b2, fresh


def _least_sites(b: Bigraph) -> dict:
    """Each place's least site below it (a site's own index, 10**9 when
    there is none), worked out bottom up in one walk with an explicit
    stack; the dict lists each place after all of its children."""
    kids = b.children()
    least: dict = {}
    stack = [(v, False) for v in kids]
    while stack:
        v, done = stack.pop()
        if done or v[0] == "s":
            least[v] = v[1] if v[0] == "s" else min([least[c] for c in kids[v]], default=10 ** 9)
        elif v not in least:        # in a DAG, a place seen again is finished
            stack.append((v, True))
            stack.extend((c, False) for c in kids[v] if c not in least)
    return least


def _loose_links(b: Bigraph) -> list:
    points = b.link_points()
    idles = sorted(x for x in b.outer if not points[("o", x)])
    pieces = ["{%s}" % ",".join(idles)] if idles else []
    for x, h in b.inner:
        if h != ("o", x):
            raise UnprintableBigraph(
                "inner name %s is not identity-wired; no source form" % x)
        pieces.append("id{%s}" % x)
    return pieces


def _render_forest(b: Bigraph):
    """Text of b, whose place graph is a forest, and its site indices in
    text order, emitted from an explicit stack. Siblings go in order of
    their least site; a lone child is itself a nest chain and needs no
    parentheses."""
    kids = b.children()
    least = _least_sites(b)
    extras = _loose_links(b)
    if not b.regions:
        if not extras:
            raise UnprintableBigraph("empty zero-width bigraph has no syntax")
        return " || ".join(extras), []

    def listed(cs):
        cs = sorted(cs, key=lambda c: (least[c], c))
        return [x for c in cs for x in (" | ", c)][1:]

    todo = (listed(kids[("r", 0)]) or ["1"]) + [" | " + x for x in extras]
    for k in range(1, b.regions):
        todo += [" || "] + (listed(kids[("r", k)]) or ["1"])
    todo.reverse()
    out: list = []
    seq: list[int] = []
    while todo:
        v = todo.pop()
        if isinstance(v, str):
            out.append(v)
        elif v[0] == "s":
            out.append("id")
            seq.append(v[1])
        else:
            i, c = v[1], b.control(v[1])
            out.append(c.name)
            if b.params[i]:
                out.append("(%s)" % ",".join(_render_value(x) for x in b.params[i]))
            if c.arity:
                out.append("{%s}" % ",".join(h[1] for h in b.ports[i]))
            if c.atomic:
                continue
            cs = listed(kids[v])
            if not cs:
                out.append(".1")
            elif len(cs) == 1:
                out.append(".")
                todo.append(cs[0])
            else:
                out.append(".(")
                todo.append(")")
                todo += reversed(cs)
    return "".join(out), seq


def _render(b: Bigraph):
    """Text of b and its site indices in text order. A place DAG is peeled
    layer by layer, bottom up: its deepest shared vertices and everything
    below them become the contents of a ``share ... in`` whose host is the
    rest, until the host is a forest; the text is then wrapped from the
    top host down, one share per layer."""
    layers = []
    while True:
        multi = {("n", i) for i, ps in enumerate(b.node_parents) if len(ps) > 1} | {
            ("s", k) for k, ps in enumerate(b.site_parents) if len(ps) > 1}
        if not multi:
            break
        kids = b.children()
        least = _least_sites(b)
        shared_below: dict = {}
        for v in least:                            # bottom up
            shared_below[v] = any(c in multi or shared_below[c] for c in kids.get(v, ()))
        deepest = [v for v in multi if not shared_below[v]]
        lower = set(deepest)
        for v in reversed(least):                  # top down
            if v in lower:
                lower.update(kids.get(v, ()))
        tops = deepest + [("s", k) for k in range(b.sites) if ("s", k) not in lower]
        tops.sort(key=lambda v: (least[v], v))
        lower.update(("s", k) for k in range(b.sites))

        pos_index: dict = {}                       # a top's parent -> its host site
        rows = []
        for t in tops:
            parents = sorted(b.site_parents[t[1]] if t[0] == "s" else b.node_parents[t[1]])
            rows.append([pos_index.setdefault(p, len(pos_index)) for p in parents])
        layers.append((_contents(b, lower, tops), rows, len(pos_index)))
        b = _host(b, lower, list(pos_index))

    text, seq = _render_forest(b)
    for contents, rows, holes in reversed(layers):
        rank = {j: r for r, j in enumerate(seq)}
        ptext = ", ".join("{%s}" % ",".join(map(str, sorted(rank[j] for j in row)))
                          for row in rows)
        ctext, seq = _render_forest(contents)
        text = "share (%s) by ([%s], %d) in (%s)" % (ctext, ptext, holes, text)
    return text, seq


def _host(b: Bigraph, lower, positions) -> Bigraph:
    """The part of b above lower, with one site under each position."""
    nodes = [i for i in range(b.n) if ("n", i) not in lower]
    local = {i: j for j, i in enumerate(nodes)}
    up = lambda p: p if p[0] == "r" else ("n", local[p[1]])
    return _part(b, nodes, b.regions, [frozenset(map(up, b.node_parents[i])) for i in nodes],
                 [frozenset({up(p)}) for p in positions], (), ())


def _contents(b: Bigraph, lower, tops) -> Bigraph:
    """The part of b in lower, with one region over each top."""
    nodes = [i for i in range(b.n) if ("n", i) in lower]
    local = {i: j for j, i in enumerate(nodes)}
    region_of = {t: j for j, t in enumerate(tops)}

    def parents_of(key, ps):
        if key in region_of:
            return frozenset({("r", region_of[key])})
        return frozenset(("n", local[p[1]]) for p in ps)

    # idle names and identity-wired inner names travel with the contents
    points = b.link_points()
    names = [x for x in b.outer if not points[("o", x)]] + [x for x, _ in b.inner]
    return _part(b, nodes, len(tops), [parents_of(("n", i), b.node_parents[i]) for i in nodes],
                 [parents_of(("s", k), ps) for k, ps in enumerate(b.site_parents)],
                 b.inner, names)


def _part(b: Bigraph, nodes, regions, node_parents, site_parents, inner, names) -> Bigraph:
    """b's listed nodes, renumbered in that order, with the given parents
    and inner names; the outer names are their ports' and names."""
    return Bigraph(b.sig, regions, len(site_parents), tuple(b.ctrl[i] for i in nodes),
                   tuple(b.params[i] for i in nodes), tuple(node_parents),
                   tuple(site_parents), tuple(b.ports[i] for i in nodes), inner,
                   frozenset(h[1] for i in nodes for h in b.ports[i]) | frozenset(names), 0)


def print_bigraph(b: Bigraph) -> str:
    """Source text of b."""
    named, fresh = _edges_to_names(b)
    text, seq = _render(named)
    if seq != list(range(named.sites)):
        # re-parsing numbers the holes of text in textual order, so site k,
        # emitted at position seq.index(k), goes under that hole
        holes = " || ".join(["id"] * named.sites)
        placement = ", ".join("{%d}" % seq.index(k) for k in range(named.sites))
        text = "share (%s) by ([%s], %d) in (%s)" % (
            holes, placement, named.sites, text)
    if fresh:
        text = "%s(%s)" % ("".join("/%s " % x for x in fresh), text)
    return text


def print_rule(rule) -> str:
    label = rule.label
    if label.kind == "plain":
        arrow = "-->"
    else:
        arrow = "-[%s]->" % _point(fmt_number(label.rate if label.kind == "rate" else label.weight))
    text = "%s %s %s" % (print_bigraph(rule.lhs), arrow, print_bigraph(rule.rhs))
    if rule.inst is not None and (rule.lhs.sites != rule.rhs.sites
                                  or rule.inst.entries != tuple(range(rule.rhs.sites))):
        text += " @[%s]" % ",".join(str(e) for e in rule.inst.entries)
    if rule.constraints:
        conds = []
        for c in rule.constraints:
            bang = "!" if c.kind.startswith("absent") else ""
            where = "param" if c.kind.endswith("param") else "ctx"
            conds.append("%s(%s) in %s" % (bang, print_bigraph(c.pattern), where))
        text += " if " + ", ".join(conds)
    return text


def _safe_name(name: str, taken: set) -> str:
    base = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_") or "r"
    if not base[0].isalpha():
        base = "r_" + base
    out = base
    k = 1
    while out in taken or out in KEYWORDS:
        out = "%s_%d" % (base, k)
        k += 1
    taken.add(out)
    return out


def pretty_print(value) -> str:
    """Render a bigraph, a reaction rule, or a whole model as source text."""
    from .elaborate import BrsSpec
    from .rules import ReactionRule
    if isinstance(value, Bigraph):
        return print_bigraph(value)
    if isinstance(value, ReactionRule):
        return print_rule(value)
    if isinstance(value, BrsSpec):
        return print_spec(value)
    raise TypeError("cannot pretty-print %r" % type(value).__name__)


def print_spec(spec) -> str:
    """Whole model back to source; rule instance names are sanitised to
    plain identifiers."""
    lines = []
    for c in spec.signature.controls():
        params = "(%s)" % ", ".join(c.param_names) if c.param_names else ""
        lines.append("%s%sctrl %s%s = %d;" % ("atomic " if c.atomic else "",
                                              "fun " if params else "", c.name, params, c.arity))
    lines.append("")
    taken: set = set()
    renamed: dict[str, str] = {}
    for cls in spec.classes:
        for rule in cls.rules:
            renamed[rule.name] = _safe_name(rule.name, taken)
            lines.append("react %s = %s;" % (renamed[rule.name], print_rule(rule)))
    for name, pat in spec.preds.items():
        lines.append("big %s = %s;" % (name, print_bigraph(pat)))
    lines.append("big init_state = %s;" % print_bigraph(spec.init))
    lines.append("")
    lines.append("begin %s" % spec.semantics)
    lines.append("  init init_state;")
    classes = []
    for cls in spec.classes:
        sep = ("(", ")") if cls.instantaneous else ("{", "}")
        classes.append("%s%s%s" % (sep[0], ", ".join(
            renamed[r.name] for r in cls.rules), sep[1]))
    lines.append("  rules = [ %s ];" % ", ".join(classes))
    if spec.preds:
        lines.append("  preds = {%s};" % ", ".join(spec.preds))
    if spec.semantics == "abrs":
        groups: dict[str, list] = {}
        for cls in spec.classes:
            for rule in cls.rules:
                groups.setdefault(rule.label.action, []).append(renamed[rule.name])
        acts = ", ".join("%s = {%s}" % (a, ", ".join(rs)) for a, rs in groups.items())
        lines.append("  actions = [ %s ];" % acts)
    lines.append("end")
    return "\n".join(lines) + "\n"
