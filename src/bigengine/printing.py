"""Pretty printer: bigraphs, rules and whole models back to source text.

The output re-parses to an iso-equal structure. Closed edges are printed
as fresh bound identifiers closed at the outermost level (the chosen
identifiers are irrelevant). Place DAGs are printed by peeling the
deepest layer of shared vertices into a ``share ... by ... in ...``
expression, recursing on the upper part; a permuting share wrapper is
added when site indices cannot be emitted in increasing textual order.
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


def _multi_parent_vertices(b: Bigraph):
    out = []
    for i, ps in enumerate(b.node_parents):
        if len(ps) > 1:
            out.append(("n", i))
    for k, ps in enumerate(b.site_parents):
        if len(ps) > 1:
            out.append(("s", k))
    return out


def _descendants(b: Bigraph, key):
    kids = b.children()
    seen = set()
    stack = [key]
    while stack:
        v = stack.pop()
        if v in seen or v[0] == "s":
            continue
        seen.add(v)
        for c in kids.get(v, ()):
            if c not in seen:
                stack.append(c)
                if c[0] == "s":
                    seen.add(c)
    seen.discard(key)
    return seen


def _min_site(b: Bigraph, key) -> int:
    if key[0] == "s":
        return key[1]
    best = [10 ** 9]
    for v in _descendants(b, key) | {key}:
        if v[0] == "s":
            best.append(v[1])
    return min(best)


class _Printer:
    # every method returns (text, emitted site indices in text order)

    def render(self, b: Bigraph):
        if _multi_parent_vertices(b):
            return self.render_shared(b)
        return self.render_forest(b)

    def render_forest(self, b: Bigraph):
        kids = b.children()
        seq: list[int] = []

        def ordered(children):
            return sorted(children, key=lambda c: (_min_site(b, c), c))

        def child_text(c):
            if c[0] == "s":
                seq.append(c[1])
                return "id", True
            return self.node_text(b, c[1], kids, ordered, child_text), False

        region_texts = []
        for k in range(b.regions):
            cs = ordered(kids[("r", k)])
            if not cs:
                region_texts.append("1")
            else:
                region_texts.append(" | ".join(child_text(c)[0] for c in cs))
        extras = self.loose_link_text(b)
        if region_texts:
            if extras:
                region_texts[0] = " | ".join([region_texts[0]] + extras)
            text = " || ".join(region_texts)
        else:
            if not extras:
                raise UnprintableBigraph("empty zero-width bigraph has no syntax")
            text = " || ".join(extras)
        return text, seq

    def node_text(self, b, i, kids, ordered, child_text):
        c = b.control(i)
        head = c.name
        if b.params[i]:
            head += "(%s)" % ",".join(_render_value(v) for v in b.params[i])
        if c.arity:
            head += "{%s}" % ",".join(h[1] for h in b.ports[i])
        if c.atomic:
            return head
        cs = ordered(kids[("n", i)])
        if not cs:
            return head + ".1"
        if len(cs) == 1:
            # a lone child is itself a nest chain; no parentheses needed
            return head + "." + child_text(cs[0])[0]
        return head + ".(" + " | ".join(child_text(c)[0] for c in cs) + ")"

    def loose_link_text(self, b: Bigraph):
        points = b.link_points()
        idles = sorted(x for x in b.outer if not points[("o", x)])
        pieces = []
        if idles:
            pieces.append("{%s}" % ",".join(idles))
        for x, h in b.inner:
            if h != ("o", x):
                raise UnprintableBigraph(
                    "inner name %s is not identity-wired; no source form" % x)
            pieces.append("id{%s}" % x)
        return pieces

    def render_shared(self, b: Bigraph):
        multi = set(_multi_parent_vertices(b))
        deepest = [v for v in multi if not (_descendants(b, v) & multi)]
        lower: set = set()
        for v in deepest:
            lower.add(v)
            lower |= _descendants(b, v)
        tops = list(deepest) + [("s", k) for k in range(b.sites)
                                if ("s", k) not in lower]
        tops.sort(key=lambda v: (_min_site(b, v), v))
        for k in range(b.sites):
            if ("s", k) not in lower:
                lower.add(("s", k))

        positions: list = []
        pos_index: dict = {}
        for t in tops:
            parents = b.site_parents[t[1]] if t[0] == "s" else b.node_parents[t[1]]
            for p in sorted(parents):
                if p not in pos_index:
                    pos_index[p] = len(positions)
                    positions.append(p)

        host = self.build_host(b, lower, positions)
        htext, hseq = self.render(host)
        hole_rank = {j: hseq.index(j) for j in range(len(positions))}

        contents = self.build_contents(b, lower, tops)
        ctext, cseq = self.render(contents)

        placement = []
        for t in tops:
            parents = b.site_parents[t[1]] if t[0] == "s" else b.node_parents[t[1]]
            placement.append(sorted(hole_rank[pos_index[p]] for p in parents))
        ptext = ", ".join("{%s}" % ",".join(str(j) for j in row) for row in placement)
        text = "share (%s) by ([%s], %d) in (%s)" % (
            ctext, ptext, len(positions), htext)
        return text, cseq

    def build_host(self, b: Bigraph, lower, positions) -> Bigraph:
        nodes = [i for i in range(b.n) if ("n", i) not in lower]
        local = {i: j for j, i in enumerate(nodes)}
        node_parents = tuple(
            frozenset(p if p[0] == "r" else ("n", local[p[1]])
                      for p in b.node_parents[i])
            for i in nodes)
        site_parents = tuple(
            frozenset({p if p[0] == "r" else ("n", local[p[1]])})
            for p in positions)
        return Bigraph(b.sig, b.regions, len(positions),
                       tuple(b.ctrl[i] for i in nodes),
                       tuple(b.params[i] for i in nodes),
                       node_parents, site_parents,
                       tuple(b.ports[i] for i in nodes), (),
                       frozenset(h[1] for i in nodes for h in b.ports[i]), 0)

    def build_contents(self, b: Bigraph, lower, tops) -> Bigraph:
        nodes = [i for i in range(b.n) if ("n", i) in lower]
        local = {i: j for j, i in enumerate(nodes)}
        region_of = {t: j for j, t in enumerate(tops)}

        def parents_of(key, ps):
            if key in region_of:
                return frozenset({("r", region_of[key])})
            return frozenset(("n", local[p[1]]) for p in ps)

        node_parents = tuple(parents_of(("n", i), b.node_parents[i]) for i in nodes)
        site_parents = tuple(parents_of(("s", k), b.site_parents[k])
                             for k in range(b.sites))
        # idle names and identity-wired inner names travel with the contents
        points = b.link_points()
        idles = {x for x in b.outer if not points[("o", x)]}
        outer = frozenset(h[1] for i in nodes for h in b.ports[i]) \
            | idles | frozenset(x for x, _ in b.inner)
        return Bigraph(b.sig, len(tops), b.sites,
                       tuple(b.ctrl[i] for i in nodes),
                       tuple(b.params[i] for i in nodes),
                       node_parents, site_parents,
                       tuple(b.ports[i] for i in nodes), b.inner, outer, 0)


def print_bigraph(b: Bigraph) -> str:
    """Source text of b. A place graph nested deeper than Python's
    recursion limit allows is reported as UnprintableBigraph."""
    try:
        return _print_bigraph(b)
    except RecursionError:
        raise UnprintableBigraph("bigraph nested too deeply to print") from None


def _print_bigraph(b: Bigraph) -> str:
    named, fresh = _edges_to_names(b)
    text, seq = _Printer().render(named)
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
    elif label.kind == "rate":
        arrow = "-[%s]->" % _point(fmt_number(label.rate))
    else:
        arrow = "-[%s]->" % _point(fmt_number(label.weight))
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
        head = "atomic ctrl" if c.atomic else "ctrl"
        if c.param_names:
            lines.append("%s %s(%s) = %d;" % (
                "atomic fun ctrl" if c.atomic else "fun ctrl",
                c.name, ", ".join(c.param_names), c.arity))
        else:
            lines.append("%s %s = %d;" % (head, c.name, c.arity))
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
