"""Occurrence search: find all embeddings of a solid pattern in a ground state.

A valid occurrence decomposes the target into

    target  =  context o (pattern (x) id) o parameter

where the context holds everything above/around the image, and the
parameter holds one ground bigraph per pattern site (everything the
sites absorbed). Node injections come from ``bigraph._node_maps``, the
same iterative search that ``canon.iso_equal`` uses, taken in a
connectivity-guided order (rarest control first); each one then gets an
exact placement and link-assignment validation. Occurrences are produced
lazily, so ``matches_predicate`` and the rule guards stop at the first;
no incremental or SAT machinery.

Matching semantics:

* A pattern node with no site child matches target nodes with exactly
  the same children; unmatched children are routed to the unique site
  under their matched parent (shared sites require the exact parent set).
* Pattern regions may land anywhere, but all top nodes of one region
  must share the same set of extra parents (the context position).
* A closed pattern edge matches a closed target link with exactly the
  same ports. An open pattern name matches any target link, open or
  closed; distinct names may land on the same link.
* Occurrences whose node and link images coincide are counted once
  (pattern automorphisms do not multiply matches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .bigraph import (
    Bigraph,
    Handle,
    _mk,
    _node_maps,
    close,
    forget,
    merge,
    nest,
    one,
    parallel,
    rename_outer,
)
from .errors import PatternNotSolid, TargetNotGround, UnsupportedPattern


@dataclass(frozen=True)
class MatchConstraint:
    """Side condition on a rule: a pattern required in / absent from the
    parameter or the context. Kinds: present_param, absent_param,
    present_ctx, absent_ctx."""

    kind: str
    pattern: Bigraph

    def __post_init__(self):
        if self.kind not in ("present_param", "absent_param", "present_ctx", "absent_ctx"):
            raise ValueError("bad constraint kind %r" % self.kind)


@dataclass
class Occurrence:
    """One match of a pattern in a target, with its full decomposition."""

    node_map: dict[int, int]
    link_map: dict[Handle, Handle]
    context: Bigraph
    parameter: list[Bigraph]
    # wiring used to recompose / rewrite: target handle -> shared name,
    # and which of those names denote closed target links
    exposed: dict = field(repr=False, default_factory=dict)
    to_close: tuple = field(repr=False, default_factory=tuple)

    def sort_key(self):
        return (tuple(sorted(self.node_map.values())),
                tuple(sorted(self.link_map.values())))


def _nothing(sig) -> Bigraph:
    """Width-0 empty bigraph, the unit of parallel product."""
    return _mk(sig, 0, 0, (), (), (), (), (), (), frozenset(), 0)


def fill_sites(b: Bigraph, fillers: list[Bigraph]) -> Bigraph:
    """Plug fillers (one region each, in site order) into b's sites."""
    filler = reduce(parallel, fillers, _nothing(b.sig))
    return nest(b, filler)


def ground_context(occ: Occurrence) -> Bigraph:
    """The context with every hole plugged by an empty region (for matching)."""
    ctx = occ.context
    return fill_sites(ctx, [one(ctx.sig)] * ctx.sites)


def merged_parameter(occ: Occurrence, sig) -> Bigraph:
    """All parameter parts side by side under one region."""
    if not occ.parameter:
        return one(sig)
    return reduce(merge, occ.parameter)


def recompose(occ: Occurrence, pattern: Bigraph, fillers=None) -> Bigraph:
    """Put pattern, its sites filled by fillers (default: the matched
    parameter), in the matched part's place; with the matched pattern the
    result is iso_equal to the target, with a rule's right side it is the
    rewrite."""
    renaming = {}
    for lh, th in occ.link_map.items():
        if lh[0] == "o":
            renaming[lh[1]] = occ.exposed[th]
    piece = fill_sites(rename_outer(pattern, renaming),
                       occ.parameter if fillers is None else fillers)
    whole = nest(occ.context, piece)
    for w in occ.to_close:
        if whole.link_points()[("o", w)]:
            whole = close(w, whole)
        else:
            whole = forget(w, whole)
    return whole


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def find_occurrences(target: Bigraph, pattern: Bigraph) -> list[Occurrence]:
    """Every occurrence of pattern in target, one per node and link image,
    sorted by image."""
    occurrences: list[Occurrence] = []
    seen_images: set = set()
    for occ in _occurrences(target, pattern):
        key = (frozenset(occ.node_map.values()), frozenset(occ.link_map.values()))
        if key not in seen_images:
            seen_images.add(key)
            occurrences.append(occ)
    occurrences.sort(key=Occurrence.sort_key)
    return occurrences


def _occurrences(target: Bigraph, pattern: Bigraph):
    """Occurrences in search order, one per node map and link assignment
    (images may repeat)."""
    if not target.is_ground():
        raise TargetNotGround("match target must be ground")
    if pattern.inner:
        raise UnsupportedPattern("patterns with inner names are not supported")
    if not pattern.is_solid():
        raise PatternNotSolid("pattern is not solid")

    pn, tn = pattern.n, target.n
    t_kids = target.children()
    p_kids = pattern.children()

    # candidate target nodes per pattern node, with cheap degree filters
    cand: list[list[int]] = []
    for u in range(pn):
        np_nodes = sum(1 for p in pattern.node_parents[u] if p[0] == "n")
        has_region = any(p[0] == "r" for p in pattern.node_parents[u])
        n_kids = sum(1 for c in p_kids[("n", u)] if c[0] == "n")
        has_site = any(c[0] == "s" for c in p_kids[("n", u)])
        row = []
        for t in range(tn):
            if target.ctrl[t] != pattern.ctrl[u] or target.params[t] != pattern.params[u]:
                continue
            tp = len(target.node_parents[t])
            if has_region:
                if tp < np_nodes + 1:
                    continue
            elif tp != np_nodes:
                continue
            tk = len(t_kids[("n", t)])
            if has_site:
                if tk < n_kids:
                    continue
            elif tk != n_kids:
                continue
            row.append(t)
        if not row:
            return
        cand.append(row)

    # adjacency for a connectivity-guided ordering
    adj: list[set[int]] = [set() for _ in range(pn)]
    for u in range(pn):
        for p in pattern.node_parents[u]:
            if p[0] == "n":
                adj[u].add(p[1])
                adj[p[1]].add(u)
    handle_nodes: dict = {}
    for u in range(pn):
        for h in pattern.ports[u]:
            handle_nodes.setdefault(h, set()).add(u)
    for us in handle_nodes.values():
        for u in us:
            adj[u] |= us - {u}

    order: list[int] = []
    placed = set()
    while len(order) < pn:
        frontier = [u for u in range(pn) if u not in placed and adj[u] & placed]
        pool = frontier or [u for u in range(pn) if u not in placed]
        nxt = min(pool, key=lambda u: (len(cand[u]), u))
        order.append(nxt)
        placed.add(nxt)

    for fwd in _node_maps(pattern, target, order, cand.__getitem__):
        yield from _finalize(target, pattern, dict(fwd))


def _finalize(target: Bigraph, pattern: Bigraph, fwd: dict[int, int]):
    """Exact placement validation + link assignment for a full node map;
    yields one occurrence per link assignment."""
    t_kids = target.children()
    p_kids = pattern.children()
    image = set(fwd.values())

    # --- placement: parent exactness and region consistency ----------------
    extra_parents: dict[int, frozenset] = {}
    for u, t in fwd.items():
        mapped = set()
        for p in pattern.node_parents[u]:
            if p[0] == "n":
                mapped.add(("n", fwd[p[1]]))
        tps = set(target.node_parents[t])
        if not mapped <= tps:
            return
        extra = tps - mapped
        for p in extra:
            if p[0] == "n" and p[1] in image:
                return                         # context position inside the image
        regions_u = [p for p in pattern.node_parents[u] if p[0] == "r"]
        if not regions_u:
            if extra:
                return
        else:
            if not extra:
                return
            extra_parents[u] = frozenset(extra)

    region_pos: dict[int, frozenset] = {}
    multi: list[int] = []
    for u in extra_parents:
        rs = [p[1] for p in pattern.node_parents[u] if p[0] == "r"]
        if len(rs) == 1:
            r = rs[0]
            if r in region_pos:
                if region_pos[r] != extra_parents[u]:
                    return
            else:
                region_pos[r] = extra_parents[u]
        else:
            multi.append(u)
    for u in multi:
        rs = [p[1] for p in pattern.node_parents[u] if p[0] == "r"]
        if any(r not in region_pos for r in rs):
            return                             # undetermined shared-region position
        want = frozenset().union(*(region_pos[r] for r in rs))
        if extra_parents[u] != want:
            return
    if set(region_pos) != set(range(pattern.regions)):
        return

    # --- children exactness and parameter routing --------------------------
    site_of_parents: dict[frozenset, int] = {}
    for s in range(pattern.sites):
        site_of_parents[frozenset(pattern.site_parents[s])] = s

    inv = {t2: u2 for u2, t2 in fwd.items()}
    param_tops: dict[int, int] = {}            # target node -> pattern site
    for u, t in fwd.items():
        mapped_kids = {fwd[c] for c in (c[1] for c in p_kids[("n", u)] if c[0] == "n")}
        t_children = {c[1] for c in t_kids[("n", t)]}
        if not mapped_kids <= t_children:
            return
        extras = t_children - mapped_kids
        sites_u = [c[1] for c in p_kids[("n", u)] if c[0] == "s"]
        if extras and not sites_u:
            return
        for w in extras:
            if w in image:
                return
            # every parent of a parameter top must be a matched node, and
            # together they must name exactly one pattern site
            if any(p[0] != "n" or p[1] not in image for p in target.node_parents[w]):
                return
            pat_parents = frozenset(("n", inv[p[1]]) for p in target.node_parents[w])
            s = site_of_parents.get(pat_parents)
            if s is None:
                return
            if param_tops.get(w, s) != s:
                return
            param_tops[w] = s

    # closure of parameter parts
    part_nodes: dict[int, list[int]] = {s: [] for s in range(pattern.sites)}
    owner: dict[int, int] = {}
    for w in sorted(param_tops):
        s = param_tops[w]
        stack = [w]
        while stack:
            x = stack.pop()
            if x in owner:
                if owner[x] != s:
                    return
                continue
            if x in image:
                return
            owner[x] = s
            part_nodes[s].append(x)
            for c in t_kids[("n", x)]:
                stack.append(c[1])
    for x, s in owner.items():
        if x in param_tops:
            continue
        for p in target.node_parents[x]:
            if p[0] != "n" or owner.get(p[1]) != s:
                return                         # parameter content escapes its part

    context_nodes = [t for t in range(target.n) if t not in image and t not in owner]
    ctx_set = set(context_nodes)
    # context positions must lie in the context (or be target regions)
    for pos in region_pos.values():
        for p in pos:
            if p[0] == "n" and p[1] not in ctx_set:
                return

    # --- link assignment -----------------------------------------------------
    for assign in _link_assignments(target, pattern, fwd, image):
        yield _build_occurrence(target, pattern, fwd, assign, param_tops,
                                part_nodes, owner, context_nodes, region_pos)


def _link_assignments(target, pattern, fwd, image):
    """All maps pattern-link -> target-link compatible with the node map."""
    p_handles = sorted({h for hs in pattern.ports for h in hs})
    p_handles.sort(key=lambda h: h[0])         # edges before names
    pcnt = {u: pattern.node_handle_counts(u) for u in fwd}
    remaining = {t: dict(target.node_handle_counts(t)) for t in fwd.values()}
    t_points = target.link_points()

    def edge_ports_on_image(h):
        return all(pt[0] == "p" and pt[1] in image for pt in t_points[h])

    p_edge_size = {h: pattern.port_count(h) for h in p_handles if h[0] == "e"}

    solutions: list[dict] = []
    assign: dict = {}
    used_edges: set = set()

    def feasible(L, tl) -> bool:
        for u, t in fwd.items():
            need = pcnt[u].get(L, 0)
            if need and remaining[t].get(tl, 0) < need:
                return False
        return True

    def apply(L, tl, sign):
        for u, t in fwd.items():
            need = pcnt[u].get(L, 0)
            if need:
                remaining[t][tl] = remaining[t].get(tl, 0) - sign * need

    def backtrack(i):
        if i == len(p_handles):
            if all(v == 0 for rem in remaining.values() for v in rem.values()):
                solutions.append(dict(assign))
            return
        L = p_handles[i]
        anchor = next(u for u in fwd if pcnt[u].get(L, 0))
        cands = sorted(set(target.ports[fwd[anchor]]))
        for tl in cands:
            if L[0] == "e":
                if tl[0] != "e" or tl in used_edges:
                    continue
                if target.port_count(tl) != p_edge_size[L]:
                    continue
                if not edge_ports_on_image(tl):
                    continue
            if not feasible(L, tl):
                continue
            assign[L] = tl
            if L[0] == "e":
                used_edges.add(tl)
            apply(L, tl, +1)
            backtrack(i + 1)
            apply(L, tl, -1)
            if L[0] == "e":
                used_edges.discard(tl)
            del assign[L]

    backtrack(0)
    return solutions


def _build_occurrence(target, pattern, fwd, assign, param_tops, part_nodes,
                      owner, context_nodes, region_pos) -> Occurrence:
    sig = target.sig
    image = set(fwd.values())
    t_points = target.link_points()

    edges_mapped = {tl for L, tl in assign.items() if L[0] == "e"}
    names_onto = {tl for L, tl in assign.items() if L[0] == "o"}

    # which pieces touch each target link
    touch: dict[Handle, set] = {}
    for h, pts in t_points.items():
        tags = set()
        for pt in pts:
            if pt[0] != "p":
                continue
            t = pt[1]
            if t in image:
                tags.add("img")
            elif t in owner:
                tags.add(("par", owner[t]))
            else:
                tags.add("ctx")
        touch[h] = tags

    exposed: dict[Handle, str] = {}
    to_close: list[str] = []
    taken = set(target.outer)
    counter = 0
    for h in sorted(t_points):
        if h[0] == "o":
            exposed[h] = h[1]
            continue
        if h in edges_mapped:
            continue                            # consumed exactly by a pattern edge
        tags = touch[h]
        if h in names_onto or len(tags) > 1 or tags == {"img"}:
            while "w%d" % counter in taken:
                counter += 1
            w = "w%d" % counter
            counter += 1
            taken.add(w)
            exposed[h] = w
            to_close.append(w)
        # else: edge internal to a single non-image piece, kept closed there

    def build_piece(nodes, regions, parents_of, site_specs):
        """Assemble a sub-bigraph from target nodes.

        parents_of(t) gives translated parent keys; site_specs is a list of
        parent-key frozensets for the piece's sites.
        """
        local = {t: i for i, t in enumerate(nodes)}
        internal_edges: dict[Handle, int] = {}
        for t in nodes:
            for h in target.ports[t]:
                if h[0] == "e" and h not in exposed and h not in edges_mapped:
                    internal_edges.setdefault(h, len(internal_edges))
        ports = []
        outer = set()
        for t in nodes:
            row = []
            for h in target.ports[t]:
                if h in exposed:
                    row.append(("o", exposed[h]))
                    outer.add(exposed[h])
                elif h[0] == "o":
                    row.append(("o", h[1]))
                    outer.add(h[1])
                else:
                    row.append(("e", internal_edges[h]))
            ports.append(tuple(row))
        return _mk(sig, regions, len(site_specs),
                   tuple(target.ctrl[t] for t in nodes),
                   tuple(target.params[t] for t in nodes),
                   tuple(parents_of(t, local) for t in nodes),
                   tuple(site_specs), tuple(ports), (), frozenset(outer),
                   len(internal_edges))

    # parameter parts, one ground bigraph per pattern site
    parts = []
    for s in range(pattern.sites):
        nodes = sorted(part_nodes[s])

        def par(t, local, s=s):
            if param_tops.get(t) == s:
                return frozenset({("r", 0)})
            return frozenset(("n", local[p[1]]) for p in target.node_parents[t])

        parts.append(build_piece(nodes, 1, par, []))

    # the context: original regions, one hole per pattern region
    ctx_nodes = sorted(context_nodes)

    def ctx_par(t, local):
        out = set()
        for p in target.node_parents[t]:
            if p[0] == "r":
                out.add(p)
            else:
                out.add(("n", local[p[1]]))
        return frozenset(out)

    local_ctx = {t: i for i, t in enumerate(ctx_nodes)}
    site_specs = []
    for r in range(pattern.regions):
        spec = set()
        for p in region_pos[r]:
            if p[0] == "r":
                spec.add(p)
            else:
                spec.add(("n", local_ctx[p[1]]))
        site_specs.append(frozenset(spec))
    context = build_piece(ctx_nodes, target.regions, ctx_par, site_specs)
    context = _mk(sig, context.regions, context.sites, context.ctrl,
                  context.params, context.node_parents, context.site_parents,
                  context.ports, context.inner,
                  context.outer | target.outer, context.edges)

    return Occurrence(node_map=fwd, link_map=dict(assign), context=context,
                      parameter=parts, exposed=exposed, to_close=tuple(to_close))


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------


def matches_predicate(state: Bigraph, pred: Bigraph) -> bool:
    """True iff the pattern occurs in the state; names match any link.
    Stops at the first occurrence found."""
    return next(_occurrences(state, pred), None) is not None


def check_constraints(occ: Occurrence, constraints) -> bool:
    """Conditional-rule guard: patterns checked against the merge of all
    parameter parts (param kinds) or the plugged context (ctx kinds).
    Names in constraint patterns are independent of the rule's names."""
    if not constraints:
        return True
    sig = occ.context.sig
    merged = None
    grounded = None
    for c in constraints:
        if c.kind.endswith("param"):
            if merged is None:
                merged = merged_parameter(occ, sig)
            found = matches_predicate(merged, c.pattern)
        else:
            if grounded is None:
                grounded = ground_context(occ)
            found = matches_predicate(grounded, c.pattern)
        if c.kind.startswith("present") != found:
            return False
    return True
