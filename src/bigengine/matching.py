"""Occurrence search: find all embeddings of a solid pattern in a ground state.

A valid occurrence decomposes the target into

    target  =  context o (pattern (x) id) o parameter

where the context holds everything above/around the image, and the
parameter holds one ground bigraph per pattern site (everything the
sites absorbed). Node injections come from ``bigraph._node_maps``, the
same iterative search that ``canon.iso_equal`` uses, taken in a
connectivity-guided order (rarest control first) and pruned by shared
links; each one then gets the remaining placement checks and its link
assignments. Occurrences are produced lazily, so ``matches_predicate``
and the rule guards stop at the first, and each occurrence builds its
context and parameter only when they are first read (a rewrite or a
guard); no incremental or SAT machinery.

Matching semantics, each condition checked in exactly one place:

* Controls and parameters agree; a pattern node without a region parent
  has exactly as many parents as in the pattern, one with a region
  parent at least one more; without a site child it has exactly as many
  children, with one at least as many (candidate filter in
  ``_occurrences``).
* Parenthood between image nodes is exact in both directions, and nodes
  on one pattern link land on nodes sharing a link (``_node_maps``).
* All top nodes of one region share the same extra parents (the
  region's position, in the context); every unmatched child of an image
  node has only image parents, which name exactly one site, and its
  part of the parameter is closed and holds no image node (``_finalize``).
* A closed pattern edge matches a closed target link with exactly the
  same ports. An open pattern name matches any target link, open or
  closed; distinct names may land on the same link
  (``_link_assignments``).
* Occurrences whose node and link images coincide are counted once, so
  pattern automorphisms do not multiply matches (``find_occurrences``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

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


_PARTS = ("context", "parameter", "exposed", "to_close")


@dataclass
class Occurrence:
    """One match of a pattern in a target. Its decomposition, built on
    first access and then kept, is ``context``, ``parameter`` (one ground
    bigraph per site) and the wiring recompose uses: ``exposed`` (target
    handle -> shared name) and ``to_close`` (names of closed links)."""

    node_map: dict[int, int]
    link_map: dict[Handle, Handle]
    _build: Callable = field(repr=False, compare=False)

    def __getattr__(self, name):          # reached only before the build
        if name not in _PARTS:
            raise AttributeError(name)
        self.__dict__.update(zip(_PARTS, self._build()))
        return self.__dict__[name]

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
    for pts in pattern.link_points().values():
        us = {pt[1] for pt in pts if pt[0] == "p"}
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
    """Placement checks left after the node map, then link assignment;
    yields one occurrence per link assignment.

    Relies on ``_node_maps`` for exact parenthood between image nodes and
    on the candidate filter for parent and child counts, so the parents
    of a top node outside the image are its region's position, any other
    node has none, and only nodes with a site child have children outside
    the image. Checks only what is left: region positions agree, each
    parameter top's parents name one site, and parameter parts are closed
    and hold no image node (so no region position lies in one).
    """
    image = set(fwd.values())

    # --- region positions: the parents of a top node outside the image -----
    region_pos: dict[int, frozenset] = {}
    multi: list[tuple[list[int], frozenset]] = []
    for u, t in fwd.items():
        rs = [p[1] for p in pattern.node_parents[u] if p[0] == "r"]
        if not rs:
            continue
        extra = frozenset(p for p in target.node_parents[t]
                          if p[0] == "r" or p[1] not in image)
        if len(rs) > 1:
            multi.append((rs, extra))
        elif region_pos.setdefault(rs[0], extra) != extra:
            return
    for rs, extra in multi:
        if any(r not in region_pos for r in rs):
            return                             # undetermined shared-region position
        if frozenset().union(*(region_pos[r] for r in rs)) != extra:
            return
    if len(region_pos) != pattern.regions:
        return

    # --- parameter routing: each top's parents name one pattern site -------
    site_of_parents = {frozenset(ps): s for s, ps in enumerate(pattern.site_parents)}
    t_kids = target.children()
    inv = {t: u for u, t in fwd.items()}
    param_tops: dict[int, int] = {}            # target node -> pattern site
    for t in fwd.values():
        for _, w in t_kids[("n", t)]:
            if w in image or w in param_tops:
                continue
            # every parent of a parameter top must be a matched node
            pars = target.node_parents[w]
            if any(p[0] != "n" or p[1] not in image for p in pars):
                return
            s = site_of_parents.get(frozenset(("n", inv[p[1]]) for p in pars))
            if s is None:
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
                # x's parent is then a region position inside the parameter
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

    # --- link assignment -----------------------------------------------------
    for assign in _link_assignments(target, pattern, fwd, image):
        yield Occurrence(fwd, assign, lambda assign=assign: _decompose(
            target, pattern, fwd, assign, param_tops, part_nodes, owner, region_pos))


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


def _decompose(target, pattern, fwd, assign, param_tops, part_nodes, owner,
               region_pos) -> tuple:
    """An occurrence's parts, in ``_PARTS`` order."""
    sig = target.sig
    image = set(fwd.values())
    t_points = target.link_points()

    edges_mapped = {tl for L, tl in assign.items() if L[0] == "e"}
    names_onto = {tl for L, tl in assign.items() if L[0] == "o"}

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
        # pieces the edge touches (a ground target has only port points)
        tags = {"img" if pt[1] in image else owner.get(pt[1], "ctx") for pt in t_points[h]}
        if h in names_onto or len(tags) > 1 or tags == {"img"}:
            while "w%d" % counter in taken:
                counter += 1
            w = "w%d" % counter
            counter += 1
            taken.add(w)
            exposed[h] = w
            to_close.append(w)
        # else: edge internal to a single non-image piece, kept closed there

    def build_piece(nodes, regions, parents_of, site_specs, outer=()):
        """Assemble a sub-bigraph from target nodes.

        parents_of(t) gives translated parent keys; site_specs is a list of
        parent-key frozensets for the piece's sites; outer names are added
        to those its ports use.
        """
        local = {t: i for i, t in enumerate(nodes)}
        internal_edges: dict[Handle, int] = {}
        for t in nodes:
            for h in target.ports[t]:
                if h[0] == "e" and h not in exposed and h not in edges_mapped:
                    internal_edges.setdefault(h, len(internal_edges))
        ports = []
        outer = set(outer)
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
    ctx_nodes = [t for t in range(target.n) if t not in image and t not in owner]
    local_ctx = {t: i for i, t in enumerate(ctx_nodes)}

    def lift(keys):                             # target place keys -> context's
        return frozenset(p if p[0] == "r" else ("n", local_ctx[p[1]]) for p in keys)

    context = build_piece(ctx_nodes, target.regions,
                          lambda t, local: lift(target.node_parents[t]),
                          [lift(region_pos[r]) for r in range(pattern.regions)],
                          target.outer)

    return context, parts, exposed, tuple(to_close)


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
