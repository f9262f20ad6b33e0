"""Occurrence search: find all embeddings of a solid pattern in a ground state.

A valid occurrence decomposes the target into

    target  =  context o (pattern (x) id) o parameter

where the context holds everything above/around the image, and the
parameter holds one ground bigraph per pattern site (everything the
sites absorbed). What the search needs of the pattern alone is compiled
once into a plan cached on it (``_plan``). Each search indexes the
target's nodes by label (control and parameters), so a pattern node
filters only the nodes with its label. Node injections come from
``bigraph._node_maps``, the iterative search ``canon.iso_equal`` uses
too, in a connectivity-guided order (rarest candidates first) and pruned
by shared links; each one then gets the remaining placement checks and
its link assignments. Occurrences are produced lazily, so
``matches_predicate`` and the rule guards stop at the first, a stopped
search can be resumed (the engine hands a settle's search to the step),
and each occurrence builds its context and parameter only when first
read. No SAT machinery; nothing is carried from one state to the next.

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
from typing import Callable, NamedTuple

from .bigraph import (
    Bigraph,
    Handle,
    _mk,
    _node_maps,
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
    # close the names in to_close at once, numbering the closed edges in
    # that order, and drop those left idle
    used = {h for hs in whole.ports for h in hs}.union(h for _, h in whole.inner)
    live = [("o", w) for w in occ.to_close if ("o", w) in used]
    edges = {h: ("e", whole.edges + k) for k, h in enumerate(live)}
    ports = [tuple(edges.get(h, h) for h in hs) for hs in whole.ports]
    inner = [(x, edges.get(h, h)) for x, h in whole.inner]
    return _mk(whole.sig, whole.regions, whole.sites, whole.ctrl, whole.params,
               whole.node_parents, whole.site_parents, ports, inner,
               whole.outer.difference(occ.to_close), whole.edges + len(edges))


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def find_occurrences(target: Bigraph, pattern: Bigraph) -> list[Occurrence]:
    """Every occurrence of pattern in target, one per node and link image,
    sorted by image."""
    return _distinct(_occurrences(target, pattern))


def _distinct(stream) -> list[Occurrence]:
    """The first occurrence of each node and link image in stream, sorted
    by image: ``find_occurrences`` over a search, fresh or resumed."""
    occurrences: list[Occurrence] = []
    seen_images: set = set()
    for occ in stream:
        key = (frozenset(occ.node_map.values()), frozenset(occ.link_map.values()))
        if key not in seen_images:
            seen_images.add(key)
            occurrences.append(occ)
    occurrences.sort(key=Occurrence.sort_key)
    return occurrences


class _Plan(NamedTuple):
    """What matching needs of a pattern alone, built once per pattern by
    ``_plan``. Per node: its candidate filter (label, node parents, has a
    region parent, node children, has a site child), the nodes it shares
    a parent edge or a link with, and its region parents. The site each
    parent set names. Per link handle, closed edges first: its (node,
    ports on it) pairs."""

    filters: tuple
    adj: tuple
    region_parents: tuple
    site_of_parents: dict
    links: tuple


def _plan(pattern: Bigraph) -> _Plan:
    got = pattern._cache.get("plan")
    if got is not None:
        return got
    if pattern.inner:
        raise UnsupportedPattern("patterns with inner names are not supported")
    if not pattern.is_solid():
        raise PatternNotSolid("pattern is not solid")
    p_kids = pattern.children()
    filters = tuple(((pattern.ctrl[u], pattern.params[u]),
                     sum(p[0] == "n" for p in ps), any(p[0] == "r" for p in ps),
                     sum(c[0] == "n" for c in p_kids[("n", u)]),
                     any(c[0] == "s" for c in p_kids[("n", u)]))
                    for u, ps in enumerate(pattern.node_parents))
    adj: list[set[int]] = [set() for _ in range(pattern.n)]
    for u, ps in enumerate(pattern.node_parents):
        for p in ps:
            if p[0] == "n":
                adj[u].add(p[1])
                adj[p[1]].add(u)
    users: dict = {}
    for u, hs in enumerate(pattern.ports):
        for h in hs:
            row = users.setdefault(h, {})
            row[u] = row.get(u, 0) + 1
    for row in users.values():
        for u in row:
            adj[u].update(v for v in row if v != u)
    got = pattern._cache["plan"] = _Plan(
        filters, tuple(adj),
        tuple(tuple(p[1] for p in ps if p[0] == "r") for ps in pattern.node_parents),
        {frozenset(ps): s for s, ps in enumerate(pattern.site_parents)},
        tuple((h, tuple(users[h].items())) for h in sorted(users)))   # ("e", k) < ("o", x)
    return got


def _occurrences(target: Bigraph, pattern: Bigraph):
    """Occurrences in search order, one per node map and link assignment
    (images may repeat)."""
    if not target.is_ground():
        raise TargetNotGround("match target must be ground")
    plan = _plan(pattern)
    pn = pattern.n
    t_kids = target.children()

    # candidate target nodes per pattern node: same label, then the
    # parent and child counts the pattern node admits
    by_label: dict = {f[0]: [] for f in plan.filters}
    for t, label in enumerate(zip(target.ctrl, target.params)):
        row = by_label.get(label)
        if row is not None:
            row.append((t, len(target.node_parents[t]), len(t_kids[("n", t)])))
    cand: list[list[int]] = []
    for label, np_nodes, has_region, n_kids, has_site in plan.filters:
        row = [t for t, tp, tk in by_label[label]
               if (tp > np_nodes if has_region else tp == np_nodes)
               and (tk >= n_kids if has_site else tk == n_kids)]
        if not row:
            return
        cand.append(row)

    # a connectivity-guided ordering, rarest candidates first
    order: list[int] = []
    while len(order) < pn:
        rest = [u for u in range(pn) if u not in order]
        pool = [u for u in rest if not plan.adj[u].isdisjoint(order)] or rest
        order.append(min(pool, key=lambda u: (len(cand[u]), u)))

    for fwd in _node_maps(pattern, target, order, cand.__getitem__):
        yield from _finalize(target, pattern, plan, dict(fwd))


def _finalize(target: Bigraph, pattern: Bigraph, plan: _Plan, fwd: dict[int, int]):
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
    multi: list[tuple[tuple[int, ...], frozenset]] = []
    for u, t in fwd.items():
        rs = plan.region_parents[u]
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
            s = plan.site_of_parents.get(frozenset(("n", inv[p[1]]) for p in pars))
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
    for assign in _link_assignments(target, plan, fwd, image):
        yield Occurrence(fwd, assign, lambda assign=assign: _decompose(
            target, pattern, fwd, assign, param_tops, part_nodes, owner, region_pos))


def _link_assignments(target, plan, fwd, image):
    """All maps pattern-link -> target-link compatible with the node map."""
    remaining = {t: target.node_handle_counts(t) for t in fwd.values()}
    t_points = target.link_points()
    solutions: list[dict] = []
    assign: dict = {}

    def backtrack(i):
        if i == len(plan.links):
            if all(v == 0 for rem in remaining.values() for v in rem.values()):
                solutions.append(dict(assign))
            return
        L, users = plan.links[i]
        rems = [(remaining[fwd[u]], need) for u, need in users]
        for tl in sorted(rems[0][0]):          # the links on one user's image
            # a closed edge takes an unused closed edge of the same size,
            # wholly on the image (edges are assigned first)
            if L[0] == "e" and (tl[0] != "e" or tl in assign.values()
                                or target.port_count(tl) != sum(n for _, n in users)
                                or any(pt[1] not in image for pt in t_points[tl])):
                continue
            if any(rem.get(tl, 0) < need for rem, need in rems):
                continue
            assign[L] = tl
            for rem, need in rems:
                rem[tl] -= need
            backtrack(i + 1)
            for rem, need in rems:
                rem[tl] += need
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
