"""Occurrence search: find all embeddings of a solid pattern in a ground state.

A valid occurrence decomposes the target into

    target  =  context o (pattern (x) id) o parameter

where the context holds everything above/around the image, and the
parameter holds one ground bigraph per pattern site (everything the
sites absorbed). What the search needs of the pattern alone is compiled
once into a plan cached on it (``_plan``). Each search indexes the
target's nodes by label, the control and the parameters as printed (so
``P(0.0)`` does not match ``P(-0.0)``, as state identity keeps them
apart), and a pattern node filters only the nodes with its label. The
engine searches a left side that several rules share once (elaboration
gives equal left sides one object) and checks each rule's guards on the
shared occurrences. Node injections come from ``bigraph._node_maps``, the
iterative search ``canon.iso_equal`` uses too, in a connectivity-guided
order (rarest candidates first) and pruned by shared links; each one
then gets the remaining placement checks and its link assignments.
Occurrences are produced lazily, so ``matches_predicate``, the rule
guards and the engine's settle stop at the first. A rewrite
(``recompose``) splices the new part into the target in one pass and
builds neither piece; an occurrence builds its context or parameter
only when a guard reads it. No SAT machinery; nothing is carried from
one state to the next.

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
  part of the parameter is closed and holds no image node (``_finalize``,
  which routes each distinct parent set once, not each child).
* A closed pattern edge matches a closed target link with exactly the
  same ports. An open pattern name matches any target link, open or
  closed; distinct names may land on the same link. Every port of an
  image node is taken, which arity implies: a pattern node and its image
  share a control (``_link_assignments``).
* Occurrences with the same node image set, the same target link for
  each open name and the same closed-edge image set are counted once, so
  pattern automorphisms (which fix open names) do not multiply matches,
  while occurrences that rewrite differently all count
  (``find_occurrences``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

from .bigraph import Bigraph, Handle, _mk, _node_maps, merge, one
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
    """One match of a pattern in a target: the node and link maps, and
    what ``_finalize`` found of the rest of the target (``image``,
    parameter tops, parts and owners, region positions). Built on first
    read and then kept: ``exposed`` (target link -> the name it carries
    across the pieces) and ``to_close`` (the fresh names of closed links)
    by ``_wiring``; ``context`` and ``parameter`` (one ground bigraph per
    site), which only guards read."""

    node_map: dict[int, int]
    link_map: dict[Handle, Handle]
    target: Bigraph = field(repr=False, compare=False)
    image: set = field(repr=False, compare=False)
    param_tops: dict = field(repr=False, compare=False)  # node -> pattern site
    part_nodes: dict = field(repr=False, compare=False)  # site -> its part's nodes
    owner: dict = field(repr=False, compare=False)       # part node -> its site
    region_pos: dict = field(repr=False, compare=False)  # region -> target parents

    def __getattr__(self, name):          # reached only before the build
        if name in ("exposed", "to_close"):
            self.exposed, self.to_close = _wiring(self)
        elif name == "context":
            self.context = _context(self)
        elif name == "parameter":
            self.parameter = _parameter(self)
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def sort_key(self):
        return (tuple(sorted(self.node_map.values())),
                tuple(sorted(self.link_map.values())))


def ground_context(occ: Occurrence) -> Bigraph:
    """The context with every hole plugged by an empty region (for matching)."""
    ctx = occ.context
    return _mk(ctx.sig, ctx.regions, 0, ctx.ctrl, ctx.params, ctx.node_parents, (),
               ctx.ports, (), ctx.outer, ctx.edges)


def merged_parameter(occ: Occurrence, sig) -> Bigraph:
    """All parameter parts side by side under one region."""
    if not occ.parameter:
        return one(sig)
    return reduce(merge, occ.parameter)


def recompose(occ: Occurrence, pattern: Bigraph, entries=None) -> Bigraph:
    """Put pattern in the matched part's place, its site k filled by a
    copy of parameter part entries[k] (default: part k); with the matched
    pattern the result is iso_equal to the target, with a rule's right
    side and instantiation it is the rewrite.

    One pass over the target, numbered as the algebra would number
    context o (pattern || parts): nodes are the context's (ascending),
    pattern's, then each copy's (ascending); edges the context's own,
    pattern's, each copy's own (fresh per copy), then the names in
    ``to_close`` that something still uses, in that order."""
    exposed = occ.exposed
    rows = ([], [], [], [])                    # ctrl, params, parents, ports
    edges, regions = _lay_context(occ, rows)
    ctrl, params, parents, ports = rows
    base = len(ctrl)

    def place(keys):                           # pattern place keys -> result's
        out = set()
        for p in keys:
            if p[0] == "n":
                out.add(("n", base + p[1]))
            else:
                out.update(regions[p[1]])
        return frozenset(out)

    names = {lh[1]: exposed[th] for lh, th in occ.link_map.items() if lh[0] == "o"}
    ctrl.extend(pattern.ctrl)
    params.extend(pattern.params)
    parents.extend(place(ps) for ps in pattern.node_parents)
    ports.extend(tuple(("o", names[h[1]]) if h[0] == "o" else ("e", edges + h[1])
                       for h in hs) for hs in pattern.ports)
    edges += pattern.edges
    for k, s in enumerate(range(pattern.sites) if entries is None else entries):
        edges += _lay(occ, sorted(occ.part_nodes[s]), place(pattern.site_parents[k]),
                      rows, edges)[1]
    # close the names in to_close that are still used, numbering the
    # closed edges in that order
    if occ.to_close:
        used = set().union(*ports)
        live = [("o", w) for w in occ.to_close if ("o", w) in used]
        closing = {h: ("e", edges + k) for k, h in enumerate(live)}
        ports = [tuple(closing.get(h, h) for h in hs) for hs in ports]
        edges += len(live)
    return _mk(occ.target.sig, occ.target.regions, 0, ctrl, params, parents, (), ports,
               (), occ.target.outer, edges)


def _wiring(occ: Occurrence) -> tuple:
    """``exposed`` and ``to_close``: an open target link keeps its name; a
    closed one that a pattern name lands on, or whose ports lie in more
    than one piece (context, image, a parameter part), gets a fresh name
    to close again after the rewrite. Other closed links stay inside
    their piece (or are consumed by a pattern edge)."""
    target, image = occ.target, occ.image
    t_points = target.link_points()
    edges_mapped = {tl for L, tl in occ.link_map.items() if L[0] == "e"}
    names_onto = {tl for L, tl in occ.link_map.items() if L[0] == "o"}
    exposed: dict[Handle, str] = {}
    to_close: list[str] = []
    taken = set(target.outer)
    counter = 0
    for h in sorted(t_points):
        if h[0] == "o":
            exposed[h] = h[1]
            continue
        if h in edges_mapped:
            continue
        # pieces the edge touches (a ground target has only port points)
        tags = {"img" if pt[1] in image else occ.owner.get(pt[1], "ctx")
                for pt in t_points[h]}
        if h in names_onto or len(tags) > 1:
            while "w%d" % counter in taken:
                counter += 1
            w = "w%d" % counter
            counter += 1
            taken.add(w)
            exposed[h] = w
            to_close.append(w)
    return exposed, tuple(to_close)


def _lay(occ: Occurrence, nodes, top, rows, edges: int) -> tuple:
    """Append target nodes, in order, to rows (ctrl, params, parents,
    ports) after those already there. A parameter top gets the parents
    top, any other node its own, renumbered; exposed links carry their
    name, and the closed links inside the nodes are numbered from edges
    on in first-seen order. Returns the renumbering and that edge count."""
    target, exposed, tops = occ.target, occ.exposed, occ.param_tops
    ctrl, params, parents, ports = rows
    where = {t: len(ctrl) + i for i, t in enumerate(nodes)}
    own: dict[Handle, Handle] = {}
    for t in nodes:
        ctrl.append(target.ctrl[t])
        params.append(target.params[t])
        parents.append(top if t in tops else _lift(where, target.node_parents[t]))
        row = []
        for h in target.ports[t]:
            if h in exposed:
                row.append(("o", exposed[h]))
            else:
                row.append(own.setdefault(h, ("e", edges + len(own))))
        ports.append(tuple(row))
    return where, len(own)


def _lift(where, keys) -> frozenset:
    """Target place keys, nodes renumbered by where."""
    return frozenset(p if p[0] == "r" else ("n", where[p[1]]) for p in keys)


def _lay_context(occ: Occurrence, rows) -> tuple:
    """Lay the context's nodes (neither image nor parameter) into empty
    rows; returns its edge count and each pattern region's position."""
    nodes = [t for t in range(occ.target.n) if t not in occ.image and t not in occ.owner]
    where, edges = _lay(occ, nodes, None, rows, 0)
    return edges, [_lift(where, occ.region_pos[r]) for r in range(len(occ.region_pos))]


def _piece(sig, regions, sites, rows, edges, outer=()) -> Bigraph:
    ctrl, params, parents, ports = rows
    names = {h[1] for hs in ports for h in hs if h[0] == "o"}
    return _mk(sig, regions, len(sites), ctrl, params, parents, sites, ports, (),
               names.union(outer), edges)


def _context(occ: Occurrence) -> Bigraph:
    """The target's original regions around one hole per pattern region."""
    rows = ([], [], [], [])
    edges, regions = _lay_context(occ, rows)
    return _piece(occ.target.sig, occ.target.regions, regions, rows, edges,
                  occ.target.outer)


def _parameter(occ: Occurrence) -> list[Bigraph]:
    """One ground bigraph per pattern site: what the site absorbed."""
    parts = []
    for s in range(len(occ.part_nodes)):
        rows = ([], [], [], [])
        _, edges = _lay(occ, sorted(occ.part_nodes[s]), frozenset({("r", 0)}), rows, 0)
        parts.append(_piece(occ.target.sig, 1, (), rows, edges))
    return parts


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def find_occurrences(target: Bigraph, pattern: Bigraph) -> list[Occurrence]:
    """Every occurrence of pattern in target, one per image, sorted by
    image. An image is the node image set, the link each open name lands
    on, and the closed edge image set; pattern automorphisms fix open
    names, so they still collapse, while two occurrences that send the
    names to different links rewrite differently and are both kept."""
    occurrences: list[Occurrence] = []
    seen_images: set = set()
    for occ in _occurrences(target, pattern):
        key = (frozenset(occ.node_map.values()),
               frozenset((L[1], tl) for L, tl in occ.link_map.items() if L[0] == "o"),
               frozenset(tl for L, tl in occ.link_map.items() if L[0] == "e"))
        if key not in seen_images:
            seen_images.add(key)
            occurrences.append(occ)
    occurrences.sort(key=Occurrence.sort_key)
    return occurrences


class _Plan(NamedTuple):
    """What matching needs of a pattern alone, built once per pattern by
    ``_plan``. Per node: its candidate filter (label, node parents, has a
    region parent, node children, has a site child) and the nodes it
    shares a parent edge or a link with. The nodes with a region parent,
    each with its region parents and whether it has a node parent too;
    the nodes with a site child. The site each parent set names. Per
    link handle, closed edges first: its (node, ports on it) pairs; and
    the nodes with ports."""

    filters: tuple
    adj: tuple
    tops: tuple
    sited: tuple
    site_of_parents: dict
    links: tuple
    linked: tuple


def _plan(pattern: Bigraph) -> _Plan:
    got = pattern._cache.get("plan")
    if got is not None:
        return got
    if pattern.inner:
        raise UnsupportedPattern("patterns with inner names are not supported")
    if not pattern.is_solid():
        raise PatternNotSolid("pattern is not solid")
    p_kids = pattern.children()
    filters = tuple(((pattern.ctrl[u], repr(pattern.params[u])),
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
        tuple((u, tuple(p[1] for p in ps if p[0] == "r"), f[1] > 0)
              for u, (ps, f) in enumerate(zip(pattern.node_parents, filters)) if f[2]),
        tuple(u for u, f in enumerate(filters) if f[4]),
        {frozenset(ps): s for s, ps in enumerate(pattern.site_parents)},
        tuple((h, tuple(users[h].items())) for h in sorted(users)),   # ("e", k) < ("o", x)
        tuple(u for u, hs in enumerate(pattern.ports) if hs))
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
    for t, label in enumerate(zip(target.ctrl, map(repr, target.params))):
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
    # (all of its parents when it has no parent in the pattern's nodes)
    region_pos: dict[int, frozenset] = {}
    multi: list[tuple[tuple[int, ...], frozenset]] = []
    for u, rs, under_node in plan.tops:
        extra = target.node_parents[fwd[u]]
        if under_node:
            extra = frozenset(p for p in extra if p[0] == "r" or p[1] not in image)
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
    # checked once per distinct parent set; a set that names no site ends
    # the occurrence, so route holds only sets that name one
    t_kids = target.children()
    inv = {t: u for u, t in fwd.items()}
    route: dict[frozenset, int] = {}           # a top's parents -> its site
    owner: dict[int, int] = {}                 # parameter node -> pattern site
    for u in plan.sited:
        for _, w in t_kids[("n", fwd[u])]:
            if w in image or w in owner:
                continue
            pars = target.node_parents[w]
            s = route.get(pars)
            if s is None:
                # every parent of a parameter top must be a matched node
                if any(p[0] != "n" or p[1] not in inv for p in pars):
                    return
                s = plan.site_of_parents.get(frozenset(("n", inv[p[1]]) for p in pars))
                if s is None:
                    return
                route[pars] = s
            owner[w] = s
    param_tops = dict(owner)

    # closure of parameter parts: a node below a top has a parent in its
    # part, so only one with several parents can escape it
    stack = [(c, s) for w, s in param_tops.items() for _, c in t_kids[("n", w)]]
    below: list[int] = []                      # part nodes under several parents
    while stack:
        x, s = stack.pop()
        if x in owner:
            if owner[x] != s:
                return
            continue
        if x in image:
            # x's parent is then a region position inside the parameter
            return
        owner[x] = s
        if len(target.node_parents[x]) > 1:
            below.append(x)
        stack.extend((c, s) for _, c in t_kids[("n", x)])
    for x in below:
        s = owner[x]
        for p in target.node_parents[x]:
            if p[0] != "n" or owner.get(p[1]) != s:
                return                         # parameter content escapes its part
    part_nodes: dict[int, list[int]] = {s: [] for s in range(pattern.sites)}
    for x, s in owner.items():
        part_nodes[s].append(x)

    # --- link assignment -----------------------------------------------------
    for assign in _link_assignments(target, plan, fwd, image):
        yield Occurrence(fwd, assign, target, image, param_tops, part_nodes, owner,
                         region_pos)


def _link_assignments(target, plan, fwd, image):
    """All maps pattern-link -> target-link compatible with the node map.

    Counts the free ports per (image node, target link) of the linked
    pattern nodes only. A pattern node and its image share a control, so
    they have equally many ports: once every pattern link has taken its
    ports on an image node, none are left, and no final check is needed."""
    remaining = {u: target.node_handle_counts(fwd[u]) for u in plan.linked}
    solutions: list[dict] = []
    assign: dict = {}

    def backtrack(i):
        if i == len(plan.links):
            solutions.append(dict(assign))
            return
        L, users = plan.links[i]
        rems = [(remaining[u], need) for u, need in users]
        for tl in sorted(rems[0][0]):          # the links on one user's image
            # a closed edge takes an unused closed edge of the same size,
            # wholly on the image (edges are assigned first)
            if L[0] == "e" and (tl[0] != "e" or tl in assign.values()
                                or target.port_count(tl) != sum(n for _, n in users)
                                or any(pt[1] not in image for pt in target.link_points()[tl])):
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
    sig = occ.target.sig
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
