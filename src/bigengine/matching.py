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
order (rarest candidates first) that lets most nodes draw candidates
from a placed neighbour's image; each one then gets the remaining
placement checks and its link assignments.
Occurrences are produced lazily, so ``matches_predicate``, the rule
guards and the engine's settle stop at the first. An occurrence is what
its search found; no piece is kept on it, and its parameter is routed
(``_parts``) only where read. A rewrite (``recompose``) splices the new
part into the target in one pass and builds neither piece; a guard lays
the one piece it reads (``_piece``). Both lay equal parent sets and port
rows as one object run-wide (``_shared``). No SAT machinery; no search
result is carried from one state to the next.

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
  part of the parameter is closed and holds no image node (``_finalize``:
  by ``_parts``' routing where a node has two parents, else two tests).
* A closed pattern edge matches a closed target link with exactly the
  same ports. An open pattern name matches any target link, open or
  closed; distinct names may land on the same link. Every port of an
  image node is taken, which arity implies: a pattern node and its image
  share a control (``_link_assignments``).
* Occurrences with the same node image set, the same target link for
  each open name, the same closed-edge image set and the same part in
  each site are counted once, so pattern automorphisms (which fix open
  names) multiply matches only by moving parts between sites, while
  occurrences that rewrite differently all count (``find_occurrences``,
  which compares only hits that repeat a node image set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .bigraph import Bigraph, Handle, _mk, _node_maps, labels
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
    """One match of a pattern in a target, as its search found it: node
    and link maps, the target, ``image`` nodes, region positions and the
    pattern. Nothing else is kept on it: what reads the parameter routes
    it (``_parts``), a rewrite derives the wiring (``_wiring``), and a
    guard lays the one piece it reads (``_piece``)."""

    node_map: dict[int, int]
    link_map: dict[Handle, Handle]
    target: Bigraph = field(repr=False, compare=False)
    image: frozenset = field(repr=False, compare=False)
    region_pos: dict = field(repr=False, compare=False)  # region -> target parents
    pattern: Bigraph = field(repr=False, compare=False)

    def sort_key(self):
        return (tuple(sorted(self.node_map.values())),
                tuple(sorted(self.link_map.values())))


def recompose(occ: Occurrence, pattern: Bigraph, entries) -> Bigraph:
    """Put pattern in the matched part's place, its site k filled by a
    copy of parameter part entries[k]; with the matched pattern and
    ``range(pattern.sites)`` the result is iso_equal to the target, with
    a rule's right side and instantiation it is the rewrite.

    One pass over the target, its parameter routed once (``_parts``),
    numbered as the algebra would number context o (pattern || parts):
    nodes are the context's (ascending), pattern's, then each copy's
    (ascending); edges the context's own, pattern's, each copy's own
    (fresh per copy), then the fresh names of ``_wiring`` that something
    still uses, in that order. Equal rows are one object run-wide (``_shared``)."""
    target, image = occ.target, occ.image
    owner = _parts(target, occ.pattern, occ.node_map, image)
    exposed, to_close = _wiring(occ, owner)
    rows = ([], [], [], [])                    # ctrl, params, parents, ports
    context = [t for t in range(target.n) if t not in image and t not in owner]
    where, edges = _lay(target, exposed, context, None, rows, 0)
    regions = [_lift(where, occ.region_pos[r]) for r in range(len(occ.region_pos))]
    ctrl, params, parents, ports = rows
    base = len(ctrl)

    def place(keys):                           # pattern place keys -> result's
        out = set()
        for p in keys:
            if p[0] == "n":
                out.add(("n", base + p[1]))
            else:
                out.update(regions[p[1]])
        return _shared(frozenset(out))

    names = {lh[1]: exposed[th] for lh, th in occ.link_map.items() if lh[0] == "o"}
    ctrl.extend(pattern.ctrl)
    params.extend(pattern.params)
    parents.extend(place(ps) for ps in pattern.node_parents)
    ports.extend(_shared(tuple(("o", names[h[1]]) if h[0] == "o" else ("e", edges + h[1])
                               for h in hs)) for hs in pattern.ports)
    edges += pattern.edges
    parts: list[list[int]] = [[] for _ in range(occ.pattern.sites)]   # each site's nodes, ascending
    for x in sorted(owner):
        parts[owner[x]].append(x)
    for k, s in enumerate(entries):
        edges += _lay(target, exposed, parts[s], place(pattern.site_parents[k]), rows, edges)[1]
    # close the fresh names that are still used, numbering the closed
    # edges in that order; only rows that hold one change
    if to_close:
        used = set().union(*ports)
        live = [("o", w) for w in to_close if ("o", w) in used]
        closing = {h: ("e", edges + k) for k, h in enumerate(live)}
        ports = [_shared(tuple(closing.get(h, h) for h in hs))
                 if not closing.keys().isdisjoint(hs) else hs for hs in ports]
        edges += len(live)
    return _mk(target.sig, target.regions, 0, ctrl, params, parents, (), ports,
               (), target.outer, edges)


def _wiring(occ: Occurrence, owner: dict) -> tuple:
    """The name each target link carries across the pieces (``exposed``),
    and the fresh names among them (``to_close``): an open target link
    keeps its name; a closed one that a pattern name lands on, or whose
    ports lie in more than one piece (context, image, a part of owner),
    gets a fresh name to close again after the rewrite. Other closed
    links stay inside their piece (or are consumed by a pattern edge)."""
    target, image = occ.target, occ.image
    t_points = target.link_points()
    edges_mapped = {tl for L, tl in occ.link_map.items() if L[0] == "e"}
    names_onto = {tl for L, tl in occ.link_map.items() if L[0] == "o"}
    exposed: dict[Handle, str] = {}
    to_close: list[str] = []
    counter = 0                                # fresh names w0, w1, ... not in target.outer
    for h in sorted(t_points):
        if h[0] == "o":
            exposed[h] = h[1]
            continue
        if h in edges_mapped:
            continue
        # pieces the edge touches (a ground target has only port points)
        tags = {"img" if pt[1] in image else owner.get(pt[1], "ctx")
                for pt in t_points[h]}
        if h in names_onto or len(tags) > 1:
            while "w%d" % counter in target.outer:
                counter += 1
            exposed[h] = "w%d" % counter
            to_close.append(exposed[h])
            counter += 1
    return exposed, tuple(to_close)


_SHARED_ROWS = 4096                            # the most rows _shared keeps alive


@lru_cache(maxsize=_SHARED_ROWS)
def _shared(row):
    """row, or the equal parent set or port row laid before it in the run
    (hash-consing, bounded to the rows last used)."""
    return row


def _lay(target: Bigraph, exposed, nodes, top, rows, edges: int) -> tuple:
    """Append target nodes, in order, to rows (ctrl, params, parents,
    ports), rows as ``_shared`` holds them. A parameter top (parents
    outside nodes) gets the parents top, any other node its own; exposed
    links carry their name, closed links are numbered from edges on in
    first-seen order. Returns the renumbering and that edge count."""
    ctrl, params, parents, ports = rows
    where = {t: len(ctrl) + i for i, t in enumerate(nodes)}
    lifted: dict = {}                          # a target parent set -> its lift
    laid: dict = {(): ()}                      # port row -> laid row (a repeat adds no link)
    own: dict[Handle, Handle] = {}
    for t in nodes:
        ctrl.append(target.ctrl[t])
        params.append(target.params[t])
        ps = target.node_parents[t]
        if ps not in lifted:                   # tops' parents all lie outside nodes, others' in
            inside = top is None or next(iter(ps))[1] in where
            lifted[ps] = _lift(where, ps) if inside else top
        parents.append(lifted[ps])
        hs = target.ports[t]
        if hs not in laid:
            row = []
            for h in hs:
                if h in exposed:
                    row.append(("o", exposed[h]))
                else:
                    row.append(own.setdefault(h, ("e", edges + len(own))))
            laid[hs] = _shared(tuple(row))
        ports.append(laid[hs])
    return where, len(own)


def _lift(where, keys) -> frozenset:
    """Target place keys, nodes renumbered by where, as ``_shared`` holds them."""
    return _shared(frozenset(p if p[0] == "r" else ("n", where[p[1]]) for p in keys))


def _piece(occ: Occurrence, param: bool, owner: dict) -> Bigraph:
    """A guard's piece, ground, laid in one pass: every part of owner
    side by side under one region, site by site (param), or the context
    (neither image nor parameter) with its holes plugged by empty regions."""
    target = occ.target
    if param:
        nodes = sorted(owner, key=lambda x: (owner[x], x))
        regions, top, outer = 1, frozenset({("r", 0)}), ()
    else:
        nodes = [t for t in range(target.n) if t not in occ.image and t not in owner]
        regions, top, outer = target.regions, None, target.outer
    rows = ([], [], [], [])
    edges = _lay(target, _wiring(occ, owner)[0], nodes, top, rows, 0)[1]
    ctrl, params, parents, ports = rows
    names = {h[1] for hs in ports for h in hs if h[0] == "o"}
    return _mk(target.sig, regions, 0, ctrl, params, parents, (), ports, (),
               names.union(outer), edges)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def find_occurrences(target: Bigraph, pattern: Bigraph) -> list[Occurrence]:
    """Every occurrence of pattern in target, one per image and parts,
    sorted by image. An image is the node image set, the link each open
    name lands on, and the closed edge image set. Pattern automorphisms
    fix open names, so they collapse unless they give some site another
    part (its target nodes, routed by ``_parts``); two occurrences that
    send names to different links are both kept. Equal images have equal
    node image sets, so a hit whose node image set is new is kept unkeyed
    and unrouted, and only a hit that repeats one is compared, with the
    earlier hits on that set; the first hit per image and parts stays."""

    def likeness(occ):                     # what hits on one node image set differ by
        return ({(L[1], tl) for L, tl in occ.link_map.items() if L[0] == "o"},
                {tl for L, tl in occ.link_map.items() if L[0] == "e"},
                _parts(target, pattern, occ.node_map, occ.image))

    occurrences: list[Occurrence] = []
    seen: dict = {}                        # node image set -> its first hit, then its hits' likeness
    for occ in _occurrences(target, pattern):
        same = seen.setdefault(occ.image, occ)
        if same is not occ:
            if type(same) is Occurrence:
                same = seen[occ.image] = [likeness(same)]
            key = likeness(occ)
            if key in same:
                continue
            same.append(key)
        occurrences.append(occ)
    occurrences.sort(key=Occurrence.sort_key)
    return occurrences


class _Plan(NamedTuple):
    """What matching needs of a pattern alone, built once per pattern by
    ``_plan``. Per node: its candidate filter (label, node parents, has a
    region parent, node children, has a site child) and the nodes it
    shares a parent edge or a link with. The nodes with a region parent,
    each with its region parents and whether it has a node parent too;
    the nodes with a site child; those with no site of their own, with
    their node-child counts; the site each parent set names. Per link
    handle, closed edges first: its (node, ports on it) pairs; and the
    nodes with ports."""

    filters: tuple
    adj: tuple
    tops: tuple
    sited: tuple
    unowned: tuple
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
    label = labels(pattern)
    filters = tuple((label[u], sum(p[0] == "n" for p in ps), any(p[0] == "r" for p in ps),
                     sum(c[0] == "n" for c in p_kids[("n", u)]),
                     any(c[0] == "s" for c in p_kids[("n", u)]))
                    for u, ps in enumerate(pattern.node_parents))
    adj: list[set] = [set() for _ in range(pattern.n)]  # node parents, children and link mates
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
        tuple((u, f[3]) for u, f in enumerate(filters)
              if f[4] and {("n", u)} not in pattern.site_parents),
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
    t_kids = target.children()

    # candidate target nodes per pattern node: same label, then the
    # parent and child counts the pattern node admits
    by_label: dict = {f[0]: [] for f in plan.filters}
    for t, label in enumerate(labels(target)):
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

    # a connectivity-guided ordering, rarest candidates first: the rarest
    # neighbour of the placed nodes (entries (0, ...) in one heap), else
    # the rarest node left (entries (1, ...)); placed nodes' entries are
    # skipped. The pattern keeps its last order, which the counts decide
    sizes = tuple(map(len, cand))
    last = pattern._cache.get("order")
    if last is None or last[0] != sizes:
        heap = [(1, k, u) for u, k in enumerate(sizes)]
        heapify(heap)
        order: list[int] = []
        placed: set[int] = set()
        while heap:
            u = heappop(heap)[2]
            if u not in placed:
                order.append(u)
                placed.add(u)
                for v in plan.adj[u]:
                    if v not in placed:
                        heappush(heap, (0, sizes[v], v))
        last = pattern._cache["order"] = (sizes, tuple(order))
    forest = target._cache.get("forest")       # no node has two parents (no sharing)
    if forest is None:
        forest = target._cache["forest"] = sum(map(len, target.node_parents)) == target.n
    for fwd in _node_maps(pattern, target, last[1], cand.__getitem__):
        yield from _finalize(target, pattern, plan, dict(fwd), forest)


def _finalize(target: Bigraph, pattern: Bigraph, plan: _Plan, fwd: dict, forest: bool):
    """Placement checks left after the node map, then link assignment;
    yields one occurrence per link assignment.

    Relies on ``_node_maps`` for exact parenthood between image nodes and
    on the candidate filter for parent and child counts, so the parents
    of a top node outside the image are its region's position, any other
    node has none, and only nodes with a site child have children outside
    the image. Checks only what is left: region positions agree, each
    parameter top's parents name one site, and parameter parts are closed
    and hold no image node (so no region position lies in one): by
    ``_parts`` where a node has two parents, else by two tests (a part is
    then the subtree of a top with one, image, parent).
    """
    image = frozenset(fwd.values())

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
    # every region of a solid pattern holds a node, so each has a position

    if forest:
        for u, k in plan.unowned:              # a top under u would name no site
            if len(target.children()[("n", fwd[u])]) > k:
                return
        for (p,) in region_pos.values():       # a position has one parent on a forest
            while p[0] == "n":                 # up to its root: no image node above
                if p[1] in image:
                    return
                (p,) = target.node_parents[p[1]]
    elif _parts(target, pattern, fwd, image) is None:
        return
    for assign in _link_assignments(target, plan, fwd, image):
        yield Occurrence(fwd, assign, target, image, region_pos, pattern)


def _parts(target: Bigraph, pattern: Bigraph, fwd: dict[int, int], image) -> dict | None:
    """Each parameter node's site under the node map fwd, or None when a
    top's parents name no site, or a part is not closed or holds an image node."""
    plan = _plan(pattern)
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
                    return None
                s = plan.site_of_parents.get(frozenset(("n", inv[p[1]]) for p in pars))
                if s is None:
                    return None
                route[pars] = s
            owner[w] = s

    # closure of parameter parts: a node below a top has a parent in its
    # part, so only one with several parents can escape it
    stack = [(c, s) for w, s in owner.items() for _, c in t_kids[("n", w)]]
    below: list[int] = []                      # part nodes under several parents
    while stack:
        x, s = stack.pop()
        if x in owner:
            if owner[x] != s:
                return None
            continue
        if x in image:
            # x's parent is then a region position inside the parameter
            return None
        owner[x] = s
        if len(target.node_parents[x]) > 1:
            below.append(x)
        stack.extend((c, s) for _, c in t_kids[("n", x)])
    for x in below:
        s = owner[x]
        for p in target.node_parents[x]:
            if p[0] != "n" or owner.get(p[1]) != s:
                return None                    # parameter content escapes its part
    return owner


def _link_assignments(target, plan, fwd, image):
    """All maps pattern-link -> target-link compatible with the node map.

    Counts the free ports per (image node, target link) of the linked
    pattern nodes only. A pattern node and its image share a control, so
    they have equally many ports: once every pattern link has taken its
    ports on an image node, none are left, and no final check is needed."""
    links = plan.links
    if not links:
        return [{}]
    remaining: dict = {}
    for u in plan.linked:
        counts = remaining[u] = {}
        for h in target.ports[fwd[u]]:
            counts[h] = counts.get(h, 0) + 1
    rems = [[(remaining[u], need) for u, need in users] for _, users in links]
    # one candidate iterator per link, made on entering its level, over
    # the links on its first user's image in order
    ascending = [sorted(rem[0][0]) if len(rem[0][0]) > 1 else rem[0][0] for rem in rems]
    solutions: list[dict] = []
    assign: dict = {}
    stack = [iter(ascending[0])]
    while stack:
        i = len(stack) - 1
        L, users = links[i]
        if L in assign:                        # back at this level: undo its choice
            tl = assign.pop(L)
            for rem, need in rems[i]:
                rem[tl] += need
        for tl in stack[-1]:
            # a closed edge takes an unused closed edge of the same size,
            # wholly on the image (edges are assigned first)
            if L[0] == "e" and (tl[0] != "e" or tl in assign.values()
                                or target.port_count(tl) != sum(n for _, n in users)
                                or any(pt[1] not in image for pt in target.link_points()[tl])):
                continue
            if any(rem.get(tl, 0) < need for rem, need in rems[i]):
                continue
            assign[L] = tl
            for rem, need in rems[i]:
                rem[tl] -= need
            break
        else:
            stack.pop()
            continue
        if i + 1 < len(links):
            stack.append(iter(ascending[i + 1]))
        else:
            solutions.append(dict(assign))
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
    parameter parts (param kinds) or the plugged context (ctx kinds), each
    laid once, when a guard first reads it (``_piece``), from one routing
    (``_parts``); constraint patterns' names are independent of the rule's."""
    owner = _parts(occ.target, occ.pattern, occ.node_map, occ.image) if constraints else {}
    pieces: dict = {}                          # True: merged parameter, False: context
    for c in constraints:
        param = c.kind.endswith("param")
        if param not in pieces:
            pieces[param] = _piece(occ, param, owner)
        if c.kind.startswith("present") != matches_predicate(pieces[param], c.pattern):
            return False
    return True
