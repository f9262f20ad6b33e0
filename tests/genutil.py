"""Shared test helpers: seeded random bigraph generators, twins added
beside childless nodes (``with_twins``), random
renumbering (``permuted``) and port swaps (``swapped``), a brute-force occurrence enumerator used as
the matcher oracle, the occurrence list kept by a table of every image
(``reference_find_occurrences``) as the oracle of
``matching.find_occurrences``, which compares only hits that repeat a
node image set,
each parameter node's site as ``matching._parts`` routes it (``parts``),
two isomorphism oracles (``brute_iso`` and, over
``networkx``, ``nx_iso``), colour refinement in three sorted tuples per
class with edges recoloured from the last round (``reference_refine``)
as the oracle of the partition of ``canon.certificate``'s colours
(``walk_colours``), the orbit key written out from twin keys and closed
edges' points (``reference_orbit_key``) as the oracle of
``canon.orbit_key``'s grouping, the node-map search that
tries every candidate (``reference_node_maps``) as the oracle of the
anchored ``bigraph._node_maps``, an occurrence's context, parameters
and wiring written from its maps, sharing no laying code with
``matching`` (``reference_pieces``), and on them each guard searched by
``matches_predicate`` in its laid piece (``reference_guards``) as the
oracle of ``check_constraints``, which searches the target in place, and
the rewrite by the algebra (``reference_recompose``) as the
oracle of the one-pass ``matching.recompose``, the binary products and nest written out
(``reference_product``, ``reference_nest``) as the oracles of the n-ary
``merge``, ``parallel`` and ``nest``, a structural sanity check (``well_formed``),
every application of a rule (``all_applications``), a parser of
``.tra`` files (``read_tra``) and breadth-first exploration written out
from the semantics, with no shortcut and no ``canon`` call
(``reference_explore``), as the oracle of ``engine.explore``.

The matcher oracle enumerates every injective node map and every
anchored link assignment and checks the embedding conditions written out
directly; it shares no code with the search in bigengine.matching.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import count, product
from typing import Sequence

from bigengine.bigraph import (Bigraph, Signature, _mk, close, idle, labels, merge, nest, one,
                               parallel)
from bigengine.canon import _digest, certificate
from bigengine.errors import AtomicViolation, SignatureError, WidthMismatch
from bigengine.matching import (
    Occurrence,
    _occurrences,
    _parts,
    check_constraints,
    find_occurrences,
    matches_predicate,
)
from bigengine.rules import apply_at


def make_sig(controls):
    """controls: iterable of (name, arity, atomic)."""
    from bigengine.bigraph import Control
    return Signature([Control(n, a, atomic=at) for n, a, at in controls])


DEFAULT_CONTROLS = [
    ("A", 0, False), ("B", 1, False), ("C", 2, True), ("D", 0, True),
]


def random_ground(rng, sig, max_nodes=8, name_pool=("a", "b", "c"),
                  max_regions=2, close_prob=0.5, share_prob=0.0):
    """A random ground bigraph. With share_prob > 0 a node sometimes gets a
    second parent (a place DAG); at 0 no extra random numbers are drawn,
    so seeded callers see the same cases as without the option."""
    controls = sig.controls()
    n = rng.randint(1, max_nodes)
    r = rng.randint(1, max_regions)
    ctrl, parents, ports = [], [], []
    used = set()
    for i in range(n):
        c = rng.choice(controls)
        ctrl.append(c.name)
        cands = [("r", k) for k in range(r)]
        cands += [("n", j) for j in range(i) if not sig.get(ctrl[j]).atomic]
        parents.append(_parents(rng, cands, rng.choice(cands), share_prob))
        hs = []
        for _ in range(c.arity):
            x = rng.choice(name_pool)
            used.add(x)
            hs.append(("o", x))
        ports.append(tuple(hs))
    b = _mk(sig, r, 0, ctrl, ((),) * n, parents, (), ports, (),
            frozenset(used), 0)
    for x in sorted(used):
        if rng.random() < close_prob:
            b = close(x, b)
    return b


def _parents(rng, cands, first, share_prob):
    """{first}, plus with probability share_prob a second draw from cands."""
    if share_prob and rng.random() < share_prob:
        return frozenset({first, rng.choice(cands)})
    return frozenset({first})


def random_solid_pattern(rng, sig, max_nodes=4, name_pool=("a", "b", "c"),
                         max_regions=2, max_sites=2, close_prob=0.4,
                         share_prob=0.0):
    """A random solid pattern. With share_prob > 0 a node sometimes gets a
    second parent (possibly a second region) and a site a second parent
    node; at 0 no extra random numbers are drawn."""
    controls = sig.controls()
    r = rng.randint(1, max_regions)
    n = rng.randint(r, max(r, max_nodes))
    ctrl, parents, ports = [], [], []
    used = set()
    for i in range(n):
        c = rng.choice(controls)
        ctrl.append(c.name)
        cands = [("r", k) for k in range(r)]
        cands += [("n", j) for j in range(i) if not sig.get(ctrl[j]).atomic]
        # every region gets at least one node
        parent = ("r", i) if i < r else rng.choice(cands)
        parents.append(_parents(rng, cands, parent, share_prob))
        hs = []
        for _ in range(c.arity):
            x = rng.choice(name_pool)
            used.add(x)
            hs.append(("o", x))
        ports.append(tuple(hs))
    hosts = [i for i in range(n) if not sig.get(ctrl[i]).atomic]
    rng.shuffle(hosts)
    k = rng.randint(0, max_sites)
    spare = hosts[k:]                  # hosts no site uses, for shared sites
    site_parents = []
    for i in sorted(hosts[:k]):
        ps = {("n", i)}
        if share_prob and spare and rng.random() < share_prob:
            ps.add(("n", spare.pop()))
        site_parents.append(frozenset(ps))
    site_parents = tuple(site_parents)
    b = _mk(sig, r, len(site_parents), ctrl, ((),) * n, parents, site_parents,
            ports, (), frozenset(used), 0)
    for x in sorted(used):
        if rng.random() < close_prob:
            b = close(x, b)
    assert b.is_solid()
    return b


def with_twins(b, rng):
    """b with a twin beside some of its childless nodes: a copy with the
    same label, parents and ports."""
    parents = {p[1] for ps in b.node_parents for p in ps if p[0] == "n"}
    extra = [i for i in range(b.n) if i not in parents and rng.random() < 0.5]
    grow = lambda row: tuple(row) + tuple(row[i] for i in extra)
    return _mk(b.sig, b.regions, b.sites, grow(b.ctrl), grow(b.params), grow(b.node_parents),
               b.site_parents, grow(b.ports), b.inner, b.outer, b.edges)


def permuted(b, rng):
    """The same bigraph with its nodes and closed edges renumbered at random."""
    perm = list(range(b.n))
    rng.shuffle(perm)
    eperm = list(range(b.edges))
    rng.shuffle(eperm)
    place = lambda p: ("n", perm[p[1]]) if p[0] == "n" else p
    handle = lambda h: ("e", eperm[h[1]]) if h[0] == "e" else h
    ctrl, params, parents, ports = ([None] * b.n for _ in range(4))
    for i in range(b.n):
        j = perm[i]
        ctrl[j], params[j] = b.ctrl[i], b.params[i]
        parents[j] = frozenset(place(p) for p in b.node_parents[i])
        ports[j] = tuple(handle(h) for h in b.ports[i])
    site_parents = [frozenset(place(p) for p in ps) for ps in b.site_parents]
    inner = [(x, handle(h)) for x, h in b.inner]
    return _mk(b.sig, b.regions, b.sites, ctrl, params, parents, site_parents,
               ports, inner, b.outer, b.edges)


def swapped(b, rng):
    """b with the differing controls or ports of two nodes of equal arity
    exchanged: same sizes, controls and names, often not isomorphic."""
    ctrl, ports = list(b.ctrl), list(b.ports)
    row = ctrl if rng.random() < 0.5 else ports
    pairs = [(i, j) for i in range(b.n) for j in range(i)
             if len(ports[i]) == len(ports[j]) and row[i] != row[j]]
    if pairs:
        i, j = rng.choice(pairs)
        row[i], row[j] = row[j], row[i]
    return _mk(b.sig, b.regions, b.sites, ctrl, b.params, b.node_parents,
               b.site_parents, ports, b.inner, b.outer, b.edges)


def nx_graph(nx, b):
    """Labelled digraph of the place and link graphs: regions, sites, outer
    and inner names keep their identity as labels; nodes carry control
    and printed parameters (so 0.0 and -0.0 differ); closed edges are
    anonymous."""
    g = nx.DiGraph()
    for k in range(b.regions):
        g.add_node(("r", k), label=("r", k))
    for k in range(b.sites):
        g.add_node(("s", k), label=("s", k))
    for i in range(b.n):
        g.add_node(("n", i), label=("n", b.ctrl[i], repr(b.params[i])))
    for x in b.outer:
        g.add_node(("o", x), label=("o", x))
    for k in range(b.edges):
        g.add_node(("e", k), label=("e",))
    for i, ps in enumerate(b.node_parents):
        for p in ps:
            g.add_edge(p, ("n", i), kind="place")
    for k, ps in enumerate(b.site_parents):
        for p in ps:
            g.add_edge(p, ("s", k), kind="place")
    for i in range(b.n):
        for h, c in Counter(b.ports[i]).items():
            g.add_edge(("n", i), h, kind=("ports", c))
    for x, h in b.inner:
        g.add_node(("i", x), label=("i", x))
        g.add_edge(("i", x), h, kind="inner")
    return g


def nx_iso(nx, a, b):
    return nx.is_isomorphic(nx_graph(nx, a), nx_graph(nx, b),
                            node_match=lambda u, v: u["label"] == v["label"],
                            edge_match=lambda u, v: u["kind"] == v["kind"])


# ---------------------------------------------------------------------------
# brute-force occurrence oracle
# ---------------------------------------------------------------------------


def _place_ok(target: Bigraph, pattern: Bigraph, f: dict) -> bool:
    image = set(f.values())
    inv = {t: u for u, t in f.items()}
    tk = target.children()
    pk = pattern.children()

    region_extra = {}
    for u in range(pattern.n):
        t = f[u]
        want = {("n", f[p[1]]) for p in pattern.node_parents[u] if p[0] == "n"}
        got = set(target.node_parents[t])
        if not want <= got:
            return False
        extra = got - want
        if any(p[0] == "n" and p[1] in image for p in extra):
            return False
        rs = sorted(p[1] for p in pattern.node_parents[u] if p[0] == "r")
        if not rs:
            if extra:
                return False
        else:
            if not extra:
                return False
            region_extra[u] = (tuple(rs), frozenset(extra))

    pos = {}
    multis = []
    for u, (rs, e) in region_extra.items():
        if len(rs) == 1:
            if rs[0] in pos and pos[rs[0]] != e:
                return False
            pos[rs[0]] = e
        else:
            multis.append((rs, e))
    for rs, e in multis:
        if any(r not in pos for r in rs):
            return False
        if frozenset().union(*(pos[r] for r in rs)) != e:
            return False
    if set(pos) != set(range(pattern.regions)):
        return False

    site_by_parents = {frozenset(pattern.site_parents[s]): s
                       for s in range(pattern.sites)}
    tops = {}
    for u in range(pattern.n):
        t = f[u]
        mapped = {("n", f[c[1]]) for c in pk[("n", u)] if c[0] == "n"}
        got = set(tk[("n", t)])
        if not mapped <= got:
            return False
        extra = got - mapped
        has_site = any(c[0] == "s" for c in pk[("n", u)])
        if extra and not has_site:
            return False
        for key in extra:
            w = key[1]
            if w in image:
                return False
            pars = target.node_parents[w]
            if any(p[0] != "n" or p[1] not in image for p in pars):
                return False
            pat_parents = frozenset(("n", inv[p[1]]) for p in pars)
            s = site_by_parents.get(pat_parents)
            if s is None:
                return False
            if tops.get(w, s) != s:
                return False
            tops[w] = s

    owner = {}
    for w in sorted(tops):
        s = tops[w]
        stack = [w]
        while stack:
            x = stack.pop()
            if x in owner:
                if owner[x] != s:
                    return False
                continue
            if x in image:
                return False
            owner[x] = s
            stack.extend(c[1] for c in tk[("n", x)])
    for x, s in owner.items():
        if x in tops:
            continue
        for p in target.node_parents[x]:
            if p[0] != "n" or owner.get(p[1]) != s:
                return False

    ctx = set(range(target.n)) - image - set(owner)
    for e in pos.values():
        for p in e:
            if p[0] == "n" and p[1] not in ctx:
                return False
    return True


def _links_ok(target, pattern, f, assign) -> bool:
    image = set(f.values())
    for u in range(pattern.n):
        want = Counter(assign[h] for h in pattern.ports[u])
        got = Counter(target.ports[f[u]])
        if want != got:
            return False
    edges_seen = set()
    for h in set(assign):
        if h[0] != "e":
            continue
        th = assign[h]
        if th[0] != "e" or th in edges_seen:
            return False
        edges_seen.add(th)
        if target.port_count(th) != pattern.port_count(h):
            return False
        for pt in target.link_points()[th]:
            if pt[0] != "p" or pt[1] not in image:
                return False
    return True


def brute_images(target: Bigraph, pattern: Bigraph) -> set:
    """All occurrence images as (frozenset of target nodes, frozenset of
    target links), by exhaustive enumeration."""
    out = set()
    pn = pattern.n
    cands = []
    for u in range(pn):
        cands.append([t for t in range(target.n)
                      if target.ctrl[t] == pattern.ctrl[u]
                      and repr(target.params[t]) == repr(pattern.params[u])])
    p_handles = sorted({h for hs in pattern.ports for h in hs})
    for combo in product(*cands):
        if len(set(combo)) != pn:
            continue
        f = dict(zip(range(pn), combo))
        if not _place_ok(target, pattern, f):
            continue
        # anchored link candidates: a pattern link must land on a link that
        # carries the mapped ports of any node using it
        options = []
        for h in p_handles:
            anchor = next(u for u in range(pn) if h in pattern.ports[u])
            options.append(sorted(set(target.ports[f[anchor]])))
        for choice in product(*options):
            assign = dict(zip(p_handles, choice))
            if _links_ok(target, pattern, f, assign):
                out.add((frozenset(combo), frozenset(assign.values())))
    return out


def reference_find_occurrences(target: Bigraph, pattern: Bigraph) -> list:
    """``find_occurrences`` by a table of every image, each hit keyed
    whether or not its node image set repeats: one occurrence per image
    (node image set, the link of each open name, closed-edge image set)
    and parts, the first found, sorted by image."""
    occurrences: list = []
    seen: dict = {}                        # image -> its occurrences
    for occ in _occurrences(target, pattern):
        key = (frozenset(occ.image),
               frozenset((L[1], tl) for L, tl in occ.link_map.items() if L[0] == "o"),
               frozenset(tl for L, tl in occ.link_map.items() if L[0] == "e"))
        same = seen.setdefault(key, [])
        if not any(parts(o) == parts(occ) for o in same):   # same part in each site
            same.append(occ)
            occurrences.append(occ)
    occurrences.sort(key=Occurrence.sort_key)
    return occurrences


def parts(occ) -> dict:
    """Each parameter node's site, as ``matching._parts`` routes it."""
    return _parts(occ.target, occ.pattern, occ.node_map, occ.image)


def matcher_images(occurrences) -> set:
    return {(frozenset(o.node_map.values()), frozenset(o.link_map.values()))
            for o in occurrences}


# ---------------------------------------------------------------------------
# brute-force isomorphism oracle (exhaustive permutation search)
# ---------------------------------------------------------------------------


def brute_iso(a: Bigraph, b: Bigraph) -> bool:
    return any(True for _ in brute_isomorphisms(a, b))


def _brute_points(big, k, f):
    """Closed edge k's points, nodes renamed by f, as a sorted tuple."""
    return tuple(sorted(("p", f[pt[1]]) if pt[0] == "p" else ("i", pt[1])
                        for pt in big.link_points()[("e", k)]))


def brute_isomorphisms(a: Bigraph, b: Bigraph):
    """Every node permutation f that makes a isomorphic to b, by trying
    all of them."""
    from itertools import permutations

    if (a.regions, a.sites, a.n, a.edges) != (b.regions, b.sites, b.n, b.edges):
        return
    if a.outer != b.outer or dict(a.inner).keys() != dict(b.inner).keys():
        return

    def edge_sigs(big, f):
        return sorted(_brute_points(big, k, f) for k in range(big.edges))

    for perm in permutations(range(b.n)):
        f = {i: perm[i] for i in range(a.n)}
        if any(a.ctrl[i] != b.ctrl[f[i]] or repr(a.params[i]) != repr(b.params[f[i]])
               for i in range(a.n)):
            continue
        ok = True
        for i in range(a.n):
            mapped = frozenset(("n", f[p[1]]) if p[0] == "n" else p
                               for p in a.node_parents[i])
            if mapped != b.node_parents[f[i]]:
                ok = False
                break
            ca = Counter(h for h in a.ports[i] if h[0] == "o")
            cb = Counter(h for h in b.ports[f[i]] if h[0] == "o")
            if ca != cb:
                ok = False
                break
        if not ok:
            continue
        for k in range(a.sites):
            mapped = frozenset(("n", f[p[1]]) if p[0] == "n" else p
                               for p in a.site_parents[k])
            if mapped != b.site_parents[k]:
                ok = False
                break
        if not ok:
            continue
        for x, h in a.inner:
            hb = dict(b.inner)[x]
            if (h[0] == "o") != (hb[0] == "o") or (h[0] == "o" and h != hb):
                ok = False
                break
        if not ok:
            continue
        if edge_sigs(a, f) == edge_sigs(b, dict(enumerate(range(b.n)))):
            yield f


def take_inexact(monkeypatch) -> None:
    """Patch ``canon.certificate`` so that no certificate is exact: the
    store and ``iso_equal`` then confirm every hit by the node-map
    search. ``orbit_key`` reads no certificate, so its keys are
    unchanged."""
    from bigengine import canon
    real = canon.certificate
    monkeypatch.setattr(canon, "certificate", lambda b: (False, *real(b)[1:]))


def take_one_colour(monkeypatch) -> None:
    """Patch ``canon.certificate`` as ``take_inexact`` does, and give every
    twin class and closed edge of its twin data one colour: ``iso_equal``
    then draws every node's candidates from all nodes, so its exact check
    alone keeps it right. Twin classes and port classes are kept, so
    ``orbit_key`` is unchanged."""
    from bigengine import canon
    real = canon.certificate

    def one_colour(b):
        got = real(b)
        cls, ccol, ecol, ends = b._cache["twins"]
        b._cache["twins"] = (cls, [0] * len(ccol), [0] * len(ecol), ends)
        return (False, *got[1:])

    monkeypatch.setattr(canon, "certificate", one_colour)


def walk_colours(b: Bigraph) -> tuple[list[int], list[int]]:
    """Each node's and each edge's colour as ``canon.certificate``'s walk
    leaves them in its twin data: a node takes its twin class's."""
    certificate(b)
    cls, ccol, ecol, _ = b._cache["twins"]
    return [ccol[c] for c in cls], ecol


def reference_orbit_key(state: Bigraph, occ) -> tuple:
    """occ's orbit key on ground state written out from twin keys, as the
    oracle of ``canon.orbit_key``'s grouping: per pattern node its image
    itself if that has children, else the image's label, parents and
    sorted ports; per pattern link its image, an open name as itself and
    a closed edge as its sorted points; and the first pattern link with
    that image. Equal keys, engine's or these, must group alike."""
    kids, label, points = state.children(), labels(state), state.link_points()
    nodes = [t for _, t in sorted(occ.node_map.items())]
    links = [t for _, t in sorted(occ.link_map.items())]
    first: dict = {}
    return (tuple(t if kids[("n", t)] else
                  (label[t], state.node_parents[t], tuple(sorted(state.ports[t])))
                  for t in nodes),
            tuple(tuple(sorted(pt[:2] for pt in points[t])) if t[0] == "e" else t
                  for t in links),
            tuple(first.setdefault(t, k) for k, t in enumerate(links)))


def brute_same_orbit(state: Bigraph, o1, o2) -> bool:
    """Whether some automorphism of state, a node permutation together
    with an edge permutation that carries each closed edge's points onto
    its image's, maps o1's node and link images onto o2's; by trying
    every pair of permutations."""
    from itertools import permutations

    ident = dict(enumerate(range(state.n)))
    for f in brute_isomorphisms(state, state):
        if any(f[o1.node_map[u]] != o2.node_map[u] for u in o1.node_map):
            continue
        for perm in permutations(range(state.edges)):
            if any(_brute_points(state, k, f) != _brute_points(state, perm[k], ident)
                   for k in range(state.edges)):
                continue
            g = lambda h: ("e", perm[h[1]]) if h[0] == "e" else h
            if all(g(o1.link_map[h]) == o2.link_map[h] for h in o1.link_map):
                return True
    return False


def reference_refine(b: Bigraph) -> tuple[list[int], list[int], bool]:
    """Colour refinement with three sorted tuples per twin class (node
    parents, node children, edges) and each edge recoloured from the last
    round's node colours, stopping once the colours order the nodes up to
    twins with one colour per edge, or after a round that grew no class
    count; and whether they order the nodes. ``canon.certificate``'s walk
    (``walk_colours``) must stop at the same node and edge partitions with
    the same flag. Not cached."""
    kids, label = b.children(), labels(b)
    twins: dict = {}                             # twin key -> twin class
    cls, first = [], []                          # node -> its class; class -> first node
    for i, ps in enumerate(b.node_parents):
        # twins: childless nodes with equal label, parents and port multiset
        key = i if kids[("n", i)] else (label[i], ps, frozenset(Counter(b.ports[i]).items()))
        c = twins.setdefault(key, len(first))
        if c == len(first):
            first.append(i)
        cls.append(c)
    around, ccol = [], []                        # per twin class, from its first node
    for i in first:
        xss = (b.node_parents[i], kids[("n", i)], b.ports[i])
        around.append(tuple([cls[x[1]] if x[0] == "n" else x[1] for x in xs if x[0] in "ne"]
                            for xs in xss))
        fixed = sorted(_digest(x) for xs in xss for x in xs if x[0] in "rso")
        ccol.append(hash((_digest(("n", label[i])), *fixed)))
    points = [b.link_points()[("e", k)] for k in range(b.edges)]
    ends = [[cls[pt[1]] for pt in pts if pt[0] == "p"] for pts in points]
    ecol = [hash(tuple(sorted(_digest(pt) for pt in pts if pt[0] == "i"))) for pts in points]

    counts = (len(set(ccol)), len(set(ecol)))
    while counts != (len(first), b.edges):
        col = ccol.__getitem__
        ccol = [hash((c, tuple(sorted(map(col, ps))), tuple(sorted(map(col, cs))),
                      tuple(sorted(map(ecol.__getitem__, es)))))
                for c, (ps, cs, es) in zip(ccol, around)]
        ecol = [hash((c, *sorted(map(col, ns)))) for c, ns in zip(ecol, ends)]
        refined = (len(set(ccol)), len(set(ecol)))
        stable, counts = sum(refined) <= sum(counts), refined
        if stable:
            break
    return [ccol[c] for c in cls], ecol, counts[0] == len(first)


def _first_enabled(state: Bigraph, classes):
    """The first class with a guard-passing hit and its hits, in rule
    order and then occurrence order; (None, []) when no class has one."""
    for cls in classes:
        hits = [(rule, occ) for rule in cls.rules for occ in find_occurrences(state, rule.lhs)
                if check_constraints(occ, rule.constraints)]
        if hits:
            return cls, hits
    return None, []


def _reference_settle(state: Bigraph, classes, bound: int = 10 ** 4) -> Bigraph:
    """Apply the first hit of the highest enabled class while that class
    is instantaneous."""
    for _ in range(bound):
        cls, hits = _first_enabled(state, classes)
        if cls is None or not cls.instantaneous:
            return state
        rule, occ = hits[0]
        state = apply_at(state, rule, occ)
    raise AssertionError("the reference settle did not stop within %d reductions" % bound)


class _IsoStore:
    """States merged only by ``nx_iso``, compared only with states of
    equal label counts and edge count."""

    def __init__(self, nx):
        self.nx, self.states, self.buckets = nx, [], {}

    @staticmethod
    def _shape(b: Bigraph) -> tuple:
        return b.edges, tuple(sorted(Counter(labels(b)).items()))

    def lookup(self, b: Bigraph):
        for k in self.buckets.get(self._shape(b), ()):
            if nx_iso(self.nx, self.states[k], b):
                return k
        return None

    def add(self, b: Bigraph) -> int:
        self.buckets.setdefault(self._shape(b), []).append(len(self.states))
        self.states.append(b)
        return len(self.states) - 1


def _reference_groups(state: Bigraph, spec, hits, nx) -> list:
    """Every hit applied and settled; the results merged by ``nx_iso`` in
    first-seen order, each as (state, the rules of its hits)."""
    seen, groups = _IsoStore(nx), []
    for rule, occ in hits:
        dst = _reference_settle(apply_at(state, rule, occ), spec.classes)
        k = seen.lookup(dst)
        if k is None:
            k = seen.add(dst)
            groups.append((dst, []))
        groups[k][1].append(rule)
    return groups


def _shared(groups) -> list:
    """Each group's share of the summed rule weights."""
    weights = [sum((r.label.weight for r in rules), Fraction(0)) for _, rules in groups]
    return [w / sum(weights, Fraction(0)) for w in weights]


def reference_successors(state: Bigraph, spec, nx) -> list:
    """(successor, label, rule names) per successor of a settled state,
    from the semantics written out: every guard-passing hit of the first
    enabled class, pbrs weights normalised, sbrs rates summed, abrs
    weights normalised per action."""
    _, hits = _first_enabled(state, spec.classes)
    sem = spec.semantics
    if sem == "abrs":
        out = []
        for action in spec.actions:
            groups = _reference_groups(
                state, spec, [(r, o) for r, o in hits if r.label.action == action], nx)
            out += [(dst, (action, p), rules) for (dst, rules), p in zip(groups, _shared(groups))]
    else:
        groups = _reference_groups(state, spec, hits, nx)
        if sem == "pbrs":
            marks = _shared(groups)
        elif sem == "sbrs":
            marks = [sum((r.label.rate for r in rules), 0.0) for _, rules in groups]
        else:
            marks = [None] * len(groups)
        out = [(dst, mark, rules) for (dst, rules), mark in zip(groups, marks)]
    return [(dst, label, frozenset(r.name for r in rules)) for dst, label, rules in out]


def reference_explore(spec, max_states: int):
    """Breadth-first exploration written out from the semantics, as the
    oracle of ``engine.explore``: (states, transitions as (src, dst,
    label, rule names), dropped groups as (src, label, rule names)). It
    shares only ``find_occurrences``, ``check_constraints`` and
    ``apply_at`` with the engine and calls no ``canon`` function: its
    settle applies the first hit of the highest enabled instantaneous
    class until a normal class leads, a step applies every hit of the
    first enabled class, and states merge only by ``nx_iso``. A new state
    past max_states is dropped, with its group, as ``explore`` drops it."""
    import networkx as nx

    store = _IsoStore(nx)
    store.add(_reference_settle(spec.init, spec.classes))
    transitions, dropped = [], []
    for i, state in enumerate(store.states):          # the store grows as it is walked
        for dst, label, names in reference_successors(state, spec, nx):
            j = store.lookup(dst)
            if j is None and len(store.states) >= max(max_states, 1):
                dropped.append((i, label, names))
                continue
            transitions.append((i, store.add(dst) if j is None else j, label, names))
    return store.states, transitions, dropped


def reference_node_maps(a: Bigraph, b: Bigraph, order: Sequence[int], candidates):
    """The node-map search that tries every candidate at every position,
    kept as the oracle of ``bigraph._node_maps``: the two must yield the
    same maps in the same sequence.

    Each injective map of a's nodes, assigned in ``order``, onto
    ``candidates(i)`` in b that agrees on node-to-node parenthood and
    keeps a's shared links shared.

    The one node-map search of the engine (occurrences and isomorphism).
    A pair (i, j) is checked only against the already-mapped parents and
    children of i and of j, through the inverse map, and against i's
    mapped ``link_partners`` k: fwd[k] must share a link with j, which
    both callers need before their exact link checks. So in every map,
    node k is a parent of i exactly when fwd[k] is a parent of fwd[i]:
    the matcher's ``_finalize`` relies on this and does not check
    parenthood between image nodes again. The search keeps an
    explicit stack of candidate iterators, so its depth is not bounded by
    Python's recursion. The same dict is yielded each time: copy it to
    keep it.
    """
    a_kids, b_kids = a.children(), b.children()
    a_partners = a.link_partners()
    fwd: dict[int, int] = {}
    inv: dict[int, int] = {}

    def fits(i, j) -> bool:
        for p in a.node_parents[i]:
            if p[0] == "n" and p[1] in fwd and ("n", fwd[p[1]]) not in b.node_parents[j]:
                return False
        for c in a_kids[("n", i)]:
            if c[0] == "n" and c[1] in fwd and ("n", j) not in b.node_parents[fwd[c[1]]]:
                return False
        for p in b.node_parents[j]:
            if p[0] == "n" and p[1] in inv and ("n", inv[p[1]]) not in a.node_parents[i]:
                return False
        for c in b_kids[("n", j)]:
            if c[0] == "n" and c[1] in inv and ("n", i) not in a.node_parents[inv[c[1]]]:
                return False
        for k in a_partners.get(i, ()):
            if k in fwd and set(b.ports[fwd[k]]).isdisjoint(b.ports[j]):
                return False
        return True

    if not order:
        yield fwd
        return
    stack = [iter(candidates(order[0]))]
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if i in fwd:                      # back at this position: undo its choice
            del inv[fwd.pop(i)]
        for j in stack[-1]:
            if j not in inv and fits(i, j):
                fwd[i] = j
                inv[j] = i
                break
        else:
            stack.pop()
            continue
        if pos + 1 < len(order):
            stack.append(iter(candidates(order[pos + 1])))
        else:
            yield fwd


def reference_pieces(occ) -> tuple:
    """An occurrence's decomposition written from its maps, sharing no
    code with ``matching``'s laying: (context, parameters, exposed,
    to_close). An open target link keeps its name; a closed one that a
    pattern name lands on, or whose ports lie in more than one piece
    (context, image, a parameter part), gets a fresh name, w0, w1, ...
    not among the target's names (exposed, and in to_close); a closed
    link that a pattern edge takes carries none. The context has one
    hole per pattern region at its position; the parameters are one
    ground bigraph per pattern site, each part's tops under its one
    region. Each piece keeps target order among its nodes and numbers its
    own closed links in order of first use."""
    t, owner = occ.target, parts(occ)

    def piece_of(x):
        return "img" if x in occ.image else owner.get(x, "ctx")

    touches: dict = {}                         # target link -> pieces with a port on it
    for x, hs in enumerate(t.ports):
        for h in hs:
            touches.setdefault(h, set()).add(piece_of(x))
    taken = {tl: L[0] for L, tl in occ.link_map.items()}   # target link -> "o" or "e"
    fresh = (w for w in ("w%d" % k for k in count()) if w not in t.outer)
    exposed, to_close = {}, []
    for h in sorted(touches.keys() | {("o", x) for x in t.outer}):
        if h[0] == "o":
            exposed[h] = h[1]
        elif taken.get(h) == "o" or (h not in taken and len(touches[h]) > 1):
            exposed[h] = next(fresh)
            to_close.append(exposed[h])

    def piece(nodes, regions, holes, outer):
        at = {x: i for i, x in enumerate(nodes)}

        def parents(ps):
            if any(p[0] == "n" and p[1] not in at for p in ps):
                return frozenset({("r", 0)})   # a parameter top
            return frozenset(("n", at[p[1]]) if p[0] == "n" else p for p in ps)

        own: dict = {}
        ports = [tuple(("o", exposed[h]) if h in exposed else own.setdefault(h, ("e", len(own)))
                       for h in t.ports[x]) for x in nodes]
        names = {h[1] for hs in ports for h in hs if h[0] == "o"}.union(outer)
        return _mk(t.sig, regions, len(holes), [t.ctrl[x] for x in nodes],
                   [t.params[x] for x in nodes], [parents(t.node_parents[x]) for x in nodes],
                   [parents(ps) for ps in holes], ports, (), names, len(own))

    context = piece([x for x in range(t.n) if piece_of(x) == "ctx"], t.regions,
                    [occ.region_pos[r] for r in range(len(occ.region_pos))], t.outer)
    parameters = [piece([x for x in range(t.n) if owner.get(x) == k], 1, (), ())
                  for k in range(occ.pattern.sites)]
    return context, parameters, exposed, tuple(to_close)


def reference_guards(occ, constraints) -> list:
    """Whether each guard holds at occ, its pattern searched by
    ``matches_predicate`` in a laid piece: the context of
    ``reference_pieces`` with its holes dropped (ctx kinds), or its
    parameters merged under one region, ``one`` when there are none
    (param kinds). It shares no laying or search-restriction code with
    ``matching``."""
    context, parameters, _, _ = reference_pieces(occ)
    pieces = {"ctx": _mk(context.sig, context.regions, 0, context.ctrl, context.params,
                         context.node_parents, (), context.ports, (), context.outer,
                         context.edges),
              "param": merge(*parameters) if parameters else one(context.sig)}
    return [matches_predicate(pieces[c.kind.split("_")[1]], c.pattern)
            == c.kind.startswith("present") for c in constraints]


def reference_recompose(occ, pattern: Bigraph, entries) -> Bigraph:
    """The rewrite by the algebra, from the occurrence's pieces
    (``reference_pieces``): rename pattern's names to the exposed ones,
    nest the parameters that entries name into its sites, nest that into the
    context, then close the fresh names that are still used, numbering
    the closed edges in that order and dropping the idle ones.
    ``matching.recompose`` must equal it field by field. The splice numbers
    each link across pieces once, from its counts; this route keeps the
    fresh names and the closing on purpose, as an oracle that shares
    neither that numbering nor any laying code with it."""
    context, parameters, exposed, to_close = reference_pieces(occ)
    renaming = {lh[1]: exposed[th] for lh, th in occ.link_map.items() if lh[0] == "o"}
    filler = reduce(parallel, [parameters[j] for j in entries], idle(pattern.sig, ()))
    whole = nest(context, nest(rename_outer(pattern, renaming), filler))
    used = {h for hs in whole.ports for h in hs}.union(h for _, h in whole.inner)
    live = [("o", w) for w in to_close if ("o", w) in used]
    edges = {h: ("e", whole.edges + k) for k, h in enumerate(live)}
    ports = [tuple(edges.get(h, h) for h in hs) for hs in whole.ports]
    inner = [(x, edges.get(h, h)) for x, h in whole.inner]
    return _mk(whole.sig, whole.regions, whole.sites, whole.ctrl, whole.params,
               whole.node_parents, whole.site_parents, ports, inner,
               whole.outer.difference(to_close), whole.edges + len(edges))


def reference_product(a: Bigraph, b: Bigraph, flat: bool) -> Bigraph:
    """The binary merge (flat: every region becomes region 0) or parallel
    product written out directly, the oracle of bigraph's n-ary builders:
    b's nodes, edges, sites and regions are numbered after a's."""
    if a.sig is not b.sig:
        raise SignatureError("operands built over different signatures")

    def place(p, nodes, regions):
        if p[0] == "n":
            return ("n", p[1] + nodes)
        return ("r", 0) if flat else ("r", p[1] + regions)

    def handle(h, edges):
        return ("e", h[1] + edges) if h[0] == "e" else h

    parts = ((a, 0, 0, 0), (b, a.n, a.regions, a.edges))
    nps = [frozenset(place(p, no, ro) for p in ps)
           for x, no, ro, _ in parts for ps in x.node_parents]
    sps = [frozenset(place(p, no, ro) for p in ps)
           for x, no, ro, _ in parts for ps in x.site_parents]
    ports = [tuple(handle(h, eo) for h in hs) for x, _, _, eo in parts for hs in x.ports]
    inner = [(name, handle(h, eo)) for x, _, _, eo in parts for name, h in x.inner]
    if len({name for name, _ in inner}) != len(inner):
        raise SignatureError("duplicate inner name in product")
    return _mk(a.sig, 1 if flat else a.regions + b.regions, a.sites + b.sites,
               a.ctrl + b.ctrl, a.params + b.params, nps, sps, ports, inner,
               a.outer | b.outer, a.edges + b.edges)


def reference_nest(a: Bigraph, b: Bigraph) -> Bigraph:
    """The binary nest a.b written out directly, the oracle of bigraph's
    n-ary nest: b's region k goes under the parents of a's site k, b's
    nodes and edges are numbered after a's, and the result has b's sites
    and inner names."""
    if a.sig is not b.sig:
        raise SignatureError("operands built over different signatures")
    if a.inner:
        raise WidthMismatch("cannot nest below a bigraph with inner names")
    if a.sites != b.regions:
        if a.sites == 0 and a.n == 1 and a.control(0).atomic and b.regions >= 1:
            raise AtomicViolation("atomic control %s admits no children" % a.ctrl[0])
        raise WidthMismatch("nesting needs %d region(s) to fill %d site(s)"
                            % (a.sites, b.regions))

    def lift(ps):
        return frozenset().union(*(a.site_parents[p[1]] if p[0] == "r"
                                   else {("n", p[1] + a.n)} for p in ps))

    def handle(h):
        return ("e", h[1] + a.edges) if h[0] == "e" else h

    return _mk(a.sig, a.regions, b.sites, a.ctrl + b.ctrl, a.params + b.params,
               a.node_parents + tuple(lift(ps) for ps in b.node_parents),
               [lift(ps) for ps in b.site_parents],
               a.ports + tuple(tuple(handle(h) for h in hs) for hs in b.ports),
               [(x, handle(h)) for x, h in b.inner], a.outer | b.outer, a.edges + b.edges)


def rename_outer(b: Bigraph, mapping: dict) -> Bigraph:
    """Rename outer names; mapping two names to one fuses their links."""
    repl = lambda h: ("o", mapping.get(h[1], h[1])) if h[0] == "o" else h
    ports = tuple(tuple(repl(h) for h in hs) for hs in b.ports)
    inner = tuple((x, repl(h)) for x, h in b.inner)
    outer = frozenset(mapping.get(x, x) for x in b.outer)
    return _mk(b.sig, b.regions, b.sites, b.ctrl, b.params, b.node_parents,
               b.site_parents, ports, inner, outer, b.edges)


def well_formed(b: Bigraph) -> bool:
    """Structural sanity: arities, parents, an acyclic place graph and
    links on known handles."""
    for i in range(b.n):
        if len(b.ports[i]) != b.control(i).arity:
            return False
        if not b.node_parents[i]:
            return False
        for p in b.node_parents[i]:
            if p[0] == "n":
                if not (0 <= p[1] < b.n) or b.control(p[1]).atomic:
                    return False
            elif not (0 <= p[1] < b.regions):
                return False
    for ps in b.site_parents:
        if not ps:
            return False
        for p in ps:
            if p[0] == "n" and b.control(p[1]).atomic:
                return False
    # acyclic place structure
    seen: dict = {}

    def visit(i, stack):
        if i in stack:
            return False
        if i in seen:
            return True
        stack.add(i)
        for p in b.node_parents[i]:
            if p[0] == "n" and not visit(p[1], stack):
                return False
        stack.discard(i)
        seen[i] = True
        return True

    for i in range(b.n):
        if not visit(i, set()):
            return False
    # every port/inner on a known handle, closed edges non-empty
    points = b.link_points()
    for h, pts in points.items():
        if h[0] == "e" and not pts:
            return False
        if h[0] == "o" and h[1] not in b.outer:
            return False
    return True


def all_applications(state: Bigraph, rule: ReactionRule):
    """Every constraint-passing occurrence with its rewrite result."""
    out = []
    for occ in find_occurrences(state, rule.lhs):
        if check_constraints(occ, rule.constraints):
            out.append((occ, apply_at(state, rule, occ)))
    return out


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
