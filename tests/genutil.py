"""Shared test helpers: seeded random bigraph generators, random
renumbering (``permuted``) and port swaps (``swapped``), a brute-force occurrence enumerator used as
the matcher oracle, two isomorphism oracles (``brute_iso`` and, over
``networkx``, ``nx_iso``), the rewrite by the algebra
(``reference_recompose``) used as the oracle of the one-pass
``matching.recompose``, a structural sanity check (``well_formed``),
every application of a rule (``all_applications``) and a parser of
``.tra`` files (``read_tra``).

The matcher oracle enumerates every injective node map and every
anchored link assignment and checks the embedding conditions written out
directly; it shares no code with the search in bigengine.matching.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import product

from bigengine.bigraph import Bigraph, Signature, _mk, close, idle, nest, parallel
from bigengine.matching import check_constraints, find_occurrences
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


def reference_recompose(occ, pattern: Bigraph, fillers=None) -> Bigraph:
    """The rewrite by the algebra, from an occurrence's context,
    parameter and wiring: rename pattern's names to the exposed ones,
    nest the fillers (default: the matched parameter) into its sites,
    nest that into the context, then close the names in ``to_close``
    that are still used, numbering the closed edges in that order and
    dropping the idle ones. ``matching.recompose`` must equal it field by
    field."""
    renaming = {lh[1]: occ.exposed[th] for lh, th in occ.link_map.items() if lh[0] == "o"}
    fillers = occ.parameter if fillers is None else fillers
    filler = reduce(parallel, fillers, idle(pattern.sig, ()))
    whole = nest(occ.context, nest(rename_outer(pattern, renaming), filler))
    used = {h for hs in whole.ports for h in hs}.union(h for _, h in whole.inner)
    live = [("o", w) for w in occ.to_close if ("o", w) in used]
    edges = {h: ("e", whole.edges + k) for k, h in enumerate(live)}
    ports = [tuple(edges.get(h, h) for h in hs) for hs in whole.ports]
    inner = [(x, edges.get(h, h)) for x, h in whole.inner]
    return _mk(whole.sig, whole.regions, whole.sites, whole.ctrl, whole.params,
               whole.node_parents, whole.site_parents, ports, inner,
               whole.outer.difference(occ.to_close), whole.edges + len(edges))


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
