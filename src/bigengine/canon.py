"""State identity: certificates, exact isomorphism and orbits of
occurrences.

Twins, childless nodes with equal label, parents and port multiset, are
interchangeable: swapping two is an automorphism that fixes every edge.
``certificate`` walks a bigraph once into its twin quotient, the one
place that finds its twins, refines colours of its twin classes and
closed edges, and renumbers the quotient in colour order, one row per
twin class: a hashable tuple equal on isomorphic bigraphs, and the one
identity of a state. It is exact when each colour is one twin class:
equal exact certificates then mean isomorphic bigraphs, with no search.
Only state identity reads that flag, its first field:
``StateStore.lookup`` confirms a hit by ``iso_equal`` only when the
certificate is not exact, and ``iso_equal`` accepts the first node map
(``bigraph._node_maps``, within colour classes) that passes one exact
check (``_full_map_ok``), so a colour collision cannot make it wrong.
``orbit_key`` keys an occurrence by twin classes and closed edges' port
classes: equal keys mean one orbit on any ground state.

Colours are ints. A twin class is seeded from stable, memoised digests
of its label and fixed neighbours, then from its node parents' seeds; a
closed edge from its inner names, then its ports' seeds. Each round
recolours with the built-in ``hash`` of a tuple of ints, so colours are
the same in every process whatever ``PYTHONHASHSEED`` is. Only lists of
two or more items are sorted. Each bigraph's certificate and twin data
are computed once and cached on it, until ``Bigraph.shed`` drops them.

Regions, sites, outer and inner names are fixed points of any
isomorphism (compared by index / by name); only nodes, closed edges and
port pairings may be permuted.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .bigraph import Bigraph, _node_maps, labels, require_ground


@lru_cache(maxsize=1 << 16)
def _digest(key) -> int:
    """Stable 64-bit digest of a tagged label: ``("n", labels(b)[i])``
    for a node label, ``("o", x)`` for an outer name, ``("r", k)`` /
    ``("s", k)`` for a region / site. The tags keep a name from colliding
    with a control."""
    return int.from_bytes(hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "big")


def _sorted(xs):
    """xs sorted, or xs itself when it has fewer than two items."""
    return sorted(xs) if len(xs) > 1 else xs


def certificate(b: Bigraph) -> tuple:
    """b renumbered in colour order, led by a flag that says whether it is
    exact: a hashable tuple, equal on isomorphic bigraphs, ground or not.
    Equal exact certificates mean isomorphic bigraphs. Cached on b, with
    the walk's twin data that ``orbit_key`` and ``iso_equal`` read: each
    node's twin class, each class's and each edge's last colour, and each
    closed edge's port classes, one per port.

    One walk over the parent sets, ports and inner names builds the twin
    quotient: the twin classes, each with its seed (its label and the
    summed digests of its region parents, site children and open names),
    neighbour list (node parents, edges and node children, every twin
    listed, as indices into the last round's class, edge and child-salted
    class colours), parents (a class, or ~k for region k) and open names;
    and each closed edge's port classes. A class's seed then reads its
    node parents' seeds, and an edge's seed is its inner names and its
    ports' seeds: round 1 reads as much, so a round is saved and the
    partition unchanged. A round recolours each class from its colour and
    its neighbours', then each edge from its colour and its ports'
    classes' new colours, so it only splits classes. It stops once each
    colour is one twin class and each closed edge has its own colour, or
    after a round that split no class: that partition is stable, the one
    that recolouring edges from the last round's colours reaches too, and
    the round count depends only on the isomorphism class.

    Then each colour takes the next block of positions, and each twin
    class is one row: its colour's position, size, label (``labels``),
    parents (a class as its colour's position) and open names, in colour
    order (sorted when colours tie). A closed edge is the sorted positions
    of its ports, and ~r for each inner name b.inner[r] on it. Then come
    the sites' parents and the inner names, those wired to an outer name
    paired with it. Only lists of two or more items are sorted. It is
    exact when each colour is one twin class: each parent (it has
    children, so it is no twin) then has a position of its own, and the
    tuple describes b up to swapping twins."""
    return b._cache.get("certificate") or _walk(b)[0]


def _walk(b: Bigraph) -> tuple:
    """``certificate``'s walk: caches b's certificate and twin data, and
    returns both."""
    label, ne = labels(b), b.edges
    kids: dict = {}                              # node -> its children, node j / site k as ~k
    for site, pss in ((False, b.node_parents), (True, b.site_parents)):
        for i, ps in enumerate(pss):
            for p in ps:
                if p[0] == "n":
                    kids.setdefault(p[1], []).append(~i if site else i)
    twins: dict = {}                             # twin key -> twin class
    cls = [twins.setdefault(i if i in kids else (label[i], ps, tuple(_sorted(hs))), len(twins))
           for i, (ps, hs) in enumerate(zip(b.node_parents, b.ports))]
    nc = len(twins)
    size = [0] * nc                              # twin class -> its node count
    around, ccol, rows = [], [], []              # per twin class, from its first node
    ends: list[list[int]] = [[] for _ in range(ne)]   # edge -> a class per port
    for i, c in enumerate(cls):
        size[c] += 1
        hs = b.ports[i]
        for h in hs:
            if h[0] == "e":
                ends[h[1]].append(c)
        if c < len(rows):                        # a twin of an earlier node
            continue
        near, fixed, ups, names = [], 0, [], []     # fixed: its fixed neighbours' digests summed
        for p in b.node_parents[i]:
            if p[0] == "n":
                near.append(cls[p[1]])
            else:
                fixed += _digest(p)
                ups.append(~p[1])
        ups += near                              # parents: a class, region k as ~k
        for h in hs:
            if h[0] == "e":
                near.append(nc + h[1])
            else:
                fixed += _digest(h)
                names.append(h[1])
        for x in kids.get(i, ()):
            if x >= 0:
                near.append(nc + ne + cls[x])
            else:
                fixed += _digest(("s", ~x))
        around.append(near)
        ccol.append(hash((_digest(("n", label[i])), fixed)))
        rows.append((label[i], ups, tuple(_sorted(names))))
    pins = [[r for r, (_, h) in enumerate(b.inner) if h == ("e", k)]
            for k in range(ne)]                  # edge -> its inner names' indices
    ccol = [s if not ups or ups[-1] < 0 else hash((s, ccol[ups[0]]) if len(ups) == 1 else
                                                  (s, *_sorted([ccol[u] for u in ups if u >= 0])))
            for s, (_, ups, _) in zip(ccol, rows)]      # and its node parents' (ups: ~k first)
    ecol = [hash((tuple(rs), *_sorted([ccol[c] for c in cs]))) for rs, cs in zip(pins, ends)]

    counts, last = (len(set(ccol)), len(set(ecol))), -1
    sort = [sorted if len(ns) > 1 else iter for ns in around + ends]  # no sort of 0 or 1 item
    while counts != (nc, ne) and sum(counts) > last:    # not discrete, and still growing
        col = (ccol + ecol + [~c for c in ccol]).__getitem__
        ccol = [hash((c, *f(map(col, ns)))) for c, ns, f in zip(ccol, around, sort)]
        col = ccol.__getitem__
        ecol = [hash((c, *f(map(col, ns)))) for c, ns, f in zip(ecol, ends, sort[nc:])]
        last, counts = sum(counts), (len(set(ccol)), len(set(ecol)))
    data = b._cache["twins"] = (cls, ccol, ecol, ends)

    order = sorted(range(nc), key=ccol.__getitem__)     # twin classes in colour order
    start, pos, at = {}, [0] * nc, 0             # colour -> its first position
    for c in order:
        pos[c] = start.setdefault(ccol[c], at)   # twin class -> its colour's position
        at += size[c]
    rows = [(pos[c], size[c], lab, (pos[ups[0]] if ups[0] >= 0 else ups[0],) if len(ups) == 1
             else tuple(_sorted([pos[u] if u >= 0 else u for u in ups])), names)
            for c in order for lab, ups, names in [rows[c]]]     # in order when exact
    got = b._cache["certificate"] = (
        counts[0] == nc, b.regions, tuple(_sorted(b.outer)),
        tuple(rows if counts[0] == nc else sorted(rows)),
        tuple(_sorted([tuple(_sorted([pos[c] for c in cs] + [~r for r in rs]))
                       for cs, rs in zip(ends, pins)])),
        tuple([tuple(_sorted([pos[cls[x[1]]] if x[0] == "n" else ~x[1] for x in ps]))
               for ps in b.site_parents]),
        tuple([(x, h[1]) if h[0] == "o" else x for x, h in b.inner]))
    return got, data


def _edge_signature(big: Bigraph, k: int, trans=lambda j: j) -> tuple:
    """Closed edge k's points, nodes renamed by trans, as a sorted tuple."""
    return tuple(sorted(("p", trans(pt[1])) if pt[0] == "p" else ("i", pt[1])
                        for pt in big.link_points()[("e", k)]))


def _full_map_ok(a: Bigraph, b: Bigraph, fwd: dict, b_edges: list) -> bool:
    """The exact check of a full node map: controls, parameters, open
    names and parents of every node and site agree, and closed edges
    correspond (b_edges: b's own edge signatures)."""
    def mapped(ps):
        return frozenset(("n", fwd[p[1]]) if p[0] == "n" else p for p in ps)

    def label(big, i):
        return labels(big)[i], sorted(h for h in big.ports[i] if h[0] == "o")

    if any(label(a, i) != label(b, j) or mapped(a.node_parents[i]) != b.node_parents[j]
           for i, j in fwd.items()):
        return False
    if any(mapped(a.site_parents[k]) != b.site_parents[k] for k in range(a.sites)):
        return False
    return sorted(_edge_signature(a, k, fwd.__getitem__) for k in range(a.edges)) == b_edges


def iso_equal(a: Bigraph, b: Bigraph) -> bool:
    """Exact structure-preserving bijection on nodes and edges.

    Controls, parameters, place parentship, link membership, region and
    site indices, and outer/inner name identities must all be respected;
    ports are unordered, closed edge identities are not compared. Equal
    certificates are needed, and enough when they are exact. Otherwise
    node maps a -> b are searched for, each node's candidates sharing
    its colour and the most constrained colour classes first, and the
    first one that passes ``_full_map_ok`` is accepted.
    """
    cert = certificate(a)
    if cert != certificate(b):
        return False
    if cert[0]:                           # the certificates are exact
        return True
    (acls, acol, *_), (bcls, bcol, *_) = a._cache["twins"], b._cache["twins"]
    by_colour: dict = {}
    for j, c in enumerate(bcls):
        by_colour.setdefault(bcol[c], []).append(j)

    def candidates(i):
        return by_colour.get(acol[acls[i]], ())

    order = sorted(range(a.n), key=lambda i: (len(candidates(i)), i))
    b_edges = sorted(_edge_signature(b, k) for k in range(b.edges))
    return any(_full_map_ok(a, b, fwd, b_edges) for fwd in _node_maps(a, b, order, candidates))


def orbit_key(state: Bigraph, occ) -> tuple:
    """A hashable key of occ's orbit under ground state's automorphisms:
    per pattern node its image's twin class, per pattern link its image
    (an open name, or a closed edge's sorted port classes) and the first
    pattern link with that image. Swapping twins, or closed edges with
    equal port classes (twins carry the same links), is an automorphism,
    so equal keys mean one orbit (which may have more). The classes are
    the walk's (``_walk``): the key reads no colour and no certificate."""
    cls, _, _, ends = state._cache.get("twins") or _walk(state)[1]
    links = [t for _, t in sorted(occ.link_map.items())]
    first: dict = {}
    return (tuple([cls[t] for _, t in sorted(occ.node_map.items())]),
            tuple([tuple(_sorted(ends[t[1]])) if t[0] == "e" else t for t in links]),
            tuple([first.setdefault(t, k) for k, t in enumerate(links)]))


class StateStore:
    """Insert-if-absent store of ground states: a state is new unless a
    stored state has its certificate and, when that is not exact, is
    iso_equal to it. Indices are assigned densely in insertion order; at
    most max_states states are stored (None: no bound)."""

    def __init__(self, max_states: int | None = None):
        self.states: list[Bigraph] = []
        self.max_states = max_states
        self._certificates: dict[tuple, list[int]] = {}

    def __len__(self) -> int:
        return len(self.states)

    def lookup(self, b: Bigraph) -> int | None:
        """The index of the stored state isomorphic to b, or None: the
        store's one identity check. A shed stored state stays shed."""
        require_ground(b)
        cert = certificate(b)
        for idx in self._certificates.get(cert, ()):
            stored = self.states[idx]
            bare, same = not stored._cache, cert[0] or iso_equal(stored, b)
            if bare:
                stored.shed()                    # drop what iso_equal rebuilt
            if same:
                return idx
        return None

    def insert(self, b: Bigraph) -> tuple[int | None, bool]:
        """Return (index, added); (None, False) for a new state when the
        store is full."""
        idx = self.lookup(b)
        if idx is not None:
            return idx, False
        if self.max_states is not None and len(self.states) >= self.max_states:
            return None, False
        idx = len(self.states)
        self.states.append(b)
        self._certificates.setdefault(certificate(b), []).append(idx)
        return idx, True
