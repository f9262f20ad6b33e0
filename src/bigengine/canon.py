"""Isomorphism-aware equality, canonical state keys and orbits of occurrences.

``canonical_key`` is a colour-refinement hash over the combined place
and link structure (equal on isomorphic bigraphs, collisions possible);
``iso_equal`` is exact. It runs ``bigraph._node_maps``, the node-map
search the matcher uses too, with candidates drawn from each node's
colour class, and accepts the first full map that passes one exact check
(``_full_map_ok``), so a colour collision cannot make it wrong.
``StateStore.insert`` is the one place that merges states: it buckets
them by key and confirms a bucket hit with the exact check.
``same_orbit`` runs the same search and check on (state, state), with
one occurrence's image nodes pinned to another's, and asks that the map
carry each pattern link's image onto the other's too: an automorphism
of the state that maps one occurrence onto the other.

Colours are ints: a node is seeded from a stable, memoised digest of its
label and of its fixed neighbours, and each round recolours with the
built-in ``hash`` of a tuple of ints. No ``str`` is ever hashed, so
colours and keys are the same in every process whatever
``PYTHONHASHSEED`` is. Refinement stops at the stable partition: the
first round that splits no colour class. Bigraphs are immutable, so each
one's colours, colour classes and key are computed once and cached on it
(``Bigraph._cache``).

Regions, sites, outer and inner names are fixed points of any
isomorphism (compared by index / by name); only nodes, closed edges and
port pairings may be permuted.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .bigraph import Bigraph, _node_maps, require_ground


@lru_cache(maxsize=1 << 16)
def _digest(key) -> int:
    """Stable 64-bit digest of a tagged label: ``("n", ctrl, params)`` for
    a node label, ``("o", x)`` / ``("i", x)`` for an outer / inner name,
    ``("r", k)`` / ``("s", k)`` for a region / site. The tags keep a name
    from colliding with a control."""
    return int.from_bytes(hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "big")


def _refine(b: Bigraph) -> tuple[list[int], list[int]]:
    """Colours of the stable partition of nodes and edges, seeded by
    structure-invariant data; computed once per bigraph and cached.

    A node's seed covers its label, region parents, site children and
    open names; an edge's, its inner names. A round recolours each node
    from its own colour and the sorted colours of its node parents, node
    children and edges, and each edge from its own and its ports' nodes',
    so it can only split classes. Refinement stops at the first round
    after which the number of node plus edge classes has not grown: that
    partition is stable. The round count depends only on the isomorphism
    class, so isomorphic bigraphs get equal colours.
    """
    got = b._cache.get("colours")
    if got is not None:
        return got
    kids = b.children()
    nodes, ncol = [], []
    for i in range(b.n):
        around = (b.node_parents[i], kids[("n", i)], b.ports[i])
        nodes.append(tuple([x[1] for x in xs if x[0] in "ne"] for xs in around))
        fixed = sorted(_digest(x) for xs in around for x in xs if x[0] in "rso")
        ncol.append(hash((_digest(("n", b.ctrl[i], b.params[i])), *fixed)))
    points = [b.link_points()[("e", k)] for k in range(b.edges)]
    ends = [[pt[1] for pt in pts if pt[0] == "p"] for pts in points]
    ecol = [hash(tuple(sorted(_digest(pt) for pt in pts if pt[0] == "i"))) for pts in points]

    classes = len(set(ncol)) + len(set(ecol))
    while True:
        col = ncol.__getitem__
        sig_n = [hash((c, tuple(sorted(map(col, ps))), tuple(sorted(map(col, cs))),
                       tuple(sorted(map(ecol.__getitem__, es)))))
                 for c, (ps, cs, es) in zip(ncol, nodes)]
        sig_e = [hash((c, *sorted(map(col, ns)))) for c, ns in zip(ecol, ends)]
        ncol, ecol = sig_n, sig_e
        refined = len(set(ncol)) + len(set(ecol))
        if refined <= classes:
            break
        classes = refined
    b._cache["colours"] = (ncol, ecol)
    return ncol, ecol


def _classes(b: Bigraph) -> dict:
    """Node colour -> the nodes of that colour in index order; cached on
    ``b`` with its colours."""
    got = b._cache.get("classes")
    if got is None:
        got = b._cache["classes"] = {}
        for i, c in enumerate(_refine(b)[0]):
            got.setdefault(c, []).append(i)
    return got


def canonical_key(b: Bigraph) -> int:
    """An int, equal on isomorphic ground bigraphs and the same in every
    process; collisions need iso_equal.

    Built from the stable colours of ``_refine`` (which already carry
    each node's region and open names), the region count and the outer
    names, and cached on ``b``.
    """
    got = b._cache.get("key")
    if got is not None:
        return got
    require_ground(b)
    ncol, ecol = _refine(b)
    got = b._cache["key"] = hash((b.regions, tuple(sorted(ncol)), tuple(sorted(ecol)),
                                  tuple(sorted(_digest(("o", x)) for x in b.outer))))
    return got


def _edge_signature(big: Bigraph, k: int, trans) -> tuple:
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
        return big.ctrl[i], big.params[i], sorted(h for h in big.ports[i] if h[0] == "o")

    if any(label(a, i) != label(b, j) or mapped(a.node_parents[i]) != b.node_parents[j]
           for i, j in fwd.items()):
        return False
    if any(mapped(a.site_parents[k]) != b.site_parents[k] for k in range(a.sites)):
        return False
    return sorted(_edge_signature(a, k, fwd.__getitem__) for k in range(a.edges)) == b_edges


def _full_maps(a: Bigraph, b: Bigraph, pins: dict):
    """Every node map a -> b that sends each pinned node i to pins[i] and
    passes ``_full_map_ok``; the one search of iso_equal and same_orbit.
    Candidates share i's colour; pinned nodes go first, then the most
    constrained colour classes."""
    acol, bcol = _refine(a)[0], _refine(b)[0]
    by_colour = _classes(b)

    def candidates(i):
        j = pins.get(i)
        if j is None:
            return by_colour.get(acol[i], ())
        return (j,) if bcol[j] == acol[i] else ()

    order = sorted(range(a.n), key=lambda i: (i not in pins,
                                               len(by_colour.get(acol[i], ())), i))
    b_edges = sorted(_edge_signature(b, k, lambda j: j) for k in range(b.edges))
    return (fwd for fwd in _node_maps(a, b, order, candidates)
            if _full_map_ok(a, b, fwd, b_edges))


def iso_equal(a: Bigraph, b: Bigraph) -> bool:
    """Exact structure-preserving bijection on nodes and edges.

    Controls, parameters, place parentship, link membership, region and
    site indices, and outer/inner name identities must all be respected;
    ports are unordered, closed edge identities are not compared.
    """
    if (a.regions, a.sites, a.n, a.edges) != (b.regions, b.sites, b.n, b.edges):
        return False
    if a.outer != b.outer or {x for x, _ in a.inner} != {x for x, _ in b.inner}:
        return False
    # inner names wired to outer names must agree exactly
    if {xh for xh in a.inner if xh[1][0] == "o"} != {xh for xh in b.inner if xh[1][0] == "o"}:
        return False
    if sorted(_refine(a)[0]) != sorted(_refine(b)[0]):
        return False
    return any(True for _ in _full_maps(a, b, {}))


def same_orbit(state: Bigraph, h1, h2) -> bool:
    """True when an automorphism of state maps occurrence h1 onto h2 (two
    occurrences of one pattern): h1's image of each pattern node onto
    h2's, and h1's image of each pattern link onto h2's (open names
    fixed, closed edges carried by the node map). Only occurrences whose
    images have equal colours, node by node and link by link, are
    searched."""
    ncol, ecol = _refine(state)

    def colour_image(h):
        return ([ncol[t] for _, t in sorted(h.node_map.items())],
                [ecol[t[1]] if t[0] == "e" else t for _, t in sorted(h.link_map.items())])

    if colour_image(h1) != colour_image(h2):    # also keeps outer names fixed
        return False
    pairs = {(t1, h2.link_map[h]) for h, t1 in h1.link_map.items()}
    if not len(pairs) == len(dict(pairs)) == len({t2 for _, t2 in pairs}):
        return False                      # one joins links the other keeps apart
    edges = [(t1[1], _edge_signature(state, t2[1], lambda j: j))
             for t1, t2 in pairs if t1[0] == "e"]
    pins = {t1: h2.node_map[u] for u, t1 in h1.node_map.items()}
    # edges with equal signatures are interchangeable, so a map carrying
    # each edge's signature onto its partner's extends to one carrying
    # the edges themselves
    return any(all(_edge_signature(state, k, fwd.__getitem__) == want
                   for k, want in edges)
               for fwd in _full_maps(state, state, pins))


class StateStore:
    """Insert-if-absent store of ground states: a state is new unless it
    is iso_equal to a stored state with the same canonical_key. Indices
    are assigned densely in insertion order; at most max_states states
    are stored (None: no bound)."""

    def __init__(self, max_states: int | None = None):
        self.states: list[Bigraph] = []
        self.max_states = max_states
        self._buckets: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.states)

    def insert(self, b: Bigraph) -> tuple[int | None, bool]:
        """Return (index, added); (None, False) for a new state when the
        store is full."""
        key = canonical_key(b)
        for idx in self._buckets.get(key, ()):
            if iso_equal(self.states[idx], b):
                return idx, False
        if self.max_states is not None and len(self.states) >= self.max_states:
            return None, False
        idx = len(self.states)
        self.states.append(b)
        self._buckets.setdefault(key, []).append(idx)
        return idx, True
