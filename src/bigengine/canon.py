"""Isomorphism-aware equality and canonical state keys.

Two routes are kept deliberately separate: ``canonical_key`` is a
colour-refinement hash over the combined place and link structure
(equal on isomorphic bigraphs, collisions possible), while ``iso_equal``
is exact. It runs ``bigraph._node_maps``, the node-map search the
matcher uses too, with candidates drawn from each node's colour class,
and accepts the first full map that passes one exact check of controls,
parameters, open names, parents and closed edges, so a colour collision
cannot make it wrong. ``StateStore.insert`` is the one place that merges
states: it buckets them by key and confirms a bucket hit with the exact
check.

Refinement stops at the stable partition: the first round that splits
no colour class. Bigraphs are immutable, so each one's refined colours
and key are computed once and cached on it (``Bigraph._cache``); a
state's key and every ``iso_equal`` it takes part in share one
refinement.

Regions, sites, outer and inner names are fixed points of any
isomorphism (compared by index / by name); only nodes, closed edges and
port pairings may be permuted.
"""

from __future__ import annotations

import hashlib

from .bigraph import Bigraph, _node_maps, require_ground


def _h(*parts) -> bytes:
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).digest()


def _refine(b: Bigraph) -> tuple[list[bytes], list[bytes]]:
    """Colours of the stable partition of nodes and edges, seeded by
    structure-invariant data; computed once per bigraph and cached.

    A round recolours each node and edge from its own colour and its
    neighbours' colours, so it can only split classes. Refinement stops
    at the first round after which the number of node plus edge classes
    has not grown: that partition is stable. The round count depends only
    on the isomorphism class, so isomorphic bigraphs get equal colours.
    """
    got = b._cache.get("colours")
    if got is not None:
        return got
    ncol = [_h("n", b.ctrl[i], b.params[i]) for i in range(b.n)]
    ecol = [_h("e",) for _ in range(b.edges)]
    kids = b.children()
    points = b.link_points()

    def place_colour(p):
        if p[0] == "n":
            return ncol[p[1]]
        return _h(p)                      # regions/sites fixed by index

    def handle_colour(h):
        if h[0] == "e":
            return ecol[h[1]]
        return _h(h)                      # outer names fixed by identity

    classes = len(set(ncol)) + len(set(ecol))
    while True:
        sig_n = []
        for i in range(b.n):
            parents = sorted(place_colour(p) for p in b.node_parents[i])
            children = sorted(place_colour(c) for c in kids[("n", i)])
            links = sorted(handle_colour(h) for h in b.ports[i])
            sig_n.append(_h(ncol[i], parents, children, links))
        sig_e = []
        for k in range(b.edges):
            inc = sorted(
                ncol[pt[1]] if pt[0] == "p" else _h("i", pt[1])
                for pt in points[("e", k)])
            sig_e.append(_h(ecol[k], inc))
        ncol, ecol = sig_n, sig_e
        refined = len(set(ncol)) + len(set(ecol))
        if refined <= classes:
            break
        classes = refined
    b._cache["colours"] = (ncol, ecol)
    return ncol, ecol


def canonical_key(b: Bigraph) -> bytes:
    """Hash equal on isomorphic ground bigraphs; collisions need iso_equal.

    Built from the stable colours of ``_refine`` and cached on ``b``.
    """
    got = b._cache.get("key")
    if got is not None:
        return got
    require_ground(b)
    ncol, ecol = _refine(b)
    kids = b.children()
    points = b.link_points()

    def place_colour(p):
        return ncol[p[1]] if p[0] == "n" else _h(p)

    per_region = [sorted(place_colour(c) for c in kids[("r", k)])
                  for k in range(b.regions)]
    per_name = [(x, sorted(ncol[pt[1]] for pt in points[("o", x)] if pt[0] == "p"))
                for x in sorted(b.outer)]
    got = _h("key", b.regions, sorted(ncol), sorted(ecol), per_region, per_name)
    b._cache["key"] = got
    return got


def iso_equal(a: Bigraph, b: Bigraph) -> bool:
    """Exact structure-preserving bijection on nodes and edges.

    Controls, parameters, place parentship, link membership, region and
    site indices, and outer/inner name identities must all be respected;
    ports are unordered, closed edge identities are not compared.
    """
    if (a.regions, a.sites, a.n, a.edges) != (b.regions, b.sites, b.n, b.edges):
        return False
    if a.outer != b.outer:
        return False
    if {x for x, _ in a.inner} != {x for x, _ in b.inner}:
        return False
    acol, _ = _refine(a)
    bcol, _ = _refine(b)
    if sorted(acol) != sorted(bcol):
        return False
    # inner names wired to outer names must agree exactly
    a_inner = dict(a.inner)
    b_inner = dict(b.inner)
    for x, h in a_inner.items():
        hb = b_inner[x]
        if (h[0] == "o") != (hb[0] == "o"):
            return False
        if h[0] == "o" and h != hb:
            return False

    by_colour: dict[bytes, list[int]] = {}
    for j in range(b.n):
        by_colour.setdefault(bcol[j], []).append(j)

    def open_counts(big, i):
        return {h: c for h, c in big.node_handle_counts(i).items() if h[0] == "o"}

    def mapped(fwd, ps):
        return frozenset(("n", fwd[p[1]]) if p[0] == "n" else p for p in ps)

    def edge_signatures(big, trans):
        points = big.link_points()
        return sorted(
            tuple(sorted(("p", trans(pt[1])) if pt[0] == "p" else ("i", pt[1])
                         for pt in points[("e", k)]))
            for k in range(big.edges))

    b_edges = edge_signatures(b, lambda j: j)

    def complete(fwd) -> bool:
        """The exact check of a full node map; colours only pick candidates."""
        for i, j in fwd.items():
            if (a.ctrl[i], a.params[i]) != (b.ctrl[j], b.params[j]):
                return False
            if open_counts(a, i) != open_counts(b, j):
                return False
            if mapped(fwd, a.node_parents[i]) != b.node_parents[j]:
                return False
        for k in range(a.sites):
            if mapped(fwd, a.site_parents[k]) != b.site_parents[k]:
                return False
        return edge_signatures(a, fwd.__getitem__) == b_edges

    # most constrained colour classes first; candidates share i's colour
    order = sorted(range(a.n), key=lambda i: (len(by_colour.get(acol[i], ())), i))
    return any(complete(fwd) for fwd in
               _node_maps(a, b, order, lambda i: by_colour.get(acol[i], ())))


class StateStore:
    """Insert-if-absent store of ground states: a state is new unless it
    is iso_equal to a stored state with the same canonical_key. Indices
    are assigned densely in insertion order; at most max_states states
    are stored (None: no bound)."""

    def __init__(self, max_states: int | None = None):
        self.states: list[Bigraph] = []
        self.max_states = max_states
        self._buckets: dict[bytes, list[int]] = {}

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
