"""Isomorphism-aware equality and canonical state keys.

Two routes are kept deliberately separate: ``canonical_key`` is a
colour-refinement hash over the combined place and link structure
(equal on isomorphic bigraphs, collisions possible), while ``iso_equal``
is an exact backtracking search. ``StateStore.insert`` is the one place
that merges states: it buckets them by key and confirms a bucket hit
with the exact check.

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

from .bigraph import Bigraph, require_ground


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
    if sorted(zip(a.ctrl, a.params)) != sorted(zip(b.ctrl, b.params)):
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

    a_kids = a.children()
    b_kids = b.children()

    def region_parents(big, ps):
        return frozenset(p for p in ps if p[0] == "r")

    def site_children(kids_map, key):
        return frozenset(c for c in kids_map[key] if c[0] == "s")

    # order: most constrained colour classes first
    order = sorted(range(a.n), key=lambda i: (len(by_colour.get(acol[i], ())), i))
    fwd: dict[int, int] = {}
    used = set()

    def ok(i, j) -> bool:
        if a.ctrl[i] != b.ctrl[j] or a.params[i] != b.params[j]:
            return False
        if region_parents(a, a.node_parents[i]) != region_parents(b, b.node_parents[j]):
            return False
        if len(a.node_parents[i]) != len(b.node_parents[j]):
            return False
        if site_children(a_kids, ("n", i)) != site_children(b_kids, ("n", j)):
            return False
        if len(a_kids[("n", i)]) != len(b_kids[("n", j)]):
            return False
        ca, cb = a.node_handle_counts(i), b.node_handle_counts(j)
        for h, c in ca.items():
            if h[0] == "o" and cb.get(h, 0) != c:
                return False
        if sum(c for h, c in ca.items() if h[0] == "e") != \
                sum(c for h, c in cb.items() if h[0] == "e"):
            return False
        for v, w in fwd.items():
            if (("n", v) in a.node_parents[i]) != (("n", w) in b.node_parents[j]):
                return False
            if (("n", i) in a.node_parents[v]) != (("n", j) in b.node_parents[w]):
                return False
        return True

    def edge_signatures_match() -> bool:
        def sigs(big, col_of, trans):
            points = big.link_points()
            out = []
            for k in range(big.edges):
                inc = []
                for pt in points[("e", k)]:
                    if pt[0] == "p":
                        inc.append(("p", trans(pt[1])))
                    else:
                        inc.append(("i", pt[1]))
                out.append(tuple(sorted(inc)))
            return sorted(out)
        return sigs(a, acol, lambda i: fwd[i]) == sigs(b, bcol, lambda j: j)

    def complete() -> bool:
        if not edge_signatures_match():
            return False
        # final full parent check (sites included)
        for i, j in fwd.items():
            mapped = frozenset(
                ("n", fwd[p[1]]) if p[0] == "n" else p for p in a.node_parents[i])
            if mapped != b.node_parents[j]:
                return False
        for k in range(a.sites):
            mapped = frozenset(
                ("n", fwd[p[1]]) if p[0] == "n" else p for p in a.site_parents[k])
            if mapped != b.site_parents[k]:
                return False
        return True

    # Depth-first search with an explicit stack of candidate iterators, one
    # per mapped position, so the depth is not bounded by Python's recursion.
    if not order:
        return complete()
    stack = [iter(by_colour.get(acol[order[0]], ()))]
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if i in fwd:                      # back at this position: undo its choice
            used.discard(fwd.pop(i))
        for j in stack[-1]:
            if j not in used and ok(i, j):
                fwd[i] = j
                used.add(j)
                break
        else:
            stack.pop()
            continue
        if pos + 1 < len(order):
            stack.append(iter(by_colour.get(acol[order[pos + 1]], ())))
        elif complete():
            return True
    return False


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
