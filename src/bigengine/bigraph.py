"""Abstract bigraphs: controls, place graphs (forests and DAGs), link graphs.

A bigraph couples a place graph (nesting of nodes under regions, with
sites as holes; parent sets may have more than one element when sharing
is used) and a link graph (a partition of node ports and inner names
into hyperlinks, each either a closed edge or attached to one outer
name), over a single node set.

Internal encoding conventions:

* place keys:  ``('r', k)`` region k, ``('n', i)`` node i, ``('s', k)`` site k
* link handles: ``('o', name)`` open link / ``('e', k)`` closed edge k

Nodes are numbered 0..n-1 and edges 0..m-1; combining bigraphs
re-offsets each operand after the first, so identities are structural
only and play no role in equality (see canon.iso_equal). Values are
immutable after construction: every operation returns a fresh Bigraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import (
    ArityMismatch,
    AtomicViolation,
    EmptyClosure,
    IndexOutOfRange,
    NotGround,
    SignatureError,
    SortMismatch,
    UnknownName,
    WidthMismatch,
)

Value = Union[int, float, str]
Handle = tuple         # ('o', name) | ('e', k)


@dataclass(frozen=True)
class Control:
    """A declared entity type: fixed arity, optional atomicity and parameters."""

    name: str
    arity: int
    atomic: bool = False
    param_names: tuple[str, ...] = ()

    @property
    def param_count(self) -> int:
        return len(self.param_names)


_SORT_NAMES = {int: "int", float: "float", str: "string"}


class Signature:
    """The set of declared controls; lookup by name is total for model use."""

    def __init__(self, controls: Iterable[Control] = ()):
        self._by_name: dict[str, Control] = {}
        # Parameter sorts are inferred from the first concrete instantiation
        # of each slot and enforced afterwards.
        self._sorts: dict[str, list] = {}
        for c in controls:
            self.add(c)

    def add(self, control: Control) -> Control:
        if control.name in self._by_name:
            raise SignatureError("control %r declared twice" % control.name)
        self._by_name[control.name] = control
        self._sorts[control.name] = [None] * control.param_count
        return control

    def get(self, name: str) -> Control:
        try:
            return self._by_name[name]
        except KeyError:
            raise SignatureError("unknown control %r" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def controls(self) -> list[Control]:
        return list(self._by_name.values())

    def check_params(self, control: Control, params: Sequence[Value]) -> tuple[Value, ...]:
        if len(params) != control.param_count:
            raise SortMismatch(
                "control %s expects %d parameter(s), got %d"
                % (control.name, control.param_count, len(params)))
        slots = self._sorts[control.name]
        for i, v in enumerate(params):
            t = type(v)
            if t is bool or t not in _SORT_NAMES or t is float and not math.isfinite(v):
                raise SortMismatch("unsupported parameter value %r for %s" % (v, control.name))
            if slots[i] is None:
                slots[i] = t
            elif slots[i] is not t:
                raise SortMismatch(
                    "parameter %d of %s is %s, got %s"
                    % (i, control.name, _SORT_NAMES[slots[i]], _SORT_NAMES[t]))
        return tuple(params)


@dataclass
class Bigraph:
    """Concrete representation of an abstract bigraph (see module docstring).

    Treated as immutable; derived maps are cached on first use (see ``shed``).
    """

    sig: Signature
    regions: int
    sites: int
    ctrl: tuple[str, ...]
    params: tuple[tuple[Value, ...], ...]
    node_parents: tuple[frozenset, ...]
    site_parents: tuple[frozenset, ...]
    ports: tuple[tuple[Handle, ...], ...]
    inner: tuple[tuple[str, Handle], ...]       # sorted (inner name, handle)
    outer: frozenset
    edges: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- basic observations ---------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ctrl)

    def control(self, i: int) -> Control:
        return self.sig.get(self.ctrl[i])

    def outer_interface(self) -> tuple[int, frozenset]:
        return (self.regions, self.outer)

    def inner_interface(self) -> tuple[int, frozenset]:
        return (self.sites, frozenset(x for x, _ in self.inner))

    def is_ground(self) -> bool:
        return self.sites == 0 and not self.inner

    # -- derived maps ------------------------------------------------------

    def children(self) -> dict:
        """place key -> tuple of child keys (nodes then sites, index order: sorted as built)."""
        got = self._cache.get("children")
        if got is None:
            m: dict = {("r", k): [] for k in range(self.regions)}
            for i in range(self.n):
                m[("n", i)] = []
            for i, ps in enumerate(self.node_parents):
                for p in ps:
                    m[p].append(("n", i))
            for k, ps in enumerate(self.site_parents):
                for p in ps:
                    m[p].append(("s", k))
            got = {p: tuple(cs) for p, cs in m.items()}
            self._cache["children"] = got
        return got

    def link_points(self) -> dict:
        """handle -> list of points ('p', node, port index) / ('i', inner name)."""
        got = self._cache.get("link_points")
        if got is None:
            m: dict = {("o", x): [] for x in self.outer}
            for k in range(self.edges):
                m[("e", k)] = []
            for i, hs in enumerate(self.ports):
                for j, h in enumerate(hs):
                    m[h].append(("p", i, j))
            for x, h in self.inner:
                m[h].append(("i", x))
            got = m
            self._cache["link_points"] = got
        return got

    def link_partners(self) -> dict:
        """node -> its partners, one per link it shares with other nodes:
        that link's lowest-numbered other node (one, not all: a link
        joining k nodes costs O(k), not O(k^2))."""
        got = self._cache.get("link_partners")
        if got is None:
            got = self._cache["link_partners"] = {}
            for pts in self.link_points().values():
                on = sorted({pt[1] for pt in pts if pt[0] == "p"})
                for i in on if len(on) > 1 else ():
                    got.setdefault(i, []).append(on[1] if i == on[0] else on[0])
        return got

    def shed(self) -> None:
        """Drop everything cached on self (maps, labels, certificate, twin
        data, anchor tables, plans, forest flag), each rebuilt on its next read."""
        self._cache.clear()

    def port_count(self, handle: Handle) -> int:
        return sum(1 for pt in self.link_points().get(handle, ()) if pt[0] == "p")

    # -- predicates --------------------------------------------------------

    def is_solid(self) -> bool:
        """Left-hand-side eligibility for matching, four conditions:

        (i)   every region contains at least one node and no outer name is idle
        (ii)  no two sites share a parent and no two inner names share a link
        (iii) no site sits directly under a region
        (iv)  no outer name is linked to an inner name
        """
        kids = self.children()
        if not all(any(c[0] == "n" for c in kids[("r", k)]) for k in range(self.regions)):
            return False
        if any(c[0] == "s" for k in range(self.regions) for c in kids[("r", k)]):
            return False
        if not all(self.link_points()[("o", x)] for x in self.outer):
            return False
        if any(self.site_parents[a] & self.site_parents[b]
               for a in range(self.sites) for b in range(a)):
            return False
        handles = [h for _, h in self.inner]
        return all(h[0] == "e" for h in handles) and len(set(handles)) == len(handles)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _mk(sig, regions, sites, ctrl, params, node_parents, site_parents, ports,
        inner, outer, edges) -> Bigraph:
    return Bigraph(sig, regions, sites, tuple(ctrl), tuple(params),
                   tuple(node_parents), tuple(site_parents), tuple(ports),
                   tuple(sorted(inner)), frozenset(outer), edges)


def labels(b: Bigraph) -> tuple[str, ...]:
    """Each node's label as text, the one identity of a node label: its
    control name when it has no parameters, else ``repr((ctrl, params))``,
    which has a parenthesis. It keeps ``0.0`` and ``-0.0`` apart, which
    compare equal but print differently (parameters are finite, so no
    ``nan`` is unequal to itself). Cached on b."""
    got = b._cache.get("labels")
    if got is None:
        got = b._cache["labels"] = tuple([repr((c, ps)) if ps else c
                                          for c, ps in zip(b.ctrl, b.params)])
    return got


def exact_fields(b: Bigraph) -> tuple:
    """Every field that equality compares (the signature is shared), with
    node labels as ``labels`` gives them: ``0.0`` and ``-0.0`` compare
    equal, but match and identify states apart."""
    return (b.regions, b.sites, labels(b), b.node_parents, b.site_parents,
            b.ports, b.inner, b.outer, b.edges)


def one(sig: Signature) -> Bigraph:
    """The empty region, written 1."""
    return _mk(sig, 1, 0, (), (), (), (), (), (), frozenset(), 0)


def identity(sig: Signature) -> Bigraph:
    """The identity place graph, written id: one region holding one site."""
    return _mk(sig, 1, 1, (), (), (), (frozenset({("r", 0)}),), (), (), frozenset(), 0)


def idle(sig: Signature, names: Sequence[str]) -> Bigraph:
    """Idle outer name(s), written {x}: width 0, the names link nothing."""
    return _mk(sig, 0, 0, (), (), (), (), (), (), frozenset(names), 0)


def link_identity(sig: Signature, names: Sequence[str]) -> Bigraph:
    """The identity link graph id{x,...}: inner name x wired to outer name x."""
    inner = tuple((x, ("o", x)) for x in sorted(set(names)))
    return _mk(sig, 0, 0, (), (), (), (), (), inner, frozenset(names), 0)


def make_atom(sig: Signature, control, params: Sequence[Value] = (),
              names: Sequence[str] = ()) -> Bigraph:
    """One node under one region; port i joined to names[i].

    Repeated names share a link. Non-atomic controls get one site (the
    implicit .id) so the node can be nested into.
    """
    c = sig.get(control) if isinstance(control, str) else control
    if len(names) != c.arity:
        raise ArityMismatch(
            "control %s has arity %d but %d name(s) given" % (c.name, c.arity, len(names)))
    params = sig.check_params(c, params)
    ports = (tuple(("o", x) for x in names),)
    if c.atomic:
        sites, site_parents = 0, ()
    else:
        sites, site_parents = 1, (frozenset({("n", 0)}),)
    return _mk(sig, 1, sites, (c.name,), (params,), (frozenset({("r", 0)}),),
               site_parents, ports, (), frozenset(names), 0)


def _shift_handle(h: Handle, edge_off: int) -> Handle:
    if h[0] == "e":
        return ("e", h[1] + edge_off)
    return h


def _check_sig(a: Bigraph, b: Bigraph) -> None:
    if a.sig is not b.sig:
        raise SignatureError("operands built over different signatures")


def _juxtapose(bs: Sequence[Bigraph], flat: bool) -> Bigraph:
    """merge (flat: every region becomes region 0) or parallel of bs in
    one pass: each operand's nodes, edges, sites and regions are numbered
    after those of the operands before it, as the left fold of binary
    products numbers them."""
    ctrl, params, nps, sps, ports, inner = [], [], [], [], [], []
    names, outer = set(), set()
    no = eo = ro = 0
    for b in bs:
        _check_sig(bs[0], b)
        if no or (b.regions > 1 if flat else ro):   # else nothing shifts (cheap for guard merges)
            shift = lambda ps: frozenset(
                ("n", p[1] + no) if p[0] == "n" else ("r", 0 if flat else p[1] + ro) for p in ps)
            nps += map(shift, b.node_parents)
            sps += map(shift, b.site_parents)
        else:
            nps += b.node_parents
            sps += b.site_parents
        ports += (tuple(_shift_handle(h, eo) for h in hs) for hs in b.ports) if eo else b.ports
        for x, h in b.inner:
            if x in names:
                raise SignatureError("duplicate inner name in product")
            names.add(x)
            inner.append((x, _shift_handle(h, eo)))
        ctrl += b.ctrl
        params += b.params
        outer |= b.outer
        no, eo, ro = no + b.n, eo + b.edges, ro + b.regions
    return _mk(bs[0].sig, 1 if flat else ro, len(sps), ctrl, params, nps, sps, ports,
               inner, outer, eo)


def merge(*bs: Bigraph) -> Bigraph:
    """Merge product b0 | b1 | ...: every region of every operand under
    one region, shared outer names fusing links, numbered operand by
    operand (see _juxtapose). A lone one-region operand is returned as is.
    """
    if len(bs) == 1 and bs[0].regions == 1:
        return bs[0]
    return _juxtapose(bs, True)


def parallel(*bs: Bigraph) -> Bigraph:
    """Parallel product b0 || b1 || ...: regions concatenated, shared outer
    names fusing links, numbered operand by operand (see _juxtapose)."""
    return _juxtapose(bs, False)


def nest(*bs: Bigraph) -> Bigraph:
    """Nesting b0.b1. ... (K.e and general recomposition): each operand's
    regions fill the sites of the one before it, in one pass (see _graft).
    The checks run pair by pair from the right, as nested binary nests
    would run them."""
    for a, b in zip(bs[-2::-1], bs[:0:-1]):
        _check_sig(a, b)
        if a.inner:
            raise WidthMismatch("cannot nest below a bigraph with inner names")
        if a.sites != b.regions:
            if a.sites == 0 and a.n == 1 and a.control(0).atomic and b.regions >= 1:
                raise AtomicViolation("atomic control %s admits no children" % a.ctrl[0])
            raise WidthMismatch("nesting needs %d region(s) to fill %d site(s)"
                                % (a.sites, b.regions))
    return _graft(bs)


def close(names: Union[str, Sequence[str]], b: Bigraph) -> Bigraph:
    """Closure /x /y ... b of one name or a sequence (x, y, ...): each
    open link becomes a closed edge, in one rebuild numbered as closing
    one name at a time from the last: the last name gets edge b.edges."""
    names = (names,) if isinstance(names, str) else names
    points, outer, repl = b.link_points(), set(b.outer), {}
    for name in reversed(names):
        if name not in outer:
            raise UnknownName("cannot close %r: not an outer name" % name)
        if not points[("o", name)]:
            raise EmptyClosure("cannot close idle name %r" % name)
        outer.remove(name)
        repl[("o", name)] = ("e", b.edges + len(repl))
    ports = tuple(tuple(repl.get(h, h) for h in hs) for hs in b.ports)
    inner = tuple((x, repl.get(h, h)) for x, h in b.inner)
    return _mk(b.sig, b.regions, b.sites, b.ctrl, b.params, b.node_parents,
               b.site_parents, ports, inner, outer, b.edges + len(repl))


def share(contents: Bigraph, placement: Sequence[Iterable[int]], site_count: int,
          host: Bigraph) -> Bigraph:
    """share contents by (placement, site_count) in host.

    Region k of contents is placed under every host site in placement[k];
    nodes get multiple parents when |placement[k]| > 1, turning the place
    forest into a DAG.
    """
    _check_sig(contents, host)
    if host.inner:
        raise WidthMismatch("cannot share into a bigraph with inner names")
    if len(placement) != contents.regions:
        raise WidthMismatch(
            "placement covers %d region(s), contents has %d"
            % (len(placement), contents.regions))
    if host.sites != site_count:
        raise WidthMismatch(
            "host has %d site(s), share declares %d" % (host.sites, site_count))
    placement = [sorted(set(p)) for p in placement]
    for k, p in enumerate(placement):
        for j in p:
            if not (0 <= j < site_count):
                raise IndexOutOfRange(
                    "placement for region %d uses site %d of %d" % (k, j, site_count))
        if not p:
            raise WidthMismatch("placement for region %d is empty" % k)
    return _graft((host, contents), placement)


def _graft(bs: Sequence[Bigraph], placement=None) -> Bigraph:
    """Lay each operand into the sites of the one before it (arguments
    checked) in one pass, numbering nodes and edges operand by operand:
    region k of bs[i+1] goes under the renumbered parents of site k of
    bs[i], or with a placement (two operands, share) of every site in
    placement[k]. Outer names fuse by name; the result's sites and inner
    names are the last operand's."""
    top = bs[0]
    ctrl, params = list(top.ctrl), list(top.params)
    nps, ports, outer = list(top.node_parents), list(top.ports), set(top.outer)
    sps, inner = top.site_parents, top.inner
    no, eo = top.n, top.edges
    for b in bs[1:]:
        holes = sps if placement is None else [
            frozenset().union(*(sps[j] for j in p)) for p in placement]
        nps += [_lift(ps, no, holes) for ps in b.node_parents]
        sps = [_lift(ps, no, holes) for ps in b.site_parents]
        ports += (tuple(_shift_handle(h, eo) for h in hs) for hs in b.ports) if eo else b.ports
        inner = [(x, _shift_handle(h, eo)) for x, h in b.inner]
        ctrl += b.ctrl
        params += b.params
        outer |= b.outer
        no, eo = no + b.n, eo + b.edges
    return _mk(top.sig, top.regions, len(sps), ctrl, params, nps, sps, ports,
               inner, outer, eo)


def _lift(ps: frozenset, no: int, holes) -> frozenset:
    """Parents ps of a laid operand's place: node i becomes node i + no,
    region k the parents in holes[k]."""
    out: set = set()
    for p in ps:
        if p[0] == "n":
            out.add(("n", p[1] + no))
        else:
            out |= holes[p[1]]
    return frozenset(out)


def require_ground(b: Bigraph, what: str = "bigraph") -> None:
    if not b.is_ground():
        raise NotGround("%s is not ground" % what)


def _node_maps(a: Bigraph, b: Bigraph, order: Sequence[int], candidates):
    """Each injective map of a's nodes, assigned in ``order`` (all of
    them), onto ``candidates(i)`` in b (ascending, no repeats) that agrees
    on node-to-node parenthood and keeps a's shared links shared.

    The one node-map search of the engine (occurrences and isomorphism).
    A node placed after a neighbour (``_anchors``) tries only candidates
    among its image's children (of a parent), parents (of a child) or
    link mates (of a ``link_partners`` mate), in order; the others fail
    that check, so the maps come as if every candidate were tried. A
    pair (i, j) is also checked against i's other placed neighbours (for
    a mate k, fwd[k] must share a link with j, which both callers need
    before their exact link checks) and j's placed parents and children,
    so k is a parent of i exactly when fwd[k] is a parent of fwd[i]
    (``_finalize`` relies on this). An explicit stack, not recursion,
    keeps the search. The same dict is yielded each time: copy it.
    """
    table = _anchors(a, tuple(order))
    b_parents, b_kids, b_ports = b.node_parents, b.children(), b.ports
    fwd: dict[int, int] = {}
    inv: dict[int, int] = {}
    allowed: dict[int, set] = {}

    def draw(pos):
        how, k = table[pos][:2]
        if how is None:
            return candidates(order[pos])
        ok = allowed.get(pos) or allowed.setdefault(pos, set(candidates(order[pos])))
        if how == "p":
            return [c[1] for c in b_kids[("n", fwd[k])] if c[0] == "n" and c[1] in ok]
        near = ({p[1] for p in b_parents[fwd[k]] if p[0] == "n"} if how == "c" else
                {pt[1] for h in set(b_ports[fwd[k]]) for pt in b.link_points()[h] if pt[0] == "p"})
        return sorted(near & ok)

    def fits(row, j) -> bool:
        _, _, up, down, mates, ups, downs = row
        ps = b_parents[j]
        for p in up:
            if ("n", fwd[p]) not in ps:
                return False
        for c in down:
            if ("n", j) not in b_parents[fwd[c]]:
                return False
        for p in ps:
            if p[0] == "n" and p[1] in inv and inv[p[1]] not in ups:
                return False
        for c in b_kids[("n", j)]:
            if c[0] == "n" and c[1] in inv and inv[c[1]] not in downs:
                return False
        for k in mates:
            if set(b_ports[fwd[k]]).isdisjoint(b_ports[j]):
                return False
        return True

    if not order:
        yield fwd
        return
    stack = [iter(draw(0))]
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if i in fwd:                      # back at this position: undo its choice
            del inv[fwd.pop(i)]
        row = table[pos]
        for j in stack[-1]:
            if j not in inv and fits(row, j):
                fwd[i] = j
                inv[j] = i
                break
        else:
            stack.pop()
            continue
        if pos + 1 < len(order):
            stack.append(iter(draw(pos + 1)))
        else:
            yield fwd


def _anchors(a: Bigraph, order: tuple) -> list:
    """Per position of order, cached on a: how its node draws candidates
    (from a placed child "c", else parent "p", else mate "m", else None),
    from which node, its other placed parents, children and mates, and
    all its node parents and node children."""
    got = a._cache.get(("anchors", order))
    if got is None:
        at = {u: pos for pos, u in enumerate(order)}
        kids, partners = a.children(), a.link_partners()
        got = a._cache[("anchors", order)] = []
        for pos, i in enumerate(order):
            ups = frozenset(p[1] for p in a.node_parents[i] if p[0] == "n")
            downs = frozenset(c[1] for c in kids[("n", i)] if c[0] == "n")
            down, up = ([u for u in g if at[u] < pos] for g in (downs, ups))
            mates = [k for k in partners.get(i, ()) if at[k] < pos]
            how = "c" if down else "p" if up else "m" if mates else None
            anchor = (down or up or mates).pop() if how else None
            got.append((how, anchor, tuple(up), tuple(down), tuple(mates), ups, downs))
    return got
