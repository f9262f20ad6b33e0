"""Abstract bigraphs: controls, place graphs (forests and DAGs), link graphs.

A bigraph couples a place graph (nesting of nodes under regions, with
sites as holes; parent sets may have more than one element when sharing
is used) and a link graph (a partition of node ports and inner names
into hyperlinks, each either a closed edge or attached to one outer
name), over a single node set.

Internal encoding conventions:

* place keys:  ``('r', k)`` region k, ``('n', i)`` node i, ``('s', k)`` site k
* link handles: ``('o', name)`` open link / ``('e', k)`` closed edge k

Nodes are numbered 0..n-1 and edges 0..m-1; combining two bigraphs
re-offsets the right operand, so identities are structural only and play
no role in equality (see canon.iso_equal). Values are immutable after
construction: every operation returns a fresh Bigraph.
"""

from __future__ import annotations

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
Place = tuple          # ('r', k) | ('n', i) | ('s', k)
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
            if t is bool or t not in _SORT_NAMES:
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

    Treated as immutable; derived adjacency maps are cached on first use.
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
        """place key -> tuple of child keys (nodes then sites, index order)."""
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
            got = {p: tuple(sorted(cs)) for p, cs in m.items()}
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

    def port_count(self, handle: Handle) -> int:
        return sum(1 for pt in self.link_points().get(handle, ()) if pt[0] == "p")

    def node_handle_counts(self, i: int) -> dict:
        """multiset (as dict) of link handles on node i's ports."""
        counts: dict = {}
        for h in self.ports[i]:
            counts[h] = counts.get(h, 0) + 1
        return counts

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


def exact_fields(b: Bigraph) -> tuple:
    """Every field that equality compares (the signature is shared), the
    parameters as printed: ``0.0`` and ``-0.0`` compare equal, but match
    and identify states apart."""
    return (b.regions, b.sites, b.ctrl, repr(b.params), b.node_parents, b.site_parents,
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


def _shift_place(p: Place, node_off: int, region_off: int) -> Place:
    if p[0] == "n":
        return ("n", p[1] + node_off)
    return ("r", p[1] + region_off)


def _shift_handle(h: Handle, edge_off: int) -> Handle:
    if h[0] == "e":
        return ("e", h[1] + edge_off)
    return h


def _check_sig(a: Bigraph, b: Bigraph) -> None:
    if a.sig is not b.sig:
        raise SignatureError("operands built over different signatures")


def _juxtapose(a: Bigraph, b: Bigraph, region_off: int):
    """Shared part of merge/parallel: append b's nodes, edges and links to a's."""
    no, eo = a.n, a.edges
    ctrl = a.ctrl + b.ctrl
    params = a.params + b.params
    node_parents = list(a.node_parents)
    for ps in b.node_parents:
        node_parents.append(frozenset(_shift_place(p, no, region_off) for p in ps))
    site_parents = list(a.site_parents)
    for ps in b.site_parents:
        site_parents.append(frozenset(_shift_place(p, no, region_off) for p in ps))
    ports = list(a.ports)
    for hs in b.ports:
        ports.append(tuple(_shift_handle(h, eo) for h in hs))
    inner = list(a.inner) + [(x, _shift_handle(h, eo)) for x, h in b.inner]
    if len({x for x, _ in inner}) != len(inner):
        raise SignatureError("duplicate inner name in product")
    return ctrl, params, node_parents, site_parents, ports, inner, a.edges + b.edges


def merge(a: Bigraph, b: Bigraph) -> Bigraph:
    """Merge product a | b: all regions of both flattened under one region.

    Shared outer names fuse links; sites renumbered a-first.
    """
    _check_sig(a, b)
    ctrl, params, nps, sps, ports, inner, edges = _juxtapose(a, b, a.regions)
    flat = lambda ps: frozenset(("r", 0) if p[0] == "r" else p for p in ps)
    return _mk(a.sig, 1, a.sites + b.sites, ctrl, params,
               [flat(ps) for ps in nps], [flat(ps) for ps in sps],
               ports, inner, a.outer | b.outer, edges)


def parallel(a: Bigraph, b: Bigraph) -> Bigraph:
    """Parallel product a || b: regions concatenated, shared names fuse links."""
    _check_sig(a, b)
    ctrl, params, nps, sps, ports, inner, edges = _juxtapose(a, b, a.regions)
    return _mk(a.sig, a.regions + b.regions, a.sites + b.sites, ctrl, params,
               nps, sps, ports, inner, a.outer | b.outer, edges)


def nest(outer_b: Bigraph, inner_b: Bigraph) -> Bigraph:
    """Graft inner_b's regions into outer_b's sites positionally (K.e and
    general recomposition). Outer names of both are fused by name; the
    result's inner interface is inner_b's.
    """
    _check_sig(outer_b, inner_b)
    if outer_b.inner:
        raise WidthMismatch("cannot nest below a bigraph with inner names")
    if outer_b.sites != inner_b.regions:
        if (outer_b.sites == 0 and outer_b.n == 1
                and outer_b.control(0).atomic and inner_b.regions >= 1):
            raise AtomicViolation(
                "atomic control %s admits no children" % outer_b.ctrl[0])
        raise WidthMismatch(
            "nesting needs %d region(s) to fill %d site(s)"
            % (outer_b.sites, inner_b.regions))
    return _graft(inner_b, [(k,) for k in range(inner_b.regions)], outer_b)


def close(name: str, b: Bigraph) -> Bigraph:
    """Closure /name b: the open link becomes a closed edge."""
    if name not in b.outer:
        raise UnknownName("cannot close %r: not an outer name" % name)
    if not b.link_points()[("o", name)]:
        raise EmptyClosure("cannot close idle name %r" % name)
    k = b.edges
    repl = lambda h: ("e", k) if h == ("o", name) else h
    ports = tuple(tuple(repl(h) for h in hs) for hs in b.ports)
    inner = tuple((x, repl(h)) for x, h in b.inner)
    return _mk(b.sig, b.regions, b.sites, b.ctrl, b.params, b.node_parents,
               b.site_parents, ports, inner, b.outer - {name}, k + 1)


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
    return _graft(contents, placement, host)


def _graft(contents: Bigraph, placement: Sequence[Sequence[int]],
           host: Bigraph) -> Bigraph:
    """Place region k of contents under every host site in placement[k]
    (arguments already checked). Outer names are fused by name; the
    result's inner interface is contents'."""
    no, eo = host.n, host.edges

    def trans(ps):
        out = set()
        for p in ps:
            if p[0] == "n":
                out.add(("n", p[1] + no))
            else:
                for j in placement[p[1]]:
                    out |= host.site_parents[j]
        return frozenset(out)

    node_parents = list(host.node_parents) + [trans(ps) for ps in contents.node_parents]
    site_parents = [trans(ps) for ps in contents.site_parents]
    ports = list(host.ports)
    for hs in contents.ports:
        ports.append(tuple(_shift_handle(h, eo) for h in hs))
    inner = [(x, _shift_handle(h, eo)) for x, h in contents.inner]
    return _mk(host.sig, host.regions, contents.sites,
               host.ctrl + contents.ctrl, host.params + contents.params,
               node_parents, site_parents, ports, inner,
               host.outer | contents.outer, host.edges + contents.edges)


def require_ground(b: Bigraph, what: str = "bigraph") -> None:
    if not b.is_ground():
        raise NotGround("%s is not ground" % what)


def _node_maps(a: Bigraph, b: Bigraph, order: Sequence[int], candidates):
    """Each injective map of a's nodes, assigned in ``order``, onto
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
