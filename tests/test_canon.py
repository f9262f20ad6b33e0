import random
import time
from collections import Counter

from bigengine import canonical_key, close, iso_equal, make_atom, merge, nest
from bigengine.bigraph import Control, Signature, _mk
from bigengine.canon import StateStore
from bigengine.errors import NotGround

import pytest

from genutil import DEFAULT_CONTROLS, brute_iso, make_sig, random_ground


def room_with(sig, *children):
    inner = None
    for name in children:
        atom = make_atom(sig, name)
        inner = atom if inner is None else merge(inner, atom)
    return nest(make_atom(sig, "Room"), inner)


def test_iso_child_order(building_sig):
    assert iso_equal(room_with(building_sig, "Adult", "Child"),
                     room_with(building_sig, "Child", "Adult"))


def test_iso_names_fixed(building_sig):
    a = make_atom(building_sig, "Device", names=["x"])
    b = make_atom(building_sig, "Device", names=["y"])
    assert not iso_equal(a, b)


def test_iso_closed_edges_renameable(building_sig):
    def stub(n):
        return close(n, make_atom(building_sig, "Device", names=[n]))

    a = merge(stub("x"), stub("x2"))
    b = merge(stub("y"), stub("z"))
    assert iso_equal(a, b)


def test_key_agrees_on_permuted_children(building_sig):
    a = room_with(building_sig, "Adult", "Child")
    b = room_with(building_sig, "Child", "Adult")
    assert canonical_key(a) == canonical_key(b)


def test_key_separates(building_sig):
    assert canonical_key(room_with(building_sig, "Adult")) != \
        canonical_key(room_with(building_sig, "Child"))


def test_key_requires_ground(building_sig):
    with pytest.raises(NotGround):
        canonical_key(make_atom(building_sig, "Room"))


def test_key_agrees_with_brute_iso_on_random_pairs():
    # key equality must match the brute-force isomorphism oracle
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20240811)
    agree = 0
    for _ in range(1000):
        a = random_ground(rng, sig, max_nodes=6)
        b = random_ground(rng, sig, max_nodes=6)
        same_key = canonical_key(a) == canonical_key(b)
        same = brute_iso(a, b)
        assert iso_equal(a, b) == same
        if same:
            assert same_key
        if same_key:
            # collisions are allowed in principle, but must be confirmed
            assert same
        agree += 1
    assert agree == 1000


def test_key_stable_under_rebuild():
    sig = make_sig(DEFAULT_CONTROLS)
    rng1 = random.Random(7)
    rng2 = random.Random(7)
    a = random_ground(rng1, sig, max_nodes=8)
    b = random_ground(rng2, sig, max_nodes=8)
    assert canonical_key(a) == canonical_key(b)
    assert iso_equal(a, b)


def test_state_store_dedups(building_sig):
    store = StateStore(2)
    i, added = store.insert(room_with(building_sig, "Adult", "Child"))
    assert (i, added) == (0, True)
    j, added = store.insert(room_with(building_sig, "Child", "Adult"))
    assert (j, added) == (0, False)
    k, added = store.insert(room_with(building_sig, "Adult"))
    assert (k, added) == (1, True)
    # full: a new state is refused, a known one still found
    assert store.insert(room_with(building_sig, "Child")) == (None, False)
    assert store.insert(room_with(building_sig, "Child", "Adult")) == (0, False)
    assert len(store) == 2


def test_params_distinguish_states():
    from bigengine.bigraph import Control, Signature
    from bigengine import make_atom, nest, one
    sig = Signature([Control("S", 0), Control("P", 0, atomic=True, param_names=("n",))])
    a = nest(make_atom(sig, "S"), make_atom(sig, "P", params=[1]))
    b = nest(make_atom(sig, "S"), make_atom(sig, "P", params=[2]))
    assert canonical_key(a) != canonical_key(b)
    assert not iso_equal(a, b)
    c = nest(make_atom(sig, "S"), make_atom(sig, "P", params=[1]))
    assert canonical_key(a) == canonical_key(c) and iso_equal(a, c)


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


def nx_graph(nx, b):
    """Labelled digraph of the place and link graphs: regions, sites, outer
    and inner names keep their identity as labels; nodes carry control
    and parameters; closed edges are anonymous."""
    g = nx.DiGraph()
    for k in range(b.regions):
        g.add_node(("r", k), label=("r", k))
    for k in range(b.sites):
        g.add_node(("s", k), label=("s", k))
    for i in range(b.n):
        g.add_node(("n", i), label=("n", b.ctrl[i], b.params[i]))
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


def random_cycles(rng, sig, n):
    """n arity-2 atoms in one region, their 2n ports paired at random into
    n closed edges: a union of cycles. Colour refinement gives every node
    one colour and every edge one colour, so only the exact search can
    tell two of these apart."""
    ends = [i for i in range(n) for _ in range(2)]
    rng.shuffle(ends)
    ports = [[] for _ in range(n)]
    for k in range(n):
        ports[ends[2 * k]].append(("e", k))
        ports[ends[2 * k + 1]].append(("e", k))
    return _mk(sig, 1, 0, ["C"] * n, ((),) * n, (frozenset({("r", 0)}),) * n,
               (), [tuple(hs) for hs in ports], (), frozenset(), n)


def test_refinement_invariant_and_exact_against_oracles():
    # the stable-partition stop must give node-order-independent keys, and
    # iso_equal must agree with two independent isomorphism oracles
    nx = pytest.importorskip("networkx")
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20241017)
    outcomes = []
    for _ in range(150):
        a = random_ground(rng, sig, max_nodes=8)
        b = permuted(a, rng)
        assert canonical_key(a) == canonical_key(b)
        assert iso_equal(a, b) and iso_equal(b, a) and nx_iso(nx, a, b)
        # small, dense draws so that isomorphic pairs occur by chance too
        c = random_ground(rng, sig, max_nodes=4, name_pool=("a",), max_regions=1)
        d = permuted(random_ground(rng, sig, max_nodes=4, name_pool=("a",),
                                   max_regions=1), rng)
        n = rng.randint(3, 5)
        e = random_cycles(rng, sig, n)
        f = permuted(random_cycles(rng, sig, n), rng)
        assert canonical_key(e) == canonical_key(f)
        for x, y in ((c, d), (a, d), (e, f)):
            same = iso_equal(x, y)
            assert same == brute_iso(x, y) == nx_iso(nx, x, y)
            if same:
                assert canonical_key(x) == canonical_key(y)
            outcomes.append(same)
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 30


def cycles(sig, lengths):
    """Arity-2 atoms in one region, joined by closed edges into one cycle
    per length, nodes numbered along each cycle."""
    ports, start = [], 0
    for m in lengths:
        ports += [(("e", start + i), ("e", start + (i + 1) % m)) for i in range(m)]
        start += m
    n = len(ports)
    return _mk(sig, 1, 0, ["C"] * n, ((),) * n, (frozenset({("r", 0)}),) * n,
               (), ports, (), frozenset(), n)


def test_iso_equal_cycles_pruned_by_links():
    # every node and edge gets one colour, so the colour classes leave 9!
    # node maps; only the shared closed edges can cut the search short
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(9)
    nine, four_five = cycles(sig, [9]), cycles(sig, [4, 5])
    assert canonical_key(nine) == canonical_key(four_five)
    start = time.perf_counter()
    assert not iso_equal(nine, four_five)
    assert not iso_equal(four_five, nine)
    assert not iso_equal(permuted(nine, rng), permuted(four_five, rng))
    assert iso_equal(nine, permuted(nine, rng))
    assert iso_equal(four_five, permuted(four_five, rng))
    assert time.perf_counter() - start < 1.0


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


def test_iso_equal_exact_without_colours(monkeypatch):
    # colours only pick candidates: with every node in one colour class
    # the check of a full node map alone must keep iso_equal exact
    from bigengine import canon
    monkeypatch.setattr(canon, "_refine", lambda b: ([b""] * b.n, [b""] * b.edges))
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20261018)
    outcomes = []
    for _ in range(300):
        a = random_ground(rng, sig, max_nodes=6, name_pool=("a", "b"))
        for b in (permuted(a, rng), permuted(swapped(a, rng), rng)):
            same = iso_equal(a, b)
            assert same == brute_iso(a, b)
            outcomes.append(same)
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 50


def test_iso_equal_deep_flat_state():
    # one B and 1,100 A atoms side by side: the search maps one node per
    # level, deeper than Python's default recursion limit
    sig = Signature([Control("A", 0, atomic=True), Control("B", 0, atomic=True)])
    n = 1101

    def flat(ctrl):
        return _mk(sig, 1, 0, ctrl, ((),) * n, (frozenset({("r", 0)}),) * n,
                   (), ((),) * n, (), frozenset(), 0)

    a = flat(["B"] + ["A"] * (n - 1))
    b = flat(["A"] * (n - 1) + ["B"])
    assert canonical_key(a) == canonical_key(b)
    assert iso_equal(a, b)
