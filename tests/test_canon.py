import os
import random
import subprocess
import sys
import time
from itertools import permutations

from bigengine import close, find_occurrences, iso_equal, make_atom, merge, nest
from bigengine.bigraph import Control, Signature, _mk
from bigengine.canon import StateStore, certificate, orbit_key
from bigengine.errors import NotGround

import pytest

from conftest import MODELS
from genutil import (DEFAULT_CONTROLS, brute_iso, brute_same_orbit, make_sig, nx_iso,
                     permuted, random_ground, random_solid_pattern, swapped, take_inexact,
                     take_one_colour)


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
    assert certificate(a) == certificate(b)


def test_key_separates(building_sig):
    assert certificate(room_with(building_sig, "Adult")) != \
        certificate(room_with(building_sig, "Child"))


def test_key_requires_ground(building_sig):
    with pytest.raises(NotGround):
        StateStore().insert(make_atom(building_sig, "Room"))


def test_key_agrees_with_brute_iso_on_random_pairs():
    # certificate equality must match the brute-force isomorphism oracle
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20240811)
    agree = 0
    for _ in range(1000):
        a = random_ground(rng, sig, max_nodes=6)
        b = random_ground(rng, sig, max_nodes=6)
        same_key = certificate(a) == certificate(b)
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
    assert certificate(a) == certificate(b)
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
    assert certificate(a) != certificate(b)
    assert not iso_equal(a, b)
    c = nest(make_atom(sig, "S"), make_atom(sig, "P", params=[1]))
    assert certificate(a) == certificate(c) and iso_equal(a, c)


def random_cycles(rng, sig, n):
    """n arity-2 atoms in one region, their 2n ports paired at random into
    n closed edges: a union of cycles. Colour refinement gives every node
    one colour and every edge one colour, so the certificate, never exact
    here, tells two of these apart only by their 2-cycles (twins), and
    otherwise only the exact search can."""
    ends = [i for i in range(n) for _ in range(2)]
    rng.shuffle(ends)
    ports = [[] for _ in range(n)]
    for k in range(n):
        ports[ends[2 * k]].append(("e", k))
        ports[ends[2 * k + 1]].append(("e", k))
    return _mk(sig, 1, 0, ["C"] * n, ((),) * n, (frozenset({("r", 0)}),) * n,
               (), [tuple(hs) for hs in ports], (), frozenset(), n)


def test_refinement_invariant_and_exact_against_oracles():
    # the stable-partition stop must give node-order-independent
    # certificates, and iso_equal must agree with two independent
    # isomorphism oracles
    nx = pytest.importorskip("networkx")
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20241017)
    outcomes = []
    for _ in range(150):
        a = random_ground(rng, sig, max_nodes=8)
        b = permuted(a, rng)
        assert certificate(a) == certificate(b)
        assert iso_equal(a, b) and iso_equal(b, a) and nx_iso(nx, a, b)
        # small, dense draws so that isomorphic pairs occur by chance too
        c = random_ground(rng, sig, max_nodes=4, name_pool=("a",), max_regions=1)
        d = permuted(random_ground(rng, sig, max_nodes=4, name_pool=("a",),
                                   max_regions=1), rng)
        n = rng.randint(3, 5)
        e = random_cycles(rng, sig, n)
        f = permuted(random_cycles(rng, sig, n), rng)
        assert not certificate(e)[0] and not certificate(f)[0]
        for x, y in ((c, d), (a, d), (e, f)):
            same = iso_equal(x, y)
            assert same == brute_iso(x, y) == nx_iso(nx, x, y)
            if same:
                assert certificate(x) == certificate(y)
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
    assert certificate(nine) == certificate(four_five)
    start = time.perf_counter()
    assert not iso_equal(nine, four_five)
    assert not iso_equal(four_five, nine)
    assert not iso_equal(permuted(nine, rng), permuted(four_five, rng))
    assert iso_equal(nine, permuted(nine, rng))
    assert iso_equal(four_five, permuted(four_five, rng))
    assert time.perf_counter() - start < 1.0


def test_iso_equal_exact_without_colours(monkeypatch):
    # colours only pick candidates: with every twin class in one colour
    # and no certificate exact, the check of a full node map alone must
    # keep iso_equal exact
    take_one_colour(monkeypatch)
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


def test_iso_equal_deep_flat_state(monkeypatch):
    # one B and 1,100 A atoms side by side, with certificates taken as not
    # exact so that iso_equal searches: the search maps one node per
    # level, deeper than Python's default recursion limit
    take_inexact(monkeypatch)
    sig = Signature([Control("A", 0, atomic=True), Control("B", 0, atomic=True)])
    n = 1101

    def flat(ctrl):
        return _mk(sig, 1, 0, ctrl, ((),) * n, (frozenset({("r", 0)}),) * n,
                   (), ((),) * n, (), frozenset(), 0)

    a = flat(["B"] + ["A"] * (n - 1))
    b = flat(["A"] * (n - 1) + ["B"])
    assert certificate(a) == certificate(b)
    assert iso_equal(a, b)


def test_store_merges_large_flat_state_quickly():
    # one B and 20,000 A atoms, numbered two ways: the A are twins, so the
    # colours order the nodes up to twins and the certificates merge the
    # two with no node-map search
    sig = Signature([Control("A", 0, atomic=True), Control("B", 0, atomic=True)])
    n = 20001

    def flat(ctrl):
        return _mk(sig, 1, 0, ctrl, ((),) * n, (frozenset({("r", 0)}),) * n,
                   (), ((),) * n, (), frozenset(), 0)

    start = time.perf_counter()
    store = StateStore()
    assert store.insert(flat(["B"] + ["A"] * (n - 1))) == (0, True)
    assert store.insert(flat(["A"] * (n - 1) + ["B"])) == (0, False)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "inexact"])
def test_orbit_keys_agree_with_brute_force(monkeypatch, exact):
    # for every ordered pair of occurrences of one pattern, equal orbit
    # keys must mean that an exhaustive search over node and edge
    # permutations finds an automorphism carrying one onto the other, on
    # every state; on a state whose certificate is exact, the keys must be
    # equal exactly when it does. orbit_key reads no certificate, so with
    # none taken as exact (inexact) every key is unchanged
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(20261019)
    draws = [(random_ground(rng, sig, max_nodes=6, name_pool=("a", "b")),
              random_solid_pattern(rng, sig, max_nodes=2, name_pool=("x", "y")))
             for _ in range(600)]
    # doubled states: the two copies of a parent are one colour but two
    # twin classes, so about half of these certificates are not exact
    for _ in range(300):
        b = random_ground(rng, sig, max_nodes=3, name_pool=("a", "b"))
        draws.append((merge(b, b), random_solid_pattern(rng, sig, max_nodes=2,
                                                        name_pool=("x", "y"))))
    # random draws seldom need the link images: here the two C are
    # interchangeable, but x lands on the B link of one and not of the other
    region = frozenset({("r", 0)})
    draws.append((_mk(sig, 1, 0, "CBCB", ((),) * 4, (region,) * 4, (),
                      [(("e", 0), ("e", 1)), (("e", 0),), (("e", 3), ("e", 2)), (("e", 3),)],
                      (), frozenset(), 4),
                  _mk(sig, 1, 0, "C", ((),), (region,), (), [(("o", "x"), ("o", "y"))],
                      (), frozenset("xy"), 0)))
    # two twin C on two parallel closed edges: x and y may swap edges, as
    # the automorphism that swaps the edges and fixes every node shows
    draws.append((_mk(sig, 1, 0, "CCD", ((),) * 3, (region,) * 3, (),
                      [(("e", 0), ("e", 1)), (("e", 1), ("e", 0)), ()], (), frozenset(), 2),
                  draws[-1][1]))
    # twin C with their ports in other orders, and a B on one edge: x
    # lands on that edge from one C and on the other edge from the other
    draws.append((_mk(sig, 1, 0, "CCB", ((),) * 3, (region,) * 3, (),
                      [(("e", 0), ("e", 1)), (("e", 1), ("e", 0)), (("e", 0),)],
                      (), frozenset(), 2),
                  draws[-1][1]))
    # and with a third C: two C share x's edge or not, on one pattern
    draws.append((_mk(sig, 1, 0, "CCC", ((),) * 3, (region,) * 3, (),
                      [(("e", 0), ("e", 1)), (("e", 0), ("e", 1)), (("e", 1), ("e", 0))],
                      (), frozenset(), 2),
                  _mk(sig, 1, 0, "CC", ((),) * 2, (region,) * 2, (),
                      [(("o", "x"), ("o", "y")), (("o", "z"), ("o", "w"))],
                      (), frozenset("xyzw"), 0)))
    hits = [(state, certificate(state)[0], find_occurrences(state, pattern))
            for state, pattern in draws]
    keys = [[orbit_key(state, h) for h in hs] for state, _, hs in hits]
    if not exact:
        take_inexact(monkeypatch)
        assert [[orbit_key(state, h) for h in hs] for state, _, hs in hits] == keys
    outcomes, merged = [], {True: 0, False: 0}     # equal-key pairs, by exactness
    for (state, exact_cert, hs), ks in zip(hits, keys):
        for (h1, k1), (h2, k2) in permutations(zip(hs, ks), 2):
            same = brute_same_orbit(state, h1, h2)
            assert same or k1 != k2
            assert same == (k1 == k2) or not exact_cert
            outcomes.append(same)
            merged[exact_cert] += k1 == k2
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 30
    assert merged[True] >= 200 and merged[False] >= 30


KEYS_OF_STATES = """
import sys
from bigengine.canon import certificate
from bigengine.elaborate import load_file
from bigengine.engine import explore
for path in sys.argv[1:]:
    print(path, [repr(certificate(s)) for s in explore(load_file(path), 60).states])
"""


def test_keys_do_not_depend_on_the_process():
    # colours hash only ints, so string hashing's per-process seed cannot
    # reach the certificates they order; vault.big has states whose
    # certificates are not exact
    src = str(MODELS.parent / "src")
    models = [str(MODELS / "secure_building.big"), str(MODELS / "pbrs_detect.big"),
              str(MODELS / "vault.big")]
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", KEYS_OF_STATES] + models,
                              capture_output=True, text=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 3 and "[]" not in outputs[0]
