"""``bigraph._node_maps`` draws each node's candidates from a placed
neighbour's image; ``genutil.reference_node_maps`` tries every candidate
at every position. Both callers, the matcher and ``iso_equal``, must get
the same maps in the same sequence from either, with the order and
candidates they really pass."""

import random

import pytest

from bigengine import bigraph, canon, matching
from bigengine.elaborate import load, load_file
from bigengine.engine import explore
from bigengine.matching import _occurrences, check_constraints, find_occurrences

from conftest import MODELS
from genutil import (
    brute_images,
    make_sig,
    matcher_images,
    permuted,
    random_ground,
    random_solid_pattern,
    reference_node_maps,
    take_inexact,
)
from test_engine import CYCLES


@pytest.fixture
def compared(monkeypatch):
    """Patches both callers' node-map search to check it against the
    reference; returns the list of compared searches' map counts."""
    counts = []

    def checked(a, b, order, candidates):
        got = [dict(fwd) for fwd in bigraph._node_maps(a, b, order, candidates)]
        want = [dict(fwd) for fwd in reference_node_maps(a, b, order, candidates)]
        assert got == want
        counts.append(len(got))
        return iter(got)

    monkeypatch.setattr(matching, "_node_maps", checked)
    monkeypatch.setattr(canon, "_node_maps", checked)
    return counts


def test_node_maps_agree_on_bundled_models(compared):
    # every rule side, guard and predicate against every stored state;
    # guards also against the parameters and contexts they really read
    searched = 0
    for path in sorted(MODELS.glob("*.big")):
        spec = load_file(path)
        patterns = [rule.lhs for rule in spec.rules()]
        patterns += [c.pattern for rule in spec.rules() for c in rule.constraints]
        patterns += list(spec.preds.values())
        for state in explore(spec, 60).states:
            for pattern in patterns:
                list(_occurrences(state, pattern))
                searched += 1
            for rule in spec.rules():
                for occ in _occurrences(state, rule.lhs):
                    check_constraints(occ, rule.constraints)
    assert searched >= 1400
    assert len(compared) >= 1000 and sum(compared) >= 1000


def test_node_maps_agree_on_random_draws(compared):
    # shared places and dense links: targets large enough that node
    # indices pass a small set's table size, so an unsorted draw shows
    sig = make_sig([("A", 0, False), ("B", 1, False), ("C", 2, True), ("D", 1, True)])
    rng = random.Random(2026)
    for k in range(800):
        pool = ("a", "b") if k % 2 else ("a", "b", "c", "d")
        target = random_ground(rng, sig, max_nodes=14, name_pool=pool, share_prob=0.3)
        pattern = random_solid_pattern(rng, sig, max_nodes=4, name_pool=pool,
                                       share_prob=0.3)
        list(_occurrences(target, pattern))
    assert len(compared) >= 300 and sum(compared) >= 1000


def test_node_maps_agree_in_iso_equal(compared, monkeypatch):
    # colour-class candidates, the certificates taken as not exact so that
    # every iso_equal searches
    states = explore(load_file(MODELS / "vault.big"), 60).states
    states += explore(load(CYCLES), 60).states
    take_inexact(monkeypatch)
    rng = random.Random(19)
    compared.clear()
    for state in states:
        assert canon.iso_equal(state, permuted(state, rng))
    assert len(compared) == len(states) and all(compared)


# candidates with a placed parent or child that the pattern does not give
# them. In "parent" and "child" the top B lies under the sited A's image:
# fits rejects it as B's placed parent (A placed first) or as A's placed
# child (B placed first, having fewer candidates). On a forest
# _finalize's position walk would reject it too, so the shared K keeps
# these targets off that path. "chains" and "pairs" hold two copies
# linked crosswise, so a node drawn by a link lands in the other copy
PLACED = """
ctrl A = 0; atomic ctrl B = 0; atomic ctrl K = 0; ctrl M = 0;
ctrl P = 1; ctrl Q = 0; atomic ctrl R = 1; ctrl D = 0; atomic ctrl E = 0;
ctrl S = 0; atomic ctrl T = 1; atomic ctrl U = 1;
big tops = A.id || B;
big parent = A.B | share K by ([{0,1}], 2) in (M.id | M.id);
big child = A.B | A.1 | share K by ([{0,1}], 2) in (M.id | M.id);
big chain = P{x}.Q.R{x};
big chains = /a/b (P{a}.Q.R{b} | P{b}.Q.R{a}) | K | D.Q.E;
big pair = S.(T{x} | U{x});
big pairs = /a/b (S.(T{a} | U{b}) | S.(T{b} | U{a})) | K | S.(K | K) | S.(K | K);
react r = K --> K;
begin brs init parent; rules = [ {r} ]; end
"""


@pytest.mark.parametrize("pattern, target, count", [
    ("tops", "parent", 0), ("tops", "child", 1), ("chain", "chains", 0), ("pair", "pairs", 0)])
def test_placed_neighbours_outside_the_pattern_fail(pattern, target, count):
    bigs = load(PLACED).bigs
    occs = find_occurrences(bigs[target], bigs[pattern])
    assert len(occs) == count
    assert matcher_images(occs) == brute_images(bigs[target], bigs[pattern])
