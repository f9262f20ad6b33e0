"""Property tests of canon.certificate and of canon.orbit_key against the
brute-force and networkx oracles."""

import random
from ast import literal_eval
from itertools import permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bigengine import canon, engine, find_occurrences, iso_equal, merge  # noqa: E402
from bigengine.bigraph import _mk  # noqa: E402
from bigengine.canon import StateStore, certificate, orbit_key  # noqa: E402
from bigengine.elaborate import load, load_file  # noqa: E402
from bigengine.engine import explore, step_distribution  # noqa: E402
from bigengine.printing import print_bigraph  # noqa: E402

from conftest import MODELS  # noqa: E402
from genutil import (DEFAULT_CONTROLS, brute_iso, brute_same_orbit, make_sig,  # noqa: E402
                     nx_iso, permuted, random_ground, random_solid_pattern,
                     reference_orbit_key, reference_refine, swapped, walk_colours,
                     with_twins)
from test_engine import (CYCLES, PORT_ORDER, ROOM_PAIRS, ROOMS, SETTLE_PICKS,  # noqa: E402
                         TWINS)

SIG = make_sig(DEFAULT_CONTROLS)
rngs = st.randoms(use_true_random=False)


def decoded(sig, cert):
    """The bigraph an exact certificate describes, node p at position p:
    each row's k twins take the k positions from its colour's on, and the
    e-th listed closed edge is edge e. An edge that lists a row's
    position m times gives each of its twins m / k ports on the edge,
    and one that lists ~r holds the r-th inner name."""
    exact, regions, outer, rows, edges, sites, inner = cert
    assert exact
    ctrl, params, parents, ports, size = [], [], [], [], {}

    def places(xs):
        return frozenset(("n", x) if x >= 0 else ("r", ~x) for x in xs)

    for p, k, label, pars, names in rows:
        assert p == len(ctrl)
        size[p] = k
        c, ps = literal_eval(label) if label.startswith("(") else (label, ())
        ctrl += [c] * k
        params += [ps] * k
        parents += [places(pars)] * k
        ports += [[("o", x) for x in names] for _ in range(k)]
    links = {x[0]: ("o", x[1]) for x in inner if isinstance(x, tuple)}
    for e, ends in enumerate(edges):
        for p in set(ends):
            if p < 0:
                links[inner[~p]] = ("e", e)
            else:
                for q in range(p, p + size[p]):
                    ports[q] += [("e", e)] * (ends.count(p) // size[p])
    return _mk(sig, regions, len(sites), ctrl, params, parents, map(places, sites),
               [tuple(hs) for hs in ports], links.items(), frozenset(outer), len(edges))


@settings(max_examples=300)
@given(rngs)
def test_certificate_ignores_numbering_and_describes_the_state(rng):
    # renumbering keeps the certificate, and the bigraph it describes is
    # the state: so equal certificates mean isomorphic states
    nx = pytest.importorskip("networkx")
    a = with_twins(random_ground(rng, SIG, max_nodes=8, share_prob=0.2), rng)
    cert = certificate(a)
    assert certificate(permuted(a, rng)) == cert
    if cert[0]:
        assert nx_iso(nx, decoded(a.sig, cert), a)


@settings(max_examples=300)
@given(rngs)
def test_certificate_agrees_with_oracles(rng):
    # two twin-adding draws from one small, dense base, the second maybe
    # with two nodes' ports or controls swapped: often isomorphic, often
    # the same size but not isomorphic
    nx = pytest.importorskip("networkx")
    base = random_ground(rng, SIG, max_nodes=4, name_pool=("a", "b"), max_regions=1)
    a, b = with_twins(base, rng), with_twins(base, rng)
    b = permuted(swapped(b, rng) if rng.random() < 0.5 else b, rng)
    same = brute_iso(a, b)
    assert nx_iso(nx, a, b) == same
    if same:
        assert certificate(a) == certificate(b)
    else:
        assert not certificate(a)[0] or certificate(a) != certificate(b)


def with_inner(b, rng):
    """b with inner names, some wired to its outer names and some to its
    closed edges."""
    inner = [("w%d" % k, ("o", x)) for k, x in enumerate(sorted(b.outer)) if rng.random() < 0.5]
    inner += [("v%d" % k, ("e", k)) for k in range(b.edges) if rng.random() < 0.5]
    return _mk(b.sig, b.regions, b.sites, b.ctrl, b.params, b.node_parents, b.site_parents,
               b.ports, inner, b.outer, b.edges)


@settings(max_examples=300)
@given(rngs)
def test_certificate_of_open_bigraphs(rng):
    # bigraphs with sites and inner names: isomorphic ones get equal
    # certificates, an exact one describes its bigraph, and iso_equal,
    # which compares certificates first, agrees with both oracles
    nx = pytest.importorskip("networkx")
    base = random_solid_pattern(rng, SIG, max_nodes=4, name_pool=("a", "b"), share_prob=0.2)
    a, b = with_inner(with_twins(base, rng), rng), with_inner(with_twins(base, rng), rng)
    b = permuted(swapped(b, rng) if rng.random() < 0.5 else b, rng)
    same = brute_iso(a, b)
    assert nx_iso(nx, a, b) == same == iso_equal(a, b)
    cert = certificate(a)
    assert certificate(permuted(a, rng)) == cert
    if same:
        assert certificate(b) == cert
    if cert[0]:
        assert nx_iso(nx, decoded(a.sig, cert), a)


@settings(max_examples=300)
@given(rngs)
def test_orbit_key_agrees_with_brute_force(rng):
    # two occurrences with equal orbit keys are mapped onto each other by
    # an automorphism, on any state; on a state whose certificate is exact
    # their keys are equal exactly when one is. A doubled state's two
    # copies are one colour, so its certificate is often not exact
    state = random_ground(rng, SIG, max_nodes=3, name_pool=("a", "b"))
    state = merge(state, state) if rng.random() < 0.5 else with_twins(state, rng)
    pattern = random_solid_pattern(rng, SIG, max_nodes=2, name_pool=("x", "y"))
    for h1, h2 in permutations(find_occurrences(state, pattern), 2):
        same = brute_same_orbit(state, h1, h2)
        equal = orbit_key(state, h1) == orbit_key(state, h2)
        assert same or not equal
        assert same == equal or not certificate(state)[0]


def same_groups(xs, ys):
    """Whether two lists of keys split their positions alike."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def test_orbit_keys_group_hits_as_reference_keys():
    # the walk's twin classes and closed edges' port classes split each
    # state's hits of each left side as twin keys and closed edges'
    # points do: on every state that the bundled and the inline models
    # store at -M 60, and on random states with twins under random
    # patterns
    cases = []
    for source in (sorted(MODELS.glob("*.big"))
                   + [ROOMS, TWINS, CYCLES, PORT_ORDER, SETTLE_PICKS, ROOM_PAIRS]):
        spec = load(source) if isinstance(source, str) else load_file(source)
        lhss = {id(r.lhs): r.lhs for cls in spec.classes for r in cls.rules}
        cases += [(s, lhs) for s in explore(spec, 60).states for lhs in lhss.values()]
    rng = random.Random(37)
    for _ in range(300):
        state = with_twins(random_ground(rng, SIG, max_nodes=8, share_prob=0.2), rng)
        cases.append((state, random_solid_pattern(rng, SIG, max_nodes=2, name_pool=("x", "y"))))
    merged = 0
    for state, pattern in cases:
        hits = find_occurrences(state, pattern)
        keys = [orbit_key(state, h) for h in hits]
        assert same_groups(keys, [reference_orbit_key(state, h) for h in hits])
        merged += len(keys) - len(set(keys))
    assert merged > 250


@pytest.mark.parametrize("source", [CYCLES, MODELS / "vault.big"], ids=["CYCLES", "vault"])
def test_states_without_certificate_merge_through_iso_equal(monkeypatch, source):
    # a renumbered copy of every stored state finds it again; those whose
    # certificate is not exact through iso_equal
    spec = load(source) if isinstance(source, str) else load_file(source)
    states = explore(spec, 60).states
    bare = sum(not certificate(s)[0] for s in states)
    assert bare > 0
    checks = []
    real = canon.iso_equal
    monkeypatch.setattr(canon, "iso_equal", lambda a, b: checks.append(1) or real(a, b))
    store = StateStore()
    for k, s in enumerate(states):
        assert store.insert(s) == (k, True)
    rng = random.Random(11)
    checks.clear()
    for k, s in enumerate(states):
        assert store.insert(permuted(s, rng)) == (k, False)
    assert len(checks) >= bare


def test_only_vault_states_lack_exact_certificates(monkeypatch):
    # 344 of the 346 states that explore -M 60 stores over the bundled
    # models have an exact certificate, and the other 2 are vault.big's;
    # on those, and on the CYCLES init, no two hits share an orbit key, so
    # the step applies (and settles) every hit
    stored = {path.name: explore(load_file(path), 60).states
              for path in sorted(MODELS.glob("*.big"))}
    assert (len(stored), sum(map(len, stored.values()))) == (22, 346)
    bare = [(name, s) for name, states in stored.items() for s in states
            if not certificate(s)[0]]
    assert [name for name, _ in bare] == ["vault.big"] * 2
    vault, cycles = load_file(MODELS / "vault.big"), load(CYCLES)
    assert not certificate(cycles.init)[0]
    settles = 0
    real = engine.reduce_instantaneous

    def counted(*args):
        nonlocal settles
        settles += 1
        return real(*args)

    monkeypatch.setattr(engine, "reduce_instantaneous", counted)
    hits = []
    for spec, state in [(vault, s) for _, s in bare] + [(cycles, cycles.init)]:
        settles = 0
        hits.append(sum(len(g.members) for g in step_distribution(state, spec)))
        assert settles == hits[-1]
    assert hits == [1, 2, 7]


def partitions(ncol, ecol, exact):
    """(node partition, edge partition, exact) of a refinement: each
    partition as the sorted lists of indices that share a colour."""
    def blocks(cs):
        got: dict = {}
        for i, c in enumerate(cs):
            got.setdefault(c, []).append(i)
        return sorted(got.values())
    return blocks(ncol), blocks(ecol), exact


def test_refinement_partition_matches_reference():
    # one neighbour list per class and edges recoloured from the same
    # round's node colours must stop at the partition that three tuples
    # per class and last-round edge colours stop at, with the same flag
    stored = [s for path in sorted(MODELS.glob("*.big"))
              for s in explore(load_file(path), 60).states]
    assert (len(stored), sum(certificate(s)[0] for s in stored)) == (346, 344)
    rng = random.Random(17)
    drawn = [with_twins(random_ground(rng, SIG, max_nodes=8, share_prob=0.2), rng)
             for _ in range(300)]
    assert any(b.outer for b in drawn) and any(len(ps) > 1 for b in drawn for ps in b.node_parents)
    for b in stored + explore(load(CYCLES), 60).states + drawn:
        assert (partitions(*walk_colours(b), certificate(b)[0])
                == partitions(*reference_refine(b)))


def chain(levels):
    """R.R.….1, levels deep: one region, each R the only child of the
    last."""
    return load("ctrl R = 0;\nbig c = %s1;\nbegin brs init c; rules = []; end\n"
                % ("R." * levels)).init


def test_refinement_partition_matches_reference_where_seeds_fold():
    # a class's seed reads its node parents' seeds and an edge's its
    # ports': on building states doors are told apart by room before any
    # round, on chains each level reads the one above, and on shared
    # draws with twins a class has several node parents. The partitions
    # and the flag stay the reference's, and renumbering keeps the
    # certificate
    rooms = explore(load(ROOMS), 60).states
    rng = random.Random(23)
    drawn = [with_twins(random_ground(rng, SIG, max_nodes=8, share_prob=0.5), rng)
             for _ in range(300)]
    assert len(rooms) == 16
    assert sum(sum(p[0] == "n" for p in ps) > 1 for b in drawn for ps in b.node_parents) > 50
    for b in rooms + [chain(n) for n in range(1, 61)] + drawn:
        assert (partitions(*walk_colours(b), certificate(b)[0])
                == partitions(*reference_refine(b)))
        assert certificate(permuted(b, rng)) == certificate(b)


SIGNED_ZERO = """
ctrl R = 0;
atomic ctrl A = 0;
atomic fun ctrl P(x) = 0;

react pos = A --> P(0.0);
react neg = A --> P(-0.0);

big initial = R.(A | A);

begin brs
  init initial;
  rules = [ {pos, neg} ];
end
"""


def test_signed_zero_parameters_stay_apart():
    # 0.0 == -0.0, but the two print differently, so they are different
    # labels: R.(A | A) reaches six states, not three, and a P(0.0) is no
    # twin of a P(-0.0) beside it
    states = explore(load(SIGNED_ZERO), 60).states
    assert len({print_bigraph(s) for s in states}) == len(states) == 6
    rng = random.Random(5)
    for s in states:
        assert certificate(s)[0]
        assert certificate(permuted(s, rng)) == certificate(s)
