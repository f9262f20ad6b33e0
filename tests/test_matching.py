import random
import time
from functools import reduce

import pytest

from bigengine import (
    MatchConstraint,
    check_constraints,
    find_occurrences,
    identity,
    iso_equal,
    make_atom,
    matches_predicate,
    merge,
    nest,
    one,
    parallel,
)
from bigengine.bigraph import Control, Signature, _mk, close, idle
from bigengine.elaborate import load, load_file
from bigengine.engine import explore
from bigengine.errors import PatternNotSolid, TargetNotGround
from bigengine.matching import _occurrences, _piece, _wiring, recompose
from bigengine.printing import print_bigraph

from conftest import MODELS
from genutil import (
    DEFAULT_CONTROLS,
    brute_images,
    make_sig,
    matcher_images,
    parts,
    random_ground,
    random_solid_pattern,
    reference_find_occurrences,
    reference_pieces,
    reference_recompose,
    well_formed,
    with_twins,
)
from test_engine import ROOMS


@pytest.fixture
def server_sig():
    return Signature([
        Control("Server", 0),
        Control("Data", 0, atomic=True),
        Control("Room", 0),
        Control("Intruder", 0, atomic=True),
        Control("Camera", 0, atomic=True),
        Control("Entrance", 0, atomic=True),
    ])


def test_site_absorbs_contents(server_sig):
    target = nest(make_atom(server_sig, "Server"),
                  merge(make_atom(server_sig, "Data"), make_atom(server_sig, "Data")))
    pattern = make_atom(server_sig, "Server")        # Server.id
    occs = find_occurrences(target, pattern)
    assert len(occs) == 1
    param = _piece(occs[0], True, parts(occs[0]))   # the one part, as a guard reads it
    assert param.is_ground()
    assert sorted(param.ctrl) == ["Data", "Data"]


def test_control_mismatch(server_sig):
    target = nest(make_atom(server_sig, "Room"), make_atom(server_sig, "Data"))
    pattern = nest(make_atom(server_sig, "Room"), make_atom(server_sig, "Camera"))
    assert find_occurrences(target, pattern) == []


def test_exact_children_without_site(server_sig):
    # Server.Data (no site) must not match a server with two Data
    target = nest(make_atom(server_sig, "Server"),
                  merge(make_atom(server_sig, "Data"), make_atom(server_sig, "Data")))
    pattern = nest(make_atom(server_sig, "Server"), make_atom(server_sig, "Data"))
    assert find_occurrences(target, pattern) == []


def detect_room(sig, cameras):
    inner = make_atom(sig, "Intruder")
    for _ in range(cameras):
        inner = merge(inner, make_atom(sig, "Camera"))
    return nest(make_atom(sig, "Room"), inner)


def detect_pattern(sig):
    return nest(make_atom(sig, "Room"),
                merge(merge(make_atom(sig, "Intruder"), make_atom(sig, "Camera")),
                      identity(sig)))


def test_count_occurrences(server_sig):
    pattern = detect_pattern(server_sig)
    two_rooms = merge(detect_room(server_sig, 1), detect_room(server_sig, 1))
    assert len(find_occurrences(two_rooms, pattern)) == 2
    assert len(find_occurrences(nest(make_atom(server_sig, "Room"), one(server_sig)),
                                pattern)) == 0
    assert len(find_occurrences(detect_room(server_sig, 1), pattern)) == 1
    assert len(find_occurrences(detect_room(server_sig, 2), pattern)) == 2


def test_leave_secure_unique_occurrence():
    spec = load_file(MODELS / "leave_secure.big")
    rule = next(spec.rules())
    occs = find_occurrences(spec.init, rule.lhs)
    assert len(occs) == 1


def test_matches_predicate_secure_building():
    spec = load_file(MODELS / "secure_building.big")
    assert matches_predicate(spec.init, spec.preds["entrance"])
    assert not matches_predicate(spec.init, spec.preds["seen"])
    assert not matches_predicate(spec.init, spec.preds["serverRoom"])


def test_self_match(server_sig):
    state = detect_room(server_sig, 1)
    assert matches_predicate(state, state)


def test_pattern_names_match_any_link():
    sig = Signature([Control("A", 1, atomic=True)])
    from bigengine import close
    target = close("w", merge(make_atom(sig, "A", names=["w"]),
                              make_atom(sig, "A", names=["w"])))
    pattern = make_atom(sig, "A", names=["x"])
    assert matches_predicate(target, pattern)
    # two names may land on the same closed link
    pattern2 = merge(make_atom(sig, "A", names=["x"]), make_atom(sig, "A", names=["y"]))
    assert matches_predicate(target, pattern2)


def test_closed_pattern_edge_needs_exact_link():
    sig = Signature([Control("A", 1, atomic=True)])
    from bigengine import close
    two = close("w", merge(make_atom(sig, "A", names=["w"]),
                           make_atom(sig, "A", names=["w"])))
    three = close("w", merge(merge(make_atom(sig, "A", names=["w"]),
                                   make_atom(sig, "A", names=["w"])),
                             make_atom(sig, "A", names=["w"])))
    pattern = close("x", merge(make_atom(sig, "A", names=["x"]),
                               make_atom(sig, "A", names=["x"])))
    assert matches_predicate(two, pattern)
    assert not matches_predicate(three, pattern)


def test_errors(server_sig):
    with pytest.raises(TargetNotGround):
        find_occurrences(make_atom(server_sig, "Room"), detect_pattern(server_sig))
    with pytest.raises(PatternNotSolid):
        find_occurrences(detect_room(server_sig, 1), one(server_sig))


def test_check_constraints_param_and_ctx():
    spec = load_file(MODELS / "connect_server.big")
    rule = next(spec.rules())
    sig = spec.signature
    # room with a visitor: occurrence exists but the guard blocks it
    from bigengine import close
    emp = close("x", make_atom(sig, "Employee", names=["x"]))
    srv = close("s", nest(make_atom(sig, "Server", names=["s"]), one(sig)))
    room = nest(make_atom(sig, "Room"),
                merge(merge(emp, srv), make_atom(sig, "Visitor")))
    occs = find_occurrences(room, rule.lhs)
    assert occs
    assert all(not check_constraints(o, rule.constraints) for o in occs)
    assert check_constraints(occs[0], ()) is True
    # context-presence constraint
    room_clear = nest(make_atom(sig, "Room"), merge(emp, srv))
    state = merge(room_clear, make_atom(sig, "Visitor"))
    occs2 = find_occurrences(state, rule.lhs)
    assert occs2 and all(check_constraints(o, rule.constraints) for o in occs2)
    present_ctx = MatchConstraint("present_ctx", make_atom(sig, "Visitor"))
    absent_ctx = MatchConstraint("absent_ctx", make_atom(sig, "Visitor"))
    assert check_constraints(occs2[0], (present_ctx,))
    assert not check_constraints(occs2[0], (absent_ctx,))


def test_merged_parameter(server_sig):
    sig = server_sig
    room = lambda *inside: nest(make_atom(sig, "Room"), merge(*inside) if inside else one(sig))
    state = merge(room(make_atom(sig, "Data"), make_atom(sig, "Camera")), room())
    # a guard reads every part under one region, laid site by site
    occ = find_occurrences(state, room(identity(sig)))[0]
    assert _piece(occ, True, parts(occ)) == reference_pieces(occ)[1][0]
    two = find_occurrences(state, parallel(room(identity(sig)), room(identity(sig))))[0]
    assert _piece(two, True, parts(two)) == merge(*reference_pieces(two)[1])
    none = find_occurrences(state, room())[0]
    assert _piece(none, True, parts(none)) == one(sig)


def test_determinism(server_sig):
    target = merge(detect_room(server_sig, 2), detect_room(server_sig, 1))
    pattern = detect_pattern(server_sig)
    first = find_occurrences(target, pattern)
    second = find_occurrences(target, pattern)
    assert [o.node_map for o in first] == [o.node_map for o in second]
    assert [o.link_map for o in first] == [o.link_map for o in second]


def test_recomposition_soundness_random():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(99)
    checked = 0
    for _ in range(250):
        target = random_ground(rng, sig, max_nodes=8)
        pattern = random_solid_pattern(rng, sig, max_nodes=3)
        for occ in find_occurrences(target, pattern):
            assert iso_equal(recompose(occ, pattern, range(pattern.sites)), target)
            checked += 1
    assert checked > 50


def test_matcher_agrees_with_brute_force_small():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(123)
    for _ in range(60):
        target = random_ground(rng, sig, max_nodes=6)
        pattern = random_solid_pattern(rng, sig, max_nodes=3)
        got = matcher_images(find_occurrences(target, pattern))
        want = brute_images(target, pattern)
        assert got == want


def test_matcher_agrees_with_brute_force_link_dense():
    # one or two names, nearly all closed, in two merged pieces: most nodes
    # share a link and the target has several, so node maps that split a
    # pattern link are cut before the exact link assignment (about one
    # node map in six here)
    sig = make_sig([("A", 0, False), ("B", 1, False), ("C", 2, True)])
    rng = random.Random(4711)
    found = 0
    for k in range(120):
        pool = ("a",) if k % 2 else ("a", "b")
        target = merge(*(random_ground(rng, sig, max_nodes=4, name_pool=pool, close_prob=0.9)
                         for _ in range(2)))
        pattern = random_solid_pattern(rng, sig, max_nodes=3, name_pool=pool,
                                       close_prob=0.8)
        occs = find_occurrences(target, pattern)
        assert matcher_images(occs) == brute_images(target, pattern)
        for occ in occs:
            assert iso_equal(recompose(occ, pattern, range(pattern.sites)), target)
        found += len(occs)
    assert found >= 40


def test_matcher_agrees_with_brute_force_shared():
    # place DAGs: targets with multi-parent nodes, patterns with nodes under
    # two parents (two regions, or a region and a node) and shared sites,
    # which reach the region-position, parameter-routing and closure checks
    sig = make_sig([("A", 0, False), ("B", 1, False), ("D", 0, True)])
    rng = random.Random(31)
    shared = 0
    for _ in range(3000):
        target = random_ground(rng, sig, max_nodes=6, share_prob=0.5)
        pattern = random_solid_pattern(rng, sig, max_nodes=3, share_prob=0.5)
        occs = find_occurrences(target, pattern)
        assert matcher_images(occs) == brute_images(target, pattern)
        for occ in occs:
            assert iso_equal(recompose(occ, pattern, range(pattern.sites)), target)
            shared += any(len(target.node_parents[t]) > 1 for t in occ.node_map.values())
    assert shared >= 100
    # sharing-free targets, nested, where _finalize routes nothing: a
    # shared site leaves its parents without a site of their own, and a
    # region's position can fall inside another region's parameter
    found = 0
    for _ in range(3000):
        target = random_ground(rng, sig, max_nodes=6, max_regions=1)
        pattern = random_solid_pattern(rng, sig, max_nodes=3, share_prob=0.5)
        occs = find_occurrences(target, pattern)
        assert matcher_images(occs) == brute_images(target, pattern)
        for occ in occs:
            assert iso_equal(recompose(occ, pattern, range(pattern.sites)), target)
        found += len(occs)
    assert found >= 500



def test_tops_route_per_parent_set():
    # image node X has parameter tops under {X} and under {X, Y}; a solid
    # pattern gives X one site, so only one of those sets can name a site
    # and the other must end the occurrence, as in brute force
    sig = make_sig([("X", 0, False), ("Y", 0, False), ("D", 0, True)])
    r, x, y = ("r", 0), ("n", 0), ("n", 1)

    def target(tops):                  # X and Y in one region, a D under each set
        k = 2 + len(tops)
        return _mk(sig, 1, 0, ["X", "Y"] + ["D"] * len(tops), [()] * k,
                   [frozenset({r})] * 2 + [frozenset(ps) for ps in tops], (),
                   [()] * k, (), (), 0)

    def pattern(sites):                # X and Y in one region over these sites
        return _mk(sig, 1, len(sites), ["X", "Y"], [(), ()], [frozenset({r})] * 2,
                   [frozenset(ps) for ps in sites], [(), ()], (), (), 0)

    shared, split = pattern([{x, y}]), pattern([{x}, {y}])
    cases = [([{x, y}, {x}], shared, 0), ([{x, y}, {y}], shared, 0),
             ([{x}, {x, y}], shared, 0), ([{y}, {x, y}], shared, 0),
             ([{x}, {x, y}], split, 0), ([{x, y}, {x}], split, 0),
             ([{x, y}, {x, y}], shared, 1), ([{x}, {y}], split, 1),
             ([{x, y}, {x, y}], split, 0), ([{x}, {y}], shared, 0)]
    for tops, pat, count in cases:
        t = target(tops)
        occs = find_occurrences(t, pat)
        assert matcher_images(occs) == brute_images(t, pat)
        assert len(occs) == count
        for occ in occs:
            assert iso_equal(recompose(occ, pat, range(pat.sites)), t)
            # a parameter top: a part node whose parents are image nodes
            tops = [s for w, s in parts(occ).items()
                    if all(q[0] == "n" and q[1] in occ.image for q in t.node_parents[w])]
            assert sorted(tops) == ([0, 0] if pat is shared else [0, 1])


SWAPPED_PARTS = """
ctrl A = 0;
ctrl L = 0;
ctrl R = 0;
atomic ctrl X = 0;
atomic ctrl Y = 0;
react r = A.id | A.id --> L.id | R.id;
big s0 = A.X | A.Y;
big bare = A.1 | A.1;
begin brs
  init s0;
  rules = [ {r} ];
end
"""


def test_occurrences_that_swap_parts_both_count():
    # one image, two node maps: the sites get X and Y, or Y and X, which
    # rewrite to L.X | R.Y and to L.Y | R.X; with empty parts the swap
    # rewrites alike and counts once
    spec = load(SWAPPED_PARTS)
    (rule,) = spec.rules()
    occs = find_occurrences(spec.init, rule.lhs)
    assert len(occs) == 2 and occs[0].image == occs[1].image
    assert len(find_occurrences(spec.bigs["bare"], rule.lhs)) == 1
    states = explore(spec, 60).states
    assert sorted(map(print_bigraph, states)) == ["A.X | A.Y", "L.X | R.Y", "L.Y | R.X"]


# the symmetric left sides: two node maps onto one image (A | A, A || A,
# whose regions do not tell the As apart, S.id | S.id and R.(A | A)), or
# one node map and two closed edges with the same ports
SYMMETRIC_SIDES = """
atomic ctrl A = 0;
ctrl S = 0;
ctrl R = 0;
atomic ctrl P = 2;
atomic ctrl Q = 2;
react pair = A | A --> A | A;
react apart = A || A --> A || A;
react hosts = S.id | S.id --> S.id | S.id;
react room = R.(A | A) --> R.(A | A);
react crossed = /x/y (P{x,y} | Q{x,y}) --> /x/y (P{x,y} | Q{x,y});
big s0 = A | A | A | S.1 | S.A | S.1 | R.(A | A) | /x/y (P{x,y} | Q{x,y});
begin brs
  init s0;
  rules = [ {pair, apart, hosts, room, crossed} ];
end
"""


def test_find_occurrences_drops_only_hits_that_repeat_an_image():
    # find_occurrences compares only hits that repeat a node image set,
    # and gives the hits of a table of every image, in the same order and
    # with equal parts: on the symmetric sides, on every stored state of
    # the bundled models and ROOMS against each of their left sides, and
    # on random draws with and without twins
    spec = load(SYMMETRIC_SIDES)
    cases = [(spec.init, rule.lhs) for rule in spec.rules()]
    for source in sorted(MODELS.glob("*.big")) + [ROOMS]:
        spec = load(source) if source is ROOMS else load_file(source)
        sides = {id(rule.lhs): rule.lhs for rule in spec.rules()}.values()
        cases += [(state, lhs) for state in explore(spec, 60).states for lhs in sides]
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(29)
    for _ in range(300):
        target = random_ground(rng, sig, max_nodes=8, share_prob=0.2)
        pattern = random_solid_pattern(rng, sig, max_nodes=4, share_prob=0.2)
        cases += [(target, pattern), (with_twins(target, rng), with_twins(pattern, rng))]
    repeated = 0                                 # searches that dropped a hit
    for target, pattern in cases:
        got, want = find_occurrences(target, pattern), reference_find_occurrences(target, pattern)
        assert got == want and list(map(parts, got)) == list(map(parts, want))
        repeated += len(list(_occurrences(target, pattern))) > len(want)
    assert len(cases) > 1400 and repeated > 10


def test_count_zero_iff_predicate_false():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(5)
    for _ in range(40):
        target = random_ground(rng, sig, max_nodes=6)
        pattern = random_solid_pattern(rng, sig, max_nodes=3)
        assert (len(find_occurrences(target, pattern)) == 0) == \
            (not matches_predicate(target, pattern))


def test_predicate_stops_at_first_match(server_sig):
    # R.(A|...|A) has 9! node maps onto itself; existence needs only one
    atoms = [make_atom(server_sig, "Data") for _ in range(9)]
    state = nest(make_atom(server_sig, "Room"), reduce(merge, atoms))
    start = time.perf_counter()
    assert matches_predicate(state, state)
    assert time.perf_counter() - start < 1.0
    # automorphic node maps still give one occurrence
    flat = reduce(merge, atoms[:5])
    assert len(find_occurrences(flat, flat)) == 1


def test_sharing_target_matching(building_sig):
    # a pattern node can match a node that has two parents in the target
    from bigengine import share
    host = nest(make_atom(building_sig, "Room"),
                merge(make_atom(building_sig, "Camera"), make_atom(building_sig, "Camera")))
    state = share(make_atom(building_sig, "Adult"), [{0, 1}], 2, host)
    pattern = make_atom(building_sig, "Adult")
    occs = find_occurrences(state, pattern)
    assert len(occs) == 1
    assert iso_equal(recompose(occs[0], pattern, range(pattern.sites)), state)
    # a camera with the adult inside, extra parent goes to the context
    cam_pat = nest(make_atom(building_sig, "Camera"), make_atom(building_sig, "Adult"))
    assert find_occurrences(state, cam_pat) == []   # adult also under the other camera


def test_shared_content_routes_to_one_site(building_sig):
    # an entity under two cameras can only be absorbed by a site whose
    # parent set covers both parents
    from bigengine import share
    host = nest(make_atom(building_sig, "Room"),
                merge(make_atom(building_sig, "Camera"), make_atom(building_sig, "Camera")))
    state = share(make_atom(building_sig, "Adult"), [{0, 1}], 2, host)
    # Camera.id cannot take the adult: its other parent lies outside the match
    cam_site = make_atom(building_sig, "Camera")
    assert find_occurrences(state, cam_site) == []
    # Room.id absorbs both cameras and the shared adult in one parameter
    room_site = make_atom(building_sig, "Room")
    occs = find_occurrences(state, room_site)
    assert len(occs) == 1
    param = _piece(occs[0], True, parts(occs[0]))
    adult = param.ctrl.index("Adult")
    assert len(param.node_parents[adult]) == 2
    assert iso_equal(recompose(occs[0], room_site, range(room_site.sites)), state)


def test_recomposition_on_corpus_states():
    from bigengine.engine import explore
    for name in ("secure_building.big", "vault.big", "fix_leave.big"):
        spec = load_file(MODELS / name)
        ts = explore(spec, 30)
        checked = 0
        for state in ts.states:
            for rule in spec.rules():
                for occ in find_occurrences(state, rule.lhs):
                    assert iso_equal(recompose(occ, rule.lhs, range(rule.lhs.sites)), state)
                    checked += 1
        assert checked


def test_recompose_closes_links_in_one_pass():
    # four names to close: three links stay in use, numbered in order, and
    # one (the edge K and P shared) is left idle by the right side
    sig = Signature([Control("K", 4, atomic=True), Control("J", 3, atomic=True),
                     Control("P", 1, atomic=True), Control("L", 1, atomic=True),
                     Control("M", 1, atomic=True), Control("N", 1, atomic=True)])

    def atoms(*specs):
        return reduce(merge, [make_atom(sig, c, names=ns) for c, ns in specs])

    def closed(names, b):
        return reduce(lambda acc, x: close(x, acc), names, b)

    target = closed("wxyz", atoms(("K", "wxyz"), ("P", "y"), ("L", "w"),
                                  ("M", "x"), ("N", "z")))
    occs = find_occurrences(target, atoms(("K", "abcd"), ("P", "c")))
    assert len(occs) == 6                  # a, b and d permute over w, x and z
    # the occurrence with a, b, c, d on w, x, y, z (closed in that order)
    (occ,) = [o for o in occs
              if [o.link_map[("o", x)] for x in "abcd"] == [("e", k) for k in range(4)]]
    assert len(_wiring(occ, parts(occ))[1]) == 4
    result = recompose(occ, merge(atoms(("J", "abd")), idle(sig, ["c"])), ())
    assert well_formed(result)
    assert result.edges == 3 and not result.outer
    assert result.ports[result.ctrl.index("J")] == (("e", 0), ("e", 1), ("e", 2))
    expected = closed("wxz", atoms(("J", "wxz"), ("L", "w"), ("M", "x"), ("N", "z")))
    assert iso_equal(result, expected)


def assert_splice_is_the_algebra(occ, pattern, entries):
    got = recompose(occ, pattern, entries)
    assert got == reference_recompose(occ, pattern, entries)
    # nodes with equal parents share one frozenset
    assert len({id(ps) for ps in got.node_parents}) == len(set(got.node_parents))
    # a guard's pieces: the parameters merged, the context with its holes plugged
    context, parameters, _, _ = reference_pieces(occ)
    owner = parts(occ)
    assert _piece(occ, True, owner) == (merge(*parameters) if parameters else one(context.sig))
    assert _piece(occ, False, owner) == _mk(context.sig, context.regions, 0, context.ctrl,
                                            context.params, context.node_parents, (),
                                            context.ports, (), context.outer, context.edges)


def test_splice_is_the_algebra_on_bundled_models():
    checked = 0
    for path in sorted(MODELS.glob("*.big")):
        spec = load_file(path)
        for state in explore(spec, 60).states:
            for rule in spec.rules():
                for occ in find_occurrences(state, rule.lhs):
                    assert_splice_is_the_algebra(occ, rule.rhs, rule.inst.entries)
                    checked += 1
    assert checked > 500


# an unwrap (a site right under a region) whose right side has its own
# closed link, a duplicate and a discard of parameters that a closed link
# crosses, a closed link inside one part, one inside the context, and a
# discard that leaves a closed link idle
SPLICE_MODEL = """
ctrl A = 0;
ctrl Box = 0;
atomic ctrl L = 1;
atomic ctrl K = 1;
atomic ctrl Tag = 1;
react unwrap = A.(id) --> /z (K{z} | L{z}) | id;
react dup = Box.(id) || Box.(id) --> Box.(id) || Box.(id) @[0,0];
react drop = Box.(id) || Box.(id) --> Box.(id) || Box.(id) @[1,1];
react cut = A.(Tag{x} | id) --> {x} | A.(1) @[];
big s0 = /x/c (K{c} | K{c} | Box.(L{x} | /y (L{y} | K{y}))
            || Box.(L{x} | A.(K{x} | /t (Tag{t} | A.(L{t})))));
begin brs
  init s0;
  rules = [ {unwrap, dup, drop, cut} ];
end
"""


OUTER_W0 = """
atomic ctrl A = 1; atomic ctrl B = 1; atomic ctrl C = 1; atomic ctrl D = 1;
react r = B{x} --> D{x};
big s0 = /e (A{e} | B{e}) | C{w0};
begin brs init s0; rules = [ {r} ]; end
"""


def test_splice_is_the_algebra_on_copies_and_crossing_links():
    spec = load(SPLICE_MODEL)
    ts = explore(spec, 60)
    assert not ts.partial and len(ts.states) > 30
    applied = set()
    for state in ts.states:
        for rule in spec.rules():
            for occ in find_occurrences(state, rule.lhs):
                assert_splice_is_the_algebra(occ, rule.rhs, rule.inst.entries)
                applied.add(rule.name)
    assert applied == {"unwrap", "dup", "drop", "cut"}
    # the pattern name lands on a closed edge, whose fresh name skips the
    # target's own outer name w0, so C stays apart from the A-D edge
    spec = load(OUTER_W0)
    (rule,) = spec.rules()
    (occ,) = find_occurrences(spec.init, rule.lhs)
    assert _wiring(occ, parts(occ))[1] == ("w1",)
    assert_splice_is_the_algebra(occ, rule.rhs, rule.inst.entries)


def test_splice_is_the_algebra_random():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(2024)
    checked = 0
    for k in range(300):
        share = 0.5 if k % 2 else 0.0
        # names the pattern lacks close links inside the context
        target = random_ground(rng, sig, max_nodes=8, name_pool=tuple("abcde"),
                               share_prob=share)
        pattern = random_solid_pattern(rng, sig, max_nodes=3, share_prob=share)
        for occ in find_occurrences(target, pattern):
            assert_splice_is_the_algebra(occ, pattern, range(pattern.sites))
            checked += 1
    assert checked > 50
