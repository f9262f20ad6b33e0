import random

import pytest

from bigengine import (
    InstMap,
    Occurrence,
    ReactionRule,
    apply_at,
    check_constraints,
    close,
    find_occurrences,
    identity,
    idle,
    iso_equal,
    make_atom,
    merge,
    nest,
    one,
    parallel,
    validate_rule,
)
from bigengine.bigraph import Control, Signature
from bigengine import matching
from bigengine.elaborate import load, load_file
from bigengine.errors import (
    ConstraintViolated,
    InnerInterfaceMismatch,
    InvalidInstMap,
    LhsNotSolid,
    OuterInterfaceMismatch,
)

from conftest import MODELS
from genutil import DEFAULT_CONTROLS, all_applications, make_sig, random_ground


@pytest.fixture
def ab_sig():
    return Signature([Control("A", 1), Control("B", 0), Control("K", 0)])


def test_outer_mismatch_message(ab_sig):
    lhs = nest(make_atom(ab_sig, "A", names=["x"]), one(ab_sig))
    with pytest.raises(OuterInterfaceMismatch) as err:
        validate_rule(ReactionRule("drop", lhs, one(ab_sig)))
    assert "Outer interfaces <1, {x}> and <1, {}> do not match" in str(err.value)


def test_idle_name_fix_is_valid(ab_sig):
    lhs = nest(make_atom(ab_sig, "A", names=["x"]), one(ab_sig))
    rhs = merge(idle(ab_sig, ["x"]), one(ab_sig))
    validate_rule(ReactionRule("ok", lhs, rhs))


def test_inner_mismatch_message(ab_sig):
    lhs = make_atom(ab_sig, "K")
    rhs = nest(make_atom(ab_sig, "K"), merge(identity(ab_sig), identity(ab_sig)))
    with pytest.raises(InnerInterfaceMismatch) as err:
        validate_rule(ReactionRule("bad", lhs, rhs))
    assert "Inner interfaces<1, {}> and <2, {}> do not match" in str(err.value)


def test_invalid_map_message(ab_sig):
    lhs = make_atom(ab_sig, "K")
    with pytest.raises(InvalidInstMap) as err:
        validate_rule(ReactionRule("bad", lhs, lhs, InstMap((5,))))
    assert "Instantiation map is not valid" in str(err.value)


def test_lhs_not_solid(ab_sig):
    rule = ReactionRule("bad", one(ab_sig), one(ab_sig))
    with pytest.raises(LhsNotSolid):
        validate_rule(rule)


def test_site_under_a_region_is_not_solid():
    # A | id: its one region holds a node, but also a site directly
    with pytest.raises(LhsNotSolid, match="left-hand side of r is not solid"):
        load("""atomic ctrl A = 0; react r = A | id --> A | id; big s0 = A;
                begin brs init s0; rules = [ {r} ]; end""")


def test_identity_map_synthesised(ab_sig):
    lhs = make_atom(ab_sig, "K")
    rule = ReactionRule("id", lhs, lhs)
    assert rule.inst.entries == (0,)
    validate_rule(rule)


def _copy_fixture():
    spec = load_file(MODELS / "copy.big")
    return spec, next(spec.rules())


def test_copy_duplicates_and_keeps(building_sig):
    spec, copy = _copy_fixture()
    apps = all_applications(spec.init, copy)
    assert len(apps) == 1
    result = apps[0][1]
    kids = result.children()
    server = result.ctrl.index("Server")
    db = result.ctrl.index("Database")
    assert len(kids[("n", server)]) == 2
    assert len(kids[("n", db)]) == 1


def test_delete_empties_database():
    spec = load_file(MODELS / "delete.big")
    delete = next(spec.rules())
    result = all_applications(spec.init, delete)[0][1]
    kids = result.children()
    db = result.ctrl.index("Database")
    assert kids[("n", db)] == ()


def test_duplicated_open_link_stays_connected():
    # copying a parameter that contains Item{w} yields two Items on one link
    sig = Signature([
        Control("Server", 2), Control("Database", 1),
        Control("Adult", 1, atomic=True), Control("Item", 1, atomic=True),
    ])

    def state_with(content_db):
        adult = make_atom(sig, "Adult", names=["x"])
        srv = nest(make_atom(sig, "Server", names=["x", "y"]), one(sig))
        left = close("x", merge(adult, srv))
        db = nest(make_atom(sig, "Database", names=["y"]), content_db)
        return close("y", parallel(left, db))

    def rule_side(server_holes, db_hole):
        adult = make_atom(sig, "Adult", names=["x"])
        srv = nest(make_atom(sig, "Server", names=["x", "y"]), server_holes)
        left = close("x", merge(adult, srv))
        db = nest(make_atom(sig, "Database", names=["y"]), db_hole)
        return close("y", parallel(left, db))

    lhs = rule_side(identity(sig), identity(sig))
    rhs = rule_side(merge(identity(sig), identity(sig)), identity(sig))
    copy = ReactionRule("copy", lhs, rhs, InstMap((0, 1, 1)))
    validate_rule(copy)
    state = state_with(make_atom(sig, "Item", names=["w"]))
    result = all_applications(state, copy)[0][1]
    assert result.ctrl.count("Item") == 2
    assert result.port_count(("o", "w")) == 2
    assert result.is_ground()


def test_swap_map():
    sig = Signature([Control("A", 0), Control("B", 0), Control("X", 0, atomic=True),
                     Control("Y", 0, atomic=True)])
    lhs = merge(make_atom(sig, "A"), make_atom(sig, "B"))
    rule = ReactionRule("swap", lhs, lhs, InstMap((1, 0)))
    validate_rule(rule)
    state = merge(nest(make_atom(sig, "A"), make_atom(sig, "X")),
                  nest(make_atom(sig, "B"), make_atom(sig, "Y")))
    result = all_applications(state, rule)[0][1]
    want = merge(nest(make_atom(sig, "A"), make_atom(sig, "Y")),
                 nest(make_atom(sig, "B"), make_atom(sig, "X")))
    assert iso_equal(result, want)


def test_leave_secure_application_shape():
    spec = load_file(MODELS / "leave_secure.big")
    rule = next(spec.rules())
    apps = all_applications(spec.init, rule)
    assert len(apps) == 1
    result = apps[0][1]
    assert result.is_ground()
    assert result.outer == spec.init.outer
    kids = result.children()
    rooms = [i for i, c in enumerate(result.ctrl) if c == "Room"]
    sizes = sorted(len(kids[("n", r)]) for r in rooms)
    assert sizes == [2, 2]      # panel+person left behind, two persons together
    # the person no longer shares a link with the panel
    panel = result.ctrl.index("CtrlPanel")
    panel_links = set(result.ports[panel])
    for i, c in enumerate(result.ctrl):
        if c == "Person":
            assert not (set(result.ports[i]) & panel_links)


def test_all_applications_counts():
    spec = load_file(MODELS / "pbrs_detect_two.big")
    detect, avoid = spec.rules()
    assert len(all_applications(spec.init, detect)) == 2
    assert len(all_applications(spec.init, avoid)) == 1
    sig = spec.signature
    empty_room = nest(make_atom(sig, "Room"), one(sig))
    assert all_applications(empty_room, detect) == []


def test_leave_room_single_entry():
    spec = load_file(MODELS / "fix_leave.big")
    rules = {r.name: r for r in spec.rules()}
    apps = all_applications(spec.init, rules["leave_room"])
    assert len(apps) == 1


def test_apply_rechecks_constraints():
    spec = load_file(MODELS / "connect_server.big")
    rule = next(spec.rules())
    sig = spec.signature
    emp = close("x", make_atom(sig, "Employee", names=["x"]))
    srv = close("s", nest(make_atom(sig, "Server", names=["s"]), one(sig)))
    room = nest(make_atom(sig, "Room"),
                merge(merge(emp, srv), make_atom(sig, "Visitor")))
    occ = find_occurrences(room, rule.lhs)[0]
    with pytest.raises(ConstraintViolated):
        apply_at(room, rule, occ)


def test_identity_rule_preserves_state():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(17)
    pattern = nest(make_atom(sig, "A"), identity(sig))   # A.id
    rule = ReactionRule("noop", pattern, pattern)
    validate_rule(rule)
    checked = 0
    for _ in range(50):
        state = random_ground(rng, sig, max_nodes=7)
        for _, result in all_applications(state, rule):
            assert iso_equal(result, state)
            assert result.outer == state.outer
            checked += 1
    assert checked > 10


def test_dropped_name_stays_idle_or_vanishes():
    sig = Signature([Control("A", 1, atomic=True), Control("B", 0, atomic=True)])
    lhs = make_atom(sig, "A", names=["x"])
    rhs = merge(idle(sig, ["x"]), make_atom(sig, "B"))
    rule = ReactionRule("detach", lhs, rhs)
    validate_rule(rule)
    # open state link: the name survives idle
    state_open = make_atom(sig, "A", names=["x"])
    out_open = all_applications(state_open, rule)[0][1]
    assert out_open.outer == frozenset({"x"})
    assert out_open.port_count(("o", "x")) == 0
    # closed state link: the vacated edge vanishes entirely
    state_closed = close("w", make_atom(sig, "A", names=["w"]))
    out_closed = all_applications(state_closed, rule)[0][1]
    assert out_closed.outer == frozenset() and out_closed.edges == 0
    assert out_closed.ctrl == ("B",)


PIECES = """
ctrl Room = 0;
atomic ctrl P = 0;
atomic ctrl Q = 0;
atomic ctrl Lamp = 0;
react plain = Room.(P | id) --> Room.(Q | id);
react absent = Room.(P | id) --> Room.(Q | id) if !Lamp in param;
react present = Room.(P | id) --> Room.(Q | id) if Q in param;
react around = Room.(P | id) --> Room.(Q | id) if Lamp in ctx;
big s0 = Room.(P | Q) | Lamp;
begin brs
  init s0;
  rules = [ {plain, absent, present, around} ];
end
"""


@pytest.mark.parametrize("name, built", [
    ("plain", set()), ("absent", {"param"}), ("present", {"param"}), ("around", {"ctx"}),
], ids=["unguarded", "absent_param", "present_param", "ctx"])
def test_pieces_are_built_only_when_read(monkeypatch, name, built):
    # a rewrite lays neither the context nor the parameter; a guard lays
    # only the piece it names (which kinds, not how many times: apply_at
    # checks the guards again)
    got = []
    real = matching._piece
    monkeypatch.setattr(matching, "_piece", lambda occ, param, owner:
                        got.append("param" if param else "ctx") or real(occ, param, owner))
    spec = load(PIECES)
    rule = next(r for r in spec.rules() if r.name == name)
    (occ,) = find_occurrences(spec.init, rule.lhs)
    result = apply_at(spec.init, rule, occ)
    assert sorted(result.ctrl) == ["Lamp", "Q", "Q", "Room"]
    assert set(got) == built


def test_occurrences_keep_only_what_their_search_found():
    # nothing is derived onto an occurrence, by a guard or a rewrite
    assert "__getattr__" not in vars(Occurrence)
    fields = {"node_map", "link_map", "target", "image", "region_pos", "pattern"}
    spec = load(PIECES)
    for rule in spec.rules():
        for occ in find_occurrences(spec.init, rule.lhs):
            check_constraints(occ, rule.constraints)
            apply_at(spec.init, rule, occ)
            assert set(vars(occ)) == fields
