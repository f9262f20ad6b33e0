import pytest

from bigengine import identity, iso_equal, make_atom, merge, nest, parallel
from bigengine.elaborate import load, load_file
from bigengine.errors import (
    ActionPartitionError,
    DuplicateDefinition,
    InitNotGround,
    MixedLabelKinds,
    ParseError,
    UnknownIdentifier,
    UnknownRuleInBlock,
)
from bigengine.language import parse

from conftest import MODELS

BLOCK = "\nbegin brs init start; rules = []; end\n"


def eval_big(defs: str, expr: str):
    src = defs + "\nbig probe = %s;\nbig start = 1;%s" % (expr, BLOCK)
    return load(src).bigs["probe"]


ABCD = """
ctrl A = 0;
ctrl B = 0;
ctrl C = 0;
ctrl D = 0;
"""


def test_precedence_nest_merge_parallel():
    got = eval_big(ABCD, "A.B | C || D")
    sig = got.sig
    a, b, c, d = (make_atom(sig, x) for x in "ABCD")
    want = parallel(merge(nest(a, b), c), d)
    assert iso_equal(got, want)


def test_bare_control_is_id_sugar():
    got = eval_big("ctrl Room = 0;", "Room")
    assert got.sites == 1
    explicit = eval_big("ctrl Room = 0;", "Room.id")
    assert iso_equal(got, explicit)


def test_closure_scopes_maximally():
    src = """
atomic ctrl K = 1;
big probe = /x K{x} | K{x};
big start = 1;
""" + BLOCK
    b = load(src).bigs["probe"]
    # both ports land on the one closed link
    assert b.edges == 1 and b.port_count(("e", 0)) == 2 and not b.outer


def test_share_expression():
    spec = load_file(MODELS / "sharing.big")
    room = spec.bigs["secure_room"]
    adult = room.ctrl.index("Adult")
    assert len(room.node_parents[adult]) == 2


def test_corpus_parses(models_dir):
    for path in sorted(models_dir.glob("*.big")):
        parse(path.read_text(encoding="utf-8"))


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("ctrl A = ;\n")
    assert err.value.line == 1


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


def test_missing_block_rejected():
    with pytest.raises(ParseError):
        parse("ctrl A = 0;\n")


@pytest.mark.parametrize("decl", ["atomic atomic ctrl A = 0;", "atomic fun fun ctrl P(n) = 0;"])
def test_repeated_ctrl_modifier_rejected(decl):
    with pytest.raises(ParseError):
        parse(decl + BLOCK)


def test_duplicate_definition():
    with pytest.raises(DuplicateDefinition):
        load("ctrl A = 0;\nctrl A = 1;\nbig start = 1;" + BLOCK)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        load("ctrl A = 0;\nbig probe = Missing;\nbig start = 1;" + BLOCK)


def test_fun_react_expansion():
    spec = load_file(MODELS / "spawn.big")
    rules = list(spec.rules())
    assert [r.name for r in rules] == ["spawnProc(%d)" % n for n in range(6)]
    # the guard of spawnProc(5) forbids Proc(6) in the parameter
    last = rules[-1]
    (guard,) = last.constraints
    assert guard.kind == "absent_param"
    assert guard.pattern.params[0] == (6,)


def test_fun_react_literal_argument():
    src = (MODELS / "spawn.big").read_text(encoding="utf-8")
    src = src.replace("rules = [ {spawnProc(ns)} ];", "rules = [ {spawnProc(2)} ];")
    spec = load(src)
    assert [r.name for r in spec.rules()] == ["spawnProc(2)"]


def test_int_range_shorthand():
    src = """
ctrl Server = 0;
atomic fun ctrl Proc(n) = 0;
fun react spawn(n) = Server.(id | Proc(n)) --> Server.(id | Proc(n) | Proc(n+1));
big start = Server.Proc(0);
begin brs
  int ns = {0..3};
  init start;
  rules = [ {spawn(ns)} ];
end
"""
    assert len(list(load(src).rules())) == 4


def test_priority_classes_order():
    spec = load_file(MODELS / "vault.big")
    names = [tuple(r.name for r in cls.rules) for cls in spec.classes]
    assert names == [("clean",), ("tryOpen", "login", "open"), ("failed",)]
    assert not any(cls.instantaneous for cls in spec.classes)
    spec_inst = load_file(MODELS / "fix_leave_inst.big")
    assert [cls.instantaneous for cls in spec_inst.classes] == [True, False]


def test_mixed_label_kinds():
    src = """
ctrl A = 0;
react r = A.1 -[4]-> A.1;
big start = A.1;
begin brs
  init start;
  rules = [ {r} ];
end
"""
    with pytest.raises(MixedLabelKinds):
        load(src)
    src2 = src.replace("-[4]->", "-->").replace("begin brs", "begin pbrs")
    with pytest.raises(MixedLabelKinds):
        load(src2)
    # an infinite rate makes the total rate inf and every sampling share nan or 0
    src3 = src.replace("-[4]->", "-[1.0e999]->").replace("begin brs", "begin sbrs")
    with pytest.raises(MixedLabelKinds, match="positive and finite"):
        load(src3)


def test_init_not_ground_message():
    src = """
ctrl A = 0;
big s0 = A;
begin brs
  init s0;
  rules = [];
end
"""
    with pytest.raises(InitNotGround) as err:
        load(src)
    assert "Init bigraph is not ground" in str(err.value)


def test_unknown_rule_in_block():
    src = "ctrl A = 0;\nbig start = A.1;\nbegin brs init start; rules = [ {ghost} ]; end\n"
    with pytest.raises(UnknownRuleInBlock):
        load(src)


def test_action_partition_errors():
    src = (MODELS / "abrs_guards.big").read_text(encoding="utf-8")
    broken = src.replace(
        "actions = [ move = {move_stay, move_room}, check = {check_room, check_room_safe} ];",
        "actions = [ move = {move_stay, move_room}, check = {check_room} ];")
    with pytest.raises(ActionPartitionError):
        load(broken)
    doubled = src.replace(
        "check = {check_room, check_room_safe}",
        "check = {check_room, check_room_safe, move_stay}")
    with pytest.raises(ActionPartitionError):
        load(doubled)


def test_empty_inst_map():
    spec = load_file(MODELS / "vault.big")
    failed = {r.name: r for r in spec.rules()}["failed"]
    assert failed.inst.entries == ()
    assert failed.rhs.sites == 0 and failed.lhs.sites == 1


def test_condition_conjunction():
    spec = load_file(MODELS / "turntaking.big")
    no_sense = {r.name: r for r in spec.rules()}["no_sense"]
    kinds = sorted(c.kind for c in no_sense.constraints)
    assert kinds == ["absent_param", "present_ctx"]


def test_parameterised_control_params():
    spec = load_file(MODELS / "spawn.big")
    assert spec.init.ctrl == ("Server", "Proc")
    assert spec.init.params[1] == (0,)


def test_secure_building_shape():
    spec = load_file(MODELS / "secure_building.big")
    assert len(spec.signature.controls()) == 6
    assert len(list(spec.rules())) == 1
    assert list(spec.preds) == ["seen", "entrance", "serverRoom"]
    assert spec.semantics == "brs"


def test_float_domain_and_rates():
    src = """
ctrl A = 0;
atomic fun ctrl Level(v) = 0;
fun react tick(v) = A.(id | Level(v)) --> A.(id | Level(v + 0.5));
big start = A.Level(0.5);
begin brs
  float vs = {0.5, 1.5};
  init start;
  rules = [ {tick(vs)} ];
end
"""
    spec = load(src)
    names = [r.name for r in spec.rules()]
    assert names == ["tick(0.5)", "tick(1.5)"]
    assert spec.param_domains["vs"] == (0.5, 1.5)


def test_string_parameters():
    src = """
ctrl Host = 0;
atomic fun ctrl Tag(s) = 0;
big probe = Host.Tag("alpha");
big start = 1;
begin brs init start; rules = []; end
"""
    spec = load(src)
    assert spec.bigs["probe"].params[1] == ("alpha",)


def test_control_with_params_and_names():
    src = """
atomic fun ctrl Sensor(n) = 1;
big probe = Sensor(3){x};
big start = 1;
begin brs init start; rules = []; end
"""
    b = load(src).bigs["probe"]
    assert b.params[0] == (3,)
    assert b.port_count(("o", "x")) == 1


def test_link_identity_parses():
    src = """
ctrl A = 0;
big probe = id{x} | A.1;
big start = 1;
begin brs init start; rules = []; end
"""
    b = load(src).bigs["probe"]
    assert dict(b.inner) == {"x": ("o", "x")}
    assert b.regions == 1


def test_param_sort_mismatch():
    from bigengine.errors import SortMismatch
    src = """
atomic fun ctrl Tag(s) = 0;
big a = Tag(1);
big b = Tag("x");
big start = 1;
begin brs init start; rules = []; end
"""
    with pytest.raises(SortMismatch):
        load(src)
    # operands are evaluated left to right: the first instantiation fixes the sort
    merged = "atomic fun ctrl Tag(s) = 0;\nbig a = %s;\nbig start = 1;" + BLOCK
    with pytest.raises(SortMismatch, match="parameter 0 of Tag is int, got string"):
        load(merged % 'Tag(1) | Tag("x")')
    with pytest.raises(SortMismatch, match="parameter 0 of Tag is string, got int"):
        load(merged % 'Tag("x") | Tag(1)')


def test_arithmetic_evaluated_at_expansion():
    src = """
ctrl S = 0;
atomic fun ctrl P(n) = 0;
fun react grow(n) = S.(id | P(n)) --> S.(id | P(2 * n + 1));
big start = S.P(0);
begin brs
  int ns = {1, 2};
  init start;
  rules = [ {grow(ns)} ];
end
"""
    rules = list(load(src).rules())
    # the produced parameter is computed while the model is compiled
    values = sorted(p[0] for r in rules
                    for i, p in enumerate(r.rhs.params) if r.rhs.ctrl[i] == "P"
                    and p[0] not in (1, 2))
    assert values == [3, 5]


@pytest.mark.parametrize("chain", ["R." * 800 + "A", "A | " * 800 + "A", "A || " * 800 + "A"],
                         ids=["nest", "merge", "parallel"])
def test_deep_expressions_load(chain):
    # one Python frame per nesting level; the limit is about 950 under pytest
    spec = load("ctrl R = 0;\natomic ctrl A = 0;\nbig probe = %s;\nbig start = 1;%s"
                % (chain, BLOCK))
    assert spec.bigs["probe"].n == 801
