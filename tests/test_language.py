import time

import pytest

from bigengine import identity, iso_equal, make_atom, merge, nest, parallel
from bigengine.elaborate import load, load_file
from bigengine.errors import (
    ActionPartitionError,
    DuplicateDefinition,
    ElaborationError,
    InitNotGround,
    MixedLabelKinds,
    ParseError,
    SortMismatch,
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


@pytest.mark.parametrize("source, message", [
    ("# one\n# two\n  # three\nctrl A = ;\n", "line 4, column 10: expected arity, found ';'"),
    ('atomic fun ctrl T(s) = 0;\nbig b = T("x\ny") | ;\n',
     "line 3, column 7: expected a bigraph expression, found ';'"),
    ("ctrl\tA\t=\t\t;", "line 1, column 11: expected arity, found ';'"),
    ("ctrl A = 0;\nbig b = A", "line 2, column 10: expected ;, found 'end of input'"),
    ("ctrl A = 0;\nbig b = A\n", "line 3, column 1: expected ;, found 'end of input'"),
    ("ctrl A = 0;\n  big b = A $;", "line 2, column 13: unexpected character '$'"),
], ids=["after-comments", "after-multiline-string", "after-tabs", "at-end", "at-end-newline",
        "bad-character"])
def test_diagnostic_positions(source, message):
    # a column counts characters from 1, a tab as one
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_diagnostic_positions_across_newline_styles(tmp_path, newline):
    model = tmp_path / "m.big"
    model.write_bytes(newline.join([b"ctrl A = 0;", b"# note", b"ctrl B = ;", b""]))
    with pytest.raises(ParseError) as err:
        load_file(model)
    assert str(err.value) == "line 3, column 10: expected arity, found ';'"


def test_invalid_utf8_position_counts_bytes(tmp_path):
    model = tmp_path / "m.big"
    model.write_bytes("ctrl A = 0;\n# \u00e9 ".encode() + b"\xff\n")
    with pytest.raises(ParseError) as err:
        load_file(model)
    assert str(err.value) == "line 2, column 6: byte 0xff is not valid UTF-8"


def test_duplicate_definition_names_its_line():
    src = "ctrl A = 0;\n\n# c\nbig s = A.1;\nbegin brs\n  init s;\n  int A = {1};\nend\n"
    with pytest.raises(DuplicateDefinition, match="^line 7: 'A' defined twice$"):
        load(src)


def test_many_declarations_load_in_linear_time():
    # 20,000 declarations on lines padded to 70 columns. The lines come
    # from token offsets by one index per parse; counting the newlines
    # before each declaration instead took about 10 s of CPU here (an
    # Intel Xeon), against 0.7 s, and 1.0 s for the per-token line and
    # column bookkeeping that offsets replaced
    n = 20000
    src = "atomic ctrl A = 0;\n" + "".join(
        "big b%d = A;%s\n" % (i, " " * 60) for i in range(n)) + "big b7 = A;\n"
    start = time.process_time()
    with pytest.raises(DuplicateDefinition, match="^line %d: 'b7' defined twice$" % (n + 2)):
        load(src + BLOCK)
    assert time.process_time() - start < 4.0


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


def test_domain_literals_take_the_domain_type():
    src = """
atomic fun ctrl Q(n) = 0;
fun react r(n) = Q(n) --> Q(n + %s);
big start = Q(%s);
begin brs
  %s ns = {%s};
  init start;
  rules = [ {r(ns)} ];
end
"""
    for values, column in [("1.5, 2.5", 13), ("1, -2.5", 17), ("1.5..3", 13)]:
        with pytest.raises(ParseError, match="^line 6, column %d: expected an integer "
                                             "in an int domain$" % column):
            load(src % ("1.0", "1.5", "int", values))
    ints = load(src % ("1", "0", "int", "1, -2"))
    assert [r.name for r in ints.rules()] == ["r(1)", "r(-2)"]
    floats = load(src % ("1.0", "1.5", "float", "1, -2"))
    assert [r.name for r in floats.rules()] == ["r(1.0)", "r(-2.0)"]
    # an integer beyond the float range reads as inf, as 1.0e999 does,
    # where converting the int raised OverflowError
    with pytest.raises(SortMismatch, match="unsupported parameter value inf"):
        load(src % ("1.0", "1.5", "float", "9" * 400))


@pytest.mark.parametrize("source, message", [
    ("ctrl A = int;\n" + BLOCK, "line 1, column 10: expected arity, found 'int'"),
    ("big b = A.int;\n" + BLOCK, "line 1, column 11: expected a bigraph expression, found 'int'"),
    ("atomic fun ctrl P(x) = 0;\nbig b = P(int);\n" + BLOCK,
     "line 2, column 11: expected a parameter expression"),
    ("5 ns = {1};\n" + BLOCK, "line 1, column 1: expected a declaration, found '5'"),
], ids=["arity", "bigraph", "parameter", "declaration"])
def test_domain_keywords_are_not_numbers(source, message):
    # the keywords int and float once shared their token kind with number
    # literals: `ctrl A = int;` ended in a ValueError traceback, and
    # `5 ns = {1};` declared an int domain
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


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


def test_action_named_twice():
    # both actions' rules act, so a second action of one name must not
    # replace the first
    src = (MODELS / "abrs_guards.big").read_text(encoding="utf-8")
    twice = src.replace("check = {check_room, check_room_safe}",
                        "move = {check_room, check_room_safe}")
    assert twice != src
    with pytest.raises(ActionPartitionError, match="action move is declared twice"):
        load(twice)


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


def test_equal_atoms_are_one():
    # elaboration memoises atoms by control, parameters as labels prints
    # them, and names: 1, 1.0 and -0.0 stay apart, and a new key still
    # runs every check, so a float after an int is a sort mismatch
    from bigengine.bigraph import labels
    from bigengine.errors import SortMismatch
    defs = "atomic fun ctrl P(v) = 1;\natomic fun ctrl F(w) = 0;\n"
    bigs = load(defs + """big a = P(1){x}; big b = P(1){x}; big c = P(1){y}; big d = P(2){x};
big z = F(0.0); big m = F(-0.0); big n = F(-0.0); big start = 1;""" + BLOCK).bigs
    assert bigs["a"] is bigs["b"]
    assert bigs["c"] is not bigs["a"] and bigs["d"] is not bigs["a"]
    assert bigs["m"] is bigs["n"] and labels(bigs["z"]) != labels(bigs["m"])
    with pytest.raises(SortMismatch, match="parameter 0 of P is int, got float"):
        load(defs + "big a = P(1){x} | P(1.0){x}; big start = 1;" + BLOCK)


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


@pytest.mark.parametrize("op", ["* 1.5", "/ 7.0"], ids=["mul", "div"])
def test_arithmetic_overflow_is_a_diagnostic(op):
    # a float from an int beyond the float range raised OverflowError
    src = "atomic fun ctrl P(x) = 0;\nbig b = P(%s %s);\nbig start = 1;%s" % ("9" * 400, op, BLOCK)
    with pytest.raises(ElaborationError, match="arithmetic result out of range"):
        load(src)


@pytest.mark.parametrize("arg, value", [
    (" + ".join(["1"] * 3000), 3000),
    ("7" + " * 2 / 2" * 1500, 7),
    ("-" * 3000 + "5", 5),
], ids=["long-sum", "long-product", "minus-run"])
def test_long_arithmetic_loads(arg, value):
    # an arithmetic chain or a run of unary minuses is one builder
    spec = load("atomic fun ctrl P(x) = 0;\nbig probe = P(%s);\nbig start = 1;%s"
                % (arg, BLOCK))
    assert spec.bigs["probe"].params == ((value,),)


@pytest.mark.parametrize("arg, message", [
    ('- - "s"', "cannot negate a string parameter"),
    ('1 + "s" + y', "arithmetic on string parameters"),
    ('2 * "s" / 0', "arithmetic on string parameters"),
    ('1 + 2 / 0 + "s"', "2 / 0 is not an integer"),
])
def test_arithmetic_chain_fails_at_its_first_bad_step(arg, message):
    # operands are evaluated and applied left to right, one at a time
    with pytest.raises(ElaborationError, match=message):
        load("atomic fun ctrl P(x) = 0;\nbig probe = P(%s);\nbig start = 1;%s"
             % (arg, BLOCK))


# 800 names closed over 800 nodes, one closure prefix
LONG_CLOSURE = "".join("/x%d " % i for i in range(800)) + " | ".join(
    "L{x%d}" % i for i in range(800))


@pytest.mark.parametrize("chain, n", [
    ("R." * 20000 + "A", 20001), ("A | " * 800 + "A", 801), ("A || " * 800 + "A", 801),
    ("A | " * 19999 + "A", 20000), ("A || " * 999 + "A", 1000), (LONG_CLOSURE, 800),
], ids=["nest", "merge", "parallel", "long-merge", "long-parallel", "long-closure"])
def test_deep_expressions_load(chain, n):
    # a `.`, `|` or `||` chain or a closure prefix is one builder however
    # long; only brackets cost Python frames
    spec = load("ctrl R = 0;\natomic ctrl A = 0;\natomic ctrl L = 1;\nbig probe = %s;"
                "\nbig start = 1;%s" % (chain, BLOCK))
    probe = spec.bigs["probe"]
    assert probe.n == n and not probe.outer
    assert probe.edges == (800 if chain is LONG_CLOSURE else 0)


# 150 levels of `R.(`, well inside the documented ~245
BRACKETS = "ctrl R = 0;\nbig probe = %s1%s;\nbig start = 1;%s" % ("R.(" * 150, ")" * 150, BLOCK)


@pytest.mark.xfail(strict=True, raises=ParseError,
                   reason="the bracket limit is Python's recursion limit, so it falls "
                          "with the caller's own stack depth (ROADMAP item 8)")
def test_bracket_limit_does_not_depend_on_the_callers_stack():
    assert load(BRACKETS).bigs["probe"].n == 150

    def deep(k):
        return load(BRACKETS) if k == 0 else deep(k - 1)
    # the same model, loaded 600 frames deeper
    assert deep(600).bigs["probe"].n == 150
