"""Lexer and parser for the modelling language, which compiles each
expression to the function that builds its value.

Source files declare entity types, named bigraphs, reaction rules and a
single analysis block:

    atomic ctrl Adult = 0;        # entity of arity 0, no children
    fun ctrl Proc(n) = 0;         # parameterised family
    big home = Room.(Adult | Child);
    react leave = Room.(Adult | id) --> Room.id;
    begin brs
      init home;
      rules = [ {leave} ];
      preds = {empty};
    end

Operator binding: nesting ``.`` is tightest and takes a single operand
(parenthesise merges), ``|`` binds tighter than ``||``, and a closure
``/x e`` or a ``share ... in e`` scopes maximally over the rest of the
enclosing expression. ``#`` starts a line comment.

The parser returns declaration records whose expressions are already
compiled: every bigraph or parameter expression becomes a builder
``expr(ev, env)`` (see ``elaborate._Evaluator``), so there is no
expression tree and the elaborator never inspects expression forms.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

from .bigraph import close, identity, idle, link_identity, merge, nest, one, parallel, share
from .errors import ElaborationError, ParseError, UnknownIdentifier

KEYWORDS = {
    "ctrl", "atomic", "fun", "big", "react", "begin", "end", "init",
    "rules", "preds", "actions", "int", "float", "if", "in", "param",
    "ctx", "share", "by", "id",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>-->)
  | (?P<larrow>-\[)
  | (?P<rarrow>\]->)
  | (?P<dpipe>\|\|)
  | (?P<ddot>\.\.)
  | (?P<sym>[|.,;=(){}\[\]@/!+\-*])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError("unexpected character %r" % source[pos], line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "name" and text in KEYWORDS:
                tokens.append(Token(text, text, line, col))
            elif kind in ("arrow", "larrow", "rarrow", "dpipe", "ddot", "sym"):
                tokens.append(Token(text, text, line, col))
            else:
                tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- compiled expressions -----------------------------------------------
#
# Each expression production returns a builder ``expr(ev, env)``: ev is
# the elaborator's evaluator (signature, named bigraphs, ``apply``) and
# env binds rule parameters. Operands run left to right, because sorts of
# parameterised controls are inferred from their first instantiation. A
# `|` or `||` chain or a closure prefix is one builder however long, but
# each `.` or parenthesis level costs a Python frame, which bounds the
# depth that parsing and elaboration accept.

def _const(value):
    return lambda ev, env: value


def _var(name):
    def var(ev, env):
        if name in env:
            return env[name]
        raise UnknownIdentifier("unknown parameter %r" % name)
    return var


def _neg(operand):
    def neg(ev, env):
        v = operand(ev, env)
        if isinstance(v, str):
            raise ElaborationError("cannot negate a string parameter")
        return -v
    return neg


def _divide(l, r):
    if isinstance(l, int) and isinstance(r, int):
        if r == 0 or l % r:
            raise ElaborationError("%d / %d is not an integer" % (l, r))
        return l // r
    if r == 0:
        raise ElaborationError("%r / %r is not a number" % (l, r))
    return l / r


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _arith(op, left, right):
    fn = _ARITH[op]

    def arith(ev, env):
        l, r = left(ev, env), right(ev, env)
        if isinstance(l, str) or isinstance(r, str):
            raise ElaborationError("arithmetic on string parameters")
        try:
            return fn(l, r)
        except OverflowError:
            raise ElaborationError("arithmetic result out of range") from None
    return arith


def _chain(f, operands):
    """The builder of f over the operands' values (an operator chain, or
    a nesting head and its body), evaluated left to right in one frame."""
    if len(operands) == 1:
        return operands[0]

    def chain(ev, env):
        values = []
        for e in operands:
            values.append(e(ev, env))
        return f(*values)
    return chain


# -- declarations ----------------------------------------------------------

@dataclass(frozen=True)
class CondAst:
    negated: bool
    pattern: object
    where: str          # 'param' | 'ctx'


@dataclass(frozen=True)
class CtrlDecl:
    name: str
    arity: int
    atomic: bool
    params: tuple | None
    line: int


@dataclass(frozen=True)
class BigDef:
    name: str
    expr: object
    line: int


@dataclass(frozen=True)
class ReactDef:
    name: str
    params: tuple | None
    lhs: object
    rhs: object
    label_text: str | None
    inst: tuple | None
    conds: tuple
    line: int


@dataclass(frozen=True)
class DomainDecl:
    kind: str           # 'int' | 'float'
    name: str
    values: tuple
    line: int


@dataclass(frozen=True)
class RuleRef:
    name: str
    args: tuple | None  # ((name or None, expr), ...), see parse_rule_arg
    line: int


@dataclass(frozen=True)
class ClassAst:
    refs: tuple
    instantaneous: bool


@dataclass(frozen=True)
class BrsBlock:
    kind: str           # brs | pbrs | sbrs | abrs
    init_expr: object
    classes: tuple
    preds: tuple
    actions: tuple      # ((action, (rule names...)), ...)
    domains: tuple
    line: int


@dataclass
class Ast:
    decls: list = field(default_factory=list)
    block: BrsBlock | None = None


# -- parser ---------------------------------------------------------------

class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self, k=0) -> Token:
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, kind) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind, what=None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError("expected %s, found %r" % (what or kind, t.value or "end of input"),
                             t.line, t.col)
        return self.next()

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def items(self, item, close=None) -> list:
        """``item ("," item)*``, or no items if the next token is close."""
        if close is not None and self.peek().kind == close:
            return []
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    # -- top level ----------------------------------------------------

    def parse_file(self) -> Ast:
        ast = Ast()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "atomic" or t.kind == "ctrl":
                ast.decls.append(self.parse_ctrl())
            elif t.kind == "fun":
                if self.peek(1).kind == "ctrl":
                    ast.decls.append(self.parse_ctrl())
                elif self.peek(1).kind == "react":
                    ast.decls.append(self.parse_react())
                else:
                    self.fail("expected 'ctrl' or 'react' after 'fun'")
            elif t.kind == "big":
                ast.decls.append(self.parse_big())
            elif t.kind == "react":
                ast.decls.append(self.parse_react())
            elif t.kind in ("int", "float"):
                ast.decls.append(self.parse_domain())
            elif t.kind == "begin":
                block = self.parse_block()
                if ast.block is not None:
                    raise ParseError("more than one begin...end block", t.line, t.col)
                ast.block = block
            else:
                self.fail("expected a declaration, found %r" % t.value)
        if ast.block is None:
            raise ParseError("no begin...end block in file", 1, 1)
        return ast

    def parse_ctrl(self) -> CtrlDecl:
        line = self.peek().line
        atomic = bool(self.accept("atomic"))
        fun = bool(self.accept("fun"))
        self.expect("ctrl")
        name = self.expect("name", "control name").value
        params = None
        if fun:
            self.expect("(")
            params = self.items(lambda: self.expect("name").value)
            self.expect(")")
        self.expect("=")
        arity = int(self.expect("int", "arity").value)
        self.expect(";")
        return CtrlDecl(name, arity, atomic, tuple(params) if params else None, line)

    def parse_big(self) -> BigDef:
        line = self.expect("big").line
        name = self.expect("name").value
        self.expect("=")
        expr = self.parse_bexp()
        self.expect(";")
        return BigDef(name, expr, line)

    def parse_react(self) -> ReactDef:
        line = self.peek().line
        fun = bool(self.accept("fun"))
        self.expect("react")
        name = self.expect("name").value
        params = None
        if fun:
            self.expect("(")
            params = self.items(lambda: self.expect("name").value)
            self.expect(")")
        self.expect("=")
        lhs = self.parse_bexp()
        label_text = None
        if self.accept("-->"):
            pass
        elif self.accept("-["):
            t = self.peek()
            if t.kind not in ("int", "float"):
                self.fail("expected a number in -[...]->")
            label_text = self.next().value
            self.expect("]->")
        else:
            self.fail("expected '-->' or '-[w]->'")
        rhs = self.parse_bexp()
        inst = None
        if self.accept("@"):
            self.expect("[")
            inst = tuple(self.items(lambda: int(self.expect("int").value), "]"))
            self.expect("]")
        conds = self.items(self.parse_cond) if self.accept("if") else []
        self.expect(";")
        return ReactDef(name, tuple(params) if params else None, lhs, rhs,
                        label_text, inst, tuple(conds), line)

    def parse_cond(self) -> CondAst:
        negated = bool(self.accept("!"))
        pattern = self.parse_bexp()
        self.expect("in")
        t = self.peek()
        if t.kind in ("param", "ctx"):
            self.next()
            return CondAst(negated, pattern, t.kind)
        self.fail("expected 'param' or 'ctx'")

    def parse_domain(self) -> DomainDecl:
        t = self.next()
        kind = t.kind
        name = self.expect("name").value
        self.expect("=")
        self.expect("{")
        values = self.parse_value_set(kind)
        self.expect("}")
        self.expect(";")
        return DomainDecl(kind, name, tuple(values), t.line)

    def parse_value_set(self, kind):
        def number():
            neg = bool(self.accept("-"))
            t = self.peek()
            if t.kind == "int":
                v = int(self.next().value)
            elif t.kind == "float":
                v = float(self.next().value)
            else:
                self.fail("expected a number")
            if kind == "float":
                v = float(v)
            return -v if neg else v

        values = [number()]
        if self.accept(".."):           # range shorthand {a..b}
            hi = number()
            if kind == "float" or not isinstance(values[0], int):
                self.fail("range shorthand needs integer bounds")
            return list(range(values[0], int(hi) + 1))
        while self.accept(","):
            values.append(number())
        return values

    def parse_block(self) -> BrsBlock:
        line = self.expect("begin").line
        t = self.expect("name", "semantics kind (brs, pbrs, sbrs or abrs)")
        kind = t.value
        if kind not in ("brs", "pbrs", "sbrs", "abrs"):
            raise ParseError("unknown semantics %r" % kind, t.line, t.col)
        init_expr = None
        classes = None
        preds = ()
        actions = ()
        domains = []
        while not self.accept("end"):
            t = self.peek()
            if t.kind == "init":
                self.next()
                if init_expr is not None:
                    raise ParseError("duplicate init", t.line, t.col)
                init_expr = self.parse_bexp()
                self.expect(";")
            elif t.kind == "rules":
                self.next()
                self.expect("=")
                classes = self.parse_classes()
                self.expect(";")
            elif t.kind == "preds":
                self.next()
                self.expect("=")
                self.expect("{")
                names = self.items(lambda: self.expect("name").value, "}")
                self.expect("}")
                self.expect(";")
                preds = tuple(names)
            elif t.kind == "actions":
                self.next()
                self.expect("=")
                actions = self.parse_actions()
                self.expect(";")
            elif t.kind in ("int", "float"):
                domains.append(self.parse_domain())
            elif t.kind == "eof":
                raise ParseError("unterminated begin block", line, 1)
            else:
                self.fail("unexpected %r in begin block" % t.value)
        if init_expr is None:
            raise ParseError("begin block has no init", line, 1)
        return BrsBlock(kind, init_expr, classes if classes is not None else (),
                        preds, actions, tuple(domains), line)

    def parse_classes(self):
        self.expect("[")
        classes = self.items(self.parse_class, "]")
        self.expect("]")
        return tuple(classes)

    def parse_class(self) -> ClassAst:
        if self.accept("{"):
            instant = False
            closing = "}"
        elif self.accept("("):
            instant = True
            closing = ")"
        else:
            self.fail("expected a priority class '{...}' or '(...)'")
        refs = self.items(self.parse_ruleref, closing)
        self.expect(closing)
        return ClassAst(tuple(refs), instant)

    def parse_ruleref(self) -> RuleRef:
        t = self.expect("name", "rule name")
        args = None
        if self.accept("("):
            args = self.items(self.parse_rule_arg)
            self.expect(")")
        return RuleRef(t.value, tuple(args) if args else None, t.line)

    def parse_actions(self):
        self.expect("[")
        out = []
        while True:
            name = self.expect("name", "action name").value
            self.expect("=")
            self.expect("{")
            rules = self.items(lambda: self.expect("name").value)
            self.expect("}")
            out.append((name, tuple(rules)))
            if not self.accept(","):
                break
        self.expect("]")
        return tuple(out)

    # -- bigraph expressions ----------------------------------------------

    def parse_bexp(self):
        operands = [self.parse_mer()]
        while self.accept("||"):
            operands.append(self.parse_mer())
        return _chain(parallel, operands)

    def parse_mer(self):
        if self.peek().kind in ("/", "share"):
            return self.parse_operand()
        operands = [self.parse_nest()]
        while self.accept("|"):
            # a closure or share mid-merge scopes maximally over the rest
            if self.peek().kind in ("/", "share"):
                operands.append(self.parse_operand())
                break
            operands.append(self.parse_nest())
        return _chain(merge, operands)

    def parse_operand(self):
        if self.peek().kind == "/":
            return self.parse_closure()
        return self.parse_share()

    def parse_closure(self):
        self.expect("/")
        names = [self.expect("name", "link identifier").value]
        while self.peek().kind == "/":
            self.next()
            names.append(self.expect("name", "link identifier").value)
        body = self.parse_bexp()
        return lambda ev, env: close(names, body(ev, env))

    def parse_share(self):
        self.expect("share")
        contents = self.parse_bexp()
        self.expect("by")
        self.expect("(")
        self.expect("[")
        placement = self.items(self.parse_site_set, "]")
        self.expect("]")
        self.expect(",")
        count = int(self.expect("int", "site count").value)
        self.expect(")")
        self.expect("in")
        host = self.parse_bexp()
        return lambda ev, env: share(contents(ev, env), placement, count, host(ev, env))

    def parse_site_set(self):
        self.expect("{")
        out = self.items(lambda: int(self.expect("int").value))
        self.expect("}")
        return tuple(out)

    def parse_nest(self):
        head = self.parse_primary()
        if self.accept("."):
            return _chain(nest, [head, self.parse_nest()])
        return head

    def parse_primary(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self.parse_bexp()
            self.expect(")")
            return e
        if t.kind == "int":
            if t.value != "1":
                raise ParseError("unexpected number %r in bigraph expression" % t.value,
                                 t.line, t.col)
            self.next()
            return lambda ev, env: one(ev.sig)
        if t.kind == "id":
            self.next()
            if self.peek().kind == "{":
                names = self.parse_name_set()
                return lambda ev, env: link_identity(ev.sig, names)
            return lambda ev, env: identity(ev.sig)
        if t.kind == "{":
            names = self.parse_name_set()
            return lambda ev, env: idle(ev.sig, names)
        if t.kind == "name":
            self.next()
            args = None
            names = None
            if self.peek().kind == "(":
                self.next()
                args = self.items(self.parse_arith)
                self.expect(")")
            if self.peek().kind == "{":
                names = self.parse_name_set()
            return lambda ev, env: ev.apply(t.value, args, names, env)
        self.fail("expected a bigraph expression, found %r" % (t.value or "end of input"))

    def parse_name_set(self):
        self.expect("{")
        names = self.items(lambda: self.expect("name", "link name").value)
        self.expect("}")
        return tuple(names)

    # -- parameter arithmetic --------------------------------------------

    def parse_rule_arg(self):
        """A rule-family argument as ``(name, expr)``: name is set when
        the argument is a lone, possibly parenthesised, identifier, which
        may name a domain to expand over."""
        start = self.pos
        expr = self.parse_arith()
        toks = [t for t in self.tokens[start:self.pos] if t.kind not in ("(", ")")]
        name = toks[0].value if len(toks) == 1 and toks[0].kind == "name" else None
        return name, expr

    def parse_arith(self):
        left = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = _arith(op, left, self.parse_term())
        return left

    def parse_term(self):
        left = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            left = _arith(op, left, self.parse_factor())
        return left

    def parse_factor(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return _const(int(t.value))
        if t.kind == "float":
            self.next()
            return _const(float(t.value))
        if t.kind == "string":
            self.next()
            raw = t.value[1:-1]
            return _const(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if t.kind == "name":
            self.next()
            return _var(t.value)
        if t.kind == "(":
            self.next()
            e = self.parse_arith()
            self.expect(")")
            return e
        if t.kind == "-":
            self.next()
            return _neg(self.parse_factor())
        self.fail("expected a parameter expression")


def parse(source: str) -> Ast:
    """Parse a model file into its declarations, with every expression
    compiled to a builder (one begin...end block required).

    Expressions nested deeper than Python's recursion limit allows are
    rejected at the token the parser had reached.
    """
    parser = Parser(source)
    try:
        return parser.parse_file()
    except RecursionError:
        t = parser.peek()
        raise ParseError("expression nested too deeply", t.line, t.col) from None
