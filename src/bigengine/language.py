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

A token carries its offset in the source; a line and column are worked
out from it only for a diagnostic or a declaration's line.

A number has at most ``MAX_DIGITS`` digits, as a literal and as the
integer result of arithmetic, so every integer converts to and from text
on every Python version (3.11 and later refuse longer ones by default).
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .bigraph import close, identity, idle, link_identity, merge, nest, one, parallel, share
from .errors import ElaborationError, ParseError, UnknownIdentifier

MAX_DIGITS = 4300
_INT_BOUND = 10 ** MAX_DIGITS

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
  | (?P<domain>(?:int|float)(?![A-Za-z0-9_]))
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<sym>-->|-\[|\]->|\|\||\.\.|[|.,;=(){}\[\]@/!+\-*])
  | (?P<bad>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str       # a keyword or symbol is its own kind; int and float are "domain"
    value: str
    pos: int        # offset in the source


def line_starts(source: str) -> list[int]:
    """The offset at which each line of source starts."""
    return list(accumulate([len(text) + 1 for text in source.split("\n")], initial=0))


def position(starts: list[int], pos: int) -> tuple[int, int]:
    """(line, column) of offset pos, both from 1; starts from ``line_starts``."""
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


def tokenize(source: str) -> list[Token]:
    """The tokens of source, then two eof tokens, so that looking one
    token past the end stays in range."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = m.group()
        if kind == "sym" or kind == "name" and text in KEYWORDS:
            kind = text
        elif kind == "bad":
            raise ParseError("unexpected character %r" % text,
                             *position(line_starts(source), m.start()))
        elif kind in ("int", "float") and sum(map(str.isdigit, text)) > MAX_DIGITS:
            raise ParseError("number with more than %d digits" % MAX_DIGITS,
                             *position(line_starts(source), m.start()))
        tokens.append(Token(kind, text, m.start()))
    end = Token("eof", "", len(source))
    tokens += (end, end)
    return tokens


# -- compiled expressions -----------------------------------------------
#
# Each expression production returns a builder ``expr(ev, env)``: ev is
# the elaborator's evaluator (signature, named bigraphs, ``apply``) and
# env binds rule parameters. Operands run left to right, because sorts of
# parameterised controls are inferred from their first instantiation.
# Every operator chain (`.`, `|`, `||`, a closure prefix, `+ -`, `* /`, a
# run of unary minuses) is one builder however long, so builders nest
# only at brackets, whose depth parse bounds.

def _const(value):
    return lambda ev, env: value


def _var(name):
    def var(ev, env):
        if name in env:
            return env[name]
        raise UnknownIdentifier("unknown parameter %r" % name)
    return var


def _neg(count, operand):
    """The builder of count unary minuses before operand."""
    def neg(ev, env):
        v = operand(ev, env)
        if isinstance(v, str):
            raise ElaborationError("cannot negate a string parameter")
        return -v if count % 2 else v
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


def _arith(operands, fns):
    """The builder of a left-associative arithmetic chain: operand k + 1
    is evaluated, checked and applied by fns[k] after operand k."""
    if not fns:
        return operands[0]

    def arith(ev, env):
        l = operands[0](ev, env)
        for fn, right in zip(fns, operands[1:]):
            r = right(ev, env)
            if isinstance(l, str) or isinstance(r, str):
                raise ElaborationError("arithmetic on string parameters")
            try:
                l = fn(l, r)
            except OverflowError:
                raise ElaborationError("arithmetic result out of range") from None
            if isinstance(l, int) and not -_INT_BOUND < l < _INT_BOUND:
                raise ElaborationError("integer result with more than %d digits" % MAX_DIGITS)
        return l
    return arith


def _chain(f, operands):
    """The builder of f over the operands' values (a `.`, `|` or `||`
    chain), evaluated left to right in one frame."""
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
    name: str
    values: tuple
    line: int


@dataclass(frozen=True)
class RuleRef:
    name: str
    args: tuple | None  # ((name or None, expr), ...), see parse_rule_arg


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


@dataclass
class Ast:
    decls: list = field(default_factory=list)
    block: BrsBlock | None = None


# -- parser ---------------------------------------------------------------

class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.starts = line_starts(source)
        self.pos = 0

    def peek(self, k=0) -> Token:
        return self.tokens[self.pos + k]

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
            self.fail("expected %s, found %r" % (what or kind, t.value or "end of input"))
        return self.next()

    def name(self, what=None) -> str:
        return self.expect("name", what).value

    def integer(self, what=None) -> int:
        return int(self.expect("int", what).value)

    def line(self) -> int:
        """The line of the next token."""
        return position(self.starts, self.peek().pos)[0]

    def fail(self, msg, t=None):
        """Raise a ParseError at token t, by default the next one."""
        raise ParseError(msg, *position(self.starts, (t or self.peek()).pos))

    def items(self, item) -> list:
        """``item ("," item)*``."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def group(self, open, item, close, empty=False) -> tuple:
        """``open item ("," item)* close``, or ``open close`` if empty is
        allowed, as a tuple of items."""
        self.expect(open)
        out = () if empty and self.peek().kind == close else self.items(item)
        self.expect(close)
        return tuple(out)

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
            elif t.kind == "domain":
                ast.decls.append(self.parse_domain())
            elif t.kind == "begin":
                block = self.parse_block()
                if ast.block is not None:
                    self.fail("more than one begin...end block", t)
                ast.block = block
            else:
                self.fail("expected a declaration, found %r" % t.value)
        if ast.block is None:
            raise ParseError("no begin...end block in file", 1, 1)
        return ast

    def parse_params(self) -> tuple:
        """The parameter list of a ``fun ctrl`` or ``fun react``."""
        return self.group("(", self.name, ")")

    def parse_ctrl(self) -> CtrlDecl:
        line = self.line()
        atomic = bool(self.accept("atomic"))
        fun = bool(self.accept("fun"))
        self.expect("ctrl")
        name = self.name("control name")
        params = self.parse_params() if fun else None
        self.expect("=")
        arity = self.integer("arity")
        self.expect(";")
        return CtrlDecl(name, arity, atomic, params, line)

    def parse_big(self) -> BigDef:
        line = self.line()
        self.expect("big")
        name = self.name()
        self.expect("=")
        expr = self.parse_bexp()
        self.expect(";")
        return BigDef(name, expr, line)

    def parse_react(self) -> ReactDef:
        line = self.line()
        fun = bool(self.accept("fun"))
        self.expect("react")
        name = self.name()
        params = self.parse_params() if fun else None
        self.expect("=")
        lhs = self.parse_bexp()
        label_text = None
        if self.accept("-["):
            if self.peek().kind not in ("int", "float"):
                self.fail("expected a number in -[...]->")
            label_text = self.next().value
            self.expect("]->")
        elif not self.accept("-->"):
            self.fail("expected '-->' or '-[w]->'")
        rhs = self.parse_bexp()
        inst = self.group("[", self.integer, "]", empty=True) if self.accept("@") else None
        conds = self.items(self.parse_cond) if self.accept("if") else []
        self.expect(";")
        return ReactDef(name, params, lhs, rhs, label_text, inst, tuple(conds), line)

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
        line = self.line()
        kind = self.next().value
        name = self.name()
        self.expect("=")
        self.expect("{")
        values = self.parse_value_set(kind)
        self.expect("}")
        self.expect(";")
        return DomainDecl(name, values, line)

    def parse_value_set(self, kind) -> tuple:
        def number():
            neg = bool(self.accept("-"))
            t = self.peek()
            if t.kind == "float" and kind == "int":
                self.fail("expected an integer in an int domain")
            if t.kind not in ("int", "float"):
                self.fail("expected a number")
            v = (int if kind == "int" else float)(self.next().value)
            return -v if neg else v

        values = [number()]
        if self.accept(".."):           # range shorthand {a..b}
            hi = number()
            if kind == "float":
                self.fail("range shorthand needs integer bounds")
            return tuple(range(values[0], hi + 1))
        while self.accept(","):
            values.append(number())
        return tuple(values)

    def parse_block(self) -> BrsBlock:
        line = self.line()
        self.expect("begin")
        t = self.expect("name", "semantics kind (brs, pbrs, sbrs or abrs)")
        kind = t.value
        if kind not in ("brs", "pbrs", "sbrs", "abrs"):
            self.fail("unknown semantics %r" % kind, t)
        init_expr = None
        classes = ()
        preds = ()
        actions = ()
        domains = []
        while not self.accept("end"):
            t = self.peek()
            if t.kind == "init":
                self.next()
                if init_expr is not None:
                    self.fail("duplicate init", t)
                init_expr = self.parse_bexp()
                self.expect(";")
            elif t.kind == "rules":
                self.next()
                self.expect("=")
                classes = self.group("[", self.parse_class, "]", empty=True)
                self.expect(";")
            elif t.kind == "preds":
                self.next()
                self.expect("=")
                preds = self.group("{", self.name, "}", empty=True)
                self.expect(";")
            elif t.kind == "actions":
                self.next()
                self.expect("=")
                actions = self.group("[", self.parse_action, "]")
                self.expect(";")
            elif t.kind == "domain":
                domains.append(self.parse_domain())
            elif t.kind == "eof":
                raise ParseError("unterminated begin block", line, 1)
            else:
                self.fail("unexpected %r in begin block" % t.value)
        if init_expr is None:
            raise ParseError("begin block has no init", line, 1)
        return BrsBlock(kind, init_expr, classes, preds, actions, tuple(domains))

    def parse_class(self) -> ClassAst:
        t = self.peek()
        if t.kind not in ("{", "("):
            self.fail("expected a priority class '{...}' or '(...)'")
        close = "}" if t.kind == "{" else ")"
        return ClassAst(self.group(t.kind, self.parse_ruleref, close, empty=True), close == ")")

    def parse_ruleref(self) -> RuleRef:
        name = self.name("rule name")
        args = self.group("(", self.parse_rule_arg, ")") if self.peek().kind == "(" else None
        return RuleRef(name, args)

    def parse_action(self) -> tuple:
        name = self.name("action name")
        self.expect("=")
        return name, self.group("{", self.name, "}")

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
        names = [self.name("link identifier")]
        while self.accept("/"):
            names.append(self.name("link identifier"))
        body = self.parse_bexp()
        return lambda ev, env: close(names, body(ev, env))

    def parse_share(self):
        self.expect("share")
        contents = self.parse_bexp()
        self.expect("by")
        self.expect("(")
        placement = self.group("[", self.parse_site_set, "]", empty=True)
        self.expect(",")
        count = self.integer("site count")
        self.expect(")")
        self.expect("in")
        host = self.parse_bexp()
        return lambda ev, env: share(contents(ev, env), placement, count, host(ev, env))

    def parse_site_set(self):
        return self.group("{", self.integer, "}")

    def parse_nest(self):
        heads = [self.parse_primary()]
        while self.accept("."):
            heads.append(self.parse_primary())
        return _chain(nest, heads)

    def parse_primary(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self.parse_bexp()
            self.expect(")")
            return e
        if t.kind == "int":
            if t.value != "1":
                self.fail("unexpected number %r in bigraph expression" % t.value)
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
            args = self.group("(", self.parse_arith, ")") if self.peek().kind == "(" else None
            names = self.parse_name_set() if self.peek().kind == "{" else None
            return lambda ev, env: ev.apply(t.value, args, names, env)
        self.fail("expected a bigraph expression, found %r" % (t.value or "end of input"))

    def parse_name_set(self):
        return self.group("{", lambda: self.name("link name"), "}")

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

    # sums and products are parsed without a shared helper, whose frame
    # would lower the depth that parenthesised arithmetic reaches
    def parse_arith(self):
        operands, fns = [self.parse_term()], []
        while self.peek().kind in ("+", "-"):
            fns.append(_ARITH[self.next().kind])
            operands.append(self.parse_term())
        return _arith(operands, fns)

    def parse_term(self):
        operands, fns = [self.parse_factor()], []
        while self.peek().kind in ("*", "/"):
            fns.append(_ARITH[self.next().kind])
            operands.append(self.parse_factor())
        return _arith(operands, fns)

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
            count = 0
            while self.accept("-"):
                count += 1
            return _neg(count, self.parse_factor())
        self.fail("expected a parameter expression")


def parse(source: str) -> Ast:
    """Parse a model file into its declarations, with every expression
    compiled to a builder (one begin...end block required).

    Operator chains have no length limit. Brackets (parentheses and the
    bodies of ``share ... in`` and closures) nested deeper than Python's
    recursion limit allows are rejected at the token the parser had
    reached. This is the front end's one depth guard: each builder that
    elaboration nests has a parser frame of its own, and each bracket
    adds parser frames that build nothing, so parsing runs out first.
    """
    parser = Parser(source)
    try:
        return parser.parse_file()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         *position(parser.starts, parser.peek().pos)) from None
