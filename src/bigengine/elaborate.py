"""Elaboration: resolve declarations, expand parameterised entities and
rules over their declared domains, convert labels for the chosen
semantics, and validate everything into a BrsSpec ready to execute.

Parameter arithmetic is evaluated here, at elaboration time, so the
resulting rule set is fully instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import language as lang
from .bigraph import (
    Bigraph,
    Control,
    Signature,
    close,
    idle,
    identity,
    link_identity,
    make_atom,
    merge,
    nest,
    one,
    parallel,
    share,
)
from .errors import (
    ActionPartitionError,
    DuplicateDefinition,
    ElaborationError,
    InitNotGround,
    MixedLabelKinds,
    ParseError,
    PatternNotSolid,
    SignatureError,
    UnknownIdentifier,
    UnknownRuleInBlock,
)
from .matching import MatchConstraint
from .rules import InstMap, PriorityClass, ReactionRule, RuleLabel, validate_rule


@dataclass
class BrsSpec:
    """A fully elaborated model: what the engine executes."""

    signature: Signature
    init: Bigraph
    classes: tuple[PriorityClass, ...]
    preds: dict[str, Bigraph]
    semantics: str
    actions: dict[str, tuple[str, ...]] = field(default_factory=dict)
    param_domains: dict[str, tuple] = field(default_factory=dict)
    bigs: dict[str, Bigraph] = field(default_factory=dict)

    def rules(self):
        for cls in self.classes:
            yield from cls.rules


class _Evaluator:
    def __init__(self, sig: Signature, bigs: dict):
        self.sig = sig
        self.bigs = bigs

    def arith(self, a, env):
        if isinstance(a, lang.ANum):
            return a.value
        if isinstance(a, lang.AStr):
            return a.value
        if isinstance(a, lang.AVar):
            if a.name in env:
                return env[a.name]
            raise UnknownIdentifier("unknown parameter %r" % a.name)
        if isinstance(a, lang.ANeg):
            v = self.arith(a.operand, env)
            if isinstance(v, str):
                raise ElaborationError("cannot negate a string parameter")
            return -v
        if isinstance(a, lang.ABin):
            l = self.arith(a.left, env)
            r = self.arith(a.right, env)
            if isinstance(l, str) or isinstance(r, str):
                raise ElaborationError("arithmetic on string parameters")
            if a.op == "+":
                return l + r
            if a.op == "-":
                return l - r
            if a.op == "*":
                return l * r
            if isinstance(l, int) and isinstance(r, int):
                if r == 0 or l % r:
                    raise ElaborationError("%d / %d is not an integer" % (l, r))
                return l // r
            if r == 0:
                raise ElaborationError("%r / %r is not a number" % (l, r))
            return l / r
        raise ElaborationError("bad parameter expression %r" % (a,))

    def bigraph(self, e, env):
        sig = self.sig
        if isinstance(e, lang.EOne):
            return one(sig)
        if isinstance(e, lang.EId):
            return identity(sig)
        if isinstance(e, lang.EIdle):
            return idle(sig, e.names)
        if isinstance(e, lang.EIdLink):
            return link_identity(sig, e.names)
        if isinstance(e, lang.EApply):
            if e.name in self.bigs:
                if e.args is not None or e.names is not None:
                    raise ElaborationError(
                        "%s names a bigraph and takes no arguments" % e.name)
                return self.bigs[e.name]
            if e.name in sig:
                params = [self.arith(a, env) for a in (e.args or ())]
                return make_atom(sig, e.name, params, e.names or ())
            raise UnknownIdentifier("unknown identifier %r" % e.name)
        if isinstance(e, lang.EMer):
            return merge(self.bigraph(e.left, env), self.bigraph(e.right, env))
        if isinstance(e, lang.EPar):
            return parallel(self.bigraph(e.left, env), self.bigraph(e.right, env))
        if isinstance(e, lang.ENest):
            return nest(self.bigraph(e.head, env), self.bigraph(e.child, env))
        if isinstance(e, lang.EClose):
            return close(e.name, self.bigraph(e.body, env))
        if isinstance(e, lang.EShare):
            return share(self.bigraph(e.contents, env), list(e.placement),
                         e.count, self.bigraph(e.host, env))
        raise ElaborationError("bad bigraph expression %r" % (e,))


def _make_label(semantics: str, text: str | None, rule_name: str) -> RuleLabel:
    if semantics == "brs":
        if text is not None:
            raise MixedLabelKinds(
                "rule %s carries a weight/rate but the block is a brs" % rule_name)
        return RuleLabel()
    if text is None:
        raise MixedLabelKinds(
            "rule %s needs a %s in a %s"
            % (rule_name, "rate" if semantics == "sbrs" else "weight", semantics))
    if semantics == "sbrs":
        rate = float(text)
        if rate <= 0:
            raise MixedLabelKinds("rate of rule %s must be positive" % rule_name)
        return RuleLabel("rate", rate=rate)
    weight = Fraction(text)
    if weight <= 0:
        raise MixedLabelKinds("weight of rule %s must be positive" % rule_name)
    # abrs action is attached after the action partition is known
    return RuleLabel("weight", weight=weight)


def _value_name(v) -> str:
    return repr(v) if isinstance(v, str) else str(v)


def elaborate(ast: lang.Ast) -> BrsSpec:
    sig = Signature()
    bigs: dict[str, Bigraph] = {}
    reacts: dict[str, lang.ReactDef] = {}
    domains: dict[str, tuple] = {}
    namespace: set[str] = set()

    def declare(name: str, line: int):
        if name in namespace:
            raise DuplicateDefinition("line %d: %r defined twice" % (line, name))
        namespace.add(name)

    ev = _Evaluator(sig, bigs)

    for decl in ast.decls:
        if isinstance(decl, lang.CtrlDecl):
            declare(decl.name, decl.line)
            try:
                sig.add(Control(decl.name, decl.arity, decl.atomic, decl.params or ()))
            except SignatureError as exc:
                raise DuplicateDefinition(str(exc)) from None
        elif isinstance(decl, lang.BigDef):
            declare(decl.name, decl.line)
            bigs[decl.name] = ev.bigraph(decl.expr, {})
        elif isinstance(decl, lang.ReactDef):
            declare(decl.name, decl.line)
            reacts[decl.name] = decl
        elif isinstance(decl, lang.DomainDecl):
            declare(decl.name, decl.line)
            domains[decl.name] = tuple(decl.values)

    block = ast.block
    for d in block.domains:
        declare(d.name, d.line)
        domains[d.name] = tuple(d.values)

    semantics = block.kind
    if block.actions and semantics != "abrs":
        raise ElaborationError("actions are only allowed in an abrs block")

    action_of: dict[str, str] = {}
    for action, rule_names in block.actions:
        for rn in rule_names:
            if rn in action_of:
                raise ActionPartitionError(
                    "rule %s appears in actions %s and %s" % (rn, action_of[rn], action))
            action_of[rn] = action

    def build_instance(decl: lang.ReactDef, inst_name: str, env: dict) -> ReactionRule:
        lhs = ev.bigraph(decl.lhs, env)
        rhs = ev.bigraph(decl.rhs, env)
        constraints = []
        for cond in decl.conds:
            pat = ev.bigraph(cond.pattern, env)
            if pat.inner or not pat.is_solid():
                raise PatternNotSolid(
                    "condition pattern of rule %s is not solid" % inst_name)
            kind = ("absent_" if cond.negated else "present_") + cond.where
            constraints.append(MatchConstraint(kind, pat))
        label = _make_label(semantics, decl.label_text, inst_name)
        if semantics == "abrs":
            action = action_of.get(decl.name)
            if action is None:
                raise ActionPartitionError(
                    "rule %s belongs to no action" % decl.name)
            label = RuleLabel("action", weight=label.weight, action=action)
        inst = InstMap(decl.inst) if decl.inst is not None else None
        rule = ReactionRule(inst_name, lhs, rhs, inst, tuple(constraints), label)
        validate_rule(rule)
        return rule

    def expand_ref(ref: lang.RuleRef):
        decl = reacts.get(ref.name)
        if decl is None:
            raise UnknownRuleInBlock("unknown rule %r in rules block" % ref.name)
        if decl.params is None:
            if ref.args is not None:
                raise ElaborationError("rule %s is not parameterised" % ref.name)
            return [build_instance(decl, decl.name, {})]
        if ref.args is None or len(ref.args) != len(decl.params):
            raise ElaborationError(
                "rule %s expects %d argument(s)" % (ref.name, len(decl.params)))
        pools = []
        for a in ref.args:
            if isinstance(a, lang.AVar) and a.name in domains:
                pools.append(domains[a.name])
            else:
                pools.append((ev.arith(a, {}),))
        out = []
        for combo in product(*pools):
            env = dict(zip(decl.params, combo))
            inst_name = "%s(%s)" % (ref.name, ",".join(_value_name(v) for v in combo))
            out.append(build_instance(decl, inst_name, env))
        return out

    classes = []
    seen_rule_names = set()
    for cls_ast in block.classes:
        rules = []
        for ref in cls_ast.refs:
            for rule in expand_ref(ref):
                if rule.name in seen_rule_names:
                    raise DuplicateDefinition(
                        "rule %s appears twice in the rules block" % rule.name)
                seen_rule_names.add(rule.name)
                rules.append(rule)
        classes.append(PriorityClass(tuple(rules), cls_ast.instantaneous))

    if semantics == "abrs":
        declared = set()
        for _, rule_names in block.actions:
            declared.update(rule_names)
        for rn in declared:
            if rn not in reacts:
                raise ActionPartitionError("action lists unknown rule %r" % rn)

    init = ev.bigraph(block.init_expr, {})
    if not init.is_ground():
        raise InitNotGround("Init bigraph is not ground")

    preds: dict[str, Bigraph] = {}
    for name in block.preds:
        pat = bigs.get(name)
        if pat is None:
            raise UnknownIdentifier("predicate %r is not a declared bigraph" % name)
        if pat.inner or not pat.is_solid():
            raise PatternNotSolid("predicate %s is not solid" % name)
        preds[name] = pat

    return BrsSpec(signature=sig, init=init, classes=tuple(classes), preds=preds,
                   semantics=semantics, actions={a: rs for a, rs in block.actions},
                   param_domains=domains, bigs=bigs)


def load(source: str) -> BrsSpec:
    """Parse and elaborate a model source text."""
    ast = lang.parse(source)
    try:
        return elaborate(ast)
    except RecursionError:        # e.g. a chain of thousands of merges
        raise ElaborationError("expression nested too deeply to elaborate") from None


def load_file(path) -> BrsSpec:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError("byte 0x%02x is not valid UTF-8" % data[exc.start],
                         line, col) from None
    return load(source.replace("\r\n", "\n").replace("\r", "\n"))   # universal newlines
