"""Elaboration: resolve declarations, expand parameterised entities and
rules over their declared domains, convert labels for the chosen
semantics, and validate everything into a BrsSpec ready to execute.

The parser has compiled every expression to a builder; elaboration calls
each builder with the evaluator below and the rule's parameter binding,
so parameter arithmetic runs here, inside the builders, and the
resulting rule set is fully instantiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import language as lang
from .bigraph import Bigraph, Control, Signature, exact_fields, make_atom
from .errors import (
    ActionPartitionError,
    DuplicateDefinition,
    ElaborationError,
    InitNotGround,
    MixedLabelKinds,
    ParseError,
    PatternNotSolid,
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
    """What compiled expressions read: the signature, the named bigraphs,
    and the lookup of an applied identifier. Equal atoms are one value,
    memoised per elaboration by control, parameters as ``labels`` prints
    them (``1``, ``1.0`` and ``-0.0`` apart) and names."""

    def __init__(self, sig: Signature, bigs: dict):
        self.sig = sig
        self.bigs = bigs
        self.atoms: dict = {}           # not on sig: atoms refer to sig, a cycle

    def apply(self, name: str, args, names, env) -> Bigraph:
        if name in self.bigs:
            if args is not None or names is not None:
                raise ElaborationError("%s names a bigraph and takes no arguments" % name)
            return self.bigs[name]
        if name in self.sig:
            params = [a(self, env) for a in args or ()]
            key = (name, repr(params), names)
            if key not in self.atoms:
                self.atoms[key] = make_atom(self.sig, name, params, names or ())
            return self.atoms[key]
        raise UnknownIdentifier("unknown identifier %r" % name)


def _make_label(semantics: str, text: str | None, rule_name: str) -> RuleLabel:
    if semantics == "brs":
        if text is not None:
            raise MixedLabelKinds(
                "rule %s carries a weight/rate but the block is a brs" % rule_name)
        return RuleLabel()
    what = "rate" if semantics == "sbrs" else "weight"
    if text is None:
        raise MixedLabelKinds("rule %s needs a %s in a %s" % (rule_name, what, semantics))
    if not 0 < float(text) < math.inf:      # 1.0e999 reads as inf, 1.0e-400 as 0
        raise MixedLabelKinds("%s of rule %s must be positive and finite" % (what, rule_name))
    if semantics == "sbrs":
        return RuleLabel("rate", rate=float(text))
    # abrs action is attached after the action partition is known
    return RuleLabel("weight", weight=Fraction(text))


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
    # equal left sides, parameters as printed, become one object, so the
    # engine searches each once per class
    lhs_of: dict[tuple, Bigraph] = {}

    for decl in ast.decls:
        declare(decl.name, decl.line)
        match decl:
            case lang.CtrlDecl():
                sig.add(Control(decl.name, decl.arity, decl.atomic, decl.params or ()))
            case lang.BigDef():
                bigs[decl.name] = decl.expr(ev, {})
            case lang.ReactDef():
                reacts[decl.name] = decl
            case lang.DomainDecl():
                domains[decl.name] = decl.values

    block = ast.block
    for d in block.domains:
        declare(d.name, d.line)
        domains[d.name] = d.values

    semantics = block.kind
    if block.actions and semantics != "abrs":
        raise ElaborationError("actions are only allowed in an abrs block")

    actions: dict[str, tuple[str, ...]] = {}
    action_of: dict[str, str] = {}
    for action, rule_names in block.actions:
        if action in actions:
            raise ActionPartitionError("action %s is declared twice" % action)
        actions[action] = rule_names
        for rn in rule_names:
            if rn in action_of:
                raise ActionPartitionError(
                    "rule %s appears in actions %s and %s" % (rn, action_of[rn], action))
            action_of[rn] = action

    def build_instance(decl: lang.ReactDef, inst_name: str, env: dict) -> ReactionRule:
        lhs = decl.lhs(ev, env)
        lhs = lhs_of.setdefault(exact_fields(lhs), lhs)
        rhs = decl.rhs(ev, env)
        constraints = []
        for cond in decl.conds:
            pat = cond.pattern(ev, env)
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
        pools = [domains[name] if name in domains else (expr(ev, {}),)
                 for name, expr in ref.args]
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

    for rn in action_of:
        if rn not in reacts:
            raise ActionPartitionError("action lists unknown rule %r" % rn)

    init = block.init_expr(ev, {})
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
                   semantics=semantics, actions=actions,
                   param_domains=domains, bigs=bigs)


def load(source: str) -> BrsSpec:
    """Parse and elaborate a model source text."""
    return elaborate(lang.parse(source))


def load_file(path) -> BrsSpec:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # latin-1 reads each byte as one character: the column counts bytes
        starts = lang.line_starts(data.decode("latin-1"))
        raise ParseError("byte 0x%02x is not valid UTF-8" % data[exc.start],
                         *lang.position(starts, exc.start)) from None
    return load(source.replace("\r\n", "\n").replace("\r", "\n"))   # universal newlines
