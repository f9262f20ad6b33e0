"""Reaction rules: validation, conditional guards, and application.

A rule rewrites an occurrence of its left side into its right side. The
two sides must have equal outer interfaces (width and name set); the
instantiation map says, for every site of the right side, which left
site's parameter fills it, enabling duplication and discard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bigraph import Bigraph
from .errors import (
    ConstraintViolated,
    InnerInterfaceMismatch,
    InvalidInstMap,
    LhsNotSolid,
    OuterInterfaceMismatch,
)
from .matching import (
    MatchConstraint,
    Occurrence,
    check_constraints,
    find_occurrences,
    recompose,
)


@dataclass(frozen=True)
class InstMap:
    """entries[i] = left-hand site whose parameter fills right-hand site i."""

    entries: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "InstMap":
        return InstMap(tuple(range(n)))


@dataclass(frozen=True)
class RuleLabel:
    """How a rule participates in the chosen semantics.

    kind 'plain' (non-deterministic), 'weight' (probabilistic, positive
    rational), 'rate' (stochastic, positive real) or 'action' (weight
    within a named action).
    """

    kind: str = "plain"
    weight: Fraction | None = None
    rate: float | None = None
    action: str | None = None

    def __post_init__(self):
        if self.kind not in ("plain", "weight", "rate", "action"):
            raise ValueError("bad label kind %r" % self.kind)
        if self.kind in ("weight", "action") and not (self.weight and self.weight > 0):
            raise ValueError("weight must be positive")
        if self.kind == "rate" and not (self.rate and self.rate > 0):
            raise ValueError("rate must be positive")


def _fmt_iface(width: int, names) -> str:
    return "<%d, {%s}>" % (width, ", ".join(sorted(names)))


@dataclass
class ReactionRule:
    name: str
    lhs: Bigraph
    rhs: Bigraph
    inst: InstMap | None = None
    constraints: tuple[MatchConstraint, ...] = ()
    label: RuleLabel = field(default_factory=RuleLabel)

    def __post_init__(self):
        if self.inst is None and self.lhs.sites == self.rhs.sites:
            self.inst = InstMap.identity(self.lhs.sites)


@dataclass(frozen=True)
class PriorityClass:
    rules: tuple[ReactionRule, ...]
    instantaneous: bool = False


def validate_rule(rule: ReactionRule) -> None:
    """Interface equality, left solidity, and instantiation-map validity."""
    lhs, rhs = rule.lhs, rule.rhs
    lw, lnames = lhs.outer_interface()
    rw, rnames = rhs.outer_interface()
    if (lw, lnames) != (rw, rnames):
        raise OuterInterfaceMismatch(
            "Outer interfaces %s and %s do not match"
            % (_fmt_iface(lw, lnames), _fmt_iface(rw, rnames)))
    if rule.inst is None:
        li, linn = lhs.inner_interface()
        ri, rinn = rhs.inner_interface()
        raise InnerInterfaceMismatch(
            "Inner interfaces%s and %s do not match"
            % (_fmt_iface(li, linn), _fmt_iface(ri, rinn)))
    if len(rule.inst.entries) != rhs.sites:
        raise InvalidInstMap("Instantiation map is not valid: %d entries for %d site(s)"
                             % (len(rule.inst.entries), rhs.sites))
    for e in rule.inst.entries:
        if not (0 <= e < lhs.sites):
            raise InvalidInstMap(
                "Instantiation map is not valid: entry %d outside 0..%d"
                % (e, lhs.sites - 1))
    if lhs.inner or rhs.inner:
        raise LhsNotSolid("rules with inner names are not supported")
    if not lhs.is_solid():
        raise LhsNotSolid("left-hand side of %s is not solid" % rule.name)


def apply_at(state: Bigraph, rule: ReactionRule, occ: Occurrence) -> Bigraph:
    """Replace the matched left side by the right side at one occurrence.

    Parameters are duplicated or discarded per the instantiation map:
    copies share their open links (and any link exposed to the rest of
    the state), while edges wholly inside one part are cloned per copy.
    """
    if not check_constraints(occ, rule.constraints):
        raise ConstraintViolated("conditions of rule %s fail at this occurrence" % rule.name)
    return recompose(occ, rule.rhs, [occ.parameter[j] for j in rule.inst.entries])


def all_applications(state: Bigraph, rule: ReactionRule):
    """Every constraint-passing occurrence with its rewrite result."""
    out = []
    for occ in find_occurrences(state, rule.lhs):
        if check_constraints(occ, rule.constraints):
            out.append((occ, apply_at(state, rule, occ)))
    return out
