"""bigengine: build, rewrite, and explore bigraphical reactive systems."""

from .bigraph import (
    Bigraph,
    Control,
    Signature,
    close,
    identity,
    idle,
    link_identity,
    make_atom,
    merge,
    nest,
    one,
    parallel,
    share,
)
from .canon import iso_equal
from .matching import (
    MatchConstraint,
    Occurrence,
    check_constraints,
    find_occurrences,
    matches_predicate,
)
from .rules import InstMap, PriorityClass, ReactionRule, RuleLabel, apply_at, validate_rule
from .elaborate import BrsSpec, elaborate, load, load_file
from .engine import SimTrace, Transition, TransitionSystem, explore, simulate
from .export import write_dot, write_labels, write_tra
from .language import parse
from .printing import pretty_print

__all__ = [
    "Bigraph", "Control", "Signature",
    "make_atom", "nest", "merge", "parallel", "close", "share",
    "one", "identity", "idle", "link_identity",
    "iso_equal",
    "Occurrence", "MatchConstraint", "find_occurrences",
    "matches_predicate", "check_constraints",
    "InstMap", "RuleLabel", "ReactionRule", "PriorityClass",
    "validate_rule", "apply_at",
    "parse", "elaborate", "load", "load_file", "BrsSpec",
    "Transition", "TransitionSystem", "SimTrace", "explore", "simulate",
    "write_tra", "write_labels", "write_dot", "pretty_print",
]

__version__ = "0.1.0"
