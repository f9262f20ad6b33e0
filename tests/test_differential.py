"""Differential checks of ``explore``. Every step that ``simulate``
takes, by really rewriting and settling, must be a transition that
``explore`` found, with the same label. ``explore`` takes shortcuts that
``simulate`` does not (a stutter hit joins its state's group unapplied,
and a rewrite its store holds is not settled), so this is the net under
them. And ``explore`` must find what ``genutil.reference_explore`` finds
with no shortcut and no certificate: the same states in the same order,
the same transitions and the same dropped groups. States are identified
by the networkx isomorphism oracle, never by the engine's certificates."""

from collections import Counter

import pytest

from bigengine.bigraph import labels
from bigengine.elaborate import load, load_file
from bigengine.engine import explore, simulate

from conftest import MODELS
from genutil import nx_iso, reference_explore
from test_engine import ROOMS

BOUND = 60
SEEDS = (1, 2)
STEPS = 20


def _shape(b):
    """A cheap isomorphism invariant, to pick the states worth comparing."""
    return b.n, b.edges, tuple(sorted(Counter(labels(b)).items()))


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.big")), ids=lambda p: p.stem)
def test_sim_steps_are_explore_transitions(path):
    nx = pytest.importorskip("networkx")
    spec = load_file(path)
    ts = explore(spec, BOUND)
    by_shape: dict = {}
    for k, s in enumerate(ts.states):
        by_shape.setdefault(_shape(s), []).append(k)

    def find(b):
        """The index of the stored state isomorphic to b, or None."""
        return next((k for k in by_shape.get(_shape(b), ()) if nx_iso(nx, ts.states[k], b)),
                    None)

    out: dict = {}
    for t in ts.transitions:
        out.setdefault(t.src, []).append((t.dst, t.label, t.rule_names))
    checked = 0
    for seed in SEEDS:
        steps = simulate(spec, STEPS, seed).steps
        src = find(steps[0][0])
        assert src == ts.init_index, path.name
        for state, rule, label in steps[1:]:
            dst = find(state)
            if src is not None:           # a step beyond the bound is skipped
                if dst is None:
                    # the successor lies beyond the bound: explore dropped it
                    assert any(i == src and lab == label and rule in names
                               for i, lab, names in ts.dropped), (path.name, seed)
                else:
                    assert any(j == dst and lab == label and rule in names
                               for j, lab, names in out.get(src, ())), (path.name, seed)
                checked += 1
            src = dst
    assert checked or not ts.transitions, path.name


@pytest.mark.parametrize("source", sorted(MODELS.glob("*.big")) + [ROOMS],
                         ids=lambda s: s.stem if hasattr(s, "stem") else "ROOMS")
def test_explore_matches_reference_explorer(source):
    # the orbit keys, store shortcuts and certificates of explore change
    # nothing that the semantics, written out, finds: state i is state i,
    # and transitions and dropped groups agree as multisets
    nx = pytest.importorskip("networkx")
    spec = load(source) if isinstance(source, str) else load_file(source)
    ts = explore(spec, BOUND)
    states, transitions, dropped = reference_explore(spec, BOUND)
    assert len(ts.states) == len(states)
    assert all(nx_iso(nx, a, b) for a, b in zip(ts.states, states))
    assert (Counter((t.src, t.dst, t.label, t.rule_names) for t in ts.transitions)
            == Counter(transitions))
    assert Counter(ts.dropped) == Counter(dropped)
