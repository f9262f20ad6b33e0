"""Differential check of the engine against itself: every step that
``simulate`` takes, by really rewriting and settling, must be a
transition that ``explore`` found, with the same label. ``explore``
takes shortcuts that ``simulate`` does not (a stutter hit joins its
state's group unapplied, and a rewrite its store holds is not settled),
so this is the net under them. States are identified by the networkx
isomorphism oracle, never by the engine's certificates."""

from collections import Counter

import pytest

from bigengine.bigraph import labels
from bigengine.elaborate import load_file
from bigengine.engine import explore, simulate

from conftest import MODELS
from genutil import nx_iso

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
