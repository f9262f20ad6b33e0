"""The colours of ``canon.certificate``'s walk on open bigraphs: sites,
inner names and open names seed the colours there, so their partition
must match ``genutil.reference_refine``'s on patterns as it does on
states."""

import random

from bigengine import canon
from bigengine.bigraph import _mk

from genutil import (DEFAULT_CONTROLS, make_sig, random_solid_pattern, reference_refine,
                     walk_colours)

SIG = make_sig(DEFAULT_CONTROLS)


def opened(b, rng):
    """b with a twin beside some childless nodes and up to three inner
    names, each wired to one of b's links."""
    hosts = {p[1] for ps in b.node_parents + b.site_parents for p in ps if p[0] == "n"}
    extra = [i for i in range(b.n) if i not in hosts and rng.random() < 0.5]
    grow = lambda row: tuple(row) + tuple(row[i] for i in extra)
    links = [("o", x) for x in sorted(b.outer)] + [("e", k) for k in range(b.edges)]
    inner = [(f"w{r}", rng.choice(links)) for r in range(rng.randint(0, 3) if links else 0)]
    return _mk(b.sig, b.regions, b.sites, grow(b.ctrl), grow(b.params), grow(b.node_parents),
               b.site_parents, grow(b.ports), inner, b.outer, b.edges)


def same_partition(xs, ys):
    """Whether two colourings of the same items split them alike."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def test_refinement_partition_matches_reference_on_patterns():
    rng = random.Random(31)
    drawn = [opened(random_solid_pattern(rng, SIG, max_nodes=6, share_prob=0.2), rng)
             for _ in range(600)]
    assert sum(b.sites > 0 for b in drawn) > 300 and sum(bool(b.inner) for b in drawn) > 200
    for b in drawn:
        ncol, ecol = walk_colours(b)
        ordered = canon.certificate(b)[0]
        rcol, recol, rordered = reference_refine(b)
        assert same_partition(ncol, rcol) and same_partition(ecol, recol)
        assert ordered == rordered
