import random

import pytest

from bigengine import close, iso_equal, make_atom, merge, nest, one, parallel, share
from bigengine.bigraph import _mk
from bigengine.elaborate import load, load_file
from bigengine.errors import UnprintableBigraph
from bigengine.printing import print_bigraph, print_rule, print_spec

from conftest import MODELS
from genutil import DEFAULT_CONTROLS, make_sig, random_ground, random_solid_pattern

BLOCK = "\nbegin brs init start; rules = []; end\n"


def sig_decls(sig):
    out = []
    for c in sig.controls():
        head = "atomic ctrl" if c.atomic else "ctrl"
        out.append("%s %s = %d;" % (head, c.name, c.arity))
    return "\n".join(out)


def reparse(b):
    src = sig_decls(b.sig) + "\nbig probe = %s;\nbig start = 1;%s" % (
        print_bigraph(b), BLOCK)
    return load(src).bigs["probe"]


def test_roundtrip_simple(building_sig):
    b = nest(make_atom(building_sig, "Room"),
             merge(make_atom(building_sig, "Adult"), make_atom(building_sig, "Child")))
    assert iso_equal(reparse(b), b)


def test_closed_edge_prints_fresh_identifier(building_sig):
    b = close("x", merge(make_atom(building_sig, "Device", names=["x"]),
                         make_atom(building_sig, "Device", names=["x"])))
    text = print_bigraph(b)
    assert "x" not in text.replace("e0", "")  # bound identifier is fresh
    assert iso_equal(reparse(b), b)


def test_share_roundtrip(building_sig):
    host = nest(make_atom(building_sig, "Room"),
                merge(make_atom(building_sig, "Camera"), make_atom(building_sig, "Camera")))
    b = share(parallel(make_atom(building_sig, "Adult"), make_atom(building_sig, "Child")),
              [{0, 1}, {1}], 2, host)
    assert iso_equal(reparse(b), b)


def test_site_permutation_roundtrip(building_sig):
    sig = building_sig
    host = nest(make_atom(sig, "Room"),
                merge(make_atom(sig, "Camera"), make_atom(sig, "Camera")))
    contents = parallel(make_atom(sig, "Room"), make_atom(sig, "Floor"))  # two sites
    b = share(contents, [{1}, {0}], 2, host)     # swaps site order
    assert iso_equal(reparse(b), b)


def test_idle_names_roundtrip(building_sig):
    from bigengine import idle
    b = merge(make_atom(building_sig, "Device", names=["x"]), idle(building_sig, ["y"]))
    assert iso_equal(reparse(b), b)


def test_random_roundtrip():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(31337)
    for _ in range(150):
        b = random_ground(rng, sig, max_nodes=8)
        assert iso_equal(reparse(b), b)
    for _ in range(100):
        b = random_solid_pattern(rng, sig, max_nodes=5)
        assert iso_equal(reparse(b), b)
    # place DAGs, and patterns with shuffled sites: the printer wraps a
    # site order it cannot emit in increasing textual order
    for _ in range(150):
        b = random_ground(rng, sig, max_nodes=8, share_prob=0.4)
        assert iso_equal(reparse(b), b)
        p = random_solid_pattern(rng, sig, max_nodes=5, max_sites=3, share_prob=0.4)
        sps = list(p.site_parents)
        rng.shuffle(sps)
        p = _mk(sig, p.regions, p.sites, p.ctrl, p.params, p.node_parents, sps,
                p.ports, p.inner, p.outer, p.edges)
        assert iso_equal(reparse(p), p)


def test_random_shared_roundtrip(building_sig):
    sig = building_sig
    rng = random.Random(404)
    for _ in range(60):
        ncams = rng.randint(2, 3)
        cams = None
        for _ in range(ncams):
            c = make_atom(sig, "Camera")
            cams = c if cams is None else merge(cams, c)
        host = nest(make_atom(sig, "Room"), cams)
        k = rng.randint(1, 2)
        contents = None
        placement = []
        for _ in range(k):
            piece = make_atom(sig, rng.choice(["Adult", "Child"]))
            contents = piece if contents is None else parallel(contents, piece)
            placement.append(set(rng.sample(range(ncams), rng.randint(1, ncams))))
        b = share(contents, placement, ncams, host)
        assert iso_equal(reparse(b), b)


def rules_agree(r1, r2):
    return (iso_equal(r1.lhs, r2.lhs) and iso_equal(r1.rhs, r2.rhs)
            and r1.inst.entries == r2.inst.entries
            and r1.label.kind == r2.label.kind
            and r1.label.weight == r2.label.weight
            and r1.label.rate == r2.label.rate
            and len(r1.constraints) == len(r2.constraints))


def test_spec_roundtrip_corpus(models_dir):
    for path in sorted(models_dir.glob("*.big")):
        spec = load_file(path)
        text = print_spec(spec)
        spec2 = load(text)
        assert iso_equal(spec2.init, spec.init), path.name
        rules1, rules2 = list(spec.rules()), list(spec2.rules())
        assert len(rules1) == len(rules2), path.name
        for r1, r2 in zip(rules1, rules2):
            assert rules_agree(r1, r2), (path.name, r1.name)
        assert list(spec2.preds) == list(spec.preds)
        for name in spec.preds:
            assert iso_equal(spec2.preds[name], spec.preds[name])
        assert [c.instantaneous for c in spec2.classes] == \
            [c.instantaneous for c in spec.classes]


def test_print_rule_text():
    spec = load_file(MODELS / "pbrs_detect.big")
    detect = next(spec.rules())
    text = print_rule(detect)
    assert "-[4]->" in text


def test_pretty_print_dispatch():
    from bigengine.printing import pretty_print
    spec = load_file(MODELS / "secure_building.big")
    assert "Door" in pretty_print(spec.init)
    assert "-->" in pretty_print(next(spec.rules()))
    assert pretty_print(spec).startswith("atomic ctrl")


def test_deep_nesting_is_a_diagnostic():
    # the model loads, but the printer recurses once per nesting level
    spec = load("ctrl R = 0;\nbig start = %s1;%s" % ("R." * 600, BLOCK))
    with pytest.raises(UnprintableBigraph):
        print_spec(spec)


def test_param_literals_roundtrip():
    from bigengine.elaborate import load
    src = """
ctrl Box = 0;
atomic fun ctrl Tag(a, b) = 0;
big probe = Box.(Tag(3, "five") | Tag(-2, "s\\"x"));
big start = 1;
begin brs init start; rules = []; end
"""
    spec = load(src)
    b = spec.bigs["probe"]
    again = """
ctrl Box = 0;
atomic fun ctrl Tag(a, b) = 0;
big probe = %s;
big start = 1;
begin brs init start; rules = []; end
""" % print_bigraph(b)
    assert iso_equal(load(again).bigs["probe"], b)
