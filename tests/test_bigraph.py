import random
from functools import reduce

import pytest

from bigengine import (
    close,
    identity,
    idle,
    iso_equal,
    link_identity,
    make_atom,
    merge,
    nest,
    one,
    parallel,
    share,
)
from bigengine.errors import (
    ArityMismatch,
    AtomicViolation,
    BigraphError,
    EmptyClosure,
    IndexOutOfRange,
    UnknownName,
    WidthMismatch,
)

from genutil import (
    DEFAULT_CONTROLS,
    make_sig,
    permuted,
    random_ground,
    random_solid_pattern,
    reference_nest,
    reference_product,
    well_formed,
)


def test_make_atom_interface(building_sig):
    b = make_atom(building_sig, "Device", names=["x"])
    assert b.outer_interface() == (1, frozenset({"x"}))
    assert b.n == 1 and b.is_ground()
    assert well_formed(b)


def test_make_atom_atomic_no_site(building_sig):
    child = make_atom(building_sig, "Child")
    assert child.sites == 0 and child.edges == 0 and not child.outer


def test_make_atom_nonatomic_has_site(building_sig):
    room = make_atom(building_sig, "Room")
    assert room.sites == 1


def test_make_atom_repeated_names_share_link(building_sig):
    from bigengine.bigraph import Control, Signature
    sig = Signature([Control("K", 2, atomic=True)])
    b = make_atom(sig, "K", names=["x", "x"])
    assert b.port_count(("o", "x")) == 2


def test_make_atom_arity_mismatch(building_sig):
    with pytest.raises(ArityMismatch):
        make_atom(building_sig, "Device", names=["x", "y"])


def test_nest_room(building_sig):
    adult = make_atom(building_sig, "Adult")
    child = make_atom(building_sig, "Child")
    room = nest(make_atom(building_sig, "Room"), merge(adult, child))
    assert room.is_ground() and room.n == 3
    assert well_formed(room)


def test_nest_empty(building_sig):
    room = nest(make_atom(building_sig, "Room"), one(building_sig))
    assert room.sites == 0 and room.n == 1


def test_nest_atomic_violation(building_sig):
    with pytest.raises(AtomicViolation):
        nest(make_atom(building_sig, "Adult"), make_atom(building_sig, "Child"))


def test_nest_width_mismatch(building_sig):
    two = parallel(one(building_sig), one(building_sig))
    with pytest.raises(WidthMismatch):
        nest(make_atom(building_sig, "Room"), two)


def test_merge_commutative(building_sig):
    a = make_atom(building_sig, "Adult")
    c = make_atom(building_sig, "Child")
    assert iso_equal(merge(a, c), merge(c, a))


def test_merge_unit(building_sig):
    b = nest(make_atom(building_sig, "Room"), make_atom(building_sig, "Adult"))
    assert iso_equal(merge(b, one(building_sig)), b)
    assert iso_equal(merge(one(building_sig), b), b)


def test_merge_shares_open_link():
    from bigengine.bigraph import Control, Signature
    sig = Signature([Control("L", 1, atomic=True)])
    b = merge(make_atom(sig, "L", names=["x"]), make_atom(sig, "L", names=["x"]))
    assert b.port_count(("o", "x")) == 2
    assert b.regions == 1


def test_parallel_width(building_sig):
    b1 = make_atom(building_sig, "Adult")
    both = parallel(b1, make_atom(building_sig, "Adult"))
    assert both.regions == 2
    assert parallel(b1, one(building_sig)).regions == 2


def test_parallel_fuses_names(building_sig):
    c = make_atom(building_sig, "Device", names=["x"])
    d = make_atom(building_sig, "Device", names=["x"])
    b = parallel(c, d)
    assert b.port_count(("o", "x")) == 2
    assert b.outer == frozenset({"x"})


def test_close_alpha_irrelevant(building_sig):
    def two_devices(n):
        return merge(make_atom(building_sig, "Device", names=[n]),
                     make_atom(building_sig, "Device", names=[n]))

    assert iso_equal(close("x", two_devices("x")), close("y", two_devices("y")))


def test_close_single_port(building_sig):
    b = close("x", make_atom(building_sig, "Device", names=["x"]))
    assert b.edges == 1 and not b.outer


def test_close_unknown_and_idle(building_sig):
    with pytest.raises(UnknownName):
        close("z", make_atom(building_sig, "Device", names=["x"]))
    with pytest.raises(EmptyClosure):
        close("y", merge(make_atom(building_sig, "Device", names=["x"]),
                         idle(building_sig, ["y"])))


def test_closure_order_commutes(building_sig):
    b = merge(make_atom(building_sig, "Device", names=["x"]),
              make_atom(building_sig, "Device", names=["y"]))
    assert iso_equal(close("x", close("y", b)), close("y", close("x", b)))


def _outcome(build):
    """What build() returns, or its exception's type and message."""
    try:
        return build()
    except BigraphError as exc:
        return type(exc), str(exc)


def _reference(product):
    """product's binary case written out (genutil.reference_product)."""
    return lambda a, b: reference_product(a, b, product is merge)


def _close_each(names, b):
    """The closure /x /y ... b one name at a time, innermost first."""
    for name in reversed(names):
        b = close(name, b)
    return b


def _operands(rng, sig, k):
    """k random operands: ground bigraphs, solid patterns (some with
    sites), and bigraphs with inner names on open and closed links and
    with several regions."""
    def draw(i):
        pick = rng.randrange(4)
        if pick == 0:
            return random_ground(rng, sig, max_regions=3)
        if pick == 1:
            return random_solid_pattern(rng, sig, max_sites=3)
        if pick == 2:       # edge y may join a node's port or only the inner name
            x, y = "x%d" % i, "y%d" % i
            names = link_identity(sig, [x, y])
            if rng.random() < 0.5:
                names = merge(names, make_atom(sig, "B", names=[y]))
            return close(y, names)
        return parallel(identity(sig), one(sig), random_ground(rng, sig))
    return [draw(i) for i in range(k)]


def test_nary_products_number_as_the_fold():
    # dataclass equality, not iso_equal: the numbering is what keeps the
    # artifacts' bytes fixed
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(7)
    for _ in range(300):
        ops = _operands(rng, sig, rng.randint(1, 4))
        if len(ops) == 1:
            assert merge(ops[0]) == merge(ops[0], one(sig))
            # a lone one-region operand (a guard's one-part parameter) is not copied
            assert (merge(ops[0]) is ops[0]) == (ops[0].regions == 1)
            assert parallel(ops[0]) == ops[0]
            continue
        for product in (merge, parallel):
            got = product(*ops)
            assert got == reduce(product, ops) == reduce(_reference(product), ops)
            assert well_formed(got)


def test_multi_name_closure_numbers_as_the_fold():
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(11)
    for _ in range(300):
        b = parallel(*_operands(rng, sig, rng.randint(1, 3)))
        names = sorted(b.outer)
        rng.shuffle(names)
        names = names[:rng.randint(0, len(names))]
        assert _outcome(lambda: close(names, b)) == _outcome(lambda: _close_each(names, b))
        for name in names:
            assert close([name], b) == close(name, b)


def test_nary_errors_match_the_fold():
    # same exception and message as the fold, from the same first
    # failing operand or name
    sig, other = make_sig(DEFAULT_CONTROLS), make_sig(DEFAULT_CONTROLS)
    a, foreign = make_atom(sig, "A"), make_atom(other, "A")
    x = link_identity(sig, ["x"])
    for ops in ([a, foreign], [foreign, a], [a, x, x], [x, foreign, x], [x, x, foreign],
                [a, x, make_atom(sig, "B", names=["x"]), x]):
        for product in (merge, parallel):
            got = _outcome(lambda: product(*ops))
            folds = [_outcome(lambda: reduce(f, ops)) for f in (product, _reference(product))]
            assert isinstance(got, tuple) and folds == [got, got]
    b = merge(make_atom(sig, "B", names=["x"]), idle(sig, ["y"]))
    for names in (["x", "x"], ["y"], ["z"], ["z", "y"], ["y", "z"], ["z", "x", "x"]):
        got = _outcome(lambda: close(names, b))
        assert isinstance(got, tuple) and got == _outcome(lambda: _close_each(names, b))


def _nest_operand(rng, sig, regions):
    """An operand of the given width: one random piece per region (some
    with sites, shared sites, closed edges or atomic), sometimes with an
    inner name; a width of 0 is an idle name."""
    if not regions:
        return idle(sig, [rng.choice("ab")])
    pieces = []
    for _ in range(regions):
        pick = rng.randrange(6)
        if pick == 0:
            pieces.append(identity(sig))
        elif pick == 1:
            pieces.append(make_atom(sig, rng.choice("AD")))
        elif pick == 2:
            pieces.append(make_atom(sig, "B", names=[rng.choice("ab")]))
        elif pick == 3:
            pieces.append(random_solid_pattern(rng, sig, max_regions=1, share_prob=0.3))
        elif pick == 4:
            pieces.append(random_ground(rng, sig, max_regions=1, share_prob=0.3))
        else:
            pieces.append(one(sig))
    if rng.random() < 0.15:
        pieces.append(link_identity(sig, ["y"]))
    return parallel(*pieces)


def test_nary_nest_numbers_as_the_right_fold():
    # nest(b0, b1, ...) is nest(b0, nest(b1, ...)) field by field, and a
    # chain with bad pairs raises the first error of the fold, from its
    # rightmost bad pair
    sig, other = make_sig(DEFAULT_CONTROLS), make_sig(DEFAULT_CONTROLS)
    rng = random.Random(5)
    built = 0
    for _ in range(400):
        ops = [_nest_operand(rng, sig, rng.randint(0, 2))]
        for _ in range(rng.randint(1, 4)):
            width = ops[-1].sites if rng.random() < 0.85 else rng.randint(0, 2)
            ops.append(_nest_operand(rng, other if rng.random() < 0.03 else sig, width))
        got = _outcome(lambda: nest(*ops))
        folds = [_outcome(lambda: reduce(lambda inner, outer: f(outer, inner), reversed(ops)))
                 for f in (nest, reference_nest)]
        assert folds == [got, got]
        if not isinstance(got, tuple):
            assert well_formed(got)
            built += 1
    assert 100 < built < 350


def shared_room(sig):
    host = nest(make_atom(sig, "Room"),
                merge(make_atom(sig, "Camera"), make_atom(sig, "Camera")))
    contents = parallel(make_atom(sig, "Adult"), make_atom(sig, "Child"))
    return share(contents, [{0, 1}, {1}], 2, host)


def test_share_multi_parent(building_sig):
    b = shared_room(building_sig)
    assert well_formed(b)
    adult = b.ctrl.index("Adult")
    child = b.ctrl.index("Child")
    assert len(b.node_parents[adult]) == 2
    assert len(b.node_parents[child]) == 1


def test_share_singleton_is_nesting(building_sig):
    host = make_atom(building_sig, "Room")
    inner = make_atom(building_sig, "Adult")
    assert iso_equal(share(inner, [{0}], 1, host), nest(host, inner))


def test_share_index_out_of_range(building_sig):
    host = nest(make_atom(building_sig, "Room"),
                merge(make_atom(building_sig, "Camera"), make_atom(building_sig, "Camera")))
    with pytest.raises(IndexOutOfRange):
        share(make_atom(building_sig, "Adult"), [{0, 2}], 2, host)


def test_children_are_built_sorted():
    # children() appends nodes by index, then sites by index, and
    # ("n", i) sorts before ("s", k), so it sorts nothing: every tuple
    # must equal its sorted self, with sites, sharing and any numbering
    sig = make_sig(DEFAULT_CONTROLS)
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        for b in (random_solid_pattern(rng, sig, max_nodes=8, max_sites=3, share_prob=0.5),
                  random_ground(rng, sig, max_nodes=10, share_prob=0.5)):
            b = permuted(b, rng)
            for cs in b.children().values():
                assert list(cs) == sorted(cs)
                seen.update(c[0] for c in cs)
                seen.add("nn" if sum(c[0] == "n" for c in cs) > 1 else "n")
                seen.add("ns" if {"n", "s"} <= {c[0] for c in cs} else "n")
    assert seen == {"n", "s", "nn", "ns"}


def test_is_ground(building_sig):
    assert nest(make_atom(building_sig, "Room"), one(building_sig)).is_ground()
    assert not make_atom(building_sig, "Room").is_ground()   # Room.id
    assert idle(building_sig, ["x"]).is_ground()


def test_is_solid(building_sig):
    # two-room movement pattern: solid
    left = nest(make_atom(building_sig, "Room"),
                merge(make_atom(building_sig, "Adult"), identity(building_sig)))
    lhs = parallel(left, make_atom(building_sig, "Room"))
    assert lhs.is_solid()
    assert not one(building_sig).is_solid()                   # bare region
    b = merge(make_atom(building_sig, "Device", names=["x"]), idle(building_sig, ["y"]))
    assert not b.is_solid()                                   # idle outer name
    assert not identity(building_sig).is_solid()              # site under region


def test_sibling_sites_not_solid(building_sig):
    room = nest(make_atom(building_sig, "Room"),
                merge(identity(building_sig), identity(building_sig)))
    assert not room.is_solid()


def test_labels_are_control_and_parameters_as_printed():
    from bigengine.bigraph import Control, Signature, exact_fields, labels
    sig = Signature([Control("A", 0), Control("P", 0, atomic=True, param_names=("x",))])
    a = make_atom(sig, "A")
    zeros = merge(a, make_atom(sig, "P", [0.0]), make_atom(sig, "P", [-0.0]))
    assert labels(zeros) == ("A", "('P', (0.0,))", "('P', (-0.0,))")
    assert labels(zeros) is labels(zeros)
    same = merge(a, make_atom(sig, "P", [0.0]), make_atom(sig, "P", [0.0]))
    assert zeros == same and exact_fields(zeros) != exact_fields(same)
