"""Tests for partial labelings, orders, and partition codes."""

import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finobs.enumeration import all_functions, all_partial_functions, set_partitions
from finobs.errors import (
    InsufficientLabels,
    NonIdealFamily,
    UnorderedLabels,
    ValidationError,
)
from finobs.measurement import (
    LabelSet,
    ObjectSet,
    PartialLabeling,
    PartitionPlus,
    Scale,
    ideal_contains,
    ideal_members,
    is_observable,
    label_codes,
    le,
    partition_of_family,
    pref_le,
    pushforward_partition,
    scale_to_partition,
)
from finobs.measurement import _outside
from finobs.serial import dumps_value

X3 = ObjectSet(("x", "y", "z"), "a")
Y2 = LabelSet((0, 1), ordered=True)
Y3 = LabelSet((0, 1, 2), ordered=True)


def lab(entries, objects=X3, labels=Y2):
    return PartialLabeling(objects, labels, entries)


def test_object_set_rejects_duplicates_and_inside_distinguished():
    with pytest.raises(ValidationError):
        ObjectSet(("x", "x"), "a")
    with pytest.raises(ValidationError):
        ObjectSet(("x", "a"), "a")


def test_labeling_validation():
    with pytest.raises(ValidationError):
        PartialLabeling(X3, Y2, [("x", 0), ("x", 1)])
    with pytest.raises(ValidationError):
        lab({"w": 0})
    with pytest.raises(ValidationError):
        lab({"x": 7})


def test_labeling_rejects_the_absorber_and_unknown_objects():
    # the position map also holds the distinguished element, which is
    # still no object of X
    with pytest.raises(ValidationError, match="outside the object set"):
        lab({"a": 0})
    with pytest.raises(ValidationError, match="outside the object set"):
        lab({"x": 0, "w": 1})
    with pytest.raises(ValidationError, match="labeled twice"):
        PartialLabeling(X3, Y2, [("y", 0), ("y", 7)])


def test_sort_key_orders_the_universe_and_rejects_strangers():
    assert [X3.sort_key(x) for x in X3.universe()] == [-1, 0, 1, 2]
    with pytest.raises(ValidationError, match="unknown object"):
        X3.sort_key("w")
    with pytest.raises(ValidationError, match="unknown object"):
        X3.sort_key(["x"])


def test_labeling_entries_sorted_by_object():
    f = lab({"z": 1, "x": 0})
    assert f.entries == (("x", 0), ("z", 1))


def test_labeling_identity_ignores_the_stored_masks():
    f = lab({"z": 1, "x": 0})
    g = PartialLabeling(X3, Y2, (("z", 1), ("x", 0)))
    assert f == g and hash(f) == hash(g)
    assert "_fibers" not in repr(f)


def test_le_basics():
    empty = lab({})
    f = lab({"x": 0, "y": 0})
    g = lab({"x": 0, "y": 1})
    assert le(empty, f)
    assert le(f, f)
    assert le(f, g)  # g refines f, so f is a relabeling of g
    assert not le(g, f)  # f merges x and y, cannot recover g
    assert not le(lab({"z": 0}), f)  # domain not included


def test_le_rejects_mixed_contexts():
    other = ObjectSet(("x", "y"), "a")
    with pytest.raises(ValidationError):
        le(lab({}), PartialLabeling(other, Y2, {}))


def test_pref_le_needs_ordered_labels():
    plain = LabelSet(("u", "v"))
    f = PartialLabeling(X3, plain, {"x": "u"})
    with pytest.raises(UnorderedLabels):
        pref_le(f, f)


def test_ordered_labels_reject_nan():
    # NaN is not below or above any number, so a sorted run containing it
    # has an adjacent pair neither of which is less than the other
    nan = float("nan")
    with pytest.raises(UnorderedLabels, match="not strictly ordered"):
        LabelSet((1.0, nan, 0.5), ordered=True)
    with pytest.raises(UnorderedLabels, match="not strictly ordered"):
        LabelSet((nan, 0.0), ordered=True)


def test_ordered_labels_reject_a_partial_order():
    # frozensets sort under inclusion, which leaves disjoint sets unordered
    with pytest.raises(UnorderedLabels, match="not strictly ordered"):
        LabelSet((frozenset({1}), frozenset({2})), ordered=True)
    assert LabelSet((frozenset(), frozenset({1})), ordered=True).ordered


def test_pref_le_is_the_monotone_restriction():
    f = lab({"x": 1, "y": 0}, labels=Y3)
    g = lab({"x": 0, "y": 2}, labels=Y3)
    # any relabeling works, but a nondecreasing one would have to send
    # 0 below 2 while f wants 1 above 0 reversed
    assert le(f, g)
    assert not pref_le(f, g)
    h = lab({"x": 0, "y": 1}, labels=Y3)
    assert pref_le(h, g)


@st.composite
def labelings(draw):
    entries = {}
    for x in ("x", "y", "z"):
        value = draw(st.sampled_from([None, 0, 1]))
        if value is not None:
            entries[x] = value
    return lab(entries)


@settings(max_examples=200, deadline=None)
@given(labelings(), labelings(), labelings())
def test_le_is_a_quasiorder(f, g, h):
    assert le(f, f)
    if le(f, g) and le(g, h):
        assert le(f, h)


@st.composite
def labeling_pairs(draw):
    n = draw(st.integers(0, 6))
    objects = ObjectSet(tuple(f"o{i}" for i in range(n)), "a")
    labels = LabelSet((0, 1, 2))

    def one():
        values = draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=n, max_size=n))
        entries = {x: y for x, y in zip(objects.elements, values) if y is not None}
        return PartialLabeling(objects, labels, entries)

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(labeling_pairs())
def test_le_matches_its_dict_definition(pair):
    f, g = pair
    fd, gd = f.as_dict(), g.as_dict()
    expected = set(fd) <= set(gd) and all(
        gd[x] != gd[y] for x, y in permutations(fd, 2) if fd[x] != fd[y]
    )
    assert le(f, g) == expected


@settings(max_examples=200, deadline=None)
@given(labelings(), labelings())
def test_pref_le_implies_le(f, g):
    if pref_le(f, g):
        assert le(f, g)


def test_partition_canonical_block_order():
    p = PartitionPlus(X3, (("z",), ("y", "x"), ("a",)))
    assert p.blocks == (("a",), ("x", "y"), ("z",))


def test_partition_equality_ignores_block_order():
    p = PartitionPlus(X3, (("z",), ("y", "x"), ("a",)))
    q = PartitionPlus(X3, (("a",), ("z",), ("x", "y")))
    assert p == q and hash(p) == hash(q)
    assert p.block_index() == q.block_index() == {"a": 0, "x": 1, "y": 1, "z": 2}
    assert p != PartitionPlus(X3, (("a",), ("x",), ("y", "z")))
    text = '{\n  "distinguished": "a",\n  "blocks": [["a"], ["x", "y"], ["z"]]\n}\n'
    assert dumps_value("partition", p) == dumps_value("partition", q) == text


def test_large_partition_index():
    objects = ObjectSet(tuple(f"x{i}" for i in range(300)), "a")
    p = PartitionPlus(objects, (("a",),) + tuple((x,) for x in objects.elements))
    assert p.block_index()["x299"] == 300
    labels = LabelSet((0, 1))
    assert ideal_contains(p, PartialLabeling(objects, labels, {"x0": 0, "x299": 1}))
    merged = PartitionPlus(objects, (("a",), objects.elements))
    assert not ideal_contains(merged, PartialLabeling(objects, labels, {"x0": 0, "x299": 1}))


def test_sparse_labelings_over_many_objects_stay_cheap():
    # the stored masks grow with the object count, not with its square
    objects = ObjectSet(tuple(f"x{i}" for i in range(20000)), "a")
    labels = LabelSet(("0", "1"))
    start = time.perf_counter()
    family = [PartialLabeling(objects, labels, {"x19999": "0"}) for _ in range(10)]
    family.append(PartialLabeling(objects, labels, {"x0": "0", "x19999": "1"}))
    assert le(family[0], family[-1]) and not le(family[-1], family[0])
    p = partition_of_family(objects, labels, family)
    assert time.perf_counter() - start < 5.0
    assert p.blocks[1:] == (("x0",), ("x19999",))
    assert len(p.blocks[0]) == 19999


def test_partition_must_cover_without_overlap():
    with pytest.raises(ValidationError):
        PartitionPlus(X3, (("a", "x"), ("y",)))
    with pytest.raises(ValidationError):
        PartitionPlus(X3, (("a", "x"), ("x", "y"), ("z",)))


def test_family_partition_collects_separations():
    family = [lab({"x": 0, "y": 1}), lab({"y": 0})]
    p = partition_of_family(X3, Y2, family)
    # z is never measured, so it joins the distinguished block
    assert p.blocks == (("a", "z"), ("x",), ("y",))


def test_family_partition_vacuous_family_collapses():
    p = partition_of_family(X3, Y2, [])
    assert p.blocks == (("a", "x", "y", "z"),)


def test_non_ideal_family_has_witness():
    family = [
        lab({"x": 0, "y": 0}),
        lab({"y": 0, "z": 0}),
        lab({"x": 0, "z": 1}),
    ]
    with pytest.raises(NonIdealFamily) as info:
        partition_of_family(X3, Y2, family)
    assert info.value.witness == ("x", "y", "z")
    assert str(info.value) == "family separates 'x' from 'z' but links both to 'y'"


def test_family_needs_enough_labels():
    family = [
        lab({"x": 0, "y": 1}),
        lab({"y": 0, "z": 1}),
        lab({"x": 0, "z": 1}),
    ]
    with pytest.raises(InsufficientLabels):
        partition_of_family(X3, Y2, family)


def _cubic_partition_of_family(objects, labels, family):
    """Reference: link two measured objects unless a member separates them,
    then test transitivity over every ordered triple and build the blocks
    with a quadratic loop."""
    apart = {}
    for f in family:
        if _outside(f, objects, labels):
            raise ValidationError("family member over a different object or label set")
        measured = sum(f._fibers)
        for fiber in f._fibers:
            for i in range(len(objects.elements)):
                if fiber >> i & 1:
                    apart[i] = apart.get(i, 0) | measured & ~fiber
    names = objects.elements
    dom = sorted(apart)

    def related(i, j):
        return not apart[i] >> j & 1

    for i, j, k in permutations(dom, 3):
        if related(i, j) and related(j, k) and not related(i, k):
            x, y, z = names[i], names[j], names[k]
            raise NonIdealFamily(
                f"family separates {x!r} from {z!r} but links both to {y!r}",
                witness=(x, y, z),
            )
    blocks = []
    placed = set()
    for i in dom:
        if i not in placed:
            block = [j for j in dom if related(i, j)]
            placed.update(block)
            blocks.append(tuple(names[j] for j in block))
    if len(blocks) > len(labels.values):
        raise InsufficientLabels(
            f"{len(blocks)} blocks need at least {len(blocks)} labels, "
            f"have {len(labels.values)}"
        )
    absorber = [objects.distinguished] + [x for i, x in enumerate(names) if i not in apart]
    return PartitionPlus(objects, tuple(blocks) + (tuple(absorber),))


def _outcome(build, *args):
    try:
        return _fields(build(*args))
    except (NonIdealFamily, InsufficientLabels) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _fields(p):
    """Every field of a partition, `_where` too, which dataclass equality skips."""
    return p.objects, p.blocks, p._where


def assert_rebuilds(p):
    """The public constructor, which checks and sorts the blocks, rebuilds `p`."""
    assert _fields(PartitionPlus(p.objects, p.blocks)) == _fields(p)


@st.composite
def families(draw):
    n = draw(st.integers(0, 7))
    objects = ObjectSet(tuple(f"o{i}" for i in range(n)), "a")
    labels = LabelSet(tuple(range(draw(st.integers(1, 4)))))
    values = st.lists(st.sampled_from([None, *labels.values]), min_size=n, max_size=n)
    family = []
    for row in draw(st.lists(values, max_size=4)):
        entries = {x: y for x, y in zip(objects.elements, row) if y is not None}
        family.append(PartialLabeling(objects, labels, entries))
    return objects, labels, family


@settings(max_examples=400, deadline=None)
@given(families())
def test_family_partition_matches_the_cubic_reference(case):
    got = _outcome(partition_of_family, *case)
    assert got == _outcome(_cubic_partition_of_family, *case)
    if isinstance(got[0], ObjectSet):
        assert_rebuilds(partition_of_family(*case))


def _objects(n):
    return ObjectSet(tuple(f"x{i}" for i in range(n)), "a")


def test_late_witness_over_many_objects_is_found_fast():
    # x19998 and x19999 are separated, and every other object links to both;
    # the row shared by those others holds no witness and is searched once
    objects = _objects(20000)
    labels = LabelSet(("0", "1"))
    start = time.perf_counter()
    family = [
        PartialLabeling(objects, labels, {x: "0" for x in objects.elements[:-1]}),
        PartialLabeling(objects, labels, {"x19998": "0", "x19999": "1"}),
    ]
    with pytest.raises(NonIdealFamily) as info:
        partition_of_family(objects, labels, family)
    assert time.perf_counter() - start < 5.0
    assert info.value.witness == ("x19998", "x0", "x19999")


def test_stars_with_hubs_first_are_searched_once_each():
    # star s: hub x{s} links to leaves x{3333 + 2s} and x{3334 + 2s}, which
    # one member separates; stars are apart, and no hub's row holds a witness
    stars = 3333
    objects = _objects(3 * stars)
    labels = LabelSet(tuple(str(s) for s in range(stars)))
    names = objects.elements
    start = time.perf_counter()
    star_of = {names[s]: str(s) for s in range(stars)}
    star_of.update((names[stars + t], str(t // 2)) for t in range(2 * stars))
    family = [PartialLabeling(objects, labels, star_of)]
    family += [
        PartialLabeling(objects, labels, {names[stars + 2 * s]: "0", names[stars + 2 * s + 1]: "1"})
        for s in range(stars)
    ]
    with pytest.raises(NonIdealFamily) as info:
        partition_of_family(objects, labels, family)
    assert time.perf_counter() - start < 5.0
    assert info.value.witness == ("x3333", "x0", "x3334")


def test_many_singleton_blocks_stay_cheap():
    objects = _objects(4000)
    labels = LabelSet(tuple(range(4000)))
    start = time.perf_counter()
    family = [PartialLabeling(objects, labels, dict(zip(objects.elements, labels.values)))]
    p = partition_of_family(objects, labels, family)
    assert time.perf_counter() - start < 5.0
    assert p.blocks == (("a",),) + tuple((x,) for x in objects.elements)


def test_ideal_contains():
    p = PartitionPlus(X3, (("a", "z"), ("x", "y")))
    assert ideal_contains(p, lab({"x": 0, "y": 0}))
    assert not ideal_contains(p, lab({"x": 0, "y": 1}))  # splits a block
    assert not ideal_contains(p, lab({"z": 0}))  # touches the a block
    assert ideal_contains(p, lab({}))


def test_roundtrip_exhaustive_three_objects():
    # the acceptance suite pushes this to five objects
    labels = LabelSet((0, 1, 2))
    labelings = [
        PartialLabeling(X3, labels, d)
        for d in all_partial_functions(X3.elements, labels.values)
    ]
    for blocks in set_partitions(X3.universe()):
        p = PartitionPlus(X3, tuple(tuple(b) for b in blocks))
        members = [f for f in labelings if ideal_contains(p, f)]
        assert partition_of_family(X3, labels, members) == p


def test_label_codes_mark_unmeasured_objects():
    codes = label_codes([lab({}), lab({"z": 1, "x": 0})])
    assert codes.tolist() == [[-1, -1, -1], [0, -1, 1]]
    assert label_codes([]).shape == (0, 0)
    # more labels than int8 holds: the codes widen, membership still works
    wide = LabelSet(tuple(range(300)))
    codes = label_codes([PartialLabeling(X3, wide, {"x": 299, "y": 299})])
    assert codes.tolist() == [[299, 299, -1]]
    p = PartitionPlus(X3, (("a", "z"), ("x", "y")))
    assert ideal_members(p, codes).tolist() == [True]
    other = ObjectSet(("x", "y"), "a")
    with pytest.raises(ValidationError):
        label_codes([lab({}), PartialLabeling(other, Y2, {})])


def test_ideal_members_agrees_with_ideal_contains():
    for nx in range(5):
        objects = ObjectSet(tuple(f"x{i + 1}" for i in range(nx)), "a")
        labels = LabelSet(tuple(range(max(nx, 1))))
        labelings = [
            PartialLabeling(objects, labels, d)
            for d in all_partial_functions(objects.elements, labels.values)
        ]
        codes = label_codes(labelings)
        assert codes.shape == (len(labelings), nx)
        for p in all_partitions(objects):
            mask = ideal_members(p, codes)
            assert mask.dtype == bool
            assert mask.tolist() == [ideal_contains(p, f) for f in labelings]
            assert ideal_members(p, codes[:0]).shape == (0,)


def test_ideal_members_rejects_malformed_codes():
    p = PartitionPlus(X3, (("a", "z"), ("x", "y")))
    with pytest.raises(ValidationError):
        ideal_members(p, np.zeros((2, 2), dtype=int))
    with pytest.raises(ValidationError):
        ideal_members(p, np.zeros((2, 3)))


def all_partitions(objects):
    return [
        PartitionPlus(objects, tuple(tuple(b) for b in blocks))
        for blocks in set_partitions(objects.universe())
    ]


def test_scale_partition_and_observability():
    scale = Scale(X3, Y3, {"x": 0, "y": 1, "z": 0})
    p = scale_to_partition(scale)
    assert p.blocks == (("a",), ("x", "z"), ("y",))
    assert p.block_index() == {"a": 0, "x": 1, "y": 2, "z": 1}
    assert_rebuilds(p)
    assert not is_observable(p, Y3)
    sharp = Scale(X3, Y3, {"x": 0, "y": 1, "z": 2})
    assert is_observable(scale_to_partition(sharp), Y3)
    with pytest.raises(InsufficientLabels):
        is_observable(p, Y2)


def test_scale_must_be_total():
    with pytest.raises(ValidationError):
        Scale(X3, Y2, {"x": 0})


def test_pushforward_identity_and_constant():
    scale = Scale(X3, Y2, {"x": 0, "y": 1, "z": 0})
    identity = {0: 0, 1: 1}
    assert pushforward_partition(identity, scale) == scale_to_partition(scale)
    constant = {0: 1, 1: 1}
    collapsed = pushforward_partition(constant, scale)
    assert collapsed.blocks == (("a",), ("x", "y", "z"))
    assert collapsed.block_index() == {"a": 0, "x": 1, "y": 1, "z": 1}
    assert_rebuilds(collapsed)


@pytest.mark.parametrize("n", range(5))
def test_every_scale_and_pushforward_partition_rebuilds(n):
    objects = _objects(n)
    labels = LabelSet((0, 1, 2))
    maps = list(all_functions(labels.values, labels.values))
    for assignment in all_functions(objects.elements, labels.values):
        scale = Scale(objects, labels, assignment)
        p = scale_to_partition(scale)
        assert_rebuilds(p)
        assert p.block_index() == {
            x: i for i, block in enumerate(p.blocks) for x in block
        }
        for h in maps:
            assert_rebuilds(pushforward_partition(h, scale))


@pytest.mark.parametrize("n", range(5))
def test_a_scale_carries_its_fresh_fiber_partition(n):
    objects = _objects(n)
    labels = LabelSet((0, 1, 2))
    for assignment in all_functions(objects.elements, labels.values):
        scale = Scale(objects, labels, assignment)
        fibers = {}
        for x, y in scale.assignment:
            fibers.setdefault(y, []).append(x)
        blocks = ((objects.distinguished,),) + tuple(map(tuple, fibers.values()))
        fresh = PartitionPlus(objects, blocks)
        got = scale_to_partition(scale)
        assert got is scale_to_partition(scale)
        assert (got, got.blocks, got._where) == (fresh, fresh.blocks, fresh._where)
        # the stored partition takes no part in equality, hashing or repr
        twin = Scale(objects, labels, dict(assignment))
        assert twin == scale and hash(twin) == hash(scale) and "_partition" not in repr(scale)


def test_pushforward_validates_the_relabeling():
    scale = Scale(X3, Y2, {"x": 0, "y": 1, "z": 0})
    with pytest.raises(ValidationError):
        pushforward_partition({0: 0}, scale)
    with pytest.raises(ValidationError):
        pushforward_partition({0: 7, 1: 1}, scale)
