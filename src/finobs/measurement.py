"""Partial labelings, information order, and partition-coded ideals.

A measurement over a finite object set X assigns labels to some of the
objects.  Labelings are quasiordered by information content: f <= g when
f can be recovered from g by relabeling on dom f.  Order ideals of that
quasiorder are coded losslessly by partitions of X extended with one
distinguished element `a` whose block absorbs the unmeasured objects.
All ideal-level operations below work on that partition code.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientLabels,
    NonIdealFamily,
    UnorderedLabels,
    ValidationError,
)


@dataclass(frozen=True)
class ObjectSet:
    """Finite object set X plus a distinguished absorber not in X."""

    elements: tuple
    distinguished: object = "a"
    # sort key of each element; the distinguished one sorts first, at -1
    _position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("object set has repeated elements")
        if self.distinguished in self.elements:
            raise ValidationError("distinguished element must lie outside X")
        position = {x: i for i, x in enumerate(self.elements)}
        position[self.distinguished] = -1
        object.__setattr__(self, "_position", position)

    def sort_key(self, x):
        try:
            return self._position[x]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown object {x!r}") from None

    def universe(self):
        return (self.distinguished,) + self.elements


@dataclass(frozen=True)
class LabelSet:
    """Finite label set Y; `ordered` enables the preference variant."""

    values: tuple
    ordered: bool = False
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(set(self.values)) != len(self.values):
            raise ValidationError("label set has repeated values")
        object.__setattr__(self, "_index", {y: i for i, y in enumerate(self.values)})
        if self.ordered:
            try:
                ranked = sorted(self.values)
            except TypeError:
                raise UnorderedLabels("labels do not support a total order") from None
            if any(not ranked[i] < ranked[i + 1] for i in range(len(ranked) - 1)):
                raise UnorderedLabels("labels are not strictly ordered")


@dataclass(frozen=True)
class PartialLabeling:
    """Partial map from X to Y, stored as entries sorted by object."""

    objects: ObjectSet
    labels: LabelSet
    entries: tuple
    # one n-bit mask per label used, bit i set when objects.elements[i]
    # carries it; le and partition_of_family read only these
    _fibers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = self.entries.items() if isinstance(self.entries, dict) else self.entries
        position = self.objects._position
        slots = [None] * len(self.objects.elements)  # one per object, in sort order
        fibers = {}  # one bit per object carrying each label
        for x, y in raw:
            i = position.get(x, -1)  # -1 also for the distinguished element
            if i < 0:
                raise ValidationError(f"entry for {x!r} outside the object set")
            if slots[i] is not None:
                raise ValidationError(f"object {x!r} labeled twice")
            if y not in self.labels._index:
                raise ValidationError(f"label {y!r} outside the label set")
            slots[i] = (x, y)
            fibers[y] = fibers.get(y, 0) | 1 << i
        object.__setattr__(self, "entries", tuple(filter(None, slots)))
        object.__setattr__(self, "_fibers", tuple(fibers.values()))

    def as_dict(self):
        return dict(self.entries)


@dataclass(frozen=True)
class Scale:
    """Total labeling of X; the generating datum of a scalable ideal."""

    objects: ObjectSet
    labels: LabelSet
    assignment: tuple
    _partition: "PartitionPlus" = field(init=False, repr=False, compare=False)  # its fibers

    def __post_init__(self):
        mapping = dict(self.assignment)
        if set(mapping) != set(self.objects.elements):
            raise ValidationError("scale must label every object exactly once")
        if any(y not in self.labels.values for y in mapping.values()):
            raise ValidationError("scale uses a label outside the label set")
        pairs = tuple((x, mapping[x]) for x in self.objects.elements)
        object.__setattr__(self, "assignment", pairs)
        number = {}  # label -> block number, fibers numbered in object order after {a}'s 0
        where = [0] + [number.setdefault(y, len(number) + 1) for _, y in pairs]
        object.__setattr__(self, "_partition", PartitionPlus._canonical(self.objects, where))


@dataclass(frozen=True)
class PartitionPlus:
    """Partition of X union {a}; blocks ordered by least element, so a's is 0.
    Only blocks the library builds canonical skip the checks, through `_canonical`."""

    objects: ObjectSet
    blocks: tuple
    # block number of each element by sort key + 1, so a's slot is 0
    _where: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = self.objects.sort_key
        norm = []
        covered = []
        for block in self.blocks:
            block = tuple(sorted(block, key=key))
            if not block:
                raise ValidationError("empty block")
            norm.append(block)
            covered.extend(block)
        if len(covered) != len(set(covered)):
            raise ValidationError("blocks overlap")
        if set(covered) != set(self.objects.universe()):
            raise ValidationError("blocks do not cover X plus the distinguished element")
        norm.sort(key=lambda b: key(b[0]))
        object.__setattr__(self, "blocks", tuple(norm))
        where = [0] * len(covered)
        for i, block in enumerate(norm):
            for x in block:
                where[key(x) + 1] = i
        object.__setattr__(self, "_where", tuple(where))

    @classmethod
    def _canonical(cls, objects, where):
        """Unchecked: `where` numbers the blocks densely by least element, as `_where`."""
        blocks = [[] for _ in range(max(where) + 1)]
        for x, b in zip(objects.universe(), where):
            blocks[b].append(x)
        self = object.__new__(cls)
        for name, value in zip(("objects", "blocks", "_where"),
                               (objects, tuple(map(tuple, blocks)), tuple(where))):
            object.__setattr__(self, name, value)
        return self

    def block_index(self):
        """Map each element to the index of its block."""
        return dict(zip(self.objects.universe(), self._where))


def _outside(f, objects, labels):
    """True when f lives over another object or label set; identity first."""
    same = f.objects is objects and f.labels is labels
    return not same and (f.objects != objects or f.labels != labels)


def _same_context(f, g):
    if _outside(g, f.objects, f.labels):
        raise ValidationError("labelings live over different object or label sets")


def le(f, g):
    """Information order: f <= g iff f is a relabeling of g on dom f.

    Equivalent test on finite data: dom f inside dom g, and g separates
    every pair of objects that f separates; that is, each label fiber of
    g meets dom f inside a single label fiber of f.
    """
    _same_context(f, g)
    inside = sum(f._fibers)
    if inside & ~sum(g._fibers):
        return False
    parts = [fiber & inside for fiber in g._fibers]
    return not any(part & other and part & ~other for part in parts for other in f._fibers)


def pref_le(f, g):
    """Preference order: as `le` but the relabeling must be nondecreasing.

    Needs an ordered label set.  With f <= g, that relabeling is g(x) -> f(x)
    on dom f, nondecreasing when f's labels ranked by g's come out sorted;
    any monotone partial map on the g-values extends to a total one.
    """
    _same_context(f, g)
    if not f.labels.ordered:
        raise UnorderedLabels("pref_le needs an ordered label set")
    if not le(f, g):
        return False
    gd = g.as_dict()
    ranked = [y for _, y in sorted((gd[x], y) for x, y in f.entries)]
    return ranked == sorted(ranked)


def _bits(mask):
    """Set-bit indices of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def partition_of_family(objects, labels, family):
    """Partition coded by a family of labelings, if the family is ideal-like.

    Objects outside every domain join the distinguished block; two
    measured objects share a block iff no member separates them.  Raises
    NonIdealFamily with a witness triple when that relation is not
    transitive, and InsufficientLabels when the family would need more
    labels than Y offers to stay directed.
    """
    kinds = set()  # the label fibers of the members, each tuple once
    for f in family:
        if (f.objects is not objects or f.labels is not labels) and _outside(f, objects, labels):
            raise ValidationError("family member over a different object or label set")
        kinds.add(f._fibers)
    apart = {}  # measured object number -> objects some member separates from it
    for fibers in kinds:
        measured = sum(fibers)
        for fiber in fibers:
            others = measured & ~fiber
            for i in _bits(fiber):
                apart[i] = apart.get(i, 0) | others
    dom = sum(1 << i for i in apart)
    row = {i: dom & ~apart[i] for i in sorted(apart)}  # i and the objects linked to it
    names = objects.elements
    group, number = {}, {}  # each distinct row -> the objects whose row it is; -> its block
    where = [0] * (len(names) + 1)  # as `_where`: rows, by first object, follow {a}'s 0
    for i, linked in row.items():
        group[linked] = group.get(linked, 0) | 1 << i
        where[i + 1] = number.setdefault(linked, len(number) + 1)
    # linking is transitive iff every row is its own group; whether a row
    # holds a witness depends on the row alone, and two rows that hold none
    # are disjoint, so searching each failing row once stays linear
    for linked, members in group.items():
        if members == linked:
            continue
        for j in _bits(linked):
            beyond = row[j] & ~linked
            if beyond:
                i, k = next(_bits(members)), next(_bits(beyond))
                x, y, z = names[i], names[j], names[k]
                raise NonIdealFamily(
                    f"family separates {x!r} from {z!r} but links both to {y!r}",
                    witness=(x, y, z),
                )
    if len(group) > len(labels.values):
        raise InsufficientLabels(
            f"{len(group)} blocks need at least {len(group)} labels, "
            f"have {len(labels.values)}"
        )
    return PartitionPlus._canonical(objects, where)


def ideal_contains(partition, f):
    """Membership of a labeling in the ideal coded by `partition`.

    True iff dom f avoids the distinguished block and f is constant on
    each block it meets.
    """
    objects = partition.objects
    if f.objects is not objects and f.objects != objects:
        raise ValidationError("partition and labeling over different object sets")
    where = partition._where
    position = objects._position
    taken = {}
    for x, y in f.entries:
        i = where[position[x] + 1]
        if i == 0 or taken.setdefault(i, y) != y:
            return False
    return True


def label_codes(labelings):
    """Labelings over one context as a small signed int array, one row each
    and one column per object: the label's index in Y, or -1 if unmeasured."""
    labelings = list(labelings)
    if not labelings:
        return np.zeros((0, 0), dtype=np.int8)
    first = labelings[0]
    dtype = np.min_scalar_type(-max(len(first.labels.values), 1))
    codes = np.full((len(labelings), len(first.objects.elements)), -1, dtype=dtype)
    for r, f in enumerate(labelings):
        _same_context(first, f)
        for x, y in f.entries:
            codes[r, f.objects._position[x]] = f.labels._index[y]
    return codes


def ideal_members(partition, codes):
    """Batched `ideal_contains`: a boolean mask over the rows of `label_codes`.

    `codes` must be `label_codes` over `partition.objects`; only their width
    is checked. A row is a member when it measures nothing in the absorber
    block and its largest and least measured codes agree on every other block.
    """
    codes = np.asarray(codes)
    if not len(codes):
        return np.zeros(0, dtype=bool)
    position = partition.objects._position
    if codes.dtype.kind != "i" or codes.shape[1:] != (len(position) - 1,):
        raise ValidationError("expected signed integer label codes, one column per object")
    keep = np.ones(len(codes), dtype=bool)
    for i, block in enumerate(partition.blocks):
        part = codes.T[[position[x] for x in block if position[x] >= 0]]  # a row per object
        if i == 0:  # the absorber, where a member measures nothing
            keep &= (part < 0).all(axis=0)
        elif len(part) > 1:  # a singleton block takes any label
            top = part.max(axis=0)
            # unmeasured entries must not lower a block's least measured code
            low = np.where(part < 0, np.iinfo(part.dtype).max, part).min(axis=0)
            keep &= (top < 0) | (top == low)
    return keep


def scale_to_partition(scale):
    """Partition induced by a total labeling: its fibers, plus {a} alone."""
    return scale._partition


def is_observable(partition, labels):
    """Maximality test: every block a singleton.

    Demands enough labels to realize a maximal ideal at all; raises
    InsufficientLabels when |Y| < |X|.
    """
    if len(labels.values) < len(partition.objects.elements):
        raise InsufficientLabels(
            f"need at least {len(partition.objects.elements)} labels, "
            f"have {len(labels.values)}"
        )
    return all(len(block) == 1 for block in partition.blocks)


def pushforward_partition(h, scale):
    """Partition of the ideal generated by all relabelings h(k(s(x))).

    For non-constant h the compositions recover every separation the
    scale makes, so the code is the scale's fiber partition.  A constant
    h collapses everything measurable into one block.
    """
    labels = scale.labels
    if set(h) != set(labels.values):
        raise ValidationError("h must be total on the label set")
    if any(v not in labels.values for v in h.values()):
        raise ValidationError("h maps outside the label set")
    if len(set(h.values())) > 1:
        return scale_to_partition(scale)
    return PartitionPlus._canonical(scale.objects, [0] + [1] * len(scale.objects.elements))
