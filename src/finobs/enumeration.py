"""Exhaustive enumerators for small finite structures.

These back the brute-force reference computations in the verification
suites and tests.  Everything here is meant for desk-scale inputs; the
counts grow exponentially.
"""

from itertools import combinations_with_replacement, product

_ABSENT = object()


def all_functions(domain, codomain):
    """Yield every total map domain -> codomain as a dict."""
    domain = list(domain)
    codomain = list(codomain)
    for values in product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def all_partial_functions(domain, codomain):
    """Yield every partial map domain -> codomain as a dict (absent keys omitted)."""
    domain = list(domain)
    codomain = list(codomain)
    for values in product([_ABSENT] + codomain, repeat=len(domain)):
        yield {x: y for x, y in zip(domain, values) if y is not _ABSENT}


def nondecreasing_functions(domain_sorted, codomain_sorted):
    """Yield every nondecreasing map between two sorted value tuples."""
    domain_sorted = list(domain_sorted)
    for values in combinations_with_replacement(codomain_sorted, len(domain_sorted)):
        yield dict(zip(domain_sorted, values))


def set_partitions(items):
    """Yield every partition of `items` as a list of lists.

    Blocks appear in order of their least-index element, so the output
    is deterministic for a fixed input order.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield [[first] + part[i] if i == j else list(part[j]) for j in range(len(part))]
        yield [[first]] + [list(b) for b in part]
