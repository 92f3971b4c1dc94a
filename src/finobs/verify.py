"""Self-check suites behind the `verify` tool.

Every check recomputes a library claim with an independent method:
exhaustive enumeration for the finite combinatorics, dense linear
algebra oracles for the operator calculus, closed forms where
one exists.  Reports carry counts and worst residuals only, never
timings, so a fixed seed yields byte-identical output.

The checks are independent (each draws from `_rng(seed, tag)` and
builds its own inputs), so `run_suite` runs them in forked workers, one
per CPU, that claim them one by one from a pipe; the report stays
byte-identical.
"""

import os
import pickle
from dataclasses import dataclass
from itertools import compress, product

import numpy as np

from . import dynamics, fhlogic, finitary, measurement, serial, socks
from .enumeration import all_functions, all_partial_functions, nondecreasing_functions, set_partitions
from .errors import ValidationError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# The bound on each worst residual of a check, by check and residual; a check not
# named here passes on its counts alone.  The bounds are kept apart from
# `numeric`'s tolerances on purpose, as the independent reference.
BOUNDS = {
    "eigen-reconstruction": {"relative residual": 1e-8},  # |V diag(w) V* - M| / |M|
    "functional-calculus": {"entry residual": 1e-8},  # f(A, B) against a dense oracle
    "unitary-evolution": {"norm drift": 1e-10, "group law": 1e-9, "exponential oracle": 1e-8},
    # the phases are the eigenvalues of C, below 0 or past the last float below 2 pi
    "concatenation": {"product residual": 1e-8, "hermiticity": 1e-10, "phase below 0": 1e-10,
                      "phase past 2 pi": 0.0, "commuting reduction": 1e-9},
    "state-compression": {"drift": 1e-9},  # of a polynomial's expectation
    # closed forms; ||<e0, ray>| - 1|, inf unless one ray is shared; e0's domain distances
    "variance-complementarity": {"variance": 1e-12, "shared ray": 1e-8, "domain distance": 1e-8},
    "oscillator-spectrum": {"gap spread": 0.01},  # largest / least of the first five gaps - 1
    "tensor-inner-identity": {"identity residual": 1e-12, "norm residual": 1e-12},
    # |sum of A(e_a - e_b)| per unit of max(1, |tail|, |entry|), for A that preserve zero sums
    "zero-sum-criterion": {"probe sum": 1e-9},
    "functional-recovery": {"weight residual": 1e-9},
}


def _worst(residuals):
    """The largest residual, 0.0 when there are none; an inf or NaN anywhere is kept."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


def _within(name, label, residual):
    """The one pass rule: `residual <= BOUNDS[name][label]`, so NaN fails."""
    return residual <= BOUNDS[name][label]


def _result(name, detail, worst, ok=True):
    """Check `name`, passed when `ok` holds and each worst residual is within its bound."""
    if worst.keys() != BOUNDS.get(name, {}).keys():
        raise ValueError(f"{name} bounds {sorted(BOUNDS.get(name, {}))}, not {sorted(worst)}")
    return CheckResult(name, ok and all(_within(name, k, w) for k, w in worst.items()), detail)


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def _hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _subset(rng, atoms, size):
    """`size` distinct atoms drawn without replacement, in the order of `atoms`."""
    return tuple(atoms[i] for i in sorted(rng.choice(len(atoms), size=size, replace=False)))


def _integer_vector(rng, atoms):
    """A vector on `atoms` with Gaussian-integer entries in [-3, 3] + [-3, 3]i."""
    draws = rng.integers(-3, 4, size=(len(atoms), 2)).tolist()  # the values of 2n scalar draws
    return fhlogic.FiniteSupportVector({a: complex(re, im) for a, (re, im) in zip(atoms, draws)})


# ---------------------------------------------------------------------------
# measurement


def _check_partition_ideal_roundtrip(seed):
    del seed  # exhaustive
    total = failed = 0
    for nx in range(6):
        elements = tuple(f"x{i + 1}" for i in range(nx))
        objects = measurement.ObjectSet(elements, "a")
        labels = measurement.LabelSet(tuple(f"y{i + 1}" for i in range(max(nx, 1))))
        labelings = np.array([
            measurement.PartialLabeling(objects, labels, entries)
            for entries in all_partial_functions(elements, labels.values)
        ], dtype=object)
        codes = measurement.label_codes(labelings)
        for blocks in set_partitions(objects.universe()):
            partition = measurement.PartitionPlus(objects, tuple(map(tuple, blocks)))
            members = labelings[measurement.ideal_members(partition, codes)].tolist()
            back = measurement.partition_of_family(objects, labels, members)
            total += 1
            failed += back != partition
    detail = f"{total} partitions over bases of 0..5 objects, {failed} mismatched"
    return _result("partition-ideal-roundtrip", detail, {}, ok=failed == 0)


def _reach(entries, relabelings):
    """Every h o g restricted to a subset of dom g, for g's `entries` and each h
    in `relabelings`, as entries: f <= g under those h iff f's entries are one."""
    images = {tuple((x, h[y]) for x, y in entries) for h in relabelings}
    return {tuple(compress(image, mask)) for image in images
            for mask in product((0, 1), repeat=len(entries))}


def _check_relabel_order_oracle(seed):
    del seed  # exhaustive
    pairs = failed = 0
    for nx, ny in product(range(4), range(4)):
        elements = tuple(f"x{i + 1}" for i in range(nx))
        objects = measurement.ObjectSet(elements, "a")
        values = tuple(range(ny))
        labels = measurement.LabelSet(values, ordered=True)
        labelings = [
            measurement.PartialLabeling(objects, labels, entries)
            for entries in all_partial_functions(elements, values)
        ]
        maps = list(all_functions(values, values)), list(nondecreasing_functions(values, values))
        for g in labelings:
            below, pref_below = (_reach(g.entries, relabelings) for relabelings in maps)
            pairs += len(labelings)
            for f in labelings:
                failed += measurement.le(f, g) != (f.entries in below)
                failed += measurement.pref_le(f, g) != (f.entries in pref_below)
    detail = f"{pairs} ordered pairs against relabeling enumeration, {failed} disagreements"
    return _result("relabel-order-oracle", detail, {}, ok=failed == 0)


def _check_scale_pushforward_oracle(seed):
    del seed  # exhaustive
    cases = failed = 0
    for nx in range(5):
        for ny in range(1, 4):
            elements = tuple(f"x{i + 1}" for i in range(nx))
            objects = measurement.ObjectSet(elements, "a")
            values = tuple(f"y{i + 1}" for i in range(ny))
            labels = measurement.LabelSet(values)
            relabelings = list(all_functions(values, values))
            # each generator h(k(s(x))) is a total labeling; build each once
            totals = {
                tuple(t.values()): measurement.PartialLabeling(objects, labels, t)
                for t in all_functions(elements, values)
            }
            # the generators for h are s composed with each map h(k(.)) over every
            # relabeling k, so the h that give one set of those maps share them
            shared = {}  # each such set, maps as tuples over values -> the h giving it
            for h in relabelings:
                maps = frozenset(tuple(h[k[y]] for y in values) for k in relabelings)
                shared.setdefault(maps, []).append(h)
            for assignment in all_functions(elements, values):
                scale = measurement.Scale(objects, labels, assignment)
                s = [values.index(y) for y in assignment.values()]
                for maps, hs in shared.items():
                    # members of the generated ideal only restrict or relabel these
                    # generators, so they separate nothing more: the same partition
                    generators = [totals[tuple(map(m.__getitem__, s))] for m in maps]
                    expected = measurement.partition_of_family(objects, labels, generators)
                    cases += len(hs)
                    failed += sum(measurement.pushforward_partition(h, scale) != expected for h in hs)
    detail = f"{cases} (h, s) cases against the generated-family partition, {failed} mismatched"
    return _result("scale-pushforward-oracle", detail, {}, ok=failed == 0)


# ---------------------------------------------------------------------------
# finitary


def _check_eigen_reconstruction(seed):
    rng = _rng(seed, 4)
    residuals = []
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m = _hermitian(rng, d)
        system = finitary.diagonalize(m)
        residuals.append(np.linalg.norm(system.matrix() - m) / np.linalg.norm(m))
    worst = _worst(residuals)
    detail = f"100 matrices of dimension 2..8, worst relative residual {worst:.3e}"
    return _result("eigen-reconstruction", detail, {"relative residual": worst})


def _dense_apply(func, m):
    w, v = np.linalg.eigh(m)
    return (v * np.array([func(x) for x in w])) @ v.conj().T


def _check_functional_calculus(seed):
    rng = _rng(seed, 5)
    residuals = []
    right = 0  # pairs with both commeasurable verdicts right; diag[d] commutes with no dense am
    diag = {d: finitary.diagonalize(np.diag(np.arange(float(d)))) for d in range(2, 7)}
    # zero operators on span(e0, e1) and on it turned by 1e-4 toward e2: not commeasurable
    tilted = [finitary.EigenSystem(3, np.zeros(2), np.array([[1, 0, 0], [0, np.cos(t), np.sin(t)]]))
              for t in (0.0, 1e-4)]
    for _ in range(50):
        d = int(rng.integers(2, 7))
        base = _hermitian(rng, d)
        base *= 1.0 / max(np.abs(np.linalg.eigvalsh(base)))
        p = finitary.Polynomial(tuple(rng.uniform(-1, 1, size=4)))
        q = finitary.Polynomial(tuple(rng.uniform(-1, 1, size=4)))
        am = _dense_apply(p, base)
        bm = _dense_apply(q, base)
        asys = finitary.diagonalize(am)
        bsys = finitary.diagonalize(bm)
        right += (finitary.commeasurable([asys, bsys])
                  and not finitary.commeasurable([asys, diag[d]]))
        checks = [
            (lambda a, b: a + b, am + bm),
            (lambda a, b: a * b, am @ bm),
            (lambda a, b: a * a, am @ am),
            (lambda a, b: p(q(a)), _dense_apply(lambda x: p(q(x)), am)),
            # product of functions maps to the product of operators
            (lambda a, b: p(a) * q(b), _dense_apply(p, am) @ _dense_apply(q, bm)),
        ]
        for f, want in checks:
            got = finitary.functional_calculus(f, [asys, bsys]).matrix()
            residuals.append(np.max(np.abs(got - want)))
    worst = _worst(residuals)
    detail = f"50 commuting pairs x 5 function forms, worst entry residual {worst:.3e}"
    return _result("functional-calculus", detail, {"entry residual": worst},
                   ok=right == 50 and not finitary.commeasurable(tilted))


# ---------------------------------------------------------------------------
# dynamics


def _expm(m):
    """exp(m) by scaling and squaring a degree-18 Taylor polynomial (Moler and Van
    Loan 2003); it uses no eigensolver, so it checks the spectral code independently."""
    squarings = max(0, np.frexp(np.linalg.norm(m, 1))[1])  # |m| / 2^squarings < 1
    out = term = np.eye(len(m), dtype=complex)
    for k in range(1, 19):
        term = term @ m / (k * 2.0**squarings)
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _check_unitary_evolution(seed):
    rng = _rng(seed, 6)
    norm, group, oracle = [], [], []
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = _hermitian(rng, d)
        a *= rng.uniform(0.5, 10.0) / np.linalg.norm(a, 2)
        system = finitary.diagonalize(a)
        psi = _unit(rng, d)
        t = float(rng.uniform(-10, 10))
        s = float(rng.uniform(-10, 10))
        out = dynamics.evolve(system, psi, t)
        norm.append(abs(np.linalg.norm(out) - 1.0))
        two_step = dynamics.evolve(system, dynamics.evolve(system, psi, s), t)
        group.append(np.linalg.norm(two_step - dynamics.evolve(system, psi, s + t)))
        oracle.append(np.linalg.norm(out - _expm(-1j * t * a) @ psi))
    worst = {"norm drift": _worst(norm), "group law": _worst(group),
             "exponential oracle": _worst(oracle)}
    detail = "50 cases: " + ", ".join(f"{k} {w:.3e}" for k, w in worst.items())
    return _result("unitary-evolution", detail, worst)


def _check_concatenation(seed):
    rng = _rng(seed, 7)
    prod, herm, below, past, comm = [], [], [], [], []
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = _hermitian(rng, d)
        b = _hermitian(rng, d)
        a *= rng.uniform(0.5, 4.0) / np.linalg.norm(a, 2)
        b *= rng.uniform(0.5, 4.0) / np.linalg.norm(b, 2)
        c = dynamics.concatenate(a, b)
        target = _expm(-1j * a) @ _expm(-1j * b)
        prod.append(np.linalg.norm(_expm(-1j * c) - target))
        herm.append(np.max(np.abs(c - c.conj().T)))
        phases = np.linalg.eigvalsh(c)
        below.append(-phases.min())
        past.append(phases.max() - np.nextafter(2.0 * np.pi, 0.0))
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = np.diag(rng.uniform(0.0, 3.0, size=d)).astype(complex)
        b = np.diag(rng.uniform(0.0, 3.0, size=d)).astype(complex)
        c = dynamics.concatenate(a, b)
        want = np.diag(np.mod(np.diag(a + b).real, 2.0 * np.pi)).astype(complex)
        comm.append(np.max(np.abs(c - want)))
    prod, herm, below, past, comm = map(_worst, (prod, herm, below, past, comm))
    in_range = (_within("concatenation", "phase below 0", below)
                and _within("concatenation", "phase past 2 pi", past))
    detail = (
        f"50 pairs: product residual {prod:.3e}, hermiticity {herm:.3e}, "
        f"phases in [0, 2pi) {'yes' if in_range else 'NO'}; "
        f"50 commuting reductions, residual {comm:.3e}"
    )
    return _result("concatenation", detail, {
        "product residual": prod, "hermiticity": herm, "phase below 0": below,
        "phase past 2 pi": past, "commuting reduction": comm})


def _check_state_compression(seed):
    rng = _rng(seed, 8)
    drifts = []
    for _ in range(20):
        d = int(rng.integers(3, 7))
        distinct = rng.uniform(-2, 2, size=int(rng.integers(2, d)))
        values = np.sort(distinct[rng.integers(0, len(distinct), size=d)])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(g)
        t = (basis * values) @ basis.conj().T
        system = finitary.diagonalize((t + t.conj().T) / 2.0)
        rho = _density(rng, d)
        compressed = dynamics.compress_state(system, rho)
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, size=7)
            f = finitary.Polynomial(tuple(coeffs))
            before = dynamics.expectation(f, system, rho)
            after = dynamics.expectation(f, system, compressed)
            drifts.append(abs(before - after))
    worst = _worst(drifts)
    detail = f"20 degenerate pairs x 5 polynomials of degree 6, worst drift {worst:.3e}"
    return _result("state-compression", detail, {"drift": worst})


def _check_variance_complementarity(seed):
    rng = _rng(seed, 9)
    gap = np.sqrt(2.0)
    s_sys, t_sys = dynamics.complementarity_pair(5, (gap, 0.0))
    e0 = np.zeros(5, dtype=complex)
    e0[0] = 1.0
    vs = dynamics.variance(s_sys, e0)
    vt = dynamics.variance(t_sys, e0)
    sw = finitary.apply(s_sys, e0)
    mean = np.vdot(e0, sw)
    oracle = float(np.linalg.norm(sw - mean * e0) ** 2)
    shared = dynamics.subspace_intersection(s_sys.vectors, t_sys.vectors)
    ray = abs(abs(shared[0][0]) - 1.0) if len(shared) == 1 else np.inf
    ray_ok = _within("variance-complementarity", "shared ray", ray)
    residuals = [abs(vs - oracle), abs(vs - 0.5), abs(vt - vs), abs(vs * vt - 0.25)]
    extra = []
    for _ in range(10):
        d = int(rng.integers(5, 10))
        a0, a1 = sorted(rng.uniform(-3, 3, size=2))
        if a1 - a0 < 1e-3:
            a1 = a0 + 1.0
        ss, tt = dynamics.complementarity_pair(d, (a0, a1))
        e = np.zeros(d, dtype=complex)
        e[0] = 1.0
        want = (a0 - a1) ** 2 / 4.0
        extra += [abs(dynamics.variance(ss, e) - want), abs(dynamics.variance(tt, e) - want)]
    # in_domain against the dense distance |(I - V*V) x| to the span of the rows V:
    # e0 lies in both domains, each eigenvector of S outside T's
    probes = [(s_sys, e0), (t_sys, e0)] + [(t_sys, v) for v in s_sys.vectors]
    gaps = [np.linalg.norm((np.eye(5) - m.vectors.T @ m.vectors.conj()) @ x) for m, x in probes]
    near = [_within("variance-complementarity", "domain distance", g) for g in gaps]
    domains_ok = near == [finitary.in_domain(m, x) for m, x in probes] == [True, True, False, False]
    detail = (
        f"variance {vs:.3e} twice, product {vs * vt:.3e}, "
        f"{'one shared ray' if ray_ok else 'WRONG intersection'}, "
        f"10 seeded pairs residual {_worst(extra):.3e}"
    )
    worst = {"variance": _worst(residuals + extra), "shared ray": ray,
             "domain distance": _worst(gaps[:2])}
    return _result("variance-complementarity", detail, worst, ok=domains_ok)


def _check_oscillator_spectrum(seed):
    del seed  # fixed grid
    t = dynamics.oscillator_hamiltonian(400, 10.0)
    system = finitary.diagonalize(t)
    complete = finitary.is_complete(system)
    gaps = np.diff(system.values[:6])
    spread = float(gaps.max() / gaps.min() - 1.0)
    detail = (
        f"400-point grid: complete {'yes' if complete else 'NO'}, "
        f"first five gaps spread {spread:.3e}"
    )
    return _result("oscillator-spectrum", detail, {"gap spread": spread}, ok=complete)


# ---------------------------------------------------------------------------
# socks


def _dyadic(rng):
    return complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 4.0


def _choice_value(pair_vectors, index, length):
    out = 1.0 + 0.0j
    for n, p in enumerate(pair_vectors):
        bit = (index >> (length - 1 - n)) & 1
        out *= p.b_value if bit else p.a_value
    return out


def _check_tensor_inner_identity(seed):
    rng = _rng(seed, 11)
    identity = []
    for case in range(50):
        n = case % 7
        xs = [socks.PairVector(i, _dyadic(rng)) for i in range(n)]
        ys = [socks.PairVector(i, _dyadic(rng)) for i in range(n)]
        tx = socks.pair_tensor(xs)
        ty = socks.pair_tensor(ys)
        got = socks.tensor_inner(tx, ty)
        brute = sum(
            _choice_value(xs, i, n) * np.conj(_choice_value(ys, i, n))
            for i in range(1 << n)
        )
        closed = (2.0 ** n) * np.prod(
            [x.a_value * np.conj(y.a_value) for x, y in zip(xs, ys)]
        ) if n else 1.0 + 0.0j
        factored = np.prod(
            [socks.pair_inner(x, y) for x, y in zip(xs, ys)]
        ) if n else 1.0 + 0.0j
        identity += [abs(got - other) for other in (brute, closed, factored)]
    units = map(socks.generator_tensor, range(9))
    identity, norm = _worst(identity), _worst([abs(socks.tensor_inner(u, u) - 1.0) for u in units])
    detail = (
        f"50 tensor pairs with pair counts 0..6, identity residual {identity:.3e}; "
        f"unit generators 0..8, norm residual {norm:.3e}"
    )
    return _result("tensor-inner-identity", detail,
                   {"identity residual": identity, "norm residual": norm})


def _check_tensor_antisymmetry(seed):
    rng = _rng(seed, 12)
    cases = failed = 0
    for n in range(6):
        amplitude = complex(rng.standard_normal(), rng.standard_normal())
        tensors = [socks.generator_tensor(n),
                   socks.SignedTensor(n, amplitude * socks.alternation_signs(n))]
        choices = [socks.ChoiceFunction.from_index(n, i) for i in range(1 << n)]
        for tensor in tensors:
            values = [tensor.value(choice) for choice in choices]
            for (i, lhs), (j, rhs) in product(enumerate(values), repeat=2):
                cases += 1
                failed += lhs != (-1.0) ** bin(i ^ j).count("1") * rhs
    detail = f"{cases} choice-function pairs over 0..5 pair tensors, {failed} sign violations"
    return _result("tensor-antisymmetry", detail, {}, ok=failed == 0)


def _check_flip_support(seed):
    rng = _rng(seed, 13)
    m = 6
    vectors = [
        socks.TruncatedFockVector(np.array(bits, dtype=complex))
        for bits in product((0, 1), repeat=m + 1)
    ]
    for _ in range(20):
        coeffs = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        vectors.append(socks.TruncatedFockVector(coeffs))
    cases = failed = 0
    for v in vectors:
        support = socks.least_support(v)
        for k in range(m + 2):
            flipped = socks.flip(socks.FlipAction(frozenset({k})), v)
            moved = not np.array_equal(flipped.coeffs, v.coeffs)
            cases += 1
            failed += moved != (k in support)
    detail = f"{len(vectors)} vectors x {m + 2} single flips, {failed} support mismatches"
    return _result("flip-support", detail, {}, ok=failed == 0)


# ---------------------------------------------------------------------------
# fhlogic


def _seeded_fh_operator(rng, symmetric):
    m = int(rng.integers(3, 13))
    atoms = [f"a{i:02d}" for i in range(m)]
    size = int(rng.integers(0, m - 1))
    support = _subset(rng, atoms, size)
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if symmetric:
        block = (g + g.conj().T) / 2.0
        tail = complex(float(rng.uniform(-2, 2)))
    else:
        block = g
        if size:
            block[0, 0] += 0.7j
        tail = complex(float(rng.uniform(-2, 2)), 0.5)
    op = fhlogic.FHOperator(support, block, tail, symmetric)
    return fhlogic.canonicalize(op), atoms


def _check_fh_roundtrip(seed):
    rng = _rng(seed, 14)
    failed = 0
    for case in range(50):
        op, atoms = _seeded_fh_operator(rng, symmetric=case % 2 == 0)
        matrix = fhlogic.fh_to_matrix(op, atoms)
        back = fhlogic.decompose_equivariant(matrix, atoms)
        failed += not (back.support == op.support and np.array_equal(back.block, op.block)
                       and back.tail == op.tail and back.symmetric == op.symmetric)
    detail = f"50 operators over windows of 3..12 atoms, {failed} canonical-form mismatches"
    return _result("fh-roundtrip", detail, {}, ok=failed == 0)


def _check_zero_sum_criterion(seed):
    rng = _rng(seed, 15)
    failed = 0
    accepted = []  # the worst probe sum of each operator the criterion accepts
    for case in range(50):
        size = int(rng.integers(2, 7))
        support = tuple(f"a{i:02d}" for i in range(size))
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        tail = complex(float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        if case % 2 == 0:
            for j in range(size):
                block[size - 1, j] = tail - np.sum(block[: size - 1, j])
        else:
            block[0, int(rng.integers(0, size))] += float(rng.uniform(1e-4, 1.0))
        op = fhlogic.FHOperator(support, block, tail)
        window = list(support) + [f"z{i}" for i in range(3)]
        images = [fhlogic.fh_apply(op, fhlogic.FiniteSupportVector({a: 1.0, b: -1.0}))
                  for a in window for b in window if a != b]
        sums = [abs(sum(v for _, v in image.entries)) for image in images]
        probe = _worst(sums) / max(1.0, abs(op.tail), float(np.max(np.abs(op.block), initial=0.0)))
        compatible = fhlogic.zero_sum_compatible(op)
        failed += _within("zero-sum-criterion", "probe sum", probe) != compatible
        accepted.append(probe if compatible else 0.0)
    detail = f"50 operators, column-sum criterion vs exhaustive probes, {failed} disagreements"
    return _result("zero-sum-criterion", detail, {"probe sum": _worst(accepted)}, ok=failed == 0)


def _check_functional_recovery(seed):
    rng = _rng(seed, 16)
    failed = 0
    residuals = []
    for _ in range(30):
        m = int(rng.integers(7, 11))
        window = [f"p{i:02d}" for i in range(m)]
        weights = {}
        for atom in _subset(rng, window, int(rng.integers(0, 4))):
            value = 0j
            while value == 0:
                value = _dyadic(rng)
            weights[atom] = value
        samples = {}
        for i in range(m):
            for j in range(i + 1, m):
                a, b = window[i], window[j]
                value = weights.get(a, 0j) - weights.get(b, 0j)
                if rng.random() < 0.5:
                    samples[(a, b)] = value
                else:
                    samples[(b, a)] = -value
        support, got = fhlogic.represent_functional(samples, window)
        if support != tuple(sorted(weights)):
            failed += 1
            continue
        residuals += [abs(got[atom] - weights[atom]) for atom in support]
    worst = _worst(residuals)
    detail = (
        f"30 probe tables over 7..10 atoms, {failed} support mismatches, "
        f"worst weight residual {worst:.3e}"
    )
    return _result("functional-recovery", detail, {"weight residual": worst}, ok=failed == 0)


def _random_subspace(rng, atoms):
    count = int(rng.integers(0, 4))
    vectors = []
    for _ in range(count):
        size = int(rng.integers(1, len(atoms) + 1))
        vectors.append(_integer_vector(rng, _subset(rng, atoms, size)))
    if rng.random() < 0.4:
        return fhlogic.subspace(vectors, exclude=list(atoms))
    return fhlogic.subspace(vectors)


def _check_modular_law(seed):
    rng = _rng(seed, 17)
    atoms = [f"q{i}" for i in range(6)]
    failed = 0
    for _ in range(200):
        x = _random_subspace(rng, atoms)
        y = _random_subspace(rng, atoms)
        z = _random_subspace(rng, atoms)
        failed += not fhlogic.modularity_check(x, y, z)
    detail = f"200 subspace triples over a 6-atom window, {failed} shearing failures"
    return _result("modular-law", detail, {}, ok=failed == 0)


def _check_dimension_state_additivity(seed):
    rng = _rng(seed, 18)
    atoms = [f"q{i}" for i in range(6)]
    failed = families = 0
    for _ in range(60):
        k = int(rng.integers(1, 5))
        order = [atoms[i] for i in rng.permutation(6)]
        cuts = sorted(rng.choice(range(1, 6), size=k - 1, replace=False)) if k > 1 else []
        bounds = [0] + list(cuts) + [6]
        groups = [order[bounds[i] : bounds[i + 1]] for i in range(k)]
        cof_index = int(rng.integers(0, k)) if rng.random() < 0.5 else -1
        members = []
        for gi, group in enumerate(groups):
            count = int(rng.integers(0, len(group) + 1))
            vectors = [_integer_vector(rng, group) for _ in range(count)]
            if gi == cof_index:
                members.append(fhlogic.subspace(vectors, exclude=atoms))
            else:
                members.append(fhlogic.subspace(vectors))
        families += 1
        ok = all(
            fhlogic.is_orthogonal(members[i], members[j])
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        joined = members[0]
        for member in members[1:]:
            joined = fhlogic.subspace_join(joined, member)
        total = sum(fhlogic.two_valued_state(m) for m in members)
        failed += not ok or fhlogic.two_valued_state(joined) != total
    cof_pairs_ok = True
    for _ in range(10):
        c1 = fhlogic.subspace([], exclude=[atoms[i] for i in rng.choice(6, size=2, replace=False)])
        c2 = fhlogic.subspace([], exclude=[atoms[i] for i in rng.choice(6, size=2, replace=False)])
        if fhlogic.is_orthogonal(c1, c2):
            cof_pairs_ok = False
    detail = (
        f"{families} orthogonal families of up to 4 members, {failed} additivity failures; "
        f"cofinite pairs never orthogonal {'yes' if cof_pairs_ok else 'NO'}"
    )
    return _result("dimension-state-additivity", detail, {}, ok=failed == 0 and cof_pairs_ok)


def _check_density_refutation(seed):
    rng = _rng(seed, 19)
    failed = 0
    for case in range(20):
        m = 8
        atoms = [f"r{i:02d}" for i in range(m)]
        size = int(rng.integers(0, 5))
        support = _subset(rng, atoms, size)
        block = _hermitian(rng, size)
        tail = 0.0 if case % 2 == 0 else float(rng.uniform(0.1, 1.0))
        density = fhlogic.canonicalize(
            fhlogic.FHOperator(support, block, tail, symmetric=True)
        )
        witness, verdict = fhlogic.refute_density(density)
        trace_ok = (str(verdict.trace) == "INFINITE" if verdict.trace.infinite
                    else verdict.trace.value == 0.0)
        failed += not (
            witness.exclude == density.support
            and fhlogic.two_valued_state(witness) == 1
            and verdict.state_value == 1
            and verdict.agrees is False
            and verdict.trace.infinite == (density.tail != 0)
            and trace_ok
        )
    detail = f"20 density candidates, {failed} invalid witnesses or verdicts"
    return _result("density-refutation", detail, {}, ok=failed == 0)


# ---------------------------------------------------------------------------
# serialization


def _seeded_values(seed):
    rng = _rng(seed, 20)
    operator = _hermitian(rng, 4)
    full = finitary.diagonalize(_hermitian(rng, 5))
    partial = finitary.EigenSystem(5, full.values[:3], full.vectors[:3])
    elements = ("x1", "x2", "x3", "x4")
    objects = measurement.ObjectSet(elements, "a")
    partition = measurement.PartitionPlus(
        objects, (("x1", "x3"), ("x2",), ("a", "x4"))
    )
    fock = socks.TruncatedFockVector(
        rng.standard_normal(7) + 1j * rng.standard_normal(7)
    )
    tensor = socks.pair_tensor([socks.PairVector(i, _dyadic(rng)) for i in range(3)])
    symmetric_op, _ = _seeded_fh_operator(rng, symmetric=True)
    plain_op, _ = _seeded_fh_operator(rng, symmetric=False)
    window = [f"q{i}" for i in range(5)]
    finite_space = _random_subspace(rng, window)
    cofinite_space = fhlogic.subspace(
        [fhlogic.FiniteSupportVector({"q0": 1.0, "q1": 2.0})], exclude=window
    )
    return [
        ("operator", operator),
        ("eigensystem", full),
        ("eigensystem", partial),
        ("state", _unit(rng, 4)),
        ("density", _density(rng, 3)),
        ("partition", partition),
        ("fockvector", fock),
        ("tensor", tensor),
        ("flips", frozenset({0, 2, 5})),
        ("fhoperator", symmetric_op),
        ("fhoperator", plain_op),
        ("subspace", finite_space),
        ("subspace", cofinite_space),
    ]


def _check_persistence_roundtrip(seed):
    cases = failed = 0
    for kind, value in _seeded_values(seed):
        text = serial.dumps_value(kind, value)
        back = serial.loads_value(kind, text)
        again = serial.dumps_value(kind, back)
        cases += 1
        failed += text != again
    detail = f"{cases} values across every kind, {failed} round trips changed bytes"
    return _result("persistence-roundtrip", detail, {}, ok=failed == 0)


# ---------------------------------------------------------------------------
# harness

SUITES = {
    "measurement": (
        _check_partition_ideal_roundtrip,
        _check_relabel_order_oracle,
        _check_scale_pushforward_oracle,
    ),
    "finitary": (
        _check_eigen_reconstruction,
        _check_functional_calculus,
    ),
    "dynamics": (
        _check_unitary_evolution,
        _check_concatenation,
        _check_state_compression,
        _check_variance_complementarity,
        _check_oscillator_spectrum,
    ),
    "socks": (
        _check_tensor_inner_identity,
        _check_tensor_antisymmetry,
        _check_flip_support,
    ),
    "fhlogic": (
        _check_fh_roundtrip,
        _check_zero_sum_criterion,
        _check_functional_recovery,
        _check_modular_law,
        _check_dimension_state_additivity,
        _check_density_refutation,
    ),
    "serialization": (
        _check_persistence_roundtrip,
    ),
}

# the longest checks by CPU time, longest first; `run_suite` starts them before
# the rest so none is left to finish alone (longest-first greedy, Graham 1969)
HEAVIEST_FIRST = ("modular-law", "functional-calculus", "partition-ideal-roundtrip",
                  "oscillator-spectrum", "concatenation")


def _name(fn):
    """The name a check reports."""
    return fn.__name__.removeprefix("_check_").replace("_", "-")


def _dispatch_order(checks):
    """Indices of `checks`: those in HEAVIEST_FIRST in its order, then the rest in theirs."""
    rank = {name: r for r, name in enumerate(HEAVIEST_FIRST)}
    return sorted(range(len(checks)), key=lambda i: rank.get(_name(checks[i]), len(rank)))


def _run_check(fn, seed):
    try:
        return fn(seed)
    except Exception as exc:  # a crash is a failed check, not a crash of the tool
        return CheckResult(_name(fn), False, f"raised {type(exc).__name__}: {exc}")


def _claim(checks, seed, order, out):
    """A forked worker: run each check whose index it reads from `order`; never returns."""
    code = 1
    try:
        with open(out, "wb") as sink:
            while claimed := os.read(order, 1):
                sink.write(claimed)
                sink.flush()  # the last result and this claim: seen even if the check kills us
                result = pickle.dumps(_run_check(checks[claimed[0]], seed))
                sink.write(len(result).to_bytes(4, "little") + result)
        code = 0
    finally:
        os._exit(code)


def _reports(data):
    """(index, CheckResult) for each check one worker claimed; None if it died in it."""
    while data:
        end = 5 + int.from_bytes(data[1:5], "little")
        yield data[0], pickle.loads(data[5:end]) if end <= len(data) else None
        data = data[end:]


def run_suite(name, seed):
    """Run one named suite (or 'all') and return the CheckResults in suite order.

    The checks run in workers forked from the caller, one per usable CPU and
    at most one per check, or here when that is one worker or fork is missing.
    Each worker claims its next check by reading its index, one byte, from a
    pipe filled heaviest first, and sends results back on a pipe of its own.
    A check fails if it raises; if its worker dies running it, naming how the
    worker ended, while the others keep claiming; and if no worker claims it,
    naming the fork's error or else that every worker died.
    """
    if name == "all":
        checks = [fn for suite in SUITES.values() for fn in suite]
    elif name in SUITES:
        checks = list(SUITES[name])
    else:
        raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(checks), len(os.sched_getaffinity(0))) if forkable else 1
    if workers < 2:
        return [_run_check(fn, seed) for fn in checks]
    order, claims = os.pipe()
    os.write(claims, bytes(_dispatch_order(checks)))
    os.close(claims)
    children, forking = [], None  # (pid, read end of its result pipe); fork's error
    for _ in range(workers):
        out, into = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            os.close(out)
            os.close(into)
            forking = exc
            break
        if pid == 0:
            _claim(checks, seed, order, into)
        os.close(into)  # at once, so no later worker holds this pipe open
        children.append((pid, out))
    results = {}
    for pid, out in children:
        with open(out, "rb") as source:
            reports = source.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        ended = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        for i, result in _reports(reports):
            results[i] = result or CheckResult(_name(checks[i]), False, f"its worker died, {ended}")
    unclaimed = (f"not run: fork raised {type(forking).__name__}: {forking}" if forking
                 else "not run: every worker died")
    for i in os.read(order, len(checks)):
        results[i] = CheckResult(_name(checks[i]), False, unclaimed)
    os.close(order)
    return [results[i] for i in range(len(checks))]


def render_report(results, name, seed):
    lines = [f"verify suite={name} seed={seed}"]
    for r in results:
        lines.append(f"{'ok' if r.passed else 'FAIL':<4} {r.name}: {r.detail}")
    good = sum(1 for r in results if r.passed)
    lines.append(f"{good} passed, {len(results) - good} failed")
    return "\n".join(lines) + "\n"
