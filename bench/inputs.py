"""Seeded input builders shared by the cli_small and api_batch workloads.

Each takes a numpy Generator and the sizes it should build at; the
same generator state gives the same inputs.
"""

import numpy as np

from finobs import enumeration, fhlogic, measurement


def hermitian(rng, d, scale=1.0):
    """A random Hermitian d x d matrix of spectral norm `scale`."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h * (scale / np.linalg.norm(h, 2))


def density(rng, d):
    """A random full-rank d x d density matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def labeling_family(rng, n_objects, extra):
    """A random partition code on x1..xn plus the absorber "a", the
    labels y1..yn, and entry maps of labelings in the code's ideal.

    The first entry map labels every measured block apart, so the family
    separates exactly what the code separates; `extra` more each keep a
    measured object with probability 0.7.
    """
    elements = tuple(f"x{i + 1}" for i in range(n_objects))
    labels = tuple(f"y{i + 1}" for i in range(n_objects))
    objects = measurement.ObjectSet(elements, "a")
    partitions = list(enumeration.set_partitions(objects.universe()))
    blocks = partitions[int(rng.integers(len(partitions)))]
    code = measurement.PartitionPlus(objects, tuple(tuple(b) for b in blocks))
    measured = [b for b in code.blocks if "a" not in b]
    entries = [{x: labels[i] for i, b in enumerate(measured) for x in b}]
    for _ in range(extra):
        tags = rng.integers(n_objects, size=len(measured))
        entries.append({x: labels[tags[i]] for i, b in enumerate(measured) for x in b
                        if rng.random() < 0.7})
    return code, labels, entries


def spanning_set(rng, atoms, low, high):
    """Arguments of `fhlogic.subspace`: between `low` and `high` - 1
    vectors with small Gaussian-integer coordinates on random atoms, and
    the whole window excluded with probability 0.4."""
    vectors = []
    for _ in range(int(rng.integers(low, high))):
        chosen = sorted(rng.choice(len(atoms), size=int(rng.integers(1, len(atoms) + 1)),
                                   replace=False))
        vectors.append(fhlogic.FiniteSupportVector({
            atoms[i]: complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for i in chosen
        }))
    exclude = list(atoms) if rng.random() < 0.4 else None
    return vectors, exclude
