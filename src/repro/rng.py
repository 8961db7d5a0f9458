"""Random-number-generator plumbing shared across the library.

Every stochastic component in this library accepts a ``random_state``
argument that may be ``None``, an integer seed, or a fully constructed
:class:`numpy.random.Generator`.  :func:`check_random_state` normalizes the
three forms so that downstream code always works with a ``Generator``.

Child generators are derived with :func:`spawn` so that parallel or repeated
sub-tasks (e.g. the trees of a forest, or repeated AutoML runs) get
independent, reproducible streams.

For work that leaves the submitting process — :mod:`repro.runtime` tasks —
randomness is carried as an explicit *seed path*: a tuple of non-negative
integers ``(root, *spawn_key)`` materialized by :func:`generator_from_path`
into ``default_rng(SeedSequence(root, spawn_key=spawn_key))``.  A seed path
is plain data (picklable, hashable, cache-keyable), and the generator it
names is the same no matter where, when, or in what order it is built —
the contract the deterministic parallel executors rest on.  A one-element
path ``(seed,)`` is bitwise-equivalent to ``check_random_state(seed)``, so
seeds drawn with :func:`spawn_seeds` reproduce exactly what :func:`spawn`
would have produced in-process.
"""

from __future__ import annotations

import warnings

import numpy as np

from .exceptions import ValidationError

RandomState = None | int | np.random.Generator

#: A serializable address for a random stream: ``(root, *spawn_key)``.
SeedPath = tuple[int, ...]

__all__ = [
    "RandomState",
    "SeedPath",
    "check_random_state",
    "spawn",
    "spawn_seeds",
    "generator_from_path",
]

# One-time latch for the nondeterminism warning below.  Process-global on
# purpose: the point is a single audible nudge per run, not a warning storm
# from every estimator constructed with the default random_state.
_warned_nondeterministic_seed = False


def check_random_state(random_state: RandomState) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for nondeterministic seeding, an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).

    .. warning::
       ``None`` draws entropy from the OS, so two runs will not agree —
       a benchmark seeded this way cannot back a reported number.  The
       first such call in a process emits a :class:`UserWarning`.
    """
    if random_state is None:
        global _warned_nondeterministic_seed
        if not _warned_nondeterministic_seed:
            _warned_nondeterministic_seed = True
            warnings.warn(
                "check_random_state(None) returns a nondeterministically seeded "
                "generator; results will differ between runs. Pass an int seed or "
                "a numpy Generator for reproducible benchmarks.",
                UserWarning,
                stacklevel=2,
            )
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValidationError(f"random_state must be >= 0, got {random_state}")
        return np.random.default_rng(int(random_state))
    raise ValidationError(
        f"random_state must be None, an int, or a numpy Generator; got {type(random_state).__name__}"
    )


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    The children are seeded from ``rng``'s own stream, so the same parent
    seed always yields the same family of children.
    """
    return [np.random.default_rng(seed) for seed in spawn_seeds(rng, n)]


def spawn_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Draw ``n`` child seeds from ``rng``'s stream without building generators.

    ``spawn(rng, n)`` is exactly ``[check_random_state(s) for s in
    spawn_seeds(rng, n)]``: the same stream consumption, the same child
    streams.  Use this form when the children must cross a process
    boundary — a seed is plain data, and ``generator_from_path((seed,))``
    rebuilds the identical generator anywhere.
    """
    if n < 0:
        raise ValidationError(f"cannot spawn a negative number of generators: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [int(seed) for seed in seeds]


def generator_from_path(path: SeedPath) -> np.random.Generator:
    """Materialize the generator a seed path names.

    ``path`` is ``(root, *spawn_key)``; the result is
    ``default_rng(SeedSequence(root, spawn_key=spawn_key))``.  For a
    one-element path this is bitwise-identical to
    ``check_random_state(root)``.  Longer paths address derived streams
    (e.g. a grid cell's stream) without touching the parent stream.
    """
    if not isinstance(path, tuple) or len(path) == 0:
        raise ValidationError(f"seed path must be a non-empty tuple of ints, got {path!r}")
    entries = []
    for entry in path:
        if not isinstance(entry, (int, np.integer)) or entry < 0:
            raise ValidationError(f"seed path entries must be ints >= 0, got {entry!r} in {path!r}")
        entries.append(int(entry))
    sequence = np.random.SeedSequence(entries[0], spawn_key=tuple(entries[1:]))
    return np.random.default_rng(sequence)
