"""Problem ensembles: target-space generators for five families.

Every instance draws from its own stream, the one ``core.streams`` keys
(id,) under the ensemble seed, so instances are reproducible in isolation
and rejection resampling inside one instance never shifts its neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import MAX_STATEVECTOR_WIDTH, MAX_WIDTH, TargetSpace, UsageError, streams

# each family's generator settings and their defaults (None: required); the
# key order is the order in which an ensemble file records its params
FAMILY_PARAMS = {
    "uniform": {"t_size": None},
    "clustered": {"num_seeds": 3, "per_seed": 30, "dedupe": "retry"},
    "sat": {"num_clauses": None},
    "kclique": {"k": 3, "edge_prob": 0.5},
    "qrfactor": {},
}
FAMILIES = tuple(FAMILY_PARAMS)

# clause densities above this are more than twice the random 3-SAT threshold
# (about 4.27): satisfiable draws become so rare that MAX_DRAWS would run out
MAX_ALPHA = 10.0

# draws per instance; a SAT or k-clique draw without a target is redrawn
MAX_DRAWS = 10_000

# instances per ensemble: far above any study here, and a bound on the run time
MAX_COUNT = 1_000_000

_WALK_RETRY_CAP = 1_000_000


# ---------------------------------------------------------------------------
# direct samplers


def sample_uniform(n: int, t_size: int, rng: np.random.Generator) -> TargetSpace:
    """A uniform random t_size-subset of all n-bit states."""
    if not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {n}")
    if not 1 <= t_size <= (1 << n):
        raise UsageError(f"t_size must be in [1, 2^n], got {t_size}")
    return TargetSpace(n, np.sort(rng.choice(1 << n, size=t_size, replace=False)))


def random_walk(start: int, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Flip one uniformly chosen bit per step, continuing with probability 1/2.

    Returns (final state, number of flips); the flip count is geometric with
    mean 1.
    """
    state = start
    flips = 0
    while rng.random() < 0.5:
        state ^= 1 << int(rng.integers(n))
        flips += 1
    return state, flips


def sample_clustered(
    n: int,
    num_seeds: int,
    per_seed: int,
    rng: np.random.Generator,
    dedupe: str = "retry",
) -> TargetSpace:
    """Clusters grown by random walks around uniformly drawn seed states.

    Each seed contributes per_seed states reached by independent walks from
    it.  With dedupe="retry" a walk that lands on an already-collected state
    is rerun, so |T| = num_seeds * (per_seed + 1) exactly; with
    dedupe="drop" such walks are discarded and |T| may come out smaller.
    """
    if not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {n}")
    if dedupe not in ("retry", "drop"):
        raise UsageError(f"dedupe must be 'retry' or 'drop', got {dedupe!r}")
    if num_seeds < 1 or per_seed < 0:
        raise UsageError("need num_seeds >= 1 and per_seed >= 0")
    planned = num_seeds * (per_seed + 1)
    if planned > (1 << n):
        raise UsageError(f"{planned} states do not fit {1 << n} available")
    seeds = rng.choice(1 << n, size=num_seeds, replace=False)
    collected = {int(s) for s in seeds}
    for seed in seeds:
        for _ in range(per_seed):
            for _ in range(_WALK_RETRY_CAP):
                state, _flips = random_walk(int(seed), n, rng)
                if state not in collected:
                    collected.add(state)
                    break
                if dedupe == "drop":
                    break
            else:
                raise UsageError(f"random walks found no new state for {planned} states at n={n}")
    return TargetSpace.from_iterable(n, collected)


# ---------------------------------------------------------------------------
# satisfiability


def gen_sat(n: int, num_clauses: int, rng: np.random.Generator) -> tuple:
    """3-SAT clauses: 3 distinct vars each, fair negation; a literal is (0-based var, negated)."""
    if n < 3:
        raise UsageError(f"3-SAT needs n >= 3, got {n}")
    if num_clauses < 1:
        raise UsageError("need at least one clause")
    if num_clauses > MAX_ALPHA * n:
        raise UsageError(f"{num_clauses} clauses exceed {MAX_ALPHA:g} * n = {MAX_ALPHA * n:g}")
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(n, size=3, replace=False)
        negated = rng.random(3) < 0.5
        clauses.append(tuple((int(v), bool(neg)) for v, neg in zip(variables, negated)))
    return tuple(clauses)


def enumerate_sat(n: int, clauses) -> TargetSpace | None:
    """All n-bit assignments satisfying every clause, by exhaustive scan; None if none.

    Assignment bit i is variable i; n <= 24.  A clause is false only where each of its variables
    takes its falsifying value (1 if negated, else 0), and one holding x and not-x never is.
    """
    if n > MAX_STATEVECTOR_WIDTH:
        raise UsageError(f"exhaustive SAT scan needs n <= {MAX_STATEVECTOR_WIDTH}")
    states = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(states.shape, dtype=bool)
    for clause in clauses:  # bit masks of its un-negated and its negated variables
        pos, neg = (sum({1 << var for var, negated in clause if negated == side}) for side in (0, 1))
        if not pos & neg:
            ok &= (states & (pos | neg)) != neg
    hits = np.flatnonzero(ok)  # ascending, as a space holds them
    return TargetSpace(n, hits) if hits.size else None


def to_dimacs(n: int, clauses) -> str:
    """DIMACS CNF text: 1-based signed literals, zero-terminated clauses."""
    lines = [f"p cnf {n} {len(clauses)}"]
    for clause in clauses:
        literals = [-(var + 1) if negated else var + 1 for var, negated in clause]
        lines.append(" ".join(str(lit) for lit in literals) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# k-clique


def gen_graph(n: int, edge_prob: float, rng: np.random.Generator) -> tuple:
    """The sorted (i, j) edges of a random graph: each of the C(n, 2) present independently."""
    if n < 2:
        raise UsageError(f"graph generation needs n >= 2, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise UsageError(f"edge_prob must be in [0, 1], got {edge_prob}")
    pairs = list(combinations(range(n), 2))
    keep = rng.random(len(pairs)) < edge_prob
    return tuple(p for p, k in zip(pairs, keep) if k)


def enumerate_kcliques(n: int, edges, k: int) -> TargetSpace | None:
    """Vertex-mask bitstrings of all k-cliques of a graph on n vertices; None if none.

    Cliques grow in ascending vertex order from a bitmask of common neighbours;
    a branch with fewer than k - size candidates left is cut.
    """
    if not 1 <= k <= n:
        raise UsageError(f"need 1 <= k <= n, got k={k}")
    adjacency = [0] * n
    for i, j in edges:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    masks = []

    def grow(clique: int, size: int, candidates: int) -> None:
        if size == k:
            masks.append(clique)
            return
        while candidates.bit_count() >= k - size:
            low = candidates & -candidates
            candidates ^= low  # later branches take only higher vertices
            grow(clique | low, size + 1, candidates & adjacency[low.bit_length() - 1])

    grow(0, 0, (1 << n) - 1)
    if not masks:
        return None
    return TargetSpace.from_iterable(n, masks)


# ---------------------------------------------------------------------------
# factoring


@lru_cache(maxsize=None)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes < limit by a sieve of Eratosthenes."""
    if limit <= 2:
        return ()
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def sample_qr(n: int, rng: np.random.Generator) -> tuple[TargetSpace, dict]:
    """A semiprime factoring target: both orderings of two distinct primes.

    q and r are drawn uniformly from the primes below 2^(n/2); the two
    targets are the n-bit concatenations q|r and r|q (each factor padded to
    n/2 bits), and the metadata records the product x = q * r.
    """
    if n < 6 or n % 2:
        raise UsageError(f"qrfactor needs even n >= 6, got {n}")
    half = n // 2
    pool = primes_below(1 << half)
    while True:
        q, r = (int(pool[i]) for i in rng.integers(len(pool), size=2))
        if q != r:
            break
    targets = {(q << half) | r, (r << half) | q}
    return TargetSpace.from_iterable(n, targets), {"q": q, "r": r, "x": q * r}


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated target space plus its family-specific metadata."""

    id: int
    target: TargetSpace
    meta: dict | None = None


@dataclass(frozen=True, eq=False)
class Ensemble:
    family: str
    n: int
    seed: int
    params: dict
    instances: tuple[Instance, ...]


def _resolve_params(family: str, params: dict) -> dict:
    spec = FAMILY_PARAMS[family]
    unknown = set(params) - set(spec)
    if unknown:
        raise UsageError(f"unknown params for family {family!r}: {sorted(unknown)}")
    resolved = {}
    for key, default in spec.items():
        value = params.get(key, default)
        if value is None:
            raise UsageError(f"family {family!r} requires param {key!r}")
        resolved[key] = value
    return resolved


def _build_instance(
    family: str, n: int, params: dict, rng
) -> tuple[TargetSpace, dict | None] | None:
    """One draw of one instance; None if it has no target (SAT, k-clique)."""
    if family == "uniform":
        return sample_uniform(n, params["t_size"], rng), None
    if family == "clustered":
        space = sample_clustered(n, params["num_seeds"], params["per_seed"], rng, params["dedupe"])
        return space, None
    if family == "sat":
        clauses = gen_sat(n, params["num_clauses"], rng)
        space = enumerate_sat(n, clauses)
        return None if space is None else (space, {"dimacs": to_dimacs(n, clauses)})
    if family == "kclique":
        edges = gen_graph(n, params["edge_prob"], rng)
        space = enumerate_kcliques(n, edges, params["k"])
        meta = {"k": params["k"], "edges": [list(e) for e in edges]}
        return None if space is None else (space, meta)
    return sample_qr(n, rng)


def build_ensemble(family: str, n: int, count: int, params: dict, seed: int) -> Ensemble:
    """Generate a reproducible ensemble; each instance gets at most MAX_DRAWS draws."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"n must be in [1, {MAX_WIDTH}], got {n}")
    if not 1 <= count <= MAX_COUNT:
        raise UsageError(f"count must be in [1, {MAX_COUNT}], got {count}")
    resolved = _resolve_params(family, params)
    instances = []
    for instance_id, rng in enumerate(streams(seed, ((i,) for i in range(count)))):
        for _ in range(MAX_DRAWS):
            drawn = _build_instance(family, n, resolved, rng)
            if drawn is not None:
                break
        else:
            raise UsageError(f"{family} n={n} {resolved}: no target in {MAX_DRAWS} draws "
                             f"of instance {instance_id}")
        space, meta = drawn
        instances.append(Instance(id=instance_id, target=space, meta=meta))
    return Ensemble(family=family, n=n, seed=seed, params=resolved, instances=tuple(instances))
