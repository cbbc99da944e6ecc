import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from polymat import base_set, random_polymatroid, vector_set, veronese

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# The five worked base sets used across the suite.
FOUR_BASES = [(1, 1, 1, 1), (0, 2, 0, 2), (0, 1, 1, 2), (1, 2, 0, 1)]
BOREL_211 = [(2, 1, 1), (2, 2, 0), (3, 0, 1), (3, 1, 0), (4, 0, 0)]
STABLE_FIVE = [(3, 0, 1), (1, 3, 0), (3, 1, 0), (2, 2, 0), (4, 0, 0)]
BOREL_0101 = [
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (0, 2, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 1, 0, 0),
    (2, 0, 0, 0),
]


@pytest.fixture
def four_bases():
    return base_set(FOUR_BASES)


@pytest.fixture
def borel_211():
    return base_set(BOREL_211)


@pytest.fixture
def stable_five():
    return base_set(STABLE_FIVE)


@pytest.fixture
def borel_0101():
    return base_set(BOREL_0101)


@pytest.fixture
def stable_five_set():
    return vector_set(STABLE_FIVE)


@pytest.fixture(scope="session")
def instance_pool():
    """200 seeded random polymatroids with their generating rank functions."""
    pool = []
    for seed in range(200):
        rng = Random(seed)
        pool.append(random_polymatroid(rng, max_n=5, max_rank=5))
    return pool


@pytest.fixture(scope="session")
def positive_pool():
    """50 seeded polymatroids containing every unit vector, n <= 3, rank <= 4."""
    pool = []
    for seed in range(50):
        rng = Random(10_000 + seed)
        n = rng.randint(1, 3)
        from polymat import polymatroid_from_rank, random_rank_function

        rho = random_rank_function(rng, n, 4, ensure_positive=True)
        pool.append((rho, polymatroid_from_rank(rho)))
    return pool


@pytest.fixture(scope="session")
def scan_pool(instance_pool):
    """Base sets and non-base sets for the exchange scans: the pool's base
    sets with at most 40 bases, each again without its middle base, the
    strongly stable five, and 100 seeded random subsets of Veronese sets."""
    out = []
    for _, P in instance_pool:
        members = sorted(P.bases)
        if len(members) <= 40:
            out.append(members)
            if len(members) > 1:
                out.append(members[: len(members) // 2] + members[len(members) // 2 + 1 :])
    out.append(STABLE_FIVE)
    rng = Random(7)
    for _ in range(100):
        caps = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        members = sorted(veronese(caps, rng.randint(1, sum(caps))).vectors)
        out.append(rng.sample(members, rng.randint(1, len(members))))
    return [base_set(vs) for vs in out]


@pytest.fixture(scope="session")
def wide_pool():
    """Seeded sets of 65-120 vectors, so that bitmasks over them span several
    machine words: Veronese base sets, each again without its middle base,
    and random subsets of Veronese sets."""
    rng = Random(23)
    out = []
    while len(out) < 12:
        caps = [rng.randint(2, 4) for _ in range(rng.randint(4, 5))]
        members = sorted(veronese(caps, rng.randint(2, sum(caps) - 2)).vectors)
        if 65 <= len(members) <= 120 and members not in out:
            out += [members, members[: len(members) // 2] + members[len(members) // 2 + 1 :]]
        elif len(members) > 120:
            out.append(rng.sample(members, rng.randint(65, 120)))
    return [base_set(vs) for vs in out]
