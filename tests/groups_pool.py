"""The shared pool of small test groups."""

import random
from functools import lru_cache

from eqindex import cyclic_group, perm_group
from eqindex.burnside import BurnsideElement


@lru_cache(maxsize=None)
def pool():
    return {
        "Z2": perm_group(2, [[1, 0]]),
        "Z6": cyclic_group(6),
        "Z2xZ2": perm_group(4, [[1, 0, 2, 3], [0, 1, 3, 2]]),
        "S3": perm_group(3, [[1, 0, 2], [1, 2, 0]]),
        "D4": perm_group(4, [[1, 2, 3, 0], [0, 3, 2, 1]]),
    }


@lru_cache(maxsize=None)
def larger():
    return {
        "S4": perm_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]),
        "A5": perm_group(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),
        "S5": perm_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
    }


def abelian_names():
    return ["Z2", "Z6", "Z2xZ2"]


def random_elements(group, count, seed=0, lo=-5, hi=5):
    rng = random.Random(seed)
    nc = group.lattice().num_classes
    return [BurnsideElement(group, [rng.randint(lo, hi) for _ in range(nc)])
            for _ in range(count)]
