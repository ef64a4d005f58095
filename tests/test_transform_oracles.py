"""The moment-cumulant transforms against brute-force partition sums.

cumulants and densities compute both lattice sums by recursion on the
block of the first point.  Here the same sums are spelled out over the
partitions that oracles.enumerate_partitions lists, and over the
non-crossing ones that is_noncrossing picks out of them.
"""

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from haarlab import densities
from haarlab.cumulants import (CumulantFunctional, MomentFunctional,
                               cumulants_to_moments, moments_to_cumulants)
from haarlab.errors import CapacityError
from haarlab.rmt import TraceStatistics
from oracles import enumerate_partitions, is_noncrossing


def _random_functional(rng, nvars, order):
    return {combo: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for r in range(1, order + 1)
            for combo in itertools.combinations_with_replacement(
                range(1, nvars + 1), r)}


def _block_product(f, blocks, indices):
    return math.prod(f(tuple(indices[j - 1] for j in b)) for b in blocks)


def _brute_moment(kfun, indices):
    """Sum over all set partitions of [r] of cumulant block-products."""
    return sum(_block_product(kfun, pi, indices)
               for pi in enumerate_partitions(len(indices)))


def _brute_cumulant(mfun, indices):
    """Moebius inversion on the partition lattice:
    mu(pi, 1) = (-1)^(b-1) (b-1)! for a partition with b blocks."""
    return sum((-1) ** (len(pi) - 1) * math.factorial(len(pi) - 1)
               * _block_product(mfun, pi, indices)
               for pi in enumerate_partitions(len(indices)))


@pytest.mark.parametrize("seed", range(6))
def test_classical_transforms_match_partition_sums(seed):
    rng = random.Random(seed)
    for _trial in range(4):
        nvars = rng.randint(1, 3)
        order = rng.randint(1, 6)
        vals = _random_functional(rng, nvars, order)
        kfun, mfun = CumulantFunctional(vals), MomentFunctional(vals)
        for key in vals:
            positions = list(key)
            rng.shuffle(positions)
            assert cumulants_to_moments(kfun, positions) \
                == _brute_moment(kfun, positions)
            assert moments_to_cumulants(mfun, positions) \
                == _brute_cumulant(mfun, positions)


def test_classical_transforms_cap_positions():
    vals = {(1,) * r: Fraction(1) for r in range(1, 12)}
    with pytest.raises(CapacityError):
        cumulants_to_moments(CumulantFunctional(vals), (1,) * 11)
    with pytest.raises(CapacityError):
        moments_to_cumulants(MomentFunctional(vals), (1,) * 11)


@functools.cache
def _nc_partitions(n):
    return [pi for pi in enumerate_partitions(n) if is_noncrossing(pi)]


def _nc_sum(kappa, n, skip_one_block=False):
    return sum(math.prod(kappa[len(b) - 1] for b in pi)
               for pi in _nc_partitions(n)
               if not (skip_one_block and len(pi) == 1))


@pytest.mark.parametrize("seed", range(5))
def test_free_transforms_match_noncrossing_sums(seed):
    rng = random.Random(100 + seed)
    order = densities.MOMENT_ORDER
    seq = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
           for _ in range(order)]
    assert densities.moments_from_free_cumulants(seq) \
        == [_nc_sum(seq, n) for n in range(1, order + 1)]
    # peel the one-block partition off m_n = sum over NC(n), n = 1, 2, ...
    kappa = []
    for n in range(1, order + 1):
        kappa.append(seq[n - 1] - _nc_sum(kappa + [0], n,
                                          skip_one_block=True))
    assert densities.free_cumulants_from_moments(seq) == kappa


def test_transforms_enumerate_no_partitions(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a set partition was enumerated")

    # the enumerators live only in the test oracles: no package module
    # can reach them, and a call through the oracles module would refuse
    for attr in ("enumerate_partitions", "enumerate_nc_partitions"):
        monkeypatch.setattr(oracles, attr, refuse)
        assert [name for name, module in list(sys.modules.items())
                if (name == "haarlab" or name.startswith("haarlab."))
                and hasattr(module, attr)] == []

    densities.arcsine_law()
    law = densities.kesten_mckay_law()
    assert densities.free_self_convolution(law)[1] == 8
    vals = {(1,): 2, (2,): -1, (1, 1): 5, (1, 2): 3, (2, 2): 4,
            (1, 1, 2): 7}
    assert cumulants_to_moments(CumulantFunctional(vals), (1, 2, 1)) \
        == 7 + 3 * 2 + 5 * -1 + 3 * 2 + 2 * -1 * 2
    assert moments_to_cumulants(MomentFunctional(vals), (1, 2)) == 5
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
    stats = TraceStatistics(("a", "b"), samples)
    assert len(stats.cumulants(3).values) == 9
