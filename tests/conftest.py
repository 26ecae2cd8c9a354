import numpy as np
import pytest

from qauthlab.codes import PtcFamily, StabilizerCode, search_ptc
from qauthlab.protocols import _attack_pieces, _transfer


@pytest.fixture(scope="session")
def family_s1():
    """The XX / ZZ / YY triple: m=1, s=1, worst undetected fraction 2/3."""
    codes = tuple(StabilizerCode(2, (x << 2 | z,)) for x, z in ((3, 0), (0, 3), (3, 3)))
    return PtcFamily(codes, epsilon_verified=2.0 / 3.0)


@pytest.fixture(scope="session")
def family_s2():
    fam = search_ptc(1, 2, target_eps=0.6, budget=60, seed=1)
    assert fam.met_target
    return fam


@pytest.fixture(scope="session")
def family_s3():
    fam = search_ptc(1, 3, target_eps=8.0 / 27.0, budget=120, seed=1)
    assert fam.met_target
    return fam


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def clear_job_caches():
    """Empty the per-job caches (``protocols._attack_pieces`` and
    ``_transfer``, both keyed by (family, attack) alone) before the test,
    after it, and whenever the test calls the function this yields. A test
    that patches ``CHUNK_ELEMENTS`` or ``_attack_pieces`` needs it: it would
    otherwise read a transfer cut or built before its patch, or leave one
    built under its patch to the tests after it."""

    def clear():
        _attack_pieces.cache_clear()
        _transfer.cache_clear()

    clear()
    yield clear
    clear()
