import pytest

from nilcube.cubespace import GroupCubespace, abelian_Dk
from nilcube.groups import CyclicProduct, make_heisenberg, subgroup_closure


@pytest.fixture(scope="session")
def heis2():
    G, filt = make_heisenberg(2)
    return G, filt


@pytest.fixture(scope="session")
def heis3():
    G, filt = make_heisenberg(3)
    return G, filt


@pytest.fixture(scope="session")
def heis2_space(heis2):
    _G, filt = heis2
    X = GroupCubespace(filt)
    X.cubes(3)  # warm the cube-set cache once for the whole session
    return X


@pytest.fixture(scope="session")
def d1z2():
    return abelian_Dk(CyclicProduct((2,)), 1)


@pytest.fixture(scope="session")
def d1z3():
    return abelian_Dk(CyclicProduct((3,)), 1)


@pytest.fixture(scope="session")
def d2z2():
    return abelian_Dk(CyclicProduct((2,)), 2)


@pytest.fixture(scope="session")
def model_extensions(d1z2):
    """M(rho0) and M(rho1) over D_1(Z/2) for the two degree-2 cocycles in
    Z/2, the zero one first: the first splits, the second does not."""
    from nilcube import cohomology as coh
    from nilcube.groups import FiniteAbelianGroup

    rhos = coh.enumerate_cocycles(d1z2, 2, FiniteAbelianGroup((2,)))
    assert [any(rho.table.values()) for rho in rhos] == [False, True]
    return [coh.build_extension(rho) for rho in rhos]


@pytest.fixture(scope="session")
def heis2_tower(heis2_space):
    from nilcube.translations import translation_tower

    return translation_tower(heis2_space)


@pytest.fixture(scope="session")
def coset_space(heis2):
    from nilcube.cubespace import CosetCubespace

    G, filt = heis2
    Gamma = subgroup_closure(G, [G.index_of((1, 0, 0))])
    return CosetCubespace(filt, Gamma)
