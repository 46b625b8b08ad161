import pytest


@pytest.fixture
def cold_matrix_caches():
    """Empty the Picard-matrix caches before and after the test, so that
    the test builds its matrices from the generator permutations and
    leaves nothing it built behind."""
    import dp2.galois0 as g0
    caches = (g0.matrix_of, g0._minus_one_rows, g0._traces,
              g0._curve_indices, g0._generator_perms, g0._difference_basis,
              g0._stabilizers)
    for f in caches:
        f.cache_clear()
    yield g0
    for f in caches:
        f.cache_clear()
