import numpy as np
import pytest

from heppcat import TruthModel, generate, haar_orthonormal, rng_stream


def small_truth(d=6, k=2, sizes=(30, 20), v=(0.5, 2.0)):
    U = haar_orthonormal(d, k, 7)
    return TruthModel(U=U, lam=np.array([4.0, 1.0]), v=np.array(v), group_sizes=sizes)


def test_generate_is_reproducible():
    t = small_truth()
    a = generate(t, seed=11, trial=3)
    b = generate(t, seed=11, trial=3)
    for x, y in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(x, y)


def test_streams_differ_across_keys():
    t = small_truth()
    base = generate(t, seed=11, trial=3).blocks[0]
    assert not np.array_equal(base, generate(t, seed=12, trial=3).blocks[0])
    assert not np.array_equal(base, generate(t, seed=11, trial=4).blocks[0])


def test_groups_are_insensitive_to_each_other():
    # group 2's draw does not depend on group 1's size
    t_a = small_truth(sizes=(30, 20))
    t_b = small_truth(sizes=(5, 20))
    a = generate(t_a, seed=42)
    b = generate(t_b, seed=42)
    np.testing.assert_array_equal(a.blocks[1], b.blocks[1])


def test_rng_stream_key_validation():
    rng_stream(1, 2**16 - 1, 2**32 - 1, 2**16 - 1)
    for bad in ((2**16, 0, 0), (0, 2**32, 0), (0, 0, 2**16), (-1, 0, 0)):
        with pytest.raises(ValueError):
            rng_stream(1, *bad)


def test_rng_stream_rejects_non_whole_keys():
    # a truncated 0.5 would alias seed 0, and 1.7 stream index 1
    for args in ((0.5,), (-1.5,), (0, 1.7), (0, 0, 2.5), (0, 0, 0, 0.5), ("3",)):
        with pytest.raises(ValueError, match="must be a whole number"):
            rng_stream(*args)


@pytest.mark.parametrize("three", [3, np.int64(3), 3.0], ids=["int", "int64", "float"])
def test_rng_stream_whole_keys_draw_the_philox_stream(three):
    # 10**400 overflows a float: an integer seed must not pass through one
    for seed, a, b, c in ((three, 0, 0, 0), (5, three, three, three), (-three, 1, 2, three), (10**400, three, 0, 0)):
        key = np.array([int(seed) % 2**64, (int(a) << 48) | (int(b) << 16) | int(c)], dtype=np.uint64)
        want = np.random.default_rng(np.random.Philox(key=key)).random(3)
        np.testing.assert_array_equal(rng_stream(seed, a, b, c).random(3), want)


def test_rng_stream_distinct_words():
    # nearby keys must not collide
    x = rng_stream(5, 0, 1, 0).standard_normal(4)
    y = rng_stream(5, 0, 0, 1).standard_normal(4)
    z = rng_stream(5, 1, 0, 0).standard_normal(4)
    assert not np.array_equal(x, y) and not np.array_equal(x, z) and not np.array_equal(y, z)


def test_empirical_covariance_matches_model():
    d, k = 10, 3
    t = TruthModel(
        U=haar_orthonormal(d, k, 3),
        lam=np.array([4.0, 2.0, 1.0]),
        v=np.array([0.8]),
        group_sizes=(100_000,),
    )
    Y = generate(t, seed=0).blocks[0]
    S = Y @ Y.T / Y.shape[1]
    C = t.F @ t.F.T + 0.8 * np.eye(d)
    assert np.abs(S - C).max() <= 0.05


def test_feature_block_noise_profile():
    d = 40
    t = TruthModel(
        U=haar_orthonormal(d, 2, 1),
        lam=np.zeros(2),  # pure noise isolates the variance profile
        v=np.array([1.0]),
        group_sizes=(50_000,),
        feature_blocks=[[(10, 4.0), (30, 0.25)]],
    )
    Y = generate(t, seed=8).blocks[0]
    var = (Y**2).mean(axis=1)
    np.testing.assert_allclose(var[:10], 4.0, rtol=0.05)
    np.testing.assert_allclose(var[10:], 0.25, rtol=0.05)


def test_feature_block_validation():
    U = haar_orthonormal(4, 1, 0)
    with pytest.raises(ValueError):
        TruthModel(U=U, lam=[1.0], v=[1.0], group_sizes=(5,), feature_blocks=[[(3, 1.0)]])
    with pytest.raises(ValueError):
        TruthModel(U=U, lam=[1.0], v=[1.0], group_sizes=(5,), feature_blocks=[[(4, -1.0)]])
    with pytest.raises(ValueError):
        TruthModel(U=U, lam=[1.0], v=[1.0, 2.0], group_sizes=(5,))


def test_haar_basis_properties():
    U = haar_orthonormal(9, 4, 123)
    assert U.shape == (9, 4)
    np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        haar_orthonormal(3, 4, 0)


def test_haar_is_rotation_invariant_on_average():
    # E[u u'] = I / d for the first column under the invariant measure
    d, reps = 3, 10_000
    acc = np.zeros((d, d))
    rng = np.random.default_rng(99)
    for _ in range(reps):
        u = haar_orthonormal(d, 1, rng)[:, 0]
        acc += np.outer(u, u)
    acc /= reps
    assert np.abs(acc - np.eye(d) / d).max() <= 0.02


def test_truth_model_properties():
    t = small_truth()
    assert (t.d, t.k, t.L) == (6, 2, 2)
    np.testing.assert_allclose(t.F, t.U * np.sqrt(t.lam))
    np.testing.assert_allclose(t.noise_std(1), np.sqrt(2.0))
