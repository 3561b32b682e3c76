"""Distribution generator tests."""

from collections import Counter

import pytest

from repro.bench.zipfian import UniformGenerator, ZipfianGenerator


def test_uniform_stays_in_domain():
    gen = UniformGenerator(10, seed=1)
    samples = [gen.next() for _ in range(1000)]
    assert all(0 <= s < 10 for s in samples)
    assert len(set(samples)) == 10


def test_uniform_rejects_empty_domain():
    with pytest.raises(ValueError):
        UniformGenerator(0)


def test_zipfian_stays_in_domain():
    gen = ZipfianGenerator(100, seed=2)
    assert all(0 <= gen.next() < 100 for _ in range(2000))


def test_zipfian_is_skewed():
    gen = ZipfianGenerator(1000, theta=1.0, seed=3, scrambled=False)
    counts = Counter(gen.next() for _ in range(20_000))
    top = counts.most_common(10)
    top_share = sum(c for _, c in top) / 20_000
    assert top_share > 0.3  # heavy head
    assert counts[0] == counts.most_common(1)[0][1]  # rank 0 is hottest


def test_unscrambled_ranks_monotone_popularity():
    gen = ZipfianGenerator(100, theta=1.0, seed=4, scrambled=False)
    counts = Counter(gen.next() for _ in range(50_000))
    assert counts[0] > counts[50] > counts.get(99, 0)


def test_scrambled_spreads_hot_keys():
    plain = ZipfianGenerator(1000, seed=5, scrambled=False)
    scrambled = ZipfianGenerator(1000, seed=5, scrambled=True)
    hot_plain = Counter(plain.next() for _ in range(10_000)).most_common(1)[0][0]
    hot_scrambled = Counter(scrambled.next() for _ in range(10_000)).most_common(1)[0][0]
    assert hot_plain == 0
    assert hot_scrambled != 0  # hashed away from rank order


def test_deterministic_given_seed():
    a = ZipfianGenerator(500, seed=9)
    b = ZipfianGenerator(500, seed=9)
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


def test_theta_one_is_clamped_not_crashing():
    gen = ZipfianGenerator(100, theta=1.0)
    assert 0 <= gen.next() < 100


@pytest.mark.parametrize("n", [1, 2, 7, 100, 600, 1000, 1024, 4096])
def test_scramble_reaches_every_key(n):
    gen = ZipfianGenerator(n, seed=6)
    assert sorted(gen.key_for_rank(rank) for rank in range(n)) == list(range(n))
