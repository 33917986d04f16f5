import json

import numpy as np
import pytest
from scipy import stats

from fermicond.lattice import (Box, DisorderDistribution, DisorderSample,
                               DomainExceededError, LatticeSpec, bond_count,
                               canonical_bond)


def test_chain_l1():
    box = Box.cube(LatticeSpec(1, 1))
    assert box.sites == ((-1,), (0,), (1,))
    assert box.bonds == (((-1,), (0,)), ((0,), (1,)))


def test_square_l1_counts():
    box = Box.cube(LatticeSpec(2, 1))
    assert len(box.sites) == 9
    assert len(box.bonds) == 12


def test_cube_l2_sites():
    assert len(Box.cube(LatticeSpec(3, 2))) == 125


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_bond_count_vs_enumeration(d, l):
    if d == 3 and l == 3:
        pytest.skip("343-site box is slow to enumerate in CI")
    box = Box.cube(LatticeSpec(d, l))
    assert len(box.bonds) == bond_count(d, l)
    # every bond joins sites at Euclidean distance exactly 1
    for x, y in box.bonds:
        assert sum((a - b) ** 2 for a, b in zip(x, y)) == 1


def test_rect_and_chain_shapes():
    assert len(Box.chain(6)) == 6
    assert len(Box.rect((2, 3))) == 6
    assert len(Box.rect((2, 3)).bonds) == 3 + 4  # 3 rungs + 2x2 rail bonds
    # brute count for the 2x3 box
    box = Box.rect((2, 3))
    brute = sum(1 for i, x in enumerate(box.sites) for y in box.sites[i + 1:]
                if sum((a - b) ** 2 for a, b in zip(x, y)) == 1)
    assert len(box.bonds) == brute


def test_invalid_spec():
    with pytest.raises(ValueError):
        LatticeSpec(0, 1)
    with pytest.raises(ValueError):
        LatticeSpec(1, -1)


def test_deterministic_zero():
    s = DisorderDistribution("deterministic-zero", 1).sample(Box.cube(LatticeSpec(1, 2)))
    assert all(v == 0.0 for v in s.omega1.values())
    assert all(z == 0 for z in s.omega2.values())


def test_sampling_deterministic():
    spec = LatticeSpec(2, 2)
    d = DisorderDistribution("iid-uniform", 777)
    s1, s2 = d.sample(Box.cube(spec)), d.sample(Box.cube(spec))
    assert s1.omega1 == s2.omega1
    assert s1.omega2 == s2.omega2
    s3 = DisorderDistribution("iid-uniform", 778).sample(Box.cube(spec))
    assert s1.omega1 != s3.omega1


def test_sample_ranges_and_lln():
    box = Box.chain(10_000)
    s = DisorderDistribution("iid-uniform", 5).sample(box)
    s.check()
    vals = np.array(list(s.omega1.values()))
    # uniform[-1,1] oracle: mean 0 within 3/sqrt(N)
    assert abs(vals.mean()) < 3.0 / np.sqrt(len(vals))
    z = np.array(list(s.omega2.values()))
    assert np.all(np.abs(z) <= 1.0 + 1e-12)


def test_real_hopping_kind():
    s = DisorderDistribution("iid-real-hopping", 9).sample(Box.chain(50))
    assert s.is_real()
    vals = np.array([z.real for z in s.omega2.values()])
    assert vals.min() >= -1.0 and vals.max() <= 1.0


def test_unknown_kind():
    with pytest.raises(ValueError):
        DisorderDistribution("gaussian", 1)


def test_translate_identity_and_inverse():
    s = DisorderDistribution("iid-uniform", 3).sample(Box.chain(7))
    assert s.translate((0,)).omega1 == s.omega1
    back = s.translate((2,)).translate((-2,))
    assert back.omega1 == s.omega1
    assert back.omega2 == s.omega2


def test_translate_spike():
    box = Box.chain(5)
    o1 = {x: 0.0 for x in box.sites}
    o1[(0,)] = 1.0
    s = DisorderSample(box, o1, {})
    t = s.translate((1,))
    assert t.omega1[(-1,)] == 1.0
    assert all(v == 0.0 for x, v in t.omega1.items() if x != (-1,))


def test_translate_values_match_source():
    s = DisorderDistribution("iid-uniform", 3).sample(Box.chain(7))
    t = s.translate((1,))
    for y in t.box.sites:
        assert t.omega1[y] == s.omega1[(y[0] + 1,)]


def test_restrict_domain_exceeded():
    s = DisorderDistribution("iid-uniform", 3).sample(Box.chain(5))
    with pytest.raises(DomainExceededError):
        s.restrict(Box.chain(7))
    small = s.restrict(Box.chain(3))
    assert len(small.box) == 3


def test_translation_invariance_of_law():
    # translate of a fresh sample is distributed like a fresh sample
    box = Box.chain(10_000)
    a = DisorderDistribution("iid-uniform", 11).sample(box).translate((3,))
    b = DisorderDistribution("iid-uniform", 12).sample(box)
    ks = stats.ks_2samp(np.array(list(a.omega1.values())),
                        np.array(list(b.omega1.values())))
    assert ks.pvalue > 0.01


def test_conjugate_involution_and_fixed_points():
    s = DisorderDistribution("iid-uniform", 13).sample(Box.chain(20))
    assert s.conjugate().conjugate().omega2 == s.omega2
    r = DisorderDistribution("iid-real-hopping", 13).sample(Box.chain(20))
    assert r.conjugate().omega2 == r.omega2
    box = Box.chain(2)
    b = box.bonds[0]
    s2 = DisorderSample(box, {}, {b: 1j})
    assert s2.conjugate().omega2[b] == -1j


def test_conjugate_preserves_law():
    s = DisorderDistribution("iid-uniform", 17).sample(Box.chain(5000))
    z = np.array(list(s.omega2.values()))
    zb = np.conj(z)
    # moments agree within MC error (exactly for |.| and re, sign flip for im)
    assert abs(np.abs(z).mean() - np.abs(zb).mean()) == 0.0
    assert abs(z.real.mean() - zb.real.mean()) == 0.0
    assert abs(z.imag.mean() + zb.imag.mean()) == 0.0
    ks = stats.ks_2samp(z.imag, zb.imag)
    assert ks.pvalue > 0.01


def test_json_round_trip_schema():
    s = DisorderDistribution("iid-uniform", 19).sample(Box.chain(4))
    text = s.to_json()
    payload = json.loads(text)
    assert set(payload) == {"sites", "bonds"}
    assert payload["sites"][0][0] == [-1]
    back = DisorderSample.from_json(text)
    assert back.omega1 == s.omega1
    assert back.omega2 == s.omega2


def test_derived_streams_distinct():
    d = DisorderDistribution("iid-uniform", 100)
    s0 = d.derived(0).sample(Box.chain(10))
    s1 = d.derived(1).sample(Box.chain(10))
    assert s0.omega1 != s1.omega1
    # deterministic per index
    assert d.derived(1).sample(Box.chain(10)).omega1 == s1.omega1


def test_bond_canonicalization():
    assert canonical_bond((1,), (0,)) == ((0,), (1,))
    box = Box.chain(3)
    assert box.has_bond((1,), (0,))
    assert not box.has_bond((-1,), (1,))


GOLDEN_SAMPLE = (
    '{"sites": [[[-1], 0.7590473634426973], [[0], -0.6042299245929472], '
    '[[1], 0.3063941437234976]], "bonds": [[[[-1], [0]], '
    '[-0.0678064072416454, -0.629478945589399]], [[[0], [1]], '
    '[0.30769151181168514, -0.48893831181157665]]]}'
)


def test_golden_serialization():
    # frozen realization pins the RNG stream-splitting rule across platforms
    s = DisorderDistribution("iid-uniform", 424242).sample(Box.chain(3))
    assert s.to_json() == GOLDEN_SAMPLE
