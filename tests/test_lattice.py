import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    DomainMismatchError,
    LatticeDomain,
    flatten,
    is_shift_orthogonal,
    project_sso,
    random_tensor,
    shift,
    unflatten,
)
from util import direct_gram_shift, gram_shift, small_domains


class TestDomain:
    def test_size_and_shape(self):
        dom = LatticeDomain((2, 3), (4, 5))
        assert dom.d == 2
        assert dom.shift_count == 6
        assert dom.depth_count == 20
        assert dom.size == 120
        assert dom.grid_shape == (4, 5, 2, 3)
        assert dom.shift_axes == (2, 3)

    @pytest.mark.parametrize(
        "shifts,depths",
        [((), ()), ((1, 1, 1, 1), (1, 1, 1, 1)), ((0,), (1,)), ((2,), (0,))],
    )
    def test_invalid_domains(self, shifts, depths):
        with pytest.raises(ValueError):
            LatticeDomain(shifts, depths)

    def test_tensor_validation(self):
        dom = LatticeDomain((2,), (2,))
        with pytest.raises(ValueError):
            CoeffTensor(dom, np.zeros(3))
        with pytest.raises(ValueError):
            CoeffTensor(dom, np.array([1.0, np.nan, 0.0, 0.0]))


class TestFlatten:
    def test_stated_examples(self):
        dom = LatticeDomain((2,), (1,))
        assert flatten(dom, (1,), (0,)) == 0
        assert flatten(dom, (1,), (1,)) == 1
        dom2 = LatticeDomain((2,), (2,))
        assert flatten(dom2, (2,), (0,)) == 2

    def test_two_dimensional_round_trip(self):
        dom = LatticeDomain((2, 2), (2, 2))
        seen = set()
        for flat in range(dom.size):
            depth_idx, shift_idx = unflatten(dom, flat)
            assert flatten(dom, depth_idx, shift_idx) == flat
            seen.add((depth_idx, shift_idx))
        assert len(seen) == dom.size

    @given(small_domains())
    @settings(max_examples=40, deadline=None)
    def test_bijection(self, dom):
        flats = [
            flatten(dom, *unflatten(dom, flat)) for flat in range(dom.size)
        ]
        assert flats == list(range(dom.size))

    def test_out_of_range(self):
        dom = LatticeDomain((2,), (2,))
        with pytest.raises(IndexError):
            flatten(dom, (0,), (0,))
        with pytest.raises(IndexError):
            flatten(dom, (3,), (0,))
        with pytest.raises(IndexError):
            flatten(dom, (1,), (2,))
        with pytest.raises(IndexError):
            unflatten(dom, dom.size)


class TestShift:
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(0)
        dom = LatticeDomain((3, 2), (2, 1))
        v = random_tensor(dom, rng)
        assert np.array_equal(shift(v, (0, 0)).data, v.data)

    def test_cyclic_rotation(self):
        dom = LatticeDomain((3,), (1,))
        v = CoeffTensor(dom, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(shift(v, (1,)).data, [3.0, 1.0, 2.0])

    def test_group_inverse(self):
        rng = np.random.default_rng(1)
        dom = LatticeDomain((4, 3), (2, 2))
        v = random_tensor(dom, rng)
        s = (3, 2)
        inverse = tuple((n - c) % n for c, n in zip(s, dom.shifts))
        assert np.allclose(shift(shift(v, s), inverse).data, v.data)

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 2)),
        st.tuples(st.integers(0, 4), st.integers(0, 2)),
    )
    @settings(max_examples=30, deadline=None)
    def test_group_action(self, s, t):
        rng = np.random.default_rng(2)
        dom = LatticeDomain((5, 3), (2, 2))
        v = random_tensor(dom, rng)
        composed = tuple((a + b) % n for a, b, n in zip(s, t, dom.shifts))
        assert np.allclose(
            shift(shift(v, s), t).data, shift(v, composed).data, atol=1e-14
        )

    def test_range_check(self):
        dom = LatticeDomain((3,), (1,))
        v = CoeffTensor.zeros(dom)
        with pytest.raises(IndexError):
            shift(v, (3,))


class TestGramShift:
    def test_zero_tensor(self):
        dom = LatticeDomain((2, 2), (2, 1))
        z = CoeffTensor.zeros(dom)
        assert np.allclose(gram_shift(z, z), 0.0)

    def test_delta_gives_identity(self):
        dom = LatticeDomain((2,), (1,))
        delta = CoeffTensor(dom, np.array([1.0, 0.0]))
        assert np.allclose(gram_shift(delta, delta), np.eye(2), atol=1e-15)

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(3)
        for shifts, depths in (((3,), (2,)), ((2, 2), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            g = random_tensor(dom, rng)
            f = random_tensor(dom, rng)
            assert np.allclose(
                gram_shift(g, f), direct_gram_shift(g, f), atol=1e-12
            )

    def test_hermitian_psd(self):
        rng = np.random.default_rng(4)
        dom = LatticeDomain((4,), (3,))
        f = random_tensor(dom, rng)
        gram = gram_shift(f, f)
        assert np.allclose(gram, gram.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_sso_member_gives_identity(self):
        rng = np.random.default_rng(5)
        dom = LatticeDomain((4,), (3,))
        member = project_sso(random_tensor(dom, rng))
        assert is_shift_orthogonal(member, 1e-10).is_member
        gram = gram_shift(member, member)
        assert np.abs(gram - np.eye(dom.shift_count)).max() <= 1e-12

    def test_domain_mismatch(self):
        a = CoeffTensor.zeros(LatticeDomain((2,), (2,)))
        b = CoeffTensor.zeros(LatticeDomain((2,), (3,)))
        with pytest.raises(DomainMismatchError):
            gram_shift(a, b)

    def test_shift_inner_matches_gram_entry(self):
        from shiftortho import shift_inner

        rng = np.random.default_rng(6)
        dom = LatticeDomain((4, 2), (2, 2))
        g = random_tensor(dom, rng)
        f = random_tensor(dom, rng)
        vectors = list(dom.shift_vectors())
        gram = gram_shift(g, f)
        for col, s in enumerate(vectors):
            assert abs(shift_inner(g, f, s) - gram[0, col]) <= 1e-12
        direct = np.sum(np.conj(g.grid) * np.roll(f.grid, (1, 1), axis=(2, 3)))
        assert abs(shift_inner(g, f, (1, 1)) - direct) <= 1e-12
