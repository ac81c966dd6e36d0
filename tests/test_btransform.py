import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftortho import CoeffTensor, LatticeDomain, b_inverse, b_transform, random_tensor
from shiftortho import btransform
from util import direct_b_inverse, direct_b_transform, random_real_tensor


def test_zero_maps_to_zero():
    dom = LatticeDomain((3, 2), (2, 2))
    z = CoeffTensor.zeros(dom)
    assert np.allclose(b_transform(z).data, 0.0)
    assert np.allclose(b_inverse(z).data, 0.0)


def test_forward_example_1d():
    dom = LatticeDomain((2,), (1,))
    v = CoeffTensor(dom, np.array([1.0, 0.0]))
    expected = direct_b_transform(v)
    assert np.allclose(expected, [1.0, 1.0])
    assert np.allclose(b_transform(v).data, expected, atol=1e-14)


def test_forward_example_2d_delta():
    dom = LatticeDomain((2, 2), (1, 1))
    v = CoeffTensor.zeros(dom)
    v.data[0] = 1.0
    expected = direct_b_transform(v)
    assert np.allclose(expected, np.ones(4))
    assert np.allclose(b_transform(v).data, expected, atol=1e-14)


def test_inverse_example_1d():
    dom = LatticeDomain((2,), (1,))
    p = CoeffTensor(dom, np.array([1.0, 1.0]))
    expected = direct_b_inverse(p)
    assert np.allclose(expected, [1.0, 0.0])
    assert np.allclose(b_inverse(p).data, expected, atol=1e-14)


@pytest.mark.parametrize(
    "shifts,depths",
    [((5,), (3,)), ((4, 3), (2, 2)), ((2, 2, 2), (2, 2, 1)), ((7,), (6,))],
)
def test_matches_direct_summation(shifts, depths):
    rng = np.random.default_rng(0)
    dom = LatticeDomain(shifts, depths)
    v = random_tensor(dom, rng)
    assert np.allclose(b_transform(v).data, direct_b_transform(v), atol=1e-11)
    assert np.allclose(b_inverse(v).data, direct_b_inverse(v), atol=1e-11)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip(shifts, depths, seed):
    dom = LatticeDomain((shifts,), (depths,))
    rng = np.random.default_rng(seed)
    v = random_tensor(dom, rng)
    scale = np.abs(v.data).max()
    assert np.abs(b_inverse(b_transform(v)).data - v.data).max() <= 1e-12 * scale
    assert np.abs(b_transform(b_inverse(v)).data - v.data).max() <= 1e-12 * scale


def test_round_trip_all_small_domains():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for shifts in ((2,), (3,), (8,), (2, 2), (4, 3))[: 5 if d == 2 else 3]:
            if len(shifts) != d:
                continue
            for depths in ((1,) * d, (2,) * d, (4,) * d):
                dom = LatticeDomain(shifts, depths)
                if dom.size > 1024:
                    continue
                v = random_tensor(dom, rng)
                back = b_inverse(b_transform(v))
                assert np.abs(back.data - v.data).max() <= 1e-12


def test_scaled_parseval():
    rng = np.random.default_rng(8)
    for shifts, depths in (((6,), (4,)), ((3, 4), (2, 3))):
        dom = LatticeDomain(shifts, depths)
        a = random_tensor(dom, rng)
        b = random_tensor(dom, rng)
        lhs = np.linalg.norm(a.data - b.data) ** 2
        rhs = (
            np.linalg.norm(b_transform(a).data - b_transform(b).data) ** 2
            / dom.shift_count
        )
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_linearity():
    rng = np.random.default_rng(9)
    dom = LatticeDomain((5, 2), (3, 2))
    a = random_tensor(dom, rng)
    b = random_tensor(dom, rng)
    alpha, beta = 0.7 - 1.2j, -2.3 + 0.4j
    combined = CoeffTensor(dom, alpha * a.data + beta * b.data)
    direct = alpha * b_transform(a).data + beta * b_transform(b).data
    assert np.abs(b_transform(combined).data - direct).max() <= 1e-12 * np.abs(direct).max()


def _pass_parts(workers, shape, axis):
    """Parts of a pass along ``axis`` of a ``(depth_count,) + shifts`` array."""
    return min(workers, max((n for k, n in enumerate(shape) if k != axis), default=1))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "shifts, depths",
    [((37,), (1,)), ((37,), (2,)), ((37,), (3,)),
     ((6, 5), (1, 1)), ((6, 5), (2, 1)), ((6, 5), (1, 3)),
     ((4, 3, 5), (1, 1, 1)), ((4, 3, 5), (1, 2, 1)), ((4, 3, 5), (3, 1, 1))],
)
def test_split_passes_bitwise_equal_one_part(monkeypatch, shifts, depths, workers):
    # Depth slabs (unequal for 3 depths over 2 workers), parts of each pass
    # when there are fewer depths than workers, and no split for one 1-D
    # line all give the one-part result bit for bit.
    dom = LatticeDomain(shifts, depths)
    v = random_tensor(dom, np.random.default_rng(40))

    def run():
        return [b_transform(v).data, b_inverse(v).data,
                btransform._complex_transform(np.fft.fft, b_transform(v), in_place=True).data]

    whole = run()
    splits = []
    run_parts = btransform._run_parts

    def recording(body, parts):
        splits.append(len(parts))
        run_parts(body, parts)

    monkeypatch.setattr(btransform, "_run_parts", recording)
    monkeypatch.setattr(btransform, "_SPLIT_COEFFS", 1)
    monkeypatch.setattr(btransform, "_WORKERS", workers)
    for got, want in zip(run(), whole):
        assert np.array_equal(got, want)
    # depth slabs take every pass at once; otherwise each pass, last axis
    # first, splits along its longest other axis, the depth axis included
    per_transform = [workers] if dom.depth_count >= workers else [
        _pass_parts(workers, (dom.depth_count,) + shifts, axis + 1)
        for axis in reversed(range(dom.d))
    ]
    assert splits == 4 * per_transform


# Real tensors: the half-spectrum pair.  Shapes include odd last shift
# counts (no Nyquist plane) and last counts of 1 and 2.
HALF_SHAPES = [((5,), (3,)), ((8,), (2,)), ((1,), (4,)), ((2,), (3,)), ((9, 7), (3, 2)),
               ((4, 6), (1, 2)), ((6, 5, 8), (2, 1, 2)), ((3, 4, 1), (2, 2, 1))]


@pytest.mark.parametrize("shifts, depths", HALF_SHAPES)
def test_half_transform_is_conjugate_half_spectrum(shifts, depths):
    dom = LatticeDomain(shifts, depths)
    v = random_real_tensor(dom, np.random.default_rng(41))
    assert v.data.dtype == np.float64
    half = btransform._half_transform(v)
    full = b_transform(v).data.reshape((dom.depth_count,) + shifts)
    assert half.shape == full.shape[:-1] + (shifts[-1] // 2 + 1,)
    assert np.abs(half - full[..., : shifts[-1] // 2 + 1].conj()).max() <= 1e-12
    back = btransform._half_inverse(half, dom)
    assert back.data.dtype == np.float64
    assert np.abs(back.data - v.data).max() <= 1e-14


@pytest.mark.parametrize("shifts, depths", HALF_SHAPES)
def test_real_tensor_transforms_as_complex(shifts, depths):
    # b_transform and b_inverse of a real tensor are complex, bit for bit
    # those of the same values stored complex.
    dom = LatticeDomain(shifts, depths)
    v = random_real_tensor(dom, np.random.default_rng(42))
    stored_complex = CoeffTensor._trusted(dom, v.data.astype(np.complex128))
    for transform in (b_transform, b_inverse):
        got = transform(v).data
        assert got.dtype == np.complex128
        assert np.array_equal(got, transform(stored_complex).data)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "shifts, depths",
    [((37,), (1,)), ((37,), (3,)), ((6, 5), (1, 1)), ((6, 5), (1, 3)),
     ((4, 3, 5), (1, 1, 1)), ((4, 3, 6), (1, 2, 1)), ((4, 3, 5), (3, 1, 1))],
)
def test_half_pair_split_bitwise_equal_one_part(monkeypatch, shifts, depths, workers):
    # The half pair takes the same splits as the complex pair: depth
    # slabs, or parts of each pass along another shift axis.
    dom = LatticeDomain(shifts, depths)
    v = random_real_tensor(dom, np.random.default_rng(43))

    def run():
        half = btransform._half_transform(v)
        return [half.copy(), btransform._half_inverse(half, dom).data]

    whole = run()
    splits = []
    run_parts = btransform._run_parts

    def recording(body, parts):
        splits.append(len(parts))
        run_parts(body, parts)

    monkeypatch.setattr(btransform, "_run_parts", recording)
    monkeypatch.setattr(btransform, "_SPLIT_COEFFS", 1)
    monkeypatch.setattr(btransform, "_WORKERS", workers)
    for got, want in zip(run(), whole):
        assert np.array_equal(got, want)
    if dom.depth_count >= workers:
        assert splits == [workers, workers]
    else:
        # every pass but the real one runs on the half spectrum
        half = (dom.depth_count,) + shifts[:-1] + (shifts[-1] // 2 + 1,)
        full = (dom.depth_count,) + shifts
        forward = [_pass_parts(workers, full, dom.d)]
        forward += [_pass_parts(workers, half, axis) for axis in range(dom.d - 1, 0, -1)]
        inverse = [_pass_parts(workers, half, axis) for axis in range(1, dom.d + 1)]
        assert splits == forward + inverse
