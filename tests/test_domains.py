import json
import re

import numpy as np
import pytest

from hartogs import domains, kernels, mc
from hartogs.domains import HartogsDomainSpec, MapFamily


def standard2():
    return HartogsDomainSpec.standard(2, 1)


def two_block_affine4():
    return HartogsDomainSpec(4, (
        (1, MapFamily.affine([[2.0]], [-1.0])),
        (2, MapFamily.affine([[1.0, 0.5], [0.0, 1.0]])),
    ))


class TestMembership:
    def test_identity_chain(self):
        spec = standard2()
        assert domains.contains(spec, [0.3, 0.5]) is True
        assert domains.contains(spec, [0.5, 0.3]) is False

    def test_boundary_is_excluded(self):
        spec = standard2()
        assert not domains.contains(spec, [0.5, 1.0])
        assert not domains.contains(spec, [0.5, 0.5])
        assert not domains.contains(spec, [0.0, 0.0])

    def test_two_block_affine_example(self):
        spec = two_block_affine4()
        assert domains.contains(spec, [0.5, 0.0, 0.0, 0.5]) is True
        # first block violates: |2*0.9 - 1| = 0.8 > 0.5
        assert domains.contains(spec, [0.9, 0.0, 0.0, 0.5]) is False

    def test_vectorized(self):
        spec = standard2()
        pts = np.array([[0.3, 0.5], [0.5, 0.3], [0.1, 0.9]], dtype=complex)
        np.testing.assert_array_equal(domains.contains(spec, pts),
                                      [True, False, True])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            domains.contains(standard2(), [0.1, 0.2, 0.3])


class TestMapFamilies:
    def test_affine_rejects_singular(self):
        with pytest.raises(ValueError):
            MapFamily.affine([[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("fam", [
        MapFamily.identity(2),
        MapFamily.affine([[2.0]], [-1.0]),
        MapFamily.affine([[1.0, 0.5], [0.0, 1.0]]),
        MapFamily.rational_example(),
    ])
    def test_value_inverse_roundtrip(self, fam):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 2 * fam.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        u = (x * rng.random((200, 1)) ** (1 / (2 * fam.dim))).view(complex)
        back = fam.value(fam.inverse(u))
        assert np.max(np.abs(back - u)) < 1e-12

    _FLOOR_FAMILIES = [
        MapFamily.identity(1),
        MapFamily.identity(3),
        MapFamily.affine([[2.0]], [-1.0]),
        MapFamily.affine([[1.0, 0.5], [0.0, 1.0]]),
        MapFamily.affine([[0.7 + 0.2j, -0.4j, 0.1], [0.3, 1.1 - 0.5j, 0.2j], [0.0, 0.6, -0.9 + 0.3j]],
                         [0.5 - 0.2j, 0.1j, -0.3]),
        MapFamily.rational_example(),
    ]

    @pytest.mark.parametrize("fam", _FLOOR_FAMILIES)
    def test_image_norm_sq_floor_is_a_lower_bound(self, fam):
        rng = np.random.default_rng(3)
        radii = 1.3 * fam.coordinate_radii()
        z = radii * np.sqrt(rng.random((20_000, fam.dim))) * np.exp(
            2j * np.pi * rng.random((20_000, fam.dim)))
        # points whose image is near 0 (the floor's differences cancel there)
        near = fam.inverse(1e-9 * (rng.normal(size=(200, fam.dim))
                                   + 1j * rng.normal(size=(200, fam.dim))))
        z = np.concatenate([z, near, np.zeros((1, fam.dim))])
        floor = fam.image_norm_sq_floor(z.real ** 2 + z.imag ** 2)
        v = fam.value(z).view(float)
        exact = np.einsum("ij,ij->i", v, v)
        assert floor.shape == exact.shape
        assert np.all(floor >= 0.0)
        assert np.all(floor <= exact * (1.0 + 1e-12))
        if fam.is_identity:
            np.testing.assert_allclose(floor, exact, rtol=1e-15, atol=0)
        else:
            # the floor is not trivial: it is positive on most of the box
            assert np.mean(floor > 0.0) > 0.5

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("fam", _FLOOR_FAMILIES[3:5], ids=["2x2", "3x3"])
    def test_affine_maps_match_matmul(self, fam, shape):
        # the reference is the matrix product; the bound is relative to the
        # sum of the term magnitudes, |A| |z| + |b|, entry by entry
        a, b = np.array(fam.matrix), np.array(fam.shift)
        inv = np.linalg.inv(a)
        rng = np.random.default_rng(12)
        z = rng.normal(size=shape + (fam.dim,)) + 1j * rng.normal(size=shape + (fam.dim,))
        for got, ref, scale in (
                (fam.value(z), z @ a.T + b, np.abs(z) @ np.abs(a).T + np.abs(b)),
                (fam.inverse(z), (z - b) @ inv.T, np.abs(z - b) @ np.abs(inv).T)):
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-15 * scale)

    def test_rational_pole_raises(self):
        fam = MapFamily.rational_example()
        with pytest.raises(ZeroDivisionError):
            fam.value(np.array([1.0, 10.0], dtype=complex))

    def test_rational_inverse_formula(self):
        fam = MapFamily.rational_example()
        z = np.array([0.25 + 0.1j, -0.3 + 0.05j])
        w = fam.value(z)
        assert np.allclose(fam.inverse(w), z, atol=1e-14)

    @pytest.mark.parametrize("fam", [MapFamily.identity(2), MapFamily.affine([[2.0]], [-1.0]),
                                     MapFamily.affine([[1.0, 0.5], [0.0, 1.0]]),
                                     MapFamily.rational_example()],
                             ids=["identity2", "affine1", "affine2", "rational"])
    def test_every_map_checks_the_block_dimension(self, fam):
        # jacobian_det took any length: the rational block gave -0.306 from a
        # 3-vector and an IndexError from a 1-vector, the affine block a value
        shapes = [(), (fam.dim + 1,), (4, fam.dim + 1)]
        if fam.dim > 1:
            shapes.append((fam.dim - 1,))
        for shape in shapes:
            z = np.full(shape, 0.1 + 0.05j)
            message = (f"point has length {shape[-1]}, expected {fam.dim}" if shape
                       else f"point has no coordinate axis, expected length {fam.dim}")
            for method in (fam.value, fam.inverse, fam.jacobian_det):
                with pytest.raises(ValueError, match=re.escape(message)):
                    method(z)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.1, np.nan),
                                     complex(np.inf, 0.0), complex(0.0, -np.inf)],
                             ids=["nan-re", "nan-im", "inf", "-inf-im"])
    @pytest.mark.parametrize("fam", [MapFamily.identity(2),
                                     MapFamily.affine([[1.0, 0.5], [0.0, 1.0]], [0.1, 0.0]),
                                     MapFamily.rational_example()],
                             ids=["identity", "affine", "rational"])
    def test_every_map_rejects_non_finite_points(self, fam, bad):
        # the rational jacobian_det gave -0.303 at [nan, 0.1] and warned at
        # [0.1, nan]; every map now refuses as `_check_point` does
        for column in range(fam.dim):
            batch = np.full((3, fam.dim), 0.1 + 0.05j)
            batch[1, column] = bad
            for z in (batch, batch[1], batch[1].tolist()):
                for method in (fam.value, fam.inverse, fam.jacobian_det):
                    with pytest.raises(ValueError, match="point has non-finite coordinates"):
                        method(z)

    @pytest.mark.parametrize("fam", [MapFamily.identity(2), MapFamily.affine([[2.0]], [-1.0]),
                                     MapFamily.rational_example()])
    def test_jacobian_det_keeps_the_batch_shape(self, fam):
        z = np.full((4, 3, fam.dim), 0.1 + 0.05j)
        assert fam.jacobian_det(z).shape == (4, 3)
        assert fam.jacobian_det(z[0, 0]).shape == ()


class TestQuotientChart:
    def test_forward_example(self):
        w = domains.to_product_model(2, 1, [0.3, 0.5])
        assert np.allclose(w, [0.6, 0.5])

    def test_inverse_example(self):
        z = domains.from_product_model(3, 1, [0.2, 0.5, 0.5])
        assert np.allclose(z, [0.05, 0.25, 0.5])

    def test_roundtrip_random(self):
        spec = HartogsDomainSpec.standard(3, 1)
        w = domains.sample_product_model(spec, 100, seed=5)
        z = domains.from_product_model(3, 1, w)
        back = domains.to_product_model(3, 1, z)
        assert np.max(np.abs(back - w)) < 1e-12
        again = domains.from_product_model(3, 1, back)
        assert np.max(np.abs(again - z)) < 1e-12

    @pytest.mark.parametrize("shape", [(), (500,), (7, 9)])
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (6, 2)])
    def test_suffix_products_match_cumprod(self, n, k, shape):
        def cumprod_form(w):
            z = np.empty_like(w)
            suffix = np.cumprod(w[..., :k - n - 1:-1], axis=-1)[..., ::-1]
            z[..., k:] = suffix
            z[..., :k] = w[..., :k] * suffix[..., 0][..., None]
            return z

        rng = np.random.default_rng(n * 10 + k)
        w = 0.9 * rng.random(shape + (n,)) * np.exp(2j * np.pi * rng.random(shape + (n,)))
        got = domains.from_product_model(n, k, w)
        want = cumprod_form(w)
        if n - k <= 2:
            # chains of 1 or 2 coordinates: the same products in the same order
            assert got.tobytes() == want.tobytes()
        else:
            # wider chains: numpy's cumprod switches to another complex
            # multiply kernel from the third element on, which rounds
            # differently by up to an ulp or so per product
            np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_zero_chain_coordinate_raises(self):
        with pytest.raises(ZeroDivisionError):
            domains.to_product_model(2, 1, [0.3, 0.0])

    def test_jacobian_det_examples(self):
        assert domains.jacobian_det_from_product(3, 1, [1.0, 1.0, 1.0]) == 1.0
        assert domains.jacobian_det_from_product(2, 1, [0.3, 0.5]) == pytest.approx(0.5)
        assert domains.jacobian_det_from_product(3, 1, [0.2, 0.5, 0.5]) == pytest.approx(0.125)

    def test_jacobian_det_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            for k in range(1, n):
                w = rng.uniform(0.05, 1.0, (10, n)) * np.exp(2j * np.pi * rng.random((10, n)))
                got = domains.jacobian_det_from_product(n, k, w)
                for row, g in zip(w, got):
                    with mpmath.workdps(30):
                        ref = complex(mpmath.fprod(mpmath.mpc(row[j].real, row[j].imag) ** j
                                                   for j in range(k, n)))
                    assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_jacobian_det_matches_finite_differences(self):
        from helpers import numerical_jacobian_det
        rng = np.random.default_rng(3)
        for n, k in [(2, 1), (3, 1), (4, 2), (5, 3)]:
            spec = HartogsDomainSpec.standard(n, k)
            w = domains.sample_product_model(spec, 5, seed=9)
            for row in w:
                exact = domains.jacobian_det_from_product(n, k, row)
                approx = numerical_jacobian_det(
                    lambda v: domains.from_product_model(n, k, v), row)
                assert abs(exact - approx) < 1e-6


class TestStandardization:
    def test_identity_blocks_fix_points(self):
        spec = HartogsDomainSpec.standard(3, 2)
        z = np.array([0.1, 0.2, 0.7], dtype=complex)
        assert np.array_equal(domains.to_standard_model(spec, z), z)

    def test_affine_first_coordinate(self):
        spec = two_block_affine4()
        z = np.array([0.75, 0.0, 0.0, 0.5], dtype=complex)
        assert domains.to_standard_model(spec, z)[0] == pytest.approx(0.5)

    def test_roundtrip_and_membership(self):
        spec = two_block_affine4()
        std = spec.standardized()
        w = domains.sample_product_model(std, 100, seed=21)
        z_std = domains.from_product_model(std.n, std.k, w)
        assert np.all(domains.contains(std, z_std))
        z = domains.from_standard_model(spec, z_std)
        assert np.all(domains.contains(spec, z))
        fwd = domains.to_standard_model(spec, z)
        assert np.max(np.abs(fwd - z_std)) < 1e-12
        assert np.all(domains.contains(std, fwd))

    @pytest.mark.parametrize("example", ["affine4", "rational3"])
    def test_maps_are_prefix_stable(self, example):
        # numpy reuses temporaries from 16384 complex values on; a row's
        # image must not depend on the length of the array it comes in
        from hartogs.cli import builtin_example
        spec = builtin_example(example)
        rows = 40_000
        w = domains.sample_product_model(spec.standardized(), rows, seed=22, r_max=0.9)
        z_std = domains.from_product_model(spec.n, spec.k, w)
        z = domains.from_standard_model(spec, z_std)
        for fn, pts in [(domains.from_standard_model, z_std), (domains.to_standard_model, z),
                        (domains.jacobian_det_to_standard, z)]:
            whole = fn(spec, pts)
            for length in (100, 16383, 16384):
                assert fn(spec, pts[:length]).tobytes() == whole[:length].tobytes(), (fn, length)


class TestSampling:
    def test_zero_count(self):
        assert domains.sample_product_model(standard2(), 0, seed=1).shape == (0, 2)

    def test_membership_of_samples(self):
        spec = HartogsDomainSpec(4, ((1, MapFamily.identity(1)),
                                     (2, MapFamily.identity(2))))
        w = domains.sample_product_model(spec, 2000, seed=2)
        assert np.all(domains.product_model_contains(spec, w))

    def test_mean_square_of_disk_coordinate(self):
        # integral of |w|^2 over the normalized disk is 1/2
        spec = standard2()
        w = domains.sample_product_model(spec, 200_000, seed=4)
        vals = np.abs(w[:, 1]) ** 2
        err = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) < 3 * err

    def test_quotient_chart_lands_in_domain(self):
        spec = HartogsDomainSpec.standard(3, 1)
        w = domains.sample_product_model(spec, 1000, seed=6)
        z = domains.from_product_model(3, 1, w)
        assert np.all(domains.contains(spec, z))

    @pytest.mark.parametrize("spec", [HartogsDomainSpec.standard(3, 1),
                                      HartogsDomainSpec.standard(4, [1, 2])], ids=["31", "412"])
    def test_product_points_are_fresh_arrays(self, spec):
        # a later call on the same thread leaves an earlier batch as it was
        first = domains.product_points(spec, np.random.default_rng(1), 500)
        kept = first.copy()
        second = domains.product_points(spec, np.random.default_rng(2), 500)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 10_000])
    def test_chunk_batches_draw_the_rows_of_product_points(self, count):
        # the projection's chunks build their points from their own draws,
        # copied into columns: the stream and the points are product_points'
        spec = HartogsDomainSpec.standard(4, [1, 2])
        handed = []

        def f(pts):
            handed.append(pts)
            return pts[..., 0]
        kernels.mc_bergman_projection(spec, f, [0.1, 0.1, 0.1, 0.5], mc.CHUNK_SIZE + count,
                                      seed=3, workers=1)
        want = domains.product_points(spec, mc.chunk_rng(3, 1), count)
        got = handed[-1]  # the last chunk, of `count` points
        assert got.tobytes() == domains.from_product_model(4, 3, want).tobytes()

    def test_seed_determinism_and_prefix_stability(self):
        spec = HartogsDomainSpec.standard(3, 2)
        a = domains.sample_product_model(spec, 100, seed=7)
        b = domains.sample_product_model(spec, 100, seed=7)
        np.testing.assert_array_equal(a, b)
        c = domains.sample_product_model(spec, 50, seed=7)
        np.testing.assert_array_equal(a[:50], c)
        d = domains.sample_product_model(spec, 100, seed=8)
        assert np.any(d != a)

    def test_prefix_stability_across_chunks(self):
        spec = standard2()
        a = domains.sample_product_model(spec, 300, seed=9, chunk_size=128)
        b = domains.sample_product_model(spec, 200, seed=9, chunk_size=128)
        np.testing.assert_array_equal(a[:200], b)

    def test_margins_respected(self):
        spec = standard2()
        w = domains.sample_product_model(spec, 500, seed=10,
                                         r_max=0.99, disk_r_min=0.05)
        assert np.all(np.abs(w) <= 0.99)
        assert np.all(np.abs(w[:, 1]) >= 0.05)


class TestSpecValidation:
    def test_k_must_be_less_than_n(self):
        with pytest.raises(ValueError):
            HartogsDomainSpec.standard(2, 2)

    def test_offsets(self):
        spec = HartogsDomainSpec(4, ((1, MapFamily.identity(1)),
                                     (2, MapFamily.identity(2))))
        assert spec.offsets == (0, 1, 3)
        assert spec.k == 3

    def test_volume(self):
        assert domains.standard_volume(2, 1) == pytest.approx(0.5)
        assert domains.standard_volume(4, 3) == pytest.approx(0.25)


class TestJsonSchema:
    def test_roundtrip(self, tmp_path):
        spec = two_block_affine4()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json_dict(), indent=2))
        data = json.loads(path.read_text())
        assert data["n"] == 4
        assert data["blocks"][0]["map"]["type"] == "affine"
        assert data["blocks"][0]["map"]["A"] == [[[2.0, 0.0]]]
        assert data["blocks"][0]["map"]["b"] == [[-1.0, 0.0]]
        loaded = HartogsDomainSpec.load(path)
        assert loaded == spec

    def test_identity_and_rational(self):
        for spec in [HartogsDomainSpec.standard(3, (1, 1)),
                     HartogsDomainSpec(3, ((2, MapFamily.rational_example()),))]:
            assert HartogsDomainSpec.from_json_dict(spec.to_json_dict()) == spec
