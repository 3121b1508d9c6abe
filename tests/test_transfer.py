import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from hartogs import domains, mc, sampling, transfer
from hartogs.cli import builtin_example
from hartogs.config import NumericConfig
from hartogs.domains import HartogsDomainSpec, MapFamily
from hartogs.transfer import (JacobianBounds, jacobian_bounds,
                              jacobian_det_to_standard, pullback_isometry_check,
                              transfer_norm_bound)
from helpers import numerical_jacobian_det


class TestBlockJacobians:
    def test_identity(self):
        spec = HartogsDomainSpec.standard(3, 2)
        assert jacobian_det_to_standard(spec, [0.1, 0.2, 0.5]) == 1.0

    def test_affine_product(self):
        spec = builtin_example("affine4")
        det = jacobian_det_to_standard(spec, [0.5, 0.0, 0.0, 0.5])
        assert det == pytest.approx(2.0)

    def test_lives_in_domains_and_stays_importable_here(self):
        assert transfer.jacobian_det_to_standard is domains.jacobian_det_to_standard

    def test_rational_varies_with_point(self):
        spec = builtin_example("rational3")
        z = np.array([0.01, -1 / 3 + 0.05, 0.5], dtype=complex)
        det = jacobian_det_to_standard(spec, z)
        assert det == pytest.approx(3.0 / (z[1] - 10.0))

    def test_against_numerical_jacobian(self):
        fam = MapFamily.rational_example()
        z = np.array([0.02, -0.3 + 0.04j], dtype=complex)
        exact = complex(fam.jacobian_det(z))
        approx = numerical_jacobian_det(fam.value, z)
        assert abs(exact - approx) < 1e-8

    def test_full_map_numerical_jacobian(self):
        spec = builtin_example("affine4")
        z = np.array([0.5, 0.05, 0.05, 0.6], dtype=complex)
        approx = numerical_jacobian_det(lambda v: domains.to_standard_model(spec, v), z)
        assert abs(approx - 2.0) < 1e-8


class TestJacobianBounds:
    def test_identity_bounds(self):
        spec = HartogsDomainSpec.standard(2, 1)
        got = jacobian_bounds(spec)
        assert (got.c, got.d, got.method) == (1.0, 1.0, "exact")

    def test_affine_exact(self):
        got = jacobian_bounds(builtin_example("affine4"))
        assert (got.c, got.d, got.method) == (2.0, 2.0, "exact")

    def test_affine_jacobian_is_constant_on_samples(self):
        # sampling route must reproduce the exact bounds for constant maps
        spec = builtin_example("affine4")
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(500, 8)).view(complex) * 0.1
        dets = np.abs(jacobian_det_to_standard(spec, pts))
        assert dets.min() == pytest.approx(dets.max())
        assert dets.min() == pytest.approx(2.0)

    def test_rational_sampled_within_exact_interval(self):
        # |3/(z2 - 10)| lies in [3/11, 3/9] whenever |z2| < 1
        got = jacobian_bounds(builtin_example("rational3"), NumericConfig(seed=3))
        assert got.method == "sampled"
        assert 3 / 11 <= got.c <= got.d <= 3 / 9

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            JacobianBounds(0.0, 1.0, "exact")
        with pytest.raises(ValueError):
            JacobianBounds(2.0, 1.0, "exact")


class TestTransferFactor:
    def test_p2_cancellation(self):
        bounds = JacobianBounds(0.37, 5.1, "sampled")
        assert transfer_norm_bound(3.3, bounds, 2.0) == pytest.approx(3.3)

    def test_example_value(self):
        assert transfer_norm_bound(1.0, JacobianBounds(1.0, 2.0, "exact"), 4.0) == pytest.approx(4.0)

    def test_constant_jacobian_cancels_for_all_p(self):
        bounds = JacobianBounds(1.7, 1.7, "exact")
        for p in (1.0, 1.5, 2.0, 3.7, 6.0):
            assert transfer_norm_bound(2.0, bounds, p) == pytest.approx(2.0)

    def test_conjugate_exponent_symmetry_only_for_equal_bounds(self):
        wide = JacobianBounds(1.0, 2.0, "exact")
        tight = JacobianBounds(1.5, 1.5, "exact")
        for p in (1.2, 1.5, 3.0, 4.0):
            q = p / (p - 1.0)
            assert transfer_norm_bound(1.0, tight, p) == pytest.approx(
                transfer_norm_bound(1.0, tight, q))
            if abs(p - 2.0) > 1e-9:
                assert transfer_norm_bound(1.0, wide, p) != pytest.approx(
                    transfer_norm_bound(1.0, wide, q))

    def test_validation(self):
        with pytest.raises(ValueError):
            transfer_norm_bound(0.0, JacobianBounds(1.0, 2.0, "exact"), 2.0)
        with pytest.raises(ValueError):
            transfer_norm_bound(1.0, JacobianBounds(1.0, 2.0, "exact"), 0.5)

    @pytest.mark.parametrize("constant,p", [
        (1.0, float("nan")), (1.0, float("inf")),
        (float("nan"), 2.0), (float("inf"), 2.0),
    ])
    def test_non_finite_inputs_rejected(self, constant, p):
        with pytest.raises(ValueError, match="finite"):
            transfer_norm_bound(constant, JacobianBounds(1.0, 2.0, "exact"), p)

    @pytest.mark.parametrize("constant,p", [(1.0, 1e308), (1e308, 4.0)])
    def test_overflow_rejected(self, constant, p):
        with pytest.raises(ValueError, match="overflows"):
            transfer_norm_bound(constant, JacobianBounds(0.5, 2.0, "exact"), p)


CFG = NumericConfig(seed=14, mc_samples=300_000)


class TestPullbackIsometry:
    def test_identity_map_exact_equality(self):
        spec = HartogsDomainSpec.standard(2, 1)

        def f(pts):
            return pts[..., 1]

        report = pullback_isometry_check(spec, f, CFG)
        assert report.source_value == report.target_value
        assert report.source_stderr == report.target_stderr
        assert report.sigma_distance == 0.0

    def test_affine_constant_function(self):
        spec = builtin_example("affine4")

        def f(pts):
            return np.ones(pts.shape[:-1], dtype=complex)

        report = pullback_isometry_check(spec, f, CFG)
        assert report.sigma_distance < 3.0
        # target integral is the domain volume
        vol = domains.standard_volume(4, 3)
        assert abs(report.target_value - vol) < 3 * report.target_stderr

    def test_affine_chain_monomial(self):
        spec = builtin_example("affine4")

        def f(pts):
            return pts[..., 3]

        report = pullback_isometry_check(spec, f, CFG)
        assert report.sigma_distance < 3.0

    def test_no_accepted_proposal_raises(self):
        # 3 box proposals all miss affine4: the estimate would be 0 +- 0
        spec = builtin_example("affine4")
        with pytest.raises(ValueError, match=r"accepted none of its 3 proposals.*--samples"):
            pullback_isometry_check(spec, lambda pts: pts[..., 3], replace(CFG, mc_samples=3))

    def test_json_report(self):
        spec = HartogsDomainSpec.standard(2, 1)
        report = pullback_isometry_check(spec, lambda pts: pts[..., 0],
                                         replace(CFG, mc_samples=20_000))
        data = report.to_json_dict()
        assert set(data) == {"source", "target", "sigma_distance"}


def _unfiltered_pullback(spec, f, cfg):
    """Reference for pullback_isometry_check: map every box proposal to a full
    point and test it with `contains`, with no staged pre-tests."""
    def integral(side, integrand):
        radii = np.concatenate([fam.coordinate_radii() for _, fam in side.blocks]
                               + [np.ones(side.n - side.k)])
        box_volume = float(np.prod(radii ** 2))
        for kj, _ in side.blocks:
            box_volume *= math.factorial(kj)

        def values(rng, count):
            u = rng.random((count, 2 * side.n))
            pts = np.stack([sampling.disk_from_uniform(u[:, 2 * j:2 * j + 2], 0.0, radii[j])
                            for j in range(side.n)], axis=1)
            inside = domains.contains(side, pts)
            out = np.zeros(count, dtype=complex)
            out[inside] = integrand(pts[inside])
            return out * box_volume

        est, err = mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)
        return float(np.real(est)), err

    src = integral(spec, lambda z: np.abs(f(domains.to_standard_model(spec, z))
                                          * domains.jacobian_det_to_standard(spec, z)) ** 2)
    tgt = integral(spec.standardized(), lambda w: np.abs(f(w)) ** 2)
    return (*src, *tgt)


# a shift of norm 0.6 makes the affine floor's differences cancel on part of
# the box; no accepted proposal may be dropped there
_SHIFTED_AFFINE = HartogsDomainSpec(3, (
    (2, MapFamily.affine([[0.9 + 0.3j, -0.4j], [0.2, 1.2 - 0.1j]], [0.5, -0.3 + 0.1j])),))


class TestStagedBoxRejection:
    @pytest.mark.parametrize("name", ["affine4", "rational3", "standard", "shifted-affine"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_to_unfiltered_rejection(self, name, workers):
        spec = {"standard": HartogsDomainSpec.standard(4, (1, 2)),
                "shifted-affine": _SHIFTED_AFFINE}.get(name) or builtin_example(name)

        def f(pts):
            return pts[..., 0] * pts[..., -1] + 0.5

        for seed in range(5):
            cfg = NumericConfig(seed=seed, mc_samples=40_000, workers=workers)
            rep = pullback_isometry_check(spec, f, cfg)
            got = (rep.source_value, rep.source_stderr, rep.target_value, rep.target_stderr)
            assert got == _unfiltered_pullback(spec, f, cfg)


    @pytest.mark.parametrize("name", ["affine4", "rational3"])
    def test_contains_alone_maps_the_candidates(self, name, monkeypatch):
        # per chunk, every block is mapped once by `contains` on each side and
        # once more by the source integrand; the pre-test maps none
        spec = builtin_example(name)
        calls = []
        value = MapFamily.value

        def counted(fam, z):
            calls.append(fam)
            return value(fam, z)
        monkeypatch.setattr(MapFamily, "value", counted)
        cfg = NumericConfig(seed=3, mc_samples=3 * 4096, chunk_size=4096, workers=1)
        pullback_isometry_check(spec, lambda pts: pts[..., 0] + 1, cfg)
        assert len(calls) == 3 * 3 * len(spec.blocks)

    def test_pinned_estimates(self):
        cfg = NumericConfig(seed=7, mc_samples=300_000)
        rep = pullback_isometry_check(builtin_example("rational3"),
                                      lambda pts: pts[..., 0] + 1, cfg)
        assert (rep.source_value, rep.source_stderr) == (0.4191311318896981,
                                                         0.00440032515061663)
        assert (rep.target_value, rep.target_stderr) == (0.41584245691365507,
                                                         0.0020177317148936083)

    @pytest.mark.parametrize("name", ["affine4", "rational3"])
    def test_stage_1_drops_most_source_proposals(self, name):
        # the block floors act before any angle: on the two examples stage 1
        # keeps about a quarter of the box proposals (all of them without)
        spec = builtin_example(name)
        radii = transfer._coordinate_radii(spec)
        u = np.random.default_rng(1).random((20_000, 2 * spec.n))
        sq = sampling.disk_modulus_sq_from_uniform(u[:, 0::2], 0.0, radii)
        offs = spec.offsets
        keep = np.ones(u.shape[0], dtype=bool)
        for i, (_, fam) in enumerate(spec.blocks):
            keep &= fam.image_norm_sq_floor(sq[:, offs[i]:offs[i + 1]]) <= sq[:, spec.k]
        assert keep.mean() < 0.35
        assert transfer._box_candidates(spec, u, radii).size <= keep.sum()


class TestStructuralRangeIndependence:
    def test_range_signature_depends_on_n_only(self):
        from hartogs.schur import admissible_p_range
        params = list(inspect.signature(admissible_p_range).parameters)
        assert params == ["n"]
