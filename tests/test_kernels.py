import functools
import math
import sys

import numpy as np
import pytest

from hartogs import counterexample, domains, estimates, kernels, mc, special
from hartogs.cli import builtin_example
from hartogs.domains import HartogsDomainSpec
from helpers import multi_indices


def random_disk(rng, count, r_max=0.95):
    return np.sqrt(rng.random(count)) * r_max * np.exp(2j * np.pi * rng.random(count))


def random_hartogs2(rng, count, r_max=0.9):
    z2 = random_disk(rng, count, r_max)
    z1 = z2 * random_disk(rng, count, 0.99)
    return np.stack([z1, z2], axis=1)


class TestDiskKernel:
    def test_zero_point(self):
        assert kernels.kernel_punctured_disk(0.0, 0.3 + 0.2j) == 1.0

    def test_closed_form_value(self):
        assert kernels.kernel_punctured_disk(0.5, 0.5) == pytest.approx(16 / 9)

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        w, eta = random_disk(rng, 1000), random_disk(rng, 1000)
        lhs = kernels.kernel_punctured_disk(w, eta)
        rhs = np.conj(kernels.kernel_punctured_disk(eta, w))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestBallKernel:
    def test_zero_point(self):
        assert kernels.kernel_ball(2, [0.0, 0.0], [0.1, 0.2j]) == 1.0

    def test_k1_reduces_to_disk(self):
        rng = np.random.default_rng(1)
        w, eta = random_disk(rng, 500), random_disk(rng, 500)
        ball = kernels.kernel_ball(1, w[:, None], eta[:, None])
        disk = kernels.kernel_punctured_disk(w, eta)
        assert np.max(np.abs(ball - disk)) < 1e-12

    def test_diagonal_value(self):
        assert kernels.kernel_ball(2, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(8.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.kernel_ball(2, [0.1], [0.1, 0.2])

    def test_hermitian_and_positive_diagonal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 4)).view(complex)
        x *= 0.9 * rng.random((300, 1)) ** 0.25 / np.linalg.norm(x, axis=1, keepdims=True)
        y = np.roll(x, 1, axis=0)
        lhs = kernels.kernel_ball(2, x, y)
        rhs = np.conj(kernels.kernel_ball(2, y, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        diag = kernels.kernel_ball(2, x, x)
        assert np.all(diag.real > 0)
        assert np.max(np.abs(diag.imag) / diag.real) < 1e-12


class TestProductKernel:
    def test_zero_point(self):
        spec = HartogsDomainSpec.standard(2, 1)
        assert kernels.kernel_product(spec, [0.0, 0.0], [0.2, 0.3]) == 1.0

    def test_factorization(self):
        spec = HartogsDomainSpec.standard(3, 2)
        rng = np.random.default_rng(3)
        w = domains.sample_product_model(spec, 50, seed=1)
        eta = domains.sample_product_model(spec, 50, seed=2)
        combined = kernels.kernel_product(spec, w, eta)
        split = (kernels.kernel_ball(2, w[:, :2], eta[:, :2])
                 * kernels.kernel_punctured_disk(w[:, 2], eta[:, 2]))
        assert np.max(np.abs(combined - split)) < 1e-12

    def test_value(self):
        spec = HartogsDomainSpec.standard(2, 1)
        val = kernels.kernel_product(spec, [0.5, 0.5], [0.5, 0.5])
        assert val == pytest.approx(256 / 81)

    def test_hermitian(self):
        spec = HartogsDomainSpec.standard(4, 2)
        w = domains.sample_product_model(spec, 300, seed=8, r_max=0.95)
        eta = np.roll(w, 5, axis=0)
        lhs = kernels.kernel_product(spec, w, eta)
        rhs = np.conj(kernels.kernel_product(spec, eta, w))
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12


class TestHartogsKernel:
    def test_value(self):
        spec = HartogsDomainSpec.standard(2, 1)
        val = kernels.kernel_hartogs(spec, [0.0, 0.5], [0.0, 0.5])
        assert val == pytest.approx(64 / 9)

    def test_hermitian_thousand_pairs(self):
        spec = HartogsDomainSpec.standard(2, 1)
        rng = np.random.default_rng(4)
        z, zeta = random_hartogs2(rng, 1000), random_hartogs2(rng, 1000)
        lhs = kernels.kernel_hartogs(spec, z, zeta)
        rhs = np.conj(kernels.kernel_hartogs(spec, zeta, z))
        scale = np.abs(lhs)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_diagonal_positive(self):
        spec = HartogsDomainSpec.standard(2, 1)
        rng = np.random.default_rng(5)
        z = random_hartogs2(rng, 200)
        diag = kernels.kernel_hartogs(spec, z, z)
        assert np.all(diag.real > 0)
        assert np.max(np.abs(diag.imag) / diag.real) < 1e-12

    def test_outside_domain_raises(self):
        spec = HartogsDomainSpec.standard(2, 1)
        with pytest.raises(ValueError):
            kernels.kernel_hartogs(spec, [0.5, 0.3], [0.1, 0.5])

    @pytest.mark.parametrize("example", ["affine4", "rational3"])
    def test_each_point_array_is_mapped_once(self, example, monkeypatch):
        from hartogs.cli import builtin_example
        spec = builtin_example(example)
        std = spec.standardized()
        z = domains.from_standard_model(spec, domains.from_product_model(
            spec.n, spec.k, domains.sample_product_model(std, 50, seed=8, r_max=0.9)))
        zeta = np.roll(z, 1, axis=0)
        want = kernels.kernel_hartogs(spec, z, zeta)
        calls = []
        value = domains.MapFamily._value  # the body every map runs, `value` too

        def counted(fam, pts):
            if not fam.is_identity:
                calls.append(fam)
            return value(fam, pts)

        monkeypatch.setattr(domains.MapFamily, "_value", counted)
        got = kernels.kernel_hartogs(spec, z, zeta)
        assert np.array_equal(got, want)
        assert sorted(map(id, calls)) == sorted(2 * [id(fam) for _, fam in spec.blocks])

    @pytest.mark.parametrize("example", ["affine4", "rational3", "standard"])
    def test_each_point_array_is_checked_once_per_block(self, example, monkeypatch):
        from hartogs.cli import builtin_example
        spec = (HartogsDomainSpec.standard(4, (1, 2)) if example == "standard"
                else builtin_example(example))
        std = spec.standardized()
        z = domains.from_standard_model(spec, domains.from_product_model(
            spec.n, spec.k, domains.sample_product_model(std, 640, seed=9, r_max=0.9)))
        zeta = np.roll(z, 1, axis=0)
        monkeypatch.setattr(mc, "CHUNK_SIZE", 64)  # 10 blocks of rows
        want = kernels.kernel_hartogs(spec, z, zeta)
        checked = []
        check = domains._check_point

        def counted(n, pts):
            checked.append(pts.shape)
            return check(n, pts)

        monkeypatch.setattr(domains, "_check_point", counted)
        monkeypatch.setattr(kernels, "_check_point", counted)
        got = kernels.kernel_hartogs(spec, z, zeta)
        assert got.tobytes() == want.tobytes()
        assert checked == 20 * [(64, spec.n)]

    def test_mapped_domain_errors(self):
        from hartogs.cli import builtin_example
        spec = builtin_example("rational3")
        ok = domains.from_standard_model(spec, np.array([0.05, 0.1, 0.5]))
        outside = np.array([0.1, 0.1, 0.5])   # |3 z2 + 1| = 1.3 > |z3|
        with pytest.raises(ValueError, match="kernel evaluated outside the domain"):
            kernels.kernel_hartogs(spec, outside, ok)
        with pytest.raises(ValueError, match="kernel evaluated outside the domain"):
            kernels.kernel_hartogs(spec, ok, outside)
        with pytest.raises(ValueError, match="point has non-finite coordinates"):
            kernels.kernel_hartogs(spec, ok, np.array([0.1, np.nan, 0.5]))
        with pytest.raises(ZeroDivisionError):
            kernels.kernel_hartogs(spec, ok, np.array([0.1, 10.0, 0.5]))

    def test_mapped_domain_agrees_with_transfer(self):
        # kernel on a mapped domain = jacobians x standard kernel at the images
        from hartogs.cli import builtin_example
        from hartogs.transfer import jacobian_det_to_standard
        spec = builtin_example("affine4")
        std = spec.standardized()
        rng = np.random.default_rng(6)
        w = domains.sample_product_model(std, 20, seed=3, r_max=0.9)
        z_std = domains.from_product_model(4, 3, w)
        z = domains.from_standard_model(spec, z_std)
        zeta = np.roll(z, 1, axis=0)
        direct = kernels.kernel_hartogs(spec, z, zeta)
        via_std = (jacobian_det_to_standard(spec, z)
                   * kernels.kernel_hartogs(std, domains.to_standard_model(spec, z),
                                            domains.to_standard_model(spec, zeta))
                   * np.conj(jacobian_det_to_standard(spec, zeta)))
        assert np.max(np.abs(direct - via_std) / np.abs(direct)) < 1e-12


class TestMonomialNorms:
    def test_zero_index_is_volume(self):
        assert kernels.monomial_norm_sq_ball(3, (0, 0, 0)) == pytest.approx(1.0)

    def test_k2_value(self):
        assert kernels.monomial_norm_sq_ball(2, (1, 0)) == pytest.approx(1 / 3)

    def test_k1_matches_disk(self):
        for m in range(6):
            assert kernels.monomial_norm_sq_ball(1, (m,)) == pytest.approx(1 / (m + 1))

    def test_against_mc_oracle(self):
        from hartogs import sampling
        rng = np.random.default_rng(7)
        pts = sampling.ball_points(rng, 400_000, 2)
        for nu in [(1, 0), (1, 1), (2, 1)]:
            vals = np.prod(np.abs(pts) ** (2 * np.array(nu)), axis=1)
            err = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - kernels.monomial_norm_sq_ball(2, nu)) < 3 * err


class TestMultiIndices:
    def test_count(self):
        assert len(list(multi_indices(2, 3))) == 10
        assert len(list(multi_indices(3, 2))) == 10

    def test_ordering_degree_then_lex(self):
        got = list(multi_indices(2, 2))
        assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


class TestTruncatedKernels:
    def test_disk_degree_zero(self):
        assert kernels.kernel_truncated("disk", 0, 0.4, 0.3) == 1.0

    def test_disk_truncation_error(self):
        rng = np.random.default_rng(8)
        w = random_disk(rng, 200, 0.5)
        eta = random_disk(rng, 200, 0.5)
        exact = kernels.kernel_punctured_disk(w, eta)
        approx = kernels.kernel_truncated("disk", 64, w, eta)
        assert np.max(np.abs(approx - exact) / np.abs(exact)) < 1e-8

    def test_ball_monotone_convergence(self):
        # N range chosen so truncation error stays above double rounding noise
        w = np.array([0.3, 0.3], dtype=complex)
        exact = kernels.kernel_ball(2, w, w)
        errors = [abs(kernels.kernel_truncated(("ball", 2), N, w, w) - exact)
                  for N in (2, 4, 8, 12, 16)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] / abs(exact) < 1e-8

    def test_ball_truncation_equals_basis_sum(self):
        # oracle: explicit normalized-monomial expansion
        rng = np.random.default_rng(9)
        w = 0.4 * rng.normal(size=4).view(complex)
        eta = 0.4 * rng.normal(size=4).view(complex)
        N = 6
        total = 0.0
        for nu in multi_indices(2, N):
            e = np.array(nu)
            term = (np.prod(w ** e) * np.conj(np.prod(eta ** e))
                    / kernels.monomial_norm_sq_ball(2, nu))
            total += term
        via_parts = kernels.kernel_truncated(("ball", 2), N, w, eta)
        assert abs(total - via_parts) < 1e-12 * abs(via_parts)

    def test_product_truncation_equals_basis_sum(self):
        spec = HartogsDomainSpec.standard(2, 1)
        rng = np.random.default_rng(10)
        w = np.array([0.3 + 0.1j, 0.45 - 0.2j])
        eta = np.array([-0.25 + 0.3j, 0.5 + 0.1j])
        N = 7
        total = 0.0
        for i in range(N + 1):
            for j in range(N + 1 - i):
                term = ((w[0] ** i * w[1] ** j)
                        * np.conj(eta[0] ** i * eta[1] ** j)
                        * (i + 1) * (j + 1))
                total += term
        via_parts = kernels.kernel_truncated(("product", spec), N, w, eta)
        assert abs(total - via_parts) < 1e-12 * abs(via_parts)

    def test_transformation_consistency(self):
        # closed-form transfer route vs truncated expansion pushed through
        # the same change of variables, at interior points
        spec = HartogsDomainSpec.standard(2, 1)
        rng = np.random.default_rng(11)
        z2 = random_disk(rng, 30, 0.8)
        z1 = z2 * random_disk(rng, 30, 0.8)
        z = np.stack([z1, z2], axis=1)
        zeta = np.roll(z, 7, axis=0)
        exact = kernels.kernel_hartogs(spec, z, zeta)
        fz = domains.to_product_model(2, 1, z)
        fzeta = domains.to_product_model(2, 1, zeta)
        trunc = (kernels.kernel_truncated(("product", spec), 200, fz, fzeta)
                 / (domains.jacobian_det_from_product(2, 1, fz)
                    * np.conj(domains.jacobian_det_from_product(2, 1, fzeta))))
        assert np.max(np.abs(trunc - exact) / np.abs(exact)) < 1e-6

    @pytest.mark.parametrize("N", [-1, kernels.TRUNCATED_MAX_N + 1])
    def test_degree_outside_the_cap_raises(self, N):
        with pytest.raises(ValueError, match=f"\\[0, {kernels.TRUNCATED_MAX_N}\\], got {N}"):
            kernels.kernel_truncated("disk", N, 0.4, 0.3)

    def test_ball_checks_the_point_dimension(self):
        with pytest.raises(ValueError, match="point has length 3, expected 2"):
            kernels.kernel_truncated(("ball", 2), 5, [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])

    def test_product_checks_the_point_dimension(self):
        spec = HartogsDomainSpec.standard(3, 1)
        with pytest.raises(ValueError, match="point has length 2, expected 3"):
            kernels.kernel_truncated(("product", spec), 5, [0.1, 0.2], [0.3, 0.2])

    @pytest.mark.parametrize("model", ["disk", "ball2", "ball3", "product31", "product52"])
    def test_matches_mpmath_at_degree_200(self, model):
        # coordinates up to 0.99, so |x_j| reaches about 0.98
        mpmath = pytest.importorskip("mpmath")
        fn, blocks, w, eta = _truncated_case(model, np.random.default_rng(31), 3, 0.99)
        got = fn(200, w, eta)
        for row, value in enumerate(got):
            a, b = np.atleast_1d(w[row]), np.atleast_1d(eta[row])
            with mpmath.workdps(120):
                factors = [(mpmath.fsum(mpmath.conj(mpmath.mpc(b[c])) * mpmath.mpc(a[c])
                                        for c in cols), k) for k, cols in blocks]
                want = _generating_ref(mpmath, factors, 200)
            # where the terms cancel no double evaluation keeps relative digits:
            # the sum of their moduli, below the kernel at |x_j|, sets the scale
            scale = math.prod((1.0 - abs(complex(x))) ** -(k + 1) for x, k in factors)
            assert abs(value - want) <= 1e-13 * abs(want) + 1e-15 * scale, (row, value, want)


def _truncated_case(model, rng, rows, radius):
    """(fn(N, w, eta), blocks as (k_j, columns), w, eta) for a truncated model;
    each point's ball blocks have norm below `radius`, its disks modulus."""
    shapes = {"disk": (1, [(1, [0])]), "ball2": (2, [(2, [0, 1])]),
              "ball3": (3, [(3, [0, 1, 2])]),
              "product31": (3, [(1, [0]), (1, [1]), (1, [2])]),
              "product52": (5, [(2, [0, 1]), (1, [2]), (1, [3]), (1, [4])])}
    n, blocks = shapes[model]

    def points():
        z = rng.normal(size=(rows, n, 2)).view(complex)[..., 0]
        for _, cols in blocks:
            norm = np.sqrt(np.sum(np.abs(z[:, cols]) ** 2, axis=1, keepdims=True))
            z[:, cols] *= radius * rng.random((rows, 1)) ** (1.0 / (2 * len(cols))) / norm
        return z[:, 0] if model == "disk" else z

    if model == "disk":
        truncated = "disk"
    elif model.startswith("ball"):
        truncated = ("ball", n)
    else:
        truncated = ("product", HartogsDomainSpec.standard(n, len(blocks[0][1])))
    return (lambda N, w, eta: kernels.kernel_truncated(truncated, N, w, eta),
            blocks, points(), points())


def _generating_ref(mpmath, factors, N):
    """[t^N] of G(t) = (1 - t)^-1 prod (1 - x t)^-(k+1) over the (x, k)
    factors, by Cauchy's formula on |t| = 1/2 with 256 nodes, in 120-digit
    mpmath: the nodes alias the coefficients of degree N + 256 i (i >= 1),
    scaled by 2^(-256 i) < 1e-77, into the result, and the sum cancels
    |G| 2^N < 1e65 down to it, so more than 40 digits stay."""
    nodes = 256
    with mpmath.workdps(120):
        total = 0
        for i in range(nodes):
            turn = mpmath.mpf(2 * i) / nodes
            t = mpmath.expjpi(turn) / 2
            g = 1 / (1 - t)
            for x, k in factors:
                g /= (1 - x * t) ** (k + 1)
            total += g * mpmath.expjpi(-N * turn)
        return complex(total * 2 ** N / nodes)


class TestMcProjection:
    def test_reproduces_low_degree_monomial(self):
        spec = HartogsDomainSpec.standard(2, 1)
        z = np.array([0.1, 0.4], dtype=complex)

        def f(pts):
            return pts[..., 0] * pts[..., 1]

        est, err = kernels.mc_bergman_projection(spec, f, z, 100_000, seed=12)
        assert abs(est - 0.04) < 3 * err
        assert err < 0.01

    @pytest.mark.parametrize("n,k,exps,inside", [
        (2, 1, (0, -1), True),
        (2, 1, (-1, 1), False),
        (2, 1, (0, -2), False),
        (3, 1, (0, 0, -2), True),
        (3, 1, (0, -2, 0), False),
        (3, 1, (0, -1, -1), True),
        (3, 2, (0, 0, -2), True),
        (3, 2, (0, 0, -3), False),
        (3, 2, (1, -1, 0), False),
        (4, 1, (2, -2, -2, 0), True),
        (4, 1, (1, -3, 0, 0), False),
    ])
    def test_bergman_monomials(self, n, k, exps, inside):
        # |z^e|^2 on the product chart is prod |w_i|^(2 e_i) (i <= k) times
        # prod |w_j|^(2 S_j + 2(j - 1)) (j > k): each factor must beat |w|^-2
        chart = [2 * e for e in exps[:k]]
        chart += [2 * sum(exps[:j]) + 2 * (j - 1) for j in range(k + 1, n + 1)]
        assert all(power > -2 for power in chart) == inside
        if inside:
            kernels.check_bergman_monomial(n, k, exps)
        else:
            with pytest.raises(ValueError, match="not in A\\^2"):
                kernels.check_bergman_monomial(n, k, exps)

    def test_bergman_monomial_needs_n_exponents(self):
        with pytest.raises(ValueError, match="monomial needs 3 exponents"):
            kernels.check_bergman_monomial(3, 1, (0, 1))

    def test_determinism_and_workers(self):
        spec = HartogsDomainSpec.standard(2, 1)
        z = np.array([0.1, 0.4], dtype=complex)

        def f(pts):
            return np.ones(pts.shape[:-1], dtype=complex)

        a = kernels.mc_bergman_projection(spec, f, z, 20_000, seed=13)
        b = kernels.mc_bergman_projection(spec, f, z, 20_000, seed=13)
        c = kernels.mc_bergman_projection(spec, f, z, 20_000, seed=13, workers=3)
        assert a == b == c

    def test_error_of_a_later_chunk_reaches_the_caller(self):
        # 3 full chunks and a short fourth (index 3), under the default worker count
        spec = HartogsDomainSpec.standard(2, 1)
        z = np.array([0.1, 0.4], dtype=complex)

        def f(pts):
            if len(pts) == 7:
                raise ValueError("f rejects the short chunk")
            return np.ones(pts.shape[:-1], dtype=complex)

        with pytest.raises(ValueError, match="^f rejects the short chunk$"):
            kernels.mc_bergman_projection(spec, f, z, 3 * mc.CHUNK_SIZE + 7, seed=13)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_a_bad_sample_count_gets_the_mc_mean_error(self, samples):
        spec = HartogsDomainSpec.standard(2, 1)
        with pytest.raises(ValueError, match=f"at least two samples, got {samples}"):
            kernels.mc_bergman_projection(spec, lambda pts: pts[..., 0], [0.1, 0.2], samples, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_handed_to_f_are_not_changed_later(self, workers):
        spec = HartogsDomainSpec.standard(3, 1)
        handed = []

        def f(pts):
            handed.append((pts, pts.copy()))
            return pts[..., 1] * pts[..., 2]

        kernels.mc_bergman_projection(spec, f, np.array([0.1, 0.3, 0.5]), 2 * mc.CHUNK_SIZE + 9,
                                      seed=3, workers=workers)
        assert len(handed) == 3
        assert all(got.tobytes() == want.tobytes() for got, want in handed)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 3)])
    def test_chunk_values_have_the_bits_of_the_public_evaluators(self, n, k):
        # the reference builds each chunk's samples from fresh arrays, as
        # product_points, jacobian_det_from_product and kernel_product do
        spec = HartogsDomainSpec.standard(n, k)
        z = domains.from_product_model(n, k, np.linspace(0.2, 0.7, n) * np.exp(1j * np.arange(n)))
        fz = domains.to_product_model(n, k, z)

        def f(pts):
            return special.monomial(pts, range(n))

        def values(rng, count):
            w = domains.product_points(spec, rng, count)
            det_w = domains.jacobian_det_from_product(n, k, w)
            fw = f(domains.from_product_model(n, k, w))
            return (det_w * fw) / kernels._product_denominator(spec, fz, w)

        total = mc.CHUNK_SIZE + 1
        est, err = mc.mc_mean(values, total, 21)
        det_z = complex(domains.jacobian_det_from_product(n, k, fz))
        assert kernels.mc_bergman_projection(spec, f, z, total, 21) == (est / det_z,
                                                                          err / abs(det_z))

    @pytest.mark.parametrize("rows", [1, 2, 1000, 20_000])
    @pytest.mark.parametrize("name", ["standard", "affine4", "rational3"])
    def test_denominator_has_the_bits_of_products_into_new_arrays(self, name, rows):
        # the reference forms every product with numpy's operators; the
        # denominators write each product into a new array that holds none
        # of the operands
        def power(x, e):
            base, result = x, None
            while True:
                if e & 1:
                    result = base if result is None else result * base
                e >>= 1
                if not e:
                    return result
                base = base * base

        def reference(spec, w, eta):
            den = None
            for (kj, _), sl in zip(spec.blocks, spec.slices):
                factor = power(1.0 - np.einsum("...j->...", np.conj(eta[..., sl]) * w[..., sl]),
                               kj + 1)
                den = factor if den is None else factor * den
            for j in range(spec.k, spec.n):
                base = 1.0 - np.conj(eta[..., j]) * w[..., j]
                den = base * base * den
            return den

        spec = _spec(name).standardized()
        w = domains.sample_product_model(spec, rows, 1, r_max=0.9, disk_r_min=0.1)
        eta = domains.sample_product_model(spec, rows, 2, r_max=0.9, disk_r_min=0.1)
        for a, b in [(w, eta), (w[0], eta), (np.ascontiguousarray(w), np.ascontiguousarray(eta)),
                     (w[0], np.ascontiguousarray(eta))]:
            want = reference(spec, a, b).tobytes()
            assert kernels._product_denominator(spec, a, b).tobytes() == want
        k = spec.blocks[0][0]
        assert (kernels._ball_denominator(k, w[:, :k], eta[:, :k]).tobytes()
                == power(1.0 - np.einsum("...j->...", np.conj(eta[:, :k]) * w[:, :k]),
                         k + 1).tobytes())
        base = 1.0 - np.conj(eta[:, -1]) * w[:, -1]
        assert (kernels._ball_denominator(1, w[:, -1:], eta[:, -1:]).tobytes()
                == (base * base).tobytes())


# --- batch independence --------------------------------------------------

ROWS = 40_000
PREFIXES = [1, 100, 16383, 16384, ROWS]  # numpy elides temporaries from 16384 complex values


def _spec(name):
    return HartogsDomainSpec.standard(2, 1) if name == "standard" else builtin_example(name)


def _domain_points(spec, seed):
    w = domains.sample_product_model(spec.standardized(), ROWS, seed=seed, r_max=0.9)
    return domains.from_standard_model(spec, domains.from_product_model(spec.n, spec.k, w))


def _ball_points(k, seed):
    x = np.random.default_rng(seed).normal(size=(ROWS, 2 * k)).view(complex)
    return 0.9 * x / np.sqrt(1.0 + np.sum(np.abs(x) ** 2, axis=1, keepdims=True))


def _assert_prefix_stable(fn, *arrays):
    """fn on the first L rows equals the first L rows of fn on all rows, bit for bit.

    Operands without ROWS rows (single points) are passed whole."""
    whole = fn(*arrays)
    for length in PREFIXES:
        part = fn(*[a[:length] if a.shape[:1] == (ROWS,) else a for a in arrays])
        assert part.tobytes() == whole[:length].tobytes(), length


class TestPrefixStability:
    def test_ball_kernel(self):
        x, y = _ball_points(2, 1), _ball_points(2, 2)
        _assert_prefix_stable(lambda a, b: kernels.kernel_ball(2, a, b), x, y)
        _assert_prefix_stable(lambda b: kernels.kernel_ball(2, x[3], b), y)
        _assert_prefix_stable(lambda b: kernels.kernel_ball(1, x[3, :1], b), y[:, :1])

    def test_disk_kernel(self):
        w, eta = _ball_points(1, 3)[:, 0], _ball_points(1, 4)[:, 0]
        _assert_prefix_stable(kernels.kernel_punctured_disk, w, eta)
        _assert_prefix_stable(lambda b: kernels.kernel_punctured_disk(w[5], b), eta)

    def test_product_kernel(self):
        spec = HartogsDomainSpec.standard(3, 1)
        w = domains.sample_product_model(spec, ROWS, seed=5, r_max=0.9)
        eta = np.roll(w, 1, axis=0)
        _assert_prefix_stable(lambda a, b: kernels.kernel_product(spec, a, b), w, eta)
        _assert_prefix_stable(lambda b: kernels.kernel_product(spec, w[7], b), eta)

    @pytest.mark.parametrize("model", ["disk", "ball3", "product31"])
    def test_truncated_kernel(self, model):
        fn, _, w, eta = _truncated_case(model, np.random.default_rng(6), ROWS, 0.9)
        _assert_prefix_stable(lambda a, b: fn(8, a, b), w, eta)

    @pytest.mark.parametrize("name", ["standard", "affine4", "rational3"])
    def test_hartogs_kernel(self, name):
        spec = _spec(name)
        z, zeta = _domain_points(spec, 8), _domain_points(spec, 9)
        _assert_prefix_stable(lambda a, b: kernels.kernel_hartogs(spec, a, b), z, zeta)
        _assert_prefix_stable(lambda b: kernels.kernel_hartogs(spec, z[0], b), zeta)


class TestBlockedHartogsKernel:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["standard", "affine4", "rational3"])
    def test_blocks_equal_one_block(self, name, workers, monkeypatch):
        spec = _spec(name)
        z, zeta = _domain_points(spec, 10), _domain_points(spec, 11)
        # pairs, and a batch of ROWS x 2 pairs broadcast from z[:, None] and zeta[:2]
        monkeypatch.setattr(mc, "WORKERS", workers)
        for a, b in [(z, zeta), (z[:, None], zeta[:2])]:
            one_block = kernels._kernel_hartogs_block(spec, a, b)
            assert kernels.kernel_hartogs(spec, a, b).tobytes() == one_block.tobytes()

    def test_many_threads_on_small_blocks(self, monkeypatch):
        # more threads than cores, each block written into the shared output
        # while the interpreter switches threads as often as it can
        spec = _spec("rational3")
        z, zeta = _domain_points(spec, 15), _domain_points(spec, 16)
        want = kernels._kernel_hartogs_block(spec, z, zeta)
        monkeypatch.setattr(mc, "CHUNK_SIZE", 1000)
        monkeypatch.setattr(mc, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = kernels.kernel_hartogs(spec, z, zeta)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_single_point_and_empty_batch(self):
        spec = _spec("affine4")
        z = _domain_points(spec, 12)[:2]
        value = kernels.kernel_hartogs(spec, z[0], z[1])
        assert isinstance(value, complex)
        assert value == kernels.kernel_hartogs(spec, z, z[::-1])[0]
        assert kernels.kernel_hartogs(spec, z[:0], z[:0]).shape == (0,)

    @pytest.mark.parametrize("row", [5, ROWS - 3])
    def test_errors_do_not_depend_on_the_block(self, row):
        spec = _spec("rational3")
        z, zeta = _domain_points(spec, 13), _domain_points(spec, 14)
        cases = [(np.array([0.1, 0.1, 0.5]), ValueError, "kernel evaluated outside the domain"),
                 (np.array([0.1, np.nan, 0.5]), ValueError, "point has non-finite coordinates"),
                 (np.array([0.1, 10.0, 0.5]), ZeroDivisionError, "pole")]
        for bad, error, message in cases:
            for first in (True, False):
                broken = (z if first else zeta).copy()
                broken[row] = bad
                args = (broken, zeta) if first else (z, broken)
                with pytest.raises(error, match=message):
                    kernels.kernel_hartogs(spec, *args)



# --- lone points ---------------------------------------------------------

LONE_ROWS = 2000
LONE_STRIDE = 20  # every twentieth row is also evaluated alone
STANDARD = {"standard21": (2, 1), "standard31": (3, 1), "standard42": (4, 2),
            "standard51": (5, 1)}
LONE_EVALUATORS = ["disk", "ball", "product", "hartogs", "truncated", "truncated_disk",
                   "truncated_ball", "ball_integral", "disk_integral", "disk_quad", "contains",
                   "product_model_contains", "jacobian_from_product", "jacobian_to_standard",
                   "blowup_eval", "projected_blowup", "monomial"]
SPEC_MAP_EVALUATORS = ["hartogs", "contains", "jacobian_to_standard"]
LONE_CASES = ([(name, model) for name in LONE_EVALUATORS for model in STANDARD]
              + [(name, model) for name in SPEC_MAP_EVALUATORS
                 for model in ("affine4", "rational3")])


def _lone_case(name, model):
    """A public evaluator of lone points, with its leading arguments bound, and
    its point arrays of LONE_ROWS rows each, paired by row."""
    spec = (HartogsDomainSpec.standard(*STANDARD[model]) if model in STANDARD
            else builtin_example(model))
    std = spec.standardized()
    n, k, k1 = spec.n, spec.k, spec.block_dims[0]
    w, eta = (domains.sample_product_model(std, LONE_ROWS, seed=seed, r_max=0.9)
              for seed in (40, 41))
    z, zeta = (domains.from_standard_model(spec, domains.from_product_model(n, k, x))
               for x in (w, eta))
    # every other point moved out by a fifth, so that membership goes both ways
    spread = np.where(np.arange(LONE_ROWS)[:, None] % 2, 1.0, 1.2)
    radius, block_radius = np.abs(w[:, k]), np.linalg.norm(w[:, :k1], axis=1)
    cases = {
        "disk": (kernels.kernel_punctured_disk, w[:, k], eta[:, k]),
        "ball": (functools.partial(kernels.kernel_ball, k1), w[:, :k1], eta[:, :k1]),
        "product": (functools.partial(kernels.kernel_product, std), w, eta),
        "hartogs": (functools.partial(kernels.kernel_hartogs, spec), z, zeta),
        "truncated": (functools.partial(kernels.kernel_truncated, ("product", std), 20),
                      w, eta),
        "truncated_disk": (functools.partial(kernels.kernel_truncated, "disk", 20),
                           w[:, k], eta[:, k]),
        "truncated_ball": (functools.partial(kernels.kernel_truncated, ("ball", k1), 20),
                           w[:, :k1], eta[:, :k1]),
        "ball_integral": (functools.partial(estimates.weighted_ball_integral, k1, -0.5),
                          block_radius),
        "disk_integral": (functools.partial(estimates.weighted_disk_integral, -0.5, -1.2),
                          radius),
        "disk_quad": (functools.partial(estimates.weighted_disk_integral_quad, -0.5, -1.2),
                      radius),
        "contains": (functools.partial(domains.contains, spec), z * spread),
        "product_model_contains": (functools.partial(domains.product_model_contains, std),
                                   w * spread),
        "jacobian_from_product": (functools.partial(domains.jacobian_det_from_product, n, k),
                                  w),
        "jacobian_to_standard": (functools.partial(domains.jacobian_det_to_standard, spec), z),
        "blowup_eval": (functools.partial(counterexample.blowup_eval, n, 6), z),
        "projected_blowup": (functools.partial(counterexample.projected_blowup, n, 6), z),
        "monomial": (lambda x: special.monomial(x, [3, -2, 1, 2, -1][:n]), z),
    }
    return cases[name]


class TestLonePoint:
    # numpy's 0-d scalar arithmetic rounds differently from its array loops;
    # a lone point must get the bits of its row in a batch, as a Python scalar
    @pytest.mark.parametrize("name, model", LONE_CASES)
    def test_pair_equals_batch_row(self, name, model):
        fn, *points = _lone_case(name, model)
        batch = fn(*points)
        rows = range(0, LONE_ROWS, LONE_STRIDE)
        alone = [fn(*(x[row] for x in points)) for row in rows]
        assert {type(value) for value in alone} == {type(batch[0].item())}
        mismatches = [row for row, value in zip(rows, alone)
                      if np.array(value).tobytes() != batch[row].tobytes()]
        assert mismatches == []


# --- 30-digit references -------------------------------------------------

EDGE = 1.0 - 1e-8


def _edge_product_points(spec, seed, count=40):
    """Product-model points of `spec` with every ball block and chain
    coordinate at modulus 1 - 1e-8, at random phases."""
    w = domains.sample_product_model(spec, count, seed=seed, r_max=0.9)
    for sl in spec.slices:
        w[:, sl] *= (EDGE / np.linalg.norm(w[:, sl], axis=1))[:, None]
    w[:, spec.k:] *= EDGE / np.abs(w[:, spec.k:])
    return w


def _turned(spec, w, seed):
    """w with each ball block and chain coordinate turned by a phase in
    [pi/2, 3 pi/2], so that |1 - <w, eta>| >= 1 on every factor."""
    turns = np.exp(1j * np.random.default_rng(seed).uniform(
        np.pi / 2, 3 * np.pi / 2, (len(w), len(spec.blocks) + spec.n - spec.k)))
    eta = w.copy()
    for i, sl in enumerate(spec.slices):
        eta[:, sl] *= turns[:, i, None]
    eta[:, spec.k:] *= turns[:, len(spec.blocks):]
    return eta


def _point_pairs(spec, seed):
    """Pairs of product-model points: interior with interior, edge with
    interior and back, and edge with edge. Two edge points at nearby phases
    are left out: there 1 - <w, eta> cancels, and the rounding of the
    inputs alone moves the kernel by more than 1e-14."""
    inner = domains.sample_product_model(spec, 40, seed=seed, r_max=0.9)
    edge = _edge_product_points(spec, seed + 1)
    return [(inner, np.roll(inner, 1, axis=0)), (edge, inner), (inner, edge),
            (edge, _turned(spec, edge, seed + 2))]


def _mp_product_kernel(mp, spec, w, eta):
    """The product kernel at one pair of points, from its factors."""
    val = mp.mpc(1)
    for (kj, _), sl in zip(spec.blocks, spec.slices):
        ip = mp.fsum(mp.conj(b) * a for a, b in zip(w[sl], eta[sl]))
        val /= (1 - ip) ** (kj + 1)
    for j in range(spec.k, spec.n):
        val /= (1 - mp.conj(eta[j]) * w[j]) ** 2
    return val


def _mp_standard_map(mp, fam, x):
    """(image, Jacobian determinant) of one block map."""
    if fam.is_identity:
        return x, mp.mpc(1)
    if fam == domains.MapFamily.rational_example():
        den = x[1] - 10
        return [x[0] / den, 3 * x[1] + 1], 3 / den
    a = mp.matrix([[mp.mpc(v) for v in row] for row in fam.matrix])
    y = a * mp.matrix(x) + mp.matrix([mp.mpc(v) for v in fam.shift])
    return list(y), mp.det(a)


def _mp_hartogs_kernel(mp, spec, z, zeta):
    """The kernel of the spec's domain at one pair of points: the product
    kernel at the chart images, times the Jacobians of the block maps over
    those of the inverse chart."""
    def chart(x):
        det = mp.mpc(1)
        y = []
        for (_, fam), sl in zip(spec.blocks, spec.slices):
            block, block_det = _mp_standard_map(mp, fam, x[sl])
            y += block
            det *= block_det
        y += x[spec.k:]
        k, n = spec.k, spec.n
        w = [y[i] / y[k] for i in range(k)] + [y[j] / y[j + 1] for j in range(k, n - 1)]
        w.append(y[n - 1])
        for j in range(k, n):
            det /= w[j] ** j  # over prod w_j^(j-1), 1-based
        return w, det

    w, det_z = chart(z)
    eta, det_zeta = chart(zeta)
    return det_z * mp.conj(det_zeta) * _mp_product_kernel(mp, spec, w, eta)


def _assert_close_to_mpmath(mp, got, reference, *rows):
    with mp.workdps(30):
        for value, *pair in zip(got, *rows):
            want = reference(*[[mp.mpc(complex(v)) for v in point] for point in pair])
            assert abs(value - complex(want)) <= 1e-14 * abs(complex(want)), (value, pair)


class TestAgainstMpmath:
    @pytest.mark.parametrize("name", ["standard31", "affine4", "rational3"])
    def test_product_kernel(self, name):
        mp = pytest.importorskip("mpmath")
        spec = (HartogsDomainSpec.standard(3, 1) if name == "standard31"
                else builtin_example(name).standardized())
        for w, eta in _point_pairs(spec, 30):
            _assert_close_to_mpmath(
                mp, kernels.kernel_product(spec, w, eta),
                lambda a, b: _mp_product_kernel(mp, spec, a, b), w, eta)

    @pytest.mark.parametrize("name", ["standard31", "affine4", "rational3"])
    def test_hartogs_kernel(self, name):
        mp = pytest.importorskip("mpmath")
        spec = HartogsDomainSpec.standard(3, 1) if name == "standard31" else builtin_example(name)
        std = spec.standardized()
        for w, eta in _point_pairs(std, 40):
            z, zeta = (domains.from_standard_model(spec, domains.from_product_model(
                spec.n, spec.k, x)) for x in (w, eta))
            _assert_close_to_mpmath(
                mp, kernels.kernel_hartogs(spec, z, zeta),
                lambda a, b: _mp_hartogs_kernel(mp, spec, a, b), z, zeta)
