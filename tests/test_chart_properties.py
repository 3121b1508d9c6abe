"""Property tests of the domain chart.

The maps between a domain, its standard model and the product model are
inverse to each other; membership is the standard-model test of the image
under `to_standard_model`, also within 1e-12 of the boundary; the Bergman
kernel is Hermitian, K(z, zeta) = conj K(zeta, z), and its Gram matrix on a
few domain points is positive semidefinite; the truncated kernel converges
to the closed form; and `HartogsDomainSpec.factors` is the product model's
layout, as `_parts` builds it independently.

Points are built in the product model, where the domain is a product of
balls and disks: each ball block and chain disk is a direction times a
modulus, so a row is put at a chosen distance from the boundary by the
modulus of one of its parts.
"""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import domains, kernels
from hartogs.cli import builtin_example
from hartogs.domains import HartogsDomainSpec, MapFamily

SPECS = {
    "affine4": builtin_example("affine4"),
    "rational3": builtin_example("rational3"),
    # a shift of norm 0.6: the block image is far off-centre
    "shifted-affine": HartogsDomainSpec(3, (
        (2, MapFamily.affine([[0.9 + 0.3j, -0.4j], [0.2, 1.2 - 0.1j]], [0.5, -0.3 + 0.1j])),)),
    "standard": HartogsDomainSpec.standard(4, (1, 2)),
}
EDGE = 1e-12  # distance of an edge row from the boundary, relative to the modulus

properties = settings(max_examples=20, deadline=None)


def _parts(spec: HartogsDomainSpec) -> list[slice]:
    """The product model's factors: each ball block, then each chain disk."""
    return list(spec.slices) + [slice(j, j + 1) for j in range(spec.k, spec.n)]


@st.composite
def random_specs(draw) -> HartogsDomainSpec:
    """1 to 4 blocks of dimension 1 to 3, each with an identity, affine or (k = 2)
    rational map, and 1 to 3 chain coordinates."""
    blocks = []
    for kj in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        kind = draw(st.sampled_from(["identity", "affine"] + ["rational"] * (kj == 2)))
        blocks.append((kj, MapFamily.identity(kj) if kind == "identity"
                       else MapFamily.affine(2.0 * np.eye(kj)) if kind == "affine"
                       else MapFamily.rational_example()))
    return HartogsDomainSpec(sum(kj for kj, _ in blocks) + draw(st.integers(1, 3)),
                             tuple(blocks))


@properties
@given(spec=random_specs())
def test_factors_are_the_product_layout(spec):
    factors = spec.factors
    assert factors is spec.factors  # built once per spec
    columns = [cols for _, cols, _, _ in factors]
    assert columns == _parts(spec)
    assert [c for cols in columns for c in range(spec.n)[cols]] == list(range(spec.n))
    blocks, chain = factors[:len(spec.blocks)], factors[len(spec.blocks):]
    assert [(k, j) for k, _, j, _ in blocks] == [(kj, 0) for kj, _ in spec.blocks]
    assert all(fam is block_fam for (*_, fam), (_, block_fam) in zip(blocks, spec.blocks))
    assert [(k, j, fam) for k, _, j, fam in chain] == [
        (1, cols.start + 1, None) for _, cols, _, _ in chain]
    assert domains.product_draws_per_point(spec) == (
        sum(2 * kj + 1 for kj, _ in spec.blocks) + 2 * (spec.n - spec.k))


@st.composite
def product_points(draw, spec: HartogsDomainSpec, edge: bool = False,
                   max_count: int = 5, max_modulus: float = 0.9):
    """(points, inside): 1 to `max_count` product-model rows whose parts have
    moduli in [0.05, max_modulus]. With `edge`, one part of each row has
    modulus 1 -+ EDGE instead, so the row lies just inside or just outside
    the domain, as `inside` says."""
    count = draw(st.integers(1, max_count))
    parts = _parts(spec)
    points = np.empty((count, spec.n), dtype=complex)
    inside = np.ones(count, dtype=bool)
    for i in range(count):
        at_edge = draw(st.integers(0, len(parts) - 1)) if edge else None
        for p, sl in enumerate(parts):
            direction = np.array([draw(st.floats(0.1, 1.0))
                                  * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
                                  for _ in range(sl.stop - sl.start)])
            if p == at_edge:
                inside[i] = draw(st.booleans())
                modulus = 1.0 - EDGE if inside[i] else 1.0 + EDGE
            else:
                modulus = draw(st.floats(0.05, max_modulus))
            points[i, sl] = direction * (modulus / np.linalg.norm(direction))
    return points, inside


def _domain_points(spec: HartogsDomainSpec, product: np.ndarray) -> np.ndarray:
    return domains.from_standard_model(
        spec, domains.from_product_model(spec.n, spec.k, product))


@pytest.mark.parametrize("name", SPECS)
@properties
@given(data=st.data())
def test_chart_round_trips(name, data):
    spec = SPECS[name]
    n, k = spec.n, spec.k
    product, _ = data.draw(product_points(spec))
    standard = domains.from_product_model(n, k, product)
    np.testing.assert_allclose(domains.to_product_model(n, k, standard), product,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(domains.from_product_model(
        n, k, domains.to_product_model(n, k, standard)), standard, rtol=1e-13, atol=0)
    z = domains.from_standard_model(spec, standard)
    np.testing.assert_allclose(domains.to_standard_model(spec, z), standard,
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(domains.from_standard_model(
        spec, domains.to_standard_model(spec, z)), z, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", SPECS)
@properties
@given(data=st.data())
def test_membership_is_the_standard_test_of_the_image(name, data):
    spec = SPECS[name]
    product, inside = data.draw(product_points(spec, edge=True))
    z = _domain_points(spec, product)
    got = domains.contains(spec, z)
    image = domains.contains(spec.standardized(), domains.to_standard_model(spec, z))
    assert got.tobytes() == image.tobytes()
    assert got.tolist() == inside.tolist()
    assert [domains.contains(spec, row) for row in z] == inside.tolist()


@pytest.mark.parametrize("name", SPECS)
@properties
@given(data=st.data())
def test_kernel_is_hermitian(name, data):
    spec = SPECS[name]
    product, _ = data.draw(product_points(spec))
    z = _domain_points(spec, product)
    other, _ = data.draw(product_points(spec))
    zeta = _domain_points(spec, other[:1])  # one row, broadcast against z
    for a, b in [(z, np.roll(z, 1, axis=0)), (z, zeta), (zeta, z)]:
        lhs = kernels.kernel_hartogs(spec, a, b)
        rhs = np.conj(kernels.kernel_hartogs(spec, b, a))
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-13


STANDARD_21 = HartogsDomainSpec.standard(2, 1)
GRAM_SPECS = {
    "standard(2,1)": STANDARD_21,
    "standard(3,1)": HartogsDomainSpec.standard(3, 1),
    "affine4": SPECS["affine4"],
    "rational3": SPECS["rational3"],
}


@pytest.mark.parametrize("name", GRAM_SPECS)
@properties
@given(data=st.data())
def test_gram_matrix_is_positive_semidefinite(name, data):
    # sum_ij conj(c_i) K(z_i, z_j) c_j = ||sum_j c_j K(., z_j)||^2 >= 0
    spec = GRAM_SPECS[name]
    product, _ = data.draw(product_points(spec, max_count=6))
    z = _domain_points(spec, product)
    gram = kernels.kernel_hartogs(spec, z[:, None, :], z[None, :, :])
    assert np.all(np.abs(gram - gram.conj().T) <= 1e-13 * np.abs(gram))
    smallest = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]
    assert smallest >= -1e-10 * np.max(np.abs(gram))


# (truncated model, closed form, spec whose points are drawn, their columns).
# With |<w, eta>| <= 1/2 on each of the factors, whose exponents k_j + 1 sum
# to K, the degree-m part is at most C(m+K-1, K-1) 2^-m and the closed form
# at least (3/2)^-K, so the tail beyond degree 60 is below 1e-12 relative
# only while K <= 4 (2e-13 at K = 4, 5e-12 at K = 5).
TRUNCATED = {
    "disk": ("disk", kernels.kernel_punctured_disk, STANDARD_21, 1),
    "ball3": (("ball", 3), functools.partial(kernels.kernel_ball, 3),
              HartogsDomainSpec.standard(4, 3), slice(0, 3)),
    "product(2,1)": (("product", STANDARD_21), functools.partial(kernels.kernel_product,
                                                                 STANDARD_21),
                     STANDARD_21, slice(None)),
}


@pytest.mark.parametrize("name", TRUNCATED)
@properties
@given(data=st.data())
def test_truncated_kernel_converges_to_the_closed_form(name, data):
    model, closed_form, spec, columns = TRUNCATED[name]
    # parts of modulus <= 0.7 on both sides: |<w, eta>| <= 0.49 on each factor
    w = data.draw(product_points(spec, max_modulus=0.7))[0][:, columns]
    eta = data.draw(product_points(spec, max_modulus=0.7))[0][:1, columns]
    exact = closed_form(w, eta)
    got = kernels.kernel_truncated(model, 60, w, eta)
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12
