"""The evaluation contract: every public evaluator of points refuses a
malformed point with a ValueError, and a row's value does not depend on the
batch it comes in.

A malformed point is a 0-d value where a point in C^n is due, a point of the
wrong length, or a point with a NaN or infinite coordinate. Each evaluator
runs `domains._check_point`, the package's one point check, so none of them
gives an IndexError, a RuntimeWarning (an error under the suite's warning
filter) or a NaN value. A disk point is a lone complex number, so it has no
length to check, only finiteness.

Bits are compared with `tobytes()`: `np.array_equal` does not see the sign
of a zero.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import counterexample, domains, estimates, kernels
from hartogs.cli import builtin_example
from hartogs.domains import HartogsDomainSpec, MapFamily

RATIONAL3 = builtin_example("rational3")
STANDARD = HartogsDomainSpec.standard(3, 1)
P3 = np.array([0.05 + 0.02j, 0.1, 0.5j])  # in standard(3, 1) and in its product model
Z3 = domains.from_standard_model(RATIONAL3, P3)  # in the rational3 domain
B2 = np.array([0.3, 0.2j])  # in the ball of C^2
D = 0.4 + 0.1j  # in the punctured disk
RATIONAL = MapFamily.rational_example()


def _both_slots(name: str, evaluate, good) -> dict:
    """Entries for a two-point evaluator: the point under test as its first
    argument, then as its second, with the other one `good`."""
    return {f"{name}(bad, good)": (good, lambda x: evaluate(x, good)),
            f"{name}(good, bad)": (good, lambda x: evaluate(good, x))}


# name: (a valid point, the evaluator with the point under test as its argument)
EVALUATORS = {
    "MapFamily.value": (B2, RATIONAL.value),
    "MapFamily.inverse": (B2, RATIONAL.inverse),
    "MapFamily.jacobian_det": (B2, RATIONAL.jacobian_det),
    "contains": (Z3, functools.partial(domains.contains, RATIONAL3)),
    "to_product_model": (P3, functools.partial(domains.to_product_model, 3, 1)),
    "from_product_model": (P3, functools.partial(domains.from_product_model, 3, 1)),
    "jacobian_det_from_product": (P3, functools.partial(domains.jacobian_det_from_product,
                                                        3, 1)),
    "to_standard_model": (Z3, functools.partial(domains.to_standard_model, RATIONAL3)),
    "jacobian_det_to_standard": (Z3, functools.partial(domains.jacobian_det_to_standard,
                                                       RATIONAL3)),
    "from_standard_model": (P3, functools.partial(domains.from_standard_model, RATIONAL3)),
    "product_model_contains": (P3, functools.partial(domains.product_model_contains,
                                                     STANDARD)),
    **_both_slots("kernel_punctured_disk", kernels.kernel_punctured_disk, np.array(D)),
    **_both_slots("kernel_ball", functools.partial(kernels.kernel_ball, 2), B2),
    **_both_slots("kernel_product", functools.partial(kernels.kernel_product, STANDARD), P3),
    **_both_slots("kernel_truncated-disk",
                  functools.partial(kernels.kernel_truncated, "disk", 5), np.array(D)),
    **_both_slots("kernel_truncated-ball",
                  functools.partial(kernels.kernel_truncated, ("ball", 2), 5), B2),
    **_both_slots("kernel_truncated-product",
                  functools.partial(kernels.kernel_truncated, ("product", STANDARD), 5), P3),
    **_both_slots("kernel_hartogs", functools.partial(kernels.kernel_hartogs, RATIONAL3), Z3),
    "blowup_eval": (P3, functools.partial(counterexample.blowup_eval, 3, 2)),
    "projected_blowup": (P3, functools.partial(counterexample.projected_blowup, 3, 2)),
}
# a disk point is a lone complex number, with no length to get wrong
MALFORMED = [(name, kind) for name, (good, _) in EVALUATORS.items()
             for kind in ("0-d", "long", "nan", "inf") if good.shape or kind in ("nan", "inf")]


def _malformed(good: np.ndarray, kind: str) -> list[tuple[object, str]]:
    """(point, message) pairs of one kind of malformed point, alone and in a
    batch of three rows, made from the valid point `good`."""
    n = good.size if good.shape else None
    if kind == "0-d":
        return [(0.3, f"point has no coordinate axis, expected length {n}")]
    if kind == "long":
        long = np.append(good, 0.1)
        return [(long, f"point has length {n + 1}, expected {n}"),
                (np.tile(long, (3, 1)), f"point has length {n + 1}, expected {n}")]
    bad = {"nan": complex(np.nan, 0.0), "inf": complex(0.1, -np.inf)}[kind]
    out = []
    for column in range(n or 1):
        point = good.copy()
        point[(column,) if n else ()] = bad
        out += [(point, "point has non-finite coordinates"),
                (np.stack([good, point, good]), "point has non-finite coordinates")]
    return out


@pytest.mark.parametrize("name, kind", MALFORMED)
def test_every_evaluator_refuses_a_malformed_point(name, kind):
    good, evaluate = EVALUATORS[name]
    evaluate(good)  # the valid point is valid
    for point, message in _malformed(good, kind):
        with pytest.raises(ValueError, match=message):
            evaluate(point)


@pytest.mark.parametrize("radius", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["piece_index", "value"])
def test_the_blowup_profile_refuses_a_non_finite_radius(method, radius):
    evaluate = getattr(counterexample.RadialStepFunction(3, 4), method)
    for r in (radius, np.array([0.5, radius, 0.3])):
        with pytest.raises(ValueError, match=r"radii must lie in \(0, 1\]"):
            evaluate(r)


# --- a row's bits do not depend on its batch -------------------------------

POOL = 240  # rows of each point pool; a batch is any slice of it


def _domain_pool(spec: HartogsDomainSpec, seed: int) -> np.ndarray:
    product = domains.sample_product_model(spec.standardized(), POOL, seed=seed, r_max=0.9)
    return domains.from_standard_model(spec, domains.from_product_model(spec.n, spec.k,
                                                                        product))


def _radius_pool(seed: int) -> np.ndarray:
    """Radii in [0, 1), half of them within 1e-5 to 0.1 of 1."""
    rng = np.random.default_rng(seed)
    edge = 1.0 - 10.0 ** -rng.uniform(1.0, 5.0, POOL // 2)
    return rng.permutation(np.concatenate([rng.random(POOL - POOL // 2), edge]))


def _kernel_case(spec: HartogsDomainSpec, seed: int):
    return (functools.partial(kernels.kernel_hartogs, spec),
            (_domain_pool(spec, seed), _domain_pool(spec, seed + 1)))


def _contains_case():
    z = _domain_pool(RATIONAL3, 7)
    # every other row moved out by a fifth, so that membership goes both ways
    return functools.partial(domains.contains, RATIONAL3), (z * np.where(
        np.arange(POOL)[:, None] % 2, 1.0, 1.2),)


BATCH_CASES = {
    "kernel_hartogs-standard21": lambda: _kernel_case(HartogsDomainSpec.standard(2, 1), 1),
    "kernel_hartogs-affine4": lambda: _kernel_case(builtin_example("affine4"), 3),
    "kernel_hartogs-rational3": lambda: _kernel_case(RATIONAL3, 5),
    "contains": _contains_case,
    "weighted_ball_integral": lambda: (
        functools.partial(estimates.weighted_ball_integral, 2, -0.5), (_radius_pool(9),)),
    "weighted_disk_integral": lambda: (
        functools.partial(estimates.weighted_disk_integral, -0.5, -1.2), (_radius_pool(10),)),
}


@functools.cache
def _batch_case(name: str):
    """(evaluator, point pools paired by row) of one batch case, built once."""
    return BATCH_CASES[name]()


@pytest.mark.parametrize("name", BATCH_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_row_has_its_bits_in_any_batch(name, data):
    # the row alone, as a one-row batch and at any offset of any batch around it
    evaluate, points = _batch_case(name)
    start = data.draw(st.integers(0, POOL - 1), label="start")
    stop = data.draw(st.integers(start + 1, POOL), label="stop")
    row = data.draw(st.integers(start, stop - 1), label="row")
    batch = evaluate(*(x[start:stop] for x in points))[row - start]
    one_row = evaluate(*(x[row:row + 1] for x in points))[0]
    alone = np.asarray(evaluate(*(x[row] for x in points)), dtype=batch.dtype)
    assert batch.tobytes() == one_row.tobytes() == alone.tobytes()
