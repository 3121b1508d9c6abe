"""Bit pins of every Monte-Carlo estimator.

Each case records (estimate, stderr) as `float.hex` at two seeds, and each
is run with one and with two workers, which must give the same bits. The
sample count spans three chunks of the default size, the last one short, so
a worker runs chunks of two sizes. `kernel_hartogs` is pinned on a batch of
more than one row block, and the paths of a spec with a k = 2 block next to
a k = 1 block, by the SHA-256 of their bytes.

The bits are those of numpy's float64 loops on the x86-64 AVX512 build of
numpy 2.4 they were recorded with; another CPU family or numpy release may
round a transcendental loop differently and then needs pins recorded again
from an unchanged tree.
"""

import hashlib

import numpy as np
import pytest

from hartogs import counterexample, domains, estimates, kernels, mc, special, transfer
from hartogs.cli import builtin_example
from hartogs.config import NumericConfig
from hartogs.schur import feasible_params, schur_verify

SAMPLES = 2 * mc.CHUNK_SIZE + 4464
SEEDS = (77, 78)


def _hex(*values) -> tuple[str, ...]:
    out = []
    for v in values:
        v = complex(v)
        out.append(v.real.hex() if v.imag == 0.0 else f"{v.real.hex()} {v.imag.hex()}")
    return tuple(out)


def _projection(n, f, z):
    spec = domains.HartogsDomainSpec.standard(n, 1)
    return lambda seed, workers: _hex(*kernels.mc_bergman_projection(
        spec, f, np.array(z), SAMPLES, seed, workers))


def _cfg(seed, workers):
    return NumericConfig(seed=seed, mc_samples=SAMPLES, workers=workers)


def _pullback(example, exps):
    spec = builtin_example(example)

    def run(seed, workers):
        rep = transfer.pullback_isometry_check(
            spec, lambda z: special.monomial(z, exps), _cfg(seed, workers))
        return _hex(rep.source_value, rep.source_stderr, rep.target_value, rep.target_stderr)
    return run


CASES = {
    "projection.monomial.n2": _projection(
        2, lambda z: special.monomial(z, (1, 2)), [0.2 + 0.1j, 0.3 - 0.5j]),
    "projection.monomial.n3": _projection(
        3, lambda z: special.monomial(z, (0, 1, 2)), [0.1j, 0.25, -0.2 + 0.6j]),
    "projection.blowup.n2": _projection(
        2, lambda z: counterexample.blowup_eval(2, 2, z), [0.2 + 0.1j, 0.3 - 0.5j]),
    "projection.blowup.n3": _projection(
        3, lambda z: counterexample.blowup_eval(3, 3, z), [0.1j, 0.25, -0.2 + 0.6j]),
    **{f"sphere.k{k}": (lambda k, nu: lambda seed, workers: _hex(
        *estimates.sphere_moment_mc(k, nu, _cfg(seed, workers))))(k, nu)
       for k, nu in ((1, (2,)), (2, (1, 2)), (3, (1, 0, 2)))},
    **{f"ball.k{k}": (lambda k, w: lambda seed, workers: _hex(
        *estimates.weighted_ball_integral_mc(k, -0.55, w, _cfg(seed, workers))))(k, w)
       for k, w in ((1, [0.5j]), (2, [0.3, -0.4j]), (3, [0.2, 0.3j, -0.35]))},
    # a < 1 < alpha + 1 draws 1 - rho (reflected); the other draws rho
    "disk.reflected": lambda seed, workers: _hex(*estimates.weighted_disk_integral_mc(
        0.5, -1.1, 0.4 - 0.3j, _cfg(seed, workers))),
    "disk.plain": lambda seed, workers: _hex(*estimates.weighted_disk_integral_mc(
        -0.55, -1.1, 0.4 - 0.3j, _cfg(seed, workers))),
    "pullback.affine4": _pullback("affine4", (1, 0, 1, 1)),
    "pullback.rational3": _pullback("rational3", (0, 1, 1)),
}

PINS = {
    ("ball.k1", 77): ("0x1.5b7f1bd3027a0p+1", "0x1.d0e1a40475cbep-8"),
    ("ball.k1", 78): ("0x1.586cef86d33a9p+1", "0x1.cafead6bfa890p-8"),
    ("ball.k2", 77): ("0x1.fe3428b691834p+1", "0x1.a6303a319bbd7p-7"),
    ("ball.k2", 78): ("0x1.fb7843ae8eb2bp+1", "0x1.a59bf026682d5p-7"),
    ("ball.k3", 77): ("0x1.4f9e166494985p+2", "0x1.4bba525283507p-6"),
    ("ball.k3", 78): ("0x1.4f8e2f56f8c67p+2", "0x1.47ddb9bc5cbe1p-6"),
    ("disk.plain", 77): ("0x1.0d1a1aaebb5bcp+2", "0x1.2df1626944939p-7"),
    ("disk.plain", 78): ("0x1.0bfa2425a0336p+2", "0x1.2ab4c239d363dp-7"),
    ("disk.reflected", 77): ("0x1.e63cd919880a7p+0", "0x1.691835b1f20fep-9"),
    ("disk.reflected", 78): ("0x1.e63cb6fd91ecbp+0", "0x1.690299d52ef78p-9"),
    ("projection.blowup.n2", 77): ("0x1.3334f9f26b1bcp+1 0x1.001390e762397p+2", "0x1.9533529e485bbp-5"),
    ("projection.blowup.n2", 78): ("0x1.36a82820fb472p+1 0x1.00660dafa0e92p+2", "0x1.ae200dc92f83ap-5"),
    ("projection.blowup.n3", 77): ("-0x1.df9fc36c35e5cp+2 0x1.54ebb56bea64bp+2", "0x1.eed8d5526b83ep-1"),
    ("projection.blowup.n3", 78): ("-0x1.eed30f49984b6p+2 0x1.0b1cfad503907p+2", "0x1.b44137bc7dd29p-1"),
    ("projection.monomial.n2", 77): ("-0x1.6972da734f7e8p-8 -0x1.31e183a34378fp-4", "0x1.33a6f6f287e2fp-8"),
    ("projection.monomial.n2", 78): ("0x1.0aa8d6deb36fap-9 -0x1.2036a7251b584p-4", "0x1.32a5bc4743c6ap-8"),
    ("projection.monomial.n3", 77): ("-0x1.30b6cb4dd0b68p-4 -0x1.c59bdbc576b73p-5", "0x1.35595dae0a7e5p-6"),
    ("projection.monomial.n3", 78): ("-0x1.387d164ee0de0p-4 -0x1.89f6eeedcf911p-5", "0x1.30b5b423775dbp-6"),
    ("pullback.affine4", 77): ("0x1.6ee2b788f290dp-6", "0x1.b0c9d16eabb21p-11", "0x1.88b1c5c7b70d4p-6", "0x1.995107903426ep-12"),
    ("pullback.affine4", 78): ("0x1.7bd4e023f2fbfp-6", "0x1.c80095669abf2p-11", "0x1.86f60373e76ddp-6", "0x1.95806ede9fc28p-12"),
    ("pullback.rational3", 77): ("0x1.26eb407b3bf67p-4", "0x1.cff89c0ea86b0p-10", "0x1.0e9df5218de53p-4", "0x1.99b73d3aa07d8p-11"),
    ("pullback.rational3", 78): ("0x1.1445a9e2deaa5p-4", "0x1.b94da88e9bb73p-10", "0x1.0b631d22405f0p-4", "0x1.96163050e900dp-11"),
    ("sphere.k1", 77): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("sphere.k1", 78): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("sphere.k2", 77): ("0x1.5418cf33d434cp-4", "0x1.9282b48b85a5ep-13"),
    ("sphere.k2", 78): ("0x1.55ba88ca09674p-4", "0x1.91e2a1921368fp-13"),
    ("sphere.k3", 77): ("0x1.12275a90e72dcp-5", "0x1.1a7b45117966bp-13"),
    ("sphere.k3", 78): ("0x1.1249011b62413p-5", "0x1.1ada6d440cb7ep-13"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_estimator_bits(case, seed, workers):
    assert CASES[case](seed, workers) == PINS[case, seed]


def _hartogs_pairs(name: str, rows: int, seed: int):
    spec = (domains.HartogsDomainSpec.standard(3, 1) if name == "standard"
            else builtin_example(name))
    std = spec.standardized()
    points = []
    for part in (0, 1):
        w = domains.sample_product_model(std, rows, seed + part, r_max=0.95, disk_r_min=0.05)
        points.append(domains.from_standard_model(
            spec, domains.from_product_model(spec.n, spec.k, w)))
    return spec, points


KERNEL_PINS = {
    "standard": "72b37a0a66515d416f54d02ea1c1dfc16fe49f09766e9d457c1a28d0db616323",
    "affine4": "26df151fbf95fb2e83474e6ec60a63bacd9a247dbc9aac8db7964061f5e6d1aa",
    "rational3": "3610bc96e6902327ab16b112a59bf087c6042454cff4bfabbe46f354f312f91d",
}


@pytest.mark.parametrize("name", ["standard", "affine4", "rational3"])
def test_kernel_hartogs_bits_on_several_row_blocks(name):
    rows = mc.CHUNK_SIZE + 7232
    spec, (z, zeta) = _hartogs_pairs(name, rows, 5)
    out = kernels.kernel_hartogs(spec, z, zeta)
    assert out.shape == (rows,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == KERNEL_PINS[name]


# A k = 2 ball block next to a k = 1 block: the product model's factor list
# in the sampler, the projection, both kernels and the Schur verifier.
BLOCK_SPEC = domains.HartogsDomainSpec.standard(5, (2, 1))


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _block_pairs():
    return (domains.sample_product_model(BLOCK_SPEC, 5000, seed, r_max=0.95, disk_r_min=0.05)
            for seed in (5, 6))


def _block_projection(workers):
    est, err = kernels.mc_bergman_projection(
        BLOCK_SPEC, lambda z: special.monomial(z, (1, 2, 0, 1, 0)),
        np.array([0.1 + 0.1j, -0.2j, 0.15, 0.4 - 0.2j, 0.3 + 0.7j]), SAMPLES, 77, workers)
    return np.array([est.real, est.imag, err])


def _block_schur(name):
    report = schur_verify(5, 3, 1.9, feasible_params(5, 3, 1.9), NumericConfig(seed=11),
                          blocks=(2, 1), samples=500)
    return getattr(report, name)


BLOCK_CASES = {
    "sampler": lambda: domains.sample_product_model(BLOCK_SPEC, SAMPLES, 77,
                                                    r_max=0.95, disk_r_min=0.05),
    "projection.w1": lambda: _block_projection(1),
    "projection.w2": lambda: _block_projection(2),
    "kernel_product": lambda: kernels.kernel_product(BLOCK_SPEC, *_block_pairs()),
    "kernel_truncated": lambda: kernels.kernel_truncated(("product", BLOCK_SPEC), 7,
                                                         *_block_pairs()),
    "schur.cond1": lambda: _block_schur("cond1"),
    "schur.cond2": lambda: _block_schur("cond2"),
}

BLOCK_PINS = {
    "sampler": "6db1823880757210cac8c780a49cd0b24c73ee59fdac4527dd607669f8dcf1a1",
    "projection.w1": "128e746ba290a5edb60e7733cf4d280e341ea9b67054f115c87db3bfdc6cf769",
    "projection.w2": "128e746ba290a5edb60e7733cf4d280e341ea9b67054f115c87db3bfdc6cf769",
    "kernel_product": "91b7cbcf99cc3d7133b5a3016997323502971268a53e9b354dfbd569da57f800",
    "kernel_truncated": "65e99cd64b3169c044de29c52bd3cfd16f302edac0dbe7b162dcab8e3273d48b",
    "schur.cond1": "e16f103276f764011856111c64d81a73cbc1b948dab2c7bfc5e4d55554db55bc",
    "schur.cond2": "94d8f8b2a282d771374b1893a240a0b5468d3473a60da065be321a24da73951a",
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_two_block_bits(case):
    assert _sha(BLOCK_CASES[case]()) == BLOCK_PINS[case]
