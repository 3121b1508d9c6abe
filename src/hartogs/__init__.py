"""Bergman-kernel machinery for generalized Hartogs domains.

Submodules: domains (specs, maps, sampling), kernels (closed-form and
truncated kernels, MC projection), estimates (sphere moments, weighted
ball/disk integrals), schur (feasibility windows and the sharp p-range),
counterexample (endpoint blow-up sequence), transfer (Jacobian bounds and
norm transfer), cli (command-line front end).

The names below load their home module on first access (PEP 562), so that
`import hartogs.cli` loads no module a subcommand does not run.
"""

__all__ = ["DEFAULT_CONFIG", "NumericConfig", "HartogsDomainSpec", "MapFamily"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("DEFAULT_CONFIG", "NumericConfig"):
        from . import config as home
    elif name in ("HartogsDomainSpec", "MapFamily"):
        from . import domains as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
