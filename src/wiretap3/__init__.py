"""Secrecy rate tools for 3-receiver broadcast channels.

Subpackages map one-to-one onto the toolkit's concerns:

- probability: finite-alphabet distributions and information measures
- specfmt: the shared channel-spec text format
- orderings: degraded / less-noisy / more-capable channel orderings
- bounds: rate expressions, rate regions, and their maximization
- fme: exact rational Fourier-Motzkin elimination on inequality systems
- simulate: finite-blocklength random-binning code simulation
- streams: numpy's seeded random streams, a block of streams at a time
- fig1: the hard-coded multilevel product example channel
- cli: the command line entry point

The names below are re-exported lazily: a submodule is imported when one
of its names is first read, so ``import wiretap3`` loads none of them.
"""

import importlib

_EXPORTS = {
    "bounds": ("AuxSpec", "BoundResult", "BroadcastChannels", "MultilevelChannel",
               "RateRegionSample", "maximize"),
    "optim": ("SearchBudget",),
    "probability": ("AxisError", "ConditionalPmf", "DistributionError", "Factor",
                    "FactoredDistribution", "JointPmf", "Pmf", "bsc", "cascade", "entropy",
                    "erasure_channel", "erase_further", "product_channel"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # an AttributeError for any other name lets ``from wiretap3 import fme``
    # fall through to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
