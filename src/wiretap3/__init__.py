"""Secrecy rate tools for 3-receiver broadcast channels.

Subpackages map one-to-one onto the toolkit's concerns:

- probability: finite-alphabet distributions and information measures
- specfmt: the shared channel-spec text format
- orderings: degraded / less-noisy / more-capable channel orderings
- bounds: rate expressions, rate regions, and their maximization
- fme: exact rational Fourier-Motzkin elimination on inequality systems
- simulate: finite-blocklength random-binning code simulation
- fig1: the hard-coded multilevel product example channel
- cli: the command line entry point
"""

from .bounds import (  # noqa: F401
    AuxSpec,
    BoundResult,
    BroadcastChannels,
    MultilevelChannel,
    RateRegionSample,
    maximize,
)
from .optim import SearchBudget  # noqa: F401
from .probability import (  # noqa: F401
    AxisError,
    ConditionalPmf,
    DistributionError,
    Factor,
    FactoredDistribution,
    JointPmf,
    Pmf,
    bsc,
    cascade,
    entropy,
    erasure_channel,
    erase_further,
    product_channel,
)

__version__ = "0.1.0"
