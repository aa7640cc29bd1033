"""Shared utilities: seeded random-number helpers, validation and binning."""

from repro.utils.rng import default_rng
from repro.utils.validation import normalise
from repro.utils.binning import bin_edges, bin_index, histogram_percentages
from repro.utils.timing import Timer

__all__ = [
    "default_rng",
    "normalise",
    "bin_edges",
    "bin_index",
    "histogram_percentages",
    "Timer",
]
