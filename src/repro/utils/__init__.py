"""Small shared helpers: argument validation, RNG plumbing and sampling."""

from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_fraction,
    check_probability,
    check_int_at_least,
    check_array_1d_ints,
)
from repro.utils.rng import SeedLike, derive_rng, ensure_rng
from repro.utils.sampling import (
    InverseCDFSampler,
    first_occurrences,
    spatial_hash_sample_mask,
    sample_queries_spatially,
    zipf_probabilities,
)

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_fraction",
    "check_probability",
    "check_int_at_least",
    "check_array_1d_ints",
    "SeedLike",
    "derive_rng",
    "ensure_rng",
    "InverseCDFSampler",
    "first_occurrences",
    "spatial_hash_sample_mask",
    "sample_queries_spatially",
    "zipf_probabilities",
]
