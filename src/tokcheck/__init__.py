"""tokcheck: mechanical soundness checks for tokenizers as stochastic-map pairs.

Represents a tokenizer as an encoder/decoder pair of stochastic maps over
truncated string spaces and verifies, with exact rational arithmetic:
round-trip exactness, consistency with respect to a distribution,
structural classification (determinism, bijectivity, multiplicativity,
trivial kernel, prefix monotonicity), finite preimage enumeration with its
counting bound, marginalization, spurious ambiguity mass, bounded
variation, and equivalence of the greedy encoder with its subsequential
transducer compilation.
"""

from .dist import (
    Dist,
    EstimatorTrace,
    empirical,
    kl_divergence,
    l1_distance,
    point_mass,
    sample,
    sample_counts,
    tv_distance,
)
from .encoders import (
    MergeList,
    Vocab,
    bpe_encode,
    bpe_tokenizer,
    concat_decoder,
    decode_tokens,
    maximal_munch_encode,
    munch_encoder,
    munch_tokenizer,
    segmentations,
    uniform_segmenter,
    uniform_tokenizer,
)
from .reports import ClassificationReport, ProbeReport, Verdict
from .sim import SimSummary, bias, run_estimation
from .stochmap import (
    StochMap,
    compose,
    identity_map,
    is_deterministic,
    is_injective,
    is_surjective,
    kernel_at,
    materialize,
    pushforward,
    support_of,
)
from .strings import (
    CHARACTERS,
    TOKENS,
    Alphabet,
    Space,
    Str,
    concat,
    enumerate_strings,
    from_labels,
    is_prefix,
    left_distance,
    longest_common_prefix,
    parse_str,
)
from .tokenizer import (
    Tokenizer,
    bounded_variation_probe,
    classify,
    decoder_eligibility,
    exact_iff_all_consistent_probe,
    is_consistent_wrt,
    is_exact,
    marginalize,
    preimage_bound,
    preimages,
    spurious_ambiguity_mass,
)
from .transducer import (
    SubseqTransducer,
    build_maximal_munch_transducer,
    equivalent_on,
    run,
    run_path,
    sequential_of,
)

__version__ = "0.1.0"
