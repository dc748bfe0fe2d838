"""phaseagg: secure gradient aggregation over reciprocal channel phases.

A deterministic simulator and library for federated learning where each
client hides its quantized gradient update behind phase rotations derived
from reciprocal wireless channel measurements.  The masks cancel exactly
in the aggregate, dropped clients can be corrected for, and the privacy
and overhead claims are checked statistically and by exact counting.
"""

from . import analysis, channel, codec, config, fl, masking, protocol, rng, transcript, turns
from .analysis import (
    chi_square_uniformity,
    delayed_client_attack,
    difference_leak_probe,
    exact_masking_information,
    mutual_information_estimate,
    verify_overhead,
)
from .channel import ChannelMatrix, get_phase, sample_round_channel
from .codec import (
    FecConfig,
    QuantizationConfig,
    decode_sum,
    dequantize_mean,
    fec_decode,
    fec_encode,
    modulate,
    quantize,
)
from .config import ALG1, ALG2
from .errors import PhaseAggError
from .fl import (
    ClientDataset,
    ClientDatasets,
    client_digits,
    compute_gradient,
    run_training,
    sgd_update,
)
from .masking import (
    GroupAssignment,
    MaskedSymbols,
    apply_mask,
    assign_subgroups,
    assign_two_groups,
    compute_group_mask,
    sample_private_phase,
    two_group_from_sides,
)
from .protocol import (
    client_message,
    dropout_correction,
    ps_aggregate_and_decode,
    run_iteration,
    run_round,
)
from .transcript import ClientMessage, RoundTranscript

__version__ = "0.1.0"
