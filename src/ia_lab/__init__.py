"""Desk-scale interference-alignment experiments for the K-user channel."""

from .channels import (ChannelSet, ExtendedChannel, extend_channel, generate_channels,
                       load_channels, save_channels)
from .designed import (DelayMatrix, build_designed_channel, check_delay_parity,
                       simulate_delay_schedule)
from .errors import (ChannelFileError, DegeneracyError, IaLabError,
                     InsufficientDataError, ParameterError, RegionMembershipError,
                     ShapeError, SingularChannelError, SizeGuardError)
from .evaluation import (CognitiveScenario, DofEstimate, GapProbe, RateRecord,
                         RateTable, SchemeConfig, cognitive_dof,
                         decompose_dof_point, estimate_dof, estimate_o1_gap,
                         in_dof_region, sample_dof_region, snr_sweep,
                         REGION_CORNERS)
from .mimo import build_mimo_even, build_mimo_odd, loop_matrix
from .receiver import AlignmentReport, check_alignment, zf_rates
from .schemes import PrecoderScheme, save_scheme, scheme_to_dict
from .siso import (build_precoders_general, build_precoders_k3,
                   cross_pair_gains, guarded_extension_general, loop_gains,
                   required_extension_general)
from .verification import (RankProbe, VandermondeCheck,
                           demonstrate_diagonal_infeasibility,
                           diagonal_channels, separability_matrix,
                           vandermonde_check)

__version__ = "0.1.0"
