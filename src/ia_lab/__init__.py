"""Desk-scale interference-alignment experiments for the K-user channel."""

import ctypes
import os

from .channels import (ChannelSet, extend_channel, generate_channels, load_channels,
                       save_channels)
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


def _keep_freed_heap() -> None:
    """Let glibc keep freed heap for reuse instead of handing it back to the
    kernel at once. ``import ia_lab`` sets glibc's mmap and trim thresholds
    for the whole host process, not only for ia_lab's own arrays. A trial at
    L=275 allocates and frees about 12 MiB of temporaries, none over about 2
    MiB; glibc's adaptive rule trims the heap past twice the largest block
    freed so far, so it handed the heap back after every trial, and the next
    faulted it in again (about 3000 minor faults). The values set are those
    the rule reaches at its cap; other C libraries are left as they are."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()
