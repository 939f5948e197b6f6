"""The scheme families, one record each; no other module branches on a
family name. Record functions call the builders by their module-global
names at call time, so whatever rebinds those names (a tracer, a test
double) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .channels import extend_channel
from .designed import build_designed_channel
from .errors import ParameterError
from .mimo import build_mimo_even, build_mimo_odd
from .siso import (build_precoders_general, build_precoders_k3,
                   guarded_extension_general, required_extension_general)


@dataclass(frozen=True)
class Family:
    """One scheme family; ``config`` has fields K, M, n, a_min, a_max and
    size_cap."""

    check: Callable  # (K, M) -> None; ParameterError if the family cannot build them
    default_M: int
    # config -> (L, total streams) of the schemes it builds, L unguarded
    # by size_cap; their ratio is the claimed degrees of freedom
    extension: Callable
    channel_shape: Callable  # config -> (K, M, F) one realization draws, None if fixed
    # (config, ChannelStack) -> (trial, slots), the builder's own result:
    # trial is the stacked (scheme, extended channel) of the channel sets
    # that built, selected once at the build's end, and slots[t] is set t's
    # row in it or the TRIAL_ERRORS instance its build gives; a family that
    # draws no channels takes None and gives its one trial as the stack of one
    build: Callable
    # K -> (kind, receiver k, description, j, i) of every promised relation
    # between transmitter j's precoder seen at receiver k (left) and
    # transmitter i's (right); kind is equality, subset (left's columns
    # among right's) or span
    relations: Callable
    # what changes what the family builds besides K and M: configuration
    # fields, and "seed" for the channel seed of the families that draw
    # channels; the others have no effect on it
    reads: tuple
    # K -> per receiver k, the transmitter j whose image H_kj span(V_j) spans
    # k's interference once the relations hold, or None where k takes the
    # dense complement of its interference; None if every receiver does. An
    # image only k names is decomposed at k, from j's columns among k's
    # products; one several receivers name is decomposed once per stack, as
    # V_j, and carried to each by H_kj^{-H}
    interference_image: Callable = None


def _require(ok: bool, requirement: str) -> None:
    if not ok:
        raise ParameterError(requirement)


def _k3_build(config, channels):
    ext = extend_channel(channels, 2 * config.n + 1)
    return build_precoders_k3(ext, config.n)


def _k3_relations(K):
    yield ("equality", 0, "rx1: interference from tx2 equals interference from tx3", 1, 2)
    yield ("subset", 1, "rx2: interference from tx3 within interference from tx1", 2, 0)
    yield ("subset", 2, "rx3: interference from tx2 within interference from tx1", 1, 0)


def _general_extension(c):
    big_n = (c.K - 1) * (c.K - 2) - 1
    return (required_extension_general(c.K, c.n),
            (c.n + 1) ** big_n + (c.K - 1) * c.n ** big_n)


def _general_build(config, channels):
    ext = extend_channel(channels, guarded_extension_general(channels.K, config.n,
                                                             config.size_cap))
    return build_precoders_general(ext, config.n, size_cap=config.size_cap)


def _general_relations(K):
    for j in range(2, K):
        yield ("equality", 0,
               f"rx1: interference from tx{j + 1} equals interference from tx2", j, 1)
    for i in range(1, K):
        for j in range(1, K):
            if j != i:
                yield ("subset", i, f"rx{i + 1}: interference from tx{j + 1} within tx1's",
                       j, 0)


def _mimo_build(config, channels):
    odd = channels.M % 2
    ext = extend_channel(channels, 1 + odd, mode="constant-time")
    return (build_mimo_odd if odd else build_mimo_even)(ext)


def _mimo_relations(K):
    yield ("span", 0, "rx1: spans of interference from tx2 and tx3 coincide", 1, 2)
    yield ("equality", 1, "rx2: interference from tx1 equals interference from tx3", 0, 2)
    yield ("equality", 2, "rx3: interference from tx1 equals interference from tx2", 0, 1)


def _designed_build(config, channels):
    ext, scheme = build_designed_channel(config.K)
    return (scheme[None], ext[None]), (0,)


def _designed_relations(K):
    for k in range(K):
        others = [j for j in range(K) if j != k]
        for j in others[1:]:
            yield ("equality", k,
                   f"rx{k + 1}: interference from tx{j + 1} equals tx{others[0] + 1}'s",
                   j, others[0])


FAMILIES = {
    "siso-k3": Family(
        check=lambda K, M: _require((K, M) == (3, 1), "siso-k3 requires K=3, M=1"),
        default_M=1, extension=lambda c: (2 * c.n + 1, 3 * c.n + 1),
        channel_shape=lambda c: (3, 1, 2 * c.n + 1),
        build=_k3_build, relations=_k3_relations,
        reads=("n", "a_min", "a_max", "seed"),
        # the equality relation puts receiver 1's interference in tx2's image,
        # the subset relations receivers 2 and 3's in tx1's
        interference_image=lambda K: (1, 0, 0)),
    "siso-general": Family(
        check=lambda K, M: _require(K >= 3 and M == 1, "siso-general requires K>=3, M=1"),
        default_M=1, extension=_general_extension,
        channel_shape=lambda c: (c.K, 1, guarded_extension_general(c.K, c.n, c.size_cap)),
        build=_general_build, relations=_general_relations,
        reads=("n", "a_min", "a_max", "size_cap", "seed"),
        interference_image=lambda K: (1,) + (0,) * (K - 1)),
    "mimo": Family(
        check=lambda K, M: _require(K == 3 and M >= 2, "mimo requires K=3, M>=2"),
        # even M: M/2 streams each on one slot; odd M: M each over two
        default_M=2, extension=lambda c: (1, 3 * c.M // 2) if c.M % 2 == 0 else (2, 3 * c.M),
        channel_shape=lambda c: (3, c.M, 1),
        build=_mimo_build, relations=_mimo_relations,
        reads=("a_min", "a_max", "seed")),
    "designed": Family(
        check=lambda K, M: _require(K >= 2 and M == 1, "designed requires K>=2, M=1"),
        default_M=1, extension=lambda c: (2, c.K),
        channel_shape=lambda c: None,
        build=_designed_build, relations=_designed_relations, reads=()),
}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown family {name!r}, expected one of {tuple(FAMILIES)}") from None
