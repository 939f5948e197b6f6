import dataclasses

import numpy as np

from ia_lab.channels import ChannelSet
from ia_lab.receiver import ReceiverCheck


def identity_channels(K=3, F=3):
    """All-ones scalar links; violates slot distinctness on purpose."""
    coeffs = np.ones((K, K, F, 1, 1), dtype=complex)
    return ChannelSet(K=K, M=1, F=F, a_min=1.0, a_max=1.0, seed=0, coeffs=coeffs)


def interference_at(scheme, ext, k):
    """Receiver k's interference of one trial: every other transmitter's
    precoder through its link, side by side in transmitter order."""
    return np.hstack([ext.apply(k, j, scheme.precoders[j])
                      for j in range(scheme.K) if j != k])


def corrupt(scheme, seed):
    """Transmitter 2's precoder replaced by a random one: receiver 1 then
    sees unaligned interference, and its relation fails (its check, too,
    where it takes the complement of all its interference)."""
    rng = np.random.default_rng(seed)
    v = scheme.precoders[1]
    broken = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    return dataclasses.replace(
        scheme, precoders=(scheme.precoders[0], broken) + scheme.precoders[2:])


def steer(scheme, ext):
    """One trial's transmitter 2 precoder steered so that its image at
    receiver 1 lies on receiver 1's first desired columns: receiver 1's
    interference swallows part of its desired signal, and its check fails
    whether its complement comes from that image or from all its
    interference."""
    v1, v2 = scheme.precoders[:2]
    image = ext.apply(0, 0, v1[:, :v2.shape[-1]])
    return dataclasses.replace(scheme, precoders=(
        v1, np.linalg.solve(ext.matrix(0, 1), image)) + scheme.precoders[2:])


def stacked(pairs):
    """One stacked (scheme, ext) of one-trial pairs of one family and shape;
    each precoder keeps its memory layout in its row."""
    scheme = dataclasses.replace(pairs[0][0], precoders=tuple(
        np.stack(v) for v in zip(*(s.precoders for s, _ in pairs))))
    ext = dataclasses.replace(pairs[0][1], seed=tuple(e.seed for _, e in pairs),
                              coeffs=np.stack([e.coeffs for _, e in pairs]))
    return scheme, ext


def pass_checks(scheme, ext, ranks, t=0):
    """Trial t's ReceiverChecks from the rank arrays of a receiver pass, in
    receiver order, up to its first failing or unreached receiver; a pass
    with gains leaves every desired rank at -1."""
    out = []
    for k, (desired, interference, joint) in enumerate(ranks[..., t].T.tolist()):
        if interference < 0:
            break
        out.append(ReceiverCheck(k, scheme.stream_counts[k], desired, interference, joint,
                                 ext.dim))
        if not out[-1].ok:
            break
    return tuple(out)


def without_desired(checks):
    """ReceiverChecks with the desired rank a pass with gains leaves at -1."""
    return tuple(dataclasses.replace(check, desired_rank=-1) for check in checks)
