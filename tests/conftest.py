import dataclasses
import importlib.util
import os
import pathlib

# one BLAS thread for the whole suite, set before numpy starts: OpenBLAS's
# spinning threads stall a run that shares its cores with other work, and the
# last bits of L=275 rates change with the thread count
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np

from ia_lab.channels import ChannelSet
from ia_lab.linalg import _rank, complement_and_rank, equilibrate_columns
from ia_lab.receiver import ReceiverCheck


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(monkeypatch, name):
    """The module of ``scripts/<name>.py``, loaded."""
    # output_digest pins BLAS threads in os.environ; restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity_channels(K=3, F=3):
    """All-ones scalar links; violates slot distinctness on purpose."""
    coeffs = np.ones((K, K, F, 1, 1), dtype=complex)
    return ChannelSet(K=K, M=1, F=F, a_min=1.0, a_max=1.0, seed=0, coeffs=coeffs)


def interference_at(scheme, ext, k):
    """Receiver k's interference of one trial: every other transmitter's
    precoder through its link, side by side in transmitter order."""
    return np.hstack([ext.apply(k, j, scheme.precoders[j])
                      for j in range(scheme.K) if j != k])


def dense_receivers(scheme, ext):
    """The dense oracle of one trial's receiver checks and gains, written out
    with 2-D arrays: per receiver k, (interference rank, joint rank, gains)
    from the full-U SVD of k's whole interference, columns equilibrated. The
    joint rank adds the rank of the equilibrated desired columns projected
    onto the complement, counted from RANK_TOL times 1, and the gains are
    the squared singular values of the projected desired channel through
    unit-norm precoder columns."""
    out = []
    for k in range(scheme.K):
        basis, rank = complement_and_rank(equilibrate_columns(interference_at(scheme, ext, k)))
        desired = ext.apply(k, k, equilibrate_columns(scheme.precoders[k]))
        projected = basis.conj().T @ equilibrate_columns(desired)
        kept = _rank(np.linalg.svd(projected, compute_uv=False), scale=1.0)
        gains = np.linalg.svd(basis.conj().T @ desired, compute_uv=False) ** 2
        out.append((rank, rank + kept, gains))
    return out


def dense_rates(scheme, ext, rhos):
    """The dense oracle's per-user rates of one trial at every total power
    in ``rhos``, as a (len(rhos), K) array: over receiver k's gains g,
    sum log2(1 + p_k g) / L with p_k = (rho / K) * L / d_k per stream."""
    rhos = np.asarray(rhos, dtype=float)
    L, K = ext.F, scheme.K
    out = np.empty((rhos.size, K))
    for k, (*_, g) in enumerate(dense_receivers(scheme, ext)):
        p = (rhos / K) * L / g.size
        out[:, k] = np.sum(np.log2(1.0 + p[:, None] * g), axis=1) / L
    return out


def replaced(scheme, precoders):
    """``scheme`` with ``precoders``, keeping the complement its build kept
    of every transmitter whose precoder stays."""
    out = dataclasses.replace(scheme, precoders=precoders)
    out.complements.update((j, u) for j, u in scheme.complements.items()
                           if precoders[j] is scheme.precoders[j])
    return out


def corrupt(scheme, seed):
    """Transmitter 2's precoder replaced by a random one: receiver 1 then
    sees unaligned interference, and its relation fails (its check, too, in
    the dense oracle, which takes the complement of all its interference)."""
    rng = np.random.default_rng(seed)
    v = scheme.precoders[1]
    broken = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    return replaced(scheme, (scheme.precoders[0], broken) + scheme.precoders[2:])


def steer(scheme, ext):
    """One trial's transmitter 2 precoder steered so that its image at
    receiver 1 lies on receiver 1's first desired columns: receiver 1's
    interference swallows part of its desired signal, and its check fails
    whether its complement comes from that image or from all its
    interference."""
    v1, v2 = scheme.precoders[:2]
    image = ext.apply(0, 0, v1[:, :v2.shape[-1]])
    return replaced(scheme, (v1, np.linalg.solve(ext.matrix(0, 1), image))
                    + scheme.precoders[2:])


def stacked(pairs):
    """One stacked (scheme, ext) of one-trial pairs of one family and shape;
    each precoder keeps its memory layout in its row, and the complement
    every scheme keeps of a transmitter is kept, stacked row by row."""
    schemes = [s for s, _ in pairs]
    scheme = dataclasses.replace(schemes[0], precoders=tuple(
        np.stack(v) for v in zip(*(s.precoders for s in schemes))))
    scheme.complements.update((j, np.stack([s.complements[j] for s in schemes]))
                              for j in schemes[0].complements
                              if all(j in s.complements for s in schemes))
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
