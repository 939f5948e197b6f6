"""Tests of the benchmark's own machinery (not of ia_lab).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import numpy as np
import pytest

import ia_lab
import bench
import gate
import tracing
import workloads


def span(id, start, end, parent=-1, name="x"):
    return tracing.Span(id, name, start, end, parent, 0, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: charged to span 1 only
        span(3, 5.0, 7.5, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, parent=0),
             span(2, 3.0, 12.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_counts_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return tracer.call("linalg.numerical_rank", inner, (x,), {})

    tracer.begin_unit(7)
    assert tracer.call("receiver.zf_rates", outer, (1,), {}) == 1
    with pytest.raises(ValueError):
        tracer.call("receiver.zf_rates", outer, (-1,), {})
    spans = tracer.spans
    assert [s.name for s in spans] == ["receiver.zf_rates", "linalg.numerical_rank"] * 2
    assert [s.parent for s in spans] == [-1, 0, -1, 2]
    assert all(s.sweep == 7 for s in spans)
    assert tracer.errors["receiver.zf_rates"] == 1
    assert tracer.errors["linalg.numerical_rank"] == 1


def _bindings():
    return {(name, attr): value
            for name, module in sorted(vars(ia_lab).items())
            if getattr(module, "__name__", "").startswith("ia_lab.")
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_wraps_every_lookup_name_and_restores_it():
    before = _bindings()
    matrix = ia_lab.channels.ExtendedChannel.__dict__["matrix"]
    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS["slopes_suite"]
    with tracing.traced(tracer):
        # the names callers look up are wrapped, not only the defining ones
        assert ia_lab.evaluation.generate_channels.__wrapped__ is before[
            ("channels", "generate_channels")]
        assert ia_lab.receiver.numerical_rank.__wrapped__ is before[
            ("linalg", "numerical_rank")]
        assert ia_lab.siso.singular_values.__wrapped__ is before[
            ("linalg", "singular_values")]
        tracer.begin_unit(0)
        result = workloads.run_sweep(workload, 3, workload.cases[3].roots[0])
    assert result.ok == workload.cases[3].trials
    assert _bindings() == before
    assert ia_lab.channels.ExtendedChannel.__dict__["matrix"] is matrix
    names = {s.name for s in tracer.spans}
    assert {"evaluation.snr_sweep", "channels.generate_channels",
            "siso.build_precoders_general", "receiver.check_alignment",
            "receiver.zf_rates", "linalg.numerical_rank",
            "linalg.singular_values", "channels.ExtendedChannel.matrix"} <= names
    trials = {s.trial for s in tracer.spans if s.name == "receiver.zf_rates"}
    assert trials == set(range(workload.cases[3].trials))
    metrics = tracing.layer_metrics(tracer, workload.cases[3].trials)
    assert metrics["receiver.check_alignment.pass_ratio"][0] == 1.0
    assert metrics["channels.blocks_drawn"][0] == 4 * 4 * 33


def test_restore_after_an_exception_inside_the_traced_block():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_fingerprint_check_fails_on_a_perturbed_coefficient():
    config = workloads.SLOPES_CASES[0].config
    seed = 12345
    expected = {seed: gate.trial_fingerprint(config, seed)}
    ch = ia_lab.channels.generate_channels(3, 1, 3, seed=seed)
    assert gate.fingerprint_mismatches(
        expected, {seed: gate.channel_fingerprint(ch.coeffs)}) == []
    perturbed = ch.coeffs.copy()
    perturbed[1, 2, 0, 0, 0] = np.nextafter(perturbed[1, 2, 0, 0, 0].real, 10.0) \
        + 1j * perturbed[1, 2, 0, 0, 0].imag
    mismatches = gate.fingerprint_mismatches(
        expected, {seed: gate.channel_fingerprint(perturbed)})
    assert len(mismatches) == 1 and str(seed) in mismatches[0]


def test_gate_flags_a_perturbed_coefficient_in_a_run(monkeypatch):
    workload = workloads.WORKLOADS["gap_mimo_fine_grid"]
    obs = gate.Observations(workload)
    root = workload.cases[0].roots[0]
    obs.add(0, root, workloads.run_sweep(workload, 0, root))
    reference = gate.load_reference(bench.REFERENCE)
    assert gate.check(obs, reference).problems == []

    original = ia_lab.channels.generate_channels

    def perturbed(*args, **kwargs):
        ch = original(*args, **kwargs)
        coeffs = ch.coeffs.copy()
        coeffs[0, 1, 0, 0, 0] *= 1.0 + 2.0 ** -52
        return ia_lab.channels.ChannelSet(ch.K, ch.M, ch.F, ch.a_min, ch.a_max,
                                          ch.seed, coeffs)

    monkeypatch.setattr(ia_lab.channels, "generate_channels", perturbed)
    problems = gate.check(obs, reference).problems
    assert problems and all("fingerprint" in p for p in problems)
