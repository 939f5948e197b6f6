"""The benchmark's trace mode (``perfbench/run.py --trace 1``) wraps every
name in ``perfbench/tracing.py``'s ``LAYER_FUNCTIONS``; renaming or deleting
one of those functions in ia_lab breaks it. These tests run the benchmark's
own tracer against the package, so such a change fails here first.
"""

import pathlib
import sys

import pytest

import ia_lab
from ia_lab import SchemeConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def bindings():
    """Every attribute of every loaded ia_lab module, and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ia_lab" or name.startswith("ia_lab.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, member in vars(value).items():
                    out[(name, f"{attr}.{cls_attr}")] = member
    return out


def test_install_wraps_every_traced_name_and_restore_puts_it_back(tracing):
    before = bindings()
    patches = tracing.install(tracing.Tracer())
    try:
        assert patches
        wrapped = bindings()
        for module in ("ia_lab.receiver", "ia_lab.evaluation"):
            assert wrapped[(module, "zf_rates")] is not before[(module, "zf_rates")]
    finally:
        tracing.restore(patches)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_sweep_records_the_receiver_pass(tracing):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        # through the package, whose binding the tracer wraps too
        table = ia_lab.snr_sweep(SchemeConfig("siso-k3", n=1), [40.0, 60.0],
                                 trials=2, seed=0)
    assert all(r.status == "ok" for r in table.records)
    spans = {s.id: s for s in tracer.spans}
    receiver = [s for s in spans.values() if s.name == "receiver.zf_rates"]
    assert receiver
    assert all(spans[s.parent].name == "evaluation.snr_sweep" for s in receiver)


# per family, the builder a sweep calls and the relation kinds it checks
FAMILY_SPANS = {
    "siso-k3": (SchemeConfig("siso-k3", n=1), "siso.build_precoders_k3",
                ("equality", "subset")),
    "siso-general": (SchemeConfig("siso-general", K=4, n=1),
                     "siso.build_precoders_general", ("equality", "subset")),
    "mimo even": (SchemeConfig("mimo", M=2), "mimo.build_mimo_even", ("span", "equality")),
    "mimo odd": (SchemeConfig("mimo", M=3), "mimo.build_mimo_odd", ("span", "equality")),
    "designed": (SchemeConfig("designed", K=3), "designed.build_designed_channel",
                 ("equality",)),
}


@pytest.mark.parametrize("family", list(FAMILY_SPANS))
def test_traced_sweep_records_the_builder_and_every_relation_kind(tracing, family):
    config, builder, kinds = FAMILY_SPANS[family]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        table = ia_lab.snr_sweep(config, [40.0, 60.0], trials=3, seed=0)
    assert all(r.status == "ok" for r in table.records)
    names = {s.name for s in tracer.spans}
    assert builder in names
    assert {f"linalg.{kind}_residual" for kind in kinds} <= names


def test_traced_siso_general_sweep_records_its_subset_residuals(tracing):
    # the benchmark's linalg.subset_residual metrics read these spans, so
    # the receiver pass must call the residual through the name the tracer
    # wraps: under every pass with gains, at least one span each
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        table = ia_lab.snr_sweep(SchemeConfig("siso-general", K=4, n=1), [40.0, 60.0],
                                 trials=3, seed=0)
    assert all(r.status == "ok" for r in table.records)
    spans = {s.id: s for s in tracer.spans}
    passes = {s.id for s in spans.values() if s.name == "receiver.zf_rates"}
    subset = [s for s in spans.values() if s.name == "linalg.subset_residual"]
    assert passes and subset
    assert {s.parent for s in subset} == passes
