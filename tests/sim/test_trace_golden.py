"""Traced DMA timelines pinned across commits.

``tests/sim/test_trace_equivalence*.py`` compare traced against
untraced runs of one build; a change that shifted the per-transfer
trace of both alike would pass them.  This file pins the sha256 of every
traced report's ``transfers`` (kind, label, words, start and finish of
each transfer, in trace order) for the 12 Table-1 experiments under
Basic, DS and CDS at the default DMA policy.  A digest changes only
when the simulated timeline or its labels change; regenerate the table
with :func:`transfers_digest` after a deliberate timing change.
"""

import hashlib
import json

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.schedule import BasicScheduler, DataScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.sim.engine import Simulator
from repro.workloads.spec import paper_experiments

SCHEDULERS = {
    cls.name: cls
    for cls in (BasicScheduler, DataScheduler, CompleteDataScheduler)
}

GOLDEN = {
    ('E1', 'basic'): "fedc63c8754c13e67cbe691ff3c854292ce83aec38e9b6f0065d3a8a9c250314",
    ('E1', 'ds'): "5c5253559e324ec1aceb20e9d2fa79b6e8c4853417b08f0d8e868d9f74a76ccd",
    ('E1', 'cds'): "0fffd5b30a94648da738dcd51bbcab4324afbb1a20672fd14a554f0093157804",
    ('E1*', 'basic'): "fedc63c8754c13e67cbe691ff3c854292ce83aec38e9b6f0065d3a8a9c250314",
    ('E1*', 'ds'): "902dd8b69f88244180121dd607036d355d7c5daf1661741f694f920d15dc56de",
    ('E1*', 'cds'): "3d2f3f0561d72693389033cce73d8354babdf203e8487606008932b91c0ea72d",
    ('E2', 'basic'): "4f1bf8d6d70cd76bafb059aeb25efb2f80d6a0b51ade4aeed6fa2ab199bd5b2a",
    ('E2', 'ds'): "adce684c11a6b74aa9ff93bc8bd4ffa97390c1991c36eea0180d337ecb2c565c",
    ('E2', 'cds'): "fa01ba2e51eae07c471aa1df60c4d2efe6c60dbb2b602ad4f2cbd048a1927483",
    ('E3', 'basic'): "30692b68acfe388af3619b3f29514ce83617f9db0051035ec5ade7cf3a03ec66",
    ('E3', 'ds'): "b9470dc47dbbbc573fa36d263c7b204a5723f811cb5ec9ff6da06ee125705830",
    ('E3', 'cds'): "af7f382e4f3fab8429ee721c84e89d7be17ee9d5f3c9aa10dc39c7ae55164400",
    ('MPEG', 'basic'): "1fb9c1195e86fd2b5a4f52ef71fc3d49c79113048b227b4ab6049a23530c1067",
    ('MPEG', 'ds'): "dd4bd55d65bdb20699fb6e275334d471d6017c92c7ca7427d3f034dd623329ed",
    ('MPEG', 'cds'): "900403e400ba77ac5a7cf413d5b3b43a2726bc6fb4991c6ee8bc341573b578f9",
    ('MPEG*', 'basic'): "1fb9c1195e86fd2b5a4f52ef71fc3d49c79113048b227b4ab6049a23530c1067",
    ('MPEG*', 'ds'): "bd5771652e2d622a2fd2920ee83dc30eceaec0167e6ff07236e244483b41f2dc",
    ('MPEG*', 'cds'): "914609c753832f4f6f28610f595c9f7ab49ce91706173a4bf17a15b45d2afa83",
    ('ATR-SLD', 'basic'): "8c331af7425d9ef3a661e1057c46698f9a036c2fdcbc50f1093ca61ecf9bbd3b",
    ('ATR-SLD', 'ds'): "0d16cbf3a7243b08edb9690dfa5742ae9ac8522d4794f3820ac0642f03cd615a",
    ('ATR-SLD', 'cds'): "233189fd016a9b111184553bee48a4d3066e87388c4899fcc549cb7d191e093f",
    ('ATR-SLD*', 'basic'): "09fa7b623d2021be010893d36ec6dc17a6d890cf535822e1d3a87585b1721bf6",
    ('ATR-SLD*', 'ds'): "9f71bf8607e8f64b5980727fb5742efdadf934ec4033d74098dc80aee5c15557",
    ('ATR-SLD*', 'cds'): "4f7c7bd002039eb97b1870b78f73921f86c43550d7263dfafcd55a13b0feac49",
    ('ATR-SLD**', 'basic'): "6e231a0bceb57b88738708f76f5b218bad7a34c185be55340b6b19bcf263eda0",
    ('ATR-SLD**', 'ds'): "515660e4cbc45a780d9fae75fd83995e84e0734b22c1ded8b4d921b315c8a7cd",
    ('ATR-SLD**', 'cds'): "d1fc5430de2fbd7f792d09b2e0e8392b6d787c3457c4f3b1820ee7583efd21fd",
    ('ATR-FI', 'basic'): "e2bca7541fceded0795b0d4a061997366095244d96920782742effb1978ca4c5",
    ('ATR-FI', 'ds'): "731cc2d4aae864cb27e31c8f1c030d45e10d5948403e3ab48aeb2676d5be02a9",
    ('ATR-FI', 'cds'): "77fa98ae7271fa15a1aee5579901dbc3454deb6f1c0fcea56e6d286beb739f9e",
    ('ATR-FI*', 'basic'): "e2bca7541fceded0795b0d4a061997366095244d96920782742effb1978ca4c5",
    ('ATR-FI*', 'ds'): "c48b5d76e66915711894818198fecb5b49225c323f75d47c41945d92abfe1cc7",
    ('ATR-FI*', 'cds'): "68c055e4e235d6cb34ed90d263856af8313ffb7b728a279259faaca9a4a543ad",
    ('ATR-FI**', 'basic'): "6fd04a53f0f0eb8fc3640f20ec7f4efa6bef4a288b4e2f3b8af422823000771a",
    ('ATR-FI**', 'ds'): "e8b41fba29571e5230356c691fc43e13beea99d2bc769a689a4f4ffd2066e559",
    ('ATR-FI**', 'cds'): "1c0479408dbfa4fd1ba85d7743e2174d3c5de100208d5f7ba0845cf7f6d7bb5e",
}


def transfers_digest(transfers):
    """sha256 of a trace as JSON rows ``[kind, label, words, start,
    finish]``."""
    rows = [
        [t.kind.value, t.label, t.words, t.start, t.finish]
        for t in transfers
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_golden_covers_every_experiment_and_scheduler():
    assert set(GOLDEN) == {
        (spec.id, name)
        for spec in paper_experiments()
        for name in SCHEDULERS
    }


@pytest.mark.parametrize(
    "spec", paper_experiments(), ids=lambda spec: spec.id
)
def test_traced_transfers_match_golden(spec):
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    for name, scheduler_cls in SCHEDULERS.items():
        program = generate_program(
            scheduler_cls(architecture).schedule(application, clustering)
        )
        report = Simulator(MorphoSysM1(architecture)).run(program)
        assert transfers_digest(report.transfers) == GOLDEN[
            (spec.id, name)
        ], f"{spec.id}/{name}"
