"""Golden hazard output: the emit list of every pass, pinned by sha256.

Each entry lowers one program, runs the five hazard passes under every
DMA policy, and hashes the ordered emits — code, message, location,
cost and details, keyword order included — together with the IR's node
and value counts.  The programs cover the twelve Table-1 experiments
under the three schedulers (the unsound policies race there, so HAZ001
and HAZ003 emits are covered), the pinned corpus reproducers, and the
``repro corpus`` configuration (random applications at a 16K frame
buffer and 48 iterations, CDS).  Planted bugs in E1's CDS program add
the codes no healthy program emits (HAZ002, DFA001, DFA002, the CM
refill HAZ003), and one lowering without placement covers the
size-only path.

The pins were taken before the lowering became column-coded; any
change to the lowering or the passes must reproduce them byte for byte.
To print the table for a deliberate output change, run::

    PYTHONPATH=src python -m tests.dataflow.test_hazard_golden
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.ops import LoadData
from repro.dataflow.analyzer import build_ir, emit_hazards
from repro.dataflow.ir import lower_program
from repro.dataflow.passes import HAZARD_RULES
from repro.dataflow.runner import corpus_cases
from repro.errors import ReproError
from repro.schedule import SCHEDULERS
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
RANDOM_SEEDS = range(30)


def _workloads():
    """``(label, application, clustering, architecture, schedulers)``."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        yield (spec.id, application, clustering, Architecture.m1(spec.fb),
               ("basic", "ds", "cds"))
    for label, case in corpus_cases(CORPUS_DIR):
        application, clustering = case.build()
        yield (label, application, clustering, case.architecture(),
               ("basic", "ds", "cds"))
    for seed in RANDOM_SEEDS:
        application, clustering = random_application(seed, iterations=48)
        yield (f"random-{seed}", application, clustering,
               Architecture.m1("16K"), ("cds",))


def _replace_visit(program, index, ops):
    visits = program.visits[:index] + (ops,) + program.visits[index + 1:]
    return dataclasses.replace(program, visits=visits)


def _planted(program):
    """``(label, ir)`` of E1's CDS *program* with one bug planted each."""
    index, ops = next(
        (index, ops) for index, ops in enumerate(program.visits)
        if ops.data_loads
    )
    duplicated = dataclasses.replace(
        ops, data_loads=(ops.data_loads[0],) + ops.data_loads
    )
    yield "dup-load", build_ir(_replace_visit(program, index, duplicated))

    keep = next(
        keep for keep in program.schedule.keeps
        if getattr(keep, "invariant", False)
    )
    index, ops = next(
        (index, ops) for index, ops in enumerate(program.visits)
        if ops.visit.fb_set == keep.fb_set
        and ops.visit.cluster_index == max(keep.span)
    )
    extra = LoadData(keep.name, ops.visit.iterations[0], 8, ops.visit.fb_set)
    clobbering = dataclasses.replace(
        ops, data_loads=ops.data_loads + (extra,)
    )
    yield "overlap-load", build_ir(_replace_visit(program, index, clobbering))

    unread = dataclasses.replace(program, visits=tuple(
        dataclasses.replace(ops, compute=())
        if ops.visit.cluster_index == 2 else ops
        for ops in program.visits
    ))
    yield "unread-keeps", build_ir(unread)

    tiny = dataclasses.replace(program.schedule, context_block_words=1)
    yield "tiny-cm", build_ir(dataclasses.replace(program, schedule=tiny))

    yield "unplaced", lower_program(program)


def _fingerprint(ir):
    """``(nodes, values, codes emitted, sha256 of the emits under every
    policy)``."""
    emits = []
    codes = set()

    def emit(code, message, *, location, cost_words, **details):
        emits.append((code, message, location, cost_words,
                      tuple(details.items())))

    digest = hashlib.sha256()
    for policy in DmaPolicy:
        emits.clear()
        emit_hazards(ir, emit, policy=policy)
        codes.update(entry[0] for entry in emits)
        digest.update(f"{policy.name}:{emits!r}\n".encode())
    return (len(ir.nodes), len(ir.values), " ".join(sorted(codes)),
            digest.hexdigest())


def compute_table():
    """Every golden entry, keyed ``label/scheduler``; ``None`` when the
    scheduler or the code generator rejects the workload."""
    table = {}
    for label, application, clustering, architecture, schedulers in (
        _workloads()
    ):
        for name in schedulers:
            try:
                schedule = SCHEDULERS[name](architecture).schedule(
                    application, clustering
                )
                program = generate_program(schedule)
            except ReproError:
                table[f"{label}/{name}"] = None
                continue
            table[f"{label}/{name}"] = _fingerprint(build_ir(program))
            if (label, name) == ("E1", "cds"):
                for bug, ir in _planted(program):
                    table[f"{label}/{name}+{bug}"] = _fingerprint(ir)
    return table


GOLDEN = {
    "E1/basic": (1728, 1152, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "E1/ds": (1728, 1152, "HAZ001 HAZ003",
        "647badeaaddf3d1b944c95d14f539b95bc9fddb22102eded8b1a915d962c69f3"),
    "E1/cds": (1440, 960, "HAZ001",
        "31c9b59bdf65f5427ecc46b65960e729a93ab43c8f8cbb89446a75a61c3f00d4"),
    "E1/cds+dup-load": (1441, 961, "DFA001 HAZ001 HAZ002",
        "4d360f5b9a432ee2b5b93c8654bf13371fe19f6f686ce3b503d84f7b7d229ae3"),
    "E1/cds+overlap-load": (1441, 961, "HAZ001 HAZ002",
        "4c3814ca28044d000ac5c2ba8dec78cfda7aca0bcea77dd6e3eb239532b5e7e3"),
    "E1/cds+unread-keeps": (1344, 864, "DFA001 DFA002 HAZ001",
        "5b619cf67ad30650c47a3dd2970c55b1e13fe050bf2412473e79d88d00b633db"),
    "E1/cds+tiny-cm": (1440, 960, "HAZ001 HAZ003",
        "1e655643d2416eb2ddc2a24a6c13336ba0b981490caf5015128d4a5f5892f5b6"),
    "E1/cds+unplaced": (1440, 960, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "E1*/basic": (1728, 1152, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "E1*/ds": (1344, 1024, "HAZ001 HAZ003",
        "c886681ec65a792c4f95ad839309faf38ce3a37633850d52b809efa0cefa7d7e"),
    "E1*/cds": (1120, 896, "HAZ001",
        "7f2b6d9086fa1805aa618780b1b189f4fa157228956599d8ea8874ca4e3cd2d2"),
    "E2/basic": (1536, 960, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "E2/ds": (1184, 896, "HAZ001",
        "df9fd04c5854717a6802cd7ce668061ba1e9b56add9bef36331b7252a7ccd072"),
    "E2/cds": (1168, 880, "HAZ001 HAZ003",
        "ed63beeb9400fc1fd2e37fb446068b1e056328a196cb56e797216763de380aca"),
    "E3/basic": (1650, 1056, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "E3/ds": (1170, 936, "HAZ001 HAZ003",
        "6b2b31bf9b43301f79803811dc5580808a2a281b33e67a5528d3011593a92908"),
    "E3/cds": (1032, 864, "HAZ001 HAZ003",
        "3e974cc6574f6a88986b06f89c6f3e2b37ae4604964a71f2caec51ecd579c67f"),
    "MPEG/basic": (1120, 640, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "MPEG/ds": (960, 640, "HAZ001",
        "b88433345afc395dbb6bd923569bb8fe025699857132c1ac3c804a07a20fa253"),
    "MPEG/cds": (840, 520, "HAZ001",
        "07fdea45a69023d9a5114bb28d178a1cbd789d2f87f52937ee0da82063abd5e7"),
    "MPEG*/basic": (1120, 640, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "MPEG*/ds": (880, 640, "HAZ001 HAZ003",
        "b898af9972588b0daae102f52d5dd2c72122a830c2d478998d0837dcde74f94f"),
    "MPEG*/cds": (760, 520, "HAZ001 HAZ003",
        "0dc16e8e7d6d348f891ebbc9e59b0aaa5e8369a30c8ea5df021324bde8dbb6cb"),
    "ATR-SLD/basic": (456, 264, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-SLD/ds": (456, 264, "HAZ001",
        "3f979b5843401290e72434c8586f23f931e59b8417b0cf639a9c23971d53b30c"),
    "ATR-SLD/cds": (408, 216, "HAZ003",
        "f0699139a0ff3b08028ef96a01a6932e77124f5d78c3892fcbdbbe59dd2d22f9"),
    "ATR-SLD*/basic": (576, 336, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-SLD*/ds": (576, 336, "HAZ001",
        "e3aa07c39189cdea0c2af613870156b2117e7f44d46914c82797d958c2880ac1"),
    "ATR-SLD*/cds": (504, 264, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-SLD**/basic": (552, 312, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-SLD**/ds": (552, 312, "HAZ001 HAZ003",
        "028507e7e90687b975208931a74fa712db2f2faf866c757b87f7a3a89cfc819a"),
    "ATR-SLD**/cds": (528, 288, "HAZ001 HAZ003",
        "028507e7e90687b975208931a74fa712db2f2faf866c757b87f7a3a89cfc819a"),
    "ATR-FI/basic": (1080, 600, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-FI/ds": (870, 540, "HAZ001",
        "bfb4992c8aa8295603caa1c5fd9f20f0a5f394032d0b3b313bb60a9da159087a"),
    "ATR-FI/cds": (840, 510, "HAZ001",
        "3867a7e4e86d4eb374c9b0afdefe37cb2b935f9415aa28145467bfb71ce072ff"),
    "ATR-FI*/basic": (1080, 600, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-FI*/ds": (744, 504, "HAZ001",
        "99cc43ba498913c9fca230f63c442a194814054d8a966d0e87982257ba50c87e"),
    "ATR-FI*/cds": (732, 492, "HAZ001",
        "62b9866c4214c3a4768ba3e05391e64b68607158f60d18e17ec8a1c00c4d75d8"),
    "ATR-FI**/basic": (1260, 720, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "ATR-FI**/ds": (1050, 660, "HAZ001",
        "2a49ae4aeb3e5235f9a5b6642eb5aea02fd5c01157af601b71b5a60a10939fea"),
    "ATR-FI**/cds": (1020, 630, "HAZ001",
        "2a49ae4aeb3e5235f9a5b6642eb5aea02fd5c01157af601b71b5a60a10939fea"),
    "gap-anchor-baseline-seed12/basic": (168, 96, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "gap-anchor-baseline-seed12/ds": (136, 96, "HAZ001 HAZ003",
        "cf456c4b6f1f8f94723b6693072f416c2a80449cd5d71e45fed1d3452d05bb0a"),
    "gap-anchor-baseline-seed12/cds": (136, 96, "HAZ001 HAZ003",
        "cf456c4b6f1f8f94723b6693072f416c2a80449cd5d71e45fed1d3452d05bb0a"),
    "gap-anchor-baseline-seed6/basic": (374, 204, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "gap-anchor-baseline-seed6/ds": (276, 204, "HAZ001 HAZ003",
        "aff44f9f971df9c659260b562d895bd4c587d0b8316535074478f37972d0fa3a"),
    "gap-anchor-baseline-seed6/cds": (276, 204, "HAZ001 HAZ003",
        "aff44f9f971df9c659260b562d895bd4c587d0b8316535074478f37972d0fa3a"),
    "regression-diagnostics-seed13/basic": None,
    "regression-diagnostics-seed13/ds": (120, 72, "HAZ001",
        "8cc1cfd8113da7601843472ef7eeae1676d9866fe6131306669b211f1eb52ad4"),
    "regression-diagnostics-seed13/cds": (120, 72, "HAZ001",
        "8cc1cfd8113da7601843472ef7eeae1676d9866fe6131306669b211f1eb52ad4"),
    "regression-rf-gallop-seed7/basic": (544, 320, "",
        "7e15a23104471a31c6191beba53e01832119444ea830ad240ce3694eee1dd36d"),
    "regression-rf-gallop-seed7/ds": (472, 320, "HAZ001",
        "44ddf51303d90340cb51b3a541cad602ca4b1058b234d07d17679876c626aa2d"),
    "regression-rf-gallop-seed7/cds": (472, 320, "HAZ001",
        "44ddf51303d90340cb51b3a541cad602ca4b1058b234d07d17679876c626aa2d"),
    "random-0/cds": (678, 576, "HAZ001 HAZ003",
        "5a27fc9ec16bb4e920f6f37a2cd125de22109477ecaa0c832e9963815173caae"),
    "random-1/cds": (632, 480, "HAZ001 HAZ003",
        "13bc9eca415f98f2f819c0f0082fe569f6b5a15ce546b86fcad4e555c5dfc2ad"),
    "random-2/cds": (777, 672, "HAZ001 HAZ003",
        "5ee0e8c7f657b7d5dc1d23782bb081b1c593f1d992e7279737a402e061e4af07"),
    "random-3/cds": (778, 576, "HAZ001 HAZ003",
        "62415e4687759aaed7c60ed85a6217ca9bb5a281874ae3a94b9d9715b1a41997"),
    "random-4/cds": (1072, 912, "HAZ001 HAZ003",
        "914c48b1ad7f4673906143d20542afab247b9981f529da5a8886e0e85e6fd802"),
    "random-5/cds": (1476, 1296, "HAZ001 HAZ003",
        "df7e7776348424da261a063c050b90ef4ab3070ae69b6f1ab8d71b3baef56776"),
    "random-6/cds": (1264, 1056, "HAZ001 HAZ003",
        "f1329e14c1ec48a63606e652d398f6017d4e19f60aea5ccb46c475a6b6e47db9"),
    "random-7/cds": (1323, 1056, "HAZ001 HAZ003",
        "5481cdefa591822c9f2726e3c4be1a95a1ce7a13779220e6e0cb3307e2fc612e"),
    "random-8/cds": (1220, 960, "HAZ001 HAZ003",
        "df1c5232c3489dd09c0fd25921e35a42be56241e324a3712ce6a11efa96f248d"),
    "random-9/cds": (1266, 1056, "HAZ001 HAZ003",
        "3a9adfdb5091d3a17c860701e51d7b22e734289735aaaad5a9364fa0424fe1db"),
    "random-10/cds": (632, 480, "HAZ001 HAZ003",
        "2a18d4871175e36c48d6ad9913aff4b095acc2e74b8b8b5051548200c477138b"),
    "random-11/cds": (730, 576, "HAZ001 HAZ003",
        "d52b7d547f2a56916f1ce473e74d6fbf1e544c1078ce9caadb8233ff695bc9fc"),
    "random-12/cds": (1425, 1200, "HAZ001 HAZ003",
        "595c85d422a7aa97f77b8c589474915e4eb97bacb84478470844ab1ac6a12ab3"),
    "random-13/cds": (1376, 1152, "HAZ001 HAZ003",
        "5cfdc578cde72f88a4f84648f8c3960a72d7a978cd01ce5a2ac7f80858d7162a"),
    "random-14/cds": (1364, 1104, "HAZ001 HAZ003",
        "fcaef5e7fdd82c9cda8423bda81f063873ca3846e0c9d0df302ace3062ed9d64"),
    "random-15/cds": (486, 384, "HAZ001 HAZ003",
        "78710b528225225850069ad6ca9ab1f83b8ae2d792809becaac16fb6076ae6a4"),
    "random-16/cds": (926, 768, "HAZ001 HAZ003",
        "b2a3cffe3c1201ed3f3748878f64a6f91a2bdff8913b405d186d86bbb7b4e98b"),
    "random-17/cds": (1510, 1248, "HAZ001 HAZ003",
        "6e70ee36ff4da5d56bfd73f82d417d8bfeca198b9622c165a1edfd92a865be85"),
    "random-18/cds": (1368, 1152, "HAZ001 HAZ003",
        "395d2922a18d2205678e2518cd31f0415f9c79a58ba921253fae8c780e9ae51f"),
    "random-19/cds": (928, 768, "HAZ001 HAZ003",
        "9f6667f8a946320b908308d0fc166fd7520446a9cbf8a15656e0cb5c2c025700"),
    "random-20/cds": (1470, 1248, "HAZ001 HAZ003",
        "f950d156779f31c83373e4168b450f27d5fc710055a61046d2ee7b125e311b33"),
    "random-21/cds": (435, 288, "HAZ001 HAZ003",
        "3705751921f4c8c8267ada548d8a7930ac68dff77d9dbd9f9461d6a27aa822fa"),
    "random-22/cds": (534, 432, "HAZ001 HAZ003",
        "8574ffbd85b0159d4d44fef2e319f1c80d1fecc938ef8acc00b45c5c3bf8ae04"),
    "random-23/cds": (1508, 1248, "HAZ001 HAZ003",
        "355345cc33dd082d0ee48d230c32130dba202cba575fd6ab688feec26d24d468"),
    "random-24/cds": (878, 672, "HAZ001 HAZ003",
        "ee1b19d7042c6088999e34d468cbd7b06a9af82d9e3bd459e092d3320d239713"),
    "random-25/cds": (780, 672, "HAZ001 HAZ003",
        "22ef79acae5a5e4c40267280f42b7f61318d18d6558c019f7c3331b843eb63f5"),
    "random-26/cds": (1118, 960, "HAZ001 HAZ003",
        "5b6c7e29c47303c46c4132f089b64c1d4f8bfceddb67dc2af4f85eda02cb921d"),
    "random-27/cds": (924, 672, "HAZ001 HAZ003",
        "c9565b19165b5006728242654a2bab66bf26d31ed109be646bb374acd1351ba0"),
    "random-28/cds": (830, 672, "HAZ001 HAZ003",
        "5794a43bae65743cbfc4b6f9d21a3dd6ccc12318cba417669f2227695362ccb6"),
    "random-29/cds": (732, 576, "HAZ001 HAZ003",
        "d0af7eafa727b898c491fa27e6c0279d4ee221520fea7f5ebf78e1120c8016f1"),
}


@pytest.fixture(scope="module")
def table():
    return compute_table()


def test_golden_keys(table):
    assert sorted(table) == sorted(GOLDEN)


def test_golden_covers_every_rule():
    codes = " ".join(entry[2] for entry in GOLDEN.values() if entry)
    for code in HAZARD_RULES:
        assert code in codes


def test_hazard_output_matches_golden(table):
    mismatched = [
        key for key in sorted(GOLDEN) if table.get(key) != GOLDEN[key]
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    for key, entry in compute_table().items():
        print(f"    {key!r}: {entry!r},")
