"""Every visit reloads its cluster's contexts (the paper's accounting)."""

from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads.spec import paper_experiments


class TestResidencyReuse:
    def test_default_reloads_every_visit(self):
        """On every Table-1 experiment and scheduler, each visit loads
        exactly its own cluster's contexts into CM block ``index % 2``:
        ``n/RF`` loads per kernel, none skipped.  The fast verifier's
        CM check rests on this."""
        for spec in paper_experiments():
            application, clustering = spec.build()
            architecture = Architecture.m1(spec.fb)
            for scheduler in (BasicScheduler, DataScheduler,
                              CompleteDataScheduler):
                schedule = scheduler(architecture).schedule(
                    application, clustering
                )
                for ops in generate_program(schedule).visits:
                    visit = ops.visit
                    kernels = clustering.kernels_of(
                        clustering[visit.cluster_index]
                    )
                    assert [
                        (load.kernel, load.words, load.cm_block)
                        for load in ops.context_loads
                    ] == [
                        (kernel.name, kernel.context_words, visit.index % 2)
                        for kernel in kernels
                    ], (spec.id, scheduler.__name__, visit.index)
