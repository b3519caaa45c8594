"""The alloc package resolves its stats re-exports lazily.

The hazard analysis imports the allocator, so ``repro corpus`` and
``repro serve`` load :mod:`repro.alloc`; the allocation quality metrics
of :mod:`repro.alloc.stats` must load only when something asks for
them.
"""

import subprocess
import sys

import pytest

import repro.alloc


@pytest.mark.parametrize(
    "module", ["repro.dataflow.analyzer", "repro.cli", "repro.service.server"]
)
def test_entry_point_does_not_import_alloc_stats(module):
    probe = (
        f"import sys, {module}\n"
        f"print(' '.join(m for m in ('repro.alloc', 'repro.alloc.stats')"
        f" if m in sys.modules))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert "repro.alloc.stats" not in loaded
    if module == "repro.dataflow.analyzer":
        assert "repro.alloc" in loaded  # the check is not vacuous


def test_stats_reexports_resolve_on_access():
    from repro.alloc import stats

    assert repro.alloc.compute_stats is stats.compute_stats
    assert repro.alloc.AllocationStats is stats.AllocationStats
    assert set(repro.alloc.__all__) <= set(dir(repro.alloc))
    with pytest.raises(AttributeError):
        repro.alloc.no_such_name
