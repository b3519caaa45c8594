"""Frame-buffer placement: the paper's allocation algorithm (Figure 4).

"As FB is not a large memory and as data and result sizes are similar,
the chosen allocation method is first-fit.  It keeps track of which
parts are free through a linear list of all free blocks (FB_list)."

The algorithm places long-lived objects (kept shared data, kernel input
data) from **upper** free addresses and short-lived ones (intermediate
and final results) from **lower** free addresses, releases space eagerly
after each kernel execution, keeps iteration instances of the same
object adjacent for addressing regularity, and splits an object across
free blocks only as a last resort.

The quality metrics of :mod:`repro.alloc.stats` resolve on first access
(PEP 562): the hazard analysis imports the allocator, and ``repro
corpus`` and ``repro serve`` need no stats module at start-up.
"""

from importlib import import_module

from repro.alloc.allocator import AllocationMap, AllocationRecord, FrameBufferAllocator
from repro.alloc.free_list import FreeBlockList

#: Lazily re-exported name -> submodule that defines it.
_LAZY = {"AllocationStats": "stats", "compute_stats": "stats"}

__all__ = [
    "AllocationMap",
    "AllocationRecord",
    "AllocationStats",
    "FrameBufferAllocator",
    "FreeBlockList",
    "compute_stats",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
