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
"""

from repro.alloc.allocator import AllocationMap, AllocationRecord, FrameBufferAllocator
from repro.alloc.free_list import FreeBlockList
from repro.alloc.stats import AllocationStats, compute_stats

__all__ = [
    "AllocationMap",
    "AllocationRecord",
    "AllocationStats",
    "FrameBufferAllocator",
    "FreeBlockList",
    "compute_stats",
]
