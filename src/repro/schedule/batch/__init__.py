"""Batch compile front-end: many scheduling problems in one call.

:func:`compile_many` runs each :class:`CompileRequest` through its
per-case scheduler and captures infeasibility per request, so the
corpus, sweep, fuzz and service drivers schedule a batch of misses in
one step.
"""

from repro.schedule.batch.compiler import (
    CompileRequest,
    CompileResult,
    compile_many,
)

__all__ = [
    "CompileRequest",
    "CompileResult",
    "compile_many",
]
