"""Batch compile front-end: many scheduling problems in one call.

:func:`compile_many` runs each :class:`CompileRequest` through its
per-case scheduler and captures infeasibility per request.  The
analysis drivers and the service do not use it: they run each case
through :func:`~repro.analysis.compare.run_scheduler`.
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
