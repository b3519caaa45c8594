"""Functional execution: values, surrogates, the reference and the replay.

:func:`execute_functional` replays a program on real values in strict
program order (the verifier's order), apart from DMA timing; a
functional ``Simulator.run`` calls it after its timing run.

The replay needs a concrete function for every kernel.
Real DSP kernels come from :mod:`repro.kernels`; for workloads defined
only by sizes (the paper's synthetic experiments) a *surrogate kernel*
provides a deterministic, input-sensitive stand-in: every output word
depends on the sum of every input word, the iteration index and the
(kernel, output) identity.  Any scheduling bug that delivers a stale,
missing or wrong-iteration operand changes the output values and is
caught by comparing against :func:`reference_outputs`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.arch.external_memory import ExternalMemory
from repro.codegen.program import Program
from repro.core.application import Application
from repro.errors import SimulationError

__all__ = [
    "KernelImpl",
    "execute_functional",
    "surrogate_kernel",
    "populate_external_inputs",
    "reference_outputs",
]

#: Signature of a functional kernel implementation: takes the kernel's
#: input arrays (by object name) and the iteration index, returns its
#: output arrays (by object name).
KernelImpl = Callable[[Mapping[str, np.ndarray], int], Dict[str, np.ndarray]]

_MODULUS = 2 ** 31 - 1


def _salt(kernel_name: str, out_name: str) -> int:
    return zlib.crc32(f"{kernel_name}/{out_name}".encode()) % 1000003


def surrogate_kernel(application: Application, kernel_name: str) -> KernelImpl:
    """A deterministic stand-in implementation for one kernel.

    For each output of *size* words::

        out[i] = (sum(all input words) + iteration + salt + i) mod (2^31 - 1)

    The full dependence on every input word makes the surrogate a
    sensitive detector of data-movement bugs.
    """
    kernel = application.kernel(kernel_name)
    output_sizes = {
        name: application.object(name).size for name in kernel.outputs
    }

    def implementation(
        inputs: Mapping[str, np.ndarray], iteration: int
    ) -> Dict[str, np.ndarray]:
        missing = [name for name in kernel.inputs if name not in inputs]
        if missing:
            raise SimulationError(
                f"kernel {kernel_name!r}: missing inputs {missing}"
            )
        base = sum(int(np.sum(inputs[name])) for name in kernel.inputs)
        base = (base + iteration) % _MODULUS
        outputs: Dict[str, np.ndarray] = {}
        for out_name, size in output_sizes.items():
            ramp = np.arange(size, dtype=np.int64)
            outputs[out_name] = (base + _salt(kernel_name, out_name) + ramp) % _MODULUS
        return outputs

    return implementation


def build_impls(
    application: Application,
    overrides: Mapping[str, KernelImpl] = (),
) -> Dict[str, KernelImpl]:
    """Implementations for every kernel: overrides, else surrogates."""
    overrides = dict(overrides or {})
    impls: Dict[str, KernelImpl] = {}
    for kernel in application.kernels:
        impls[kernel.name] = overrides.get(
            kernel.name, surrogate_kernel(application, kernel.name)
        )
    return impls


def populate_external_inputs(
    application: Application,
    memory: ExternalMemory,
    *,
    seed: int = 2002,
) -> None:
    """Fill external memory with deterministic pseudo-random inputs for
    every iteration of every external object."""
    rng = np.random.RandomState(seed)
    for name in application.external_inputs():
        obj = application.object(name)
        if obj.invariant:
            values = rng.randint(0, 1 << 15, size=obj.size).astype(np.int64)
            memory.put(name, 0, values)
            continue
        for iteration in range(application.total_iterations):
            values = rng.randint(0, 1 << 15, size=obj.size).astype(np.int64)
            memory.put(name, iteration, values)


def reference_outputs(
    application: Application,
    memory: ExternalMemory,
    impls: Mapping[str, KernelImpl],
) -> Dict[Tuple[str, int], np.ndarray]:
    """Direct (unscheduled) execution of the application.

    Reads external inputs from *memory* without counting traffic and
    returns ``{(final_output, iteration): values}`` — the golden data
    the scheduled run must reproduce.
    """
    golden: Dict[Tuple[str, int], np.ndarray] = {}
    for iteration in range(application.total_iterations):
        values: Dict[str, np.ndarray] = {}
        for name in application.external_inputs():
            instance = 0 if application.object(name).invariant else iteration
            stored = memory.get(name, instance)
            if stored is None:
                raise SimulationError(
                    f"external input {name}#{iteration} missing or not "
                    f"functional; call populate_external_inputs first"
                )
            values[name] = stored
        for kernel in application.kernels:
            inputs = {name: values[name] for name in kernel.inputs}
            outputs = impls[kernel.name](inputs, iteration)
            for out_name in kernel.outputs:
                if out_name not in outputs:
                    raise SimulationError(
                        f"kernel {kernel.name!r} implementation did not "
                        f"produce {out_name!r}"
                    )
                values[out_name] = np.asarray(outputs[out_name], dtype=np.int64)
        for final_name in application.final_outputs:
            golden[(final_name, iteration)] = values[final_name]
    return golden


def execute_functional(
    program: Program,
    memory: ExternalMemory,
    kernel_impls: Optional[Mapping[str, KernelImpl]] = None,
    *,
    seed: int = 2002,
) -> Tuple[bool, int, int]:
    """Replay *program* on real values and check its final outputs
    against :func:`reference_outputs`; raise :class:`SimulationError`
    on a missing value or a mismatch.

    Visits run in program order: loads from *memory* (populated from
    *seed* if it holds no inputs), kernel runs (*kernel_impls*, else
    surrogates) reading their own set or a cross-set keep's home set,
    stores to *memory*, then the visit-end drain to the schedule's
    :meth:`~repro.schedule.plan.Schedule.survivors`.

    Returns ``(True, loaded_words, dead_words)``: the words data loads
    brought in, and those no kernel read before a reload or program
    end (the dynamic counterpart of the static ``DFA001`` pass).
    """
    schedule = program.schedule
    application = schedule.application
    dataflow = schedule.dataflow
    impls = build_impls(application, kernel_impls or {})
    if not any(
        memory.exists(name, 0) for name in application.external_inputs()
    ):
        populate_external_inputs(application, memory, seed=seed)
    golden = reference_outputs(application, memory, impls)

    keeps_by_name = {keep.name: keep for keep in schedule.keeps}
    fb_values: Tuple[Dict, Dict] = ({}, {})
    # Words of each resident load no kernel has read yet, by
    # ``(fb_set, name, iteration)``.
    unread: Dict[tuple, int] = {}
    loaded = dead = 0
    for ops in program.visits:
        for load in ops.data_loads:
            values = memory.read(load.name, load.iteration, load.words)
            if values is None:
                raise SimulationError(
                    f"functional load of {load.name}#{load.iteration}: "
                    f"external memory holds no values"
                )
            fb_values[load.fb_set][(load.name, load.iteration)] = values
            watch_key = (load.fb_set, load.name, load.iteration)
            # A reload over an unread copy means the first copy was dead.
            dead += unread.pop(watch_key, 0)
            unread[watch_key] = load.words
            loaded += load.words
        for run in ops.compute:
            kernel = application.kernel(run.kernel)
            inputs = {}
            for in_name in kernel.inputs:
                instance = 0 if dataflow[in_name].invariant else run.iteration
                key = (in_name, instance)
                home = run.fb_set
                if key not in fb_values[home]:
                    keep = keeps_by_name.get(in_name)
                    # Cross-set retention: read the operand in place.
                    if keep is None or key not in fb_values[keep.fb_set]:
                        raise SimulationError(
                            f"kernel {run.kernel!r}#{run.iteration}: input "
                            f"{in_name!r} not in set{run.fb_set}"
                        )
                    home = keep.fb_set
                inputs[in_name] = fb_values[home][key]
                unread.pop((home, *key), None)
            outputs = impls[run.kernel](inputs, run.iteration)
            for out_name in kernel.outputs:
                fb_values[run.fb_set][(out_name, run.iteration)] = np.asarray(
                    outputs[out_name], dtype=np.int64
                )
        for store in ops.stores:
            key = (store.name, store.iteration)
            if key not in fb_values[store.fb_set]:
                raise SimulationError(
                    f"functional store of {store.name}#{store.iteration}: "
                    f"not in set{store.fb_set}"
                )
            memory.write(
                store.name, store.iteration, store.words,
                values=fb_values[store.fb_set][key],
            )
        # Visit end: the set keeps only the keeps still spanning it.
        visit = ops.visit
        survivors = schedule.survivors(visit.cluster_index, visit.fb_set)
        in_set = fb_values[visit.fb_set]
        for key in [key for key in in_set if key[0] not in survivors]:
            del in_set[key]

    for (name, iteration), expected in golden.items():
        actual = memory.get(name, iteration)
        if actual is None or not np.array_equal(actual, expected):
            raise SimulationError(
                f"functional mismatch: final output {name}#{iteration} "
                f"differs from the reference execution"
            )
    # Loads still unread at program end were pure wasted traffic.
    return True, loaded, dead + sum(unread.values())
