"""Dataflow analysis: classify objects and compute liveness.

This module plays the role of the *information extractor* in the
paper's compilation framework (Figure 2): given an application and a
clustering, it derives for every data object

* its producer kernel / cluster (``None`` for external data),
* its consumer kernels / clusters,
* its classification — external data, intermediate result (``r_jt``),
  shared result (``rout_j``) or final result,
* its last use inside each cluster (for release/liveness).

The classification follows section 3 of the paper:

* ``d_j``  — external input data of kernel ``k_j``;
* ``r_jt`` — intermediate result of ``k_j``, "which are data for ``k_t``
  and not for any kernel executed after ``k_t``" (within the cluster);
* ``rout_j`` — result of ``k_j`` "that will be used as data by kernels
  of clusters executed later";
* final results — results "that have to be transferred in the external
  memory".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.application import Application
from repro.core.cluster import Cluster, Clustering
from repro.errors import DataflowError

__all__ = ["ObjectClass", "ObjectInfo", "DataflowInfo", "analyze_dataflow"]


class ObjectClass(enum.Enum):
    """Primary classification of a data object under a clustering."""

    #: Loaded from external memory; has no producer kernel.
    EXTERNAL_DATA = "external_data"
    #: Produced and fully consumed within a single cluster; never leaves
    #: the frame buffer (paper's ``r_jt``).
    INTERMEDIATE_RESULT = "intermediate_result"
    #: Produced in one cluster and consumed by later clusters (paper's
    #: ``rout_j``); may additionally be a final output.
    SHARED_RESULT = "shared_result"
    #: A final output that is not consumed by any later cluster.
    FINAL_RESULT = "final_result"


@dataclass(frozen=True)
class ObjectInfo:
    """Everything the schedulers need to know about one object.

    Attributes:
        name: object name.
        size: size in words of one iteration instance.
        producer: producing kernel name, or ``None`` for external data.
        producer_cluster: index of the producing cluster, or ``None``.
        consumers: consuming kernel names, in execution order.
        consumer_clusters: sorted, de-duplicated consuming cluster indices.
        is_final: True if the object is an application output.
        object_class: primary classification.
        invariant: iteration-invariant external data (one copy serves
            every concurrent iteration).
    """

    name: str
    size: int
    producer: Optional[str]
    producer_cluster: Optional[int]
    consumers: Tuple[str, ...]
    consumer_clusters: Tuple[int, ...]
    is_final: bool
    object_class: ObjectClass
    invariant: bool = False

    def words_for(self, iterations: int) -> int:
        """Words one cluster visit moves/holds for this object when the
        visit spans *iterations* concurrent iterations."""
        return self.size if self.invariant else self.size * iterations

    @property
    def is_external(self) -> bool:
        return self.producer is None

    @property
    def is_result(self) -> bool:
        return self.producer is not None

    def consumed_after(self, cluster_index: int) -> bool:
        """True if some cluster strictly after *cluster_index* consumes it."""
        return any(c > cluster_index for c in self.consumer_clusters)


class DataflowInfo:
    """Dataflow facts for one (application, clustering) pair.

    Obtain via :func:`analyze_dataflow`.  All per-cluster queries take a
    cluster index (0-based) and return object names in a deterministic
    order (execution order of first touch).
    """

    def __init__(
        self,
        application: Application,
        clustering: Clustering,
        info: Dict[str, ObjectInfo],
    ):
        self.application = application
        self.clustering = clustering
        self._info = info
        # Memo tables for the per-cluster queries below: dataflow facts
        # are immutable once analyzed, and the schedulers/codegen re-ask
        # the same questions thousands of times on large workloads.
        self._last_use_memo: Dict[Tuple[str, int], Optional[str]] = {}
        self._inputs_memo: Dict[int, Tuple[str, ...]] = {}
        self._produced_memo: Dict[int, Tuple[str, ...]] = {}

    def __eq__(self, other: object) -> bool:
        # Structural equality: dataflow facts are a pure function of the
        # (application, clustering) pair, so two analyses are equal when
        # those inputs and the derived object table match.  Needed so
        # schedules survive pickle round-trips (cache hits, worker
        # processes) comparing equal to their in-process originals.
        if not isinstance(other, DataflowInfo):
            return NotImplemented
        return (
            self.application == other.application
            and self.clustering == other.clustering
            and self._info == other._info
        )

    def __hash__(self) -> int:
        # Keep identity hashing: instances are mutated-free but hold
        # dict state; identity is cheap and correct for memo keys.
        return object.__hash__(self)

    def __getitem__(self, obj_name: str) -> ObjectInfo:
        try:
            return self._info[obj_name]
        except KeyError:
            raise KeyError(
                f"no dataflow info for object {obj_name!r} in "
                f"{self.application.name!r}"
            ) from None

    def __contains__(self, obj_name: str) -> bool:
        return obj_name in self._info

    def __iter__(self):
        return iter(self._info.values())

    @property
    def objects(self) -> Tuple[ObjectInfo, ...]:
        return tuple(self._info.values())

    # -- per-cluster queries ---------------------------------------------

    def _cluster(self, cluster_index: int) -> Cluster:
        return self.clustering[cluster_index]

    def inputs_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Objects consumed by the cluster but produced outside it.

        These are the objects that must be present in the cluster's FB
        set before it starts: external data plus results imported from
        earlier clusters.
        """
        cached = self._inputs_memo.get(cluster_index)
        if cached is not None:
            return cached
        cluster = self._cluster(cluster_index)
        ordered: List[str] = []
        seen = set()
        for kernel_name in cluster.kernel_names:
            kernel = self.application.kernel(kernel_name)
            for obj_name in kernel.inputs:
                info = self._info[obj_name]
                produced_here = info.producer_cluster == cluster_index
                if not produced_here and obj_name not in seen:
                    ordered.append(obj_name)
                    seen.add(obj_name)
        result = tuple(ordered)
        self._inputs_memo[cluster_index] = result
        return result

    def external_inputs_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """External data consumed by the cluster."""
        return tuple(
            name for name in self.inputs_of_cluster(cluster_index)
            if self._info[name].is_external
        )

    def imported_results_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Results of earlier clusters consumed by this cluster."""
        return tuple(
            name for name in self.inputs_of_cluster(cluster_index)
            if self._info[name].is_result
        )

    def produced_by_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Objects produced inside the cluster, in production order."""
        cached = self._produced_memo.get(cluster_index)
        if cached is not None:
            return cached
        cluster = self._cluster(cluster_index)
        ordered: List[str] = []
        for kernel_name in cluster.kernel_names:
            ordered.extend(self.application.kernel(kernel_name).outputs)
        result = tuple(ordered)
        self._produced_memo[cluster_index] = result
        return result

    def shared_results_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Results produced in the cluster and consumed by later clusters."""
        return tuple(
            name for name in self.produced_by_cluster(cluster_index)
            if self._info[name].consumed_after(cluster_index)
        )

    def final_results_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Final outputs produced in the cluster."""
        return tuple(
            name for name in self.produced_by_cluster(cluster_index)
            if self._info[name].is_final
        )

    def intermediates_of_cluster(self, cluster_index: int) -> Tuple[str, ...]:
        """Results produced and fully consumed inside the cluster that are
        not final outputs."""
        return tuple(
            name for name in self.produced_by_cluster(cluster_index)
            if self._info[name].object_class is ObjectClass.INTERMEDIATE_RESULT
        )

    # -- liveness ----------------------------------------------------------

    def last_use_in_cluster(self, obj_name: str, cluster_index: int) -> Optional[str]:
        """Name of the last kernel of the cluster consuming *obj_name*,
        or ``None`` if the cluster does not consume it."""
        key = (obj_name, cluster_index)
        try:
            return self._last_use_memo[key]
        except KeyError:
            pass
        cluster = self._cluster(cluster_index)
        last = None
        for kernel_name in cluster.kernel_names:
            if self.application.kernel(kernel_name).reads(obj_name):
                last = kernel_name
        self._last_use_memo[key] = last
        return last

    def dead_after_kernel(self, cluster_index: int, kernel_name: str) -> Tuple[str, ...]:
        """Objects whose storage may be released once *kernel_name* of
        cluster *cluster_index* has executed (paper's ``release(c,k,iter)``):
        objects whose last use anywhere (this cluster and all later
        clusters) is this kernel, and that are not final outputs still
        awaiting their store.

        Final outputs and shared results are **not** reported dead here:
        their space is released when their external store completes or
        when their last consuming cluster finishes, respectively — that
        is the transfer plan's decision, not a dataflow fact.
        """
        cluster = self._cluster(cluster_index)
        if kernel_name not in cluster.kernel_names:
            raise DataflowError(
                f"kernel {kernel_name!r} is not in cluster {cluster.name}"
            )
        dead: List[str] = []
        kernel = self.application.kernel(kernel_name)
        for obj_name in kernel.inputs:
            info = self._info[obj_name]
            if info.is_final:
                continue
            if info.consumed_after(cluster_index):
                continue
            if self.last_use_in_cluster(obj_name, cluster_index) == kernel_name:
                dead.append(obj_name)
        return tuple(dead)


def analyze_dataflow(application: Application, clustering: Clustering) -> DataflowInfo:
    """Run the information extractor for a clustered application."""
    if clustering.application is not application:
        if clustering.application.kernel_names != application.kernel_names:
            raise DataflowError(
                "clustering was built for a different application "
                f"({clustering.application.name!r} vs {application.name!r})"
            )
    info: Dict[str, ObjectInfo] = {}
    for obj_name, obj in application.objects.items():
        producer = application.producer_of(obj_name)
        consumers = application.consumers_of(obj_name)
        producer_cluster = (
            clustering.cluster_of(producer.name).index if producer else None
        )
        consumer_clusters = tuple(
            sorted({clustering.cluster_of(k.name).index for k in consumers})
        )
        is_final = obj_name in application.final_outputs
        object_class = _classify(
            producer_cluster, consumer_clusters, is_final, obj_name
        )
        info[obj_name] = ObjectInfo(
            name=obj_name,
            size=obj.size,
            producer=producer.name if producer else None,
            producer_cluster=producer_cluster,
            consumers=tuple(k.name for k in consumers),
            consumer_clusters=consumer_clusters,
            is_final=is_final,
            object_class=object_class,
            invariant=obj.invariant,
        )
    return DataflowInfo(application, clustering, info)


def _classify(
    producer_cluster: Optional[int],
    consumer_clusters: Tuple[int, ...],
    is_final: bool,
    obj_name: str,
) -> ObjectClass:
    if producer_cluster is None:
        return ObjectClass.EXTERNAL_DATA
    consumed_later = any(c > producer_cluster for c in consumer_clusters)
    if consumed_later:
        return ObjectClass.SHARED_RESULT
    if is_final:
        return ObjectClass.FINAL_RESULT
    if not consumer_clusters:
        raise DataflowError(
            f"result {obj_name!r} is neither consumed nor a final output; "
            f"it would be dead on arrival"
        )
    return ObjectClass.INTERMEDIATE_RESULT
