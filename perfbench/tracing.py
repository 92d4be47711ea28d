"""Outside-in tracing: spans and counts recorded around ``repro``'s public calls.

Nothing inside ``repro`` is changed.  A :class:`Tracer` replaces public
functions and methods with timing wrappers while it is installed and puts
every original object back on :meth:`Tracer.restore`:

* ``csrops`` kernels where :mod:`repro.core.batched`,
  :mod:`repro.core.vectorized` and :mod:`repro.core.largen` bind them;
* engine ``step`` (and :class:`~repro.asyncsim.engine.EventSimEngine`
  ``run_until``) on the engine classes; the first call on an engine wraps
  its algorithm hooks, node protocols, dynamic graphs and scheduler on
  those instances;
* the public methods of the fault applicators, the graph family builders
  and ``run_experiment`` / ``save_table`` / ``verify_experiment`` as bound
  in :mod:`repro.harness.campaign`.

Spans (name, start, end, parent) are kept in memory and written out when
the benchmark ends.  A metric named ``<layer>.<x>_s`` is the inclusive time
of the outermost spans of that layer; ``core.step_self_s`` is step time
minus the time of its child spans.  :class:`WorkCounter` is the counting
subset (node-rounds only) used when tracing is off.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

_clock = time.perf_counter

#: Algorithm hook -> the layer metric its time goes to.
_ALGO_HOOKS = {
    "tags": "algorithms.tags_s",
    "receiver_mask": "algorithms.tags_s",
    "eligible_flat": "algorithms.tags_s",
    "senders": "algorithms.senders_s",
    "sparse_senders": "algorithms.senders_s",
    "sparse_senders_flat": "algorithms.senders_s",
    "exchange": "algorithms.exchange_s",
    "end_round": "algorithms.exchange_s",
    "converged": "algorithms.converged_s",
    "node_done": "algorithms.converged_s",
    "node_done_subset": "algorithms.converged_s",
    "node_done_subset_flat": "algorithms.converged_s",
}
_PROTOCOL_HOOKS = (
    "choose_tag", "decide", "compose", "deliver", "end_round",  # NodeProtocol
    "on_timer", "on_connect", "on_deliver",  # AsyncNode
)
_PICKS = (
    "batched_permuted_pick",
    "batched_random_pick",
    "segmented_random_pick",
    "segmented_random_pick_subset",
)
_ACCEPTS = (
    "segmented_uniform_accept_pairs",
    "segmented_uniform_accept",
    "batched_uniform_accept",
)
_FRONTIER = ("gather_rows", "unique_nodes")
_FAULT_METHODS = (
    "up_mask",
    "rejoin_resets",
    "corruption_victims",
    "connection_keep",
    "corrupt_tags",
    "events_at",
)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        had = attr in own
        self._undo.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def originals(self) -> list[tuple[object, str, bool, object]]:
        return list(self._undo)


def _engine_classes():
    from repro.asyncsim.engine import EventSimEngine
    from repro.core import (
        BatchedVectorizedEngine,
        LargeNEngine,
        ReferenceEngine,
        VectorizedEngine,
    )

    return (
        BatchedVectorizedEngine,
        VectorizedEngine,
        LargeNEngine,
        ReferenceEngine,
    ), EventSimEngine


def _live_replicas(engine) -> int:
    live = getattr(engine, "live", None)
    return int(live.sum()) if isinstance(live, np.ndarray) else 1


class WorkCounter:
    """Counts node-rounds executed by every engine while installed.

    A round of an engine over ``n`` nodes adds ``n`` per live trial; an
    asynchronous run adds ``n`` per tick it advanced.
    """

    def __init__(self):
        self.node_rounds = 0
        self._patches = _Patches()

    def install(self) -> "WorkCounter":
        sync_classes, async_class = _engine_classes()
        counter = self
        for cls in sync_classes:
            step = cls.step

            def counted_step(engine, r, _step=step):
                counter.node_rounds += engine.n * _live_replicas(engine)
                return _step(engine, r)

            self._patches.set(cls, "step", counted_step)
        run_until = async_class.run_until

        def counted_run_until(engine, *args, **kwargs):
            before = engine.rounds_executed
            try:
                return run_until(engine, *args, **kwargs)
            finally:
                counter.node_rounds += engine.n * (engine.rounds_executed - before)

        self._patches.set(async_class, "run_until", counted_run_until)
        return self

    def restore(self) -> None:
        self._patches.restore()


class Tracer:
    """Records spans and layer counts around ``repro``'s public calls."""

    def __init__(self):
        # Spans in columns (name, start, end, parent index or -1): a
        # campaign pass records about 250k of them.
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack: list[list] = []  # [span index, name, start, child_s, layer]
        self._layer_depth: dict[str, int] = defaultdict(int)
        self._totals: dict[str, float] = defaultdict(float)
        self._patches = _Patches()
        self._seen: dict[int, object] = {}
        self._step: dict | None = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str | None) -> None:
        self._stack.append([len(self._names), name, _clock(), 0.0, layer])
        self._names.append(name)
        self._starts.append(0.0)  # start, end and parent are set on exit
        self._ends.append(0.0)
        self._parents.append(-1)
        if layer is not None:
            self._layer_depth[layer] += 1

    def _exit(self) -> tuple[float, float]:
        end = _clock()
        index, name, start, child_s, layer = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[3] += duration
        self._starts[index], self._ends[index] = start, end
        if parent is not None:
            self._parents[index] = parent[0]
        if layer is not None:
            self._layer_depth[layer] -= 1
            if self._layer_depth[layer] == 0:
                self._totals[layer] += duration
        return duration, duration - child_s

    def _wrap(self, owner, attr: str, name: str, layer: str | None, after=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                duration, _ = tracer._exit()
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        self._patches.set(owner, attr, traced)

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        import repro.core.batched as batched
        import repro.core.largen as largen
        import repro.core.vectorized as vectorized
        import repro.graphs.families as families
        import repro.harness.campaign as campaign
        import repro.harness.experiments as experiments
        from repro.faults.apply import BatchedFaultState, SingleFaultState

        totals = self._totals
        for module in (batched, vectorized, largen):
            for fname in _PICKS + _ACCEPTS + _FRONTIER:
                if fname in vars(module):
                    self._wrap_csrops(module, fname)
        for cls in (BatchedFaultState, SingleFaultState):
            for meth in _FAULT_METHODS:
                self._wrap(cls, meth, f"faults.{meth}", "faults.apply_s",
                           after=self._fault_counts(meth))
        for fname in families.FAMILY_BUILDERS:
            self._wrap(families, fname, f"graphs.build.{fname}", "graphs.build_s")

        def saved(args, kwargs, path, duration):
            totals["harness.checkpoint_bytes"] += os.path.getsize(path)

        def trials(args, kwargs, result, duration):
            totals["harness.trials"] += kwargs.get("trials", 0)

        self._wrap(campaign, "run_experiment", "harness.run_experiment",
                   "harness.experiment_s")
        self._wrap(campaign, "save_table", "harness.save_table",
                   "harness.checkpoint_s", after=saved)
        self._wrap(campaign, "verify_experiment", "harness.verify_experiment",
                   "harness.verify_s")
        for fname in ("run_trials", "run_trials_batched"):
            self._wrap(experiments, fname, f"harness.{fname}", None, after=trials)
        sync_classes, async_class = _engine_classes()
        for cls in sync_classes:
            self._wrap_step(cls)
        self._wrap_run_until(async_class)
        return self

    def restore(self) -> None:
        """Put back every original object and forget the wrapped instances."""
        self._patches.restore()
        self._seen.clear()

    def patched(self) -> list[tuple[object, str, bool, object]]:
        """(owner, attribute, had own value, original) of every live patch."""
        return self._patches.originals()

    # -- layer wrappers ------------------------------------------------------

    def _wrap_csrops(self, module, fname: str) -> None:
        original = getattr(module, fname)
        tracer = self
        totals = self._totals
        kind = "pick" if fname in _PICKS else "accept" if fname in _ACCEPTS else "frontier"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter(f"csrops.{fname}", None)
            try:
                result = original(*args, **kwargs)
            finally:
                duration, _ = tracer._exit()
            totals["csrops.bytes_computed"] += sum(
                _nbytes(a) for a in args
            ) + sum(_nbytes(v) for v in kwargs.values()) + _nbytes(result)
            if kind == "pick":
                totals["csrops.pick_calls"] += 1
                step = tracer._step
                if step is not None:
                    step["pick_s"] += duration
                else:
                    totals["csrops.pick_s"] += duration
            elif kind == "accept":
                totals["csrops.accept_s"] += duration
                totals["csrops.accept_in"] += len(args[0])
                # Pair form: (receivers, winners); dense form: -1 = none.
                totals["csrops.accepts"] += (
                    len(result[0]) if isinstance(result, tuple) else int((result >= 0).sum())
                )
            else:
                totals["csrops.frontier_s"] += duration
            return result

        self._patches.set(module, fname, traced)

    def _fault_counts(self, meth: str) -> Callable | None:
        totals = self._totals
        if meth == "up_mask":
            def down(args, kwargs, up, duration):
                # The (n,) schedule mask is shared by every replica.
                if up is not None:
                    state = args[0]
                    totals["faults.down_node_rounds"] += int(
                        state.n - up.sum()
                    ) * getattr(state, "replicas", 1)
            return down
        if meth == "connection_keep":
            def dropped(args, kwargs, keep, duration):
                if keep is not None:
                    totals["faults.dropped"] += int(args[1]) - int(keep.sum())
            return dropped
        return None

    def _on_engine(self, engine) -> None:
        """First sight of an engine: wrap its per-instance collaborators."""
        key = id(engine)
        if key in self._seen:
            return
        self._seen[key] = engine
        algo = getattr(engine, "algo", None)
        if algo is not None and id(algo) not in self._seen:
            self._seen[id(algo)] = algo
            for hook, layer in _ALGO_HOOKS.items():
                if hasattr(algo, hook):
                    self._wrap(algo, hook, f"algorithms.{hook}", layer,
                               after=self._sender_rows(hook))
        for node in list(getattr(engine, "protocols", ())) + list(
            getattr(engine, "nodes", ())
        ):
            if id(node) in self._seen or not hasattr(node, "__dict__"):
                continue
            self._seen[id(node)] = node
            for hook in _PROTOCOL_HOOKS:
                if hasattr(type(node), hook):
                    self._wrap(node, hook, f"protocol.{hook}", "algorithms.protocol_s")
        graphs = [getattr(engine, "dg", None), getattr(engine, "bdg", None)]
        graphs += list(getattr(engine, "dgs", None) or ())
        for dg in graphs:
            if dg is None or id(dg) in self._seen:
                continue
            self._seen[id(dg)] = dg
            for meth in ("graph_at", "permutation_at", "permutations_at"):
                if hasattr(dg, meth):
                    self._wrap(dg, meth, f"graphs.{meth}", "graphs.advance_s",
                               after=self._advance_count)
        scheduler = getattr(engine, "scheduler", None)
        if scheduler is not None and id(scheduler) not in self._seen:
            self._seen[id(scheduler)] = scheduler
            self._wrap(scheduler, "delay", "asyncsim.delay", None)

    def _advance_count(self, args, kwargs, result, duration) -> None:
        self._totals["graphs.advance_calls"] += 1

    def _sender_rows(self, hook: str) -> Callable | None:
        if hook == "senders":
            def mark_dense(args, kwargs, result, duration):
                if self._step is not None:
                    self._step["dense"] = True
            return mark_dense
        if hook in ("sparse_senders", "sparse_senders_flat"):
            def add_rows(args, kwargs, result, duration):
                if self._step is not None:
                    self._step["rows"] += len(args[1])
            return add_rows
        return None

    def _wrap_step(self, cls) -> None:
        original = cls.step
        tracer = self
        totals = self._totals

        def traced_step(engine, r):
            tracer._on_engine(engine)
            replicas = getattr(engine, "replicas", 1)
            live = _live_replicas(engine)
            outer, tracer._step = tracer._step, {"dense": False, "rows": 0, "pick_s": 0.0}
            tracer._enter(f"core.step.{cls.__name__}", None)
            try:
                original(engine, r)
            finally:
                duration, self_s = tracer._exit()
                step, tracer._step = tracer._step, outer
            totals["core.rounds"] += 1
            totals["core.node_rounds"] += engine.n * live
            totals["core.step_s"] += duration
            totals["core.step_self_s"] += self_s
            # A round is sparse when the full-width sender hook never ran
            # and the subset sender hooks saw fewer rows than the batch.
            dense = step["dense"] or not hasattr(engine, "algo") or (
                step["rows"] >= engine.n * replicas
            )
            if dense:
                totals["core.dense_rounds"] += 1
                totals["csrops.pick_s"] += step["pick_s"]
            else:
                totals["core.sparse_rounds"] += 1
                totals["csrops.frontier_s"] += step["pick_s"]

        self._patches.set(cls, "step", functools.wraps(original)(traced_step))

    def _wrap_run_until(self, cls) -> None:
        original = cls.run_until
        tracer = self
        totals = self._totals

        def traced_run_until(engine, *args, **kwargs):
            tracer._on_engine(engine)
            rounds, events = engine.rounds_executed, engine.events_processed
            tracer._enter("asyncsim.run_until", "asyncsim.busy_s")
            try:
                return original(engine, *args, **kwargs)
            finally:
                tracer._exit()
                totals["asyncsim.events"] += engine.events_processed - events
                totals["core.node_rounds"] += engine.n * (engine.rounds_executed - rounds)

        self._patches.set(cls, "run_until", functools.wraps(original)(traced_run_until))

    # -- results -------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Layer totals accumulated since the previous call."""
        out = dict(self._totals)
        self._totals.clear()
        return out

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for row in zip(self._names, self._starts, self._ends, self._parents):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)
