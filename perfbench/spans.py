"""Spark job attribution and the per-layer span tracer.

Jobs are attributed through Spark job groups: each timed operation (and, in a
traced run, each span) sets its own group with ``setJobGroup`` and restores
the enclosing group on exit; ``statusTracker().getJobIdsForGroup`` then
counts the group's jobs. Both work with the Spark UI disabled. Counting is
deferred to the end of the run, after the listener bus has drained, so it
adds no Spark calls inside a timed interval.

The tracer wraps the public functions of each layer from outside the
program: every module-level binding of a listed function in a loaded
``repro`` module is replaced by a wrapper, because callers import by name
(``repro.core.scs.abcore``, ``repro.graph.peel.checkpoint``, ...). Spans stay
in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# layer -> (module, public functions wrapped)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "graph.peel": ("repro.graph.peel", ("abcore",)),
    "graph.components": ("repro.graph.components", ("component_of",)),
    "graph.decomposition": (
        "repro.graph.decomposition",
        ("alpha_offsets", "beta_offsets", "coreness", "delta"),
    ),
    "graph.schema": ("repro.graph.schema", ("checkpoint", "has_vertex")),
    "core.index_delta": ("repro.core.index_delta", ("build_idelta",)),
    "core.index_bicore": ("repro.core.index_bicore", ("build_iv",)),
    "core.index_bs": ("repro.core.index_bs", ("save_index", "load_index")),
    "core.query": ("repro.core.query", ("q_opt", "q_bicore", "q_online")),
    "core.scs": ("repro.core.scs", ("scs_peel", "scs_expand")),
}

_GROUP = "spark.jobGroup.id"
_PREFIX = "pb"  # job group ids are pb-0, pb-1, ...


class JobGroups:
    """Runs code under fresh Spark job groups and counts their jobs and tasks."""

    def __init__(self, sc):
        self._sc = sc
        self._ids = itertools.count()

    @contextmanager
    def group(self):
        """Run the body under a new job group; yields the group id."""
        gid = f"{_PREFIX}-{next(self._ids)}"
        parent = self._sc.getLocalProperty(_GROUP)
        self._sc.setJobGroup(gid, gid)
        try:
            yield gid
        finally:
            self._sc.setLocalProperty(_GROUP, parent)

    def drain(self) -> None:
        """Wait until the status store has seen every job event posted so far."""
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()

    def jobs(self, gid: str) -> list[int]:
        return list(self._sc.statusTracker().getJobIdsForGroup(gid))

    def tasks(self, job_ids: list[int], seen_stages: set[int]) -> int:
        """Tasks completed by the stages of ``job_ids``; a stage shared with an
        earlier job (a skipped shuffle stage) is counted once."""
        tracker = self._sc.statusTracker()
        n = 0
        for jid in job_ids:
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                if sid in seen_stages:
                    continue
                seen_stages.add(sid)
                stage = tracker.getStageInfo(sid)
                n += stage.numCompletedTasks if stage else 0
        return n


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    layer: str
    name: str
    group: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    result: object = None
    jobs: int = 0
    tasks: int = 0


class Tracer:
    """In-memory span recorder around the layers in :data:`LAYERS`."""

    def __init__(self, groups: JobGroups):
        self._groups = groups
        self._ids = itertools.count()
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.op: int | None = None

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1] if self._stack else None
        with self._groups.group() as gid:
            sp = Span(
                next(self._ids), parent.id if parent else None, self.op,
                layer, name, gid, time.perf_counter(),
            )
            self._stack.append(sp)
            try:
                yield sp
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += sp.end - sp.start
                self.spans.append(sp)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as sp:
                out = fn(*args, **kwargs)
                # Keep only scalar results (has_vertex): holding DataFrames
                # would pin their checkpoint blocks in the JVM.
                if isinstance(out, (bool, int)):
                    sp.result = out
                return out

        return traced

    def install(self) -> None:
        """Replace every binding of each listed function in loaded repro modules."""
        originals = {}
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def count_jobs(self) -> set[int]:
        """Fill each span's own (not its children's) job and task counts;
        returns the stage ids counted."""
        self._groups.drain()
        seen: set[int] = set()
        for sp in sorted(self.spans, key=lambda s: s.id):
            ids = self._groups.jobs(sp.group)
            sp.jobs = len(ids)
            sp.tasks = self._groups.tasks(ids, seen)
        return seen
