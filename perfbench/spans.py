"""Span recording around the ``repro`` layers' public entry points.

A traced cycle wraps each entry point listed in :data:`ENTRY_POINTS` (and
every callback handed to the simulation kernel) in a span recorder.  A
span keeps its layer, name, start, end and parent; a layer's self time
(``busy_s``) is its spans' time minus the time of their child spans.  Spans
stay in memory and :meth:`Recorder.write` dumps them when the run ends.

The wrappers sit at layer boundaries and around the call that owns a hot
helper, never the helper itself (``allreduce``, not ``bytes_of``), and they
are installed only for traced cycles: untraced cycles run the unmodified
program.  Kernel callbacks are wrapped where they are scheduled and are
attributed to the package that defined them, so a scheduler completion
event counts as ``scheduler`` time, not ``sim`` time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

__all__ = ["ENTRY_POINTS", "LAYERS", "Recorder", "Patcher", "layer_of"]

#: The ``repro`` packages reported as layers, plus ``bench`` for the
#: benchmark's own code inside a timed region.
LAYERS = (
    "core", "rocks", "rpm", "yum", "distro", "recovery", "network",
    "hardware", "fleet", "monitoring", "shell", "scheduler", "sim", "repod",
    "cas", "faults", "mpi", "bench",
)

#: module -> entry points to wrap: ``"Class.method"`` or ``"function"``.
#: Each is a call from one layer into another, or a call a per-layer
#: metric counts (``Filesystem.write``, ``Journal.intent``, ...).
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "repro.core.xcbc": ("build_xcbc_cluster",),
    "repro.core.xnit": ("integrate_host", "setup_via_repo_rpm",
                        "publish_release", "build_xnit_repository"),
    "repro.core.machines": ("build_existing_cluster",),
    "repro.core.deployments": ("build_synthetic_fleet",
                               "rebuild_site_hardware"),
    "repro.rocks.installer": ("RocksInstaller.run",),
    "repro.rpm.transaction": ("Transaction.commit", "Transaction.commit_planned",
                              "Transaction.plan", "Transaction.check_diagnostics"),
    "repro.yum.depsolver": ("resolve_install", "resolve_update"),
    "repro.yum.client": ("YumClient.install", "YumClient.update",
                         "YumClient.groupinstall", "YumClient.check_update"),
    "repro.yum.mirror": ("RepoMirror.sync",),
    "repro.distro.filesystem": ("Filesystem.write",),
    "repro.recovery.journal": ("Journal.intent",),
    "repro.network.topology": ("build_cluster_network",),
    "repro.network.fabric": ("Switch.attach",),
    "repro.network.dhcp": ("DhcpServer.offer_batch",),
    "repro.network.pxe": ("PxeServer.boot_batch",),
    "repro.hardware.node": ("assemble_node",),
    "repro.hardware.chassis": ("populate",),
    "repro.fleet.table": ("FleetTable.add_row", "FleetTable.nodeset",
                          "FleetTable.select"),
    "repro.fleet.nodeset": ("NodeSet.from_names", "NodeSet.split",
                            "NodeSet.fold", "NodeSet.__or__",
                            "NodeSet.__sub__"),
    "repro.monitoring.hierarchy": ("GmetadTree.poll_cycle", "monitor_fleet"),
    "repro.monitoring.gmetad": ("Gmetad.poll_cycle",),
    "repro.monitoring": ("monitor_cluster",),
    "repro.shell.engine": ("ShellEngine.run",),
    "repro.shell.rolling": ("RollingUpdate.run", "RollingUpdate.resume"),
    "repro.scheduler.base": ("BaseScheduler.submit", "BaseScheduler.drain_nodes",
                             "BaseScheduler.undrain_node",
                             "BaseScheduler.crash_node",
                             "BaseScheduler.run_to_completion"),
    "repro.scheduler.power_mgmt": ("PowerManagedScheduler.submit",
                                   "PowerManagedScheduler.run_to_completion"),
    "repro.sim.trace": ("TraceBus.emit", "TraceBus.to_jsonl"),
    "repro.sim.kernel": ("SimKernel.run_until", "SimKernel.run",
                         "SimKernel.step"),
    "repro.repod.storm": ("UpdateStormScenario.run",),
    "repro.faults.retry": ("call_with_retry",),
    "repro.faults.inject": ("FaultInjector.apply",),
    "repro.cas.stratum": ("Stratum0.publish", "Stratum1.replicate",
                          "SiteChunkCache.fetch_chunks"),
    "repro.cas.delivery": ("LazyDelivery.fetch_package",),
    "repro.mpi.collectives": ("allreduce",),
    "repro.mpi.jobs": ("world_for_job", "run_allreduce_job"),
}


def layer_of(module: str) -> str:
    """``repro.<package>...`` -> ``<package>``; anything else is ``bench``."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "bench"


class Recorder:
    """In-memory span store with on-the-fly self-time accounting."""

    def __init__(self) -> None:
        self.active = False
        self._root: list | None = None
        #: open spans: [layer, name, start, child_time, span_id]
        self._stack: list[list] = []
        #: closed spans: (span_id, parent_id, layer, name, start, end)
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._next_id = 0

    def enter(self, layer: str, name: str) -> list:
        frame = [layer, name, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, name, start, child, span_id = frame
        duration = end - start
        self.self_s[layer] += duration - child
        self.incl_s[name] += duration
        self.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[4] if parent else None, layer, name, start, end)
        )

    def region(self, on: bool) -> None:
        """Open (or close) a root ``bench`` span around a traced region."""
        if on:
            self.active = True
            self._root = self.enter("bench", "bench.region")
        else:
            self.exit(self._root)
            self.active = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": round(start, 9),
                    "end": round(end, 9),
                }) + "\n")


_INHERITED = object()


def _wrap(rec: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def span(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)

    return span


def _callback_layer(callback) -> str:
    target = getattr(callback, "__func__", None) or getattr(callback, "func", None)
    target = target or callback
    module = getattr(target, "__module__", None) or type(callback).__module__
    return layer_of(module)


class Patcher:
    """Installs the span wrappers; :meth:`uninstall` restores the program."""

    def __init__(self, rec: Recorder, extra_modules=()) -> None:
        self.rec = rec
        #: modules outside ``repro`` that bound entry points by name
        self.extra_modules = tuple(extra_modules)
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        # vars() holds only what the owner defines itself; an inherited
        # method is restored by deleting the override.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self.rec
        holders = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("repro.") or name == "repro"]
        holders += list(self.extra_modules)
        for module_name, targets in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            for target in targets:
                name = f"{layer}.{target}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(_wrap(rec, layer, name, raw.__func__))
                    else:
                        wrapped = _wrap(rec, layer, name, raw)
                    self._set(cls, meth, wrapped)
                    continue
                fn = getattr(module, target)
                wrapped = _wrap(rec, layer, name, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapped)
        self._wrap_kernel_callbacks()

    def _wrap_kernel_callbacks(self) -> None:
        from repro.sim.events import EventQueue
        from repro.sim.kernel import SimKernel

        rec = self.rec
        schedule = EventQueue.schedule
        every = SimKernel.every

        def traced(callback):
            layer = _callback_layer(callback)
            return _wrap(rec, layer, f"{layer}.callback", callback)

        def traced_schedule(queue, time_s, callback, *args, **kwargs):
            return schedule(queue, time_s, traced(callback), *args, **kwargs)

        def traced_every(kernel, period_s, callback, *args, **kwargs):
            return every(kernel, period_s, traced(callback), *args, **kwargs)

        self._set(EventQueue, "schedule", traced_schedule)
        self._set(SimKernel, "every", traced_every)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
