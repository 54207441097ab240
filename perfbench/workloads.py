"""The five benchmark workloads.

Each workload is a class built from a seed (its set-up) whose ``cycle``
method runs one full pass of the workload through a :class:`Cycle`.  A
cycle is a list of operations; each operation separates its stand-up
(untimed: fresh hardware, a fresh existing cluster) from its timed public
calls, then checks its outputs and records the simulated outcomes its
digest covers.  Every cycle of a run repeats the same seeded inputs, so
every repetition of an operation must reproduce the same digest.

Why these five: the two real adoption paths of Table 3 (an XCBC build from
scratch and an XNIT retrofit of a running cluster), the fleet-scale
install-and-roll path, release delivery to the Table 3 campuses, and the
only workload that runs MPI.  Each stresses different ``repro`` layers;
``BASELINE.md`` gives the measured split.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from contextlib import contextmanager

from repro.cas import (
    LazyDelivery,
    SiteChunkCache,
    Stratum0,
    Stratum1,
    cas_confluence_problems,
)
from repro.core import (
    LIMULUS_VENDOR_PACKAGES,
    TABLE3_SITES,
    AdoptionPath,
    audit_host,
    build_existing_cluster,
    build_xcbc_cluster,
    manifest_of_cluster,
    packages_for_release,
    xsede_packages,
)
from repro.core.deployments import build_synthetic_fleet, rebuild_site_hardware
from repro.core.xnit import (
    build_xnit_repository,
    integrate_host,
    publish_release,
    setup_via_repo_rpm,
)
from repro.errors import ShellError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.hardware import build_limulus_hpc200
from repro.monitoring import monitor_cluster, monitor_fleet
from repro.mpi import run_allreduce_job, world_for_job
from repro.mpi.collectives import allreduce
from repro.repod import UpdateStormScenario
from repro.repod.storm import repod_confluence_problems
from repro.rocks.installer import RocksInstaller
from repro.rocks.kickstart import Profile
from repro.rpm.package import Package
from repro.scheduler import (
    ClusterResources,
    Job,
    JobState,
    PowerManagedScheduler,
    TorqueScheduler,
)
from repro.shell import RollingUpdate, ShellCommand, ShellEngine
from repro.shell.rolling import rolling_confluence_problems
from repro.sim import SimKernel
from repro.yum import RepoMirror, Repository
from repro.yum.depsolver import clear_resolution_cache, resolution_cache_stats
from repro.yum.mirror import MirrorLink

__all__ = ["WORKLOADS", "Cycle", "Operation"]


def sha256_text(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Operation:
    """One benchmark operation: its units of work, checks and outcomes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.units = 0
        #: CPU seconds spent in this operation's timed blocks
        self.timed_s = 0.0
        self.outcomes: dict[str, object] = {}
        #: raw counters behind the per-layer metrics (deterministic)
        self.stats: dict[str, float] = {}
        self.problems: list[str] = []
        self.error: str | None = None
        self._digest_parts: list[str] = []
        self.digest = ""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add_stat(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def digest_text(self, text: str) -> None:
        """Fold a large model output (trace JSONL, manifest) into the digest."""
        self._digest_parts.append(text)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Cycle:
    """One pass of a workload: its operations and their host timing.

    Timed blocks are measured in CPU seconds of this process
    (``time.process_time``): the simulator is single-threaded and does no
    I/O there, so that is its host time minus what other tenants of a
    shared machine took from it.

    ``on_region(True/False)`` brackets every stand-up and timed block, so a
    traced run records spans there and nowhere else (never in checks).
    ``host_speed()`` is sampled at every operation boundary, outside the
    timed blocks, into :attr:`speed_samples`.
    """

    def __init__(self, on_region=None, host_speed=None) -> None:
        self.ops: list[Operation] = []
        self.timed_s = 0.0
        self._current: Operation | None = None
        self.first_timed_at: float | None = None
        self._on_region = on_region
        self._host_speed = host_speed
        self.speed_samples: list[float] = []

    @contextmanager
    def _region(self):
        if self._on_region is not None:
            self._on_region(True)
        try:
            yield
        finally:
            if self._on_region is not None:
                self._on_region(False)

    @contextmanager
    def standup(self):
        with self._region():
            yield

    @contextmanager
    def timed(self):
        with self._region():
            t0 = time.process_time()
            if self.first_timed_at is None:
                self.first_timed_at = t0
            try:
                yield
            finally:
                spent = time.process_time() - t0
                self.timed_s += spent
                if self._current is not None:
                    self._current.timed_s += spent

    @contextmanager
    def op(self, name: str):
        """Run one operation; a raised error fails it, not the cycle."""
        op = Operation(name)
        self.ops.append(op)
        self._current = op
        if self._host_speed and not self.speed_samples:
            self.speed_samples.append(self._host_speed())
        try:
            yield op
        except Exception as exc:  # the benchmark must keep running
            where = traceback.extract_tb(exc.__traceback__)[-1]
            op.error = (f"{type(exc).__name__}: {exc} "
                        f"(at {where.filename}:{where.lineno})")
        finally:
            self._current = None
        if self._host_speed:
            self.speed_samples.append(self._host_speed())
        op.digest = sha256_text(
            json.dumps(op.outcomes, sort_keys=True), *op._digest_parts
        )
        op._digest_parts = []  # a trace JSONL can be megabytes; digested now


def _site(fragment: str):
    return next(s for s in TABLE3_SITES if fragment in s.site + s.other_info)


def _yum_cache_delta(op: Operation, before: dict[str, int]) -> None:
    after = resolution_cache_stats()
    op.add_stat("yum.cache_hits", after["hits"] - before["hits"])
    op.add_stat("yum.cache_misses", after["misses"] - before["misses"])


class XcbcBuild:
    """``build_xcbc_cluster`` on the three XCBC rows of Table 3.

    The write-heavy install path.  Kansas (220 nodes) installs in waves;
    Marshall (22) and LittleFe (6) fall under the ``>32 nodes`` auto-select
    threshold and install node-at-a-time, so both installer paths run.
    The rows are fixed by the paper; the seed permutes the build order.
    Unit: nodes provisioned.
    """

    unit = "nodes provisioned"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        rows = ["LittleFe"] if tiny else ["Kansas", "Marshall", "LittleFe"]
        self.sites = [_site(r) for r in rows]
        random.Random(seed).shuffle(self.sites)
        self.catalogue = xsede_packages()

    def cycle(self, c: Cycle) -> None:
        for site in self.sites:
            with c.op(f"xcbc:{site.site}") as op:
                with c.standup():
                    clear_resolution_cache()
                    machine = rebuild_site_hardware(site)
                cache0 = resolution_cache_stats()
                with c.timed():
                    report = build_xcbc_cluster(machine)
                _yum_cache_delta(op, cache0)
                cluster = report.cluster
                op.units = report.node_count
                self._check(op, site, cluster)
                manifest = manifest_of_cluster(cluster)
                op.outcomes = {
                    "nodes": report.node_count,
                    "uniform_packages": report.uniform_package_count,
                }
                op.digest_text(manifest.to_json())

    def _check(self, op: Operation, site, cluster) -> None:
        op.check(
            len(cluster.hosts()) == site.nodes,
            f"{site.site}: {len(cluster.hosts())} hosts, expected {site.nodes}",
        )
        # Each appliance is audited against the slice of the catalogue its
        # kickstart graph selects: compute nodes carry no grid services.
        slices = {}
        for profile in (Profile.FRONTEND, Profile.COMPUTE):
            selected = set(cluster.graph.resolve_packages(profile))
            slices[profile] = [p for p in self.catalogue if p.name in selected]
        compute_sets = set()
        for host in cluster.hosts():
            db = cluster.db_for(host)
            profile = (
                Profile.FRONTEND if host is cluster.frontend else Profile.COMPUTE
            )
            score = audit_host(host, db, catalogue=slices[profile]).overall
            op.check(score == 1.0, f"{host.name}: audit {score:.4f} != 1.0")
            if profile == Profile.COMPUTE:
                compute_sets.add(frozenset(p.nevra for p in db.installed()))
        op.check(
            len(compute_sets) <= 1,
            f"{site.site}: compute nodes differ ({len(compute_sets)} distinct "
            f"installed sets)",
        )


class XnitRetrofit:
    """The three XNIT rows of Table 3 retrofitted and then updated.

    Montana (36), Hawaii (16) and the IU Limulus (4, with its vendor stack)
    are stood up with ``build_existing_cluster``.  Every host takes the
    ``xsede-release`` RPM and the full toolkit at 0.0.8; then 0.0.9 is
    published and every host runs ``check-update``, ``update`` and a
    re-integration.  The seed permutes site and host order.
    Unit: host integrations plus host updates.
    """

    unit = "host integrations + updates"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        sites = [s for s in TABLE3_SITES if s.adoption is AdoptionPath.XNIT]
        if tiny:
            sites = [s for s in sites if "Limulus" in s.other_info]
        self.seed = seed
        self.sites = list(sites)
        random.Random(seed).shuffle(self.sites)
        self.catalogue = packages_for_release("0.0.9")

    def cycle(self, c: Cycle) -> None:
        for site in self.sites:
            with c.op(f"xnit:{site.site}") as op:
                limulus = "Limulus" in site.other_info
                with c.standup():
                    clear_resolution_cache()
                    if limulus:
                        machine = build_limulus_hpc200("limulus-hpc200").machine
                    else:
                        machine = rebuild_site_hardware(site)
                    cluster = build_existing_cluster(
                        machine,
                        vendor_packages=LIMULUS_VENDOR_PACKAGES if limulus else (),
                    )
                    repo = build_xnit_repository("0.0.8")
                clients = cluster.all_clients()
                random.Random(f"{self.seed}:{site.site}").shuffle(clients)
                before = {
                    cl.host.name: {p.name: p.evr for p in cl.db.installed()}
                    for cl in clients
                }
                vendor_before = {
                    cl.host.name: self._vendor_state(cluster, cl)
                    for cl in clients
                }
                cache0 = resolution_cache_stats()
                with c.timed():
                    integrated = []
                    for cl in clients:
                        setup_via_repo_rpm(cl, repo)
                        integrated.append(integrate_host(cl, full_toolkit=True))
                    added = publish_release(repo, "0.0.9")
                    pending = [cl.check_update() for cl in clients]
                    updated = [cl.update() for cl in clients]
                    reintegrated = [
                        integrate_host(cl, full_toolkit=True) for cl in clients
                    ]
                _yum_cache_delta(op, cache0)
                op.units = len(integrated) + len(updated) + len(reintegrated)
                self._check(op, cluster, clients, before, vendor_before,
                            integrated + reintegrated, pending)
                op.outcomes = {
                    "hosts": len(clients),
                    "added_nevras": len(added),
                    "installed": sum(len(r.installed) for r in integrated),
                    "reinstalled": sum(len(r.installed) for r in reintegrated),
                    "updated_hosts": sum(1 for u in updated if u is not None),
                    "pending_updates": sum(len(p) for p in pending),
                }
                op.digest_text(manifest_of_cluster(cluster).to_json())

    def _check(self, op, cluster, clients, before, vendor_before, reports,
               pending) -> None:
        op.check(
            all(r.preexisting_untouched for r in reports),
            "an integration reported a destructive change",
        )
        for cl, updates in zip(clients, pending):
            name = cl.host.name
            java = [u for u in updates if u.name.startswith("java-")]
            op.check(bool(java), f"{name}: check-update missed the Java bump")
            after = {p.name: p.evr for p in cl.db.installed()}
            for pkg, evr in before[name].items():
                if pkg not in after or after[pkg] < evr:
                    op.check(False, f"{name}: {pkg} removed or downgraded")
            op.check(
                self._vendor_state(cluster, cl) == vendor_before[name],
                f"{name}: vendor stack changed",
            )
            score = audit_host(cl.host, cl.db, catalogue=self.catalogue).overall
            op.check(score == 1.0, f"{name}: 0.0.9 audit {score:.4f} != 1.0")

    @staticmethod
    def _vendor_state(cluster, client) -> dict[str, object]:
        """Vendor packages at their EVRs, and which vendor services run."""
        state: dict[str, object] = {}
        for pkg in LIMULUS_VENDOR_PACKAGES:
            if pkg.name in cluster.vendor_stack:
                state[pkg.name] = client.db.get(pkg.name).evr
                for service in pkg.services:
                    state[service] = client.host.services.is_running(service)
        return state


class FleetRollout:
    """A 10,000-compute-node synthetic fleet installed and rolled.

    A golden-image wave install (waves of 256, ``materialize=False``),
    hierarchical monitoring, then a ``RollingUpdate`` (drain, execute
    through ``ShellEngine``, verify through the ``GmetadTree``) under a
    seeded fault plan: 30 node crashes plus one 400-node block whose
    uplink flaps.  The installer registers every node in rack 0, so the
    flapping block is a run of 400 ranks and the sweep's failure gate (not
    a rack failure domain) pauses it; the operator waits out the flap and
    resumes.  Unit: nodes installed plus nodes updated.
    """

    unit = "nodes installed + updated"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.blocks = 4 if tiny else 25
        self.block_size = 50 if tiny else 400
        self.wave_size = 64 if tiny else 512
        self.fanout = 16 if tiny else 64
        self.crashes = 3 if tiny else 30
        self.jobs = 4 if tiny else 32
        self.max_failures = 10 if tiny else 100
        self.seed = seed
        rng = random.Random(seed)
        computes = self.blocks * self.block_size
        # The installer names compute nodes compute-0-<rank>.
        specs = [
            FaultSpec(kind=FaultKind.NODE_CRASH,
                      target=f"compute-0-{rng.randrange(computes)}",
                      at_s=300.0 + 75.0 * k + rng.random() * 60.0)
            for k in range(self.crashes)
        ]
        # The sweep reaches block k about 300 s * k in; a flap that starts
        # in the first 300 s on one of blocks 2-11 and lasts 4500 s always
        # catches its block, so every seed does the same amount of work.
        specs.append(FaultSpec(
            kind=FaultKind.LINK_FLAP,
            target=f"block-{rng.randrange(2, min(12, self.blocks))}",
            at_s=rng.random() * 300.0, duration_s=4500.0,
            params={"loss_prob": 1.0},
        ))
        self.plan = FaultPlan(name=f"fleet-rollout-{seed}",
                              faults=tuple(specs)).validate()
        self.machine = build_synthetic_fleet(computes + 1)

    def cycle(self, c: Cycle) -> None:
        with c.standup():
            machine = self.machine
            self.machine = None
            if machine is None:
                machine = build_synthetic_fleet(self.blocks * self.block_size + 1)
        kernel = SimKernel(seed=self.seed)
        cluster = None
        with c.op("fleet:install") as op:
            with c.timed():
                cluster = RocksInstaller(machine).run(
                    wave_size=256, kernel=kernel, materialize=False
                )
                tree = monitor_fleet(cluster, kernel=kernel)
                tree.poll_cycle()
            fleet = cluster.rocksdb.fleet
            installed = fleet.count_state("os-installed")
            op.units = installed
            op.check(
                installed == len(machine.nodes),
                f"{installed} of {len(machine.nodes)} nodes installed",
            )
            op.outcomes = {
                "installed": installed,
                "waves": kernel.trace.count("install.wave"),
            }
        if cluster is None:
            return
        with c.op("fleet:rollout") as op:
            report, resources, jsonl = self._rollout(c, kernel, cluster, tree)
            ok, failed = report.ok_nodes(), report.failed_nodes()
            skipped = report.skipped_nodes()
            op.units = len(ok)
            peak = max(
                (w.report.max_inflight for w in report.waves
                 if w.report is not None),
                default=0,
            )
            op.check(report.state == "succeeded",
                     f"sweep ended {report.state}")
            op.check(peak <= self.fanout,
                     f"peak in-flight {peak} > fanout {self.fanout}")
            computes = len(fleet.compute_indices())
            op.check(
                len(ok) + len(failed) + len(skipped) == computes,
                f"ok+failed+skipped = {len(ok) + len(failed) + len(skipped)}"
                f" of {computes} compute nodes",
            )
            for problem in rolling_confluence_problems(
                kernel.trace.events, resources=resources
            ):
                op.check(False, problem)
            op.add_stat("shell.retries", kernel.trace.count("shell.retry"))
            op.add_stat("shell.nodes", sum(
                e.data["count"] for e in kernel.trace.events
                if e.kind == "shell.cmd"
            ))
            op.add_stat("scheduler.requeues", kernel.trace.count("job.requeue"))
            op.add_stat("sim.events", kernel.events_processed)
            op.outcomes = {
                "makespan_s": round(kernel.now_s, 6),
                "updated": len(ok),
                "failed": len(failed),
                "skipped": len(skipped),
                "waves": len(report.waves),
                "peak_inflight": peak,
                "requeues": kernel.trace.count("job.requeue"),
            }
            op.digest_text(jsonl)

    def _rollout(self, c: Cycle, kernel, cluster, tree):
        fleet = cluster.rocksdb.fleet
        flap = self.plan.faults[-1]
        flap_block = int(flap.target.split("-")[1])
        flap_start, flap_end = flap.at_s, flap.at_s + flap.duration_s
        block_size = self.block_size
        with c.timed():
            resources = ClusterResources.from_fleet(fleet, label="fleet")
            scheduler = TorqueScheduler(resources, kernel=kernel)
            for k in range(self.jobs):
                scheduler.submit(Job(
                    name=f"mdrun-{k:02d}", user="student", cores=8,
                    runtime_s=1500.0, walltime_limit_s=7200.0,
                ))
            sched_names = frozenset(resources.node_names())

            def inject(spec: FaultSpec) -> None:
                name = spec.target
                if spec.kind is FaultKind.NODE_CRASH:
                    fleet.set_flag("responsive", fleet.index_of(name), False)
                    if name in sched_names and not resources.is_failed(name):
                        scheduler.crash_node(name, reason="fault injection")
                kernel.trace.emit(
                    "fault.inject", t_s=kernel.now_s, subsystem="faults",
                    fault=spec.kind.value, target=name,
                )

            for spec in self.plan.faults:
                kernel.at(spec.at_s, lambda s=spec: inject(s),
                          label=f"fault:{spec.target}")

            def xnit_update(node: str) -> tuple[int, str]:
                rank = int(node.rsplit("-", 1)[1])
                if (flap_start <= kernel.now_s < flap_end
                        and rank // block_size == flap_block):
                    raise ShellError("link flap: connection reset by peer")
                return 0, "xnit 0.0.9 applied"

            update = RollingUpdate(
                ShellEngine(fleet, kernel=kernel),
                scheduler=scheduler, tree=tree,
                wave_size=self.wave_size, fanout=self.fanout, timeout_s=60.0,
                max_failures=self.max_failures, drain_deadline_s=120.0,
                health_cycles=3,
            )
            report = update.run(
                fleet.nodeset(fleet.compute_indices()),
                ShellCommand("yum -y update xnit-release", duration_s=30.0,
                             jitter=0.2, handler=xnit_update),
            )
            for _ in range(len(fleet.compute_indices())):
                if report.state != "paused":
                    break
                if kernel.now_s < flap_end:
                    kernel.run_until(flap_end)
                report = update.resume()
            jsonl = kernel.trace.to_jsonl()
        return report, resources, jsonl


#: The Table 3 campuses the security release reaches.
_CAMPUSES = [
    "".join(w[0] for w in s.site.split()[:3]).lower() + str(i)
    for i, s in enumerate(TABLE3_SITES)
]


class ReleaseStorm:
    """A security release reaching the six Table 3 campuses, two ways.

    (1) ``UpdateStormScenario`` at its committed shape (8 clients per
    campus, origin crash, uplink flaps) over seeds derived from the
    workload seed; (2) content-addressed delivery (``Stratum0`` ->
    ``Stratum1`` -> ``SiteChunkCache`` -> ``LazyDelivery``) of successive
    releases beside a ``RepoMirror`` full-mirror baseline.  Simulated
    outcomes such as storm requests ending ``failed`` are model outputs,
    not benchmark failures.  Unit: client requests terminated plus package
    deliveries.
    """

    unit = "requests terminated + package deliveries"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.storm_seeds = [rng.randrange(1 << 30)
                            for _ in range(1 if tiny else 12)]
        self.clients_per_campus = 2 if tiny else 8
        self.campuses = _CAMPUSES[:2] if tiny else _CAMPUSES
        self.nodes_per_campus = 2 if tiny else 6
        self.releases = 2 if tiny else 3
        n_pkgs = 4 if tiny else 24
        self.sizes = [rng.randrange(1, 9) * 128 * 1024 for _ in range(n_pkgs)]
        self.kernel_seed = rng.randrange(1 << 30)

    def _release(self, r: int) -> list[Package]:
        return [
            Package(f"pkg{i:02d}", f"1.{r}", size_bytes=size)
            for i, size in enumerate(self.sizes)
        ]

    def cycle(self, c: Cycle) -> None:
        for seed in self.storm_seeds:
            with c.op(f"storm:{seed}") as op:
                with c.timed():
                    scenario = UpdateStormScenario(
                        seed=seed, clients_per_campus=self.clients_per_campus
                    )
                    report = scenario.run()
                    jsonl = scenario.kernel.trace.to_jsonl()
                op.units = report.offered
                for problem in repod_confluence_problems(
                    scenario.kernel.trace.events,
                    servers=[scenario.origin], proxies=scenario.proxies,
                    clients=scenario.clients, offered=report.offered,
                    goodput_floor=None,
                ):
                    op.check(False, problem)
                state = report.state_dict()
                state.pop("problems")
                op.outcomes = state
                for key in ("offered", "origin_arrivals", "origin_shed_full",
                            "origin_shed_deadline", "proxy_hits",
                            "proxy_misses", "proxy_coalesced", "retries",
                            "budget_granted", "budget_denied"):
                    op.add_stat(f"repod.{key}", state[key])
                op.add_stat("sim.events", scenario.kernel.events_processed)
                op.digest_text(jsonl)
        with c.op("cas:delivery") as op:
            self._cas(c, op)

    def _cas(self, c: Cycle, op: Operation) -> None:
        link = MirrorLink(bandwidth_bytes_s=50 * 1024 * 1024, latency_s=0.04)
        with c.timed():
            kernel = SimKernel(seed=self.kernel_seed)
            s0 = Stratum0("xsede", kernel=kernel)
            s1 = Stratum1("stratum1", s0, link, kernel=kernel)
            sites = [SiteChunkCache(name, s1, link, kernel=kernel)
                     for name in self.campuses]
            deliveries = [LazyDelivery(site) for site in sites]
            mirrors = []
            cas_update_wan = mirror_update_wan = 0
            n = 0
            for r in range(self.releases):
                packages = self._release(r)
                s0.publish(packages)
                replicated = s1.replicate().nbytes
                wan0 = sum(site.wan_bytes for site in sites)
                for site in sites:
                    site.notice_release(s0.serial)
                for delivery in deliveries:
                    for node in range(self.nodes_per_campus):
                        for pkg in packages:
                            delivery.fetch_package(f"node{node}", pkg)
                            n += 1
                upstream = Repository("xsede")
                upstream.add_all(packages)
                mirrored = 0
                for i, name in enumerate(self.campuses):
                    if r == 0:
                        mirrors.append(RepoMirror(upstream, link,
                                                  repo_id=f"mirror-{name}",
                                                  kernel=kernel))
                    mirrors[i].upstream = upstream
                    stats = mirrors[i].sync()
                    mirrored += stats.bytes_transferred
                    n += len(stats.fetched_nevras)
                if r > 0:
                    cas_update_wan += (sum(site.wan_bytes for site in sites)
                                       - wan0 + replicated)
                    mirror_update_wan += mirrored
            jsonl = kernel.trace.to_jsonl()
        op.units = n
        for problem in cas_confluence_problems(
            kernel.trace.events, strata=[s0], replicas=[s1], caches=sites
        ):
            op.check(False, problem)
        final = s0.catalog
        for delivery in deliveries:
            for node in range(self.nodes_per_campus):
                missing = [
                    m.nevra for m in final.values()
                    if not all(delivery.node_holds(f"node{node}", d)
                               for d in m.digests)
                ]
                op.check(not missing,
                         f"{delivery.site.name}/node{node} lacks {missing[:3]}")
        for mirror in mirrors:
            op.check(
                {p.nevra for p in mirror.local.all_packages()}
                >= {p.nevra for p in self._release(self.releases - 1)},
                f"{mirror.local.repo_id} is missing the last release",
            )
        hits = sum(site.hits for site in sites)
        misses = sum(site.misses for site in sites)
        requested = sum(d.stats.chunks_requested for d in deliveries)
        fetched = sum(d.stats.chunks_fetched for d in deliveries)
        op.add_stat("cas.site_hits", hits)
        op.add_stat("cas.site_misses", misses)
        op.add_stat("cas.chunks_requested", requested)
        op.add_stat("cas.chunks_fetched", fetched)
        op.add_stat("cas.wan_bytes", sum(site.wan_bytes for site in sites))
        op.add_stat("sim.events", kernel.events_processed)
        op.outcomes = {
            "deliveries": n,
            "cas_update_wan_bytes": cas_update_wan,
            "mirror_update_wan_bytes": mirror_update_wan,
            "wan_ratio": round(mirror_update_wan / max(cas_update_wan, 1), 6),
            "site_hits": hits,
            "site_misses": misses,
            "makespan_s": round(kernel.now_s, 6),
        }
        op.digest_text(jsonl)


class LimulusJobs:
    """Seeded job days on the Limulus HPC200.

    Three days per cycle, each from its own seed derived from the
    workload seed, so one unlucky job mix does not set a run's figure.
    ``PowerManagedScheduler`` (idle blades power off, jobs pay the boot
    delay), gmetad sampling every 15 s on the shared kernel, and MPI jobs
    running ``run_allreduce_job`` on their allocation followed by one
    seeded verification allreduce whose result every rank must match
    exactly.  The only workload that runs ``mpi``.  Unit: jobs completed.
    """

    unit = "jobs completed"

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.day_seeds = [rng.randrange(1 << 30) for _ in range(1 if tiny else 3)]
        self.jobs = 6 if tiny else 24
        self.mpi_jobs = 2 if tiny else 6
        self.elements = 256 if tiny else 1024
        self.iterations = 4

    def cycle(self, c: Cycle) -> None:
        for seed in self.day_seeds:
            with c.op(f"limulus:{seed}") as op:
                self._day(c, op, seed)

    def _day(self, c: Cycle, op: Operation, seed: int) -> None:
        with c.standup():
            cluster = build_existing_cluster(
                build_limulus_hpc200("limulus-hpc200").machine,
                vendor_packages=LIMULUS_VENDOR_PACKAGES,
            )
        with c.timed():
            kernel = SimKernel(seed=seed)
            scheduler = PowerManagedScheduler(
                cluster.machine, manage_power=True, boot_delay_s=60.0,
                kernel=kernel,
            )
            gmetad = monitor_cluster(cluster, scheduler=scheduler,
                                     poll_period_s=15.0)
            gmetad.start_sampling()
            profiles, bad, reduced = self._submit(kernel, cluster,
                                                  scheduler, seed)
            stats = scheduler.run_to_completion()
            kernel.run_until(kernel.now_s + 2 * gmetad.poll_period_s)
            gmetad.stop_sampling()
            jsonl = kernel.trace.to_jsonl()
        done = [j for j in scheduler.finished
                if j.state is JobState.COMPLETED]
        op.units = len(done)
        op.check(len(done) == self.jobs,
                 f"{len(done)} of {self.jobs} jobs completed")
        op.check(len(profiles) == self.mpi_jobs,
                 f"{len(profiles)} of {self.mpi_jobs} MPI jobs ran")
        for message in bad:
            op.check(False, message)
        op.add_stat("mpi.bytes_reduced", reduced[0])
        op.add_stat("sim.events", kernel.events_processed)
        op.outcomes = {
            "completed": stats.completed,
            "makespan_s": round(stats.makespan_s, 6),
            "mean_wait_s": round(stats.mean_wait_s, 6),
            "energy_kwh": round(scheduler.energy.total_kwh, 9),
            "boots": scheduler.energy.boot_events,
            "comm_fraction": {
                name: round(p.communication_fraction, 9)
                for name, p in sorted(profiles.items())
            },
            "polls": len(gmetad.summaries),
        }
        op.digest_text(jsonl)

    def _submit(self, kernel, cluster, scheduler, seed: int):
        fabric = cluster.network.fabric
        profiles: dict[str, object] = {}
        bad: list[str] = []
        reduced = [0]
        elements, iterations = self.elements, self.iterations
        rng = random.Random(seed)

        def launch(job) -> None:
            def run() -> None:
                world = world_for_job(fabric, job, kernel=kernel)
                profiles[job.name] = run_allreduce_job(
                    world, iterations=iterations, elements=elements,
                    compute_s_per_iteration=0.05,
                )
                # Verification: integer-valued doubles sum exactly.
                vrng = random.Random(job.name)
                data = [[float(vrng.randrange(1000)) for _ in range(elements)]
                        for _ in range(world.size)]
                expected = [float(sum(col)) for col in zip(*data)]
                merged = allreduce(
                    world, data, lambda a, b: [x + y for x, y in zip(a, b)]
                )
                if any(m != expected for m in merged):
                    bad.append(f"{job.name}: allreduce result differs")
                reduced[0] += (iterations + 1) * elements * 8 * world.size

            kernel.at(job.start_time_s, run, label=f"mpi:{job.name}")

        scheduler.on_job_start = (
            lambda job: launch(job) if job.name.startswith("mpi-") else None
        )
        # Every MPI job spans two blades, so the seed moves the day's timing
        # and mix of serial jobs, not the amount of MPI work.
        per_node = min(n.cores for n in cluster.machine.compute_nodes)
        for i in range(self.jobs):
            if i < self.mpi_jobs:
                scheduler.submit(Job(
                    f"mpi-{i:02d}", "scientist", cores=2 * per_node,
                    walltime_limit_s=7200,
                    runtime_s=600.0 + 60.0 * rng.randrange(10),
                ))
            else:
                scheduler.submit(Job(
                    f"serial-{i:02d}", "student", cores=rng.choice((1, 2, 4)),
                    walltime_limit_s=3600,
                    runtime_s=120.0 + 30.0 * rng.randrange(10),
                ))
        return profiles, bad, reduced


WORKLOADS = {
    "xcbc_build": XcbcBuild,
    "xnit_retrofit": XnitRetrofit,
    "fleet_rollout": FleetRollout,
    "release_storm": ReleaseStorm,
    "limulus_jobs": LimulusJobs,
}
