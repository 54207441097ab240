"""The Rocks cluster installer: frontend first, then PXE'd compute nodes.

This is the "all at once, from scratch" path (Abstract): pick rolls at
install time, build the frontend, then power compute nodes on under
insert-ethers.  Two paper-critical behaviours live here:

* **Rocks does not support diskless installation** (Section 5.1) — the
  installer refuses any node without a local drive, which is exactly why
  the modified LittleFe adds an mSATA drive per node and why the diskless
  Limulus compute nodes cannot take the XCBC-from-scratch path (they use
  XNIT instead, Section 5.2);
* the kickstart graph decides what lands on each appliance, so adding the
  XSEDE roll changes every node built afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..distro.distribution import CENTOS_6_5, DistroRelease
from ..distro.host import Host
from ..errors import ProvisionError, RocksError
from ..fleet import fold_names
from ..hardware.chassis import Machine
from ..network.pxe import BootImage, PxeServer
from ..network.topology import ClusterNetwork, build_cluster_network
from ..rpm.database import RpmDatabase
from ..rpm.transaction import Transaction
from ..yum.depsolver import resolve_install
from ..yum.repository import Repository, RepoSet
from .database import HostRecord, InstallState, RocksDatabase
from .insert_ethers import InsertEthers
from .kickstart import GraphNode, KickstartGraph, Profile
from .roll import Roll
from .rolls_catalog import all_standard_rolls, base_os_packages, base_roll

__all__ = [
    "ProvisionedCluster",
    "RocksInstaller",
    "install_cluster",
    "recover_install",
]


@dataclass
class ProvisionedCluster:
    """A fully installed Rocks cluster."""

    machine: Machine
    network: ClusterNetwork
    release: DistroRelease
    graph: KickstartGraph
    distribution: Repository
    rocksdb: RocksDatabase
    frontend: Host
    frontend_db: RpmDatabase
    compute: dict[str, tuple[Host, RpmDatabase]] = field(default_factory=dict)
    rolls: dict[str, Roll] = field(default_factory=dict)
    scheduler_choice: str = "torque"
    #: the template compute (host, db) when installed golden-image style
    #: (``materialize=False``); per-node state lives in the fleet table.
    golden_image: tuple[Host, RpmDatabase] | None = None
    #: lazy per-node builder wired up by golden-image installs
    _materializer: Callable[[str], tuple[Host, RpmDatabase]] | None = None

    def host_for(self, name: str) -> Host:
        """The live :class:`Host` of any installed cluster member.

        Materialized installs find it in :attr:`compute`; golden-image
        installs build the node's host lazily on first access (and cache
        it), so a 10k-node cluster only pays per-node object cost for the
        nodes something actually touches.
        """
        if name in self.compute:
            return self.compute[name][0]
        record = self.rocksdb.get(name)
        if record.appliance == "frontend":
            return self.frontend
        if (
            self._materializer is None
            or record.state is not InstallState.INSTALLED
        ):
            raise RocksError(f"host {name} is not part of this cluster")
        host, db = self._materializer(name)
        self.compute[name] = (host, db)
        return host

    def hosts(self) -> list[Host]:
        """Frontend first, then compute nodes in database order."""
        out = [self.frontend]
        for record in self.rocksdb.compute_hosts():
            if record.name in self.compute:
                out.append(self.compute[record.name][0])
        return out

    def db_for(self, host: Host) -> RpmDatabase:
        """The RPM database of any cluster host."""
        if host is self.frontend:
            return self.frontend_db
        for cand, db in self.compute.values():
            if cand is host:
                return db
        raise RocksError(f"host {host.name} is not part of this cluster")

    def installed_everywhere(self) -> set[str]:
        """Package names present on every node (the cluster's uniform
        software environment — the consistency XCBC is about)."""
        common = set(self.frontend_db.names())
        for _host, db in self.compute.values():
            common &= db.names()
        return common

    def roll_names(self) -> list[str]:
        return sorted(self.rolls)

    def failed_hosts(self) -> list[str]:
        """Compute nodes whose kickstart crashed (state FAILED).

        Feed these to ``ClusterResources(machine, exclude=...)`` so a
        half-provisioned node never becomes schedulable capacity."""
        return [
            r.name
            for r in self.rocksdb.compute_hosts()
            if r.state is InstallState.FAILED
        ]


class RocksInstaller:
    """Drives one from-scratch installation."""

    def __init__(
        self,
        machine: Machine,
        *,
        rolls: list[Roll] | None = None,
        scheduler: str = "torque",
        release: DistroRelease = CENTOS_6_5,
        journal=None,
        delivery=None,
    ) -> None:
        standard = all_standard_rolls()
        if scheduler not in ("torque", "slurm", "sge"):
            raise RocksError(f"unknown job-management roll {scheduler!r}")
        self.machine = machine
        self.release = release
        self.scheduler = scheduler
        selected: dict[str, Roll] = {"base": standard["base"], scheduler: standard[scheduler]}
        for roll in rolls or []:
            if roll.name in selected:
                raise RocksError(f"roll {roll.name} selected twice")
            selected[roll.name] = roll
        self.rolls = selected
        #: optional write-ahead :class:`~repro.recovery.Journal`: each
        #: compute node's discovery + kickstart becomes a ``rocks.install``
        #: transaction, so a frontend crash mid-provision leaves an open
        #: entry instead of a silently half-registered host —
        #: :func:`recover_install` rolls the phantom record back.
        self.journal = journal
        #: optional :class:`~repro.cas.LazyDelivery`: every kickstart
        #: transaction pulls package chunks through the site cache on
        #: first reference instead of assuming a pre-populated mirror.
        self.delivery = delivery
        self._crash_macs: set[str] = set()

    def inject_kickstart_crash(self, mac: str) -> None:
        """The next kickstart of this MAC dies mid-install (lost power,
        dead disk).  The install transaction aborts — nothing half-lands
        on the node — and :meth:`run` either raises or, with
        ``continue_on_error``, records the node as FAILED and moves on."""
        self._crash_macs.add(mac)

    # -- validation ---------------------------------------------------------------

    def _check_disks(self) -> None:
        """Rocks refuses diskless nodes (Section 5.1)."""
        diskless = [n.name for n in self.machine.nodes if n.diskless]
        if diskless:
            raise ProvisionError(
                f"Rocks does not support diskless installation; nodes "
                f"without drives: {diskless} (add a disk per node, as the "
                f"modified LittleFe does, or integrate via XNIT instead)"
            )

    # -- build steps -----------------------------------------------------------------

    def build_graph(self) -> KickstartGraph:
        """The kickstart graph this installation would use.

        Side-effect free — nothing is installed — which makes it the
        pre-flight entry point: the analyzer lints this graph before
        :meth:`run` ever touches a node.
        """
        return self._build_graph()

    def build_distribution(self) -> Repository:
        """The local distribution :meth:`run` would populate (side-effect
        free, for pre-flight analysis)."""
        return self._build_distribution()

    def _build_graph(self) -> KickstartGraph:
        graph = KickstartGraph()
        graph.add_node(GraphNode(name=Profile.FRONTEND, roll="base"))
        graph.add_node(GraphNode(name=Profile.COMPUTE, roll="base"))
        os_node = GraphNode(
            name="os-base",
            packages=[p.name for p in base_os_packages(self.release)],
            enable_services=["sshd", "crond"],
            roll="os",
        )
        graph.add_node(os_node)
        graph.add_edge(Profile.FRONTEND, "os-base")
        graph.add_edge(Profile.COMPUTE, "os-base")
        for roll in self.rolls.values():
            roll.apply_to_graph(graph)
        return graph

    def _build_distribution(self) -> Repository:
        """The frontend's local distribution: OS packages + roll packages."""
        dist = Repository(
            "rocks-dist",
            name=f"Rocks {self.release.release_string} distribution",
            priority=10,
        )
        dist.add_all(base_os_packages(self.release))
        for roll in self.rolls.values():
            for pkg in roll.packages:
                if not any(
                    existing.nevra == pkg.nevra
                    for existing in dist.versions_of(pkg.name)
                ):
                    dist.add(pkg)
        return dist

    def _consume_crash(self, hostname: str, mac: str) -> None:
        """Raise the injected mid-kickstart crash for ``mac``, if armed."""
        if mac in self._crash_macs:
            # Injected mid-kickstart crash: the transaction never commits,
            # so the node holds no packages — there is no half-installed
            # state to reconcile, only a FAILED record.
            self._crash_macs.discard(mac)
            raise ProvisionError(
                f"{hostname}: node lost power mid-kickstart; "
                f"install transaction aborted"
            )

    def _kickstart_host(
        self,
        host: Host,
        graph: KickstartGraph,
        distribution: Repository,
        profile: str,
        *,
        plan_cache: dict | None = None,
        inject: bool = True,
    ) -> RpmDatabase:
        """Install a profile's package closure onto a host and enable its
        services — one node's kickstart.

        ``plan_cache`` enables wave-shared transaction plans: identical
        kickstarts (same profile, same empty-DB fingerprint, same package
        set) validate and order once, then every other host in the wave
        commits through the cached :class:`TransactionPlan`.
        """
        db = RpmDatabase(host)
        repos = RepoSet([distribution])
        wanted = graph.resolve_packages(profile)
        resolution = resolve_install(wanted, repos, db)
        txn = Transaction(db, delivery=self.delivery)
        for pkg in resolution.to_install:
            txn.install(pkg)
        if inject:
            self._consume_crash(host.hostname, host.node.mac_address)
        if plan_cache is None:
            txn.commit()
        else:
            key = (
                profile,
                db.fingerprint(),
                tuple(sorted(p.nevra for p in resolution.to_install)),
            )
            plan = plan_cache.get(key)
            if plan is None:
                plan = txn.plan()
                plan_cache[key] = plan
            txn.commit_planned(plan)
        for service in graph.resolve_services(profile):
            host.services.enable(service)
        host.services.boot()
        for action in graph.resolve_actions(profile):
            host.fs.write(
                f"/var/log/rocks-post/{action.replace(' ', '-')}",
                f"executed: {action}\n",
            )
        return db

    # -- the install ------------------------------------------------------------------

    def _build_golden_image(
        self, graph, distribution, plan_cache: dict
    ) -> tuple[Host, RpmDatabase]:
        """Kickstart one template compute host off-fleet (golden image)."""
        template_node = self.machine.compute_nodes[0]
        host = Host(template_node, self.release)
        host.hostname = "compute-image"
        db = self._kickstart_host(
            host,
            graph,
            distribution,
            Profile.COMPUTE,
            plan_cache=plan_cache,
            inject=False,
        )
        return host, db

    def run(
        self,
        *,
        continue_on_error: bool = False,
        wave_size: int = 1,
        kernel=None,
        materialize: bool = True,
    ) -> ProvisionedCluster:
        """Perform the full installation and return the live cluster.

        With ``continue_on_error``, a compute node whose kickstart crashes
        is recorded as :attr:`InstallState.FAILED`, powered off, and left
        out of the cluster's compute map (and hence out of any scheduler
        resources built from it); the install proceeds to the next node.
        Without it, the first crash raises :class:`ProvisionError`.

        ``wave_size`` batches compute nodes into bounded-concurrency
        install waves: each wave discovers its MACs in one insert-ethers
        pass and its (identical) kickstart transactions share one
        validated :class:`~repro.rpm.transaction.TransactionPlan` instead
        of re-validating per node.  ``wave_size=1`` is the classic
        node-at-a-time path.  Pass a ``kernel`` to emit one
        ``install.wave`` trace event per wave (nodes as a folded NodeSet
        string — MAC-free, so same-seed traces stay byte-identical).

        ``materialize=False`` installs golden-image style: one template
        compute host is kickstarted, per-node state (install state, cores,
        memory) lands in the fleet table columns only, and
        :meth:`ProvisionedCluster.host_for` materializes individual hosts
        lazily.  This is what makes a 10k-node install tractable.
        """
        if wave_size < 1:
            raise RocksError(f"wave size must be positive, got {wave_size}")
        self._check_disks()
        graph = self._build_graph()
        distribution = self._build_distribution()
        network = build_cluster_network(self.machine)

        # 1. Frontend install (from the install media, no PXE involved).
        head = self.machine.head
        frontend = Host(head, self.release)
        frontend_db = self._kickstart_host(
            frontend, graph, distribution, Profile.FRONTEND
        )
        rocksdb = RocksDatabase()
        head_row = rocksdb.add_host(
            HostRecord(
                name=head.name,
                mac=head.mac_address,
                ip="10.1.1.1",
                appliance="frontend",
                rack=0,
                rank=0,
                state=InstallState.INSTALLED,
            )
        )
        head_row.cores = head.cores
        head_row.mem_kb = head.memory_bytes / 1024

        # 2. PXE infrastructure served by the frontend.
        pxe = PxeServer(network.dhcp)
        pxe.set_default_image(
            BootImage(name="rocks-kickstart", kickstart_profile=Profile.COMPUTE)
        )
        inserter = InsertEthers(db=rocksdb, dhcp=network.dhcp, pxe=pxe)

        cluster = ProvisionedCluster(
            machine=self.machine,
            network=network,
            release=self.release,
            graph=graph,
            distribution=distribution,
            rocksdb=rocksdb,
            frontend=frontend,
            frontend_db=frontend_db,
            rolls=dict(self.rolls),
            scheduler_choice=self.scheduler,
        )

        # 3. Power compute nodes on under insert-ethers — one at a time
        # (the classic path) or in bounded-concurrency waves.  Each node is
        # one journaled transaction: register (the database row
        # insert-ethers writes) then install.  A frontend crash leaves the
        # transaction open and recover_install() removes the
        # half-registered row; a *node*-side kickstart crash is a clean
        # abort (the FAILED record is deliberate state, not a phantom).
        compute_nodes = self.machine.compute_nodes
        plan_cache: dict = {}

        golden_db: RpmDatabase | None = None
        if not materialize and compute_nodes:
            golden = self._build_golden_image(graph, distribution, plan_cache)
            golden_db = golden[1]
            cluster.golden_image = golden

            def _materialize_host(name: str) -> tuple[Host, RpmDatabase]:
                rec = rocksdb.get(name)
                node = next(
                    n for n in compute_nodes if n.mac_address == rec.mac
                )
                host = Host(node, self.release)
                host.hostname = name
                db = self._kickstart_host(
                    host,
                    graph,
                    distribution,
                    Profile.COMPUTE,
                    plan_cache=plan_cache,
                    inject=False,
                )
                return host, db

            cluster._materializer = _materialize_host

        for wave_index, start in enumerate(
            range(0, len(compute_nodes), wave_size)
        ):
            wave = compute_nodes[start : start + wave_size]
            if wave_size == 1:
                rows = None
            else:
                rows = inserter.discover_wave([n.mac_address for n in wave])
            wave_names: list[str] = []
            wave_pkgs = len(golden_db.names()) if golden_db is not None else 0
            for pos, node in enumerate(wave):
                txn = (
                    self.journal.begin("rocks.install", mac=node.mac_address)
                    if self.journal is not None
                    else None
                )
                record = (
                    rows[pos]
                    if rows is not None
                    else inserter.discover_boot(node.mac_address)
                )
                if txn is not None:
                    reg_op = self.journal.intent(
                        txn, "register", name=record.name, mac=node.mac_address
                    )
                    self.journal.applied(txn, reg_op)
                rocksdb.set_state(record.name, InstallState.INSTALLING)
                compute_host: Host | None = None
                if materialize:
                    compute_host = Host(node, self.release)
                    compute_host.hostname = record.name
                install_op = (
                    self.journal.intent(txn, "install", name=record.name)
                    if txn is not None
                    else None
                )
                try:
                    if materialize:
                        assert compute_host is not None
                        # wave_size=1 calls with the exact legacy signature
                        # (tests wrap _kickstart_host positionally).
                        if wave_size > 1:
                            compute_db = self._kickstart_host(
                                compute_host,
                                graph,
                                distribution,
                                Profile.COMPUTE,
                                plan_cache=plan_cache,
                            )
                        else:
                            compute_db = self._kickstart_host(
                                compute_host, graph, distribution,
                                Profile.COMPUTE,
                            )
                    else:
                        # Golden-image install: the image already holds the
                        # packages; only the injected-crash check runs per
                        # node.
                        self._consume_crash(record.name, node.mac_address)
                except ProvisionError:
                    if not continue_on_error:
                        if txn is not None:
                            self.journal.abort(txn, note="kickstart failed")
                        raise
                    rocksdb.set_state(record.name, InstallState.FAILED)
                    node.powered_on = False
                    pxe.clear_assignment(node.mac_address)
                    if txn is not None:
                        self.journal.abort(
                            txn, note="kickstart failed; node recorded FAILED"
                        )
                    continue
                # Fill the node-facing fleet columns monitoring and the
                # scheduler read straight off the table.
                record.cores = node.cores
                record.mem_kb = node.memory_bytes / 1024
                rocksdb.set_state(record.name, InstallState.INSTALLED)
                pxe.clear_assignment(node.mac_address)
                if materialize:
                    assert compute_host is not None
                    cluster.compute[record.name] = (compute_host, compute_db)
                    wave_pkgs = len(compute_db.names())
                if txn is not None:
                    assert install_op is not None
                    self.journal.applied(txn, install_op)
                    self.journal.commit(txn)
                wave_names.append(record.name)
            if kernel is not None and wave_names:
                kernel.trace.emit(
                    "install.wave",
                    t_s=kernel.now_s,
                    subsystem="rocks",
                    wave=wave_index,
                    nodes=fold_names(wave_names),
                    count=len(wave_names),
                    pkgs=wave_pkgs,
                )
        return cluster

    def replace_node(
        self, cluster: ProvisionedCluster, name: str, *, new_mac: str
    ) -> Host:
        """Swap a dead node's board: new MAC, rediscovery, fresh install.

        The Rocks workflow for failed hardware: ``rocks remove host``, run
        insert-ethers, power the replacement on.  The record keeps the same
        compute-<rack>-<rank> name only if it is re-discovered first, so we
        remove and re-register explicitly at the same rack/rank.
        """
        record = cluster.rocksdb.get(name)
        if record.appliance != "compute":
            raise RocksError("only compute nodes can be replaced")
        node = next(
            n for n in self.machine.compute_nodes if n.mac_address == record.mac
        )
        cluster.rocksdb.remove_host(name)
        node.mac_address = new_mac  # the replacement board's NIC
        node.powered_on = True
        cluster.rocksdb.add_host(
            HostRecord(
                name=name,
                mac=new_mac,
                ip=record.ip,
                appliance="compute",
                rack=record.rack,
                rank=record.rank,
                state=InstallState.INSTALLING,
            )
        )
        host = Host(node, self.release)
        host.hostname = name
        db = self._kickstart_host(
            host, cluster.graph, cluster.distribution, Profile.COMPUTE
        )
        cluster.compute[name] = (host, db)
        record = cluster.rocksdb.get(name)
        record.cores = node.cores
        record.mem_kb = node.memory_bytes / 1024
        cluster.rocksdb.set_state(name, InstallState.INSTALLED)
        return host

    def reinstall_node(self, cluster: ProvisionedCluster, name: str) -> Host:
        """Re-kickstart one compute node (Rocks' usual fix for drift)."""
        record = cluster.rocksdb.get(name)
        if record.appliance != "compute":
            raise RocksError("only compute nodes can be reinstalled in place")
        node = next(
            n for n in self.machine.compute_nodes if n.mac_address == record.mac
        )
        cluster.rocksdb.set_state(name, InstallState.INSTALLING)
        host = Host(node, self.release)
        host.hostname = name
        db = self._kickstart_host(
            host, cluster.graph, cluster.distribution, Profile.COMPUTE
        )
        cluster.compute[name] = (host, db)
        record.cores = node.cores
        record.mem_kb = node.memory_bytes / 1024
        cluster.rocksdb.set_state(name, InstallState.INSTALLED)
        return host


def recover_install(journal, rocksdb: RocksDatabase) -> list:
    """Resolve open ``rocks.install`` journal transactions after a crash.

    A frontend that died between registering a node (insert-ethers wrote
    the database row) and finishing its kickstart leaves the row pointing
    at a node with no OS — a half-registered host that would poison every
    tool reading the hosts table.  Recovery removes those rows in strict
    reverse order; the node re-registers cleanly on the next insert-ethers
    run.  Returns the transactions rolled back.
    """
    from ..recovery.journal import OpState

    resolved = []
    for txn in journal.open_txns("rocks.install"):
        for op in reversed(txn.ops):
            if op.state is OpState.UNDONE:
                continue
            if op.op == "register":
                name = op.payload["name"]
                try:
                    rocksdb.get(name)
                except RocksError:
                    pass  # row never landed; nothing to remove
                else:
                    rocksdb.remove_host(name)
            journal.undone(txn, op)
        journal.rolled_back(txn)
        resolved.append(txn)
    return resolved


def install_cluster(
    machine: Machine,
    *,
    rolls: list[Roll] | None = None,
    scheduler: str = "torque",
    release: DistroRelease = CENTOS_6_5,
    wave_size: int | None = None,
) -> ProvisionedCluster:
    """Convenience wrapper: build and run a :class:`RocksInstaller`.

    ``wave_size=None`` auto-selects: small sites install node-at-a-time
    (the classic insert-ethers cadence), campus-scale sites in waves of 32
    with a shared transaction plan per wave — same resulting cluster,
    one validation per wave instead of one per node.
    """
    if wave_size is None:
        wave_size = 32 if len(machine.compute_nodes) > 32 else 1
    return RocksInstaller(
        machine, rolls=rolls, scheduler=scheduler, release=release
    ).run(wave_size=wave_size)
