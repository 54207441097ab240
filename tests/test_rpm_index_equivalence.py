"""Property tests: capability-indexed rpm/yum answers vs quadratic scans.

Transaction validation, install ordering, ``whatrequires`` and the
depsolver closure look providers up by capability name.  The scans they
replaced — every package tried against every requirement — live here, and
only here, as the reference.  Over random package universes (versioned and
unversioned provides, explicit self-provides, conflicts, dependency
cycles, erases, upgrades, replaced depsolve candidates) both must give the
same diagnostics in the same order, the same install order, the same
dependants and the same resolutions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.diagnostic import Diagnostic, Severity
from repro.errors import DependencyError, PackageNotFoundError, ReproError
from repro.rpm import (
    Capability,
    Flag,
    Package,
    Requirement,
    RpmDatabase,
    Transaction,
    conflict_pairs,
    provides_index,
)
from repro.yum import RepoSet, Repository
from repro.yum.depsolver import (
    Resolution,
    _closure,
    best_provider,
    clear_resolution_cache,
    resolve_install,
)

NAMES = ["alpha", "bravo", "charlie", "delta", "echo"]
CAPS = ["mpi-impl", "libfoo.so", "batch-system"]
VERSIONS = ["1.0", "2.0", "3.0"]
FLAGS = list(Flag)

_MACHINE = None


def _host_db() -> RpmDatabase:
    from repro.distro import CENTOS_6_5, Host

    global _MACHINE
    if _MACHINE is None:
        from repro.hardware import build_littlefe_modified

        _MACHINE = build_littlefe_modified().machine
    return RpmDatabase(Host(_MACHINE.head, CENTOS_6_5))


def _requirement(name: str, flag: Flag, version: str) -> Requirement:
    if flag is Flag.ANY:
        return Requirement(name)
    return Requirement(name, flag, version)


capabilities = st.builds(
    Capability, st.sampled_from(NAMES + CAPS), st.sampled_from(["", *VERSIONS])
)
requirements = st.builds(
    _requirement,
    st.sampled_from(NAMES + CAPS),
    st.sampled_from(FLAGS),
    st.sampled_from(VERSIONS),
)
packages = st.builds(
    lambda name, version, arch, provides, requires, conflicts: Package(
        name,
        version,
        arch=arch,
        provides=tuple(provides),
        requires=tuple(requires),
        conflicts=tuple(conflicts),
    ),
    st.sampled_from(NAMES),
    st.sampled_from(VERSIONS),
    st.sampled_from(["x86_64", "x86_64", "noarch", "ppc64"]),
    st.lists(capabilities, max_size=2),
    st.lists(requirements, max_size=3),
    st.one_of(st.just([]), st.lists(requirements, max_size=1)),
)
universes = st.lists(packages, min_size=1, max_size=10)


# -- the quadratic references ---------------------------------------------------


def reference_check_diagnostics(txn: Transaction) -> list[Diagnostic]:
    """TX701–TX706 with every requirement tried against every package."""

    def problem(code, message, location):
        return Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            subsystem="transaction",
            location=location,
        )

    db, installs, erases = txn.db, txn._installs, txn._erases
    problems = []
    host_arch = db.host.arch
    for name, pkg in sorted(installs.items()):
        if pkg.arch not in ("noarch", host_arch):
            problems.append(problem(
                "TX701",
                f"{pkg.nevra} is built for {pkg.arch} but this host is "
                f"{host_arch}",
                f"transaction:install/{name}",
            ))
    for name in sorted(erases):
        if not db.has(name) and name not in installs:
            problems.append(problem(
                "TX702", f"cannot erase {name}: not installed",
                f"transaction:erase/{name}",
            ))
    for name, pkg in sorted(installs.items()):
        if db.has(name) and name not in erases:
            old = db.get(name)
            if old.nevra == pkg.nevra:
                problems.append(problem(
                    "TX703", f"{pkg.nevra} is already installed",
                    f"transaction:install/{name}",
                ))
            else:
                problems.append(problem(
                    "TX704",
                    f"{name} is installed ({old.evr_string}); upgrade via "
                    f"erase+install or Transaction.upgrade",
                    f"transaction:install/{name}",
                ))
    final = {
        p.name: p
        for p in db.installed()
        if p.name not in erases and p.name not in installs
    }
    final.update(installs)
    for pkg in sorted(final.values(), key=lambda p: p.name):
        for req in pkg.requires:
            if not any(p.satisfies(req) for p in final.values()):
                problems.append(problem(
                    "TX705", f"{pkg.nevra} requires {req} which nothing provides",
                    f"transaction:require/{pkg.name}",
                ))
    declaring = [p for p in final.values() if p.conflicts]
    for pkg in sorted(declaring, key=lambda p: p.name):
        for other in sorted(final.values(), key=lambda p: p.name):
            if other.name != pkg.name and pkg.conflicts_with(other):
                problems.append(problem(
                    "TX706", f"{pkg.nevra} conflicts with {other.nevra}",
                    f"transaction:conflict/{pkg.name}",
                ))
    return problems


def reference_install_order(txn: Transaction) -> list[Package]:
    """Kahn's algorithm over a provider scan, re-sorting the ready list."""
    pkgs = txn._installs
    dependants = {n: set() for n in pkgs}
    indegree = {n: 0 for n in pkgs}
    for name, pkg in pkgs.items():
        for req in pkg.requires:
            for provider_name, provider in pkgs.items():
                if provider_name != name and provider.satisfies(req):
                    if name not in dependants[provider_name]:
                        dependants[provider_name].add(name)
                        indegree[name] += 1
    ready = sorted(n for n, d in indegree.items() if d == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(pkgs[current])
        newly_ready = []
        for child in dependants[current]:
            indegree[child] -= 1
            if indegree[child] == 0:
                newly_ready.append(child)
        ready = sorted(ready + newly_ready)
    if len(order) < len(pkgs):
        remaining = sorted(set(pkgs) - {p.name for p in order})
        order.extend(pkgs[n] for n in remaining)
    return order


def reference_whatrequires(db: RpmDatabase, name: str) -> list[Package]:
    if not db.has(name):
        return []
    target = db.get(name)
    others = [p for p in db.installed() if p.name != name]
    dependants = []
    for pkg in others:
        for req in pkg.requires:
            if target.satisfies(req) and not any(
                o.satisfies(req) for o in others if o.name != pkg.name
            ):
                dependants.append(pkg)
                break
    return sorted(dependants, key=lambda p: p.name)


def reference_closure(goals, repos, db) -> Resolution:
    """The depsolver closure, checking ``selected`` by a full scan."""
    resolution = Resolution()
    selected: dict[str, Package] = {}
    queue: list[Package] = []

    def select(pkg):
        held = selected.get(pkg.name)
        if held is not None:
            if held.nevra != pkg.nevra and pkg.evr > held.evr:
                selected[pkg.name] = pkg
                queue.append(pkg)
            return
        selected[pkg.name] = pkg
        queue.append(pkg)

    for goal in goals:
        select(goal)
    while queue:
        pkg = queue.pop(0)
        for req in pkg.requires:
            if any(p.satisfies(req) for p in selected.values()):
                continue
            if db.is_satisfied(req):
                resolution.already_satisfied.append(req)
                continue
            try:
                provider = best_provider(req, repos)
            except DependencyError as exc:
                raise DependencyError(
                    f"{pkg.nevra} requires {req}, which no enabled repository "
                    f"provides",
                    missing=exc.missing,
                ) from None
            select(provider)
    for name, pkg in sorted(selected.items()):
        if db.has(name):
            if pkg.evr > db.get(name).evr:
                resolution.upgrades[name] = pkg
                resolution.to_install.append(pkg)
        else:
            resolution.to_install.append(pkg)
    return resolution


# -- helpers -----------------------------------------------------------------------


def _installed_db(pkgs) -> RpmDatabase:
    db = _host_db()
    for pkg in pkgs:
        if not db.has(pkg.name):
            db._install_unchecked(pkg)
    return db


def _queue(txn: Transaction, installs, upgrades, erases) -> None:
    for pkg in installs:
        try:
            txn.install(pkg)
        except ReproError:
            pass  # a second NEVRA of a queued name
    for pkg in upgrades:
        try:
            txn.upgrade(pkg)
        except ReproError:
            pass  # not newer than the installed EVR
    for name in erases:
        txn.erase(name)


def _outcome(fn):
    """A resolution as comparable data, or the error it raised."""
    try:
        res = fn()
    except DependencyError as exc:
        return ("error", str(exc), exc.missing)
    return (
        [p.nevra for p in res.to_install],
        {n: p.nevra for n, p in sorted(res.upgrades.items())},
        list(res.already_satisfied),
    )


def _repos(universe) -> RepoSet:
    repo = Repository("xsede")
    for pkg in universe:
        if not any(v.nevra == pkg.nevra for v in repo.versions_of(pkg.name)):
            repo.add(pkg)
    return RepoSet([repo])


# -- properties --------------------------------------------------------------------


class TestTransactionMatchesScans:
    @given(
        installed=universes,
        installs=st.lists(packages, max_size=6),
        upgrades=st.lists(packages, max_size=3),
        erases=st.lists(st.sampled_from(NAMES + ["zulu"]), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_check_order_and_whatrequires(self, installed, installs, upgrades, erases):
        db = _installed_db(installed)
        txn = Transaction(db)
        _queue(txn, installs, upgrades, erases)

        assert txn.check_diagnostics() == reference_check_diagnostics(txn)
        assert [p.nevra for p in txn._install_order()] == [
            p.nevra for p in reference_install_order(txn)
        ]
        for name in NAMES:
            assert db.whatrequires(name) == reference_whatrequires(db, name)

        if not txn.is_empty and not txn.check_diagnostics():
            txn.commit()  # erases and upgrades move the live db index
            for name in NAMES:
                assert db.whatrequires(name) == reference_whatrequires(db, name)

    @given(universes)
    @settings(max_examples=100, deadline=None)
    def test_helpers_match_scans(self, pkgs):
        index = provides_index(pkgs)
        for req in [Requirement(n) for n in NAMES + CAPS]:
            assert [p for p in index.get(req.name, ()) if p.satisfies(req)] == [
                p for p in pkgs if p.satisfies(req)
            ]
        assert conflict_pairs(pkgs) == [
            (pkg, other)
            for pkg in pkgs
            if pkg.conflicts
            for other in pkgs
            if other.name != pkg.name and pkg.conflicts_with(other)
        ]


class TestClosureMatchesScans:
    @given(
        universe=universes,
        installed=st.lists(packages, max_size=4),
        goals=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_resolve_install(self, universe, installed, goals):
        repos = _repos(universe)
        db = _installed_db(installed)

        def reference():
            try:
                targets = [repos.latest_by_name(n) for n in goals]
            except PackageNotFoundError:
                return resolve_install(goals, repos, db)  # the same error
            return reference_closure(targets, repos, db)

        clear_resolution_cache()
        indexed = _outcome(lambda: resolve_install(goals, repos, db))
        clear_resolution_cache()
        assert indexed == _outcome(reference)

    @given(
        universe=universes,
        goal_picks=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_closure_with_replaced_candidates(self, universe, goal_picks):
        """Goals may name older EVRs of one package; the newer replaces the
        held one, and the replaced package stops satisfying anything."""
        repos = _repos(universe)
        db = _host_db()
        goals = [universe[i % len(universe)] for i in goal_picks]
        assert _outcome(lambda: _closure(goals, repos, db)) == _outcome(
            lambda: reference_closure(goals, repos, db)
        )


def test_replaced_candidate_drops_its_capabilities():
    """alpha-1.0 provides libfoo.so; alpha-2.0 replaces it and does not, so
    bravo's requirement must pull acme, not count the replaced alpha."""
    old = Package("alpha", "1.0", provides=(Capability("libfoo.so"),))
    new = Package("alpha", "2.0")
    bravo = Package("bravo", "1.0", requires=(Requirement("libfoo.so"),))
    acme = Package("acme", "1.0", provides=(Capability("libfoo.so"),))
    repos = _repos([old, new, bravo, acme])
    resolution = _closure([old, new, bravo], repos, _host_db())
    assert [p.nevra for p in resolution.to_install] == [
        "acme-1.0-1.x86_64", "alpha-2.0-1.x86_64", "bravo-1.0-1.x86_64",
    ]


@pytest.mark.parametrize("cycle", [2, 3])
def test_dependency_cycle_co_installs_in_name_order(cycle):
    names = NAMES[:cycle]
    pkgs = [
        Package(n, "1.0", requires=(Requirement(names[(i + 1) % cycle]),))
        for i, n in enumerate(names)
    ]
    txn = Transaction(_host_db())
    for pkg in reversed(pkgs):
        txn.install(pkg)
    assert txn.check_diagnostics() == []
    assert txn._install_order() == reference_install_order(txn) == pkgs
