"""RPM metadata checks: a dry run of the dependency machinery.

Reuses the yum layer (:class:`~repro.yum.repository.RepoSet`,
:func:`~repro.yum.depsolver.best_provider`) against the definition's package
universe without touching any host database — the same closure logic the
installer will run, executed before anything is deployed.
"""

from __future__ import annotations

from ...errors import DependencyError, YumError
from ...rpm.package import conflict_pairs
from ...yum.depsolver import best_provider
from ...yum.repository import Repository, RepoSet
from ..diagnostic import Severity
from ..registry import rule

RPM301 = rule(
    "RPM301",
    "rpm",
    Severity.ERROR,
    "package requirement is satisfiable by nothing in the definition",
    "add a package providing the capability to a roll or repository, or "
    "drop the requirement",
)
RPM302 = rule(
    "RPM302",
    "rpm",
    Severity.ERROR,
    "two packages installed by the same profile conflict",
    "profiles co-install their whole closure; keep exactly one of the "
    "conflicting packages per profile",
)
RPM303 = rule(
    "RPM303",
    "rpm",
    Severity.WARNING,
    "obsoletes names a package that exists nowhere in the definition",
    "dangling obsoletes do nothing; drop the tag or fix the name",
)


def _universe_repos(universe) -> RepoSet:
    """The definition's packages as a single enabled repository."""
    repo = Repository("cluster-lint-universe", priority=1)
    for pkg in universe:
        try:
            repo.add(pkg)
        except YumError:  # pragma: no cover - universe is pre-deduped
            pass
    return RepoSet([repo])


def run(definition, emit) -> None:
    universe = definition.package_universe()
    if not universe:
        return
    repos = _universe_repos(universe)

    # RPM301: every requirement of every package must have a provider —
    # the requires-closure the installer will compute, dry-run.
    for pkg in universe:
        for req in pkg.requires:
            try:
                best_provider(req, repos)
            except DependencyError:
                emit(
                    "RPM301",
                    f"{pkg.nevra} requires {req}, which nothing in the "
                    f"definition provides",
                    location=f"rpm:{pkg.nevra}",
                )

    # RPM303: obsoletes pointing at nothing.
    names = {p.name for p in universe}
    for pkg in universe:
        for obs in pkg.obsoletes:
            if obs.name not in names:
                emit(
                    "RPM303",
                    f"{pkg.nevra} obsoletes {obs.name!r}, which exists "
                    f"nowhere in the definition",
                    location=f"rpm:{pkg.nevra}",
                )

    # RPM302: pairwise conflicts inside each profile's install closure.
    graph = definition.graph
    if graph is None or graph.find_cycle() is not None:
        return
    by_name: dict[str, list] = {}
    for pkg in universe:
        by_name.setdefault(pkg.name, []).append(pkg)
    for profile in definition.profiles:
        if not graph.has_node(profile):
            continue
        closure = [
            max(by_name[n], key=lambda p: p.evr)
            for n in graph.resolve_packages(profile)
            if n in by_name
        ]
        seen_pairs: set[tuple[str, str]] = set()
        for pkg, other in conflict_pairs(closure):
            pair = tuple(sorted((pkg.name, other.name)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            emit(
                "RPM302",
                f"profile {profile!r} installs both {pkg.nevra} and "
                f"{other.nevra}, which conflict",
                location=f"rpm:profile/{profile}",
            )
