"""Shared + domain-specific parameter composition (Eq. 4) at any scale.

MAMDR keeps one shared state ``θ_S`` and, per domain, an additive delta
``θ_i``, serving domain ``i`` with ``Θ_i = θ_S + θ_i``.  Deltas (rather
than absolute states) make the "specific parameters point from the shared
solution toward the finetune endpoint" picture of Figure 4 literal, and
they are what the PS-Worker implementation ships around.

The paper's headline deployment holds **69,102 domains** — far past the
point where a ``{domain: state_dict}`` is affordable.  This module
therefore splits the *composition law* from the *storage layout* behind
the :class:`DomainParamStore` protocol:

``materialize(domain) = θ_S + θ_cluster(domain) + δ_domain``

with two backends:

* :class:`DenseDomainStore` — one explicit delta per domain (the original
  layout, bitwise-identical for every existing preset; here
  ``θ_cluster ≡ 0`` and ``δ_domain`` is the classic ``θ_i``);
* :class:`ClusteredDomainStore` — domains are grouped by distribution
  similarity (:mod:`repro.core.clustering`), **tail** domains share one
  cluster-level delta, **head** domains add an explicit per-domain
  residual, and all deltas of a cluster live in one contiguous array
  shard.  Training, snapshot materialization and evaluation gate work by
  :meth:`DomainParamStore.groups` — O(n_clusters + n_heads) units instead
  of O(n_domains) — which is what AdaptDHM-style cluster-granularity
  training needs to reach 10k-50k domains on one machine.

:class:`DomainParameterSpace` is the façade every caller goes through.
Direct delta-dict access outside this file is flagged by the
``theta-dict-access`` lint rule.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..nn.state import clone_state, state_add, zeros_like_state

__all__ = [
    "ClusterPlan",
    "DomainGroup",
    "DomainParamStore",
    "DenseDomainStore",
    "ClusteredDomainStore",
    "DomainParameterSpace",
    "live_state_view",
]


def live_state_view(model):
    """Zero-copy ``{name: ndarray}`` view of a model's live parameters.

    The arrays *are* the parameter buffers — no copy is made, which is why
    the DN/DR meta-updates can read "the end of the inner trajectory"
    without allocating a full state dict.  Mutating these arrays mutates
    the model; the in-place ops in ``repro.nn.state`` report such
    mutations to the sanitizer, whose version counters trace them back to
    the owning :class:`~repro.nn.module.Parameter` (see
    ``repro.tooling.sanitizer``), so use the state ops — not ad-hoc numpy
    writes — if you must mutate through a view.
    """
    return OrderedDict(
        (name, param.data) for name, param in model.named_parameters()
    )


# ----------------------------------------------------------------------
# Cluster plans and work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterPlan:
    """A hierarchical assignment of domains to clusters.

    ``assignments[d]`` is domain ``d``'s cluster id; ``head_domains`` are
    the data-rich domains that carry an explicit per-domain residual on
    top of their cluster's shared delta (everyone else — the tail — is
    served straight from ``θ_S + θ_cluster``).  Plans are plain data and
    deterministic to build (see :func:`repro.core.clustering.plan_clusters`),
    so the same seed yields the same plan on every worker.
    """

    assignments: tuple
    n_clusters: int
    head_domains: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(
            int(c) for c in self.assignments
        ))
        object.__setattr__(self, "head_domains", frozenset(
            int(d) for d in self.head_domains
        ))
        if not self.assignments:
            raise ValueError("a plan needs at least one domain")
        if self.n_clusters <= 0:
            raise ValueError("need at least one cluster")
        bad = [c for c in self.assignments if not 0 <= c < self.n_clusters]
        if bad:
            raise ValueError(f"cluster ids out of range: {sorted(set(bad))}")
        bad = [d for d in self.head_domains
               if not 0 <= d < len(self.assignments)]
        if bad:
            raise ValueError(f"head domains out of range: {sorted(bad)}")

    @property
    def n_domains(self):
        return len(self.assignments)

    def cluster_of(self, domain):
        return self.assignments[domain]

    def members(self, cluster):
        """All domain indices assigned to ``cluster`` (ascending)."""
        return tuple(
            d for d, c in enumerate(self.assignments) if c == cluster
        )

    @classmethod
    def identity(cls, n_domains):
        """Every domain its own cluster, no heads — the dense layout
        expressed as a plan (used by the backend-parity tests)."""
        return cls(
            assignments=tuple(range(n_domains)), n_clusters=n_domains,
        )

    def summary(self):
        populated = len(set(self.assignments))
        return {
            "n_domains": self.n_domains,
            "n_clusters": self.n_clusters,
            "populated_clusters": populated,
            "head_domains": len(self.head_domains),
            "tail_domains": self.n_domains - len(self.head_domains),
        }


@dataclass(frozen=True)
class DomainGroup:
    """One unit of per-domain work: a delta-sharing set of domains.

    ``kind`` is ``"cluster"`` (tail domains sharing one θ_cluster) or
    ``"domain"`` (a single domain with its own trainable delta — every
    group of the dense backend, and the head domains of the clustered
    one).  ``representative`` is the member whose data stands in for the
    group where a single domain index is needed.
    """

    kind: str
    key: str
    domains: tuple
    representative: int

    def __post_init__(self):
        if self.kind not in ("cluster", "domain"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not self.domains:
            raise ValueError("a group needs at least one domain")
        if self.representative not in self.domains:
            raise ValueError("representative must be a group member")


# ----------------------------------------------------------------------
# The storage protocol
# ----------------------------------------------------------------------
class DomainParamStore:
    """Protocol for per-domain parameter storage.

    A store owns ``θ_S`` plus whatever delta structure it chooses, and
    exposes domains through *groups* — partitions of ``0..n_domains-1``
    into delta-sharing units.  Callers must never assume one delta per
    domain; they iterate :meth:`groups`, read a group's trainable delta
    with :meth:`group_delta`, write it back with :meth:`apply_delta`, and
    materialize full serving states with :meth:`materialize` /
    :meth:`cow_states`.
    """

    n_domains = 0

    # -- shared state ---------------------------------------------------
    @property
    def shared(self):
        raise NotImplementedError

    def set_shared(self, state):
        raise NotImplementedError

    # -- structure ------------------------------------------------------
    def groups(self):
        """The delta-sharing partition of all domains (deterministic)."""
        raise NotImplementedError

    # -- deltas ---------------------------------------------------------
    def delta(self, domain):
        """The *effective* delta of one domain: ``θ_cluster + δ_domain``.

        May return zero-copy views into internal storage; callers that
        mutate must clone first (the DR round does).
        """
        raise NotImplementedError

    def group_delta(self, group):
        """The trainable delta of one group (views; clone before train)."""
        raise NotImplementedError

    def apply_delta(self, target, delta):
        """Store ``delta`` for ``target`` (a :class:`DomainGroup` or a
        domain index).  Values are copied in."""
        raise NotImplementedError

    # -- materialization ------------------------------------------------
    def materialize(self, domain):
        """``Θ_domain = θ_S + θ_cluster(domain) + δ_domain`` (Eq. 4)."""
        raise NotImplementedError

    def materialize_cow(self, domain, shared=None):
        """``Θ_domain`` with zero-delta entries aliasing ``shared``."""
        raise NotImplementedError

    def cow_states(self, shared):
        """Yield ``(domains, state)`` copy-on-write serving states.

        ``domains`` is a tuple of member indices sharing ``state``; state
        entries whose delta components are all-zero *are* the passed
        ``shared`` arrays (no copy), so publishing n domains does not cost
        n model copies — and with the clustered backend, not even
        n_materializations: one state per group.
        """
        raise NotImplementedError

    # -- accounting -----------------------------------------------------
    def nbytes(self):
        """Bytes held by the delta plane (excludes ``θ_S``)."""
        raise NotImplementedError

    def stats(self):
        return {"backend": type(self).__name__, "n_domains": self.n_domains,
                "groups": len(self.groups()), "delta_bytes": self.nbytes()}


def _cow_entry(base, *components):
    """``base + Σ components`` with all-zero component sets aliasing base."""
    live = [part for part in components if part.any()]
    if not live:
        return base
    out = base + live[0]
    for part in live[1:]:
        out += part
    return out


class DenseDomainStore(DomainParamStore):
    """The original layout: one explicit delta dict per domain.

    Bitwise-identical to the historical ``DomainParameterSpace`` —
    every group is a singleton, ``materialize`` is ``θ_S + θ_i`` — and
    kept as the default backend for every existing preset.
    """

    def __init__(self, shared_state, n_domains):
        if n_domains <= 0:
            raise ValueError("need at least one domain")
        self.n_domains = int(n_domains)
        self._shared = shared_state
        self._deltas = {
            domain: zeros_like_state(shared_state)
            for domain in range(self.n_domains)
        }
        self._groups = tuple(
            DomainGroup(kind="domain", key=f"d{d}", domains=(d,),
                        representative=d)
            for d in range(self.n_domains)
        )

    @property
    def shared(self):
        return self._shared

    def set_shared(self, state):
        self._shared = clone_state(state)

    def groups(self):
        return self._groups

    def _check(self, domain):
        if domain not in self._deltas:
            raise KeyError(f"unknown domain {domain}")
        return domain

    def delta(self, domain):
        return self._deltas[self._check(domain)]

    def group_delta(self, group):
        return self.delta(group.representative)

    def apply_delta(self, target, delta):
        domain = target.representative if isinstance(target, DomainGroup) \
            else target
        self._deltas[self._check(domain)] = clone_state(delta)

    def materialize(self, domain):
        return state_add(self._shared, self.delta(domain))

    def materialize_cow(self, domain, shared=None):
        shared = self._shared if shared is None else shared
        delta = self.delta(domain)
        return OrderedDict(
            (name, _cow_entry(base, delta[name]))
            for name, base in shared.items()
        )

    def cow_states(self, shared):
        for domain in range(self.n_domains):
            yield (domain,), self.materialize_cow(domain, shared)

    def nbytes(self):
        return sum(
            value.nbytes
            for delta in self._deltas.values() for value in delta.values()
        )


class _ClusterShard:
    """One cluster's deltas as contiguous arrays.

    Per parameter ``name``, ``arrays[name]`` has shape
    ``(1 + n_heads, *param_shape)``: row 0 is the cluster-level delta
    ``θ_cluster`` shared by the tail, rows 1.. are the head domains'
    residuals ``δ_domain``.  Contiguity keeps a cluster's whole delta
    plane in one allocation per parameter — cache-friendly to train and
    trivially cheap to account.
    """

    def __init__(self, shared_state, head_domains):
        self.head_rows = {
            int(d): index + 1 for index, d in enumerate(head_domains)
        }
        self.arrays = OrderedDict(
            (name, np.zeros((1 + len(self.head_rows),) + value.shape,
                            dtype=value.dtype))
            for name, value in shared_state.items()
        )

    def row(self, index):
        """Zero-copy state-dict view of one storage row."""
        return OrderedDict(
            (name, array[index]) for name, array in self.arrays.items()
        )

    def assign_row(self, index, delta):
        for name, array in self.arrays.items():
            array[index] = delta[name]

    def nbytes(self):
        return sum(array.nbytes for array in self.arrays.values())


class ClusteredDomainStore(DomainParamStore):
    """Cluster-sharded storage: tail domains share θ_cluster, head domains
    add an explicit residual, shards are contiguous per cluster.

    With ``ClusterPlan.identity`` (every domain its own cluster, no
    heads) this backend reproduces the dense layout's arithmetic exactly
    — the backend-parity tests pin training through both to identical
    AUC.
    """

    def __init__(self, shared_state, plan):
        if not isinstance(plan, ClusterPlan):
            raise TypeError("ClusteredDomainStore needs a ClusterPlan")
        self.plan = plan
        self.n_domains = plan.n_domains
        self._shared = shared_state
        self._members = {}
        for domain, cluster in enumerate(plan.assignments):
            self._members.setdefault(cluster, []).append(domain)
        self._shards = {}
        for cluster, members in self._members.items():
            heads = [d for d in members if d in plan.head_domains]
            self._shards[cluster] = _ClusterShard(shared_state, heads)
        self._groups = self._build_groups()
        self._by_key = {group.key: group for group in self._groups}

    def _build_groups(self):
        groups = []
        for cluster in sorted(self._members):
            tail = tuple(
                d for d in self._members[cluster]
                if d not in self.plan.head_domains
            )
            if tail:
                # Representative: the (deterministically) first tail
                # member; callers wanting the data-richest member order
                # the plan's members accordingly at planning time.
                groups.append(DomainGroup(
                    kind="cluster", key=f"c{cluster}", domains=tail,
                    representative=tail[0],
                ))
        for domain in sorted(self.plan.head_domains):
            groups.append(DomainGroup(
                kind="domain", key=f"d{domain}", domains=(domain,),
                representative=domain,
            ))
        return tuple(groups)

    # -- shared ---------------------------------------------------------
    @property
    def shared(self):
        return self._shared

    def set_shared(self, state):
        self._shared = clone_state(state)

    # -- structure ------------------------------------------------------
    def groups(self):
        return self._groups

    def _shard_of(self, domain):
        if not 0 <= domain < self.n_domains:
            raise KeyError(f"unknown domain {domain}")
        return self._shards[self.plan.cluster_of(domain)]

    # -- deltas ---------------------------------------------------------
    def delta(self, domain):
        shard = self._shard_of(domain)
        cluster_row = shard.row(0)
        head_row = shard.head_rows.get(domain)
        if head_row is None:
            return cluster_row
        return OrderedDict(
            (name, value + shard.arrays[name][head_row])
            for name, value in cluster_row.items()
        )

    def group_delta(self, group):
        if group.kind == "cluster":
            return self._shard_of(group.representative).row(0)
        return self.delta(group.representative)

    def apply_delta(self, target, delta):
        if isinstance(target, DomainGroup):
            target = self._by_key.get(target.key, target)
            if target.kind == "cluster":
                self._shard_of(target.representative).assign_row(0, delta)
                return
            target = target.representative
        domain = int(target)
        shard = self._shard_of(domain)
        head_row = shard.head_rows.get(domain)
        if head_row is not None:
            # Head residual: δ_domain = (effective delta) − θ_cluster.
            cluster_row = shard.row(0)
            shard.assign_row(head_row, OrderedDict(
                (name, delta[name] - cluster_row[name])
                for name in cluster_row
            ))
            return
        members = self.plan.members(self.plan.cluster_of(domain))
        tail = [d for d in members if d not in self.plan.head_domains]
        if tail == [domain]:
            shard.assign_row(0, delta)
            return
        raise ValueError(
            f"domain {domain} is a tail member of a shared cluster; its "
            "delta is θ_cluster — apply_delta to the cluster group, or "
            "promote the domain to a head in the ClusterPlan"
        )

    # -- materialization ------------------------------------------------
    def materialize(self, domain):
        shard = self._shard_of(domain)
        cluster_row = shard.row(0)
        head_row = shard.head_rows.get(domain)
        if head_row is None:
            return state_add(self._shared, cluster_row)
        return OrderedDict(
            (name, base + cluster_row[name] + shard.arrays[name][head_row])
            for name, base in self._shared.items()
        )

    def materialize_cow(self, domain, shared=None):
        shared = self._shared if shared is None else shared
        shard = self._shard_of(domain)
        head_row = shard.head_rows.get(domain)
        rows = (0,) if head_row is None else (0, head_row)
        return OrderedDict(
            (name, _cow_entry(
                base, *(shard.arrays[name][row] for row in rows)
            ))
            for name, base in shared.items()
        )

    def cow_states(self, shared):
        for group in self._groups:
            yield group.domains, self.materialize_cow(
                group.representative, shared
            )

    # -- accounting -----------------------------------------------------
    def nbytes(self):
        return sum(shard.nbytes() for shard in self._shards.values())

    def stats(self):
        stats = super().stats()
        stats.update(self.plan.summary())
        return stats


# ----------------------------------------------------------------------
# The façade
# ----------------------------------------------------------------------
class DomainParameterSpace:
    """Holds θ_S and the per-domain delta plane for a model skeleton.

    The space is created from a model's current state; all entries of the
    state participate in both the shared and the specific components,
    which is exactly the paper's "copy Θ into the shared parameters θ_S
    and specific parameters {θ_1 ... θ_n}" (Algorithm 3).

    Storage is pluggable: ``store`` may be a ready
    :class:`DomainParamStore` or a factory ``shared_state -> store``;
    omitted, the dense per-domain layout is used (bitwise-identical to
    the historical behaviour).
    """

    def __init__(self, model, n_domains, store=None):
        if n_domains <= 0:
            raise ValueError("need at least one domain")
        if store is None:
            store = DenseDomainStore(model.state_dict(), n_domains)
        elif callable(store) and not isinstance(store, DomainParamStore):
            store = store(model.state_dict())
        if store.n_domains != n_domains:
            raise ValueError(
                f"store covers {store.n_domains} domains, dataset has "
                f"{n_domains}"
            )
        self._store = store

    # -- protocol front door --------------------------------------------
    @property
    def store(self):
        return self._store

    @property
    def n_domains(self):
        return self._store.n_domains

    @property
    def shared(self):
        return self._store.shared

    def groups(self):
        """The store's delta-sharing partition (training/serving units)."""
        return self._store.groups()

    def group_delta(self, group):
        return self._store.group_delta(group)

    def apply_delta(self, target, delta):
        self._store.apply_delta(target, delta)

    def get(self, domain):
        """``Θ_domain`` — protocol alias of :meth:`materialize`."""
        return self._store.materialize(domain)

    def materialize(self, domain):
        """``Θ_domain = θ_S + θ_cluster(domain) + δ_domain`` (Eq. 4)."""
        return self._store.materialize(domain)

    def cow_states(self, shared):
        """Copy-on-write serving states, one per group (see store docs)."""
        return self._store.cow_states(shared)

    def training_plan(self, dataset):
        """``(view, groups)``: the dataset to train on and its units.

        The dense backend trains on the dataset as-is (one unit per
        domain).  The clustered backend returns a *cluster view* whose
        pseudo-domains merge each group's member tables, so DN visits
        n_groups units per epoch and DR trains one delta per unit —
        AdaptDHM's cluster-granularity training.  ``groups[i]`` always
        corresponds to ``view.domain(i)``.
        """
        groups = self._store.groups()
        if all(group.kind == "domain" and len(group.domains) == 1
               for group in groups) and len(groups) == dataset.n_domains:
            return dataset, groups
        return _cluster_view(dataset, groups), groups

    def nbytes(self):
        return self._store.nbytes()

    # -- legacy API (unchanged semantics) -------------------------------
    def combined(self, domain):
        """``Θ_domain = θ_S + θ_domain`` (Eq. 4)."""
        return self._store.materialize(domain)

    def set_shared(self, state):
        self._store.set_shared(state)

    def set_delta(self, domain, delta):
        self._store.apply_delta(int(domain), delta)

    def delta(self, domain):
        return self._store.delta(domain)

    def load_shared(self, model):
        """Load θ_S into the model (DN's working view)."""
        model.load_state_dict(self.shared)

    def load_combined(self, model, domain):
        """Load Θ_domain into the model (DR's and serving's view)."""
        model.load_state_dict(self.combined(domain))

    def extract_delta(self, model, domain=None):
        """Read the model's current state as a delta against θ_S.

        Computed straight from the live parameters (one allocation) rather
        than ``state_sub(model.state_dict(), ...)`` (two) — this runs once
        per DR helper step.
        """
        shared = self.shared
        return OrderedDict(
            (name, param.data - shared[name])
            for name, param in model.named_parameters()
        )

    def all_combined(self):
        """``{domain: Θ_domain}`` for deployment as a StateBank.

        Group-gated: members of a delta-sharing group receive the *same*
        state object, so the clustered backend materializes once per
        group instead of once per domain.
        """
        combined = {}
        for group in self._store.groups():
            state = self._store.materialize(group.representative)
            for domain in group.domains:
                combined[domain] = state
        return combined


def _cluster_view(dataset, groups):
    """A dataset whose domains are the store's groups (merged tables)."""
    from ..data.schema import Domain, InteractionTable, MultiDomainDataset

    domains = []
    for index, group in enumerate(groups):
        members = [dataset.domain(d) for d in group.domains]
        if len(members) == 1:
            source = members[0]
            train, val, test = source.train, source.val, source.test
        else:
            train = InteractionTable.concatenate(m.train for m in members)
            val = InteractionTable.concatenate(m.val for m in members)
            test = InteractionTable.concatenate(m.test for m in members)
        domains.append(Domain(
            name=group.key, index=index, train=train, val=val, test=test,
        ))
    return MultiDomainDataset(
        f"{dataset.name}#groups", domains,
        n_users=dataset.n_users, n_items=dataset.n_items,
        user_features=dataset.user_features,
        item_features=dataset.item_features,
    )
