"""Shared + domain-specific parameter composition (Eq. 4) at any scale.

MAMDR keeps one shared state ``θ_S`` and, per domain, an additive delta
``θ_i``, serving domain ``i`` with ``Θ_i = θ_S + θ_i``.  Deltas (rather
than absolute states) make the "specific parameters point from the shared
solution toward the finetune endpoint" picture of Figure 4 literal, and
they are what the PS-Worker implementation ships around.

The paper's headline deployment holds **69,102 domains** — far past the
point where a ``{domain: state_dict}`` is affordable.  The delta plane is
therefore laid out by a :class:`ClusterPlan`:

``combined(domain) = θ_S + θ_cluster(domain) + δ_domain``

Domains are grouped by distribution similarity
(:mod:`repro.core.clustering`), **tail** domains share one cluster-level
delta, **head** domains add an explicit per-domain residual, and all
deltas of a cluster live in one contiguous array shard.  Training,
snapshot materialization and evaluation gate work by
:meth:`DomainParameterSpace.groups` — O(n_clusters + n_heads) units
instead of O(n_domains) — which is what AdaptDHM-style
cluster-granularity training needs to reach 10k-50k domains on one
machine.  The default plan, :meth:`ClusterPlan.identity`, gives every
domain its own cluster: one delta per domain, the classic ``θ_i``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..nn.state import clone_state, state_add

__all__ = [
    "ClusterPlan",
    "DomainGroup",
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

    @classmethod
    def identity(cls, n_domains):
        """Every domain its own cluster, no heads: one delta per domain
        (the default layout of :class:`DomainParameterSpace`)."""
        return cls(tuple(range(n_domains)), n_domains)


@dataclass(frozen=True)
class DomainGroup:
    """One unit of per-domain work: a delta-sharing set of domains.

    ``kind`` is ``"cluster"`` (tail domains sharing one θ_cluster) or
    ``"domain"`` (a head domain with its own trainable residual).
    ``representative`` is the member whose data stands in for the group
    where a single domain index is needed.
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


def _cow_entry(base, *components):
    """``base + Σ components`` with all-zero component sets aliasing base."""
    live = [part for part in components if part.any()]
    if not live:
        return base
    out = base + live[0]
    for part in live[1:]:
        out += part
    return out


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


class DomainParameterSpace:
    """Holds θ_S and the cluster-sharded delta plane for a model skeleton.

    The space is created from a model's current state; all entries of the
    state participate in both the shared and the specific components,
    which is exactly the paper's "copy Θ into the shared parameters θ_S
    and specific parameters {θ_1 ... θ_n}" (Algorithm 3).

    ``plan`` (a :class:`ClusterPlan`) lays out the delta plane: tail
    domains share their cluster's θ_cluster, head domains add an explicit
    residual, and each cluster's deltas live in one contiguous shard.
    Omitted, it is ``ClusterPlan.identity(n_domains)`` — one delta per
    domain, the classic ``θ_i``.
    """

    def __init__(self, model, n_domains, plan=None):
        if n_domains <= 0:
            raise ValueError("need at least one domain")
        if plan is None:
            plan = ClusterPlan.identity(n_domains)
        elif not isinstance(plan, ClusterPlan):
            raise TypeError("plan must be a ClusterPlan")
        if plan.n_domains != n_domains:
            raise ValueError(
                f"plan covers {plan.n_domains} domains, dataset has "
                f"{n_domains}"
            )
        self.plan = plan
        self.n_domains = plan.n_domains
        self._shared = model.state_dict()
        members = {}
        for domain, cluster in enumerate(plan.assignments):
            members.setdefault(cluster, []).append(domain)
        self._shards = {}
        self._tails = {}
        for cluster, domains in members.items():
            heads = [d for d in domains if d in plan.head_domains]
            self._shards[cluster] = _ClusterShard(self._shared, heads)
            self._tails[cluster] = tuple(
                d for d in domains if d not in plan.head_domains
            )
        self._groups = self._build_groups()
        self._by_key = {group.key: group for group in self._groups}

    def _build_groups(self):
        groups = []
        for cluster in sorted(self._tails):
            tail = self._tails[cluster]
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
        """The delta-sharing partition of all domains (deterministic)."""
        return self._groups

    def _shard_of(self, domain):
        if not 0 <= domain < self.n_domains:
            raise KeyError(f"unknown domain {domain}")
        return self._shards[self.plan.cluster_of(domain)]

    def training_plan(self, dataset):
        """``(view, groups)``: the dataset to train on and its units.

        When every group is the singleton of its own index (the identity
        plan) the dataset trains as-is.  Otherwise the view's
        pseudo-domains merge each group's member tables, so DN visits
        n_groups units per epoch and DR trains one delta per unit —
        AdaptDHM's cluster-granularity training.  ``groups[i]`` always
        corresponds to ``view.domain(i)``.
        """
        groups = self._groups
        if len(groups) == dataset.n_domains and all(
            group.domains == (index,) for index, group in enumerate(groups)
        ):
            return dataset, groups
        return _cluster_view(dataset, groups), groups

    # -- deltas ---------------------------------------------------------
    def delta(self, domain):
        """The *effective* delta of one domain: ``θ_cluster + δ_domain``.

        May return zero-copy views into the shards; callers that mutate
        must clone first (the DR round does).
        """
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
        """The trainable delta of one group (views; clone before train)."""
        if group.kind == "cluster":
            return self._shard_of(group.representative).row(0)
        return self.delta(group.representative)

    def apply_delta(self, target, delta):
        """Store ``delta`` for ``target`` (a :class:`DomainGroup` or a
        domain index).  Values are copied in."""
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
        if self._tails[self.plan.cluster_of(domain)] == (domain,):
            shard.assign_row(0, delta)
            return
        raise ValueError(
            f"domain {domain} is a tail member of a shared cluster; its "
            "delta is θ_cluster — apply_delta to the cluster group, or "
            "promote the domain to a head in the ClusterPlan"
        )

    def set_delta(self, domain, delta):
        self.apply_delta(int(domain), delta)

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

    # -- materialization ------------------------------------------------
    def combined(self, domain):
        """``Θ_domain = θ_S + θ_cluster(domain) + δ_domain`` (Eq. 4)."""
        shard = self._shard_of(domain)
        cluster_row = shard.row(0)
        head_row = shard.head_rows.get(domain)
        if head_row is None:
            return state_add(self._shared, cluster_row)
        return OrderedDict(
            (name, base + cluster_row[name] + shard.arrays[name][head_row])
            for name, base in self._shared.items()
        )

    def load_shared(self, model):
        """Load θ_S into the model (DN's working view)."""
        model.load_state_dict(self.shared)

    def load_combined(self, model, domain):
        """Load Θ_domain into the model (DR's and serving's view)."""
        model.load_state_dict(self.combined(domain))

    def all_combined(self):
        """``{domain: Θ_domain}`` for deployment as a StateBank.

        Group-gated: members of a delta-sharing group receive the *same*
        state object, so a clustered space materializes once per group
        instead of once per domain.
        """
        combined = {}
        for group in self._groups:
            state = self.combined(group.representative)
            for domain in group.domains:
                combined[domain] = state
        return combined

    def cow_states(self, shared):
        """Yield ``(domains, state)`` copy-on-write serving states.

        ``domains`` is a tuple of member indices sharing ``state``; state
        entries whose delta components are all-zero *are* the passed
        ``shared`` arrays (no copy), so publishing n domains does not cost
        n model copies — and with a clustered plan, not even
        n materializations: one state per group.
        """
        for group in self._groups:
            shard = self._shard_of(group.representative)
            head_row = shard.head_rows.get(group.representative)
            rows = (0,) if head_row is None else (0, head_row)
            yield group.domains, OrderedDict(
                (name, _cow_entry(
                    base, *(shard.arrays[name][row] for row in rows)
                ))
                for name, base in shared.items()
            )

    # -- accounting -----------------------------------------------------
    def nbytes(self):
        """Bytes held by the delta plane (excludes ``θ_S``)."""
        return sum(shard.nbytes() for shard in self._shards.values())


def _cluster_view(dataset, groups):
    """A dataset whose domains are the space's groups (merged tables)."""
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
