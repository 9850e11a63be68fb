"""Shared + domain-specific parameter composition (Eq. 4).

MAMDR keeps one shared state ``θ_S`` and, per domain, an additive delta
``θ_i``, serving domain ``i`` with ``Θ_i = θ_S + θ_i``.  Deltas (rather
than absolute states) make the "specific parameters point from the shared
solution toward the finetune endpoint" picture of Figure 4 literal, and
they are what the PS-Worker implementation ships around.

:class:`DomainParameterSpace` holds exactly that: ``θ_S`` and one
full-shape delta per domain.  Training, snapshot materialization and
evaluation all address a delta by its domain index.
"""

from __future__ import annotations

from collections import OrderedDict

from ..nn.state import clone_state, state_add, zeros_like_state

__all__ = [
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


class DomainParameterSpace:
    """Holds θ_S and one delta θ_i per domain for a model skeleton.

    The space is created from a model's current state; all entries of the
    state participate in both the shared and the specific components,
    which is exactly the paper's "copy Θ into the shared parameters θ_S
    and specific parameters {θ_1 ... θ_n}" (Algorithm 3).  Every delta
    starts at zero.
    """

    def __init__(self, model, n_domains):
        if n_domains <= 0:
            raise ValueError("need at least one domain")
        self.n_domains = n_domains
        self._shared = model.state_dict()
        self._deltas = tuple(
            zeros_like_state(self._shared) for _ in range(n_domains)
        )

    # -- shared ---------------------------------------------------------
    @property
    def shared(self):
        return self._shared

    def set_shared(self, state):
        self._shared = clone_state(state)

    def training_plan(self, dataset):
        """``(dataset, domains)``: the dataset to train on and the delta
        index of each of its domains, ``0 .. n_domains - 1``."""
        if dataset.n_domains != self.n_domains:
            raise ValueError(
                f"dataset has {dataset.n_domains} domains, the space "
                f"{self.n_domains}"
            )
        return dataset, tuple(range(self.n_domains))

    # -- deltas ---------------------------------------------------------
    def delta(self, domain):
        """Domain ``domain``'s delta θ_i.

        Returns the stored arrays themselves (no copy); callers that
        mutate must clone first (the DR round does).
        """
        if not 0 <= domain < self.n_domains:
            raise KeyError(f"unknown domain {domain}")
        return self._deltas[domain]

    # The benchmark lanes spell the DR sweep out under this name.
    group_delta = delta

    def apply_delta(self, domain, delta):
        """Store ``delta`` as domain ``domain``'s θ_i (values are copied
        in)."""
        for name, value in self.delta(int(domain)).items():
            value[...] = delta[name]

    def extract_delta(self, model):
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
        """``Θ_domain = θ_S + θ_domain`` (Eq. 4), freshly allocated."""
        return state_add(self._shared, self.delta(domain))

    def load_shared(self, model):
        """Load θ_S into the model (DN's working view)."""
        model.load_state_dict(self.shared)

    def load_combined(self, model, domain):
        """Load Θ_domain into the model (DR's and serving's view)."""
        model.load_state_dict(self.combined(domain))

    def all_combined(self):
        """``{domain: Θ_domain}`` for deployment as a StateBank."""
        return {domain: self.combined(domain)
                for domain in range(self.n_domains)}

    def cow_states(self, shared):
        """``{domain: state}`` copy-on-write serving states.

        Entries whose delta is all-zero *are* the passed ``shared``
        arrays (no copy), so publishing n domains does not cost n model
        copies.
        """
        return {
            domain: OrderedDict(
                (name, base + delta[name] if delta[name].any() else base)
                for name, base in shared.items()
            )
            for domain, delta in enumerate(self._deltas)
        }

    # -- accounting -----------------------------------------------------
    def nbytes(self):
        """Bytes held by the deltas (excludes ``θ_S``)."""
        return sum(value.nbytes for delta in self._deltas
                   for value in delta.values())
