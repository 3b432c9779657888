"""Former home of the shared-memory slot table, now
:class:`repro.serving.registry.EpochRegistry` built by ``create`` /
``attach``; ``EpochBoard`` is kept as an alias."""

from repro.serving.registry import EpochRegistry as EpochBoard

__all__ = ["EpochBoard"]
