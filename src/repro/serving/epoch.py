"""``EpochBoard``: the former name of ``registry.EpochRegistry``."""
from repro.serving.registry import EpochRegistry as EpochBoard  # noqa: F401
