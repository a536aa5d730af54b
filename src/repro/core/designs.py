"""The declarative design registry.

Every runnable design point — the unmodified GPU, the three BOW
writeback policies, the half-size BOW-WR, and the RFC comparison — is
one :class:`DesignSpec`: a name, a provider factory (an engine plus a
provider *is* a design), an optional BOW config factory, and the two
metadata bits the experiment layer needs (``hinted``, ``windowless``).

Everything that used to be special-cased by name — ``"rfc"`` branches
in the runner, hand-kept hinted/windowless sets, CLI hint selection —
now derives from this registry.  Adding a design (say an RFC variant or
a latency-tolerant RF model) is one :func:`register_design` call; the
runner, grid, CLI, figures, and ablation drivers pick it up without
modification.

The registry is intentionally tiny and import-cycle-free: provider
classes are imported lazily inside the factories where needed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..config import (
    BOWConfig,
    bow_config,
    bow_wb_config,
    bow_wr_config,
)
from ..errors import SimulationError
from ..gpu.collector import BaselineCollectorPool, OperandProvider


#: A provider factory: ``(engine, window_size) -> OperandProvider``.
ProviderFactory = Callable[[object, int], OperandProvider]

#: A BOW-config factory: ``window_size -> BOWConfig`` (``None`` for
#: designs that are not BOW organizations).
BowConfigFactory = Callable[[int], BOWConfig]


@dataclass(frozen=True)
class DesignSpec:
    """One registered design point.

    Attributes:
        name: registry key (the name used on every CLI/driver surface).
        description: one-line summary shown by ``repro list --designs``.
        provider: factory building the design's operand provider for an
            engine; receives ``(engine, window_size)``.
        bow_config: factory of the design's :class:`BOWConfig` keyed by
            the instruction window, or ``None`` when the design is not
            a BOW organization (baseline, RFC).  Only BOW organizations
            accept a ``bow`` override in ``simulate_design``.
        hinted: the design consumes compiler writeback hints, so its
            traces must be hint-compiled for the window under test.
        windowless: the design ignores the instruction-window knob
            (cache keys collapse every window to 0).
        num_sms: default SM count for device-scale runs of this design
            (``repro run --sms`` overrides it).  1 means the design's
            canonical numbers are single-SM, as the paper reports them.
    """

    name: str
    description: str
    provider: ProviderFactory = field(repr=False)
    bow_config: Optional[BowConfigFactory] = field(default=None, repr=False)
    hinted: bool = False
    windowless: bool = False
    num_sms: int = 1

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise SimulationError(
                f"design {self.name!r}: num_sms must be >= 1, "
                f"got {self.num_sms}"
            )


_REGISTRY: Dict[str, DesignSpec] = {}


def register_design(spec: DesignSpec) -> DesignSpec:
    """Add ``spec`` to the registry (its name must be unused)."""
    if spec.name in _REGISTRY:
        raise SimulationError(f"design {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_design(name: str) -> None:
    """Remove a registered design (test/ablation cleanup)."""
    _REGISTRY.pop(name, None)


@contextlib.contextmanager
def temporary_design(spec: DesignSpec) -> Iterator[DesignSpec]:
    """Register ``spec`` for the duration of a ``with`` block."""
    register_design(spec)
    try:
        yield spec
    finally:
        unregister_design(spec.name)


def design_names() -> Tuple[str, ...]:
    """Every registered design name, sorted."""
    return tuple(sorted(_REGISTRY))


def known_designs() -> str:
    """The sorted, comma-joined name list used in error messages."""
    return ", ".join(design_names())


def get_design(name: str) -> DesignSpec:
    """The spec registered under ``name`` (:class:`KeyError` if absent).

    Callers that own a user-facing surface should catch the
    :class:`KeyError` and raise their layer's error type with
    :func:`known_designs` in the message, so every entry point reports
    unknown designs identically.
    """
    return _REGISTRY[name]


def design_specs() -> Tuple[DesignSpec, ...]:
    """Every registered spec, sorted by name."""
    return tuple(_REGISTRY[name] for name in design_names())


# ----------------------------------------------------------------------
# the paper's design points
# ----------------------------------------------------------------------

def _baseline_provider(engine, window_size: int) -> OperandProvider:
    return BaselineCollectorPool(engine, engine.config.num_operand_collectors)


def _bow_provider(factory: BowConfigFactory) -> ProviderFactory:
    def build(engine, window_size: int) -> OperandProvider:
        from .boc import BOWCollectors

        return BOWCollectors(engine, factory(window_size))

    return build


def _rfc_provider(engine, window_size: int) -> OperandProvider:
    from .rfc import RFC_ENTRIES_PER_WARP, RFCCollectors

    return RFCCollectors(engine, engine.config.num_operand_collectors,
                         RFC_ENTRIES_PER_WARP)


register_design(DesignSpec(
    name="baseline",
    description="unmodified GPU: conventional OCU pool, no bypassing",
    provider=_baseline_provider,
    windowless=True,
))
register_design(DesignSpec(
    name="bow",
    description="BOW write-through: bypassing collectors, RF kept current",
    provider=_bow_provider(bow_config),
    bow_config=bow_config,
))
register_design(DesignSpec(
    name="bow-wb",
    description="BOW-WB: write-back collectors, dirty values linger",
    provider=_bow_provider(bow_wb_config),
    bow_config=bow_wb_config,
))
register_design(DesignSpec(
    name="bow-wr",
    description="BOW-WR: compiler writeback hints eliminate dead RF writes",
    provider=_bow_provider(bow_wr_config),
    bow_config=bow_wr_config,
    hinted=True,
))
register_design(DesignSpec(
    name="bow-wr-half",
    description="BOW-WR with half-capacity operand storage",
    provider=_bow_provider(lambda iw: bow_wr_config(iw, half_size=True)),
    bow_config=lambda iw: bow_wr_config(iw, half_size=True),
    hinted=True,
))
register_design(DesignSpec(
    name="rfc",
    description="register-file cache (Gebhart et al.), the closest prior",
    provider=_rfc_provider,
    windowless=True,
))
