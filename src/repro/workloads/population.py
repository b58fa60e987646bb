"""Million-user traffic shaping: heavy-tailed tenant populations and
diurnal arrival-rate modulation.

The sweeps so far drew tenants uniformly from a handful of ids — fine
for placement studies, useless for datacenter questions ("what does the
p99 of the 1% of tenants carrying half the bytes look like?").  This
module scales the open-loop shape to populations of 10^5..10^6 tenants
without scaling the per-request cost:

* :class:`TenantPopulationSpec` declares a skewed popularity law
  (Pareto or lognormal weights, seeded); :func:`realize_population`
  materialises it once into a :class:`TenantPopulation` — a cumulative
  weight table answering ``tenant_for(u)`` with one bisect, cached
  process-wide so a sweep touching the same population pays the build
  exactly once.
* :class:`DiurnalSpec` modulates an open-loop stream's arrival rate
  sinusoidally over simulated time (the day/night swing every serving
  paper's traffic traces show), deterministically — the modulation is
  a pure function of virtual time, so runs stay seed-stable.
* :class:`PopulationStream` plugs both into the existing
  :class:`~repro.service.request.OpenLoopStream` protocol: tenants come
  from the population instead of ``randrange``, and the driving client
  divides each Poisson gap by the rate factor at the current virtual
  instant.

Everything is declared in the sweep layer's ``WorkloadSpec``
(``population`` / ``diurnal`` sections) and in
:class:`~repro.federation.FederationSpec`, so the million-user model is
a JSON document away for any grid.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.service.request import BEST_EFFORT, OffloadRequest, OpenLoopStream
from repro.speccodec import Spec

__all__ = [
    "DiurnalSpec",
    "PopulationStream",
    "TenantPopulation",
    "TenantPopulationSpec",
    "realize_population",
]

#: Popularity laws a :class:`TenantPopulationSpec` may declare.
POPULATION_DISTRIBUTIONS = ("pareto", "lognormal")


class _Spec(Spec):
    # Populations are traffic parameters, not cluster topology.
    __slots__ = ()
    error = WorkloadError


@dataclass(frozen=True, slots=True)
class TenantPopulationSpec(_Spec):
    """A skewed tenant popularity law, declaratively.

    ``tenants`` is the population size; each tenant gets an i.i.d.
    weight from the declared distribution (seeded by ``seed``, which is
    a *population identity*, independent of the stream seed — two
    sweeps with different arrival seeds over the same population spec
    see the same heavy tail).  ``pareto`` with ``alpha`` close to 1
    gives the classic few-tenants-carry-most-bytes shape; ``lognormal``
    with large ``sigma`` a milder skew with a long midsection.
    """

    tenants: int = 100_000
    distribution: str = "pareto"
    #: Pareto shape (smaller = heavier tail); only for ``pareto``.
    alpha: float = 1.1
    #: Lognormal log-scale parameters; only for ``lognormal``.
    mu: float = 0.0
    sigma: float = 2.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise WorkloadError(
                f"population needs at least one tenant, got {self.tenants}"
            )
        if self.distribution not in POPULATION_DISTRIBUTIONS:
            raise WorkloadError(
                f"unknown population distribution {self.distribution!r}; "
                f"known: {list(POPULATION_DISTRIBUTIONS)}"
            )
        if self.alpha <= 0:
            raise WorkloadError(
                f"pareto alpha must be > 0, got {self.alpha}"
            )
        if self.sigma <= 0:
            raise WorkloadError(
                f"lognormal sigma must be > 0, got {self.sigma}"
            )


class TenantPopulation:
    """A realized population: cumulative weights, one bisect per draw.

    Build via :func:`realize_population` (cached) rather than directly;
    a 10^5-tenant table is ~1 MB and a few tens of milliseconds to
    draw, which must not be paid per stream in a sweep.
    """

    __slots__ = ("spec", "_cumulative", "_total")

    def __init__(self, spec: TenantPopulationSpec) -> None:
        self.spec = spec
        rng = random.Random(spec.seed)
        if spec.distribution == "pareto":
            draw = rng.paretovariate
            weights = [draw(spec.alpha) for _ in range(spec.tenants)]
        else:
            draw = rng.lognormvariate
            weights = [draw(spec.mu, spec.sigma)
                       for _ in range(spec.tenants)]
        total = 0.0
        # Raw doubles: a 10^5-entry table of float objects would cost
        # ~2.4 MB more and sit in the cyclic GC's full collections.
        cumulative = array("d")
        for weight in weights:
            total += weight
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    @property
    def tenants(self) -> int:
        return self.spec.tenants

    def tenant_for(self, u: float) -> int:
        """The tenant id a uniform draw ``u`` in [0, 1) lands on."""
        index = bisect_right(self._cumulative, u * self._total)
        if index >= self.spec.tenants:  # float edge at u -> 1.0
            index = self.spec.tenants - 1
        return index

    def top_share(self, fraction: float) -> float:
        """Traffic share of the heaviest ``fraction`` of tenants.

        The headline heavy-tail statistic ("the top 1% of tenants carry
        X% of the requests"); tests pin it well above the uniform
        baseline.
        """
        if not 0.0 < fraction <= 1.0:
            raise WorkloadError(
                f"top_share fraction must be in (0, 1], got {fraction}"
            )
        count = max(1, math.ceil(fraction * self.spec.tenants))
        previous = 0.0
        weights = []
        for value in self._cumulative:
            weights.append(value - previous)
            previous = value
        weights.sort(reverse=True)
        return sum(weights[:count]) / self._total


#: Process-wide realized-population cache (specs are frozen/hashable).
#: Sweeps and federations re-declare the same population per point;
#: the weight table builds once, like device calibration.
_POPULATION_CACHE: dict[TenantPopulationSpec, TenantPopulation] = {}


def realize_population(spec: TenantPopulationSpec) -> TenantPopulation:
    """The (cached) realized sampler for a population spec."""
    population = _POPULATION_CACHE.get(spec)
    if population is None:
        population = TenantPopulation(spec)
        _POPULATION_CACHE[spec] = population
    return population


@dataclass(frozen=True, slots=True)
class DiurnalSpec(_Spec):
    """Sinusoidal arrival-rate modulation over simulated time.

    The instantaneous rate factor is::

        rate_at(t) = 1 + amplitude * sin(2 * pi * (t / period_ns + phase))

    so offered load swings between ``(1 - amplitude)`` and
    ``(1 + amplitude)`` times the declared rate with period
    ``period_ns``; ``phase`` (in fractions of a period) positions the
    peak.  The driving client divides each Poisson gap by the factor at
    the instant the gap is drawn — an arrival-interval approximation of
    an inhomogeneous Poisson process that stays exactly seed-stable
    because the factor is a pure function of virtual time.
    """

    period_ns: float = 1e6
    amplitude: float = 0.5
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise WorkloadError(
                f"diurnal period must be > 0 ns, got {self.period_ns}"
            )
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError(
                f"diurnal amplitude must be in [0, 1), got "
                f"{self.amplitude} (1.0 would stall arrivals entirely)"
            )

    def rate_at(self, t_ns: float) -> float:
        """Instantaneous rate multiplier at virtual time ``t_ns``."""
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t_ns / self.period_ns + self.phase))


@dataclass(slots=True)
class PopulationStream(OpenLoopStream):
    """An open-loop stream drawing tenants from a realized population,
    optionally rate-modulated by a :class:`DiurnalSpec`.

    Plugs into :class:`~repro.cluster.clients.OpenLoopClient`
    unchanged: the client reads ``diurnal`` (``None`` on the base
    stream, absent attribute there) to decide whether to divide each
    Poisson gap by the diurnal rate factor, and
    ``make_request`` draws the tenant with one uniform variate + bisect
    instead of ``randrange``.  ``population=None`` keeps the base
    stream's uniform tenant draw — the diurnal-only shape.
    """

    population: TenantPopulation | None = None
    diurnal: DiurnalSpec | None = None

    def __post_init__(self) -> None:
        OpenLoopStream.__post_init__(self)
        if self.population is not None:
            # Keep the flat tenant count coherent with the population
            # so report columns derived from it stay meaningful.
            self.tenants = self.population.tenants

    def make_request(self, rng: random.Random) -> OffloadRequest:
        if self.population is None:
            return OpenLoopStream.make_request(self, rng)
        low, high = self.ratio_range
        slo = BEST_EFFORT
        if self._slo_classes:
            slo = rng.choices(self._slo_classes,
                              weights=self._slo_weights)[0]
        return OffloadRequest(
            tenant=self.population.tenant_for(rng.random()),
            nbytes=rng.choice(self.request_sizes),
            ratio=rng.uniform(low, high),
            slo=slo,
        )
