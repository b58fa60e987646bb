"""Per-device request cost models calibrated from the hw layer.

The service layer needs ``(nbytes, ratio) -> latency budget`` for every
fleet device without running the functional codecs per request.  This
module runs a handful of real requests through a
:class:`~repro.hw.engine.CdpuDevice` at calibration time, splits each
measured :class:`~repro.hw.engine.RequestResult` with
:meth:`~repro.hw.engine.CdpuDevice.service_profile`, and fits a small
parametric model:

* ``submit_ns`` — the doorbell/descriptor cost, kept separate so
  batching can amortize it across a batch (Finding 2's per-request
  overhead is exactly what batch submission buys back);
* ``pre_ns``/``post_ns`` — transfer-in / transfer-out + completion,
  linear in request size (the interconnect term that separates the
  placements in Figure 11);
* ``engine_ns`` — engine occupancy, linear in size with the slope and
  intercept interpolated between compressibility anchors (the Figure 12
  degradation axis).

Calibration is one measurement pass per device over every requested op
(:meth:`DeviceCostModel.calibrate`): each (size, ratio) sample is
compressed once, the decompress fit decompresses that same payload, and
each op's model is fitted from its own results alone — so it is
identical whether the op is calibrated alone or alongside the other.
The codecs are pure Python, so this pass is the costly part of building
a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceError
from repro.hw.engine import CdpuDevice, RequestResult
from repro.workloads.datagen import ratio_controlled_bytes


@dataclass(slots=True)
class ModeledCost:
    """Predicted latency budget for one request (all ns)."""

    submit_ns: float
    pre_ns: float
    engine_ns: float
    post_ns: float

    @property
    def total_ns(self) -> float:
        return self.submit_ns + self.pre_ns + self.engine_ns + self.post_ns


@dataclass(slots=True)
class RatioAnchor:
    """Linear-in-size engine occupancy fit at one achieved ratio."""

    ratio: float
    overhead_ns: float
    per_byte_ns: float


class DeviceCostModel:
    """Predicts a request's phase budget for one device."""

    def __init__(self, anchors: list[RatioAnchor],
                 submit_ns: float = 0.0,
                 pre_overhead_ns: float = 0.0,
                 pre_per_byte_ns: float = 0.0,
                 post_overhead_ns: float = 0.0,
                 post_per_byte_ns: float = 0.0) -> None:
        if not anchors:
            raise ServiceError("cost model needs at least one ratio anchor")
        self.anchors = sorted(anchors, key=lambda a: a.ratio)
        self.submit_ns = submit_ns
        self.pre_overhead_ns = pre_overhead_ns
        self.pre_per_byte_ns = pre_per_byte_ns
        self.post_overhead_ns = post_overhead_ns
        self.post_per_byte_ns = post_per_byte_ns
        #: nbytes -> (submit, pre, post, anchor ratios, anchor engines)
        self._rows: dict[int, tuple[float, float, float,
                                    tuple[float, ...],
                                    tuple[float, ...]]] = {}

    # -- prediction ----------------------------------------------------------

    def _row(self, nbytes: int) -> tuple:
        """Memoize the size-dependent terms of a prediction.

        The dispatch hot path prices every candidate device on every
        request, and workload generators draw sizes from a small
        palette, so each row (submit/pre/post budgets and the engine
        occupancy at every anchor) is computed once per size.  The memo
        is only valid because anchors and fit fields are never changed
        after construction.
        """
        if nbytes <= 0:
            raise ServiceError(f"request size must be > 0, got {nbytes}")
        anchors = self.anchors
        row = (
            max(self.submit_ns, 0.0),
            max(self.pre_overhead_ns + self.pre_per_byte_ns * nbytes, 0.0),
            max(self.post_overhead_ns + self.post_per_byte_ns * nbytes, 0.0),
            tuple(anchor.ratio for anchor in anchors),
            tuple(anchor.overhead_ns + anchor.per_byte_ns * nbytes
                  for anchor in anchors),
        )
        self._rows[nbytes] = row
        return row

    def predict(self, nbytes: int, ratio: float = 1.0) -> ModeledCost:
        row = self._rows.get(nbytes)
        if row is None:
            row = self._row(nbytes)
        submit_ns, pre_ns, post_ns, ratios, engines = row
        if ratio <= ratios[0]:
            engine = engines[0]
        elif ratio >= ratios[-1]:
            engine = engines[-1]
        else:
            engine = engines[-1]
            for index in range(len(ratios) - 1):
                low = ratios[index]
                high = ratios[index + 1]
                if low <= ratio <= high:
                    span = high - low
                    weight = (ratio - low) / span if span > 0 else 0.0
                    engine = (engines[index] * (1 - weight)
                              + engines[index + 1] * weight)
                    break
        return ModeledCost(submit_ns, pre_ns, max(engine, 1.0), post_ns)

    # -- calibration ---------------------------------------------------------

    @classmethod
    def calibrate(cls, device: CdpuDevice,
                  ops: tuple[str, ...] = ("compress",),
                  sizes: tuple[int, int] = (2048, 8192),
                  ratios: tuple[float, ...] = (0.35, 1.0),
                  seed: int = 17) -> dict[str, "DeviceCostModel"]:
        """Fit one model per op by measuring real requests on ``device``.

        One measurement pass: each (size, ratio) sample is compressed
        once, and when ``"decompress"`` is in ``ops`` that payload is
        decompressed too.  Each op is fitted from its own results only,
        so a model is the same whichever other ops share the pass.
        """
        if len(sizes) != 2 or sizes[0] >= sizes[1]:
            raise ServiceError(f"need two ascending sizes, got {sizes}")
        unknown = [op for op in ops if op not in ("compress", "decompress")]
        if not ops or unknown:
            raise ServiceError(f"cannot calibrate ops {list(ops)}; "
                               f"known: ['compress', 'decompress']")
        measured: dict[str, list[tuple[int, RequestResult]]] = {
            op: [] for op in ops}
        for index, target in enumerate(ratios):
            for size in sizes:
                data = ratio_controlled_bytes(size, target,
                                              seed=seed + index)
                result = device.compress(data)
                if "compress" in measured:
                    measured["compress"].append((size, result))
                if "decompress" in measured:
                    measured["decompress"].append(
                        (size, device.decompress(result.payload)))
        return {op: cls._fit(device, samples)
                for op, samples in measured.items()}

    @classmethod
    def _fit(cls, device: CdpuDevice,
             samples: list[tuple[int, RequestResult]]) -> "DeviceCostModel":
        """Fit a model from (size, result) samples, small/large per ratio."""
        anchors: list[RatioAnchor] = []
        submit_samples: list[float] = []
        pre_points: list[tuple[int, float]] = []
        post_points: list[tuple[int, float]] = []
        measured: list[tuple[int, float, float]] = []
        for size, result in samples:
            profile = device.service_profile(result)
            submit = result.latency.submit_ns
            submit_samples.append(submit)
            pre_points.append((size, max(profile.pre_ns - submit, 0.0)))
            post_points.append((size, profile.post_ns))
            measured.append((size, profile.engine_busy_ns, result.ratio))
        for (s0, e0, r0), (s1, e1, _) in zip(measured[::2], measured[1::2]):
            per_byte = max((e1 - e0) / (s1 - s0), 0.0)
            overhead = max(e0 - per_byte * s0, 0.0)
            anchors.append(RatioAnchor(ratio=r0, overhead_ns=overhead,
                                       per_byte_ns=per_byte))
        # Collapse duplicate achieved ratios (devices that ignore the
        # compressibility axis, e.g. the CPU cost model).
        deduped: dict[float, RatioAnchor] = {}
        for anchor in anchors:
            deduped[round(anchor.ratio, 4)] = anchor
        pre_overhead, pre_per_byte = _fit_linear(pre_points)
        post_overhead, post_per_byte = _fit_linear(post_points)
        return cls(
            anchors=list(deduped.values()),
            submit_ns=max(submit_samples),
            pre_overhead_ns=pre_overhead,
            pre_per_byte_ns=pre_per_byte,
            post_overhead_ns=post_overhead,
            post_per_byte_ns=post_per_byte,
        )


def _fit_linear(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares ``overhead + per_byte * size`` fit, clamped >= 0."""
    n = len(points)
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return max(mean_y, 0.0), 0.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    slope = max(slope, 0.0)
    return max(mean_y - slope * mean_x, 0.0), slope


def calibrated(devices: list[CdpuDevice], op: str = "compress",
               **kwargs) -> list[tuple[CdpuDevice, DeviceCostModel]]:
    """Pair each device with its calibrated cost model."""
    return [(device, DeviceCostModel.calibrate(device, ops=(op,),
                                               **kwargs)[op])
            for device in devices]


def calibrated_ops(
        devices: list[CdpuDevice],
        ops: tuple[str, ...] = ("compress", "decompress"),
        **kwargs) -> list[tuple[CdpuDevice, dict[str, DeviceCostModel]]]:
    """Pair each device with per-op cost models for mixed-op serving.

    The returned ``(device, {op: model})`` pairs plug straight into
    :class:`~repro.service.fleet.FleetDevice` /
    :func:`~repro.service.fleet.build_fleet`, so decompress
    requests are priced by a decompress-calibrated model instead of
    being silently costed as compress.
    """
    return [(device, DeviceCostModel.calibrate(device, ops=ops, **kwargs))
            for device in devices]
