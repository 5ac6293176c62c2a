"""The benchmark's metric catalogue: names, units and how layers map.

The gated end-to-end metrics and the per-layer metrics, with their
units, are read from ``BENCHMARK.json``, the one place they are
declared.  Every workload reports every metric (a layer a workload
never calls reports 0), so one run's output always has the same shape.
"""

from __future__ import annotations

import json
import re

from common import ROOT

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: Per-layer metrics, measured by the traced run: name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: End-to-end figures printed by every untraced run but not gated:
#: their run-to-run spread on a shared 2-core box is wider than any
#: bound the benchmark could hold them to (see README.md).
REPORTED = {
    "txn_p99_ms": "ms",
    "ro_txn_p99_ms": "ms",
    "max_rate_txn_per_s": "1/s",
    "failed_ratio": "ratio",
}

#: The layers the traced run attributes time to, in report order.
LAYERS = (
    "sim.engine",
    "sim.workload",
    "core.scheduler",
    "core.timewall",
    "storage.gc",
    "txn.depgraph",
    "dist.runtime",
    "dist.net",
    "dist.node",
    "serve.client",
    "serve.protocol",
    "serve.server",
    "loadgen",
)

#: Node message kinds timed one by one (the four costliest on
#: dist-star2; every kind is inside ``dist.node.handle_us``).
NODE_KINDS = ("WRITE", "POLL", "READ_A", "GOSSIP")


def layer_shares(tracer, wall_s: float) -> dict[str, float]:
    """Each layer's self time as a share of ``wall_s``."""
    return {
        f"{layer}.share": tracer.layer_self_s(layer) / wall_s
        for layer in LAYERS
    }


def complete(values: dict[str, float], catalogue: dict[str, str]) -> dict:
    """``values`` as the JSON metrics object, every catalogue name set.

    Names a workload did not measure are 0 (the layer never ran); a name
    outside the catalogue is a bug in the benchmark.
    """
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
