"""RoCC-vs-PCIe attach-point sweep (the transport crossover study).

The RoCC attach point charges a small fixed dispatch cost per operation;
the PCIe attach point amortises its much larger fixed costs (doorbell
MMIO, DMA latency, interrupt service) over submission batches while
paying a per-byte link charge.  This module sweeps message size x batch
size over both transports and reports, per message size, the smallest
batch at which PCIe matches or beats RoCC on total modeled cycles
(``stats.cycles + stats.transport_cycles``).

Protocol work is transport-independent by construction -- the sweep
asserts ``stats.cycles`` is bit-identical across transports in every
cell -- so the crossover is purely an attach-point story: small messages
cross once batching amortises the doorbell/interrupt overhead below the
RoCC dispatch cost; large messages never cross because the per-byte
link charge dominates (docs/MODEL.md, "Attach points").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.microbench import _populate_string, _scalar_message_type
from repro.bench.runner import Workload
from repro.proto.types import FieldType
from repro.soc.config import SoCConfig
from repro.soc.transport import TRANSPORTS

#: Full sweep grid: string payload bytes x messages per batch.
SWEEP_SIZES = (16, 32, 64, 128, 256, 512, 1024)
SWEEP_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def build_sized_workload(size: int, batch: int) -> Workload:
    """A batch of single-string messages with ``size`` payload bytes.

    Reuses the microbenchmark string builder so payloads are the same
    deterministic function of (size, batch) everywhere.
    """
    name = f"transport-s{size}"
    descriptor = _scalar_message_type(name, FieldType.STRING, 1,
                                      repeated=False)
    return Workload(name, descriptor,
                    _populate_string(descriptor, size, batch))


def _run_cell(workload: Workload, operation: str,
              transport: str) -> dict:
    """One (workload, operation, transport) measurement."""
    from repro.accel.driver import ProtoAccelerator

    accel = ProtoAccelerator(config=SoCConfig(transport=transport))
    accel.register_types([workload.descriptor])
    if operation == "deserialize":
        _, stats = accel.deserialize_batch(workload.descriptor,
                                           workload.wire_buffers())
    elif operation == "serialize":
        addresses = [accel.load_object(m) for m in workload.messages]
        _, stats = accel.serialize_batch(workload.descriptor, addresses)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return {
        "cycles": stats.cycles,
        "transport_cycles": stats.transport_cycles,
        "total_cycles": stats.cycles + stats.transport_cycles,
    }


def sweep_transports(sizes: Sequence[int] = SWEEP_SIZES,
                     batches: Sequence[int] = SWEEP_BATCHES,
                     operation: str = "deserialize") -> list[dict]:
    """Run the size x batch grid on every transport.

    Returns one row per (size, batch) cell with both transports' cycle
    totals and per-operation amortised transport cost.  Raises if the
    protocol-work cycles ever differ across transports -- that identity
    is the subsystem's core invariant, and the sweep doubles as its
    end-to-end check.
    """
    rows = []
    for size in sizes:
        for batch in batches:
            workload = build_sized_workload(size, batch)
            cells = {t: _run_cell(workload, operation, t)
                     for t in TRANSPORTS}
            protocol_cycles = {t: c["cycles"] for t, c in cells.items()}
            if len(set(protocol_cycles.values())) != 1:
                raise AssertionError(
                    "protocol cycles diverged across transports at "
                    f"size={size} batch={batch}: {protocol_cycles}")
            row = {"size": size, "batch": batch, "operation": operation,
                   "cycles": cells["rocc"]["cycles"]}
            for t in TRANSPORTS:
                row[f"{t}_transport_cycles"] = cells[t]["transport_cycles"]
                row[f"{t}_total_cycles"] = cells[t]["total_cycles"]
                row[f"{t}_transport_per_op"] = (
                    cells[t]["transport_cycles"] / batch)
            row["pcie_wins"] = (row["pcie_total_cycles"]
                                <= row["rocc_total_cycles"])
            rows.append(row)
    return rows


def crossover_batches(rows: Sequence[dict]) -> list[dict]:
    """Per message size, the smallest swept batch where PCIe wins.

    ``crossover_batch`` is ``None`` when PCIe never matches RoCC within
    the swept batch range (large payloads: the per-byte link charge
    exceeds the RoCC dispatch cost regardless of amortisation).
    """
    sizes = sorted({row["size"] for row in rows})
    out = []
    for size in sizes:
        cells = sorted((r for r in rows if r["size"] == size),
                       key=lambda r: r["batch"])
        crossover: Optional[int] = next(
            (r["batch"] for r in cells if r["pcie_wins"]), None)
        largest = cells[-1]
        out.append({
            "size": size,
            "operation": largest["operation"],
            "crossover_batch": crossover,
            "rocc_per_op_at_max_batch":
                largest["rocc_transport_per_op"],
            "pcie_per_op_at_max_batch":
                largest["pcie_transport_per_op"],
            "max_batch": largest["batch"],
        })
    return out


def amortization_violations(rows: Sequence[dict]) -> list[dict]:
    """Cells where PCIe per-op transport cost *rises* with batch size.

    Doubling the batch must never increase the amortised PCIe cost per
    operation at a fixed message size -- the fixed doorbell/DMA/interrupt
    charges only spread thinner.  Returns the offending cell pairs
    (empty means the monotone-amortisation gate passes).
    """
    violations = []
    for size in sorted({row["size"] for row in rows}):
        cells = sorted((r for r in rows if r["size"] == size),
                       key=lambda r: r["batch"])
        for before, after in zip(cells, cells[1:]):
            if (after["pcie_transport_per_op"]
                    > before["pcie_transport_per_op"] + 1e-9):
                violations.append({
                    "size": size,
                    "batch_before": before["batch"],
                    "batch_after": after["batch"],
                    "per_op_before": before["pcie_transport_per_op"],
                    "per_op_after": after["pcie_transport_per_op"],
                })
    return violations
