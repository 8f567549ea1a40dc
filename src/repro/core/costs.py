"""Calibrated cost model: simulated work → wall-clock stage latencies.

The reproduction runs real rewrites over real (reduced-size) images, so
every stage produces *measured quantities* — bytes dumped, frames
rewritten, code bytes disassembled, pages served. This module maps those
quantities to wall-clock estimates using per-node rates calibrated to
the paper's reported magnitudes (§IV-A):

* checkpoint and restore < 30 ms,
* recode ≈ 254 ms on the x86-64 Xeon vs ≈ 1005 ms on the aarch64 Pi
  (identical logic, ≈4× micro-architectural gap),
* scp of a process image over InfiniBand ≈ 300 ms,
* lazy restore ≈ 8 ms plus on-demand page retrievals.

The *shape* of every figure (who wins, by what factor, where crossovers
fall) comes from the measured quantities; only the absolute scale comes
from these constants.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..mem.paging import PAGE_SIZE


class NodeProfile:
    """Compute/IO capabilities of one machine node."""

    def __init__(self, *, name: str, arch: str, freq_hz: float, ipc: float,
                 cores: int, idle_watts: float, active_watts_per_core: float,
                 recode_bytes_per_s: float, checkpoint_bytes_per_s: float,
                 restore_bytes_per_s: float, syscall_overhead_s: float,
                 usd_per_hour: float = 0.0):
        self.name = name
        self.arch = arch
        self.freq_hz = freq_hz
        self.ipc = ipc
        self.cores = cores
        self.idle_watts = idle_watts
        self.active_watts_per_core = active_watts_per_core
        self.recode_bytes_per_s = recode_bytes_per_s
        self.checkpoint_bytes_per_s = checkpoint_bytes_per_s
        self.restore_bytes_per_s = restore_bytes_per_s
        self.syscall_overhead_s = syscall_overhead_s
        #: amortized ownership cost — what the fleet scheduler's cost
        #: objective charges for keeping a job on this node
        self.usd_per_hour = usd_per_hour

    # -- compute time --------------------------------------------------------

    def seconds_for_cycles(self, cycles: float) -> float:
        return cycles / (self.freq_hz * self.ipc)

    def power_watts(self, active_cores: int) -> float:
        active = min(active_cores, self.cores)
        return self.idle_watts + active * self.active_watts_per_core

    def cost_usd(self, seconds: float) -> float:
        """Amortized dollar cost of occupying this node for ``seconds``."""
        return self.usd_per_hour * seconds / 3600.0

    # -- stage latencies ---------------------------------------------------------

    def checkpoint_seconds(self, image_bytes: int, threads: int) -> float:
        return (self.syscall_overhead_s * (1 + threads)
                + image_bytes / self.checkpoint_bytes_per_s)

    def restore_seconds(self, image_bytes: int, threads: int) -> float:
        return (self.syscall_overhead_s * (1 + threads)
                + image_bytes / self.restore_bytes_per_s)

    def recode_seconds(self, image_bytes: int, frames: int,
                       code_bytes: int = 0) -> float:
        # Image parsing/encoding dominates; per-frame unwinding and code
        # disassembly (stack shuffling) add on top.
        per_frame = 2_000 * 8   # bytes-equivalent of one frame rewrite
        return (image_bytes + frames * per_frame
                + code_bytes * 4) / self.recode_bytes_per_s

    def shuffle_seconds(self, code_bytes: int, instructions: int,
                        image_bytes: int) -> float:
        """Stack-shuffle stage cost: proportional to the code-section size
        of the checkpointed process and the transformed binary (§IV-B)."""
        return (code_bytes * 24 + instructions * 40
                + image_bytes) / self.recode_bytes_per_s

    def __repr__(self) -> str:
        return f"<NodeProfile {self.name} [{self.arch}]>"


class LinkProfile:
    """One network link between two nodes."""

    def __init__(self, *, name: str, bandwidth_bytes_per_s: float,
                 latency_s: float, scp_overhead_s: float):
        self.name = name
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_s = latency_s
        self.scp_overhead_s = scp_overhead_s

    def transfer_seconds(self, nbytes: int) -> float:
        return (self.scp_overhead_s + self.latency_s
                + nbytes / self.bandwidth_bytes_per_s)

    def page_fault_seconds(self, pages: int = 1) -> float:
        """Round-trip cost of serving ``pages`` on-demand pages."""
        return pages * (2 * self.latency_s
                        + PAGE_SIZE / self.bandwidth_bytes_per_s)

    def __repr__(self) -> str:
        return f"<LinkProfile {self.name}>"


class MigrationCostModel:
    """Stage-latency model of one Dapper migration between two nodes.

    This is the single source of truth for what each pipeline stage
    costs in simulated wall-clock: :class:`~repro.core.migration.
    MigrationPipeline` prices its *measured* image sizes / frame counts
    through it, and the fleet's concurrent migration scheduler prices
    its *modeled* migrations through the very same formulas — so a
    storm of a thousand modeled migrations and one real end-to-end
    migration agree on what a checkpoint, recode, transfer, verify or
    restore costs on a given node pair.
    """

    #: verification passes a clean image pays for (structural + semantic);
    #: the repair pass only bills for pages it actually rewrites
    CLEAN_VERIFY_PASSES = 2

    def __init__(self, src: NodeProfile, dst: NodeProfile,
                 link: LinkProfile, recode: Optional[NodeProfile] = None):
        self.src = src
        self.dst = dst
        self.link = link
        # The paper: "we can always transform the process image on the
        # most powerful machine" — recode defaults to the source node.
        self.recode = recode or src

    # -- per-stage costs --------------------------------------------------

    def checkpoint_seconds(self, image_bytes: int, threads: int) -> float:
        return self.src.checkpoint_seconds(image_bytes, threads)

    def recode_seconds(self, image_bytes: int, frames: int,
                       code_bytes: int = 0) -> float:
        return self.recode.recode_seconds(image_bytes, frames, code_bytes)

    def store_seconds(self, image_bytes: int) -> float:
        """Chunking + hashing into the content-addressed store, at the
        source node's checkpoint-write rate."""
        return image_bytes / self.src.checkpoint_bytes_per_s

    def transfer_seconds(self, nbytes: int, factor: float = 1.0) -> float:
        return self.link.transfer_seconds(nbytes) * factor

    def verify_seconds(self, image_bytes: int,
                       repaired_pages: int = 0) -> float:
        """The restore guard: each pass reads every image byte once at
        the destination's checkpoint-IO rate; repair rewrites only the
        diverged pages."""
        rate = self.dst.checkpoint_bytes_per_s
        seconds = self.CLEAN_VERIFY_PASSES * image_bytes / rate
        if repaired_pages:
            seconds += (repaired_pages * PAGE_SIZE) / rate
        return seconds

    def restore_seconds(self, image_bytes: int, threads: int) -> float:
        return self.dst.restore_seconds(image_bytes, threads)

    def __repr__(self) -> str:
        return (f"<MigrationCostModel {self.src.name}->{self.dst.name} "
                f"over {self.link.name}>")


# -- the paper's testbed -------------------------------------------------------

def xeon_profile() -> NodeProfile:
    """Intel Xeon E5-2620 v4 @ 2.10 GHz, 8 cores, 32 GB (paper §IV)."""
    return NodeProfile(
        name="xeon", arch="x86_64", freq_hz=2.1e9, ipc=2.0, cores=8,
        idle_watts=45.0, active_watts_per_core=9.0,
        recode_bytes_per_s=22e6, checkpoint_bytes_per_s=400e6,
        restore_bytes_per_s=400e6, syscall_overhead_s=0.002,
        usd_per_hour=0.35)


def rpi_profile() -> NodeProfile:
    """Raspberry Pi 4: Cortex-A72 @ 1.5 GHz, 4 cores, 2 GB (paper §IV).

    The measured 5.1 W at three busy cores gives the power split."""
    return NodeProfile(
        name="rpi", arch="aarch64", freq_hz=1.5e9, ipc=1.0, cores=4,
        idle_watts=2.7, active_watts_per_core=0.8,
        recode_bytes_per_s=5.5e6, checkpoint_bytes_per_s=350e6,
        restore_bytes_per_s=350e6, syscall_overhead_s=0.003,
        usd_per_hour=0.015)


def infiniband_link() -> LinkProfile:
    return LinkProfile(name="infiniband", bandwidth_bytes_per_s=3e9,
                       latency_s=5e-6, scp_overhead_s=0.28)


def ethernet_link() -> LinkProfile:
    return LinkProfile(name="ethernet-1g", bandwidth_bytes_per_s=110e6,
                       latency_s=200e-6, scp_overhead_s=0.35)


def rack_link() -> LinkProfile:
    """Top-of-rack 10 GbE — the default intra-rack fleet fabric."""
    return LinkProfile(name="ethernet-10g", bandwidth_bytes_per_s=1.1e9,
                       latency_s=50e-6, scp_overhead_s=0.30)


def profile_for_arch(arch: str) -> NodeProfile:
    return xeon_profile() if arch == "x86_64" else rpi_profile()


DEFAULT_PROFILES: Dict[str, NodeProfile] = {
    "x86_64": xeon_profile(),
    "aarch64": rpi_profile(),
}
