"""The simulated machine: CPUs, threads, a small kernel, ptrace, tmpfs.

One :class:`~repro.vm.kernel.Machine` models one physical node with one
ISA (like the paper's x86 Xeon server or aarch64 Raspberry Pi). It runs
processes compiled to DELF binaries, schedules their threads round-robin
with a fixed instruction quantum (deterministic), dispatches syscalls,
and exposes the ptrace-like tracer interface the Dapper runtime monitor
is built on.
"""

from .cpu import ThreadContext, ThreadStatus
from .kernel import ENGINES, Machine, Process
from .loader import load_binary
from .tmpfs import TmpFs
from .ptrace import Tracer

__all__ = ["ThreadContext", "ThreadStatus", "ENGINES", "Machine", "Process",
           "load_binary", "TmpFs", "Tracer"]
