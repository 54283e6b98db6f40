"""Configuration dataclasses for the simulated machine, kernel and runs.

The :class:`CostModel` is the calibration table of the reproduction: every
instruction sequence and kernel path the paper times is given a cycle cost
here. Values are chosen so that the *ratios* the paper reports hold on the
default 2.4 GHz machine:

* a safe LiMiT read costs 88 cycles = ~36.7 ns ("low tens of nanoseconds"),
* a PAPI-style kernel-mediated read costs 1970 cycles = ~0.82 us (~22x),
* a ``read(2)`` on a perf fd costs 8400 cycles = ~3.5 us (~95x),

i.e. "one to two orders of magnitude faster than current access techniques"
per the abstract.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import DEFAULT_FREQUENCY, Frequency
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of every modelled instruction sequence and kernel path.

    All fields are cycles. The defaults are calibrated for a 2.4 GHz
    Nehalem-class core (see module docstring).
    """

    # -- raw instructions ---------------------------------------------------
    rdpmc: int = 34               #: the rdpmc instruction itself
    rdtsc: int = 24               #: the rdtsc instruction
    rdpmc_destructive: int = 38   #: proposed read-and-reset instruction (E11b)
    cas: int = 12                 #: lock cmpxchg
    wrmsr: int = 110              #: programming a counter control MSR
    rdmsr: int = 90               #: reading a counter MSR from the kernel

    # -- LiMiT userspace read sequence (micro-steps) -------------------------
    pmc_call_overhead: int = 14   #: function prologue before the sequence
    pmc_read_begin: int = 6       #: marking entry into the read region
    pmc_load_accum: int = 8       #: loading the 64-bit virtual accumulator
    pmc_read_end: int = 12        #: region-exit check + 64-bit combine
    pmc_store_result: int = 14    #: storing result / function epilogue

    # -- syscall machinery ----------------------------------------------------
    syscall_entry: int = 280      #: user->kernel mode switch + entry path
    syscall_exit: int = 200       #: kernel->user return path
    papi_user_overhead: int = 220  #: PAPI-like library dispatch before the trap
    papi_kernel_read_work: int = 1180  #: kernel-side counter collection
    papi_copyout: int = 90        #: copying values back to userspace
    perf_read_kernel_work: int = 7800  #: perf_event read(2) path (fd lookup,
    #: event->count synchronisation, format handling)
    perf_copyout: int = 120

    # -- scheduling ----------------------------------------------------------
    context_switch: int = 2400    #: direct cost of a context switch
    ctx_save_per_counter: int = 90   #: virtualization: save one counter
    ctx_restore_per_counter: int = 110  #: virtualization: restore one counter
    timer_tick: int = 1200        #: periodic timer interrupt handling

    # -- performance-monitoring interrupt -------------------------------------
    pmi_handler: int = 2400       #: PMI dispatch + overflow bookkeeping
    pmi_sample_record: int = 600  #: extra work to format+store one sample
    pmi_skid: int = 160           #: cycles between counter crossing and PMI

    # -- futex / locks ---------------------------------------------------------
    futex_wait_kernel: int = 1300  #: kernel side of futex(WAIT)
    futex_wake_kernel: int = 1600  #: kernel side of futex(WAKE)
    spin_quantum: int = 60         #: one spin-loop iteration

    # -- multi-socket effects -------------------------------------------------
    #: extra switch-in cycles after a cross-socket migration (cold remote
    #: caches, TLB shootdown residue). Only charged on machines with >1
    #: socket when a thread actually changes socket.
    cross_socket_migration: int = 9_000

    # -- profiling baselines -----------------------------------------------
    instrument_hook: int = 44     #: gprof-style entry/exit hook (mcount)
    vdso_gettime: int = 30        #: vDSO clock_gettime

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(
                    f"cost {f.name!r} must be a non-negative int, got {value!r}"
                )

    # Derived figures used in several experiments -----------------------------

    @property
    def limit_read_total(self) -> int:
        """Total cycles of one safe LiMiT read (uninterrupted)."""
        return (
            self.pmc_call_overhead
            + self.pmc_read_begin
            + self.pmc_load_accum
            + self.rdpmc
            + self.pmc_read_end
            + self.pmc_store_result
        )

    @property
    def limit_unsafe_read_total(self) -> int:
        """Total cycles of one *unsafe* read (no region protection)."""
        return (
            self.pmc_call_overhead
            + self.pmc_load_accum
            + self.rdpmc
            + self.pmc_store_result
        )

    @property
    def destructive_read_total(self) -> int:
        """Total cycles of a read using the proposed read-and-reset
        instruction (hardware enhancement, E11b): no accumulator load and no
        read-region protection are needed."""
        return self.pmc_call_overhead + self.rdpmc_destructive + self.pmc_store_result

    @property
    def limit_delta_overhead(self) -> int:
        """Measurement overhead *inside* a delta taken with two safe reads.

        The value a read returns reflects the counter at its observation
        instant, so the delta picks up the opening read's trailing steps
        (region-exit check + store) plus the closing read's leading steps
        (call, region-entry, accumulator load, rdpmc) — which together are
        exactly one full read. Calibrated tools subtract this constant.
        """
        return self.limit_read_total

    @property
    def papi_delta_overhead(self) -> int:
        """Same as :attr:`limit_delta_overhead` for PAPI-style reads: the
        opening read's return path plus the closing read's dispatch, trap
        and kernel collection — one full PAPI read in total."""
        return self.papi_read_total

    @property
    def papi_read_total(self) -> int:
        """Total cycles of one PAPI-style kernel-mediated counter read."""
        return (
            self.papi_user_overhead
            + self.syscall_entry
            + self.papi_kernel_read_work
            + self.papi_copyout
            + self.syscall_exit
        )

    @property
    def perf_read_total(self) -> int:
        """Total cycles of one ``read(2)`` on a perf_event fd."""
        return (
            self.syscall_entry
            + self.perf_read_kernel_work
            + self.perf_copyout
            + self.syscall_exit
        )


@dataclass(frozen=True)
class PmuConfig:
    """Per-core performance monitoring unit configuration."""

    n_counters: int = 4        #: number of programmable counters
    counter_width: int = 48    #: hardware counter width in bits
    #: When True, counters are architecturally 64-bit and never overflow in
    #: practice — this models hardware enhancement E11a (wide counters).
    wide_counters: bool = False

    def __post_init__(self) -> None:
        if self.n_counters < 1:
            raise ConfigError("PMU needs at least one counter")
        if not (8 <= self.counter_width <= 64):
            raise ConfigError(
                f"counter width must be in [8, 64], got {self.counter_width}"
            )

    @property
    def effective_width(self) -> int:
        return 64 if self.wide_counters else self.counter_width

    @property
    def overflow_threshold(self) -> int:
        return 1 << self.effective_width


@dataclass(frozen=True)
class MachineConfig:
    """The simulated hardware platform."""

    n_cores: int = 4
    #: number of sockets; cores are split evenly across them. Cross-socket
    #: migrations pay CostModel.cross_socket_migration.
    n_sockets: int = 1
    frequency: Frequency = DEFAULT_FREQUENCY
    pmu: PmuConfig = field(default_factory=PmuConfig)
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigError(f"need at least one core, got {self.n_cores}")
        if self.n_sockets < 1:
            raise ConfigError(f"need at least one socket, got {self.n_sockets}")
        if self.n_cores % self.n_sockets != 0:
            raise ConfigError(
                f"{self.n_cores} cores cannot be split evenly across "
                f"{self.n_sockets} sockets"
            )

    @property
    def cores_per_socket(self) -> int:
        return self.n_cores // self.n_sockets

    def socket_of(self, core_id: int) -> int:
        if not 0 <= core_id < self.n_cores:
            raise ConfigError(f"no such core: {core_id}")
        return core_id // self.cores_per_socket


@dataclass(frozen=True)
class KernelConfig:
    """Kernel policy knobs."""

    #: Scheduler timeslice. Smaller than a stock kernel's (1-4 ms) so that
    #: context-switch interactions show up in affordably short simulations;
    #: experiments that sweep preemption pressure override it.
    timeslice_cycles: int = 1_000_000
    #: Whether the LiMiT kernel patch (counter virtualization + userspace
    #: rdpmc + interrupted-read fixup) is applied. Always true in practice;
    #: exposed so tests can exercise the unpatched behaviour.
    limit_patch: bool = True
    #: Hardware enhancement E11c: the PMU virtualizes counters per hardware
    #: thread itself, so the kernel skips save/restore on context switch.
    hw_thread_virtualization: bool = False

    def __post_init__(self) -> None:
        if self.timeslice_cycles < 1_000:
            raise ConfigError(
                f"timeslice must be >= 1000 cycles, got {self.timeslice_cycles}"
            )


@dataclass(frozen=True)
class LockConfig:
    """Userspace mutex behaviour (glibc-adaptive-mutex-like)."""

    #: How many cycles to spin before falling back to futex(WAIT).
    spin_limit_cycles: int = 2_000

    def __post_init__(self) -> None:
        if self.spin_limit_cycles < 0:
            raise ConfigError("spin limit must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Top-level configuration of one simulation run."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    locks: LockConfig = field(default_factory=LockConfig)
    seed: int = 0
    #: Hard safety limit: a run that exceeds this simulated time aborts with
    #: SimulationError instead of spinning forever.
    max_cycles: int = 2_000_000_000_000
    #: Record a per-thread trace of scheduling and lock events (costly).
    trace: bool = False
    #: Record simulator self-telemetry metrics (host-side counters/timers in
    #: :mod:`repro.obs.metrics`). Never perturbs simulated results — metrics
    #: observe the simulator, not the simulated machine.
    metrics: bool = True
    #: Cap on stored per-invocation region durations across a run
    #: (invocation *counts* stay exact beyond the cap).
    region_log_budget: int = 2_000_000
    #: Enable the macro-stepping fast path (closed-form multi-quantum
    #: fast-forward of solo compute phases). Results are fingerprint-identical
    #: either way; the switch exists for A/B verification and benchmarking.
    macro_stepping: bool = True
    #: Deterministic fault-injection plan (:mod:`repro.faults`); None or an
    #: empty plan disables injection entirely (zero hook overhead).
    fault_plan: FaultPlan | None = None

    def with_machine(self, **kwargs) -> "SimConfig":
        """Return a copy with machine fields replaced."""
        return dataclasses.replace(
            self, machine=dataclasses.replace(self.machine, **kwargs)
        )

    def with_kernel(self, **kwargs) -> "SimConfig":
        """Return a copy with kernel fields replaced."""
        return dataclasses.replace(
            self, kernel=dataclasses.replace(self.kernel, **kwargs)
        )

    def with_pmu(self, **kwargs) -> "SimConfig":
        """Return a copy with PMU fields replaced."""
        machine = dataclasses.replace(
            self.machine, pmu=dataclasses.replace(self.machine.pmu, **kwargs)
        )
        return dataclasses.replace(self, machine=machine)

    def with_faults(self, plan: FaultPlan | None) -> "SimConfig":
        """Return a copy with the fault-injection plan replaced."""
        return dataclasses.replace(self, fault_plan=plan)
