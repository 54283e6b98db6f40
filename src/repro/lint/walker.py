"""Static program walking: enumerate a workload's ops without simulating.

A simulated program is a Python generator that yields ops and receives each
op's result back (:mod:`repro.sim.ops`). The walker drives those generators
to completion with *stub* results — no engine, no scheduler, no timing — and
records, per thread, the exact op sequence the program would issue plus the
result fed back for each op. That per-thread op timeline is the CFG the
hazard passes in :mod:`repro.lint.rules` analyze.

Stub result discipline (what makes walking sound for this DSL):

* counter reads return strictly increasing integers, so measurement deltas
  (``end - start``) are positive and library loops that retry on
  non-positive deltas terminate;
* ``PmcReadEnd`` always reports "not interrupted", so safe-read restart
  loops exit after one attempt (the walk sees the *shape* of the protocol,
  not its dynamic restart count);
* ``Syscall("pmc_open")`` allocates from a per-thread slot table mirroring
  :class:`repro.kernel.vpmu.VirtualPmu` (first free of ``pmu.n_counters``),
  so slot indices match what the engine would hand out;
* ``SpawnThread`` allocates the next tid and queues the spawned factory for
  walking, exactly like the engine's clone path.

The walk executes workload *factory* code, so it can run arbitrary Python —
callers that lint shared session objects should build a fresh workload for
the walk (the fabric gate does; see :mod:`repro.lint.gate`). Programs whose
generators raise under stub results produce a ``walk_error`` note instead of
crashing the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import SimConfig
from repro.common.rng import RandomStream
from repro.sim import ops as op
from repro.sim.program import ThreadSpec

#: Per-thread op budget; programs longer than this are analyzed on the
#: walked prefix and marked truncated (an INFO finding, never silent).
DEFAULT_MAX_OPS = 200_000


class _StubThread:
    """Duck-typed stand-in for the engine's SimThread.

    Measurement libraries only touch the ground-truth audit fields
    (``last_rdpmc_truth``, ``last_kernel_read_truth``) on the object
    :meth:`ThreadContext.thread` returns; everything else raising
    AttributeError is deliberate — it surfaces programs that depend on
    engine internals the static walk cannot provide.
    """

    __slots__ = ("tid", "name", "last_rdpmc_truth", "last_kernel_read_truth")

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        self.last_rdpmc_truth: int | None = None
        self.last_kernel_read_truth: dict[int, int] = {}


class _StubPerfTable:
    """Stand-in for the engine's perf-fd table: every fd backs slot 0."""

    class _Entry:
        __slots__ = ("slot",)

        def __init__(self) -> None:
            self.slot = 0

    def get(self, fd: int) -> "_StubPerfTable._Entry":
        return self._Entry()


class _StubEngine:
    """Minimal engine facade for libraries that reach through the context
    (the perf_read baseline maps fds back to slots via ``ctx._engine``)."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.perf = _StubPerfTable()


class LintContext:
    """ThreadContext-compatible handle handed to factories during a walk."""

    def __init__(self, name: str, tid: int, config: SimConfig) -> None:
        self.name = name
        self.tid = tid
        self.rng = RandomStream(config.seed, "thread", name, tid)
        self.scratch: dict[str, Any] = {}
        self._config = config
        self._engine = _StubEngine(config)
        self._stub_thread = _StubThread(tid, name)
        self._fake_now = 0

    def now(self) -> int:
        # Advances on each query so duration math stays positive.
        self._fake_now += 1_000
        return self._fake_now

    def thread(self) -> _StubThread:
        return self._stub_thread

    def service_fault(self, kind: str, tier: str):
        """Static walks carry no fault plan, so service faults never fire;
        whether a plan's tier selectors could ever match is a separate
        static question (rule ML012 in :mod:`repro.lint.rules`)."""
        return None

    def service_fault_resolved(self, kind: str, absorbed: bool = True) -> None:
        return None

    @property
    def frequency(self):
        return self._config.machine.frequency

    @property
    def costs(self):
        return self._config.machine.costs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LintContext {self.name!r} tid={self.tid}>"


@dataclass
class ThreadWalk:
    """One thread's statically enumerated op timeline."""

    name: str
    tid: int
    spawned_by: str = ""          #: parent thread name ("" for initial specs)
    ops: list[Any] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)
    truncated: bool = False
    #: exception repr if the generator raised under stub results, else ""
    walk_error: str = ""
    walk_error_op: int = 0        #: op index at which the error surfaced

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class ProgramWalk:
    """The full static walk of a workload: every thread, in tid order."""

    config: SimConfig
    threads: list[ThreadWalk] = field(default_factory=list)
    #: per-thread op budget the walk ran under (reports surface it so a
    #: truncated analysis names the limit that cut it short)
    max_ops: int = DEFAULT_MAX_OPS

    def thread_names(self) -> list[str]:
        return [t.name for t in self.threads]

    def n_ops(self) -> int:
        return sum(len(t) for t in self.threads)


class _SlotTable:
    """Mirror of VirtualPmu allocation: first-free slot of n physical."""

    def __init__(self, n_slots: int) -> None:
        self.slots: list[Any] = [None] * n_slots
        self.overflowed = 0

    def allocate(self, spec: Any) -> int:
        for i, slot in enumerate(self.slots):
            if slot is None:
                self.slots[i] = spec
                return i
        # Keep walking past the error the engine would raise: hand out a
        # fake out-of-range index; the slot-exhaustion rule flags it.
        self.overflowed += 1
        return len(self.slots) - 1 + self.overflowed

    def free(self, index: int) -> None:
        if 0 <= index < len(self.slots):
            self.slots[index] = None


#: Op types whose stub result is the monotone fake counter.
_STUB_MONOTONE = (
    op.Rdtsc,
    op.Rdpmc,
    op.RdpmcDestructive,
    op.LoadVAccum,
    op.PmcSafeRead,
    op.PmcUnsafeRead,
)


def _stub_code(current: Any) -> int:
    """Stub-result strategy for one op: 0 = None, 1 = syscall stubs,
    2 = monotone counter value, 3 = "not interrupted", 4 = spawn. The
    isinstance fallback keeps historical semantics for op subclasses
    defined outside :mod:`repro.sim.ops`."""
    if isinstance(current, op.Syscall):
        return 1
    if isinstance(current, _STUB_MONOTONE):
        return 2
    if isinstance(current, op.PmcReadEnd):
        return 3
    if isinstance(current, op.SpawnThread):
        return 4
    return 0


#: Type-identity fast path for :func:`_stub_code` — the walk runs once per
#: op of every linted program, so a per-op isinstance chain is a
#: measurable fraction of lint time.
_STUB_DISPATCH: dict[type, int] = {
    cls: _stub_code(object.__new__(cls))
    for cls in vars(op).values()
    if isinstance(cls, type) and issubclass(cls, op.Op) and cls is not op.Op
}


def _walk_thread(
    walk: ThreadWalk,
    factory: Any,
    ctx: LintContext,
    config: SimConfig,
    max_ops: int,
    spawn_queue: list[tuple[str, Any, str]],
    spawn_tid_base: int,
) -> None:
    """Drive one generator to completion with stub results.

    ``spawn_tid_base`` is the tid the first thread this walk spawns will
    receive (everything already pending gets its tid first), so programs
    that keep the SpawnThread result for a later JoinThread see the same
    tids the engine would assign.
    """
    slots = _SlotTable(config.machine.pmu.n_counters)
    fake_counter = 0   # monotone source for read/rdtsc results
    fake_fd = 2        # perf/mux handle source (first handle is 3)
    next_result: Any = None
    ops_list = walk.ops
    results_list = walk.results
    dispatch_get = _STUB_DISPATCH.get
    n = 0
    try:
        gen = factory(ctx)
        send = gen.send  # a fresh generator's send(None) == next(gen)
        while True:
            try:
                current = send(next_result)
            except StopIteration:
                break
            ops_list.append(current)
            n += 1
            if n > max_ops:
                walk.truncated = True
                gen.close()
                break
            # -- stub result per op kind --------------------------------
            code = dispatch_get(type(current))
            if code is None:
                code = _stub_code(current)
            if code == 0:
                next_result = None
            elif code == 1:  # Syscall
                if current.name == "pmc_open":
                    spec = current.args[0] if current.args else None
                    next_result = slots.allocate(spec)
                elif current.name == "pmc_close":
                    if current.args:
                        slots.free(current.args[0])
                    next_result = None
                elif current.name in ("perf_open", "mux_open"):
                    fake_fd += 1  # handles must be distinct ints
                    next_result = fake_fd
                elif current.name == "papi_read":
                    # kernel group read: one monotone value per index
                    indices = current.args[0] if current.args else ()
                    values = []
                    for _ in indices:
                        fake_counter += 1_000
                        values.append(fake_counter)
                    next_result = tuple(values)
                elif current.name == "perf_read":
                    fake_counter += 1_000
                    next_result = fake_counter
                elif current.name == "mux_read":
                    # The engine deposits ground truths in ctx.scratch right
                    # before delivering the triples; mirror that contract
                    # with empty lists (zip() then yields no estimates).
                    ctx.scratch["_mux_truth"] = []
                    next_result = []
                else:
                    next_result = 0
            elif code == 2:  # monotone counter/timestamp reads
                fake_counter += 1_000
                next_result = fake_counter
            elif code == 3:  # PmcReadEnd
                next_result = True   # "not interrupted": restart loops exit
            else:            # SpawnThread
                next_result = spawn_tid_base + len(spawn_queue)
                spawn_queue.append((current.name, current.factory, walk.name))
            results_list.append(next_result)
    except Exception as exc:  # noqa: BLE001 - reported as a finding
        walk.walk_error = f"{type(exc).__name__}: {exc}"
        walk.walk_error_op = len(walk.ops)


def walk_program(
    specs: list[ThreadSpec],
    config: SimConfig | None = None,
    max_ops: int = DEFAULT_MAX_OPS,
) -> ProgramWalk:
    """Statically enumerate every thread's ops for a workload.

    ``specs`` is the same list :func:`repro.sim.engine.run_program` takes.
    Spawned threads (via :class:`~repro.sim.ops.SpawnThread`) are walked
    too, in spawn order, with tids assigned in creation order (initial
    specs first, then spawns as they are issued — the engine's order for
    programs that spawn up front; interleaved mid-run spawns may differ,
    which affects only finding labels, never hazard detection).
    """
    from repro.obs import runtime as obs_runtime

    config = config or SimConfig()
    program = ProgramWalk(config=config, max_ops=max_ops)
    pending: list[tuple[str, Any, str]] = [
        (spec.name, spec.factory, "") for spec in specs
    ]
    # The walk executes real workload generators, which may feed windowed
    # observations to the ambient collector; a throwaway scope absorbs
    # them so a static walk can never pollute live measurements.
    with obs_runtime.collect(label="lint-walk"):
        _walk_all(program, pending, config, max_ops)
    return program


def _walk_all(
    program: ProgramWalk,
    pending: list[tuple[str, Any, str]],
    config: SimConfig,
    max_ops: int,
) -> None:
    next_tid = 0
    while pending:
        name, factory, spawned_by = pending.pop(0)
        tid = next_tid
        next_tid += 1
        walk = ThreadWalk(name=name, tid=tid, spawned_by=spawned_by)
        ctx = LintContext(name, tid, config)
        spawn_queue: list[tuple[str, Any, str]] = []
        _walk_thread(
            walk,
            factory,
            ctx,
            config,
            max_ops,
            spawn_queue,
            spawn_tid_base=next_tid + len(pending),
        )
        pending.extend(spawn_queue)
        program.threads.append(walk)
