"""Every kernel-path op through one pinned program: SpawnThread, JoinThread
(of a live target, a finished one and an unknown tid), Sleep (inside and
past the timeslice), YieldCpu (alone and with a queued competitor) and
Syscall (with an action, without one, and a ``wait_key`` blocked until a
``wake_key``); the program is the equivalence corpus's ``kernel-ops``
entry.

The pins below were recorded before the five kernel-path stage machines
became one; the run must keep its RunResult fingerprint, its traced event
list, its fold counts and the per-name ``kernel.n_syscalls`` table on one
and two cores, traced or not."""

import pytest

from repro.common.config import KernelConfig, MachineConfig, SimConfig
from repro.sim.engine import Engine, run_program
from tests.equivalence import kernel_ops, trace_digest

#: Per core count: the RunResult fingerprint (equal traced or not) and a
#: digest of the traced event list.
PINS = {
    1: (
        "02074bc7c34bbe919e50265beac131c162beb1db395886cdc6d862b06d7146bb",
        "eef94325bac33f0f526414e84517be3ec32baed72021e3878affc2429bd288bd",
    ),
    2: (
        "61f0893ebc719410e19ba0cda54de71bdd7f3bf93a7e8fb7aebac9b6424bcc84",
        "a72c647d4ce595e403f8e1a0957f710277caa5dd54ef4279ad409a7308c5e4d2",
    ),
}

#: Per tracing flag: whole syscalls, whole sleeps and resumed exits. Under
#: tracing only whole sleeps commit.
FOLDS = {False: (1, 3, 5), True: (0, 3, 0)}

#: The per-name table counts Syscall ops by name plus SpawnThread as
#: "clone"; Sleep, JoinThread and YieldCpu count only per thread.
N_SYSCALLS = {"clone": 2, "getpid": 1, "wait_key": 1, "wake_key": 1, "work": 1}

#: Per-thread syscall-class ops: main runs 2 spawns, 3 joins, 2 sleeps,
#: 2 yields and 3 syscalls; the waker 1 syscall and 1 sleep.
THREAD_SYSCALLS = {"main": 12, "waker": 2, "quick": 0}


def _config(n_cores: int, trace: bool) -> SimConfig:
    return SimConfig(
        machine=MachineConfig(n_cores=n_cores),
        kernel=KernelConfig(timeslice_cycles=20_000),
        seed=11,
        trace=trace,
    )


def _run(n_cores: int, trace: bool, monkeypatch):
    """Run the program; return the result, its log and each thread's block
    kinds in order."""
    log: list = []
    blocks: dict[str, list[str]] = {}
    block = Engine._block

    def recorded(engine, core, thread, key):
        blocks.setdefault(thread.name, []).append(key[0])
        block(engine, core, thread, key)

    monkeypatch.setattr(Engine, "_block", recorded)
    result = run_program(kernel_ops(log), _config(n_cores, trace))
    return result, log, blocks


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("n_cores", [1, 2])
def test_kernel_ops_are_pinned(n_cores, trace, monkeypatch):
    result, log, blocks = _run(n_cores, trace, monkeypatch)
    fingerprint, trace_pin = PINS[n_cores]
    assert result.fingerprint() == fingerprint
    assert result.kernel.n_syscalls == N_SYSCALLS
    by_name = {t.name: t.n_syscalls for t in result.threads.values()}
    assert by_name == THREAD_SYSCALLS
    if trace:
        assert trace_digest(result.trace) == trace_pin
    else:
        assert result.trace == []
    metrics = result.metrics
    assert (
        metrics["whole_syscalls"],
        metrics["whole_sleeps"],
        metrics["resumed_exits"],
    ) == FOLDS[trace]
    # the wait blocks until the wake; the first join finds its target
    # finished, the second blocks, the third raises after its exit phase
    assert blocks == {"main": ["key", "sleep", "sleep", "join"], "waker": ["sleep"]}
    assert log == [
        ("yield", None),
        ("getpid", 1),
        ("work", None),
        ("spawned", 2, 3),
        ("yield", None),
        ("wake_key", 1),
        ("wait_key", False),
        ("join_finished", None),
        ("join_live", None),
        ("join_unknown", "join: no thread 999"),
    ]
