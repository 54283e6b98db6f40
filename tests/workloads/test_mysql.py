"""Tests of the MySQL workload model."""

import pytest

from repro.analysis.reports import user_kernel_breakdown
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import ConfigError
from repro.sim.engine import run_program
from repro.workloads.mysql import LOG_LOCK, MysqlConfig, MysqlWorkload, table_lock


def small(workers=4, txns=10, **kw):
    return MysqlWorkload(
        MysqlConfig(n_workers=workers, transactions_per_worker=txns, **kw)
    )


def run_mysql(workload, seed=5, cores=4):
    config = SimConfig(machine=MachineConfig(n_cores=cores), seed=seed)
    result = run_program(workload.build(), config)
    result.check_conservation()
    return result


class TestStructure:
    def test_thread_count(self):
        specs = small(workers=6).build()
        assert len(specs) == 6
        assert all(s.name.startswith("mysql:worker:") for s in specs)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MysqlConfig(n_workers=0)
        with pytest.raises(ConfigError):
            MysqlConfig(n_tables=0)
        with pytest.raises(ConfigError):
            MysqlConfig(max_tables_per_txn=0)

    def test_lock_names(self):
        assert table_lock(3) == "mysql:table:3"
        assert LOG_LOCK == "mysql:log"


class TestBehaviour:
    def test_every_transaction_hits_the_log_lock(self):
        result = run_mysql(small(workers=4, txns=10))
        assert result.locks[LOG_LOCK].n_acquires == 40

    def test_table_locks_skewed(self):
        result = run_mysql(small(workers=8, txns=25))
        acquires = {
            name: st.n_acquires
            for name, st in result.locks.items()
            if name.startswith("mysql:table:")
        }
        hot = acquires.get(table_lock(0), 0)
        cold = acquires.get(table_lock(15), 0)
        assert hot > cold

    def test_critical_sections_short(self):
        """The headline property: holds are overwhelmingly sub-10us."""
        result = run_mysql(small(workers=4, txns=20))
        for name, st in result.locks.items():
            if st.hold_cycles:
                assert st.mean_hold < 24_000  # < 10us at 2.4GHz

    def test_regions_present(self):
        result = run_mysql(small())
        names = result.all_region_names()
        for expected in ("txn", "parse", "execute", "commit"):
            assert expected in names

    def test_transactions_counted_via_regions(self):
        result = run_mysql(small(workers=3, txns=7))
        assert result.merged_region("txn").invocations == 21

    def test_kernel_time_present(self):
        result = run_mysql(small(workers=4, txns=15))
        assert 0.02 < user_kernel_breakdown(result).kernel_fraction < 0.6

    def test_deterministic(self):
        r1 = run_mysql(small(), seed=9)
        r2 = run_mysql(small(), seed=9)
        assert r1.wall_cycles == r2.wall_cycles
        assert r1.total_user_cycles() == r2.total_user_cycles()

    def test_seed_changes_run(self):
        r1 = run_mysql(small(), seed=1)
        r2 = run_mysql(small(), seed=2)
        assert r1.wall_cycles != r2.wall_cycles
