"""Unit tests for the Chapel-runtime substrate (env, locks, tasking)."""

import threading
import time

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.observe import tracing
from repro.runtime import env as env_mod
from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv, DEFAULT_SPINCOUNT, blas_budget
from repro.runtime.locks import (
    AtomicLockPool,
    SyncLockPool,
    make_mutex_pool,
)
from repro.runtime.tasking import (
    FifoLayer,
    QthreadsLayer,
    make_tasking_layer,
    static_block,
)


class TestChapelEnv:
    def test_defaults_match_paper_setup(self):
        env = ChapelEnv()
        assert env.num_tasks == 1
        assert env.tasking_layer == "qthreads"
        assert env.qt_affinity is True
        assert env.qt_spincount == DEFAULT_SPINCOUNT == 300_000
        assert env.omp_num_threads == 1

    def test_sync_vars_sleep_under_qthreads_only(self):
        assert ChapelEnv(tasking_layer="qthreads").sync_vars_sleep
        assert not ChapelEnv(tasking_layer="fifo").sync_vars_sleep

    def test_with_tasks(self):
        env = ChapelEnv(num_tasks=2).with_tasks(8)
        assert env.num_tasks == 8

    def test_from_environ(self):
        env = ChapelEnv.from_environ({
            "CHPL_RT_NUM_THREADS_PER_LOCALE": "16",
            "CHPL_TASKS": "fifo",
            "QT_AFFINITY": "no",
            "QT_SPINCOUNT": "300",
            "OMP_NUM_THREADS": "4",
        })
        assert env.num_tasks == 16
        assert env.tasking_layer == "fifo"
        assert env.qt_affinity is False
        assert env.qt_spincount == 300
        assert env.omp_num_threads == 4

    def test_from_environ_defaults(self):
        assert ChapelEnv.from_environ({}) == ChapelEnv()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChapelEnv(num_tasks=0)
        with pytest.raises(ValueError):
            ChapelEnv(tasking_layer="openmp")
        with pytest.raises(ValueError):
            ChapelEnv(qt_spincount=-1)
        with pytest.raises(ValueError):
            ChapelEnv(omp_num_threads=0)


def _blas_counts() -> list[int]:
    return [lib.get_threads() for lib in env_mod._mapped_openblas()]


@pytest.fixture()
def blas_prior():
    """Every loaded OpenBLAS set to 2 threads (unlike the budget's 1) with
    no budget held; the test's own counts come back afterwards."""
    libs = env_mod._mapped_openblas()
    if not libs:
        pytest.skip("no settable OpenBLAS in this process")
    assert env_mod._state.depth == 0, "a BLAS budget leaked from an earlier test"
    before = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    yield [2] * len(libs)
    for lib, n in zip(libs, before):
        lib.set_threads(n)


def _budget_tensor():
    from repro.tensor.generate import random_tensor

    return random_tensor((30, 20, 25), 600, seed=5)


def _opts(**env_kwargs) -> CpalsOptions:
    return CpalsOptions(max_iterations=3, tolerance=0.0, seed=2,
                        env=ChapelEnv(**env_kwargs))


class TestBlasBudget:
    def test_cp_als_holds_the_budget_and_restores(self, blas_prior):
        seen = []
        result = cp_als(_budget_tensor(), 4, _opts(num_tasks=2),
                        callback=lambda it, fit, f: seen.append(_blas_counts()))
        assert seen and all(c == [1] * len(blas_prior) for c in seen)
        assert _blas_counts() == blas_prior
        assert result.blas.threads == 1
        assert result.blas.libraries == len(blas_prior)
        assert f"BLAS threads: 1 (budget; {len(blas_prior)} OpenBLAS" in result.summary()

    def test_run_records_gauges(self, blas_prior):
        with tracing() as rec:
            cp_als(_budget_tensor(), 4, _opts(num_tasks=2))
        gauges = rec.gauges()
        assert gauges["runtime.blas_threads"] == 1
        assert gauges["runtime.pool_workers"] == 2
        assert gauges["runtime.cores"] >= 1
        assert "runtime.blas_budget_misses" not in rec.counters()

    def test_nested_entry_is_a_no_op(self, blas_prior):
        with blas_budget(ChapelEnv()) as outer:
            with blas_budget(ChapelEnv(omp_num_threads=2)) as inner:
                assert inner.threads == outer.threads == 1
                assert _blas_counts() == [1] * len(blas_prior)
            assert _blas_counts() == [1] * len(blas_prior)
        assert _blas_counts() == blas_prior

    def test_exception_inside_restores(self, blas_prior):
        with pytest.raises(RuntimeError, match="boom"):
            with blas_budget(ChapelEnv()):
                with blas_budget(ChapelEnv()):
                    raise RuntimeError("boom")
        assert _blas_counts() == blas_prior
        assert env_mod._state.depth == 0

        def stop(it, fit, factors):
            raise RuntimeError("boom in callback")

        with pytest.raises(RuntimeError, match="boom in callback"):
            cp_als(_budget_tensor(), 4, _opts(), callback=stop)
        assert _blas_counts() == blas_prior

    def test_concurrent_runs_restore_after_the_last_exits(self, blas_prior):
        tensor = _budget_tensor()
        inside = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]
        errors = []

        def run(i):
            def hold(it, fit, factors):
                if it == 1:
                    inside[i].set()
                    assert release[i].wait(30)
                return False

            try:
                cp_als(tensor, 4, _opts(), callback=hold)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        assert inside[0].wait(30) and inside[1].wait(30)
        assert _blas_counts() == [1] * len(blas_prior)
        release[0].set()
        threads[0].join(30)
        assert _blas_counts() == [1] * len(blas_prior)  # the second run still holds it
        release[1].set()
        threads[1].join(30)
        assert not errors
        assert _blas_counts() == blas_prior

    def test_distributed_driver_holds_the_budget(self, blas_prior, monkeypatch):
        from repro.distributed import cpals as dist_cpals
        from repro.distributed import distributed_cp_als

        seen = []
        solve = dist_cpals.solve_normal_equations

        def recording_solve(*args, **kwargs):
            seen.append(_blas_counts())
            return solve(*args, **kwargs)

        monkeypatch.setattr(dist_cpals, "solve_normal_equations", recording_solve)
        distributed_cp_als(_budget_tensor(), 4, nlocales=2, transport="sim",
                           max_iterations=2, tolerance=0.0)
        assert seen and all(c == [1] * len(blas_prior) for c in seen)
        assert _blas_counts() == blas_prior

    def test_no_openblas_counts_a_miss(self, blas_prior, monkeypatch):
        tensor = _budget_tensor()
        budgeted = cp_als(tensor, 4, _opts(num_tasks=2))
        monkeypatch.setattr(env_mod, "_mapped_openblas", lambda: [])
        misses = blas_budget.misses()
        with tracing() as rec:
            missed = cp_als(tensor, 4, _opts(num_tasks=2))
        assert blas_budget.misses() == misses + 1
        assert rec.counters()["runtime.blas_budget_misses"] == 1
        assert rec.gauges()["runtime.blas_threads"] == 0
        assert missed.blas.threads == 0
        assert "budget miss" in missed.summary()
        assert missed.fits == pytest.approx(budgeted.fits, rel=1e-10)
        for fa, fb in zip(missed.kruskal.factors, budgeted.kruskal.factors):
            np.testing.assert_allclose(fa, fb, rtol=1e-10, atol=1e-12)

    def test_stress_many_threads_nested_entries(self, blas_prior):
        """More holders than cores, a short switch interval: while any
        holder is inside the counts read the budget, and the last exit
        restores them."""
        import sys

        ok = []

        def churn():
            for _ in range(200):
                with blas_budget(ChapelEnv()):
                    with blas_budget(ChapelEnv()):
                        ok.append(_blas_counts() == [1] * len(blas_prior))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(ok) == 8 * 200 and all(ok)
        assert env_mod._state.depth == 0
        assert _blas_counts() == blas_prior

    def test_cap_keeps_workers_times_threads_within_cores(self, blas_prior, monkeypatch):
        monkeypatch.setattr(env_mod, "_usable_cores", lambda: 2)
        budget = blas_budget(ChapelEnv(num_tasks=2, omp_num_threads=4))
        assert (budget.cores, budget.pool_workers, budget.target) == (2, 2, 1)
        with budget:
            assert _blas_counts() == [1] * len(blas_prior)
        assert blas_budget(ChapelEnv(omp_num_threads=4)).target == 2
        assert blas_budget(ChapelEnv(num_tasks=8, omp_num_threads=4)).target == 1


class TestStaticBlock:
    def test_covers_range_exactly(self):
        for n in (0, 1, 7, 100):
            for ntasks in (1, 3, 8):
                blocks = [static_block(n, ntasks, t) for t in range(ntasks)]
                assert blocks[0][0] == 0
                assert blocks[-1][1] == n
                for (a, b), (c, d) in zip(blocks, blocks[1:]):
                    assert b == c

    def test_balanced(self):
        blocks = [static_block(10, 3, t) for t in range(3)]
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == [4, 3, 3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            static_block(5, 0, 0)
        with pytest.raises(ValueError):
            static_block(5, 2, 2)


class TestMutexPools:
    @pytest.mark.parametrize("kind", ["atomic", "sync"])
    def test_mutual_exclusion(self, kind):
        """The classic increment race: with the pool, no updates are lost."""
        pool = make_mutex_pool(kind, size=4)
        counter = {"x": 0}
        iterations = 2_000

        def worker():
            for i in range(iterations):
                with pool.guard_row(i):
                    counter["x"] += 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["x"] == 4 * iterations

    @pytest.mark.parametrize("kind", ["atomic", "sync"])
    def test_lock_id_hashing(self, kind):
        pool = make_mutex_pool(kind, size=8)
        assert pool.lock_id(3) == 3
        assert pool.lock_id(11) == 3
        assert pool.lock_id(8) == 0

    def test_atomic_counts_acquires(self):
        pool = AtomicLockPool(size=2)
        with pool.guard_row(0):
            pass
        with pool.guard_row(5):
            pass
        assert pool.counters.lock_acquires == 2
        assert pool.counters.lock_contended == 0

    def test_sync_sleeps_under_qthreads(self):
        """A blocked sync acquire is descheduled (counted as a sleep)."""
        env = ChapelEnv(tasking_layer="qthreads")
        pool = SyncLockPool(size=1, env=env)
        pool.acquire(0)
        sleeps_seen = []

        def blocked():
            pool.acquire(0)
            pool.release(0)
            sleeps_seen.append(pool.counters.sync_sleeps)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)  # let it block
        pool.release(0)
        t.join(timeout=5)
        assert not t.is_alive()
        assert sleeps_seen[0] >= 1

    def test_sync_spins_under_fifo(self):
        env = ChapelEnv(tasking_layer="fifo")
        pool = SyncLockPool(size=1, env=env)
        pool.acquire(0)

        def blocked():
            pool.acquire(0)
            pool.release(0)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        pool.release(0)
        t.join(timeout=5)
        assert not t.is_alive()
        assert pool.counters.sync_sleeps == 0  # spun, never slept
        assert pool.counters.task_yields >= 1

    def test_sync_double_release_rejected(self):
        pool = SyncLockPool(size=1)
        pool.acquire(0)
        pool.release(0)
        with pytest.raises(RuntimeError, match="not held"):
            pool.release(0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown mutex"):
            make_mutex_pool("futex")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AtomicLockPool(size=0)

    def test_sync_pool_respects_env_layer(self):
        env = ChapelEnv(tasking_layer="fifo")
        pool = make_mutex_pool("sync", env=env)
        assert isinstance(pool, SyncLockPool)
        assert not pool.env.sync_vars_sleep


class TestTaskingLayers:
    def test_factory(self):
        assert isinstance(make_tasking_layer(ChapelEnv()), QthreadsLayer)
        assert isinstance(
            make_tasking_layer(ChapelEnv(tasking_layer="fifo")), FifoLayer
        )

    def test_layer_env_mismatch(self):
        with pytest.raises(ValueError, match="tasking layer"):
            FifoLayer(ChapelEnv(tasking_layer="qthreads"))

    def test_coforall_runs_every_tid(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=5))
        seen = []
        lock = threading.Lock()

        def body(tid):
            with lock:
                seen.append(tid)

        layer.coforall(5, body)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_coforall_serial_inline(self):
        layer = make_tasking_layer(ChapelEnv())
        main_thread = threading.current_thread()
        executed_in = []
        layer.coforall(1, lambda tid: executed_in.append(threading.current_thread()))
        assert executed_in == [main_thread]
        assert layer.counters.tasks_spawned == 0

    def test_coforall_counts_spawns(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=3))
        layer.coforall(3, lambda tid: None)
        assert layer.counters.tasks_spawned == 3

    def test_coforall_propagates_exception(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=2))

        def body(tid):
            if tid == 1:
                raise RuntimeError("task boom")

        with pytest.raises(RuntimeError, match="task boom"):
            layer.coforall(2, body)

    def test_coforall_invalid(self):
        layer = make_tasking_layer(ChapelEnv())
        with pytest.raises(ValueError):
            layer.coforall(0, lambda tid: None)

    def test_forall_blocks_cover_space(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=4))
        hits = [0] * 23
        lock = threading.Lock()

        def body(lo, hi, tid):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        layer.forall(23, body)
        assert hits == [1] * 23

    def test_forall_more_tasks_than_items(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=16))
        hits = [0] * 3
        lock = threading.Lock()

        def body(lo, hi, tid):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        layer.forall(3, body)
        assert hits == [1, 1, 1]

    def test_task_yield_counted(self):
        layer = make_tasking_layer(ChapelEnv())
        layer.task_yield()
        assert layer.counters.task_yields == 1


class TestCostCounters:
    def test_add_and_snapshot(self):
        c = CostCounters()
        c.add(lock_acquires=3, lock_contended=1, sync_sleeps=2)
        snap = c.snapshot()
        assert snap["lock_acquires"] == 3
        assert snap["lock_contended"] == 1
        assert snap["sync_sleeps"] == 2

    def test_contention_ratio(self):
        c = CostCounters()
        assert c.contention_ratio == 0.0
        c.add(lock_acquires=4, lock_contended=1)
        assert c.contention_ratio == 0.25

    def test_reset(self):
        c = CostCounters()
        c.add(task_yields=5)
        c.reset()
        assert c.snapshot() == {
            "lock_acquires": 0, "lock_contended": 0, "sync_sleeps": 0,
            "task_yields": 0, "tasks_spawned": 0,
        }

    def test_thread_safety(self):
        c = CostCounters()

        def worker():
            for _ in range(5_000):
                c.add(lock_acquires=1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.lock_acquires == 20_000
