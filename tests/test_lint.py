"""Framework and per-rule tests for ``repro.lint``.

Each rule gets a positive fixture (the smell, must fire) and a negative
fixture (the sanctioned idiom, must stay silent); the framework tests
cover inline suppressions and the output formats.  Fixtures are written to a temp tree and the checkers are
pointed at them through :class:`LintConfig` scope overrides.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    discover_files,
    render,
    run_lint,
)
from repro.lint.core import Rule


# ----------------------------------------------------------------------
# fixture machinery
# ----------------------------------------------------------------------
def lint_source(
    tmp_path: Path,
    source: str,
    *,
    module: str = "fixmod",
    config: LintConfig | None = None,
):
    """Lint one fixture module with every checker; returns LintResult."""
    path = tmp_path / f"{module.replace('.', '_')}.py"
    path.write_text(textwrap.dedent(source))
    cfg = config or LintConfig()
    files, errors = discover_files([path])
    assert not errors
    # discovery derives the module name from the path; force the name
    # the scope override expects
    files[0].module = module
    from repro.lint.checkers import all_checkers
    from repro.lint.core import Finding

    raw: list[Finding] = []
    for checker in all_checkers():
        raw.extend(checker.check(files, cfg))
    raw.sort(key=Finding.sort_key)

    from repro.lint.runner import LintResult

    result = LintResult(files_checked=1)
    for f in raw:
        if files[0].is_suppressed(f):
            result.suppressed.append(f)
        else:
            result.findings.append(f)
    return result


def lint_sources(
    tmp_path: Path,
    sources: dict[str, str],
    *,
    config: LintConfig | None = None,
):
    """Lint a multi-module fixture tree with every checker.

    ``sources`` maps module names to source text; each module becomes
    one file and the whole set is analyzed together, so the
    interprocedural (program-scope) checkers see cross-module calls.
    """
    paths: list[Path] = []
    for module, source in sources.items():
        path = tmp_path / f"{module.replace('.', '_')}.py"
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    cfg = config or LintConfig()
    files, errors = discover_files(paths)
    assert not errors
    for sf, module in zip(files, sources):
        sf.module = module
    from repro.lint.checkers import all_checkers
    from repro.lint.core import Finding

    raw: list[Finding] = []
    for checker in all_checkers():
        raw.extend(checker.check(files, cfg))
    raw.sort(key=Finding.sort_key)

    from repro.lint.runner import LintResult

    result = LintResult(files_checked=len(files))
    by_path = {str(sf.path): sf for sf in files}
    for f in raw:
        sf = by_path.get(f.path)
        if sf is not None and sf.is_suppressed(f):
            result.suppressed.append(f)
        else:
            result.findings.append(f)
    return result


def rule_ids(result) -> list[str]:
    return [f.rule_id for f in result.findings]


CONC = LintConfig(concurrency_modules=("fixmod",))
DET = LintConfig(deterministic_modules=("fixmod",))
KEYS = LintConfig(key_modules=("fixmod",))
DETFLOW = LintConfig(deterministic_modules=("fixdet",))
WIRE = LintConfig(wire_modules=("fixwire",))


# ----------------------------------------------------------------------
# RPL001 lock-order cycles
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_positive_cycle(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.b:
                        with self.a:
                            pass
        """, config=CONC)
        assert "RPL001" in rule_ids(res)

    def test_negative_consistent_order(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def one(self):
                    with self.a:
                        with self.b:
                            pass

                def two(self):
                    with self.a:
                        with self.b:
                            pass
        """, config=CONC)
        assert "RPL001" not in rule_ids(res)

    def test_transitive_cycle_through_call(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.a = threading.Lock()
                    self.b = threading.Lock()

                def helper(self):
                    with self.a:
                        pass

                def one(self):
                    with self.b:
                        self.helper()

                def two(self):
                    with self.a:
                        with self.b:
                            pass
        """, config=CONC)
        assert "RPL001" in rule_ids(res)

    # "cache, then tier" (the order repro.service.cache states): the
    # holder reaches the tier through a typed collaborator, and
    # ``remove`` is defined on two classes, so only the receiver's type
    # says whose lock the call takes
    CACHE = """
        import threading
        from fixtier import Tier

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self.tier = Tier(self)

            def drop(self, key):
                with self._lock:
                    self.tier.remove(key)

            def evicted(self, key):
                with self._lock:
                    pass
    """
    TIER = """
        import threading

        class Tier:
            def __init__(self, cache):
                self._tlock = threading.Lock()
                self.cache = cache

            def remove(self, key):
                with self._tlock:
                    pass

            def spill(self, key):
                {spill}

        class Index:
            def remove(self, key):
                pass
    """
    CALLS_BACK_UNDER_LOCK = """with self._tlock:
                    self.cache.evicted(key)"""
    CALLS_BACK_AFTER_RELEASE = """with self._tlock:
                    pass
                self.cache.evicted(key)"""
    TWO_CLASSES = LintConfig(concurrency_modules=("fixcache", "fixtier"))

    @pytest.mark.parametrize("order", [("fixcache", "fixtier"),
                                       ("fixtier", "fixcache")])
    def test_cross_class_cycle_through_typed_collaborator(
        self, tmp_path, order
    ):
        sources = {
            "fixcache": self.CACHE,
            "fixtier": self.TIER.format(spill=self.CALLS_BACK_UNDER_LOCK),
        }
        res = lint_sources(
            tmp_path, {m: sources[m] for m in order},
            config=self.TWO_CLASSES,
        )
        cycles = [f for f in res.findings if f.rule_id == "RPL001"]
        assert len(cycles) == 1, rule_ids(res)
        assert "Cache._lock" in cycles[0].message
        assert "Tier._tlock" in cycles[0].message

    @pytest.mark.parametrize("order", [("fixcache", "fixtier"),
                                       ("fixtier", "fixcache")])
    def test_cross_class_negative_consistent_order(self, tmp_path, order):
        sources = {
            "fixcache": self.CACHE,
            "fixtier": self.TIER.format(spill=self.CALLS_BACK_AFTER_RELEASE),
        }
        res = lint_sources(
            tmp_path, {m: sources[m] for m in order},
            config=self.TWO_CLASSES,
        )
        assert "RPL001" not in rule_ids(res)


# ----------------------------------------------------------------------
# RPL002 blocking call under lock
# ----------------------------------------------------------------------
class TestBlockingUnderLock:
    def test_positive_sleep_under_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading
            import time

            class S:
                def __init__(self):
                    self.lock = threading.Lock()

                def work(self):
                    with self.lock:
                        time.sleep(1.0)
        """, config=CONC)
        assert "RPL002" in rule_ids(res)

    def test_positive_expensive_call_under_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading
            from somewhere import factorize

            class S:
                def __init__(self):
                    self.lock = threading.Lock()

                def work(self, a):
                    with self.lock:
                        return factorize(a)
        """, config=CONC)
        assert "RPL002" in rule_ids(res)

    def test_negative_sleep_outside_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading
            import time

            class S:
                def __init__(self):
                    self.lock = threading.Lock()

                def work(self):
                    with self.lock:
                        x = 1
                    time.sleep(1.0)
                    return x
        """, config=CONC)
        assert "RPL002" not in rule_ids(res)

    def test_negative_condition_wait_is_exempt(self, tmp_path):
        # Condition.wait releases the lock it waits on: not blocking
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.cond = threading.Condition()

                def work(self):
                    with self.cond:
                        self.cond.wait(1.0)
        """, config=CONC)
        assert "RPL002" not in rule_ids(res)

    def test_positive_foreign_wait_under_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.event = threading.Event()

                def work(self):
                    with self.lock:
                        self.event.wait()
        """, config=CONC)
        assert "RPL002" in rule_ids(res)

    def test_positive_transitive_blocking(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading
            import time

            class S:
                def __init__(self):
                    self.lock = threading.Lock()

                def slow(self):
                    time.sleep(0.5)

                def work(self):
                    with self.lock:
                        self.slow()
        """, config=CONC)
        assert "RPL002" in rule_ids(res)


# ----------------------------------------------------------------------
# RPL003 callback under lock
# ----------------------------------------------------------------------
class TestCallbackUnderLock:
    def test_positive_event_set_under_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.done = threading.Event()

                def finish(self):
                    with self.lock:
                        self.done.set()
        """, config=CONC)
        assert "RPL003" in rule_ids(res)

    def test_positive_factory_under_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self, factory):
                    self.lock = threading.Lock()
                    self.node_factory = factory

                def build(self):
                    with self.lock:
                        return self.node_factory()
        """, config=CONC)
        assert "RPL003" in rule_ids(res)

    def test_negative_set_outside_lock(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class S:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.done = threading.Event()

                def finish(self):
                    with self.lock:
                        x = 1
                    self.done.set()
                    return x
        """, config=CONC)
        assert "RPL003" not in rule_ids(res)


# ----------------------------------------------------------------------
# RPL010/011/012 determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_positive_wall_clock(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def stamp():
                return time.perf_counter()
        """, config=DET)
        assert "RPL010" in rule_ids(res)

    def test_positive_bare_import_wall_clock(self, tmp_path):
        res = lint_source(tmp_path, """
            from time import perf_counter

            def stamp():
                return perf_counter()
        """, config=DET)
        assert "RPL010" in rule_ids(res)

    def test_negative_out_of_scope_module(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def stamp():
                return time.perf_counter()
        """, config=LintConfig(deterministic_modules=("other.module",)))
        assert "RPL010" not in rule_ids(res)

    def test_positive_unseeded_rng(self, tmp_path):
        res = lint_source(tmp_path, """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
        """, config=DET)
        assert "RPL011" in rule_ids(res)

    def test_positive_legacy_global_rng(self, tmp_path):
        res = lint_source(tmp_path, """
            import numpy as np

            def draw():
                return np.random.rand(3)
        """, config=DET)
        assert "RPL011" in rule_ids(res)

    def test_negative_seeded_rng(self, tmp_path):
        res = lint_source(tmp_path, """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()
        """, config=DET)
        assert "RPL011" not in rule_ids(res)

    def test_positive_set_iteration(self, tmp_path):
        res = lint_source(tmp_path, """
            def weird(xs):
                pending = {str(x) for x in xs}
                return [p for p in pending]
        """, config=DET)
        assert "RPL012" in rule_ids(res)

    def test_negative_sorted_set_iteration(self, tmp_path):
        res = lint_source(tmp_path, """
            def stable(xs):
                pending = {str(x) for x in xs}
                return [p for p in sorted(pending)]
        """, config=DET)
        assert "RPL012" not in rule_ids(res)


# ----------------------------------------------------------------------
# RPL020 allocator ownership
# ----------------------------------------------------------------------
class TestAllocatorLeak:
    def test_positive_second_acquire_unprotected(self, tmp_path):
        res = lint_source(tmp_path, """
            def reserve(gpu, n):
                a = gpu.device_pool.request(n)
                b = gpu.pinned_pool.request(n)
                return a + b
        """)
        assert "RPL020" in rule_ids(res)

    def test_positive_raise_with_outstanding(self, tmp_path):
        res = lint_source(tmp_path, """
            def reserve(gpu, n):
                cost = gpu.device_pool.request(n)
                if n > 100:
                    raise ValueError("too big")
                return cost
        """)
        assert "RPL020" in rule_ids(res)

    def test_positive_fall_through_release(self, tmp_path):
        res = lint_source(tmp_path, """
            def use(gpu, n, work):
                cost = gpu.device_pool.request(n)
                result = work(cost)
                gpu.device_pool.release(n)
                return result
        """)
        assert "RPL020" in rule_ids(res)

    def test_negative_try_finally_release(self, tmp_path):
        res = lint_source(tmp_path, """
            def use(gpu, n, work):
                cost = gpu.device_pool.request(n)
                try:
                    return work(cost)
                finally:
                    gpu.device_pool.release(n)
        """)
        assert "RPL020" not in rule_ids(res)

    def test_negative_rollback_then_reraise(self, tmp_path):
        res = lint_source(tmp_path, """
            def reserve(gpu, d, p):
                cost = gpu.device_pool.request(d)
                try:
                    cost += gpu.pinned_pool.request(p)
                except BaseException:
                    gpu.device_pool.release(d)
                    raise
                return cost
        """)
        assert "RPL020" not in rule_ids(res)

    def test_negative_working_set_context(self, tmp_path):
        res = lint_source(tmp_path, """
            def use(gpu, n, work):
                with gpu.working_set(n, n) as cost:
                    return work(cost)
        """)
        assert "RPL020" not in rule_ids(res)

    def test_negative_single_acquire_handoff(self, tmp_path):
        # cross-function ownership (release elsewhere) is legal
        res = lint_source(tmp_path, """
            def start(gpu, record, n):
                record.device_bytes = n
                record.cost = gpu.device_pool.request(n)
        """)
        assert "RPL020" not in rule_ids(res)

    def test_negative_impl_module_excluded(self, tmp_path):
        res = lint_source(tmp_path, """
            def request_twice(pool, other_pool, n):
                a = pool.request(n)
                b = other_pool.request(n)
                return a + b
        """, module="repro.gpu.allocator")
        assert "RPL020" not in rule_ids(res)


# ----------------------------------------------------------------------
# RPL030 cache-key purity
# ----------------------------------------------------------------------
class TestKeyPurity:
    def test_positive_env_read(self, tmp_path):
        res = lint_source(tmp_path, """
            import os

            def pattern_key(a):
                return (a.shape, os.environ.get("SOLVER_MODE"))
        """, config=KEYS)
        assert "RPL030" in rule_ids(res)

    def test_positive_time_in_key(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def numeric_key(a):
                return (a.nnz, time.time())
        """, config=KEYS)
        assert "RPL030" in rule_ids(res)

    def test_positive_mutable_global_read(self, tmp_path):
        res = lint_source(tmp_path, """
            FLAGS = {"mode": "fast"}

            def pattern_key(a):
                return (a.shape, FLAGS["mode"])
        """, config=KEYS)
        assert "RPL030" in rule_ids(res)

    def test_negative_pure_key(self, tmp_path):
        res = lint_source(tmp_path, """
            import hashlib

            def pattern_key(a):
                h = hashlib.blake2b(digest_size=16)
                h.update(bytes(a.indptr))
                return h.hexdigest()
        """, config=KEYS)
        assert "RPL030" not in rule_ids(res)

    def test_key_suffix_covered_everywhere(self, tmp_path):
        # *_key functions are checked even outside key_modules
        res = lint_source(tmp_path, """
            import os

            def cache_key(a):
                return (a.shape, os.getenv("MODE"))
        """)
        assert "RPL030" in rule_ids(res)

    def test_negative_constant_global(self, tmp_path):
        res = lint_source(tmp_path, """
            VERSION = 3

            def pattern_key(a):
                return (VERSION, a.shape)
        """, config=KEYS)
        assert "RPL030" not in rule_ids(res)


# ----------------------------------------------------------------------
# RPL040/041 metric and trace hygiene
# ----------------------------------------------------------------------
class TestMetricsHygiene:
    def test_positive_dynamic_metric_name(self, tmp_path):
        res = lint_source(tmp_path, """
            def record(metrics, outcome):
                metrics.incr(outcome)
        """)
        assert "RPL040" in rule_ids(res)

    def test_negative_literal_metric_name(self, tmp_path):
        res = lint_source(tmp_path, """
            def record(metrics):
                metrics.incr("completed")
        """)
        assert "RPL040" not in rule_ids(res)

    def test_negative_loop_over_literal_tuples(self, tmp_path):
        res = lint_source(tmp_path, """
            def record(metrics, a, b):
                for name, value in (("alpha", a), ("beta", b)):
                    metrics.incr(name, value)
        """)
        assert "RPL040" not in rule_ids(res)

    def test_positive_loop_over_dynamic_iterable(self, tmp_path):
        res = lint_source(tmp_path, """
            def record(metrics, pairs):
                for name, value in pairs:
                    metrics.incr(name, value)
        """)
        assert "RPL040" in rule_ids(res)

    def test_positive_unknown_engine_kind(self, tmp_path):
        res = lint_source(tmp_path, """
            def trace(metrics, i, t0, t1):
                engine = f"worker{i}"
                metrics.span("solve", "solve", engine, t0, t1)
        """)
        assert "RPL041" in rule_ids(res)

    def test_negative_cpu_prefixed_engine(self, tmp_path):
        res = lint_source(tmp_path, """
            def trace(metrics, i, t0, t1):
                engine = f"cpu.worker{i}"
                metrics.span("solve", "solve", engine, t0, t1)
        """)
        assert "RPL041" not in rule_ids(res)

    def test_negative_engine_keyword(self, tmp_path):
        res = lint_source(tmp_path, """
            def trace(metrics, i, t0, t1):
                metrics.span("solve", "solve", engine=f"gpu{i}.compute")
        """)
        assert "RPL041" not in rule_ids(res)


# ----------------------------------------------------------------------
# framework: suppressions, output formats
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# RPL050-053 determinism taint (interprocedural)
# ----------------------------------------------------------------------
class TestDeterminismFlow:
    def test_rpl050_wall_clock_reaches_key_sink(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def cache_key(name, t):
                return (name, t)

            def stamp(name):
                return cache_key(name, time.time())
        """)
        assert "RPL050" in rule_ids(res)

    def test_rpl050_negative_injected_clock(self, tmp_path):
        res = lint_source(tmp_path, """
            def cache_key(name, t):
                return (name, t)

            class Stamper:
                def __init__(self, clock):
                    self._clock = clock

                def stamp(self, name):
                    return cache_key(name, self._clock())
        """)
        assert "RPL050" not in rule_ids(res)

    def test_rpl050_line_suppression(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def cache_key(name, t):
                return (name, t)

            def stamp(name):
                return cache_key(name, time.time())  # repro-lint: disable=RPL050 -- replay fixture
        """)
        assert "RPL050" not in rule_ids(res)
        assert "RPL050" in [f.rule_id for f in res.suppressed]

    def test_rpl051_unseeded_rng_reaches_key_sink(self, tmp_path):
        res = lint_source(tmp_path, """
            import random

            def cache_key(name, t):
                return (name, t)

            def jitter(name):
                return cache_key(name, random.random())
        """)
        assert "RPL051" in rule_ids(res)

    def test_rpl051_negative_seeded_generator(self, tmp_path):
        res = lint_source(tmp_path, """
            import random

            def cache_key(name, t):
                return (name, t)

            def jitter(name):
                rng = random.Random(1234)
                return cache_key(name, rng.random())
        """)
        assert "RPL051" not in rule_ids(res)

    def test_rpl052_id_reaches_key_sink(self, tmp_path):
        res = lint_source(tmp_path, """
            def cache_key(name, t):
                return (name, t)

            def slot(obj):
                return cache_key("slot", id(obj))
        """)
        assert "RPL052" in rule_ids(res)

    def test_rpl052_negative_method_named_id(self, tmp_path):
        res = lint_source(tmp_path, """
            def cache_key(name, t):
                return (name, t)

            def slot(registry, obj):
                return cache_key("slot", registry.id(obj))
        """)
        assert "RPL052" not in rule_ids(res)

    def test_rpl053_set_order_reaches_key_sink(self, tmp_path):
        res = lint_source(tmp_path, """
            def cache_key(parts):
                return tuple(parts)

            def tags(names):
                distinct = [n for n in set(names)]
                return cache_key(distinct)
        """)
        assert "RPL053" in rule_ids(res)

    def test_rpl053_negative_sorted_set(self, tmp_path):
        res = lint_source(tmp_path, """
            def cache_key(parts):
                return tuple(parts)

            def tags(names):
                return cache_key(sorted(set(names)))
        """)
        assert "RPL053" not in rule_ids(res)

    def test_cross_module_wall_clock_two_hops(self, tmp_path):
        """Source in fixa -> relay in fixb -> ledger sink in fixdet."""
        res = lint_sources(tmp_path, {
            "fixdet": """
                _ledger = {}

                def record(name, t):
                    _ledger[name] = t
            """,
            "fixb": """
                from fixdet import record

                def relay(name, t):
                    record(name, t)
            """,
            "fixa": """
                import time

                from fixb import relay

                def stamp(name):
                    relay(name, time.time())
            """,
        }, config=DETFLOW)
        hits = [f for f in res.findings if f.rule_id == "RPL050"]
        assert hits, rule_ids(res)
        # reported at the source-side call, naming the remote sink
        assert all(f.path.endswith("fixa.py") for f in hits)
        assert any(
            "relay" in f.message and "fixdet" in f.message for f in hits
        )


# ----------------------------------------------------------------------
# RPL060/061 exception-safety resource paths (interprocedural)
# ----------------------------------------------------------------------
class TestResourceFlow:
    def test_rpl060_reservation_across_raising_call(self, tmp_path):
        res = lint_source(tmp_path, """
            def validate(n):
                if n < 0:
                    raise ValueError("negative")

            def grab(pool, n):
                handle = pool.reserve(n)
                validate(n)
                pool.release(handle)
                return handle
        """)
        assert "RPL060" in rule_ids(res)

    def test_rpl060_negative_rollback_on_failure(self, tmp_path):
        res = lint_source(tmp_path, """
            def validate(n):
                if n < 0:
                    raise ValueError("negative")

            def grab(pool, n):
                handle = pool.reserve(n)
                try:
                    validate(n)
                except Exception:
                    pool.rollback(handle)
                    raise
                pool.release(handle)
                return handle
        """)
        assert "RPL060" not in rule_ids(res)

    def test_rpl060_line_suppression(self, tmp_path):
        res = lint_source(tmp_path, """
            def validate(n):
                if n < 0:
                    raise ValueError("negative")

            def grab(pool, n):
                handle = pool.reserve(n)
                validate(n)  # repro-lint: disable=RPL060 -- validate cannot raise here
                pool.release(handle)
                return handle
        """)
        assert "RPL060" not in rule_ids(res)
        assert "RPL060" in [f.rule_id for f in res.suppressed]

    def test_rpl061_manual_lock_across_raising_call(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            _pool_lock = threading.Lock()

            def validate(n):
                if n < 0:
                    raise ValueError("negative")

            def bump(n):
                _pool_lock.acquire()
                validate(n)
                _pool_lock.release()
        """)
        assert "RPL061" in rule_ids(res)

    def test_rpl061_negative_release_in_finally(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            _pool_lock = threading.Lock()

            def validate(n):
                if n < 0:
                    raise ValueError("negative")

            def bump(n):
                _pool_lock.acquire()
                try:
                    validate(n)
                finally:
                    _pool_lock.release()
        """)
        assert "RPL061" not in rule_ids(res)

    def test_cross_module_raise_two_hops(self, tmp_path):
        """Raise in fixc -> relay in fixb -> reservation held in fixa."""
        res = lint_sources(tmp_path, {
            "fixc": """
                def validate(n):
                    if n < 0:
                        raise ValueError("negative")
            """,
            "fixb": """
                from fixc import validate

                def check(n):
                    return validate(n)
            """,
            "fixa": """
                from fixb import check

                def grab(pool, n):
                    handle = pool.reserve(n)
                    check(n)
                    pool.release(handle)
                    return handle
            """,
        })
        hits = [f for f in res.findings if f.rule_id == "RPL060"]
        assert hits, rule_ids(res)
        assert all(f.path.endswith("fixa.py") for f in hits)
        assert any("check()" in f.message for f in hits)


# ----------------------------------------------------------------------
# RPL070-072 guard inference
# ----------------------------------------------------------------------
class TestGuardInference:
    def test_rpl070_unguarded_write(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n = self._n + 1

                def read(self):
                    with self._lock:
                        return self._n

                def reset(self):
                    self._n = 0
        """)
        assert "RPL070" in rule_ids(res)

    def test_rpl071_unguarded_read(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n = self._n + 1

                def read(self):
                    with self._lock:
                        return self._n

                def peek(self):
                    return self._n
        """)
        assert "RPL071" in rule_ids(res)

    def test_rpl072_inconsistent_guard(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._aux = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n = self._n + 1

                def read(self):
                    with self._lock:
                        return self._n

                def cross(self):
                    with self._aux:
                        return self._n
        """)
        assert "RPL072" in rule_ids(res)

    def test_negative_all_accesses_guarded(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n = self._n + 1

                def read(self):
                    with self._lock:
                        return self._n

                def reset(self):
                    with self._lock:
                        self._n = 0
        """)
        ids = rule_ids(res)
        assert not {"RPL070", "RPL071", "RPL072"} & set(ids)

    def test_negative_immutable_after_construction(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Config:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._limit = 8

                def a(self):
                    return self._limit

                def b(self):
                    return self._limit

                def c(self):
                    return self._limit
        """)
        assert "RPL071" not in rule_ids(res)

    def test_rpl070_line_suppression(self, tmp_path):
        res = lint_source(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n = self._n + 1

                def read(self):
                    with self._lock:
                        return self._n

                def reset(self):
                    self._n = 0  # repro-lint: disable=RPL070 -- single-threaded teardown
        """)
        assert "RPL070" not in rule_ids(res)
        assert "RPL070" in [f.rule_id for f in res.suppressed]

    # Guard inference is class-scoped by construction (an attribute and
    # its lock live on one class), so the "cross-module" fixture for
    # this family exercises the interprocedural mechanism itself: the
    # entry-held lock set propagating through >= 2 private call hops,
    # with a consumer module driving the public API.
    TALLY = """
        import threading

        class Tally:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._step()

            def read(self):
                with self._lock:
                    return self._n

            def reset(self):
                with self._lock:
                    self._n = 0

            def scale(self):
                with self._lock:
                    self._n = self._n * 2

            def snap(self):
                with self._lock:
                    return self._n

            def _step(self):
                self._apply()

            def _apply(self):
                self._n = self._n + 1
    """

    SNEAK = """
        import threading

        class Tally:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._step()

            def read(self):
                with self._lock:
                    return self._n

            def reset(self):
                with self._lock:
                    self._n = 0

            def scale(self):
                with self._lock:
                    self._n = self._n * 2

            def snap(self):
                with self._lock:
                    return self._n

            def sneak(self):
                self._step()

            def _step(self):
                self._apply()

            def _apply(self):
                self._n = self._n + 1
    """

    DRIVER = """
        from fixa import Tally

        def drive():
            t = Tally()
            t.bump()
            return t.read()
    """

    def test_two_hop_entry_held_negative(self, tmp_path):
        """_apply is only reached via bump -> _step -> _apply, every
        path holding the lock: the two-hop entry set keeps it clean."""
        res = lint_sources(tmp_path, {
            "fixa": self.TALLY,
            "fixb": self.DRIVER,
        })
        ids = rule_ids(res)
        assert not {"RPL070", "RPL071", "RPL072"} & set(ids)

    def test_two_hop_entry_held_positive(self, tmp_path):
        """One unlocked call site into the two-hop chain voids the
        entry-held set, so _apply's write becomes the minority bug."""
        res = lint_sources(tmp_path, {
            "fixa": self.SNEAK,
            "fixb": self.DRIVER,
        })
        assert "RPL070" in rule_ids(res)


# ----------------------------------------------------------------------
# RPL080-082 wire hygiene (interprocedural)
# ----------------------------------------------------------------------
class TestWireHygiene:
    def test_rpl080_exception_text_in_envelope(self, tmp_path):
        res = lint_source(tmp_path, """
            from repro.api.protocol import error_response

            def risky():
                raise RuntimeError("boom")

            def answer(rid):
                try:
                    risky()
                except Exception as exc:
                    return error_response("internal", str(exc), request_id=rid)
        """, module="fixwire", config=WIRE)
        assert "RPL080" in rule_ids(res)

    def test_rpl080_negative_public_message(self, tmp_path):
        res = lint_source(tmp_path, """
            from repro.api.protocol import error_response, public_message

            def risky():
                raise RuntimeError("boom")

            def answer(rid):
                try:
                    risky()
                except Exception as exc:
                    return error_response(
                        "internal", public_message(exc), request_id=rid
                    )
        """, module="fixwire", config=WIRE)
        assert "RPL080" not in rule_ids(res)

    def test_rpl080_negative_wire_safe_exception(self, tmp_path):
        res = lint_source(tmp_path, """
            from repro.api.protocol import ApiError, error_response

            def risky():
                raise ApiError("invalid_request", "bad matrix")

            def answer(rid):
                try:
                    risky()
                except ApiError as exc:
                    return error_response(
                        "invalid_request", str(exc), request_id=rid
                    )
        """, module="fixwire", config=WIRE)
        assert "RPL080" not in rule_ids(res)

    def test_rpl080_metric_name_sink(self, tmp_path):
        res = lint_source(tmp_path, """
            def risky():
                raise RuntimeError("boom")

            def tally(metrics):
                try:
                    risky()
                except Exception as exc:
                    metrics.incr(f"errors.{exc}")
        """, module="fixwire", config=WIRE)
        assert "RPL080" in rule_ids(res)

    def test_rpl080_line_suppression(self, tmp_path):
        res = lint_source(tmp_path, """
            from repro.api.protocol import error_response

            def risky():
                raise RuntimeError("boom")

            def answer(rid):
                try:
                    risky()
                except Exception as exc:
                    return error_response("internal", str(exc), request_id=rid)  # repro-lint: disable=RPL080 -- test fixture
        """, module="fixwire", config=WIRE)
        assert "RPL080" not in rule_ids(res)
        assert "RPL080" in [f.rule_id for f in res.suppressed]

    def test_rpl081_path_in_response(self, tmp_path):
        res = lint_source(tmp_path, """
            import os

            from repro.api.protocol import json_response

            def where(rid):
                return json_response(
                    200,
                    {"spill_dir": os.path.join("/tmp", rid)},
                    request_id=rid,
                )
        """, module="fixwire", config=WIRE)
        assert "RPL081" in rule_ids(res)

    def test_rpl081_negative_opaque_id(self, tmp_path):
        res = lint_source(tmp_path, """
            from repro.api.protocol import json_response

            def where(rid, spill_index):
                return json_response(
                    200, {"spill": spill_index}, request_id=rid
                )
        """, module="fixwire", config=WIRE)
        assert "RPL081" not in rule_ids(res)

    def test_rpl082_env_value_in_response(self, tmp_path):
        res = lint_source(tmp_path, """
            import os

            from repro.api.protocol import json_response

            def config_doc(rid):
                return json_response(
                    200, {"mode": os.getenv("REPRO_MODE")}, request_id=rid
                )
        """, module="fixwire", config=WIRE)
        assert "RPL082" in rule_ids(res)

    def test_rpl082_negative_numeric_conversion(self, tmp_path):
        res = lint_source(tmp_path, """
            import os

            from repro.api.protocol import json_response

            def config_doc(rid):
                return json_response(
                    200,
                    {"port": int(os.getenv("REPRO_PORT", "0"))},
                    request_id=rid,
                )
        """, module="fixwire", config=WIRE)
        assert "RPL082" not in rule_ids(res)

    def test_cross_module_exception_text_two_hops(self, tmp_path):
        """Exception caught in fixa -> relay in fixb -> envelope in
        fixwire."""
        res = lint_sources(tmp_path, {
            "fixwire": """
                from repro.api.protocol import error_response

                def emit(rid, text):
                    return error_response("internal", text, request_id=rid)
            """,
            "fixb": """
                from fixwire import emit

                def relay(rid, text):
                    return emit(rid, text)
            """,
            "fixa": """
                from fixb import relay

                def failed(rid):
                    try:
                        raise RuntimeError("boom")
                    except Exception as exc:
                        return relay(rid, str(exc))
            """,
        }, config=WIRE)
        hits = [f for f in res.findings if f.rule_id == "RPL080"]
        assert hits, rule_ids(res)
        assert all(f.path.endswith("fixa.py") for f in hits)
        assert any(
            "relay" in f.message and "fixwire" in f.message for f in hits
        )


# ----------------------------------------------------------------------
# RPL090 suppression hygiene
# ----------------------------------------------------------------------
class TestSuppressionHygiene:
    SRC = """
        import time

        def stamp():
            return time.perf_counter(){inline}
    """

    def test_bare_suppression_warns(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(inline="  # repro-lint: disable=RPL010"),
            config=DET,
        )
        ids = rule_ids(res)
        assert "RPL090" in ids
        assert "RPL010" not in ids  # still suppressed, just audited

    def test_justified_suppression_is_clean(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable=RPL010 -- budget clock"
            ),
            config=DET,
        )
        assert "RPL090" not in rule_ids(res)

    def test_bare_blanket_disable_cannot_hide_rpl090(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(inline="  # repro-lint: disable"),
            config=DET,
        )
        assert "RPL090" in rule_ids(res)

    def test_explicit_rpl090_mention_suppresses_the_warning(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable=RPL010,RPL090"
            ),
            config=DET,
        )
        assert "RPL090" not in rule_ids(res)
        assert "RPL090" in [f.rule_id for f in res.suppressed]

    def test_bare_file_scope_suppression_warns(self, tmp_path):
        src = (
            "# repro-lint: disable-file=RPL010\n"
            + textwrap.dedent(self.SRC.format(inline=""))
        )
        res = lint_source(tmp_path, src, config=DET)
        assert "RPL090" in rule_ids(res)


class TestSuppressions:
    SRC = """
        import time

        def stamp():
            return time.perf_counter(){inline}
    """

    def test_unsuppressed_fires(self, tmp_path):
        res = lint_source(
            tmp_path, self.SRC.format(inline=""), config=DET
        )
        assert rule_ids(res) == ["RPL010"]

    def test_line_suppression(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable=RPL010 -- budget clock"
            ),
            config=DET,
        )
        assert rule_ids(res) == []
        assert [f.rule_id for f in res.suppressed] == ["RPL010"]

    def test_line_suppression_wrong_rule_still_fires(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable=RPL011 -- wrong rule on purpose"
            ),
            config=DET,
        )
        assert rule_ids(res) == ["RPL010"]

    def test_blanket_line_suppression(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable -- blanket for the fixture"
            ),
            config=DET,
        )
        assert rule_ids(res) == []

    def test_file_suppression(self, tmp_path):
        src = (
            "# repro-lint: disable-file=RPL010 -- module-wide opt-out\n"
            + textwrap.dedent(self.SRC.format(inline=""))
        )
        res = lint_source(tmp_path, src, config=DET)
        assert rule_ids(res) == []
        assert [f.rule_id for f in res.suppressed] == ["RPL010"]


class TestOutputFormats:
    def _result(self, tmp_path):
        return lint_source(tmp_path, """
            import time

            def stamp():
                return time.perf_counter()
        """, config=DET)

    def test_text_format(self, tmp_path):
        out = render(self._result(tmp_path), "text")
        assert "RPL010" in out
        assert "1 finding(s)" in out
        assert ":5:" in out  # line number present

    def test_json_format(self, tmp_path):
        out = render(self._result(tmp_path), "json")
        data = json.loads(out)
        assert data["ok"] is False
        assert data["findings"][0]["rule_id"] == "RPL010"
        assert data["findings"][0]["line"] == 5
        assert data["findings"][0]["severity"] == "error"

    def test_github_format(self, tmp_path):
        out = render(self._result(tmp_path), "github")
        assert out.startswith("::error file=")
        assert "title=RPL010" in out
        assert ",line=5," in out

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            render(self._result(tmp_path), "xml")

    def test_deterministic_ordering(self, tmp_path):
        res = lint_source(tmp_path, """
            import time

            def b():
                return time.perf_counter()

            def a():
                return time.time()
        """, config=DET)
        lines = [f.line for f in res.findings]
        assert lines == sorted(lines)


class TestSarifFormat:
    SRC = """
        import time

        def stamp():
            return time.perf_counter(){inline}
    """

    def test_sarif_document_shape(self, tmp_path):
        res = lint_source(
            tmp_path, self.SRC.format(inline=""), config=DET
        )
        doc = json.loads(render(res, "sarif", rules=all_rules()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        catalogue = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for rid in ("RPL010", "RPL050", "RPL060", "RPL070", "RPL080",
                    "RPL090"):
            assert rid in catalogue
        hit = run["results"][0]
        assert hit["ruleId"] == "RPL010"
        assert hit["level"] == "error"
        region = hit["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert "suppressions" not in hit

    def test_sarif_suppressed_finding_is_marked(self, tmp_path):
        res = lint_source(
            tmp_path,
            self.SRC.format(
                inline="  # repro-lint: disable=RPL010 -- budget clock"
            ),
            config=DET,
        )
        doc = json.loads(render(res, "sarif", rules=all_rules()))
        results = doc["runs"][0]["results"]
        marked = [r for r in results if r.get("suppressions")]
        assert marked
        assert marked[0]["suppressions"][0]["kind"] == "inSource"

    def test_sarif_registered_format(self):
        from repro.lint.output import FORMATS

        assert "sarif" in FORMATS


class TestProgramIndex:
    """The one whole-program index types collaborators independently
    of the order files were discovered in."""

    OWNER = """
        from fixhelper import Validator

        class Owner:
            def __init__(self, pool):
                self.pool = pool
                self.validator = Validator()

            def grab(self, n):
                handle = self.pool.reserve(n)
                self.validator.check(n)
                self.pool.release(handle)
                return handle
    """
    HELPER = """
        class Validator:
            def check(self, n):
                if n < 0:
                    raise ValueError("negative")

        class Other:
            def check(self, n):
                return n
    """

    def _lint(self, tmp_path, order):
        from repro.lint.flow.callgraph import build_index

        sources = {"fixowner": self.OWNER, "fixhelper": self.HELPER}
        res = lint_sources(tmp_path, {m: sources[m] for m in order})
        paths = [tmp_path / f"{m}.py" for m in order]
        files, _ = discover_files(paths)
        index = build_index(files, LintConfig())
        findings = sorted(
            (f.rule_id, Path(f.path).name, f.line) for f in res.findings
        )
        return index.attr_types, findings

    def test_typing_does_not_depend_on_file_order(self, tmp_path):
        # the class is defined in the *later* file in the first order
        types_a, found_a = self._lint(tmp_path, ("fixowner", "fixhelper"))
        types_b, found_b = self._lint(tmp_path, ("fixhelper", "fixowner"))
        assert types_a == types_b == {("Owner", "validator"): "Validator"}
        assert found_a == found_b
        # ``check`` is defined twice: only the typed receiver says the
        # call under the reservation is the one that raises
        assert "RPL060" in [rule for rule, _, _ in found_a]


class TestFramework:
    def test_all_rules_unique_and_wellformed(self):
        rules = all_rules()
        ids = [r.rule_id for r in rules]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 10
        for r in rules:
            assert r.summary
            assert r.severity in ("error", "warning")

    def test_bad_rule_id_rejected(self):
        with pytest.raises(ValueError, match="RPLxxx"):
            Rule("XYZ01", "bad", "error", "nope")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Rule("RPL099", "bad", "fatal", "nope")

    def test_parse_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        files, errors = discover_files([bad])
        assert files == []
        assert len(errors) == 1
        assert "SyntaxError" in errors[0][1]

    def test_run_lint_end_to_end(self, tmp_path):
        p = tmp_path / "mod.py"
        p.write_text("def cache_key(a):\n    import os\n    return os.getenv('X')\n")
        result = run_lint([p])
        assert not result.ok
        assert rule_ids(result) == ["RPL030"]


class TestSelfHosted:
    """The repo lints itself clean; inline suppressions are the only
    exemptions and every one of them says why."""

    def test_src_repro_is_clean(self):
        repo = Path(__file__).resolve().parents[1]
        result = run_lint(
            [repo / "src" / "repro"], src_roots=[repo / "src"]
        )
        assert result.parse_errors == []
        assert result.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}"
            for f in result.findings
        )
