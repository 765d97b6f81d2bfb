"""The flow- and alias-aware lock-discipline checker (L1/L2)."""

from __future__ import annotations

import textwrap

from repro.analysis.locksets import check_lock_discipline
from repro.analysis.locksets import LintSuppression


def _check(tmp_path, source):
    module = tmp_path / "mod.py"
    module.write_text(textwrap.dedent(source))
    return check_lock_discipline(modules=[str(module)])


def test_clean_class_discipline(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def get(self, key):
                with self._lock:
                    return self._data.get(key)
        """)
    assert findings == []


def test_unlocked_read_is_flagged(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def size(self):
                return len(self._data)
        """)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.name == "self._data"
    assert finding.lock == "self._lock"
    assert finding.function == "size"
    assert finding.kind == "read"
    assert "size" in finding.message


def test_unlocked_mutation_is_flagged(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def race(self):
                self.count += 1
        """)
    assert [f.function for f in findings] == ["race"]
    assert findings[0].kind == "write"


def test_init_and_fresh_containers_are_exempt(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}
                self._data["seed"] = 1  # pre-publication: fine

            def reset(self):
                with self._lock:
                    self._data.clear()

            def add(self, k, v):
                with self._lock:
                    self._data[k] = v
        """)
    assert findings == []


def test_unguarded_structures_are_ignored(tmp_path):
    """Attributes never mutated under the lock have no guard to violate."""
    findings = _check(tmp_path, """
        import threading

        class Half:
            def __init__(self):
                self._lock = threading.Lock()
                self._config = {}
                self._data = {}

            def add(self, k, v):
                with self._lock:
                    self._data[k] = v

            def option(self, k):
                return self._config.get(k)

            def peek(self, k):
                with self._lock:
                    return self._data.get(k)
        """)
    assert findings == []


def test_function_local_lock_with_closure(tmp_path):
    findings = _check(tmp_path, """
        import threading

        def driver(jobs):
            results = {}
            lock = threading.Lock()

            def worker(job):
                with lock:
                    results[job] = run(job)

            for job in jobs:
                worker(job)
            return list(results.values())
        """)
    assert len(findings) == 1
    assert findings[0].name == "results"
    assert findings[0].lock == "lock"


def test_mutating_method_establishes_guard(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Log:
            def __init__(self):
                self._lock = threading.Lock()
                self._lines = []

            def add(self, line):
                with self._lock:
                    self._lines.append(line)

            def dump(self):
                return list(self._lines)
        """)
    assert [f.function for f in findings] == ["dump"]


def test_repo_modules_are_clean():
    """The pipeline's shared structures keep the lock discipline —
    including the shard-pool supervisor and the shared-memory store."""
    assert check_lock_discipline() == []


# -- flow: acquire()/release() ------------------------------------------------

def test_acquire_release_flow_counts_as_held(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def flush(self):
                self._lock.acquire()
                self._data.clear()
                self._lock.release()
                return None
        """)
    assert findings == []


def test_access_after_release_is_flagged(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def flush(self):
                self._lock.acquire()
                self._data.clear()
                self._lock.release()
                return len(self._data)
        """)
    assert [f.code for f in findings] == ["L1"]
    assert findings[0].function == "flush"


# -- L2: aliases and helpers --------------------------------------------------

def test_alias_access_without_lock_is_l2(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def drain(self):
                view = self._data
                return view.pop("k")
        """)
    codes = {(f.code, f.name) for f in findings}
    assert ("L2", "self._data") in codes
    alias = next(f for f in findings if f.code == "L2")
    assert "alias 'view'" in alias.message
    assert alias.lock == "self._lock"


def test_copy_does_not_alias(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def snapshot(self):
                with self._lock:
                    copy = dict(self._data)
                return copy.keys()
        """)
    assert findings == []


def test_helper_covered_by_all_call_sites_is_clean(tmp_path):
    """A private helper whose every caller holds the lock does not
    need to retake it — the flow-aware relaxation of the lexical rule."""
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                    self._evict()

            def purge(self):
                with self._lock:
                    self._evict()

            def _evict(self):
                while len(self._data) > 8:
                    self._data.popitem()
        """)
    assert findings == []


def test_helper_reached_without_lock_is_l2(tmp_path):
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                    self._evict()

            def racy(self):
                self._evict()

            def _evict(self):
                while len(self._data) > 8:
                    self._data.popitem()
        """)
    assert findings and all(f.code == "L2" for f in findings)
    assert {f.function for f in findings} == {"_evict"}
    assert "helper" in findings[0].message


def test_lock_context_propagates_through_helper_chains(tmp_path):
    """Entry contexts reach a fixpoint through helper-to-helper calls."""
    findings = _check(tmp_path, """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                    self._trim()

            def _trim(self):
                self._drop_one()

            def _drop_one(self):
                self._data.popitem()
        """)
    assert findings == []


# -- suppressions -------------------------------------------------------------

def test_vetted_suppression_drops_the_finding(tmp_path):
    source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                with self._lock:
                    self._data[key] = value

            def size(self):
                return len(self._data)
        """
    module = tmp_path / "mod.py"
    module.write_text(textwrap.dedent(source))
    flagged = check_lock_discipline(modules=[str(module)])
    assert len(flagged) == 1
    silenced = check_lock_discipline(
        modules=[str(module)],
        suppressions=(LintSuppression(file="mod.py", name="self._data",
                                      function="size", code="L1",
                                      reason="test"),))
    assert silenced == []
