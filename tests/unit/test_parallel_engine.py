"""Unit tests for the parallel sweep engine: task specs, seed sharding,
ordered merge and failure capture."""

import pickle

import pytest

from repro.parallel import TaskSpec, TaskResult, derive_seed, resolve_jobs, run_tasks


class TestTaskSpec:
    def test_pickle_round_trip(self):
        spec = TaskSpec("repro.parallel.runners.torture_run",
                        dict(seed=7, index=3, scenarios="all"),
                        label="torture:7:3")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.runner == spec.runner
        assert clone.kwargs == {"seed": 7, "index": 3, "scenarios": "all"}

    def test_resolve_returns_the_function(self):
        from repro.parallel.engine import derive_seed as target

        spec = TaskSpec("repro.parallel.engine.derive_seed")
        assert spec.resolve() is target

    def test_resolve_rejects_bare_names(self):
        with pytest.raises(ValueError):
            TaskSpec("not_dotted").resolve()

    def test_resolve_rejects_missing_attribute(self):
        with pytest.raises(LookupError):
            TaskSpec("repro.parallel.engine.no_such_runner").resolve()

    def test_resolve_rejects_non_callable(self):
        with pytest.raises(TypeError):
            TaskSpec("repro.parallel.engine.__doc__").resolve()


class TestDeriveSeed:
    def test_deterministic_and_pythonhashseed_independent(self):
        # sha256-derived: the exact value is part of the contract (changing
        # it silently re-seeds every sharded sweep).
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) == 0xA8AFB18B8B720CEA
        assert derive_seed(11, 0, stream="torture") == 7114904511635780322

    def test_index_and_stream_decorrelate(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 0, stream="a") != derive_seed(7, 0, stream="b")

    def test_jobs_resolution(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestRunTasks:
    def test_single_process_ordered_results(self):
        specs = [TaskSpec("repro.parallel.engine.derive_seed",
                          dict(base_seed=7, index=i), label=f"t{i}")
                 for i in range(5)]
        results = run_tasks(specs, jobs=1)
        assert [r.index for r in results] == [0, 1, 2, 3, 4]
        assert [r.label for r in results] == [f"t{i}" for i in range(5)]
        assert all(isinstance(r, TaskResult) and r.ok for r in results)
        assert [r.value for r in results] == [derive_seed(7, i) for i in range(5)]

    def test_failure_captured_not_raised(self):
        specs = [
            TaskSpec("repro.parallel.engine.derive_seed", dict(base_seed=7, index=0)),
            TaskSpec("repro.parallel.engine.derive_seed",
                     dict(base_seed=7, index=1, bogus=True)),  # TypeError
            TaskSpec("repro.parallel.engine.derive_seed", dict(base_seed=7, index=2)),
        ]
        results = run_tasks(specs, jobs=1)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_type == "TypeError"
        assert "Traceback" in results[1].error
        # The crash did not cost the neighbours their results.
        assert results[2].value == derive_seed(7, 2)

    def test_on_result_sees_every_task(self):
        seen = []
        specs = [TaskSpec("repro.parallel.engine.derive_seed",
                          dict(base_seed=1, index=i)) for i in range(3)]
        run_tasks(specs, jobs=1, on_result=seen.append)
        assert sorted(r.index for r in seen) == [0, 1, 2]

    def test_empty_spec_list(self):
        assert run_tasks([], jobs=4) == []
