import functools
from collections import Counter

import pytest

from svdlora import bench, train
from svdlora.bench import BenchSuite
from svdlora.data import TaskSpec, generate_task
from svdlora.errors import ParameterError


def test_repeated_task_seed_rejected():
    with pytest.raises(ParameterError, match="distinct"):
        BenchSuite(cross_tasks=(TaskSpec(task_seed=3, num_classes=2),),
                   held_out_tasks=(TaskSpec(task_seed=3, num_classes=3),))


@pytest.mark.parametrize("seeds", [0, -1])
def test_seeds_per_cell_below_one_rejected(seeds):
    with pytest.raises(ParameterError, match="seeds_per_cell"):
        BenchSuite(seeds_per_cell=seeds)


def test_each_task_generated_once(tmp_path, monkeypatch):
    # 11 trainings and 4 merged-model evaluations over 5 tasks
    calls = Counter()

    def counted(spec):
        calls[spec.label] += 1
        return generate_task(spec)

    monkeypatch.setattr(bench, "generate_task", counted)
    monkeypatch.setattr(train, "generate_task", counted)
    monkeypatch.setattr(bench, "TrainConfig", functools.partial(train.TrainConfig, epochs=2))

    def tiny(*seeds):
        return tuple(TaskSpec(s, n_train=16, n_val=8, n_test=8) for s in seeds)
    suite = BenchSuite(cross_tasks=tiny(1, 2), in_domain_tasks=tiny(3, 4),
                       held_out_tasks=tiny(5), seeds_per_cell=1)
    bench.run_bench(tmp_path, suite)
    assert calls == Counter({f"task{s}": 1 for s in range(1, 6)})
