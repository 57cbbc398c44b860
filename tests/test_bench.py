import pytest

from svdlora.bench import BenchSuite
from svdlora.data import TaskSpec
from svdlora.errors import ParameterError


def test_repeated_task_seed_rejected():
    with pytest.raises(ParameterError, match="distinct"):
        BenchSuite(cross_tasks=(TaskSpec(task_seed=3, num_classes=2),),
                   held_out_tasks=(TaskSpec(task_seed=3, num_classes=3),))


@pytest.mark.parametrize("seeds", [0, -1])
def test_seeds_per_cell_below_one_rejected(seeds):
    with pytest.raises(ParameterError, match="seeds_per_cell"):
        BenchSuite(seeds_per_cell=seeds)
