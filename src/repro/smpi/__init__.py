"""Simulated MPI library: communicator, collectives, default heuristics,
and tuning-table machinery."""

from .collectives import (
    ALL_COLLECTIVES,
    ALLGATHER,
    ALLREDUCE,
    ALLTOALL,
    BCAST,
    COLLECTIVES,
    algorithm_names,
    algorithms,
    execute,
    get_algorithm,
)
from .comm import Communicator
from .heuristics import (
    AlgorithmSelector,
    FixedSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
    RandomSelector,
)
from .tuning import (
    OracleSelector,
    TableSelector,
    TuningTable,
    clear_measurement_cache,
    measured_time,
)

__all__ = [
    "ALL_COLLECTIVES",
    "ALLGATHER",
    "ALLREDUCE",
    "ALLTOALL",
    "BCAST",
    "COLLECTIVES",
    "AlgorithmSelector",
    "Communicator",
    "FixedSelector",
    "MvapichDefaultSelector",
    "OpenMpiDefaultSelector",
    "OracleSelector",
    "RandomSelector",
    "TableSelector",
    "TuningTable",
    "algorithm_names",
    "algorithms",
    "clear_measurement_cache",
    "execute",
    "get_algorithm",
    "measured_time",
]
