"""Job descriptions: input splits, task cost model, job configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class InputSplit:
    """One map task's input: a span of an HDFS file plus its locations."""

    path: str
    offset: int
    length: int
    locations: List[str] = field(default_factory=list)


@dataclass
class TaskModel:
    """Per-byte application costs of one job's tasks [calibrated].

    The RPC-design deltas must come from the communication mechanisms;
    these constants only set the job's overall scale.
    """

    #: map function CPU per input byte
    map_cpu_per_byte: float = 0.15
    #: map output bytes per input byte (1.0 for Sort's identity map)
    map_output_ratio: float = 1.0
    #: sort/spill CPU per map-output byte
    sort_cpu_per_byte: float = 0.05
    #: bytes written straight to HDFS per input byte (map-only jobs)
    map_hdfs_write_ratio: float = 0.0
    #: shuffle merge CPU per byte fetched
    merge_cpu_per_byte: float = 0.04
    #: reduce function CPU per shuffled byte
    reduce_cpu_per_byte: float = 0.08
    #: HDFS output bytes per reduce-input byte
    reduce_output_ratio: float = 1.0
    #: synthetic map input: bytes generated rather than read from HDFS
    #: (RandomWriter); when False, maps read their splits from HDFS.
    synthetic_input: bool = False


@dataclass
class JobConf:
    """Everything the JobTracker needs to run one job."""

    name: str
    splits: List[InputSplit]
    num_reduces: int
    model: TaskModel = field(default_factory=TaskModel)
    output_path: str = "/out"
    output_replication: int = 3
    job_id: str = ""  # empty: numbered by the cluster it is submitted to

    def __post_init__(self) -> None:
        if not self.splits:
            raise ValueError(f"{self.name}: a job needs at least one split")
        if self.num_reduces < 0:
            raise ValueError(f"{self.name}: negative reduce count")

    @property
    def num_maps(self) -> int:
        return len(self.splits)


@dataclass
class JobResult:
    """Outcome of one job run, as the experiment harness consumes it."""

    job_id: str
    name: str
    submitted_at_us: float
    finished_at_us: float
    maps: int
    reduces: int

    @property
    def elapsed_us(self) -> float:
        return self.finished_at_us - self.submitted_at_us

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6
