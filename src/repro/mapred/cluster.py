"""MapReduceCluster: JobTracker + TaskTrackers wired over a fabric,
usually co-located with an :class:`~repro.hdfs.cluster.HdfsCluster`
(TaskTracker and DataNode share each slave node and its spindle, as in
the paper's testbed)."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.calibration import NetworkSpec
from repro.config import Configuration
from repro.hdfs.cluster import HdfsCluster
from repro.io.writables import Text
from repro.mapred.job import JobConf, JobResult
from repro.mapred.jobtracker import JobTracker
from repro.mapred.protocol import JobSubmissionProtocol
from repro.mapred.tasktracker import TaskTracker
from repro.net.fabric import Fabric, Node
from repro.rpc.engine import RPC
from repro.rpc.metrics import RpcMetrics
from repro.simcore.rng import Random, named_stream

#: job-client completion polling period
JOB_POLL_US = 1_000_000.0


class MapReduceCluster:
    """One MapReduce deployment (1 master + N slaves)."""

    def __init__(
        self,
        fabric: Fabric,
        master_node: Node,
        slave_nodes: List[Node],
        rpc_spec: NetworkSpec,
        hdfs: Optional[HdfsCluster] = None,
        conf: Optional[Configuration] = None,
        data_spec: Optional[NetworkSpec] = None,
        rng: Optional[Random] = None,
        metrics: Optional[RpcMetrics] = None,
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.conf = conf or Configuration()
        self.rpc_spec = rpc_spec
        #: shuffle/HTTP data plane network (sockets in this paper)
        self.data_spec = data_spec or rpc_spec
        self.hdfs = hdfs
        self.metrics = metrics or RpcMetrics()
        rng = rng or named_stream("mapred-cluster")
        self._rng = rng
        self.job_confs: Dict[str, JobConf] = {}
        self._job_ids = itertools.count(1)
        self.jobtracker = JobTracker(
            fabric,
            master_node,
            conf=self.conf,
            spec=rpc_spec,
            metrics=self.metrics,
            rng=Random(rng.getrandbits(32)),
        )
        self.trackers: Dict[str, TaskTracker] = {}
        for node in slave_nodes:
            self.trackers[node.name] = TaskTracker(
                fabric,
                node,
                self.jobtracker,
                cluster=self,
                conf=self.conf,
                spec=rpc_spec,
                metrics=self.metrics,
                rng=Random(rng.getrandbits(32)),
            )
        self._dfs_clients: Dict[str, object] = {}
        self._umbilical_clients: Dict[str, object] = {}
        self._submit_client = RPC.get_client(
            fabric, master_node, rpc_spec, conf=self.conf, metrics=self.metrics,
            name="job-client",
        )
        self._submit_proxy = RPC.get_proxy(
            JobSubmissionProtocol, self.jobtracker.address, self._submit_client
        )

    # ------------------------------------------------------------------
    # registries used by tasks/trackers
    # ------------------------------------------------------------------
    def tracker_on(self, name: str) -> TaskTracker:
        return self.trackers[name]

    def datanode_on(self, name: str):
        if self.hdfs is None:
            return None
        return self.hdfs.datanodes.get(name)

    def job_conf(self, job_id: str) -> JobConf:
        return self.job_confs[job_id]

    def dfs_client(self, node: Node):
        """The shared DFSClient of ``node`` (one per task JVM would be
        closer to reality but multiplexes identically)."""
        if self.hdfs is None:
            raise RuntimeError("this MapReduce cluster has no HDFS attached")
        if node.name not in self._dfs_clients:
            self._dfs_clients[node.name] = self.hdfs.client(node)
        return self._dfs_clients[node.name]

    def umbilical_client(self, node: Node):
        """The per-node RPC client used by child tasks for the umbilical."""
        if node.name not in self._umbilical_clients:
            self._umbilical_clients[node.name] = RPC.get_client(
                self.fabric, node, self.rpc_spec, conf=self.conf,
                metrics=self.metrics, name=f"umbilical@{node.name}",
            )
        return self._umbilical_clients[node.name]

    # ------------------------------------------------------------------
    # job submission
    # ------------------------------------------------------------------
    def submit_job(self, conf: JobConf):
        """Process: submit ``conf`` and wait for completion -> JobResult."""
        if not conf.job_id:
            conf.job_id = f"job_{next(self._job_ids):04d}"
        self.job_confs[conf.job_id] = conf
        self.jobtracker.stage_job(conf)
        return self.env.process(self._run_job(conf), name=f"job:{conf.job_id}")

    def _run_job(self, conf: JobConf):
        submitted = self.env.now
        yield self._submit_proxy.submitJob(Text(conf.job_id))
        while True:
            status = yield self._submit_proxy.getJobStatus(Text(conf.job_id))
            if status.state == "SUCCEEDED":
                break
            yield self.env.timeout(JOB_POLL_US)
        return JobResult(
            job_id=conf.job_id,
            name=conf.name,
            submitted_at_us=submitted,
            finished_at_us=self.env.now,
            maps=conf.num_maps,
            reduces=conf.num_reduces,
        )
