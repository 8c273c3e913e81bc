"""Child tasks: map and reduce attempt execution models.

A :class:`ChildTask` is a child JVM on the TaskTracker's node.  It pays
the JVM startup cost, fetches its work over the umbilical (``getTask``),
runs the task phases against the node's CPU/disk/fabric resources, and
reports through the umbilical exactly like a 0.20.2 task: periodic
``statusUpdate``/``ping``, then ``commitPending``/``canCommit``/``done``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.io.writables import IntWritable, Text
from repro.mapred.protocol import (
    CountersWritable,
    TaskStatusWritable,
    TaskUmbilicalProtocol,
    TaskWritable,
)
from repro.net.sockets import SYSCALL_CHUNK
from repro.rpc.engine import RPC
from repro.simcore import Interrupt

#: reducer event-poll period (0.20.2 MapCompletionEventsFetcher)
SHUFFLE_POLL_US = 1_000_000.0
#: shuffle HTTP connection overhead per fetch batch
HTTP_FETCH_OVERHEAD_US = 400.0


class ChildTask:
    """One task attempt running in a child JVM on the tracker's node."""

    def __init__(self, tracker, jvm_id: str, task: TaskWritable):
        self.tracker = tracker
        self.env = tracker.env
        self.node = tracker.node
        self.jvm_id = jvm_id
        self.task = task
        self.model = tracker.fabric.model
        job_id = task.task_id.rsplit("_", 2)[0]
        self.job_conf = tracker.cluster.job_conf(job_id)
        self.job_id = job_id
        self.umbilical = RPC.get_proxy(
            TaskUmbilicalProtocol,
            tracker.umbilical_server.address,
            tracker.cluster.umbilical_client(tracker.node),
        )
        self.progress = 0.0
        self.phase = "MAP" if task.is_map else "SHUFFLE"
        self.bytes_processed = 0
        self._reporter = None

    # ------------------------------------------------------------------
    def run(self):
        yield self.env.timeout(self.model.compute.task_startup_us)
        task = yield self.umbilical.getTask(Text(self.jvm_id))
        self._reporter = self.env.process(
            self._report_loop(), name=f"reporter:{task.task_id}"
        )
        try:
            if task.is_map:
                yield from self._run_map(task)
            else:
                yield from self._run_reduce(task)
        finally:
            if self._reporter.is_alive:
                self._reporter.interrupt("task finished")
        yield self.umbilical.statusUpdate(Text(task.task_id), self._status("RUNNING"))
        yield self.umbilical.done(Text(task.task_id))

    def _status(self, state: str) -> TaskStatusWritable:
        counters = CountersWritable.standard(self.bytes_processed)
        return TaskStatusWritable(
            self.task.task_id, self.progress, state, self.phase, "", counters
        )

    def _report_loop(self):
        """Periodic umbilical traffic: statusUpdate / ping, every 3 s."""
        interval = self.tracker.conf.get_float("mapred.task.ping.interval")
        tick = 0
        try:
            while True:
                yield self.env.timeout(interval)
                tick += 1
                if tick % 2:
                    yield self.umbilical.statusUpdate(
                        Text(self.task.task_id), self._status("RUNNING")
                    )
                else:
                    yield self.umbilical.ping(Text(self.task.task_id))
        except Interrupt:
            pass

    def _compute(self, cpu_us: float):
        """Burn CPU while holding one of the node's cores."""
        if cpu_us <= 0:
            return
        with self.node.cpu.request() as core:
            yield core
            yield self.env.timeout(cpu_us)

    def _local_disk_write(self, nbytes: int):
        disk = self.model.disk
        with self.tracker.local_disk.request() as grant:
            yield grant
            yield self.env.timeout(disk.write_us(nbytes))

    # ------------------------------------------------------------------
    # map side
    # ------------------------------------------------------------------
    def _run_map(self, task: TaskWritable):
        model = self.job_conf.model
        length = task.split_length
        self.phase = "MAP"
        if not model.synthetic_input:
            dfs = self.tracker.cluster.dfs_client(self.node)
            yield dfs.read_span(task.split_path, task.split_offset, length)
        self.progress = 0.33
        yield from self._compute(length * model.map_cpu_per_byte)
        self.bytes_processed = length
        output = int(length * model.map_output_ratio)
        if output > 0:
            self.phase = "SORT"
            self.progress = 0.67
            yield from self._compute(output * model.sort_cpu_per_byte)
            yield from self._local_disk_write(output)
            self.tracker.register_map_output(task.task_id, output)
        if model.map_hdfs_write_ratio > 0:
            hdfs_bytes = int(length * model.map_hdfs_write_ratio)
            dfs = self.tracker.cluster.dfs_client(self.node)
            yield dfs.write_file(
                f"{self.job_conf.output_path}/part-m-{task.partition:05d}",
                hdfs_bytes,
                replication=self.job_conf.output_replication,
            )
        self.progress = 1.0

    # ------------------------------------------------------------------
    # reduce side
    # ------------------------------------------------------------------
    def _run_reduce(self, task: TaskWritable):
        model = self.job_conf.model
        num_maps = self.job_conf.num_maps
        num_reduces = max(1, self.job_conf.num_reduces)
        self.phase = "SHUFFLE"
        fetched_events = 0
        total_fetched = 0
        while fetched_events < num_maps:
            events = yield self.umbilical.getMapCompletionEvents(
                Text(self.job_id), IntWritable(fetched_events), IntWritable(10000)
            )
            fresh = events.events
            if not fresh:
                yield self.env.timeout(SHUFFLE_POLL_US)
                continue
            fetched_events += len(fresh)
            by_host: Dict[str, int] = defaultdict(int)
            for event in fresh:
                by_host[event.host] += max(
                    1, event.output_bytes // num_reduces
                )
            for host, nbytes in by_host.items():
                yield from self._fetch_segment(host, nbytes)
                total_fetched += nbytes
                yield from self._compute(nbytes * model.merge_cpu_per_byte)
            self.progress = 0.33 * (fetched_events / num_maps)
        self.phase = "REDUCE"
        self.bytes_processed = total_fetched
        yield from self._compute(total_fetched * model.reduce_cpu_per_byte)
        self.progress = 0.9
        output = int(total_fetched * model.reduce_output_ratio)
        if output > 0:
            dfs = self.tracker.cluster.dfs_client(self.node)
            path = f"{self.job_conf.output_path}/part-r-{task.partition:05d}"
            yield dfs.write_file(
                path, output, replication=self.job_conf.output_replication
            )
            # output-committer existence check (the NN getFileInfo
            # traffic Fig. 3 traces)
            yield dfs.get_file_info(path)
        # commit protocol: commitPending -> canCommit -> (done in run())
        yield self.umbilical.commitPending(
            Text(task.task_id), self._status("COMMIT_PENDING")
        )
        approved = yield self.umbilical.canCommit(Text(task.task_id))
        if not approved.value:
            raise RuntimeError(f"{task.task_id}: commit denied")
        self.progress = 1.0

    def _fetch_segment(self, host: str, nbytes: int):
        """Shuffle one batch of segments from ``host`` over HTTP."""
        source = self.tracker.cluster.tracker_on(host)
        fabric = self.tracker.fabric
        spec = self.tracker.cluster.data_spec
        sw = self.model.software
        # server side: read segments from the map-output spindle
        yield self.env.process(source_disk_read(source, nbytes))
        # HTTP transfer: connection + syscalls + copies on both sides
        syscalls = max(1, nbytes // SYSCALL_CHUNK)
        cost = (
            HTTP_FETCH_OVERHEAD_US
            + syscalls * sw.socket_syscall_us
            + 2 * self.model.memory.copy_us(nbytes)
            + nbytes * spec.cpu_per_byte_us
        )
        yield self.env.timeout(cost)
        if source.node is not self.node:
            yield fabric.transfer(source.node, self.node, nbytes, spec)


def source_disk_read(source_tracker, nbytes: int):
    """Read map-output bytes off the source tracker's spindle."""
    disk = source_tracker.fabric.model.disk
    with source_tracker.local_disk.request() as grant:
        yield grant
        yield source_tracker.env.timeout(disk.read_us(nbytes))
