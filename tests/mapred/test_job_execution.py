"""End-to-end MapReduce job behaviour."""

import pytest

from repro.mapred.job import InputSplit, JobConf, TaskModel
from repro.units import MB
from tests.mapred.conftest import MrHarness


def test_sort_like_job_completes(mr_harness):
    def scenario(env):
        splits = yield from mr_harness.write_input(4, 64 * MB)
        job = JobConf("sortish", splits, num_reduces=4, output_path="/out")
        result = yield mr_harness.mr.submit_job(job)
        return result

    result = mr_harness.run(scenario)
    assert result.maps == 4
    assert result.reduces == 4
    assert result.elapsed_s > 1.0


def test_output_written_to_hdfs(mr_harness):
    def scenario(env):
        splits = yield from mr_harness.write_input(2, 64 * MB)
        job = JobConf("withoutput", splits, num_reduces=2, output_path="/sorted")
        yield mr_harness.mr.submit_job(job)
        infos = []
        reader = mr_harness.hdfs.client(mr_harness.slaves[1])
        for i in range(2):
            infos.append((yield reader.get_file_info(f"/sorted/part-r-{i:05d}")))
        return infos

    infos = mr_harness.run(scenario)
    # identity map + even partitioning: each reducer writes ~64MB
    assert sum(info.length for info in infos) == 128 * MB


def test_map_only_job(mr_harness):
    def scenario(env):
        splits = [InputSplit(f"synthetic-{i}", 0, 32 * MB) for i in range(4)]
        model = TaskModel(
            synthetic_input=True,
            map_output_ratio=0.0,
            map_hdfs_write_ratio=1.0,
        )
        job = JobConf("writer", splits, num_reduces=0, model=model, output_path="/rw")
        result = yield mr_harness.mr.submit_job(job)
        reader = mr_harness.hdfs.client(mr_harness.slaves[0])
        info = yield reader.get_file_info("/rw/part-m-00000")
        return result, info

    result, info = mr_harness.run(scenario)
    assert result.reduces == 0
    assert info.length == 32 * MB


def test_data_local_scheduling_preferred(mr_harness):
    def scenario(env):
        splits = yield from mr_harness.write_input(4, 64 * MB)
        job = JobConf("local", splits, num_reduces=1, output_path="/o1")
        yield mr_harness.mr.submit_job(job)
        return splits

    splits = mr_harness.run(scenario)
    jt = mr_harness.mr.jobtracker
    job = next(iter(jt.jobs.values()))
    local = sum(
        1 for tip in job.maps if tip.tracker in (tip.split.locations or [])
    )
    # The first heartbeating tracker grabs every pending map (the 0.20.2
    # scheduler fills all free slots, falling back to non-local), so we
    # only assert the preference: local splits are assigned locally
    # whenever the grabbing tracker holds a replica.
    assert local >= 1


def test_completion_events_flow_to_reducers(mr_harness):
    def scenario(env):
        splits = yield from mr_harness.write_input(3, 64 * MB)
        job = JobConf("events", splits, num_reduces=2, output_path="/o2")
        yield mr_harness.mr.submit_job(job)

    mr_harness.run(scenario)
    jt = mr_harness.mr.jobtracker
    job = next(iter(jt.jobs.values()))
    assert len(job.events) == 3  # one completion event per map
    assert all(e.output_bytes > 0 for e in job.events)


def test_umbilical_call_mix_matches_table1(mr_harness):
    """The Table I protocols/methods all appear in a job's metrics."""

    def scenario(env):
        splits = yield from mr_harness.write_input(2, 64 * MB)
        job = JobConf("mix", splits, num_reduces=2, output_path="/o3")
        yield mr_harness.mr.submit_job(job)

    mr_harness.run(scenario)
    kinds = {
        (k.protocol, k.method) for k in mr_harness.mr.metrics.kinds()
    }
    for method in ("getTask", "statusUpdate", "done"):
        assert ("mapred.TaskUmbilicalProtocol", method) in kinds
    assert ("mapred.InterTrackerProtocol", "heartbeat") in kinds
    hdfs_kinds = {
        (k.protocol, k.method) for k in mr_harness.hdfs.metrics.kinds()
    }
    for method in ("create", "addBlock", "complete", "getBlockLocations"):
        assert ("hdfs.ClientProtocol", method) in hdfs_kinds


def test_slots_never_oversubscribed(mr_harness):
    def scenario(env):
        splits = yield from mr_harness.write_input(6, 64 * MB)
        job = JobConf("slots", splits, num_reduces=4, output_path="/o4")
        yield mr_harness.mr.submit_job(job)

    mr_harness.run(scenario)
    for tracker in mr_harness.mr.trackers.values():
        assert tracker._running_maps == 0
        assert tracker._running_reduces == 0


def test_reduce_slowstart_gates_reduces(mr_harness):
    jt = mr_harness.mr.jobtracker

    def scenario(env):
        splits = yield from mr_harness.write_input(4, 64 * MB)
        job = JobConf("slow", splits, num_reduces=2, output_path="/o5")
        yield mr_harness.mr.submit_job(job)

    mr_harness.run(scenario)
    job = next(iter(jt.jobs.values()))
    assert job.state == "SUCCEEDED"
    assert job.reduces_allowed


def test_job_conf_validation():
    with pytest.raises(ValueError):
        JobConf("empty", [], num_reduces=1)
    with pytest.raises(ValueError):
        JobConf("neg", [InputSplit("x", 0, 1)], num_reduces=-1)


def _run_tiny_jobs(harness, names):
    """Submit one map-only synthetic job per name; return their results."""

    def scenario(env):
        results = []
        for name in names:
            model = TaskModel(synthetic_input=True, map_output_ratio=0.0)
            job = JobConf(name, [InputSplit("synthetic", 0, MB)], num_reduces=0, model=model)
            results.append((yield harness.mr.submit_job(job)))
        return results

    return harness.run(scenario)


def test_job_ids_unique(mr_harness):
    """Two jobs on one cluster get different ids, numbered at submission."""
    a, b = _run_tiny_jobs(mr_harness, ["a", "b"])
    assert (a.job_id, b.job_id) == ("job_0001", "job_0002")


def test_fresh_cluster_numbers_jobs_from_one(mr_harness):
    """A job's id (and with it every message that carries it) does not
    depend on how many jobs the process ran before."""
    _run_tiny_jobs(mr_harness, ["earlier"])
    (fresh,) = _run_tiny_jobs(MrHarness(), ["fresh"])
    assert fresh.job_id == "job_0001"
