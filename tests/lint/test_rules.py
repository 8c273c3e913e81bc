"""Per-rule tests: every SIM rule fires on its fixture and variants."""

from pathlib import Path

import pytest

from repro.config import Configuration
from repro.lint import lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def rules_of(findings):
    return [f.rule for f in findings]


# -- fixture files: one known violation per rule ---------------------------


def test_sim001_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim001_wallclock.py")
    assert rules_of(findings) == ["SIM001"]
    assert "time.time" in findings[0].message


def test_sim002_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim002_random.py")
    assert rules_of(findings) == ["SIM002"]
    assert "random.uniform" in findings[0].message


def test_sim003_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim003_leak.py", in_src=True)
    assert rules_of(findings) == ["SIM003"]
    assert "never released" in findings[0].message


def test_sim004_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim004_time.py")
    assert rules_of(findings) == ["SIM004"]
    assert "past" in findings[0].message


def test_sim005_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim005_process.py")
    assert rules_of(findings) == ["SIM005"]
    assert "handle" in findings[0].message


def test_sim006_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim006_charge.py", in_src=True)
    assert rules_of(findings) == ["SIM006"]
    assert "12.5" in findings[0].message


def test_clean_fixture_is_clean_even_in_src():
    assert lint_file(FIXTURES / "clean.py", in_src=True) == []


# -- SIM001 variants -------------------------------------------------------


def test_sim001_resolves_aliased_imports():
    src = "from time import perf_counter as pc\n\ndef f():\n    return pc()\n"
    assert rules_of(lint_source(src, "mod.py")) == ["SIM001"]


def test_sim001_allows_the_experiments_runner():
    src = "import time\n\ndef f():\n    return time.time()\n"
    path = "/x/src/repro/experiments/runner.py"
    assert lint_source(src, path, in_src=True) == []


def test_sim001_ignores_unrelated_time_attr():
    src = "def f(msg):\n    return msg.time()\n"
    assert lint_source(src, "mod.py") == []


def test_sim001_covers_the_obs_snapshot_and_dashboard_modules():
    """The live-observability modules are in SIM001 scope, not
    allowlisted like the experiments runner: the fixtures share the
    real modules' path suffixes and must still fire."""
    findings = lint_file(FIXTURES / "repro" / "obs" / "snapshot.py")
    assert rules_of(findings) == ["SIM001"]
    assert "time.monotonic" in findings[0].message
    findings = lint_file(FIXTURES / "repro" / "obs" / "dashboard.py")
    assert rules_of(findings) == ["SIM001"]
    assert "datetime.datetime.now" in findings[0].message
    # and with the exact in-tree paths, wall-clock reads still fire
    src = "import time\n\ndef f():\n    return time.time()\n"
    for module in ("snapshot", "dashboard"):
        path = f"/x/src/repro/obs/{module}.py"
        assert rules_of(lint_source(src, path, in_src=True)) == ["SIM001"]


def test_sim001_real_obs_modules_are_clean():
    src_root = Path(__file__).parents[2] / "src"
    for module in ("snapshot", "dashboard"):
        path = src_root / "repro" / "obs" / f"{module}.py"
        assert lint_file(path, in_src=True) == [], f"{path} has findings"


# -- SIM002 variants -------------------------------------------------------


def test_sim002_import_flagged_only_in_src():
    src = "import random\n"
    assert rules_of(lint_source(src, "mod.py", in_src=True)) == ["SIM002"]
    assert lint_source(src, "mod.py", in_src=False) == []


def test_sim002_hash_seeded_random():
    src = "import random\n\ndef f(name):\n    return random.Random(hash(name))\n"
    findings = lint_source(src, "mod.py", in_src=False)
    assert rules_of(findings) == ["SIM002"]
    assert "stable_seed" in findings[0].message


def test_sim002_hash_seed_inside_expression():
    src = (
        "import random\n\n"
        "def f(name):\n"
        "    return random.Random(hash(name) & 0xFFFF)\n"
    )
    assert rules_of(lint_source(src, "mod.py", in_src=False)) == ["SIM002"]


def test_sim002_unseeded_random():
    src = "import random\n\ndef f():\n    return random.Random()\n"
    findings = lint_source(src, "mod.py", in_src=False)
    assert rules_of(findings) == ["SIM002"]
    assert "OS entropy" in findings[0].message


def test_sim002_numpy_global_draw():
    src = "import numpy\n\ndef f():\n    return numpy.random.rand(3)\n"
    assert rules_of(lint_source(src, "mod.py", in_src=False)) == ["SIM002"]


def test_sim002_seeded_random_instance_ok():
    src = "import random\n\ndef f():\n    return random.Random(42)\n"
    assert lint_source(src, "mod.py", in_src=False) == []


def test_sim002_instance_draws_ok():
    src = "def f(rng):\n    return rng.uniform(0, 1)\n"
    assert lint_source(src, "mod.py", in_src=True) == []


def test_sim002_rng_module_itself_exempt():
    src = "import random\n\ndef f():\n    return random.Random(1)\n"
    assert lint_source(src, "/x/src/repro/simcore/rng.py", in_src=True) == []


# -- SIM003 variants -------------------------------------------------------


def test_sim003_conditional_release_flagged():
    src = (
        "def f(pool, ledger, flag):\n"
        "    buf = pool.get(64, ledger)\n"
        "    if flag:\n"
        "        pool.put(buf, ledger)\n"
    )
    findings = lint_source(src, "mod.py", in_src=True)
    assert rules_of(findings) == ["SIM003"]
    assert "some control-flow paths" in findings[0].message


def test_sim003_raise_between_get_and_put_flagged():
    src = (
        "def f(pool, ledger, n):\n"
        "    buf = pool.get(64, ledger)\n"
        "    if n < 0:\n"
        "        raise ValueError(n)\n"
        "    pool.put(buf, ledger)\n"
    )
    findings = lint_source(src, "mod.py", in_src=True)
    assert rules_of(findings) == ["SIM003"]
    assert "exception path" in findings[0].message


def test_sim003_finally_release_ok():
    src = (
        "def f(pool, ledger, n):\n"
        "    buf = pool.get(64, ledger)\n"
        "    try:\n"
        "        if n < 0:\n"
        "            raise ValueError(n)\n"
        "    finally:\n"
        "        pool.put(buf, ledger)\n"
    )
    assert lint_source(src, "mod.py", in_src=True) == []


def test_sim003_escape_via_call_ok():
    src = (
        "def f(pool, ledger, sink):\n"
        "    buf = pool.get(64, ledger)\n"
        "    sink.push(buf)\n"
    )
    assert lint_source(src, "mod.py", in_src=True) == []


def test_sim003_not_applied_outside_src():
    src = "def f(pool, ledger):\n    buf = pool.get(64, ledger)\n"
    assert lint_source(src, "mod.py", in_src=False) == []


def test_sim003_non_pool_get_ignored():
    src = "def f(cache, ledger):\n    value = cache.get('k')\n"
    assert lint_source(src, "mod.py", in_src=True) == []


# -- SIM004 variants -------------------------------------------------------


def test_sim004_negative_schedule_delay():
    src = "def f(env, ev):\n    env.schedule(ev, delay=-2.5)\n"
    assert rules_of(lint_source(src, "mod.py")) == ["SIM004"]


def test_sim004_clock_equality_in_src_only():
    src = "def f(env):\n    return env.now == 5.0\n"
    assert rules_of(lint_source(src, "mod.py", in_src=True)) == ["SIM004"]
    assert lint_source(src, "mod.py", in_src=False) == []


def test_sim004_nonnegative_timeout_ok():
    src = "def f(env):\n    return env.timeout(0.0)\n"
    assert lint_source(src, "mod.py", in_src=True) == []


# -- SIM005 variants -------------------------------------------------------


def test_sim005_underscore_handle_ok():
    src = "def f(env, g):\n    _ = env.process(g())\n"
    assert lint_source(src, "mod.py") == []


def test_sim005_bare_generator_call():
    src = (
        "def worker(env):\n"
        "    yield env.timeout(1)\n"
        "\n"
        "def f(env):\n"
        "    worker(env)\n"
    )
    findings = lint_source(src, "mod.py")
    assert rules_of(findings) == ["SIM005"]
    assert "env.process" in findings[0].message


def test_sim005_bare_self_method_generator_call():
    src = (
        "class A:\n"
        "    def worker(self):\n"
        "        yield None\n"
        "\n"
        "    def f(self):\n"
        "        self.worker()\n"
    )
    assert rules_of(lint_source(src, "mod.py")) == ["SIM005"]


def test_sim005_wrapped_generator_ok():
    src = (
        "def worker(env):\n"
        "    yield env.timeout(1)\n"
        "\n"
        "def f(env):\n"
        "    env.process(worker(env))\n"
    )
    assert lint_source(src, "mod.py") == []


# -- SIM006 variants -------------------------------------------------------


def test_sim006_zero_charge_ok():
    src = "def f(ledger):\n    ledger.charge('noop', 0)\n"
    assert lint_source(src, "mod.py", in_src=True) == []


def test_sim006_model_derived_charge_ok():
    src = "def f(ledger, sw):\n    ledger.charge('jni', sw.jni_crossing_us)\n"
    assert lint_source(src, "mod.py", in_src=True) == []


def test_sim006_not_applied_outside_src():
    src = "def f(ledger):\n    ledger.charge('x', 3.0)\n"
    assert lint_source(src, "mod.py", in_src=False) == []


# -- SIM007 variants -------------------------------------------------------


def test_sim007_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "faults" / "sim007_ambient.py")
    assert rules_of(findings) == ["SIM007"]
    assert "named streams" in findings[0].message


def test_sim007_flags_volatile_registry_seed():
    src = (
        "from repro.simcore.rng import RngRegistry\n"
        "\n"
        "def arm(env):\n"
        "    return RngRegistry(hash(env))\n"
    )
    findings = lint_source(src, "/x/src/repro/faults/injector.py", in_src=True)
    assert rules_of(findings) == ["SIM007"]
    assert "hash()" in findings[0].message


def test_sim007_flags_stream_seeded_from_clock():
    src = (
        "def roll(self, env):\n"
        "    return self.rng.stream(env.now).random()\n"
    )
    findings = lint_source(src, "/x/src/repro/faults/injector.py", in_src=True)
    assert rules_of(findings) == ["SIM007"]
    assert "env.now" in findings[0].message


def test_sim007_allows_named_streams():
    src = (
        "def roll(self, index):\n"
        "    return self.rng.stream(f'loss.{index}').random() < 0.5\n"
    )
    assert lint_source(src, "/x/src/repro/faults/injector.py", in_src=True) == []


def test_sim007_not_applied_outside_faults():
    src = "import random\n\ndef f():\n    return random.Random(7).random()\n"
    assert lint_source(src, "repro_other.py", in_src=False) == []


def test_sim007_scheduler_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "rpc" / "scheduler.py")
    assert rules_of(findings) == ["SIM007"]
    assert "named streams" in findings[0].message


def test_sim007_allows_named_stream_in_scheduler():
    src = (
        "from repro.simcore.rng import named_stream\n"
        "\n"
        "def jitter(name, seed):\n"
        "    return named_stream(f'decay-scheduler:{name}', seed).random()\n"
    )
    assert lint_source(
        src, "/x/src/repro/rpc/scheduler.py", in_src=True
    ) == []


def test_sim007_flags_volatile_stream_seed_in_scheduler():
    src = (
        "from repro.simcore.rng import named_stream\n"
        "\n"
        "def jitter(self, env):\n"
        "    return named_stream('decay', hash(env)).random()\n"
    )
    findings = lint_source(
        src, "/x/src/repro/rpc/scheduler.py", in_src=True
    )
    assert rules_of(findings) == ["SIM007"]
    assert "hash()" in findings[0].message


def test_sim007_not_applied_to_other_rpc_modules():
    src = "import random\n\ndef f():\n    return random.Random(7).random()\n"
    assert lint_source(src, "/x/src/repro/rpc/server.py", in_src=False) == []


def test_sim007_mux_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "rpc" / "mux.py")
    assert rules_of(findings) == ["SIM007"]
    assert "named streams" in findings[0].message


def test_sim007_allows_named_stream_in_mux():
    src = (
        "from repro.simcore.rng import named_stream\n"
        "\n"
        "def flush_jitter(conn_key):\n"
        "    return 1.0 + named_stream(f'mux:{conn_key}').random() * 0.25\n"
    )
    assert lint_source(src, "/x/src/repro/rpc/mux.py", in_src=True) == []


def test_sim007_predictor_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "mem" / "predictor.py")
    assert rules_of(findings) == ["SIM007"]
    assert "named streams" in findings[0].message


def test_sim007_not_applied_to_other_mem_modules():
    src = "import random\n\ndef f():\n    return random.Random(7).random()\n"
    assert lint_source(
        src, "/x/src/repro/mem/shadow_pool.py", in_src=False
    ) == []


def test_sim007_real_predictor_module_is_clean():
    src_root = Path(__file__).parents[2] / "src"
    path = src_root / "repro" / "mem" / "predictor.py"
    assert lint_file(path, in_src=True) == [], f"{path} has findings"


def test_sim007_ha_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "ha" / "sim007_probe_jitter.py")
    assert rules_of(findings) == ["SIM007"]
    assert "named streams" in findings[0].message


def test_sim007_allows_named_stream_in_ha_controller():
    src = (
        "from repro.simcore.rng import named_stream\n"
        "\n"
        "def jitter(name, interval):\n"
        "    rng = named_stream(f'ha-controller:{name}')\n"
        "    return interval + rng.uniform(0.0, 0.05 * interval)\n"
    )
    assert lint_source(
        src, "/x/src/repro/ha/controller.py", in_src=True
    ) == []


# -- SIM008 ----------------------------------------------------------------


def test_sim008_fixture_fires():
    findings = lint_file(
        FIXTURES / "repro" / "io" / "sim008_copy.py", in_src=True
    )
    assert rules_of(findings) == ["SIM008", "SIM008"]
    assert "zero-copy" in findings[0].message


def test_sim008_flags_buffer_coercion_in_net():
    src = "def send(self, data):\n    return self.sock.push(bytes(data))\n"
    findings = lint_source(src, "/x/src/repro/net/sockets.py", in_src=True)
    assert rules_of(findings) == ["SIM008"]


def test_sim008_allows_constant_arguments():
    src = (
        "def make():\n"
        "    zeros = bytes(64)\n"
        "    magic = bytes(b'hrpc')\n"
        "    return zeros, magic\n"
    )
    assert lint_source(src, "/x/src/repro/io/framing.py", in_src=True) == []


def test_sim008_not_applied_outside_io_net():
    src = "def snap(self, data):\n    return bytes(data)\n"
    assert lint_source(src, "/x/src/repro/rpc/server.py", in_src=True) == []


def test_sim008_not_applied_to_tests():
    src = "def check(buf):\n    return bytes(buf)\n"
    assert lint_source(src, "/x/tests/io/test_output.py", in_src=False) == []


def test_sim008_suppression_comment():
    src = (
        "def send(self, data):\n"
        "    return bytes(data)  # sim-lint: disable=SIM008\n"
    )
    assert lint_source(src, "/x/src/repro/io/buffered.py", in_src=True) == []


# -- SIM009 (whole-program) -------------------------------------------------


def test_sim009_fixture_fires_once():
    findings = lint_file(FIXTURES / "sim009_race.py", in_src=True)
    assert rules_of(findings) == ["SIM009"]
    assert "Meter.inflight" in findings[0].message
    assert "Pump.drain" in findings[0].message
    assert "Pump.feed" in findings[0].message


def test_sim009_negative_fixture_is_clean():
    assert lint_file(FIXTURES / "sim009_ordered.py", in_src=True) == []


def test_sim009_single_multiply_spawned_body_fires():
    src = (
        "class Mux:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.index = 0\n"
        "    def loop(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.index = self.index + 1\n"
        "\n"
        "def build(env):\n"
        "    mux = Mux(env)\n"
        "    for _ in range(4):\n"
        "        env.process(mux.loop())\n"
    )
    findings = lint_source(src, "/x/src/repro/rpc/mux.py", in_src=True)
    assert rules_of(findings) == ["SIM009"]
    assert "multiple concurrent instances" in findings[0].message


def test_sim009_not_applied_in_simcore():
    """The DES core *implements* same-timestamp ordering — exempt."""
    src = (
        "class Mux:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.index = 0\n"
        "    def loop(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.index = self.index + 1\n"
        "\n"
        "def build(env):\n"
        "    mux = Mux(env)\n"
        "    for _ in range(4):\n"
        "        env.process(mux.loop())\n"
    )
    assert lint_source(src, "/x/src/repro/simcore/mux.py", in_src=True) == []


def test_sim009_not_applied_outside_src():
    src = (
        "class Mux:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.index = 0\n"
        "    def loop(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.index = self.index + 1\n"
        "\n"
        "def build(env):\n"
        "    mux = Mux(env)\n"
        "    for _ in range(4):\n"
        "        env.process(mux.loop())\n"
    )
    assert lint_source(src, "tests/test_mux.py", in_src=False) == []


# -- SIM010 (whole-program) -------------------------------------------------


def test_sim010_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "rpc" / "sim010_stale.py",
                         in_src=True)
    assert rules_of(findings) == ["SIM010"]
    assert "ipc.callqueue.fair.weights" in findings[0].message
    assert "self.weights" in findings[0].message


def test_sim010_negative_fixture_is_clean():
    assert lint_file(FIXTURES / "repro" / "rpc" / "sim010_fresh.py",
                     in_src=True) == []


def test_sim010_failover_stale_fixture_fires_once():
    findings = lint_file(
        FIXTURES / "repro" / "rpc" / "sim010_failover_stale.py", in_src=True
    )
    assert rules_of(findings) == ["SIM010"]
    assert "ipc.client.failover.max.attempts" in findings[0].message
    assert "self.max_attempts" in findings[0].message


def test_sim010_failover_fresh_fixture_is_clean():
    assert lint_file(
        FIXTURES / "repro" / "rpc" / "sim010_failover_fresh.py", in_src=True
    ) == []


def test_sim010_mux_stale_fixture_fires_once():
    findings = lint_file(
        FIXTURES / "repro" / "rpc" / "sim010_mux_stale.py", in_src=True
    )
    assert rules_of(findings) == ["SIM010"]
    assert "ipc.client.async.max-inflight" in findings[0].message
    assert "self.window" in findings[0].message


def test_sim010_mux_fresh_fixture_is_clean():
    assert lint_file(
        FIXTURES / "repro" / "rpc" / "sim010_mux_fresh.py", in_src=True
    ) == []


def test_sim010_adaptive_stale_fixture_fires_once():
    findings = lint_file(
        FIXTURES / "repro" / "net" / "sim010_adaptive_stale.py", in_src=True
    )
    assert rules_of(findings) == ["SIM010"]
    assert "ipc.ib.adaptive.enabled" in findings[0].message
    assert "self.enabled" in findings[0].message


def test_sim010_adaptive_fresh_fixture_is_clean():
    assert lint_file(
        FIXTURES / "repro" / "net" / "sim010_adaptive_fresh.py", in_src=True
    ) == []


def test_sim010_ignores_non_reloadable_keys():
    src = (
        "class Q:\n"
        "    def __init__(self, conf):\n"
        "        self.size = conf.get_int('ipc.server.callqueue.size')\n"
    )
    assert lint_source(src, "/x/src/repro/rpc/q.py", in_src=True) == []


@pytest.mark.parametrize("key", sorted(Configuration.RELOADABLE))
def test_sim010_covers_every_reloadable_key(key):
    stale = (
        "class C:\n"
        "    def __init__(self, conf):\n"
        f"        self.x = conf.get_int({key!r})\n"
    )
    findings = lint_source(stale, "/x/src/repro/rpc/c.py", in_src=True)
    assert rules_of(findings) == ["SIM010"]
    assert key in findings[0].message
    fresh = (
        "class C:\n"
        "    def __init__(self, conf):\n"
        f"        self.x = conf.view(lambda conf: conf.get_int({key!r}))\n"
    )
    assert lint_source(fresh, "/x/src/repro/rpc/c.py", in_src=True) == []


def test_reloadable_keys_are_configuration_keys():
    assert Configuration.RELOADABLE <= set(Configuration.DEFAULTS)


def test_sim010_real_server_and_callqueue_are_clean():
    repo = Path(__file__).resolve().parents[2]
    from repro.lint import lint_paths

    findings = lint_paths([repo / "src" / "repro" / "rpc"],
                          rules=["SIM010"])
    assert findings == [], "\n".join(f.format() for f in findings)


# -- SIM011 (whole-program) -------------------------------------------------


def test_sim011_fixture_fires_once():
    findings = lint_file(FIXTURES / "repro" / "io" / "sim011_asym.py",
                         in_src=True)
    assert rules_of(findings) == ["SIM011"]
    assert "LopsidedRecord" in findings[0].message
    assert "int" in findings[0].message and "long" in findings[0].message


def test_sim011_negative_fixture_is_clean():
    assert lint_file(FIXTURES / "repro" / "io" / "sim011_sym.py",
                     in_src=True) == []


def test_sim011_missing_trailing_field_detected():
    src = (
        "class R:\n"
        "    def write(self, out):\n"
        "        out.write_int(self.a)\n"
        "        out.write_utf(self.b)\n"
        "    def read_fields(self, inp):\n"
        "        self.a = inp.read_int()\n"
    )
    findings = lint_source(src, "/x/src/repro/io/r.py", in_src=True)
    assert rules_of(findings) == ["SIM011"]


def test_sim011_loop_against_scalar_detected():
    src = (
        "class R:\n"
        "    def write(self, out):\n"
        "        out.write_vint(len(self.items))\n"
        "        for item in self.items:\n"
        "            out.write_int(item)\n"
        "    def read_fields(self, inp):\n"
        "        count = inp.read_vint()\n"
        "        self.items = [inp.read_int()]\n"
    )
    findings = lint_source(src, "/x/src/repro/io/r.py", in_src=True)
    assert rules_of(findings) == ["SIM011"]


def test_sim011_opaque_control_flow_stops_comparison():
    """A try/except with ops in the handler is opaque: no guessing,
    no finding."""
    src = (
        "class R:\n"
        "    def write(self, out):\n"
        "        out.write_int(self.a)\n"
        "        try:\n"
        "            out.write_utf(self.b)\n"
        "        except ValueError:\n"
        "            out.write_utf('')\n"
        "    def read_fields(self, inp):\n"
        "        self.a = inp.read_int()\n"
        "        try:\n"
        "            self.b = inp.read_utf()\n"
        "        except ValueError:\n"
        "            self.b = inp.read_utf()\n"
    )
    assert lint_source(src, "/x/src/repro/io/r.py", in_src=True) == []


def test_sim011_not_applied_outside_wire_modules():
    src = (
        "class R:\n"
        "    def write(self, out):\n"
        "        out.write_int(self.a)\n"
        "    def read_fields(self, inp):\n"
        "        self.a = inp.read_long()\n"
    )
    assert lint_source(src, "/x/src/repro/obs/r.py", in_src=True) == []
