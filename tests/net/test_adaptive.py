"""Unit tests for the predictor-driven adaptive transport.

Covers the two halves the crossover experiment composes: the
calibration constants that make rendezvous worth pre-posting
(IB_EAGER vs IB_RDMA spec selection, the exact send-side cost of each
path) and :class:`AdaptiveTransport`'s decision table — static when
disabled, fallback until confident, hit/miss scoring, pre-posting only
on agreed-rendezvous, and hot-reload of every ``ipc.ib.adaptive.*``
key mid-run.

The property at the end is the safety net: with
``ipc.ib.adaptive.enabled`` off, a payload serialized by the *real*
encoder and sent through :class:`AdaptiveTransport`'s choice is
bit-identical — bytes, protocol, and clock — to the static threshold
path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import IB_EAGER, IB_RDMA, CostModel
from repro.config import Configuration
from repro.io.rdma_streams import RDMAOutputStream
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool
from repro.mem.predictor import SizePredictor
from repro.net import Endpoint, Fabric, QueuePair
from repro.net.verbs import AdaptiveTransport, ProtocolChoice, classify
from repro.obs import MetricsRegistry
from repro.simcore import Environment


@pytest.fixture
def fabric():
    return Fabric(Environment())


def make_qps(fabric):
    a = Endpoint(fabric, fabric.add_node("a"))
    b = Endpoint(fabric, fabric.add_node("b"))
    return QueuePair.pair(a, b)


def conf_with(**overrides):
    values = {"rpc.ib.rdma.threshold": 4096}
    values.update(overrides)
    return Configuration(values)


def make_adaptive(conf=None, predictor=None, registry=None, node=""):
    return AdaptiveTransport(
        conf or conf_with(),
        predictor or SizePredictor(),
        registry=registry,
        node=node,
    )


def warm(predictor, size, times=3, protocol="P", method="m"):
    for _ in range(times):
        predictor.observe(protocol, method, size)


# -- spec selection and send-side costs -------------------------------------


def test_ib_specs_are_rdma_capable_and_ordered():
    """RDMA beats eager on every link coefficient — the per-message
    handshake is the *only* reason small messages go eager."""
    assert IB_EAGER.rdma_capable and IB_RDMA.rdma_capable
    assert IB_RDMA.latency_us < IB_EAGER.latency_us
    assert IB_RDMA.bandwidth > IB_EAGER.bandwidth
    assert IB_RDMA.host_overhead_us < IB_EAGER.host_overhead_us
    assert IB_EAGER.cpu_per_byte_us == IB_RDMA.cpu_per_byte_us == 0.0


def _local_completion_us(choice):
    """Simulated send-side cost of one post under ``choice``."""
    fabric = Fabric(Environment())
    qa, _ = make_qps(fabric)
    env = fabric.env
    done = {}

    def sender(env):
        yield qa.post_send(b"x" * 100, choice=choice)
        done["at"] = env.now

    env.run(env.process(sender(env)))
    return done["at"]


def test_send_side_cost_of_each_protocol_path():
    """Eager pays host overhead only; rendezvous adds the handshake;
    pre-posting shrinks the handshake to the prepost residue."""
    sw = CostModel.default().software
    base = sw.jni_crossing_us + sw.verbs_post_us
    eager = _local_completion_us(ProtocolChoice(True))
    rendezvous = _local_completion_us(ProtocolChoice(False))
    preposted = _local_completion_us(ProtocolChoice(False, True))
    assert eager == pytest.approx(base + IB_EAGER.host_overhead_us)
    assert rendezvous == pytest.approx(
        base + IB_RDMA.host_overhead_us + sw.rdma_rendezvous_us
    )
    assert preposted == pytest.approx(
        base + IB_RDMA.host_overhead_us + sw.rdma_prepost_us
    )
    # The pre-post saving per direction, as advertised by the model.
    assert rendezvous - preposted == pytest.approx(
        sw.rdma_rendezvous_us - sw.rdma_prepost_us
    )


def test_preposted_sends_counter_tracks_only_preposted_rdma(fabric):
    qa, _ = make_qps(fabric)
    env = fabric.env

    def sender(env):
        yield qa.post_send(b"a", choice=ProtocolChoice(True))
        yield qa.post_send(b"b", choice=ProtocolChoice(False))
        yield qa.post_send(b"c", choice=ProtocolChoice(False, True))

    env.run(env.process(sender(env)))
    assert (qa.eager_sends, qa.rdma_sends, qa.preposted_sends) == (1, 2, 1)


def test_explicit_choice_overrides_the_static_threshold(fabric):
    """A resolved ProtocolChoice wins over rdma_threshold — the
    adaptive transport's decision cannot be second-guessed downstream."""
    qa, qb = make_qps(fabric)
    env = fabric.env
    got = {}

    def receiver(env):
        got["msg"] = yield qb.recv()

    def sender(env):
        # 10 bytes would classify eager at any sane threshold.
        yield qa.post_send(
            b"0123456789", rdma_threshold=4096, choice=ProtocolChoice(False)
        )

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert not got["msg"].eager


# -- AdaptiveTransport decision table ---------------------------------------


def test_disabled_returns_pure_static_choice():
    registry = MetricsRegistry()
    adaptive = make_adaptive(registry=registry)
    predictor = adaptive.predictor
    warm(predictor, 64_000)  # confident large history, yet...
    choice = adaptive.choose("P", "m", 100)
    assert choice == ProtocolChoice(classify(100, 4096))
    assert choice.source == "static" and not choice.preposted
    # ...no instrument was even created: metrics JSON is untouched.
    for which in ("hits", "misses", "fallbacks"):
        assert registry.find(f"net.predictor.{which}") == {}


def test_unconfident_kind_falls_back_to_static():
    registry = MetricsRegistry()
    adaptive = make_adaptive(
        conf_with(**{"ipc.ib.adaptive.enabled": True,
                     "ipc.ib.adaptive.confidence": 3}),
        registry=registry,
    )
    adaptive.predictor.observe("P", "m", 64_000)  # streak 0 < 3
    choice = adaptive.choose("P", "m", 64_000)
    assert choice == ProtocolChoice(False, False, "fallback")
    [fallbacks] = registry.find("net.predictor.fallbacks").values()
    assert fallbacks.value == 1


def test_confident_large_prediction_preposts_the_rendezvous():
    registry = MetricsRegistry()
    adaptive = make_adaptive(
        conf_with(**{"ipc.ib.adaptive.enabled": True,
                     "ipc.ib.adaptive.confidence": 3}),
        registry=registry,
        node="nn",
    )
    warm(adaptive.predictor, 64_000, times=4)
    choice = adaptive.choose("P", "m", 60_000)
    assert choice == ProtocolChoice(False, True, "predictor")
    # Counters carry the node label.
    assert registry.find("net.predictor.hits")[
        "net.predictor.hits{node=nn}"
    ].value == 1


def test_mispredict_never_changes_the_protocol():
    """The actual length always wins the eager/rendezvous choice; a
    miss costs accounting (and a lost pre-post), not a wrong send."""
    registry = MetricsRegistry()
    adaptive = make_adaptive(
        conf_with(**{"ipc.ib.adaptive.enabled": True,
                     "ipc.ib.adaptive.confidence": 2}),
        registry=registry,
    )
    warm(adaptive.predictor, 64_000)
    small = adaptive.choose("P", "m", 10)  # predicted large, actually small
    assert small == ProtocolChoice(True, False, "predictor")
    warm(adaptive.predictor, 10)
    large = adaptive.choose("P", "m", 64_000)  # predicted small, actually large
    assert large == ProtocolChoice(False, False, "predictor")
    [misses] = registry.find("net.predictor.misses").values()
    assert misses.value == 2
    assert registry.find("net.predictor.hits") == {}


def test_agreeing_small_prediction_is_a_hit_without_prepost():
    adaptive = make_adaptive(
        conf_with(**{"ipc.ib.adaptive.enabled": True,
                     "ipc.ib.adaptive.confidence": 2}),
        registry=MetricsRegistry(),
    )
    warm(adaptive.predictor, 100)
    choice = adaptive.choose("P", "m", 120)
    assert choice == ProtocolChoice(True, False, "predictor")


def test_conf_keys_hot_reload_mid_run():
    conf = conf_with()
    adaptive = make_adaptive(conf, registry=MetricsRegistry())
    warm(adaptive.predictor, 64_000, times=5)
    assert adaptive.choose("P", "m", 64_000).source == "static"
    conf.set("ipc.ib.adaptive.enabled", True)  # arm mid-run
    assert adaptive.choose("P", "m", 64_000) == ProtocolChoice(
        False, True, "predictor"
    )
    conf.set("ipc.ib.adaptive.confidence", 10)  # retune: streak too short
    assert adaptive.choose("P", "m", 64_000).source == "fallback"
    conf.set("ipc.ib.adaptive.confidence", 3)
    conf.set("rpc.ib.rdma.threshold", 1 << 20)  # threshold reloads too
    choice = adaptive.choose("P", "m", 64_000)
    assert choice.eager and not choice.preposted  # now below threshold
    conf.set("ipc.ib.adaptive.enabled", False)  # disarm
    assert adaptive.choose("P", "m", 64_000).source == "static"


def test_enabled_property_tracks_the_live_configuration():
    conf = conf_with()
    adaptive = make_adaptive(conf)
    assert not adaptive.enabled
    conf.set("ipc.ib.adaptive.enabled", True)
    assert adaptive.enabled


def test_without_registry_no_counting_is_attempted():
    adaptive = make_adaptive(
        conf_with(**{"ipc.ib.adaptive.enabled": True,
                     "ipc.ib.adaptive.confidence": 1}),
    )
    warm(adaptive.predictor, 64_000)
    assert adaptive.choose("P", "m", 64_000).preposted  # no AttributeError


# -- adaptive-off identity against the real encoder --------------------------


def _send_serialized(chunks, use_adaptive, threshold):
    """Serialize ``chunks`` with RDMAOutputStream over the size-class
    pool and send the detached buffer once; returns (received message,
    arrival)."""
    model = CostModel.default()
    pool = HistoryShadowPool(NativeBufferPool(model))
    ledger = CostLedger(model)
    out = RDMAOutputStream(pool, "ClientProtocol", "op", ledger)
    for chunk in chunks:
        out.write(chunk)
    out.write_int(len(chunks))  # exercise a pack_into fast path too
    buffer, length = out.detach()

    fabric = Fabric(Environment())
    qa, qb = QueuePair.pair(
        Endpoint(fabric, fabric.add_node("a")),
        Endpoint(fabric, fabric.add_node("b")),
    )
    if use_adaptive:
        conf = Configuration({"rpc.ib.rdma.threshold": threshold})
        assert not conf.get_bool("ipc.ib.adaptive.enabled")  # default off
        adaptive = AdaptiveTransport(conf, pool.predictor)
        choice = adaptive.choose("ClientProtocol", "op", length)
        assert choice.source == "static" and not choice.preposted
        kwargs = {"choice": choice}
    else:
        kwargs = {"rdma_threshold": threshold}
    env = fabric.env
    got = {}

    def receiver(env):
        got["msg"] = yield qb.recv()
        got["arrival"] = env.now

    def sender(env):
        yield qa.post_send(buffer, length=length, **kwargs)
        out.release()

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    return got["msg"], got["arrival"]


@given(
    chunks=st.lists(st.binary(min_size=0, max_size=3000), max_size=5),
    threshold=st.sampled_from([0, 64, 4096, 1 << 20]),
)
@settings(max_examples=30, deadline=None)
def test_adaptive_off_is_bit_identical_to_the_static_path(chunks, threshold):
    static_msg, static_arrival = _send_serialized(chunks, False, threshold)
    adaptive_msg, adaptive_arrival = _send_serialized(chunks, True, threshold)
    assert adaptive_msg.data == static_msg.data
    assert adaptive_msg.length == static_msg.length
    assert adaptive_msg.eager == static_msg.eager
    assert adaptive_arrival == pytest.approx(static_arrival, abs=0.0)
