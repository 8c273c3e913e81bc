"""Unit tests for the shared message-size predictor (Fig. 3 locality).

The predictor was extracted from the history shadow pool so the
transport layer can consult the same history; these tests pin its
contract — last-observation prediction, the per-kind confidence
streak, and the exact conditions that reset it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.predictor import (
    DEFAULT_SIZE,
    SizePredictor,
    size_class_of,
    within_one_class,
)


# -- size_class_of ---------------------------------------------------------


def test_size_class_rounds_up_to_powers_of_two():
    assert size_class_of(0) == 1
    assert size_class_of(1) == 1
    assert size_class_of(2) == 2
    assert size_class_of(3) == 4
    assert size_class_of(128) == 128
    assert size_class_of(129) == 256
    assert size_class_of(4096) == 4096


def test_size_class_rejects_negative_sizes():
    with pytest.raises(ValueError):
        size_class_of(-1)


def test_within_one_class_spans_adjacent_classes_only():
    assert within_one_class(100, 128)   # same class (128)
    assert within_one_class(128, 200)   # adjacent (128 vs 256)
    assert within_one_class(200, 128)   # symmetric
    assert not within_one_class(128, 513)  # two classes apart
    assert not within_one_class(4096, 64)


# -- prediction ------------------------------------------------------------


def test_unseen_kind_predicts_the_default_size():
    predictor = SizePredictor()
    assert predictor.predict("P", "m") == DEFAULT_SIZE
    assert SizePredictor(default_size=512).predict("P", "m") == 512


def test_default_size_must_be_positive():
    with pytest.raises(ValueError):
        SizePredictor(default_size=0)


def test_prediction_is_the_last_observation():
    predictor = SizePredictor()
    predictor.observe("P", "m", 300)
    assert predictor.predict("P", "m") == 300
    predictor.observe("P", "m", 2500)
    assert predictor.predict("P", "m") == 2500


def test_kinds_are_independent():
    predictor = SizePredictor()
    predictor.observe("P", "get", 300)
    predictor.observe("Q", "get", 9000)
    assert predictor.predict("P", "get") == 300
    assert predictor.predict("Q", "get") == 9000
    assert predictor.predict("P", "put") == DEFAULT_SIZE
    assert predictor.observations == 2


# -- confidence streak -----------------------------------------------------


def test_first_observation_is_never_confident():
    predictor = SizePredictor()
    predictor.observe("P", "m", 300)
    assert not predictor.confident("P", "m", 1)
    assert predictor.confident("P", "m", 0)


def test_streak_grows_while_sizes_stay_within_one_class():
    predictor = SizePredictor()
    for size in (300, 310, 305, 290):
        predictor.observe("P", "m", size)
    assert predictor.confident("P", "m", 3)
    assert not predictor.confident("P", "m", 4)


def test_class_jump_resets_the_streak():
    predictor = SizePredictor()
    for size in (300, 310, 305):
        predictor.observe("P", "m", size)
    assert predictor.confident("P", "m", 2)
    predictor.observe("P", "m", 9000)  # jump: streak resets
    assert not predictor.confident("P", "m", 1)
    predictor.observe("P", "m", 9100)
    assert predictor.confident("P", "m", 1)


def test_alternating_sizes_never_become_confident():
    predictor = SizePredictor()
    for _ in range(10):
        predictor.observe("P", "m", 64)
        predictor.observe("P", "m", 65536)
    assert not predictor.confident("P", "m", 1)


def test_adjacent_class_drift_keeps_the_streak():
    """Sizes drifting one class per observation stay 'local' — exactly
    the granularity the buffer pool (and transport) care about."""
    predictor = SizePredictor()
    for size in (100, 200, 390, 200, 100):
        predictor.observe("P", "m", size)
    assert predictor.confident("P", "m", 4)


# -- properties ----------------------------------------------------------------


KIND = st.tuples(
    st.sampled_from(["ClientProtocol", "DatanodeProtocol"]),
    st.sampled_from(["get", "put", "heartbeat"]),
)


@given(
    observations=st.lists(
        st.tuples(KIND, st.integers(min_value=0, max_value=1 << 20)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_prediction_is_always_the_last_observation_per_kind(observations):
    predictor = SizePredictor()
    last = {}
    for (protocol, method), size in observations:
        predictor.observe(protocol, method, size)
        last[(protocol, method)] = size
    for (protocol, method), size in last.items():
        assert predictor.predict(protocol, method) == size


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                   max_size=30)
)
@settings(max_examples=60, deadline=None)
def test_confidence_streak_is_the_tail_run_of_class_local_observations(sizes):
    predictor = SizePredictor()
    for size in sizes:
        predictor.observe("P", "m", size)
    # Recompute the expected streak from first principles: consecutive
    # within-one-class steps counted back from the newest observation.
    streak = 0
    for prev, cur in zip(reversed(sizes[:-1]), reversed(sizes[1:])):
        if not within_one_class(prev, cur):
            break
        streak += 1
    assert predictor.confident("P", "m", streak)
    assert not predictor.confident("P", "m", streak + 1)
