"""Raw-field taps against the payload-tap oracle.

The bus hands each tapped frame to its taps as the list of its raw
fields and turns only a rewritten list back into values
(:meth:`FrameCodec.values`).  The oracle is the per-frame bus of
``helpers``: it encodes every frame one signal at a time, passes the
payload through payload taps (the injection harness's payload tap, or
a raw-field tap run on :class:`helpers.PayloadFields`) and decodes it
one signal at a time.  Over every FSRACC message and the big-endian
and mixed-order layouts of ``helpers.synthetic_database``, both must
deliver the same frames bit for bit (NaN payloads included), drop the
same frames, count the same attempts and rejections, and raise the
same :class:`CodecError`.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    PayloadFields,
    PayloadInjectionHarness,
    PerFrameBus,
    ScalarJitter,
    assert_same_values,
    extract_raw,
    insert_raw,
    payload_tap,
    per_signal_decode,
    per_signal_encode,
    synthetic_database,
)
from repro.can.bus import CanBus, JitterModel
from repro.can.codec import FrameCodec
from repro.can.errors import CodecError
from repro.can.fsracc import fsracc_database
from repro.can.signal import SignalType
from repro.hil.injection import InjectionHarness
from repro.hil.typecheck import HIL_PROFILE, VEHICLE_PROFILE

DATABASES = {"fsracc": fsracc_database(), "synthetic": synthetic_database()}
MESSAGES = [
    message for database in DATABASES.values() for message in database.messages()
]
EXAMPLES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Steps of 0.01 s: about six frames of each 0.02 s message.
STEPS = 12


def f32_bits():
    """Floats from float32 bit patterns: every NaN payload, both
    infinities, denormals and signed zeros."""
    return st.integers(0, (1 << 32) - 1).map(
        lambda bits: struct.unpack("<f", struct.pack("<I", bits))[0]
    )


def signal_values(signal, bad=True):
    """Values a publisher might give ``signal``; with ``bad``, rarely one
    the codec refuses."""
    if signal.kind is SignalType.FLOAT:
        good = st.one_of(f32_bits(), st.floats(-3.4e38, 3.4e38))
        refused = st.sampled_from([1e39, -1e308, "fast"])
    elif signal.kind is SignalType.BOOL:
        good = st.sampled_from([True, False, 0, 1, 2.5, 0.0])
        refused = st.nothing()
    else:
        good = st.integers(0, signal.max_raw)
        refused = st.sampled_from([-1, signal.max_raw + 1, 1.0])
    if not bad:
        return good
    return st.one_of(good, good, good, good, good, good, good, refused)


def frame_values(message, bad=True):
    return st.fixed_dictionaries(
        {},
        optional={
            signal.name: signal_values(signal, bad) for signal in message.signals
        },
    )


def raws_of(message):
    return st.tuples(
        *[st.integers(0, signal.max_raw) for signal in message.signals]
    ).map(list)


def same_as_payload(message, raws):
    """The payload carrying ``raws``, inserted one field at a time."""
    data = bytes(message.length)
    for signal, raw in zip(message.signals, raws):
        data = insert_raw(data, signal, raw)
    return data


# ----------------------------------------------------------------------
# The raws-to-values half of decode
# ----------------------------------------------------------------------


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
@EXAMPLES
@given(data=st.data())
def test_values_of_delivered_raws_is_decode_of_encode(message, data):
    values = data.draw(frame_values(message, bad=False))
    codec = FrameCodec(message.length, message.signals)
    payload = per_signal_encode(message, values)
    raws = []
    assert_same_values(codec.deliver(values, raws), per_signal_decode(message, payload))
    assert raws == [extract_raw(payload, signal) for signal in message.signals]
    assert_same_values(codec.values(raws), codec.decode(codec.encode(values)))


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
@EXAMPLES
@given(data=st.data())
def test_values_of_any_raws_decodes_them_packed_in_field_order(message, data):
    raws = data.draw(raws_of(message))
    codec = FrameCodec(message.length, message.signals)
    assert_same_values(
        codec.values(raws),
        per_signal_decode(message, same_as_payload(message, raws)),
    )


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
def test_values_refuses_a_raw_outside_its_field(message):
    codec = FrameCodec(message.length, message.signals)
    for index, signal in enumerate(message.signals):
        for bad in (-1, signal.max_raw + 1):
            raws = [0] * len(message.signals)
            raws[index] = bad
            with pytest.raises(CodecError) as raised:
                codec.values(raws)
            with pytest.raises(CodecError) as expected:
                insert_raw(bytes(message.length), signal, bad)
            assert str(raised.value) == str(expected.value)
    with pytest.raises(CodecError, match="raw fields for a"):
        codec.values([0] * (len(message.signals) + 1))


# ----------------------------------------------------------------------
# Whole buses
# ----------------------------------------------------------------------


def draw_publishers(data, database, bad=True):
    """Per message, the cycle of value dicts its publisher gives."""
    return {
        message.name: data.draw(
            st.lists(frame_values(message, bad), min_size=1, max_size=4)
        )
        for message in database.messages()
    }


def run_bus(bus, database, publishers, install, steps=STEPS, at=3):
    """Publish every message, call ``install(bus)`` after ``at`` steps,
    and step on; return the delivered frames, the counters and the
    error raised (type and text), if any."""
    for message in database.messages():
        cycle = publishers[message.name]
        sent = [0]

        def provider(cycle=cycle, sent=sent):
            sent[0] += 1
            return cycle[(sent[0] - 1) % len(cycle)]

        bus.attach_publisher(message.name, provider)
    seen = []
    bus.add_listener(
        lambda message: lambda timestamp, values: seen.append(
            (message.name, struct.pack("<d", timestamp), values)
        )
    )
    error = None
    try:
        for step in range(steps):
            if step == at:
                install(bus)
            bus.step(0.01 * step)
    except CodecError as exc:
        error = str(exc)
    return seen, (bus.frames_sent, bus.frames_dropped), error


def assert_same_frames(got, want):
    assert [frame[:2] for frame in got] == [frame[:2] for frame in want]
    for (_, _, values), (_, _, expected) in zip(got, want):
        assert_same_values(values, expected)


def injection(database, data):
    """Draw one injection request: (signal, mode, argument).  The
    message is drawn first, so a signal of a small message (as the
    short layouts are) comes up as often as one of a large one."""
    message = data.draw(st.sampled_from(list(database.messages())))
    signal = data.draw(st.sampled_from(message.signals))
    name = signal.name
    mode = data.draw(st.sampled_from(["value", "bitflip", "stick", "silence"]))
    if mode == "value":
        argument = data.draw(
            st.one_of(signal_values(signal), st.integers(-2, 9), st.floats())
        )
    elif mode == "bitflip":
        argument = tuple(
            data.draw(
                st.lists(
                    st.integers(0, signal.bit_length - 1),
                    min_size=1,
                    max_size=min(4, signal.bit_length),
                    unique=True,
                )
            )
        )
    else:
        argument = None
    return name, mode, argument


def request(harness, name, mode, argument):
    if mode == "value":
        harness.inject_value(name, argument)
    elif mode == "bitflip":
        harness.inject_bitflips(name, argument)
    elif mode == "stick":
        harness.inject_stick(name)
    else:
        harness.inject_silence(name)


@pytest.mark.parametrize("database_name", sorted(DATABASES))
@EXAMPLES
@given(data=st.data())
def test_injections_match_the_payload_tap_oracle(database_name, data):
    database = DATABASES[database_name]
    publishers = draw_publishers(data, database)
    requests = [
        injection(database, data) for _ in range(data.draw(st.integers(1, 3)))
    ]
    clear = data.draw(st.sampled_from([None] + [name for name, _, _ in requests]))
    checker = data.draw(st.sampled_from([HIL_PROFILE, VEHICLE_PROFILE]))
    jitter = data.draw(st.sampled_from([0.0, 0.003]))

    def run(bus_class, jitter_class, harness_class):
        harness = harness_class(database, checker)
        bus = bus_class(database, jitter_class(jitter, 11))

        def install(bus):
            bus.add_frame_tap(harness.tap, harness.targets)
            for name, mode, argument in requests:
                request(harness, name, mode, argument)
            if clear is not None:
                harness.clear(clear)

        seen, counts, error = run_bus(bus, database, publishers, install)
        return seen, counts, error, (
            harness.attempts,
            harness.rejections,
            harness.rejection_log,
        )

    got = run(CanBus, JitterModel, InjectionHarness)
    want = run(PerFrameBus, ScalarJitter, PayloadInjectionHarness)
    assert_same_frames(got[0], want[0])
    assert got[1:] == want[1:]


@pytest.mark.parametrize("database_name", sorted(DATABASES))
@EXAMPLES
@given(data=st.data())
def test_a_raw_field_tap_matches_the_payload_tap_oracle(database_name, data):
    """A tap that drops frames, XORs masks into fields or overwrites
    them, in a drawn cycle of actions (a written raw is rarely outside
    its field)."""
    database = DATABASES[database_name]
    publishers = draw_publishers(data, database, bad=False)
    actions = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["keep", "drop", "xor", "set"]),
                st.integers(0, 7),
                st.one_of(
                    st.integers(0, (1 << 32) - 1),
                    st.sampled_from([-1, 1 << 33]),
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )

    def raw_tap(message, raws, timestamp):
        action, field, raw = actions[len(calls) % len(actions)]
        calls.append(message.name)
        index = field % len(raws)
        max_raw = message.signals[index].max_raw
        if action == "drop":
            return None
        if action == "xor":
            raws[index] ^= raw & max_raw
        elif action == "set":
            raws[index] = raw if raw < 0 or raw > 1 << 32 else raw & max_raw
        return raws

    calls = []
    got = run_bus(
        CanBus(database, JitterModel(0.003, 5)),
        database,
        publishers,
        lambda bus: bus.add_frame_tap(raw_tap),
    )
    got_calls, calls = calls, []
    want = run_bus(
        PerFrameBus(database, ScalarJitter(0.003, 5)),
        database,
        publishers,
        lambda bus: bus.add_frame_tap(payload_tap(raw_tap)),
    )
    assert got_calls == calls
    assert_same_frames(got[0], want[0])
    assert got[1:] == want[1:]


def test_payload_fields_read_and_write_the_payload():
    message = synthetic_database().message_by_name("SharedByte")
    fields = PayloadFields(message, bytes([0b10100101, 0b11]))
    assert len(fields) == 4
    fields[0] = 0b1111
    assert fields[1] == extract_raw(fields.data, message.signals[1]) == 0b1010
    assert fields.data == insert_raw(
        bytes([0b10100101, 0b11]), message.signals[0], 0b1111
    )

