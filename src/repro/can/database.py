"""Message database — the DBC-like description of everything on the bus.

A :class:`CanDatabase` maps CAN identifiers to :class:`MessageDef` entries,
each of which carries a broadcast period and a set of signal layouts.  The
periodic broadcast model (every message re-sent on its own period, receivers
holding the last value between updates) is exactly the observability model
the paper's monitor relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.can.codec import FrameCodec
from repro.can.errors import DatabaseError
from repro.can.frame import CanFrame, MAX_DLC
from repro.can.signal import SignalDef, SignalValue
from repro.errors import positive_seconds


@dataclass(frozen=True)
class MessageDef:
    """One periodic broadcast message.

    Attributes:
        name: unique message name.
        can_id: CAN identifier used on the wire.
        length: payload length in bytes.
        period: broadcast period in seconds.
        signals: the signals packed into this message.
        sender: name of the node that produces this message.
        comment: free-form description.
    """

    name: str
    can_id: int
    length: int
    period: float
    signals: Tuple[SignalDef, ...]
    sender: str = ""
    comment: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.length <= MAX_DLC:
            raise DatabaseError(
                "%s: message length %d outside 1..%d"
                % (self.name, self.length, MAX_DLC)
            )
        positive_seconds("%s: period" % self.name, self.period)
        seen = set()
        for signal in self.signals:
            if signal.name in seen:
                raise DatabaseError(
                    "%s: duplicate signal %s" % (self.name, signal.name)
                )
            seen.add(signal.name)
            if signal.start_bit + signal.bit_length > 8 * self.length:
                raise DatabaseError(
                    "%s: signal %s does not fit in %d bytes"
                    % (self.name, signal.name, self.length)
                )
        ordered = sorted(self.signals, key=lambda s: s.start_bit)
        for left, right in zip(ordered, ordered[1:]):
            if left.overlaps(right):
                raise DatabaseError(
                    "%s: signals %s and %s overlap"
                    % (self.name, left.name, right.name)
                )

    def signal(self, name: str) -> SignalDef:
        """Look up one of this message's signals by name."""
        for signal in self.signals:
            if signal.name == name:
                return signal
        raise DatabaseError("%s: no signal named %s" % (self.name, name))

    def signal_names(self) -> Tuple[str, ...]:
        """Names of all signals in payload order."""
        return tuple(s.name for s in sorted(self.signals, key=lambda s: s.start_bit))


class CanDatabase:
    """A collection of message definitions with encode/decode helpers.

    Each message is compiled into a :class:`~repro.can.codec.FrameCodec`
    when it is added, so coding a frame costs one pass over its signals.
    """

    def __init__(self, messages: Iterable[MessageDef] = ()) -> None:
        self._by_id: Dict[int, MessageDef] = {}
        self._by_name: Dict[str, MessageDef] = {}
        self._signal_home: Dict[str, MessageDef] = {}
        self._codecs: Dict[str, FrameCodec] = {}
        for message in messages:
            self.add_message(message)

    def add_message(self, message: MessageDef) -> None:
        """Register a message, enforcing global id / name / signal uniqueness."""
        if message.can_id in self._by_id:
            raise DatabaseError("duplicate CAN id 0x%X" % message.can_id)
        if message.name in self._by_name:
            raise DatabaseError("duplicate message name %s" % message.name)
        for signal in message.signals:
            if signal.name in self._signal_home:
                raise DatabaseError(
                    "signal %s defined in both %s and %s"
                    % (
                        signal.name,
                        self._signal_home[signal.name].name,
                        message.name,
                    )
                )
        self._by_id[message.can_id] = message
        self._by_name[message.name] = message
        self._codecs[message.name] = FrameCodec(message.length, message.signals)
        for signal in message.signals:
            self._signal_home[signal.name] = message

    def messages(self) -> Iterator[MessageDef]:
        """Iterate over all messages in id order."""
        return iter(sorted(self._by_id.values(), key=lambda m: m.can_id))

    def message_by_id(self, can_id: int) -> MessageDef:
        """Look up a message by CAN identifier."""
        try:
            return self._by_id[can_id]
        except KeyError:
            raise DatabaseError("unknown CAN id 0x%X" % can_id) from None

    def message_by_name(self, name: str) -> MessageDef:
        """Look up a message by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DatabaseError("unknown message %s" % name) from None

    def message_for_signal(self, signal_name: str) -> MessageDef:
        """Find the message that carries ``signal_name``."""
        try:
            return self._signal_home[signal_name]
        except KeyError:
            raise DatabaseError("unknown signal %s" % signal_name) from None

    def signal(self, signal_name: str) -> SignalDef:
        """Look up a signal definition by name, across all messages."""
        return self.message_for_signal(signal_name).signal(signal_name)

    def signal_names(self) -> Tuple[str, ...]:
        """All signal names known to the database."""
        return tuple(sorted(self._signal_home))

    def signals(self) -> Iterator[SignalDef]:
        """All signal definitions, in message-id then payload order."""
        for message in self.messages():
            for signal in sorted(message.signals, key=lambda s: s.start_bit):
                yield signal

    def signals_from(self, sender: str) -> Tuple[str, ...]:
        """Names of every signal produced by ``sender``, in id order."""
        return tuple(
            signal.name
            for message in self.messages()
            if message.sender == sender
            for signal in sorted(message.signals, key=lambda s: s.start_bit)
        )

    def __contains__(self, signal_name: str) -> bool:
        return signal_name in self._signal_home

    def codec(self, message_name: str) -> FrameCodec:
        """The compiled codec of ``message_name``."""
        codec = self._codecs.get(message_name)
        if codec is None:
            raise DatabaseError("unknown message %s" % message_name)
        return codec

    def encode(
        self, message_name: str, values: Mapping[str, SignalValue]
    ) -> bytes:
        """Encode physical ``values`` into a payload for ``message_name``.

        Signals missing from ``values`` are encoded with their benign
        defaults, so a publisher only needs to supply what it produces.
        """
        return self.codec(message_name).encode(values)

    def decode(self, frame: CanFrame) -> Tuple[str, Dict[str, SignalValue]]:
        """Decode a frame into ``(message_name, {signal: physical value})``."""
        message = self.message_by_id(frame.can_id)
        if frame.dlc < message.length:
            raise DatabaseError(
                "%s: frame carries %d bytes, expected %d"
                % (message.name, frame.dlc, message.length)
            )
        return message.name, self._codecs[message.name].decode(frame.data)

    def frame_for(
        self,
        message_name: str,
        values: Mapping[str, SignalValue],
        timestamp: float = 0.0,
    ) -> CanFrame:
        """Encode ``values`` and wrap them in a timestamped frame."""
        message = self.message_by_name(message_name)
        return CanFrame(
            message.can_id, self.encode(message_name, values), timestamp
        )
