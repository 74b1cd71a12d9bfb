"""Signal injection harness — the multiplexor instrumentation of §III.

The paper routed every FSRACC input through an added multiplexor with an
*inject value* and an *enable* signal, so each input could be individually
passed through or overwritten.  Here the same mechanism is realized as a
bus frame tap: when an injection is enabled for a signal, the tap rewrites
that signal's raw field in every outgoing frame that carries it.  Because
the rewrite happens on the wire, both the feature under test and the
passive monitor observe the injected value — exactly the black-box
interception the paper describes.

The tap sees a frame as its list of raw fields, in the message's signal
order (see :mod:`repro.can.bus`), and writes field ``i`` of the list;
the bus turns a rewritten list back into the values a decode of the
payload would yield.  Four injection modes exist:

* **value** injection — the field is overwritten with the raw encoding
  of a chosen physical value (subject to the active profile's type
  checking);
* **bit-flip** injection — chosen bits of the signal's raw field are
  inverted (faults at the bit level; on the HIL profile results
  decoding to invalid enums are suppressed, §V-C3);
* **stick** injection — the signal freezes at the raw field it carried
  when the injection first saw it (a stuck sensor: frames keep flowing
  but the value never changes);
* **silence** injection — the signal's carrier message stops being
  transmitted entirely (a silent node / lost message: downstream
  consumers and the monitor hold stale data, and ``age()``-based
  freshness rules are the only way to notice).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.can.codec import physical_to_raw, raw_to_physical
from repro.can.database import CanDatabase, MessageDef
from repro.can.signal import SignalDef, SignalValue
from repro.errors import InjectionError
from repro.hil.typecheck import CheckResult, InjectionTypeChecker, HIL_PROFILE


class InjectionMode(enum.Enum):
    """How an active injection corrupts the signal."""

    VALUE = "value"
    BITFLIP = "bitflip"
    STICK = "stick"
    SILENCE = "silence"


_VALUE = InjectionMode.VALUE
_STICK = InjectionMode.STICK
_SILENCE = InjectionMode.SILENCE


@dataclass
class ActiveInjection:
    """One enabled multiplexor override."""

    signal: str
    mode: InjectionMode
    value: Optional[SignalValue] = None
    bit_offsets: Tuple[int, ...] = ()
    stuck_raw: Optional[int] = None
    #: The raw field a VALUE injection writes, encoded when enabled.
    value_raw: int = 0
    #: The raw-field bits a BITFLIP injection inverts.
    flip_mask: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        for offset in self.bit_offsets:
            self.flip_mask |= 1 << offset


class InjectionHarness:
    """Per-signal injection multiplexors, applied as a bus frame tap.

    Attributes:
        attempts: number of injection requests made.
        rejections: requests refused by the active type-check profile
            (the quantity Experiment E6 compares across profiles).
        targets: names of the messages that carry an active injection,
            kept current on every inject and clear: the only messages
            :meth:`tap` rewrites or drops, which the bus is told when
            the tap is installed.
    """

    def __init__(
        self,
        database: CanDatabase,
        checker: InjectionTypeChecker = HIL_PROFILE,
    ) -> None:
        self.database = database
        self.checker = checker
        self._active: Dict[str, ActiveInjection] = {}
        self.targets: Set[str] = set()
        #: Per carrier of an active injection: (field index, signal,
        #: injection) of each overridden field, in signal order.
        self._plan: Dict[str, Tuple[Tuple[int, SignalDef, ActiveInjection], ...]] = {}
        self.attempts = 0
        self.rejections = 0
        self.rejection_log: List[Tuple[str, SignalValue, str]] = []

    # ------------------------------------------------------------------
    # Control interface (what the rtplib scripts drive)
    # ------------------------------------------------------------------

    def inject_value(self, signal_name: str, value: SignalValue) -> CheckResult:
        """Enable a value override for ``signal_name``.

        Returns the type-check result; on rejection the multiplexor is
        left passing the true value through (and the rejection counted).
        """
        signal = self._signal(signal_name)
        self.attempts += 1
        result = self.checker.check(signal, value)
        if not result.accepted:
            self.rejections += 1
            self.rejection_log.append((signal_name, value, result.reason))
            return result
        self._enable(
            ActiveInjection(
                signal=signal_name,
                mode=InjectionMode.VALUE,
                value=value,
                value_raw=physical_to_raw(signal, value),
            )
        )
        return result

    def inject_bitflips(
        self, signal_name: str, bit_offsets: Tuple[int, ...]
    ) -> None:
        """Enable a bit-flip override for ``signal_name``.

        ``bit_offsets`` are positions inside the signal's raw field; they
        are XOR-applied to every transmission while enabled.  A mask
        naming more distinct bits than the field holds, a duplicate
        offset (which would XOR back to a no-op), or an offset outside
        the field raises :class:`~repro.errors.InjectionError` — the
        same conditions the auditor reports statically as AU302.
        """
        signal = self._signal(signal_name)
        offsets = tuple(bit_offsets)
        if len(offsets) > signal.bit_length:
            raise InjectionError(
                "%s: flip mask names %d bits but the field is only "
                "%d bit(s) wide"
                % (signal_name, len(offsets), signal.bit_length)
            )
        if len(set(offsets)) != len(offsets):
            raise InjectionError(
                "%s: duplicate bit offsets in flip mask %r"
                % (signal_name, offsets)
            )
        for offset in offsets:
            if not 0 <= offset < signal.bit_length:
                raise InjectionError(
                    "%s: bit offset %d outside %d-bit field"
                    % (signal_name, offset, signal.bit_length)
                )
        self.attempts += 1
        self._enable(
            ActiveInjection(
                signal=signal_name,
                mode=InjectionMode.BITFLIP,
                bit_offsets=offsets,
            )
        )

    def inject_stick(self, signal_name: str) -> None:
        """Freeze ``signal_name`` at its last transmitted value.

        Until the next transmission the freeze latches onto whatever
        value is first observed, then repeats it on every frame.
        """
        self._signal(signal_name)
        self.attempts += 1
        self._enable(
            ActiveInjection(signal=signal_name, mode=InjectionMode.STICK)
        )

    def inject_silence(self, signal_name: str) -> None:
        """Suppress every transmission of ``signal_name``'s carrier
        message (a silent node).  Note this silences the *whole message*,
        including any other signals packed into it — like a real node
        failure would."""
        self._signal(signal_name)
        self.attempts += 1
        self._enable(
            ActiveInjection(signal=signal_name, mode=InjectionMode.SILENCE)
        )

    def clear(self, signal_name: str) -> None:
        """Disable any override on ``signal_name`` (pass-through)."""
        if self._active.pop(signal_name, None) is not None:
            self._retarget()

    def clear_all(self) -> None:
        """Disable every override."""
        self._active.clear()
        self._retarget()

    def enabled_signals(self) -> Tuple[str, ...]:
        """Names of signals currently being overridden."""
        return tuple(sorted(self._active))

    def is_enabled(self, signal_name: str) -> bool:
        """Whether ``signal_name`` currently has an active override."""
        return signal_name in self._active

    # ------------------------------------------------------------------
    # Bus tap
    # ------------------------------------------------------------------

    def tap(
        self, message: MessageDef, raws: List[int], timestamp: float
    ) -> Optional[List[int]]:
        """Frame tap: rewrite the overridden signals' raw fields of
        ``message``, in place.

        Bit-flip results are re-checked against the active profile: the
        dSPACE HIL's strong type checking also guarded fault-injected
        values (§V-C3, "prohibiting things such as out-of-range
        enumerated values"), so on the HIL profile a flip that decodes
        to an invalid enum is suppressed for that transmission.

        Returns ``raws``, or ``None`` to drop the frame when a SILENCE
        injection is active on any of the message's signals.
        """
        for index, signal, injection in self._plan.get(message.name, ()):
            mode = injection.mode
            if mode is _SILENCE:
                return None
            if mode is _VALUE:
                raws[index] = injection.value_raw
            elif mode is _STICK:
                if injection.stuck_raw is None:
                    injection.stuck_raw = raws[index]
                raws[index] = injection.stuck_raw
            else:
                flipped = raws[index] ^ injection.flip_mask
                result = self.checker.check(
                    signal, raw_to_physical(signal, flipped)
                )
                if result.accepted:
                    raws[index] = flipped
        return raws

    # ------------------------------------------------------------------

    def _enable(self, injection: ActiveInjection) -> None:
        self._active[injection.signal] = injection
        self._retarget()

    def _retarget(self) -> None:
        """Make :attr:`targets` the carriers of the active injections
        (in place: the bus holds this set), and plan each carrier's
        rewrites: its overridden fields in signal order."""
        self.targets.clear()
        self.targets.update(
            self.database.message_for_signal(name).name for name in self._active
        )
        self._plan = {}
        for name in self.targets:
            message = self.database.message_by_name(name)
            self._plan[name] = tuple(
                (index, signal, self._active[signal.name])
                for index, signal in enumerate(message.signals)
                if signal.name in self._active
            )

    def _signal(self, signal_name: str) -> SignalDef:
        if signal_name not in self.database:
            raise InjectionError("unknown signal %s" % signal_name)
        return self.database.signal(signal_name)
