"""CP56Time2a and CP16Time2a time tags (IEC 60870-5-4).

CP56Time2a is the 7-octet binary timestamp carried by the time-tagged
ASDU typeIDs (I30-I40, I58-I64, I103, I107, I126, I127). The paper's
most frequent typeID, I36, carries one in every information object.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..slots import slot_setters
from .errors import MalformedASDUError

CP56_SIZE = 7
CP16_SIZE = 2


@dataclass(frozen=True, slots=True)
class CP56Time2a:
    """7-octet date and time: milliseconds to year.

    Fields mirror the wire format (milliseconds first). Comparison is
    chronological, not field-order lexicographic.
    """

    milliseconds: int = 0   # 0..59999 (includes seconds)
    minute: int = 0         # 0..59
    hour: int = 0           # 0..23
    day_of_month: int = 1   # 1..31
    day_of_week: int = 0    # 0 (unused) or 1..7
    month: int = 1          # 1..12
    year: int = 0           # 0..99 (offset from 2000)
    invalid: bool = False
    summer_time: bool = False

    def __post_init__(self) -> None:
        checks = (
            (0 <= self.milliseconds <= 59999, "milliseconds"),
            (0 <= self.minute <= 59, "minute"),
            (0 <= self.hour <= 23, "hour"),
            (1 <= self.day_of_month <= 31, "day_of_month"),
            (0 <= self.day_of_week <= 7, "day_of_week"),
            (1 <= self.month <= 12, "month"),
            (0 <= self.year <= 99, "year"),
        )
        for ok, name in checks:
            if not ok:
                raise ValueError(f"CP56Time2a field {name} out of range")

    @classmethod
    def from_us(cls, time_us: int) -> "CP56Time2a":
        """Build a tag from integer microseconds since the epoch.

        Exact integer arithmetic: sub-millisecond ticks floor to the
        millisecond the wire format can carry.
        """
        if not isinstance(time_us, int) or isinstance(time_us, bool):
            raise TypeError(f"time_us must be int, got {time_us!r}")
        if time_us < 0:
            raise ValueError("time_us must be >= 0")
        return cls._from_ms(time_us // 1000)

    @classmethod
    def from_seconds(cls, epoch_seconds: float) -> "CP56Time2a":
        """Build a tag from seconds since 2000-01-01 00:00:00.

        The simulator uses a simplified 30-day-month calendar: the tag is
        only required to be *monotonic and reversible*, which this is.
        """
        if epoch_seconds < 0:
            raise ValueError("epoch_seconds must be >= 0")
        return cls._from_ms(int(round(epoch_seconds * 1000.0)))

    @classmethod
    def _from_ms(cls, total_ms: int) -> "CP56Time2a":
        ms = total_ms % 60000
        total_min = total_ms // 60000
        minute = total_min % 60
        total_hours = total_min // 60
        hour = total_hours % 24
        total_days = total_hours // 24
        day = total_days % 30 + 1
        total_months = total_days // 30
        month = total_months % 12 + 1
        year = total_months // 12
        if year > 99:
            raise ValueError("timestamp beyond CP56Time2a range")
        return cls(milliseconds=ms, minute=minute, hour=hour,
                   day_of_month=day, month=month, year=year)

    def to_seconds(self) -> float:
        """Inverse of :meth:`from_seconds` (simplified calendar)."""
        days = (self.year * 12 + (self.month - 1)) * 30 + self.day_of_month - 1
        minutes = (days * 24 + self.hour) * 60 + self.minute
        return minutes * 60.0 + self.milliseconds / 1000.0

    def _sort_key(self) -> tuple:
        return (self.year, self.month, self.day_of_month, self.hour,
                self.minute, self.milliseconds)

    def __lt__(self, other: "CP56Time2a") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "CP56Time2a") -> bool:
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "CP56Time2a") -> bool:
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "CP56Time2a") -> bool:
        return self._sort_key() >= other._sort_key()

    def encode(self) -> bytes:
        octet3 = self.minute | (0x80 if self.invalid else 0)
        octet4 = self.hour | (0x80 if self.summer_time else 0)
        octet5 = self.day_of_month | (self.day_of_week << 5)
        return bytes((
            self.milliseconds & 0xFF,
            (self.milliseconds >> 8) & 0xFF,
            octet3,
            octet4,
            octet5,
            self.month,
            self.year,
        ))

    @classmethod
    def decode(cls, data: bytes | memoryview, offset: int = 0) -> "CP56Time2a":
        """Read a tag in place, checking each field the wire can break.

        The masks bound every field, so six ranges remain (the day of
        week is three bits, always in range). They are checked in
        ``__post_init__``'s order, and the tag is built without running
        those checks again.
        """
        have = len(data) - offset
        if have < CP56_SIZE:
            raise MalformedASDUError(
                f"truncated CP56Time2a: {have if have > 0 else 0} < "
                f"{CP56_SIZE} octets")
        ms = data[offset] | (data[offset + 1] << 8)
        octet = data[offset + 2]
        minute = octet & 0x3F
        invalid = octet > 0x7F
        octet = data[offset + 3]
        hour = octet & 0x1F
        summer = octet > 0x7F
        octet = data[offset + 4]
        day = octet & 0x1F
        day_of_week = octet >> 5
        month = data[offset + 5] & 0x0F
        year = data[offset + 6] & 0x7F
        if ms > 59999:
            name = "milliseconds"
        elif minute > 59:
            name = "minute"
        elif hour > 23:
            name = "hour"
        elif day == 0:
            name = "day_of_month"
        elif month == 0 or month > 12:
            name = "month"
        elif year > 99:
            name = "year"
        else:
            tag = _new(cls)
            _set_milliseconds(tag, ms)
            _set_minute(tag, minute)
            _set_hour(tag, hour)
            _set_day_of_month(tag, day)
            _set_day_of_week(tag, day_of_week)
            _set_month(tag, month)
            _set_year(tag, year)
            _set_invalid(tag, invalid)
            _set_summer_time(tag, summer)
            return tag
        raise MalformedASDUError(
            f"invalid CP56Time2a: CP56Time2a field {name} out of range")


@dataclass(frozen=True, order=True, slots=True)
class CP16Time2a:
    """2-octet elapsed time in milliseconds (0..59999)."""

    milliseconds: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.milliseconds <= 59999:
            raise ValueError("CP16Time2a milliseconds out of range")

    def encode(self) -> bytes:
        return bytes((self.milliseconds & 0xFF, (self.milliseconds >> 8)))

    @classmethod
    def decode(cls, data: bytes | memoryview, offset: int = 0) -> "CP16Time2a":
        if len(data) - offset < CP16_SIZE:
            raise MalformedASDUError("truncated CP16Time2a")
        value = data[offset] | (data[offset + 1] << 8)
        if value > 59999:
            raise MalformedASDUError(f"CP16Time2a value {value} out of range")
        tag = _new(cls)
        _set_cp16_milliseconds(tag, value)
        return tag


_new = object.__new__
(_set_milliseconds, _set_minute, _set_hour, _set_day_of_month,
 _set_day_of_week, _set_month, _set_year, _set_invalid,
 _set_summer_time) = slot_setters(CP56Time2a)
(_set_cp16_milliseconds,) = slot_setters(CP16Time2a)
